"""Vertical TID-bitset support counting for personal databases.

Taxonomy-aware support (Section 2) is exactly itemset support under the
interned partial order — which is what vertical transaction-id (TID) list
mining was built for.  This module compiles one member's transaction
history into an inverted index:

* every *distinct* transaction fact (keyed by its interned subject /
  relation / object ids) maps to a **transaction bitmask** — bit ``i`` set
  iff transaction ``i`` contains that fact;
* per component position, every distinct term maps to a **fact-id bitset**
  over the distinct facts using it in that position.

``support(A)`` then runs without touching a single transaction object:

1. for each query fact ``f ∈ A``, the *witness facts* are the distinct
   facts whose subject/relation/object all specialize ``f``'s — three
   fact-id bitset unions (over the closure of each component) followed by
   two bitwise ANDs;
2. the witness facts' transaction masks are OR-ed into ``f``'s *witness
   mask* (the TIDs with a witness for ``f``), memoized per query fact;
3. ``A``'s supporting transactions are the AND of its facts' witness
   masks, and the hit count is one ``int.bit_count()``.

This replaces the reference ``O(|D|·|A|·|T|)`` per-transaction ``leq``
cascade with work proportional to the number of *distinct* facts touched,
and repeated structurally-similar questions (the normal crowd-mining
workload) hit the per-fact memo directly.

The index is version-stamped on the database and both vocabulary orders
and rebuilt lazily when its database hands it out after any of them
changes, so ``PersonalDatabase.add()`` invalidates correctly (see
``docs/PERFORMANCE.md``).  It keeps no reference to its database: the
database holds the index, and a cycle would leave every member's
transactions to the cyclic collector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..observability import count as _obs_count, span as _obs_span
from ..ontology.facts import Fact, FactSet
from ..vocabulary.terms import ANY_ELEMENT, ANY_RELATION_WILDCARD, Term
from ..vocabulary.vocabulary import Vocabulary


class TidIndex:
    """The inverted fact → transaction-bitmask index of one database.

    Built against a specific :class:`Vocabulary`; keyed on the database
    version and both order versions, rebuilding in :meth:`sync` when stale.
    """

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self._built_stamp: Optional[Tuple[int, int, int]] = None
        # distinct transaction facts, interned to local fact ids
        self._fact_ids: Dict[Fact, int] = {}
        self._fact_masks: List[int] = []
        # component position -> term -> fact-id bitset
        self._by_subject: Dict[Term, int] = {}
        self._by_relation: Dict[Term, int] = {}
        self._by_object: Dict[Term, int] = {}
        self._all_facts_mask = 0
        self._all_tx_mask = 0
        # query fact -> witness transaction mask (step 2 above)
        self._witness_cache: Dict[Fact, int] = {}

    # ---------------------------------------------------------- build / sync

    def sync(self, database) -> None:
        """Rebuild from ``database`` if it or an order changed since the build."""
        stamp = (
            database.data_version,
            self.vocabulary.element_order.version,
            self.vocabulary.relation_order.version,
        )
        if self._built_stamp != stamp:
            with _obs_span("backend.compile"):
                self._rebuild(database)
            self._built_stamp = stamp

    def _rebuild(self, database) -> None:
        self._fact_ids.clear()
        self._by_subject.clear()
        self._by_relation.clear()
        self._by_object.clear()
        self._witness_cache.clear()
        fact_masks: List[int] = []
        fact_ids = self._fact_ids
        for position, transaction in enumerate(database):
            tx_bit = 1 << position
            for fact in transaction.facts:
                fid = fact_ids.get(fact)
                if fid is None:
                    fid = len(fact_masks)
                    fact_ids[fact] = fid
                    fact_masks.append(0)
                    fact_bit = 1 << fid
                    self._by_subject[fact.subject] = (
                        self._by_subject.get(fact.subject, 0) | fact_bit
                    )
                    self._by_relation[fact.relation] = (
                        self._by_relation.get(fact.relation, 0) | fact_bit
                    )
                    self._by_object[fact.obj] = (
                        self._by_object.get(fact.obj, 0) | fact_bit
                    )
                fact_masks[fid] |= tx_bit
        self._fact_masks = fact_masks
        self._all_facts_mask = (1 << len(fact_masks)) - 1
        self._all_tx_mask = (1 << len(database)) - 1
        _obs_count("tid_index.rebuilds")

    # -------------------------------------------------------------- queries

    def _component_facts(self, term: Term, index: Dict[Term, int], wildcard: Term) -> int:
        """Fact-id bitset of distinct facts whose component specializes ``term``."""
        if term == wildcard:
            return self._all_facts_mask
        direct = index.get(term, 0)
        descendants = self.vocabulary.descendants(term)
        if len(descendants) == 1:
            # only the term itself (e.g. vocabulary terms outside the order)
            return direct
        bits = 0
        # iterate whichever side is smaller: the closure or the index keys
        if len(descendants) < len(index):
            for specialization in descendants:
                entry = index.get(specialization)
                if entry:
                    bits |= entry
        else:
            for key, entry in index.items():
                if key in descendants:
                    bits |= entry
        return bits

    def witness_mask(self, fact: Fact) -> int:
        """Transaction bitmask of the transactions containing a witness
        ``g ≥ fact`` (memoized per distinct query fact)."""
        cached = self._witness_cache.get(fact)
        if cached is not None:
            _obs_count("tid_index.witness.hits")
            return cached
        _obs_count("tid_index.witness.misses")
        candidates = self._component_facts(
            fact.subject, self._by_subject, ANY_ELEMENT
        )
        if candidates:
            candidates &= self._component_facts(
                fact.relation, self._by_relation, ANY_RELATION_WILDCARD
            )
        if candidates:
            candidates &= self._component_facts(
                fact.obj, self._by_object, ANY_ELEMENT
            )
        mask = 0
        fact_masks = self._fact_masks
        while candidates:
            low = candidates & -candidates
            mask |= fact_masks[low.bit_length() - 1]
            candidates ^= low
        self._witness_cache[fact] = mask
        return mask

    def supporting_mask(self, fact_set: FactSet) -> int:
        """Transaction bitmask of the transactions implying ``fact_set``.

        Every fact's witness mask is looked up, even once the AND is empty:
        a fact set iterates in hash order, so stopping early would make
        the memo's contents and counters depend on ``PYTHONHASHSEED``.
        """
        _obs_count("tid_index.support.queries")
        mask = self._all_tx_mask
        for fact in fact_set:
            mask &= self.witness_mask(fact)
        return mask

    def hits(self, fact_set: FactSet) -> int:
        """``|{T ∈ D : fact_set ≤ T}|`` — one popcount over the AND."""
        return self.supporting_mask(fact_set).bit_count()
