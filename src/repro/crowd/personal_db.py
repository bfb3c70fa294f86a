"""Personal databases: the virtual transaction DBs of Section 2.

A crowd member's history is a bag of *transactions*, each a fact-set
describing one occasion.  The database is "virtual" — the real system never
sees it and can only probe it through questions — but the simulation needs a
concrete object to answer from, and the tests need Table 3's ``D_u1`` and
``D_u2`` to reproduce Example 2.7's support values exactly.

Support counting is the hottest loop of every simulated experiment (one
call per question per member) and always runs on the vertical TID-bitset
index (:mod:`repro.crowd.tid_index`).  The per-transaction scan
(:meth:`PersonalDatabase.support_reference`) is kept as the executable
definition of Section 2's ``supp_u`` and the oracle the equivalence tests
check the index against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from ..observability import count as _obs_count
from ..ontology.facts import FactLike, FactSet, parse_fact_set
from ..vocabulary.vocabulary import Vocabulary
from .tid_index import TidIndex

#: Cap on memoized hit counts per database.  Long multi-query sessions ask
#: about unboundedly many distinct fact-sets; beyond the cap the oldest
#: entries are evicted FIFO (the TID index keeps even cold queries cheap).
HITS_CACHE_MAX = 8192


class Transaction:
    """One occasion in a personal history: an id plus a fact-set."""

    __slots__ = ("transaction_id", "facts")

    def __init__(self, transaction_id: str, facts: Union[FactSet, Iterable[FactLike]]):
        self.transaction_id = transaction_id
        self.facts = facts if isinstance(facts, FactSet) else FactSet(facts)

    def implies(self, fact_set: FactSet, vocabulary: Vocabulary) -> bool:
        """Does this transaction imply ``fact_set`` (``fact_set ≤ T``)?"""
        return self.facts.implies(fact_set, vocabulary)

    def __repr__(self) -> str:
        return f"Transaction({self.transaction_id!r}, {self.facts!r})"


class PersonalDatabase:
    """The (virtual) transaction database ``D_u`` of one crowd member."""

    def __init__(self, transactions: Iterable[Transaction] = ()):
        self._transactions: List[Transaction] = list(transactions)
        #: bumped on every mutation; the TID index and hit memo key on it
        self.data_version = 0
        # members are asked about many structurally-identical fact-sets
        # (cache replay, multiple traversal paths); memoize hit counts,
        # bounded by HITS_CACHE_MAX (FIFO eviction)
        self._hits_cache: dict = {}
        self._index: Optional[TidIndex] = None

    @classmethod
    def from_fact_sets(
        cls, fact_sets: Sequence[Union[FactSet, Iterable[FactLike]]], prefix: str = "T"
    ) -> "PersonalDatabase":
        """Build from raw fact-sets, auto-numbering transaction ids."""
        return cls(
            Transaction(f"{prefix}{i}", fs) for i, fs in enumerate(fact_sets, start=1)
        )

    @classmethod
    def parse(cls, texts: Sequence[str], prefix: str = "T") -> "PersonalDatabase":
        """Build from the paper's dotted notation, one string per transaction."""
        return cls.from_fact_sets([parse_fact_set(t) for t in texts], prefix=prefix)

    def add(self, transaction: Transaction) -> None:
        self._transactions.append(transaction)
        self.data_version += 1
        self._hits_cache.clear()

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    # -------------------------------------------------------------- support

    def tid_index(self, vocabulary: Vocabulary) -> TidIndex:
        """The TID-bitset index against ``vocabulary``, current with this database."""
        index = self._index
        if index is None or index.vocabulary is not vocabulary:
            index = TidIndex(vocabulary)
            self._index = index
            self._hits_cache.clear()
        index.sync(self)
        return index

    def support(self, fact_set: FactSet, vocabulary: Vocabulary) -> float:
        """``supp_u(A) = |{T : A ≤ T}| / |D_u|`` (Section 2).

        An empty database yields support 0; the empty fact-set has support 1
        (implied by every transaction).
        """
        if not self._transactions:
            return 0.0
        return self._hits(fact_set, vocabulary) / len(self._transactions)

    def support_reference(self, fact_set: FactSet, vocabulary: Vocabulary) -> float:
        """Unoptimized support via the per-transaction ``leq`` scan.

        Ground truth for ``tests/test_bitset_equivalence.py``; no
        memoization, no index.
        """
        if not self._transactions:
            return 0.0
        return self._hits_reference(fact_set, vocabulary) / len(self._transactions)

    def _hits(self, fact_set: FactSet, vocabulary: Vocabulary) -> int:
        _obs_count("support.count.tid")
        cache = self._hits_cache
        key = (
            fact_set,
            self.data_version,
            vocabulary.element_order.version,
            vocabulary.relation_order.version,
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
        hits = self.tid_index(vocabulary).hits(fact_set)
        if len(cache) >= HITS_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = hits
        return hits

    def _hits_reference(self, fact_set: FactSet, vocabulary: Vocabulary) -> int:
        return sum(1 for t in self._transactions if t.implies(fact_set, vocabulary))

    def support_fraction(self, fact_set: FactSet, vocabulary: Vocabulary) -> Fraction:
        """Exact rational support, for tests that assert paper values."""
        if not self._transactions:
            return Fraction(0)
        return Fraction(self._hits(fact_set, vocabulary), len(self._transactions))

    def supporting_transactions(
        self, fact_set: FactSet, vocabulary: Vocabulary
    ) -> List[Transaction]:
        """The transactions that imply ``fact_set``."""
        mask = self.tid_index(vocabulary).supporting_mask(fact_set)
        out: List[Transaction] = []
        transactions = self._transactions
        while mask:
            low = mask & -mask
            out.append(transactions[low.bit_length() - 1])
            mask ^= low
        return out

    def __repr__(self) -> str:
        return f"PersonalDatabase({len(self._transactions)} transactions)"
