"""Lazy, query-driven assignment space (Section 5 of the paper).

Given an ontology and a parsed OASSIS-QL query, :class:`QueryAssignmentSpace`
exposes the expanded assignment DAG of Algorithm 1, generated on demand:

* the *valid* multiplicity-1 assignments come from evaluating the WHERE
  clause with the SPARQL engine;
* the space is *expanded* with every generalization of a valid assignment
  (Algorithm 1, line 1), obtained by walking each value up the taxonomy
  within the query-derived caps (Figure 3's dashed nodes);
* assignments with multiplicities are produced lazily by adding values —
  the combination rule of Proposition 5.1 — rather than eagerly
  materializing the exponentially large multi-value space;
* multiplicity 0 drops meta-facts; its validity is checked against the
  WHERE clause with the dropped variables' patterns removed, per the
  paper's treatment in Section 5;
* MORE extensions come from two sources: a caller-supplied candidate pool
  (every pool fact is offered as a successor), and — matching the paper's
  "more" button — crowd proposals registered at run time via
  :meth:`QueryAssignmentSpace.propose_more_fact`.

Blanks (``[]``) in the SATISFYING clause are rewritten to hidden variables
pinned at wildcard values, which the fact order treats as "anything".
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..observability import count as _obs_count, get_tracer, span as _obs_span
from ..ontology.facts import Fact, FactSet
from ..ontology.graph import INSTANCE_OF, SUBCLASS_OF, Ontology
from ..oassisql.ast import (
    MetaFact,
    Query,
    SatisfyingClause,
    SatTerm,
)
from ..sparql.ast import BGP, Blank, Concrete, RelationPattern, Var
from ..sparql.bindings import Binding
from ..sparql.engine import SparqlEngine
from ..vocabulary.terms import (
    ANY_ELEMENT,
    ANY_RELATION_WILDCARD,
    Element,
    Term,
)
from .assignment import Assignment
from .lattice import AssignmentSpace


class QueryLattice:
    """The crowd-independent part of a query's expanded assignment DAG.

    Algorithm 1's DAG depends only on the ontology and on the query's
    WHERE and SATISFYING parts (with the MORE pool and the value caps of
    its space), never on the support threshold or on the crowd.  A
    lattice holds what a :class:`QueryAssignmentSpace` derives from them:
    the WHERE tuples per dropped-variable subset, the caps, universes and
    top values, the tuple index and witness memo, the expansion and
    validity verdicts, the roots, the base successor and predecessor
    lists, and the order-derived memos (``leq`` digests, ordered
    successors, addable values, chain positions), each with the order
    stamp it was built at.  Every entry is a pure function of its key,
    whichever space computed it; crowd answers and crowd-proposed MORE
    extensions never enter it.

    A space builds its lattice in its constructor, or shares one passed
    in: :meth:`repro.engine.engine.OassisEngine.build_space` retains a
    few under :func:`lattice_key`, so the runs, replays and sessions of
    one query shape evaluate its WHERE clause once and expand each node
    once.  The space's methods fill the lattice; they stay on the space,
    where a subclass can override one computation and traced runs wrap
    them by name.  Not synchronized, like :class:`WitnessIndex`: every
    runtime drives an engine from one thread.
    """

    def __init__(self, ontology: Ontology, query: Query) -> None:
        self.engine = SparqlEngine(ontology)
        self.caps = _where_caps(query.where)
        # dropped-subset -> (constrained remaining vars, set of value tuples)
        self.reduced: Dict[FrozenSet[str], Tuple[Tuple[str, ...], Set[Tuple]]] = {}
        self.universes: Dict[str, FrozenSet[Term]] = {}
        self.top: Dict[str, FrozenSet[Term]] = {}
        self.roots: Optional[List[Assignment]] = None
        # memoized traversal structure: regenerating successors dominates the
        # mining runtime otherwise (every BFS pass re-derives them).  A
        # successor list is the node's expansion without any run's proposals
        self.successors: Dict[Assignment, List[Assignment]] = {}
        self.predecessors: Dict[Assignment, List[Assignment]] = {}
        self.valid: Dict[Assignment, bool] = {}
        # in_expansion verdicts per shared-variable value projection: MORE
        # facts and free variables never enter the verdict
        self.expansion: Dict[Tuple[FrozenSet[Term], ...], bool] = {}
        # per-dropped-subset inverted index: var -> value -> tuple bitmask,
        # making expansion checks bitwise-AND work instead of per-tuple leq
        self.tuple_index: Dict[FrozenSet[str], Dict[str, Dict[Term, int]]] = {}
        # (dropped, var, value) -> (witness values, domination mask): the
        # concrete tuple values the assignment value generalizes, and the
        # OR of their tuple masks.  Memoized across expansion checks — the
        # same few hundred (var, value) pairs recur for every candidate
        # node, and recomputing them per node used to dominate travel runs
        self.witness_memo: Dict[
            Tuple[FrozenSet[str], str, Term], Tuple[Tuple[Term, ...], int]
        ] = {}
        # per-assignment leq digests (see QueryAssignmentSpace.leq);
        # invalidated when either order's version stamp moves, like every
        # closure-derived cache
        self.digest_stamp: Tuple[int, int] = (-1, -1)
        self.left_digest: Dict[Assignment, tuple] = {}
        self.right_digest: Dict[Assignment, tuple] = {}
        # memos derived from the orders, dropped when their stamp moves:
        # chain-partition sort keys (lazy), ordered_successors lists, and
        # addable values per (variable, value set)
        self.memo_stamp: Tuple[int, int] = (-1, -1)
        self.chain_pos: Optional[Dict[Term, Tuple[int, int]]] = None
        self.ordered: Dict[Assignment, List[Assignment]] = {}
        self.addable: Dict[Tuple[str, FrozenSet[Term]], List[Term]] = {}


def lattice_key(
    ontology: Ontology,
    query: Query,
    more_pool: Sequence[Fact],
    max_values_per_var: int,
    max_more_facts: int,
) -> tuple:
    """The query shape a :class:`QueryLattice` is valid for.

    The versions of the ontology and of both orders, the WHERE patterns,
    the SATISFYING meta-facts with their blanks resolved, the MORE flag,
    the MORE pool and the two value caps; never the support threshold.
    Blanks compare by identity, so two parses of one text differ in them:
    a WHERE blank keys as ``None`` (each occurrence is its own
    existential), a SATISFYING blank as the hidden variable it resolves to.
    """
    vocabulary = ontology.vocabulary
    where = None
    if query.where is not None:
        where = tuple(
            (
                _blankless(p.subject),
                _blankless(p.relation.term),
                p.relation.mod,
                _blankless(p.obj),
            )
            for p in query.where
        )
    satisfying = _resolve_blanks(query.satisfying)
    return (
        (
            ontology.version,
            vocabulary.element_order.version,
            vocabulary.relation_order.version,
        ),
        where,
        tuple(satisfying.meta_facts),
        satisfying.more,
        tuple(more_pool),
        max_values_per_var,
        max_more_facts,
    )


def _blankless(term):
    return None if isinstance(term, Blank) else term


class QueryAssignmentSpace(AssignmentSpace[Assignment]):
    """One run's view of a query's expanded assignment DAG, built lazily.

    The structure lives in a :class:`QueryLattice` that other runs of the
    same query shape may share; the space adds what one run contributes:
    its crowd-proposed MORE extensions (:meth:`propose_more_fact`) and the
    record of the nodes it expanded (:meth:`materialized_nodes`).
    """

    def __init__(
        self,
        ontology: Ontology,
        query: Query,
        more_pool: Iterable[Fact] = (),
        max_values_per_var: int = 3,
        max_more_facts: int = 2,
        *,
        lattice: Optional[QueryLattice] = None,
    ):
        self.ontology = ontology
        self.vocabulary = ontology.vocabulary
        self.query = query
        self.more_pool: Tuple[Fact, ...] = tuple(more_pool)
        self.max_values_per_var = max_values_per_var
        self.max_more_facts = max_more_facts

        self.satisfying = _resolve_blanks(query.satisfying)
        self._hidden_values = _hidden_fixed_values(self.satisfying)
        self._sat_vars: Tuple[str, ...] = tuple(
            v.name
            for v in self.satisfying.variables()
            if v.name not in self._hidden_values
        )

        where_vars = {v.name for v in query.where_variables()}
        self._shared_vars = tuple(v for v in self._sat_vars if v in where_vars)
        self._free_vars = tuple(v for v in self._sat_vars if v not in where_vars)

        # ``lattice`` must come from a space of the same lattice_key
        if lattice is None:
            lattice = QueryLattice(ontology, query)
        self.lattice = lattice
        # the lattice's containers under the names the methods read (bound
        # once, never rebound: clearing one clears it for every sharer)
        self._engine = lattice.engine
        self._caps = lattice.caps
        self._reduced_cache = lattice.reduced
        self._universes = lattice.universes
        self._top_cache = lattice.top
        self._succ_cache = lattice.successors
        self._pred_cache = lattice.predecessors
        self._valid_cache = lattice.valid
        self._expansion_cache = lattice.expansion
        self._tuple_index = lattice.tuple_index
        self._witness_memo = lattice.witness_memo
        self._left_digest = lattice.left_digest
        self._right_digest = lattice.right_digest
        self._ordered = lattice.ordered
        self._addable = lattice.addable

        # what this run adds.  MORE facts proposed by the crowd (the UI's
        # "more" button): extra successors registered per node, verified
        # like any other assignment
        self._proposed_more: Dict[Assignment, List[Assignment]] = {}
        # the successor list this run reads per node it expanded: the
        # lattice's list, or a copy extended by the run's proposals
        self._expanded: Dict[Assignment, List[Assignment]] = {}
        # ordered lists of the nodes holding proposals, at _own_stamp
        self._own_ordered: Dict[Assignment, List[Assignment]] = {}
        self._own_stamp: Tuple[int, int] = (-1, -1)

        with _obs_span("sparql.match"):
            self._reduced_solutions(frozenset())

    # ------------------------------------------------------------ valid base

    def where_solutions(self) -> List[Binding]:
        """The raw WHERE-clause solutions (all WHERE variables bound).

        Evaluated on each call: the space itself only keeps the distinct
        projections onto the SATISFYING variables.
        """
        if self.query.where is None:
            return []
        return list(self._engine.solutions(self.query.where))

    def valid_base_assignments(self) -> List[Assignment]:
        """The multiplicity-1 valid assignments (the SPARQL results)."""
        seen: Set[Assignment] = set()
        ordered: List[Assignment] = []
        for values in self._base_tuples(frozenset()):
            assignment = self._assignment_from_tuple(self._shared_vars, values)
            if assignment not in seen:
                seen.add(assignment)
                ordered.append(assignment)
        return ordered

    def _base_tuples(self, dropped: FrozenSet[str]) -> Set[Tuple]:
        """Valid value tuples for the shared vars not in ``dropped``."""
        remaining, tuples = self._reduced_solutions(dropped)
        return tuples

    def _reduced_solutions(
        self, dropped: FrozenSet[str]
    ) -> Tuple[Tuple[str, ...], Set[Tuple]]:
        """WHERE solutions with patterns mentioning ``dropped`` removed,
        as the distinct value tuples of the constrained remaining shared
        variables (``SELECT DISTINCT`` over them)."""
        cached = self._reduced_cache.get(dropped)
        if cached is not None:
            return cached
        remaining = tuple(v for v in self._shared_vars if v not in dropped)
        patterns = [
            p
            for p in self.query.where or ()
            if not any(
                isinstance(part, Var) and part.name in dropped
                for part in (p.subject, p.relation.term, p.obj)
            )
        ]
        result: Tuple[Tuple[str, ...], Set[Tuple]] = (remaining, set())
        if remaining and patterns:
            reduced_bgp = BGP(patterns)
            named = {v.name for v in reduced_bgp.variables()}
            constrained = tuple(name for name in remaining if name in named)
            result = (
                constrained,
                set(self._engine.solutions(reduced_bgp, constrained)),
            )
        self._reduced_cache[dropped] = result
        return result

    def _assignment_from_tuple(
        self, names: Sequence[str], values: Sequence[Term]
    ) -> Assignment:
        mapping = {name: {value} for name, value in zip(names, values)}
        for hidden, fixed in self._hidden_values.items():
            mapping[hidden] = {fixed}
        return Assignment.make(self.vocabulary, mapping)

    # ------------------------------------------------------------- universes

    def universe(self, name: str) -> FrozenSet[Term]:
        """All candidate values for variable ``name`` in the expanded space.

        For WHERE-bound variables: the generalization closure of the valid
        values, intersected with the descendants of the variable's caps.
        For free variables: every element (or relation, for relation-position
        variables) in the vocabulary.
        """
        cached = self._universes.get(name)
        if cached is not None:
            return cached
        if name in self._hidden_values:
            result: FrozenSet[Term] = frozenset({self._hidden_values[name]})
        elif name in self._free_vars:
            result = self._free_universe(name)
        else:
            result = self._shared_universe(name)
        self._universes[name] = result
        return result

    def _free_universe(self, name: str) -> FrozenSet[Term]:
        if self._is_relation_var(name):
            return frozenset(self.vocabulary.relations)
        return frozenset(self.vocabulary.elements - {ANY_ELEMENT})

    def _shared_universe(self, name: str) -> FrozenSet[Term]:
        # the base values are the tuple index's keys for ``name``: the
        # index numbers the valid tuples for the expansion checks anyway
        constrained, tuples = self._reduced_solutions(frozenset())
        base_values = self._get_tuple_index(frozenset(), constrained, tuples)[name]
        closure: Set[Term] = set()
        for value in base_values:
            closure.update(self.vocabulary.ancestors(value))
        caps = self._caps.get(name)
        if caps:
            allowed: Set[Term] = set()
            for cap in caps:
                if cap in self.vocabulary.element_order:
                    allowed.update(self.vocabulary.descendants(cap))
            closure &= allowed
        return frozenset(closure)

    def _is_relation_var(self, name: str) -> bool:
        for meta_fact in self.satisfying.meta_facts:
            term = meta_fact.relation.term
            if isinstance(term, Var) and term.name == name:
                return True
        return False

    def top_values(self, name: str) -> FrozenSet[Term]:
        """The most general candidate values of variable ``name``."""
        cached = self._top_cache.get(name)
        if cached is not None:
            return cached
        result = frozenset(self._most_general(self.universe(name)))
        self._top_cache[name] = result
        return result

    def _most_general(self, terms: Iterable[Term]) -> List[Term]:
        """The ``terms`` no other one of them generalizes, in input order.

        One AND per term of its ancestor bitset with the id bits of all
        ``terms`` in its order, where a pairwise ``Vocabulary.leq`` loop
        was quadratic.  A term the orders do not register relates only to
        itself, so it is always kept and never hides another.
        """
        orders = (self.vocabulary.element_order, self.vocabulary.relation_order)
        members = [0, 0]
        placed = []
        for term in terms:
            kind = 0 if isinstance(term, Element) else 1
            tid = orders[kind].term_id(term)
            placed.append((term, kind, tid))
            if tid is not None:
                members[kind] |= 1 << tid
        return [
            term
            for term, kind, tid in placed
            if tid is None
            or orders[kind].ancestors_bits(term) & members[kind] == 1 << tid
        ]

    # ------------------------------------------------------- space interface

    def roots(self) -> List[Assignment]:
        """Most general assignments: top values for mandatory variables."""
        lattice = self.lattice
        if lattice.roots is not None:
            return list(lattice.roots)
        mandatory: List[str] = []
        for name in self._sat_vars:
            if self._min_multiplicity(name) >= 1:
                mandatory.append(name)
        choice_lists = [sorted(self.top_values(name)) for name in mandatory]
        if any(not choices for choices in choice_lists):
            return []
        roots: List[Assignment] = []
        seen: Set[Assignment] = set()
        for combo in itertools.product(*choice_lists):
            mapping = {name: {value} for name, value in zip(mandatory, combo)}
            for hidden, fixed in self._hidden_values.items():
                mapping[hidden] = {fixed}
            assignment = Assignment.make(self.vocabulary, mapping)
            if assignment not in seen and self.in_expansion(assignment):
                seen.add(assignment)
                roots.append(assignment)
        lattice.roots = roots
        return list(roots)

    def successors(self, node: Assignment) -> List[Assignment]:
        """The node's expansion, then this run's admitted MORE proposals.

        A cache hit is the run's own list or one the lattice already
        holds, possibly from another run's expansion; a miss expands.
        """
        tracer = get_tracer()
        mine = self._expanded.get(node)
        if mine is None:
            base = self._succ_cache.get(node)
            if base is None:
                base = self._succ_cache[node] = self._expand_traced(node, tracer)
            elif tracer is not None:
                tracer.count("lattice.succ_cache.hits")
            mine = self._expanded[node] = self._with_proposals(node, base)
        elif tracer is not None:
            tracer.count("lattice.succ_cache.hits")
        return list(mine)

    def _expand_traced(self, node: Assignment, tracer) -> List[Assignment]:
        """A cold expansion, counted and timed when a tracer is active."""
        if tracer is None:
            return self._expand(node)
        tracer.count("lattice.succ_cache.misses")
        start = time.perf_counter()
        with tracer.span("lattice.expand"):
            out = self._expand(node)
        # a cold expansion sits between a member's answer and their
        # next question: its tail is what the question gap feels
        tracer.observe("lattice.latency.expand", time.perf_counter() - start)
        if out:
            tracer.count("lattice.successors.generated", len(out))
        return out

    def _with_proposals(
        self, node: Assignment, base: List[Assignment]
    ) -> List[Assignment]:
        """``base`` extended by this run's proposals for ``node`` that pass
        the checks expansion applies, in proposal order."""
        proposed = self._proposed_more.get(node)
        if not proposed:
            return base
        extra = [p for p in proposed if p not in base and self._admits(node, p)]
        if not extra:
            return base
        _obs_count("lattice.successors.generated", len(extra))
        return base + extra

    def _expand(self, node: Assignment) -> List[Assignment]:
        """Generate the successors of ``node`` (the uncached path)."""
        out: List[Assignment] = []
        seen: Set[Assignment] = set()

        def emit(candidate: Assignment) -> None:
            if candidate not in seen and self._admits(node, candidate):
                seen.add(candidate)
                out.append(candidate)

        for name in self._sat_vars:
            universe = self.universe(name)
            current = node.get(name)
            # (i) specialize one value by one taxonomy edge, values and
            # children in sorted order, so the successor list does not
            # move with PYTHONHASHSEED (the sorted child tuples are
            # memoized in the orders)
            for value in sorted(current):
                for child in self.vocabulary.children_sorted(value):
                    if child in universe:
                        emit(
                            node.with_replaced_value(
                                self.vocabulary, name, value, child
                            )
                        )
            # (ii) add an incomparable value (lazy combination, Prop. 5.1)
            if len(current) < self._max_values(name):
                for candidate in self._addable_values(name, current):
                    emit(node.with_value(self.vocabulary, name, candidate))
        # (iii) append a MORE fact from the configured pool
        if self.satisfying.more and len(node.more) < self.max_more_facts:
            for fact in self.more_pool:
                emit(node.with_more_fact(self.vocabulary, fact))
        return out

    def _admits(self, node: Assignment, candidate: Assignment) -> bool:
        """Is ``candidate`` a successor of ``node``: strictly more specific
        and inside the expansion ``A``?  Membership is asked first, so a
        candidate outside ``A`` compiles no ``leq`` digest for the lattice
        to keep."""
        return (
            candidate != node
            and self.in_expansion(candidate)
            and self.leq(node, candidate)
        )

    def materialized_nodes(self) -> Set[Assignment]:
        """Every node this run expanded and every successor it read there
        (a lattice shared with other runs holds more)."""
        nodes = set(self._expanded)
        for successors in self._expanded.values():
            nodes.update(successors)
        return nodes

    def ordered_successors(self, node: Assignment) -> List[Assignment]:
        """Successors in chain-partitioned question order.

        Taxonomy chains (greedy path decomposition, per the complexity
        companion paper) group the successors so a top-down traversal
        descends one chain at a time: specializations along a chain come
        first (ordered by chain, then position), then added incomparable
        values, then MORE extensions.  The order is fully deterministic —
        ties break on ``repr`` — which also makes runs reproducible across
        interpreter hash seeds.  Each node is sorted once per order stamp:
        in the lattice, or in this run when it proposed MORE facts there.
        """
        self._sync_memos()
        memo = self._own_ordered if node in self._proposed_more else self._ordered
        ordered = memo.get(node)
        if ordered is None:
            ordered = sorted(
                self.successors(node),
                key=lambda s: self._successor_sort_key(node, s),
            )
            memo[node] = ordered
        return list(ordered)

    def _sync_memos(self) -> None:
        """Drop the order-derived memos when either order's version moved."""
        stamp = self.order_stamp()
        lattice = self.lattice
        if stamp != lattice.memo_stamp:
            lattice.memo_stamp = stamp
            lattice.chain_pos = None
            self._ordered.clear()
            self._addable.clear()
        if stamp != self._own_stamp:
            self._own_stamp = stamp
            self._own_ordered.clear()

    def _successor_sort_key(
        self, node: Assignment, successor: Assignment
    ) -> Tuple[int, int, int, str]:
        """(kind, chain id, chain position, repr) of one successor edge."""
        if len(successor.more) > len(node.more):
            return (2, 0, 0, repr(successor))
        for name in self._sat_vars:
            old = node.get(name)
            new = successor.get(name)
            if new == old:
                continue
            added = new - old
            if added:
                value = min(added)
                chain_id, position = self._chain_position(value)
                kind = 0 if len(new) == len(old) else 1
                return (kind, chain_id, position, repr(successor))
        return (3, 0, 0, repr(successor))

    def _chain_position(self, value: Term) -> Tuple[int, int]:
        """Chain coordinates of ``value`` across both orders (memoized at
        the stamp :meth:`_sync_memos` last saw)."""
        lattice = self.lattice
        if lattice.chain_pos is None:
            element_chains = self.vocabulary.element_order.chain_partition()
            relation_chains = self.vocabulary.relation_order.chain_partition()
            offset = len(element_chains)
            merged = dict(element_chains)
            for term, (chain_id, position) in relation_chains.items():
                merged[term] = (chain_id + offset, position)
            lattice.chain_pos = merged
        return lattice.chain_pos.get(value, (-1, 0))

    def propose_more_fact(self, node: Assignment, fact: Fact) -> Optional[Assignment]:
        """Register a crowd-proposed MORE extension of ``node``.

        This is the paper's "more" button: instead of enumerating candidate
        MORE facts at every assignment (which would multiply the question
        load), extensions enter the DAG only when a member volunteers one;
        the extension is then verified with concrete questions like any
        other assignment.  The extension is this run's: it joins the end of
        ``node``'s successor list in this space only, through the checks
        expansion applies, whether or not the run expanded ``node`` yet.
        Returns the extended assignment, or None when the query has no MORE
        clause, the extension budget is exhausted, or the fact adds nothing.
        """
        if not self.satisfying.more or len(node.more) >= self.max_more_facts:
            return None
        extended = node.with_more_fact(self.vocabulary, fact)
        if extended == node or not node.strictly_leq(extended, self.vocabulary):
            return None
        bucket = self._proposed_more.setdefault(node, [])
        if extended not in bucket:
            bucket.append(extended)
            mine = self._expanded.get(node)
            if (
                mine is not None
                and extended not in mine
                and self._admits(node, extended)
            ):
                # a new list: the old one may be the lattice's
                self._expanded[node] = mine + [extended]
                self._own_ordered.pop(node, None)
                _obs_count("lattice.successors.generated")
        return extended

    def predecessors(self, node: Assignment) -> List[Assignment]:
        cached = self._pred_cache.get(node)
        if cached is not None:
            return list(cached)
        out: List[Assignment] = []
        seen: Set[Assignment] = set()

        def emit(candidate: Assignment) -> None:
            if candidate not in seen and candidate != node and self.leq(candidate, node):
                seen.add(candidate)
                out.append(candidate)

        # values and MORE facts in sorted order, like _expand: the lists
        # are shared and must not move with PYTHONHASHSEED
        for name in self._sat_vars:
            universe = self.universe(name)
            current = node.get(name)
            for value in sorted(current):
                # (i) generalize one value by one taxonomy edge
                for parent in self.vocabulary.parents_sorted(value):
                    if parent in universe:
                        emit(
                            node.with_replaced_value(
                                self.vocabulary, name, value, parent
                            )
                        )
                # (ii) drop a value (inverse of lazy combination)
                if len(current) > 1 or self._min_multiplicity(name) == 0:
                    remaining = dict(node.values)
                    remaining[name] = frozenset(v for v in current if v != value)
                    emit(Assignment(remaining, node.more))
        for fact in sorted(node.more):
            remaining_more = frozenset(f for f in node.more if f != fact)
            emit(Assignment(node.values, remaining_more))
        self._pred_cache[node] = out
        return list(out)

    def leq(self, a: Assignment, b: Assignment) -> bool:
        """Def. 4.1 domination, accelerated with the closure bitsets.

        Each assignment is compiled once into a *digest*: per variable the
        descendant bitsets of its values (left side) and the OR of its
        values' interned-id bits (right side), plus the componentwise
        analogue for MORE facts.  ``a ≤ b`` then reduces to a handful of
        bitwise ANDs instead of nested ``vocabulary.leq`` loops.  Digests
        are invalidated when either order's version stamp moves (the
        standard contract; see docs/PERFORMANCE.md).  Classification
        inference asks :class:`WitnessIndex` instead of calling this once
        per (node, witness) pair.
        """
        if a is b:
            return True
        stamp = self.order_stamp()
        lattice = self.lattice
        if stamp != lattice.digest_stamp:
            self._left_digest.clear()
            self._right_digest.clear()
            lattice.digest_stamp = stamp
        left = self._left_digest.get(a)
        if left is None:
            left = self._compile_left_digest(a)
            self._left_digest[a] = left
        right = self._right_digest.get(b)
        if right is None:
            right = self._compile_right_digest(b)
            self._right_digest[b] = right
        value_masks = right[0]
        for name, (regs, unregs) in left[0].items():
            if not _values_leq(regs, unregs, value_masks.get(name), b.values.get(name)):
                return False
        return _more_leq(left[1], right[1])

    def order_stamp(self) -> Tuple[int, int]:
        """Both orders' version stamps: every digest and mask is built at one."""
        return (
            self.vocabulary.element_order.version,
            self.vocabulary.relation_order.version,
        )

    def witness_index(
        self, significant: List[Assignment], insignificant: List[Assignment]
    ) -> "WitnessIndex":
        """A :class:`WitnessIndex` over two append-only witness logs."""
        return WitnessIndex(self, significant, insignificant)

    def _compile_left_digest(self, a: Assignment) -> tuple:
        """Digest of ``a`` as the left (more general) side of ``leq``:
        ``({name: _left_values(...)}, _left_more(a.more))``."""
        return (
            {name: self._left_values(values) for name, values in a.values.items()},
            self._left_more(a.more),
        )

    def _left_values(self, values: Iterable[Term]) -> Tuple[tuple, tuple]:
        """``(regs, unregs)`` of one variable's values on the left side.

        ``regs`` holds the descendant bitset of each order-registered value
        (tagged by kind) and ``unregs`` the values the orders do not know —
        those only match themselves, exactly like ``vocabulary.leq``'s
        reflexive fallback.
        """
        element_order = self.vocabulary.element_order
        relation_order = self.vocabulary.relation_order
        regs = []
        unregs = []
        for v in values:
            is_elem = isinstance(v, Element)
            order = element_order if is_elem else relation_order
            bits = order.descendants_bits(v)
            if bits:
                regs.append((bits, is_elem))
            else:
                unregs.append(v)
        return tuple(regs), tuple(unregs)

    def _left_more(self, facts: Iterable[Fact]) -> tuple:
        """Per MORE fact, its three component checks on the left side."""
        element_order = self.vocabulary.element_order
        relation_order = self.vocabulary.relation_order
        return tuple(
            (
                self._left_fact_component(f.subject, element_order, ANY_ELEMENT),
                self._left_fact_component(
                    f.relation, relation_order, ANY_RELATION_WILDCARD
                ),
                self._left_fact_component(f.obj, element_order, ANY_ELEMENT),
            )
            for f in facts
        )

    @staticmethod
    def _left_fact_component(term: Term, order, wildcard: Term) -> Tuple[int, object]:
        """One MORE-fact component check: 0=wildcard, 1=bitset, 2=exact."""
        if term == wildcard:
            return (0, None)
        bits = order.descendants_bits(term)
        if bits:
            return (1, bits)
        return (2, term)

    def _compile_right_digest(self, b: Assignment) -> tuple:
        """Digest of ``b`` as the right (more specific) side of ``leq``:
        ``({name: _right_values(...)}, _right_more(b.more))``."""
        return (
            {name: self._right_values(values) for name, values in b.values.items()},
            self._right_more(b.more),
        )

    def _right_values(self, values: Iterable[Term]) -> Tuple[int, int]:
        """The OR of one variable's value id bits, per order, on the right side."""
        element_order = self.vocabulary.element_order
        relation_order = self.vocabulary.relation_order
        elem_mask = 0
        rel_mask = 0
        for v in values:
            if isinstance(v, Element):
                tid = element_order.term_id(v)
                if tid is not None:
                    elem_mask |= 1 << tid
            else:
                tid = relation_order.term_id(v)
                if tid is not None:
                    rel_mask |= 1 << tid
        return (elem_mask, rel_mask)

    def _right_more(self, facts: Iterable[Fact]) -> tuple:
        """Per MORE fact, its components' ``(id bit, term)`` on the right side."""
        element_order = self.vocabulary.element_order
        relation_order = self.vocabulary.relation_order

        def bit_of(order, term):
            tid = order.term_id(term)
            return 0 if tid is None else 1 << tid

        return tuple(
            (
                (bit_of(element_order, f.subject), f.subject),
                (bit_of(relation_order, f.relation), f.relation),
                (bit_of(element_order, f.obj), f.obj),
            )
            for f in facts
        )

    def is_valid(self, node: Assignment) -> bool:
        """Validity w.r.t. the WHERE clause and multiplicity annotations."""
        cached = self._valid_cache.get(node)
        if cached is not None:
            return cached
        result = self._compute_valid(node)
        self._valid_cache[node] = result
        return result

    def _compute_valid(self, node: Assignment) -> bool:
        if node.more and not self.satisfying.more:
            return False
        if not self._multiplicities_ok(node):
            return False
        dropped = frozenset(
            name for name in self._shared_vars if not node.get(name)
        )
        constrained, tuples = self._reduced_solutions(dropped)
        if constrained:
            value_lists = [sorted(node.get(name)) for name in constrained]
            for combo in itertools.product(*value_lists):
                if tuple(combo) not in tuples:
                    return False
        # free variables: any value drawn from their universe is acceptable
        for name in self._free_vars:
            universe = self.universe(name)
            if any(value not in universe for value in node.get(name)):
                return False
        return True

    def in_expansion(self, node: Assignment) -> bool:
        """Is ``node`` in the expanded set ``A`` of Algorithm 1, line 1?

        ``A = {φ : ∃φ' ∈ A_valid, φ ≤ φ'}`` — the down-closure of the valid
        assignments.  Traversal is restricted to ``A`` (the paper's DAG);
        without this restriction the space would be the full product of the
        per-variable universes, most of which no crowd question should ever
        touch.

        For each value of each WHERE-bound variable we collect its possible
        *witness* values among the valid tuples, then search for a coherent
        witness grid: one witness set per variable whose full cross product
        consists of valid tuples (this is exactly what a valid assignment
        with multiplicities looks like, by Proposition 5.1; see
        :meth:`_witness_grid_exists`).  Free variables and MORE facts are
        unconstrained, so the verdict is computed once per projection of
        ``node`` onto the WHERE-bound variables.
        """
        projection = tuple(node.get(name) for name in self._shared_vars)
        cached = self._expansion_cache.get(projection)
        if cached is None:
            cached = self._compute_in_expansion(projection)
            self._expansion_cache[projection] = cached
            _obs_count("lattice.expansion.checks")
        return cached

    def _compute_in_expansion(self, projection: Tuple[FrozenSet[Term], ...]) -> bool:
        values = dict(zip(self._shared_vars, projection))
        dropped = frozenset(name for name, vals in values.items() if not vals)
        constrained, tuples = self._reduced_solutions(dropped)
        relevant = [name for name in constrained if values[name]]
        if not relevant or not tuples:
            return bool(tuples) or not relevant
        index = self._get_tuple_index(dropped, constrained, tuples)
        multi = [name for name in relevant if len(values[name]) > 1]
        if not multi:
            # single-valued: one dominating tuple suffices — AND the
            # per-(var, value) domination masks and test for a survivor
            surviving = -1
            for name in relevant:
                (value,) = values[name]
                _, dominated = self._witness_info(dropped, index, name, value)
                surviving &= dominated
                if not surviving:
                    return False
            return True
        return self._witness_grid_exists(values, relevant, dropped, index)

    def _get_tuple_index(
        self,
        dropped: FrozenSet[str],
        constrained: Tuple[str, ...],
        tuples: Set[Tuple],
    ) -> Dict[str, Dict[Term, int]]:
        """Per variable: concrete value -> bitmask of the tuples holding it.

        The tuples are numbered in the order the set yields them: the
        masks are only ANDed, ORed and tested for zero, so any numbering
        gives the same verdicts.
        """
        cached = self._tuple_index.get(dropped)
        if cached is not None:
            return cached
        index: Dict[str, Dict[Term, int]] = {name: {} for name in constrained}
        for position, t in enumerate(tuples):
            bit = 1 << position
            for slot, name in enumerate(constrained):
                per_value = index[name]
                per_value[t[slot]] = per_value.get(t[slot], 0) | bit
        self._tuple_index[dropped] = index
        return index

    def _witness_info(
        self,
        dropped: FrozenSet[str],
        index: Dict[str, Dict[Term, int]],
        name: str,
        value: Term,
    ) -> Tuple[Tuple[Term, ...], int]:
        """Witness values of ``value`` at variable ``name`` + their mask.

        The witnesses are the concrete tuple values ``value`` generalizes
        (``value ≤ w``); the mask is the OR of their tuple bitmasks (the
        tuples with *some* witness for ``value`` at ``name``).  Memoized —
        candidate nodes share (var, value) pairs heavily, and membership in
        the precompiled descendant closure replaces a per-tuple ``leq``
        cascade.
        """
        key = (dropped, name, value)
        cached = self._witness_memo.get(key)
        if cached is not None:
            return cached
        per_value = index[name]
        # intersect the closure with the index keys, iterating the smaller
        # side (the closure can span thousands of terms at paper scale
        # while the tuple index stays query-sized)
        descendants = self.vocabulary.descendants(value)
        witnesses: List[Term] = []
        mask = 0
        if len(per_value) < len(descendants):
            for specialization, bits in per_value.items():
                if specialization in descendants:
                    witnesses.append(specialization)
                    mask |= bits
        else:
            for specialization in descendants:
                bits = per_value.get(specialization)
                if bits:
                    witnesses.append(specialization)
                    mask |= bits
        result = (tuple(sorted(witnesses, key=lambda t: t.name)), mask)
        self._witness_memo[key] = result
        return result

    def _witness_grid_exists(self, values, relevant, dropped, index) -> bool:
        """Is there a coherent witness grid for the multi-valued ``values``?

        A grid picks one witness per (variable, value); it is coherent when
        every selection of one picked witness per variable is a valid
        tuple, so the picks form a valid assignment with multiplicities
        that dominates ``values`` (Prop. 5.1).  A depth-first search makes
        the picks one variable at a time and keeps, per selection over the
        variables picked so far, the mask of the tuples realizing it: a pick
        that empties one of those masks ends its branch, since every
        selection extending it fails too.  The variable with the most
        witness combinations goes last, where each of its values needs just
        one witness meeting every partial mask: a scan, not a product.  Past
        20,000 witness combinations the looser per-selection test decides.
        """
        per_var: List[List[Tuple[int, ...]]] = []
        total = 1
        for name in relevant:
            bits = index[name]
            options = []
            for value in sorted(values[name], key=lambda t: t.name):
                witnesses, _ = self._witness_info(dropped, index, name, value)
                if not witnesses:
                    return False
                options.append(tuple(bits[w] for w in witnesses))
                total *= len(witnesses)
            per_var.append(options)
        if total > 20000:
            return self._selectionwise_dominated(values, relevant, dropped, index)
        # most witness combinations last
        per_var.sort(key=lambda options: math.prod(map(len, options)))
        return _grid_search(per_var[:-1], per_var[-1], (-1,))

    def _selectionwise_dominated(self, values, relevant, dropped, index) -> bool:
        """Looser fallback: every single-value selection has a witness tuple."""
        masks: Dict[Tuple[str, Term], int] = {}
        for name in relevant:
            for value in values[name]:
                _, dominated = self._witness_info(dropped, index, name, value)
                masks[(name, value)] = dominated
        value_lists = [sorted(values[name]) for name in relevant]
        for combo in itertools.product(*value_lists):
            surviving = -1
            for name, value in zip(relevant, combo):
                surviving &= masks[(name, value)]
                if not surviving:
                    return False
        return True

    def _multiplicities_ok(self, node: Assignment) -> bool:
        for var in self.satisfying.variables():
            if var.name in self._hidden_values:
                continue
            multiplicity = self.satisfying.multiplicity_of(var)
            if not multiplicity.admits(len(node.get(var.name))):
                return False
        return True

    # --------------------------------------------------------------- helpers

    def _min_multiplicity(self, name: str) -> int:
        for var in self.satisfying.variables():
            if var.name == name:
                return self.satisfying.multiplicity_of(var).minimum
        return 1

    def _max_values(self, name: str) -> int:
        for var in self.satisfying.variables():
            if var.name == name:
                maximum = self.satisfying.multiplicity_of(var).maximum
                if maximum is None:
                    return self.max_values_per_var
                return maximum
        return 1

    def _addable_values(
        self, name: str, current: FrozenSet[Term]
    ) -> List[Term]:
        """Most general universe values incomparable to all current values
        (memoized per (variable, value set) at the order stamp)."""
        self._sync_memos()
        key = (name, current)
        cached = self._addable.get(key)
        if cached is not None:
            return cached
        orders = (self.vocabulary.element_order, self.vocabulary.relation_order)
        # the ids comparable to some current value, per order (a value the
        # orders do not register is comparable only to itself)
        related = [0, 0]
        for value in current:
            kind = 0 if isinstance(value, Element) else 1
            order = orders[kind]
            related[kind] |= order.ancestors_bits(value) | order.descendants_bits(value)
        incomparable = []
        for u in self.universe(name):
            kind = 0 if isinstance(u, Element) else 1
            tid = orders[kind].term_id(u)
            if u not in current and (tid is None or not related[kind] >> tid & 1):
                incomparable.append(u)
        result = sorted(self._most_general(incomparable), key=lambda t: t.name)
        self._addable[key] = result
        return result

    def instantiate(self, node: Assignment) -> FactSet:
        """``φ(A_SAT)`` for this query's (blank-resolved) SATISFYING clause."""
        return node.instantiate(self.satisfying)


def _values_leq(regs: tuple, unregs: tuple, masks, values) -> bool:
    """Def. 4.1's term for one variable: each left value has a specialization
    among the right values (``masks`` and ``values`` are None when the right
    side does not bind the variable)."""
    if masks is None:
        return False
    elem_mask, rel_mask = masks
    for desc, is_elem in regs:
        if not desc & (elem_mask if is_elem else rel_mask):
            return False
    for term in unregs:
        if term not in values:
            return False
    return True


def _more_leq(left_more: tuple, right_more: tuple) -> bool:
    """Def. 4.1's MORE term: each left fact has a specialization on the right."""
    for fact_checks in left_more:
        for g in right_more:
            if all(
                mode == 0
                or (mode == 1 and payload & g_bit)
                or (mode == 2 and payload == g_term)
                for (mode, payload), (g_bit, g_term) in zip(fact_checks, g)
            ):
                break
        else:
            return False
    return True


def _grid_search(
    head: List[List[Tuple[int, ...]]],
    last: List[Tuple[int, ...]],
    masks: Tuple[int, ...],
) -> bool:
    """Can one witness per value be picked, variable by variable, so that
    every selection keeps a tuple?  ``masks`` are the tuple masks of the
    selections over the variables picked so far; each variable is a list
    of per-value witness masks, and ``last`` needs only a scan."""
    if not head:
        return all(
            any(all(m & bits for m in masks) for bits in witnesses)
            for witnesses in last
        )
    options, rest = head[0], head[1:]

    def pick(k: int, grid: FrozenSet[int]) -> bool:
        if k == len(options):
            return _grid_search(rest, last, tuple(grid))
        for bits in options[k]:
            extended = [m & bits for m in masks]
            if all(extended) and pick(k + 1, grid.union(extended)):
                return True
        return False

    return pick(0, frozenset())


_NO_VALUES: FrozenSet[Term] = frozenset()


class WitnessIndex:
    """Which logged witnesses a node relates to, as bitmasks per key.

    :class:`~repro.mining.state.ClassificationState` keeps its significant
    and insignificant witnesses in two append-only logs; a node is
    classified when it is ``≤`` some significant witness or ``≥`` some
    insignificant one.  Def. 4.1's ``a ≤ b`` is a conjunction of one term
    per variable of ``a`` and one MORE-fact term, so the witnesses a node
    relates to are the AND of one bitmask per (variable, the node's value
    set there) and one per MORE-fact set, where bit ``i`` stands for the
    log's ``i``-th witness.  The keys recur across thousands of nodes, so
    each mask grows lazily with the logs and every (key, witness) pair is
    compiled once, where a scan calls ``leq`` once per (node, witness)
    pair.  The masks follow ``leq``'s version-stamp contract: when either
    order's version moves they are dropped and rebuilt from the whole
    logs.  Not synchronized: the state that owns the logs owns the index.
    """

    def __init__(
        self,
        space: QueryAssignmentSpace,
        significant: List[Assignment],
        insignificant: List[Assignment],
    ):
        self._space = space
        self._significant = significant
        self._insignificant = insignificant
        self._stamp: Tuple[int, int] = (-1, -1)
        self._reset()

    def _reset(self) -> None:
        # right digests of the significant witnesses (with their values)
        # and left digests of the insignificant ones, parallel to the logs
        self._upper: List[Tuple[tuple, Dict[str, FrozenSet[Term]]]] = []
        self._lower: List[tuple] = []
        # the variables some insignificant witness binds
        self._lower_names: Dict[str, None] = {}
        # masks: [bits, witnesses covered, the key's own digest]
        self._up: Dict[str, Dict[FrozenSet[Term], list]] = {}
        self._down: Dict[str, Dict[FrozenSet[Term], list]] = {}
        self._up_more: Dict[FrozenSet[Fact], list] = {}
        self._down_more: Dict[FrozenSet[Fact], list] = {}

    def stamp(self) -> Tuple[int, int]:
        """The order stamp a verdict of this index holds at."""
        return self._space.order_stamp()

    def leq_significant(self, node: Assignment) -> bool:
        """Is ``node ≤ w`` for some logged significant witness ``w``?"""
        n = self._sync()[0]
        if not n:
            return False
        found = -1
        for name, values in node.values.items():
            found &= self._up_bits(name, values, n)
            if not found:
                return False
        if node.more:
            found &= self._up_more_bits(node.more, n)
        return bool(found)

    def geq_insignificant(self, node: Assignment) -> bool:
        """Is ``w ≤ node`` for some logged insignificant witness ``w``?"""
        n = self._sync()[1]
        if not n:
            return False
        found = self._down_more_bits(node.more, n)
        # every variable a witness binds must hold in the node, so a
        # variable the node leaves unbound keys the empty value set
        for name in self._lower_names:
            if not found:
                return False
            found &= self._down_bits(name, node.values.get(name, _NO_VALUES), n)
        return bool(found)

    def _sync(self) -> Tuple[int, int]:
        """Rebuild on a moved stamp, digest new witnesses; the log lengths."""
        space = self._space
        stamp = space.order_stamp()
        if stamp != self._stamp:
            self._reset()
            self._stamp = stamp
        upper, lower = self._upper, self._lower
        for w in self._significant[len(upper):]:
            upper.append((space._compile_right_digest(w), w.values))
        for w in self._insignificant[len(lower):]:
            digest = space._compile_left_digest(w)
            lower.append(digest)
            for name in digest[0]:
                self._lower_names[name] = None
        return len(upper), len(lower)

    def _up_bits(self, name: str, values: FrozenSet[Term], n: int) -> int:
        """Significant witnesses ``w`` where ``values ≤ w``'s values at ``name``."""
        keyed = self._up.get(name)
        if keyed is None:
            keyed = self._up[name] = {}
        entry = keyed.get(values)
        if entry is None:
            entry = keyed[values] = [0, 0, self._space._left_values(values)]
        bits, covered, (regs, unregs) = entry
        if covered < n:
            for i in range(covered, n):
                digest, w_values = self._upper[i]
                if _values_leq(regs, unregs, digest[0].get(name), w_values.get(name)):
                    bits |= 1 << i
            entry[0], entry[1] = bits, n
        return bits

    def _up_more_bits(self, facts: FrozenSet[Fact], n: int) -> int:
        """Significant witnesses whose MORE facts specialize every one of ``facts``."""
        entry = self._up_more.get(facts)
        if entry is None:
            entry = self._up_more[facts] = [0, 0, self._space._left_more(facts)]
        bits, covered, left_more = entry
        if covered < n:
            for i in range(covered, n):
                if _more_leq(left_more, self._upper[i][0][1]):
                    bits |= 1 << i
            entry[0], entry[1] = bits, n
        return bits

    def _down_bits(self, name: str, values: FrozenSet[Term], n: int) -> int:
        """Insignificant witnesses that leave ``name`` unbound or whose
        values there are ``≤ values``."""
        keyed = self._down.get(name)
        if keyed is None:
            keyed = self._down[name] = {}
        entry = keyed.get(values)
        if entry is None:
            masks = self._space._right_values(values) if values else None
            entry = keyed[values] = [0, 0, masks]
        bits, covered, masks = entry
        if covered < n:
            for i in range(covered, n):
                check = self._lower[i][0].get(name)
                if check is None or _values_leq(check[0], check[1], masks, values):
                    bits |= 1 << i
            entry[0], entry[1] = bits, n
        return bits

    def _down_more_bits(self, facts: FrozenSet[Fact], n: int) -> int:
        """Insignificant witnesses each of whose MORE facts ``facts`` specializes."""
        entry = self._down_more.get(facts)
        if entry is None:
            entry = self._down_more[facts] = [0, 0, self._space._right_more(facts)]
        bits, covered, right_more = entry
        if covered < n:
            for i in range(covered, n):
                if _more_leq(self._lower[i][1], right_more):
                    bits |= 1 << i
            entry[0], entry[1] = bits, n
        return bits


def _where_caps(where: Optional[BGP]) -> Dict[str, FrozenSet[Element]]:
    """Per-variable generalization caps inferred from the WHERE clause.

    ``$v subClassOf* C`` and ``$v instanceOf C`` cap ``v`` at ``C``;
    ``$v instanceOf $w`` inherits ``w``'s cap.  Variables without a
    discovered cap fall back to the element-order roots.
    """
    caps: Dict[str, Set[Element]] = {}
    if where is None:
        return {}
    # first pass: direct caps
    for pattern in where:
        rel = pattern.relation.term
        if not isinstance(rel, Concrete):
            continue
        if not isinstance(pattern.subject, Var):
            continue
        if isinstance(pattern.obj, Concrete) and rel.name in (
            SUBCLASS_OF,
            INSTANCE_OF,
        ):
            caps.setdefault(pattern.subject.name, set()).add(Element(pattern.obj.name))
    # second pass: $v instanceOf $w picks up $w's cap
    for pattern in where:
        rel = pattern.relation.term
        if (
            isinstance(rel, Concrete)
            and rel.name == INSTANCE_OF
            and isinstance(pattern.subject, Var)
            and isinstance(pattern.obj, Var)
            and pattern.obj.name in caps
        ):
            caps.setdefault(pattern.subject.name, set()).update(
                caps[pattern.obj.name]
            )
    return {name: frozenset(values) for name, values in caps.items()}


def _resolve_blanks(satisfying: SatisfyingClause) -> SatisfyingClause:
    """Rewrite ``[]`` occurrences to hidden wildcard-pinned variables."""
    counter = itertools.count()
    new_meta_facts: List[MetaFact] = []
    for meta_fact in satisfying.meta_facts:
        subject = meta_fact.subject
        relation = meta_fact.relation
        obj = meta_fact.obj
        if isinstance(subject.term, Blank):
            subject = SatTerm(Var(f"__any_{next(counter)}"))
        if isinstance(relation.term, Blank):
            relation = RelationPattern(Var(f"__anyrel_{next(counter)}"))
        if isinstance(obj.term, Blank):
            obj = SatTerm(Var(f"__any_{next(counter)}"))
        new_meta_facts.append(MetaFact(subject, relation, obj))
    return SatisfyingClause(new_meta_facts, satisfying.more, satisfying.threshold)


def _hidden_fixed_values(satisfying: SatisfyingClause) -> Dict[str, Term]:
    """Fixed wildcard values for the hidden variables of ``_resolve_blanks``."""
    fixed: Dict[str, Term] = {}
    for var in satisfying.variables():
        if var.name.startswith("__any_"):
            fixed[var.name] = ANY_ELEMENT
        elif var.name.startswith("__anyrel_"):
            fixed[var.name] = ANY_RELATION_WILDCARD
    return fixed
