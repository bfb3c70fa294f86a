"""BGP evaluation over an :class:`~repro.ontology.graph.Ontology`.

A BGP is planned before it is searched: its patterns are grouped into
*components*, the parts that share variables (blanks and relation
variables count; a pattern without variables is a component of its
own).  Each component is searched once, its rows are projected to its
named variables without duplicates, and the BGP's rows are the cross
product of the components' rows; :meth:`SparqlEngine.ask` stops at the
first component with no row.  One nested loop over all patterns would
search each component again for every row of the components before it
(the travel query's ``$y subClassOf* Activity`` shares no variable with
its other six patterns).

:meth:`SparqlEngine.solutions` can select variables, as SPARQL's
``SELECT DISTINCT`` list does: each variable belongs to exactly one
component, so the distinct projections are the cross product of each
component's own distinct projection, and a component none of whose
variables is selected is searched only for its first row.

A component is searched by a backtracking join with a greedy selectivity
heuristic: at each step it picks the not-yet-evaluated pattern with the
most bound positions under the current partial binding, and among those
the one with the fewest extensions (its *fan-out*): a fully bound pattern
is a filter and goes first, a pattern with one free end costs the length
of its cached candidate list, and any other pattern comes last, in list
order.  A pattern never rebinds a variable: a bound position keeps its
value, and an extension that disagrees with a binding already made
(``$a hasLabel $a``) is dropped, so the rows do not depend on the order
in which patterns are searched.

Relation patterns match *semantically*: a pattern naming relation ``r``
matches asserted edges labeled with any ``r' ≥R r`` (see
:func:`repro.sparql.paths.matching_relations`), which is how Figure 1's
``nearBy ≤ inside`` makes ``$z nearBy $x`` see ``inside`` edges.  A
relation variable, bound or not, matches the asserted relation exactly.
Element positions match syntactically, mirroring the paper's use of a
stock SPARQL engine for the WHERE clause.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..observability import get_tracer
from ..ontology.graph import HAS_LABEL, Ontology
from ..vocabulary.terms import Element, Relation
from .ast import (
    BGP,
    Blank,
    Concrete,
    NodePattern,
    PathMod,
    StringLiteral,
    TriplePattern,
    Var,
)
from .bindings import Binding, BindingValue
from .paths import backward_closure, forward_closure, matching_relations, path_pairs


class SparqlEngine:
    """Evaluates BGPs against a fixed ontology.

    The engine memoizes the deterministic orderings and closure results its
    inner loops otherwise rebuild per pattern match (sorted relation lists,
    label candidates, forward/backward path closures).  All caches key on a
    joint version stamp of the ontology and both vocabulary orders and are
    dropped at the next public entry point after any mutation.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        #: the tracer active during the current top-level evaluation, if
        #: any; re-fetched per public entry point and cleared on exit so a
        #: finished trace is never retained across evaluations
        self._obs = None
        self._cache_stamp = None
        self._sorted_relations: Optional[List[Relation]] = None
        self._labeled_elements: Optional[List[Element]] = None
        self._label_candidates: Dict[str, List[Element]] = {}
        self._sorted_labels: Dict[Element, List[str]] = {}
        self._fwd_cache: Dict = {}
        self._bwd_cache: Dict = {}
        self._pair_cache: Dict = {}

    # ------------------------------------------------------------ public API

    def solutions(
        self, bgp: BGP, variables: Optional[Sequence[str]] = None
    ) -> Iterator[Any]:
        """The solutions of ``bgp``, without duplicates.

        Without ``variables``, one :class:`Binding` per row, projected to
        the named variables: blank nodes are existentials, bound during
        the search and dropped from the output.  With ``variables`` (the
        ``SELECT DISTINCT`` list), one tuple per distinct projection onto
        them, in their order; a variable no pattern names is unbound, and
        its slot is None.
        """
        tracer = self._obs = get_tracer()
        self._check_caches()
        produced = 0
        try:
            if variables is None:
                names = sorted({v.name for v in bgp.variables()})
                for row in self._projections(bgp, names):
                    produced += 1
                    yield Binding(dict(zip(names, row)))
            else:
                for row in self._projections(bgp, variables):
                    produced += 1
                    yield row
        finally:
            if tracer is not None and produced:
                tracer.count("sparql.solutions", produced)
            self._obs = None

    def ask(self, bgp: BGP) -> bool:
        """Does ``bgp`` have at least one solution?"""
        self._obs = get_tracer()
        self._check_caches()
        try:
            return all(
                next(self._search(component, {}), None) is not None
                for component in _components(bgp.patterns)
            )
        finally:
            self._obs = None

    # -------------------------------------------------------------- caching

    def _check_caches(self) -> None:
        """Drop memoized orderings/closures when the ontology moved."""
        vocabulary = self.ontology.vocabulary
        stamp = (
            self.ontology.version,
            vocabulary.element_order.version,
            vocabulary.relation_order.version,
        )
        if stamp != self._cache_stamp:
            self._cache_stamp = stamp
            self._sorted_relations = None
            self._labeled_elements = None
            self._label_candidates.clear()
            self._sorted_labels.clear()
            self._fwd_cache.clear()
            self._bwd_cache.clear()
            self._pair_cache.clear()

    def _cached(self, cache: Dict, key, compute):
        entry = cache.get(key)
        if entry is None:
            entry = compute()
            cache[key] = entry
            if self._obs is not None:
                self._obs.count("sparql.closure_cache.misses")
        elif self._obs is not None:
            self._obs.count("sparql.closure_cache.hits")
        return entry

    # --------------------------------------------------------------- search

    def _projections(
        self, bgp: BGP, names: Sequence[str]
    ) -> Iterator[Tuple[Optional[BindingValue], ...]]:
        """The distinct projections of ``bgp``'s rows onto ``names``."""
        factors: List[List[tuple]] = []
        order: List[str] = []
        for component in _components(bgp.patterns):
            named = {v.name for pattern in component for v in pattern.variables()}
            keep = [name for name in names if name in named]
            rows = self._component_rows(component, keep)
            if not rows:
                return iter(())
            if keep:
                factors.append(rows)
                order.extend(keep)
        unbound = [name for name in names if name not in order]
        if unbound:
            factors.append([(None,) * len(unbound)])
            order.extend(unbound)
        projected: Iterator[tuple] = map(
            tuple, map(itertools.chain.from_iterable, itertools.product(*factors))
        )
        if order != list(names):
            projected = map(itemgetter(*(order.index(name) for name in names)), projected)
        return projected

    def _component_rows(
        self, patterns: List[TriplePattern], keep: Sequence[str]
    ) -> List[tuple]:
        """One component's distinct projections onto ``keep``, in search
        order; with nothing to keep, one empty row if the component has any
        row at all (found by searching for its first)."""
        search = self._search(patterns, {})
        if not keep:
            return [()] if next(search, None) is not None else []
        return list(dict.fromkeys(tuple(env[name] for name in keep) for env in search))

    def _search(
        self, remaining: List[TriplePattern], env: Dict[str, BindingValue]
    ) -> Iterator[Dict[str, BindingValue]]:
        if not remaining:
            yield env
            return
        index = self._pick_pattern(remaining, env)
        pattern = remaining[index]
        rest = remaining[:index] + remaining[index + 1:]
        for extension in self._match_pattern(pattern, env):
            merged = dict(env)
            # a variable named twice in one pattern is bound twice
            if all(merged.setdefault(name, value) == value for name, value in extension):
                yield from self._search(rest, merged)

    def _pick_pattern(
        self, patterns: List[TriplePattern], env: Dict[str, BindingValue]
    ) -> int:
        """The pattern to search next: the most bound positions first, then
        the smallest fan-out, then list order."""
        scores = [_bound_score(pattern, env) for pattern in patterns]
        top = max(scores)
        tied = [i for i, score in enumerate(scores) if score == top]
        best, best_cost = tied[0], math.inf
        if len(tied) > 1:
            for i in tied:
                cost = self._fan_out(patterns[i], env)
                if cost < best_cost:
                    best, best_cost = i, cost
                    if not cost:
                        break
        return best

    def _fan_out(self, pattern: TriplePattern, env: Dict[str, BindingValue]) -> float:
        """How many extensions ``pattern`` has under ``env``.

        A fully bound pattern is a filter (0); a pattern with one free end
        costs the length of the cached candidate list its match walks; a
        free relation or two free ends is not estimated (infinite).  A
        bound value of the wrong kind matches nothing (0).
        """
        subject = self._resolve_node(pattern.subject, env)
        obj = self._resolve_node(pattern.obj, env)
        rel_term = pattern.relation.term
        mod = pattern.relation.mod
        if isinstance(rel_term, Concrete):
            relation: Optional[BindingValue] = Relation(rel_term.name)
            exact = False
        else:
            relation = env.get(_var_name(rel_term))
            exact = True
            if relation is None:
                return math.inf
        if subject is not None and obj is not None:
            return 0
        if subject is None and obj is None:
            return math.inf
        if isinstance(rel_term, Concrete) and rel_term.name == HAS_LABEL:
            if subject is not None:
                return len(self._labels_of(subject)) if isinstance(subject, Element) else 0
            return len(self._label_candidates_of(obj)) if isinstance(obj, str) else 0
        if not isinstance(relation, Relation):
            return 0
        if subject is not None:
            if not isinstance(subject, Element):
                return 0
            return len(self._forward_targets(subject, relation, mod, exact))
        if not isinstance(obj, Element):
            return 0
        return len(self._backward_sources(obj, relation, mod, exact))

    # ------------------------------------------------------ pattern matching

    def _match_pattern(
        self, pattern: TriplePattern, env: Dict[str, BindingValue]
    ) -> Iterator[Extension]:
        if self._obs is not None:
            self._obs.count("sparql.patterns.matched")
        rel_term = pattern.relation.term
        if isinstance(rel_term, Concrete) and rel_term.name == HAS_LABEL:
            yield from self._match_label(pattern, env)
            return
        yield from self._match_edge(pattern, env)

    def _match_label(
        self, pattern: TriplePattern, env: Dict[str, BindingValue]
    ) -> Iterator[Extension]:
        subject = self._resolve_node(pattern.subject, env)
        obj = self._resolve_node(pattern.obj, env)
        if subject is not None and not isinstance(subject, Element):
            return
        if obj is not None and not isinstance(obj, str):
            return  # labels are strings
        if obj is not None:
            if subject is not None:
                if self.ontology.has_label(subject, obj):
                    yield ()
                return
            for element in self._label_candidates_of(obj):
                yield _bind(pattern.subject, element)
            return
        # object is an unbound var/blank: enumerate labels of the subject(s)
        if subject is not None:
            for label in self._labels_of(subject):
                yield _bind(pattern.obj, label)
            return
        if self._labeled_elements is None:
            self._labeled_elements = sorted(
                {
                    e
                    for e in self.ontology.vocabulary.elements
                    if self.ontology.labels(e)
                },
                key=lambda e: e.name,
            )
        for element in self._labeled_elements:
            for label in self._labels_of(element):
                yield _bind(pattern.subject, element) + _bind(pattern.obj, label)

    def _label_candidates_of(self, label: str) -> List[Element]:
        return self._cached(
            self._label_candidates,
            label,
            lambda: sorted(
                self.ontology.elements_with_label(label), key=lambda e: e.name
            ),
        )

    def _labels_of(self, element: Element) -> List[str]:
        return self._cached(
            self._sorted_labels,
            element,
            lambda: sorted(self.ontology.labels(element)),
        )

    def _match_edge(
        self, pattern: TriplePattern, env: Dict[str, BindingValue]
    ) -> Iterator[Extension]:
        subject = self._resolve_node(pattern.subject, env)
        obj = self._resolve_node(pattern.obj, env)
        if any(v is not None and not isinstance(v, Element) for v in (subject, obj)):
            return  # only elements sit at the ends of an edge
        rel_term = pattern.relation.term
        mod = pattern.relation.mod

        if isinstance(rel_term, Concrete):
            relation = Relation(rel_term.name)
            yield from self._match_known_relation(pattern, relation, mod, subject, obj)
            return

        # variable/blank relation: the asserted relation itself, never its
        # ≤R-specializations, whether bound by an earlier pattern or not
        rel_name = _var_name(rel_term)
        if rel_name in env:
            bound = env[rel_name]
            if not isinstance(bound, Relation):
                return
            yield from self._match_known_relation(
                pattern, bound, PathMod.NONE, subject, obj, exact_relation=True
            )
            return
        if self._sorted_relations is None:
            self._sorted_relations = sorted(
                self.ontology.vocabulary.relations, key=lambda r: r.name
            )
        for relation in self._sorted_relations:
            for extension in self._match_known_relation(
                pattern, relation, PathMod.NONE, subject, obj, exact_relation=True
            ):
                yield ((rel_name, relation),) + extension

    def _match_known_relation(
        self,
        pattern: TriplePattern,
        relation: Relation,
        mod: PathMod,
        subject: Optional[Element],
        obj: Optional[Element],
        exact_relation: bool = False,
    ) -> Iterator[Extension]:
        if mod is PathMod.NONE and exact_relation:
            relations = frozenset({relation})
        else:
            relations = matching_relations(self.ontology, relation)

        if subject is not None and obj is not None:
            if self._pair_matches(subject, obj, relation, mod, relations):
                yield ()
            return
        if subject is not None:
            for target in self._forward_targets(subject, relation, mod, exact_relation):
                yield _bind(pattern.obj, target)
            return
        if obj is not None:
            for source in self._backward_sources(obj, relation, mod, exact_relation):
                yield _bind(pattern.subject, source)
            return
        # both ends free
        for start, end in self._all_pairs(relation, mod, exact_relation):
            yield _bind(pattern.subject, start) + _bind(pattern.obj, end)

    def _forward_targets(
        self, subject: Element, relation: Relation, mod: PathMod, exact: bool
    ) -> List[Element]:
        """Sorted ``obj`` candidates for a bound subject (cached)."""

        def compute() -> List[Element]:
            if mod is not PathMod.NONE:
                targets = forward_closure(self.ontology, subject, relation, mod)
            else:
                relations = (
                    frozenset({relation})
                    if exact
                    else matching_relations(self.ontology, relation)
                )
                targets = frozenset(
                    o for r in relations for o in self.ontology.objects(subject, r)
                )
            return sorted(targets, key=lambda e: e.name)

        return self._cached(self._fwd_cache, (subject, relation, mod, exact), compute)

    def _backward_sources(
        self, obj: Element, relation: Relation, mod: PathMod, exact: bool
    ) -> List[Element]:
        """Sorted ``subject`` candidates for a bound object (cached)."""

        def compute() -> List[Element]:
            if mod is not PathMod.NONE:
                sources = backward_closure(self.ontology, obj, relation, mod)
            else:
                relations = (
                    frozenset({relation})
                    if exact
                    else matching_relations(self.ontology, relation)
                )
                sources = frozenset(
                    s for r in relations for s in self.ontology.subjects(r, obj)
                )
            return sorted(sources, key=lambda e: e.name)

        return self._cached(self._bwd_cache, (obj, relation, mod, exact), compute)

    def _all_pairs(self, relation: Relation, mod: PathMod, exact: bool) -> List:
        """Sorted (subject, obj) pairs for a both-ends-free pattern (cached)."""

        def compute() -> List:
            if exact:
                pairs = {
                    (fact.subject, fact.obj)
                    for fact in self.ontology.match(relation=relation)
                }
            else:
                pairs = set(path_pairs(self.ontology, relation, mod))
            return sorted(pairs, key=lambda pair: (pair[0].name, pair[1].name))

        return self._cached(self._pair_cache, (relation, mod, exact), compute)

    def _pair_matches(
        self,
        subject: Element,
        obj: Element,
        relation: Relation,
        mod: PathMod,
        relations,
    ) -> bool:
        if mod is PathMod.NONE:
            return any(obj in self.ontology.objects(subject, r) for r in relations)
        return obj in forward_closure(self.ontology, subject, relation, mod)

    # -------------------------------------------------------------- helpers

    def _resolve_node(
        self, node: NodePattern, env: Dict[str, BindingValue]
    ) -> Optional[BindingValue]:
        """Value of ``node`` under ``env`` (of any kind), or None if unbound."""
        if isinstance(node, Concrete):
            return Element(node.name)
        if isinstance(node, StringLiteral):
            return node.value
        return env.get(_var_name(node))


#: the bindings one pattern match adds, as ``(variable, value)`` pairs; a
#: variable named twice in the pattern appears twice
Extension = Tuple[Tuple[str, BindingValue], ...]


def _var_name(node) -> Optional[str]:
    """The variable a ``Var`` or ``[]`` stands for; None for a fixed term."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Blank):
        return node.as_var().name
    return None


def _bound_score(pattern: TriplePattern, env: Dict[str, BindingValue]) -> int:
    """2 per fixed or bound position, 0 per blank, -1 per free variable."""
    score = 0
    for part in (pattern.subject, pattern.relation.term, pattern.obj):
        if isinstance(part, (Concrete, StringLiteral)):
            score += 2
        elif isinstance(part, Var) and part.name in env:
            score += 2
        elif not isinstance(part, Blank):
            score -= 1
    return score


def _bind(node, value: BindingValue) -> Extension:
    name = _var_name(node)
    return () if name is None else ((name, value),)


def _components(patterns: List[TriplePattern]) -> List[List[TriplePattern]]:
    """``patterns`` grouped into variable-connected components.

    Blanks and relation variables count as variables; a pattern with none
    is a component of its own.  Components keep the patterns' order and
    come in the order of their first pattern.
    """
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        while parent.setdefault(name, name) != name:
            name = parent[name]
        return name

    pattern_names: List[List[str]] = []
    for pattern in patterns:
        parts = (pattern.subject, pattern.relation.term, pattern.obj)
        names = [name for name in map(_var_name, parts) if name is not None]
        roots = [find(name) for name in names]
        for root in roots[1:]:
            parent[root] = roots[0]
        pattern_names.append(names)
    groups: Dict[object, List[TriplePattern]] = {}
    for index, (pattern, names) in enumerate(zip(patterns, pattern_names)):
        key = find(names[0]) if names else index
        groups.setdefault(key, []).append(pattern)
    return list(groups.values())
