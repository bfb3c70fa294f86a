"""Property-path evaluation (``subClassOf*`` and friends).

A quantified relation pattern ``r*`` matches a pair ``(a, b)`` when ``b`` is
reachable from ``a`` via zero or more asserted edges labeled with ``r`` *or
any specialization of r* in ``≤R`` (matching the semantic-implication
reading of relation patterns used throughout the engine).  ``r+`` requires
at least one edge, ``r?`` at most one.  A zero-edge path joins an element
to itself, whether or not any edge touches it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Set, Tuple

from ..observability import count as _obs_count
from ..ontology.graph import Ontology
from ..vocabulary.terms import Element, Relation
from .ast import PathMod


def matching_relations(ontology: Ontology, relation: Relation) -> FrozenSet[Relation]:
    """Asserted relations that satisfy a pattern naming ``relation``.

    These are the ``≤R``-specializations of ``relation`` that exist in the
    vocabulary; e.g. a ``nearBy`` pattern also scans ``inside`` edges when
    ``nearBy ≤R inside``.  Memoized per ontology, keyed on the relation
    order's version stamp (BGP search asks for the same relation's closure
    once per pattern match otherwise).
    """
    order = ontology.vocabulary.relation_order
    cache = getattr(ontology, "_matching_relations_cache", None)
    if cache is None or cache[0] != order.version:
        cache = (order.version, {})
        ontology._matching_relations_cache = cache
    cached = cache[1].get(relation)
    if cached is not None:
        _obs_count("sparql.rel_match_cache.hits")
        return cached
    _obs_count("sparql.rel_match_cache.misses")
    if relation not in order:
        result = frozenset({relation})
    else:
        result = frozenset(
            r for r in order.descendants(relation) if isinstance(r, Relation)
        )
    cache[1][relation] = result
    return result


def _step(ontology: Ontology, node: Element, relations: FrozenSet[Relation]) -> Set[Element]:
    """One forward step along any of ``relations``."""
    out: Set[Element] = set()
    for rel in relations:
        out.update(ontology.objects(node, rel))
    return out


def _step_back(ontology: Ontology, node: Element, relations: FrozenSet[Relation]) -> Set[Element]:
    """One backward step along any of ``relations``."""
    out: Set[Element] = set()
    for rel in relations:
        out.update(ontology.subjects(rel, node))
    return out


def forward_closure(
    ontology: Ontology, start: Element, relation: Relation, mod: PathMod
) -> FrozenSet[Element]:
    """All ``b`` such that ``(start, b)`` matches ``relation{mod}``."""
    relations = matching_relations(ontology, relation)
    if mod is PathMod.NONE:
        return frozenset(_step(ontology, start, relations))
    if mod is PathMod.OPT:
        return frozenset(_step(ontology, start, relations) | {start})
    if mod is PathMod.PLUS:
        # >= 1 forward step: BFS seeded from the direct successors
        seen = set(_step(ontology, start, relations))
        frontier = list(seen)
        while frontier:
            node = frontier.pop()
            for nxt in _step(ontology, node, relations):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in _step(ontology, node, relations):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def backward_closure(
    ontology: Ontology, end: Element, relation: Relation, mod: PathMod
) -> FrozenSet[Element]:
    """All ``a`` such that ``(a, end)`` matches ``relation{mod}``."""
    relations = matching_relations(ontology, relation)
    if mod is PathMod.NONE:
        return frozenset(_step_back(ontology, end, relations))
    if mod is PathMod.OPT:
        return frozenset(_step_back(ontology, end, relations) | {end})
    if mod is PathMod.PLUS:
        # >= 1 backward step: BFS seeded from the direct predecessors
        seen = set(_step_back(ontology, end, relations))
        frontier = list(seen)
        while frontier:
            node = frontier.pop()
            for nxt in _step_back(ontology, node, relations):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)
    seen = {end}
    frontier = [end]
    while frontier:
        node = frontier.pop()
        for nxt in _step_back(ontology, node, relations):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def path_pairs(
    ontology: Ontology, relation: Relation, mod: PathMod
) -> Iterator[Tuple[Element, Element]]:
    """Enumerate all pairs matching ``relation{mod}`` (both ends free).

    Under ``*`` and ``?`` every vocabulary element is paired with itself,
    edges or not, just as :func:`forward_closure` pairs a bound start with
    itself; the longer paths start at elements with a matching edge.
    """
    relations = matching_relations(ontology, relation)
    if mod is PathMod.NONE:
        for rel in relations:
            for fact in ontology.match(relation=rel):
                yield (fact.subject, fact.obj)
        return
    if mod is not PathMod.PLUS:
        for element in ontology.vocabulary.elements:
            yield (element, element)
    starts = {fact.subject for rel in relations for fact in ontology.match(relation=rel)}
    for start in starts:
        for end in forward_closure(ontology, start, relation, mod):
            yield (start, end)
