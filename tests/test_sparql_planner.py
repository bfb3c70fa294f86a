"""The planned BGP evaluator: one search per variable-connected component.

The property test holds :class:`SparqlEngine` to an exhaustive oracle on
small random ontologies: every assignment of values to a BGP's variables
(named, blank and relation variables) is tried, and a row is kept when
each pattern holds on its own.  The engine's rows must be that set, in
any order of the patterns, without duplicates, and ``ask`` must agree.
The domain pins and the match-count guard keep the three domain queries'
WHERE clauses on the solution sets the one nested loop over all patterns
gave, and on one search per part.  A selected-variable evaluation must
yield the distinct projections of the full rows.
"""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datasets import culinary, health, travel
from repro.oassisql import parse_query
from repro.ontology import Ontology
from repro.sparql import SparqlEngine
from repro.sparql.ast import (
    BGP,
    Blank,
    Concrete,
    PathMod,
    RelationPattern,
    StringLiteral,
    TriplePattern,
    Var,
)
from repro.vocabulary import Element

LABELS = ("l0", "l1")


# ---------------------------------------------------------------- strategies


@st.composite
def ontologies(draw):
    """A tiny ontology with a relation order and labels, plus its parts.

    Returns the ontology, the asserted ``(s, r, o)`` name triples, the
    ``(general, specific)`` relation-order edges and the label map, so the
    oracle reads the ground truth without asking the engine's helpers.
    """
    size = draw(st.integers(min_value=2, max_value=5))
    relation_count = draw(st.integers(min_value=1, max_value=3))
    elements = [f"e{i}" for i in range(size)]
    relations = [f"r{i}" for i in range(relation_count)]
    ontology = Ontology()
    for name in elements:
        ontology.vocabulary.add_element(name)
    for name in relations:
        ontology.vocabulary.add_relation(name)
    order = draw(
        st.lists(
            st.tuples(st.sampled_from(relations), st.sampled_from(relations)).filter(
                lambda pair: pair[0] < pair[1]
            ),
            max_size=2,
            unique=True,
        )
    )
    for general, specific in order:
        ontology.vocabulary.specialize_relation(general, specific)
    facts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(elements),
                st.sampled_from(relations),
                st.sampled_from(elements),
            ),
            max_size=7,
            unique=True,
        )
    )
    for fact in facts:
        ontology.add(fact)
    labels = draw(
        st.lists(
            st.tuples(st.sampled_from(elements), st.sampled_from(LABELS)),
            max_size=4,
            unique=True,
        )
    )
    for element, label in labels:
        ontology.add_label(element, label)
    return ontology, set(facts), order, set(labels)


def _node(draw, elements, *, allow_literal):
    kinds = ["var", "var", "blank", "concrete"] + (["literal"] if allow_literal else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return Var(draw(st.sampled_from(["a", "b", "c"])))
    if kind == "blank":
        return Blank()
    if kind == "concrete":
        return Concrete(draw(st.sampled_from(elements)))
    return StringLiteral(draw(st.sampled_from(LABELS)))


@st.composite
def patterns(draw, ontology):
    elements = sorted(e.name for e in ontology.vocabulary.elements)
    relations = sorted(r.name for r in ontology.vocabulary.relations)
    kind = draw(st.sampled_from(["relation", "label", "variable", "variable", "blank"]))
    if kind == "relation":
        relation = RelationPattern(
            Concrete(draw(st.sampled_from(relations))),
            draw(st.sampled_from(list(PathMod))),
        )
    elif kind == "label":
        relation = RelationPattern(Concrete("hasLabel"))
    elif kind == "variable":
        # "a" also names an element variable: such a BGP has no row
        relation = RelationPattern(Var(draw(st.sampled_from(["p", "p", "q", "a"]))))
    else:
        relation = RelationPattern(Blank())
    subject = _node(draw, elements, allow_literal=False)
    obj = _node(draw, elements, allow_literal=True)
    return TriplePattern(subject, relation, obj)


# -------------------------------------------------------------------- oracle


def _closure(pairs, start):
    """Everything reachable from ``start`` in one or more ``pairs`` steps."""
    seen, frontier = set(), [start]
    while frontier:
        node = frontier.pop()
        for source, target in pairs:
            if source == node and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def exhaustive_rows(bgp, ontology, facts, order, labels):
    """Every projection of a variable assignment satisfying each pattern.

    Each variable ranges over the vocabulary's elements, its relations and
    the label strings, cut to the kind of every position it occupies (a
    value of another kind fails the pattern there anyway).
    """
    elements = set(ontology.vocabulary.elements)
    relations = set(ontology.vocabulary.relations)
    strings = set(LABELS)

    def specializations(name):
        return {name} | _closure(order, name)

    def edges(relation_names):
        return {(s, o) for s, r, o in facts if r in relation_names}

    def name_of(node):
        return node.as_var().name if isinstance(node, Blank) else node.name

    def value(node, assignment):
        if isinstance(node, (Var, Blank)):
            return assignment[name_of(node)]
        if isinstance(node, StringLiteral):
            return node.value
        return Element(node.name)

    def holds(pattern, assignment):
        subject = value(pattern.subject, assignment)
        obj = value(pattern.obj, assignment)
        term, mod = pattern.relation.term, pattern.relation.mod
        if isinstance(term, Concrete) and term.name == "hasLabel":
            return (
                isinstance(subject, Element)
                and isinstance(obj, str)
                and (subject.name, obj) in labels
            )
        if not (isinstance(subject, Element) and isinstance(obj, Element)):
            return False
        if not isinstance(term, Concrete):
            relation = assignment[name_of(term)]
            return (subject.name, relation.name, obj.name) in facts
        steps = edges(specializations(term.name))
        one = (subject.name, obj.name) in steps
        many = obj.name in _closure(steps, subject.name)
        zero = subject == obj
        return {
            PathMod.NONE: one,
            PathMod.PLUS: many,
            PathMod.STAR: zero or many,
            PathMod.OPT: zero or one,
        }[mod]

    domains = {}
    for pattern in bgp:
        term = pattern.relation.term
        label = isinstance(term, Concrete) and term.name == "hasLabel"
        kinds = [
            (pattern.subject, elements),
            (term, relations),
            (pattern.obj, strings if label else elements),
        ]
        for node, kind in kinds:
            if isinstance(node, (Var, Blank)):
                name = name_of(node)
                domains[name] = domains.get(name, elements | relations | strings) & kind
    names = sorted(domains)
    named = {v.name for v in bgp.variables()}
    rows = set()
    for values in product(*(sorted(domains[n], key=repr) for n in names)):
        assignment = dict(zip(names, values))
        if all(holds(pattern, assignment) for pattern in bgp):
            rows.add(frozenset((n, v) for n, v in assignment.items() if n in named))
    return rows


# ------------------------------------------------------------------ property


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_rows_match_exhaustive_enumeration_in_any_pattern_order(data):
    ontology, facts, order, labels = data.draw(ontologies())
    bgp = BGP(data.draw(st.lists(patterns(ontology), min_size=1, max_size=4)))
    expected = exhaustive_rows(bgp, ontology, facts, order, labels)
    engine = SparqlEngine(ontology)

    rows = [frozenset(row.items()) for row in engine.solutions(bgp)]
    assert len(rows) == len(set(rows)), "duplicate rows"
    assert set(rows) == expected
    assert engine.ask(bgp) == bool(expected)

    shuffled = BGP(data.draw(st.permutations(bgp.patterns)))
    assert {frozenset(row.items()) for row in engine.solutions(shuffled)} == expected
    assert engine.ask(shuffled) == bool(expected)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_selected_rows_are_the_distinct_projections_of_the_full_rows(data):
    ontology, _, _, _ = data.draw(ontologies())
    patterns_drawn = data.draw(st.lists(patterns(ontology), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        # a part with no row: no element is named "nowhere"
        patterns_drawn.append(
            TriplePattern(Var("d"), RelationPattern(Concrete("r0")), Concrete("nowhere"))
        )
    bgp = BGP(patterns_drawn)
    engine = SparqlEngine(ontology)
    full = list(engine.solutions(bgp))
    # "unbound" is named by no pattern, so it is in no part
    names = sorted({v.name for v in bgp.variables()}) + ["unbound"]
    selected = data.draw(st.lists(st.sampled_from(names), max_size=4))
    expected = {tuple(row.get(name) for name in selected) for row in full}

    rows = list(engine.solutions(bgp, selected))
    assert len(rows) == len(set(rows)), "duplicate projections"
    assert set(rows) == expected


# --------------------------------------------------------- domain queries


def _digest(rows):
    """An order-free digest of a row set.

    The pinned digests are those of the rows the one nested loop over all
    patterns produced, before the search was split into components.
    """
    canonical = sorted(
        tuple(sorted((name, type(v).__name__, str(v)) for name, v in row.items()))
        for row in rows
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "module, count, digest",
    [
        (travel, 943, "6a98d2e88e8baee2"),
        (culinary, 1008, "c4da0b884005093f"),
        (health, 306, "4d52f2645de6f195"),
    ],
    ids=["travel", "culinary", "self-treatment"],
)
def test_domain_where_solutions_are_pinned(module, count, digest):
    dataset = module.build_dataset()
    where = parse_query(dataset.query(0.5)).where
    rows = list(SparqlEngine(dataset.ontology).solutions(where))
    assert len(rows) == len(set(rows)) == count
    assert _digest(rows) == digest


def test_travel_where_searches_each_part_once():
    """The travel WHERE is two parts, 23 and 41 rows: one search each.

    Searching ``$y subClassOf* Activity`` again under every row of the
    other part took 9,660 pattern matches; one search per part takes a
    few hundred.
    """
    dataset = travel.build_dataset()
    where = parse_query(dataset.query(0.5)).where
    with repro.tracing() as tracer:
        rows = list(SparqlEngine(dataset.ontology).solutions(where))
    assert len(rows) == 943
    assert tracer.value("sparql.patterns.matched") <= 1000


def test_travel_where_searches_in_fan_out_order():
    """Among equally bound patterns the one with the fewest extensions
    goes first, so the six-pattern part filters ``$z nearBy $x`` early
    instead of enumerating every restaurant per attraction (288 matches
    in list order)."""
    dataset = travel.build_dataset()
    where = parse_query(dataset.query(0.5)).where
    with repro.tracing() as tracer:
        rows = list(SparqlEngine(dataset.ontology).solutions(where))
    assert len(rows) == 943
    assert tracer.value("sparql.patterns.matched") <= 150
