"""The coherent-witness-grid expansion test (Proposition 5.1 semantics).

A multi-valued assignment belongs to the expanded set ``A`` only if it is
dominated by a *combination* of valid assignments — which must agree on
every other variable.  A per-selection check is not enough; these tests pin
the difference down.
"""

import gc
import itertools
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignments import Assignment, QueryAssignmentSpace
from repro.assignments.generator import _grid_search
from repro.oassisql import parse_query
from repro.ontology import Fact, Ontology
from repro.vocabulary import Element

QUERY = """
SELECT FACT-SETS
WHERE
  $x subClassOf* Food .
  $y subClassOf* Drink .
  $x goesWith $y
SATISFYING
  $x+ servedWith $y
WITH SUPPORT = 0.5
"""


@pytest.fixture()
def space():
    """Foods A1, A2; drinks B1 with child B1c.

    Valid (goesWith) pairs: (A1, B1) and (A2, B1c) — they never share a
    drink value, so no combination with two foods exists.
    """
    ontology = Ontology()
    ontology.add(Fact("A1", "subClassOf", "Food"))
    ontology.add(Fact("A2", "subClassOf", "Food"))
    ontology.add(Fact("B1", "subClassOf", "Drink"))
    ontology.add(Fact("B1c", "subClassOf", "B1"))
    ontology.add(Fact("A1", "goesWith", "B1"))
    ontology.add(Fact("A2", "goesWith", "B1c"))
    ontology.vocabulary.add_relation("servedWith")
    query = parse_query(QUERY)
    return QueryAssignmentSpace(ontology, query, max_values_per_var=2)


def E(name):
    return Element(name)


class TestWitnessGrid:
    def test_single_valued_membership(self, space):
        vocab = space.vocabulary
        assert space.in_expansion(
            Assignment.make(vocab, {"x": {E("A1")}, "y": {E("B1")}})
        )
        assert space.in_expansion(
            Assignment.make(vocab, {"x": {E("A2")}, "y": {E("B1")}})
        )  # generalizes (A2, B1c)

    def test_single_valued_non_membership(self, space):
        vocab = space.vocabulary
        # (A1, B1c) is not dominated by any valid pair: A1 only goes with B1
        assert not space.in_expansion(
            Assignment.make(vocab, {"x": {E("A1")}, "y": {E("B1c")}})
        )

    def test_multi_value_requires_coherent_combination(self, space):
        vocab = space.vocabulary
        # every selection of ({A1, A2}, B1) is dominated by SOME valid pair,
        # but no single combination covers both foods with one drink value:
        # the assignment is NOT in the expansion
        node = Assignment.make(vocab, {"x": {E("A1"), E("A2")}, "y": {E("B1")}})
        assert not space.in_expansion(node)

    def test_multi_value_with_shared_partner(self, space):
        vocab = space.vocabulary
        # make a genuine combination possible and check the grid finds it
        space.ontology.add(Fact("A2", "goesWith", "B1"))
        fresh = QueryAssignmentSpace(
            space.ontology, space.query, max_values_per_var=2
        )
        node = Assignment.make(vocab, {"x": {E("A1"), E("A2")}, "y": {E("B1")}})
        assert fresh.in_expansion(node)
        assert fresh.is_valid(node)

    def test_grid_search_needs_no_cyclic_collection(self, space):
        # a search with a variable left to pick before the last one used
        # to leave its recursive helper in a function-cell cycle
        node = Assignment.make(
            space.vocabulary, {"x": {E("A1"), E("A2")}, "y": {E("B1")}}
        )
        gc.collect()
        gc.disable()
        try:
            assert not space.in_expansion(node)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [
                o.__qualname__
                for o in gc.garbage
                if isinstance(o, types.FunctionType)
                and o.__qualname__.startswith("_grid")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []

    def test_traversal_never_generates_incoherent_combos(self, space):
        for node in space.all_nodes():
            assert space.in_expansion(node), node


@st.composite
def grid_problems(draw):
    """Valid tuples over 2–4 variables, and per variable 1–2 values, each
    with a list of witness values."""
    domains = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    tuples = draw(
        st.sets(
            st.tuples(*[st.integers(0, size - 1) for size in domains]),
            min_size=1,
            max_size=12,
        )
    )
    witnesses = [
        draw(
            st.lists(
                st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True),
                min_size=1,
                max_size=2,
            )
        )
        for size in domains
    ]
    return tuples, witnesses


@given(grid_problems())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_grid_search_equals_enumerating_every_pick(problem):
    """Every variable order the search may take gives the enumeration's
    verdict: some pick of one witness per value makes every selection
    of one picked witness per variable a valid tuple."""
    tuples, witnesses = problem
    bit = {t: 1 << i for i, t in enumerate(sorted(tuples))}
    masks = [
        {w: sum(b for t, b in bit.items() if t[var] == w) for w in range(3)}
        for var in range(len(witnesses))
    ]
    slots = [(var, options) for var, values in enumerate(witnesses) for options in values]
    expected = False
    for picks in itertools.product(*(options for _, options in slots)):
        chosen = [set() for _ in witnesses]
        for (var, _), w in zip(slots, picks):
            chosen[var].add(w)
        if all(sel in tuples for sel in itertools.product(*chosen)):
            expected = True
            break
    per_var = [
        [tuple(masks[var][w] for w in options) for options in values]
        for var, values in enumerate(witnesses)
    ]
    for order in itertools.permutations(per_var):
        assert _grid_search(list(order[:-1]), order[-1], (-1,)) == expected
