"""Completeness of the lazy generator: it must reach ALL of ``A``.

If the successor rules missed a member of the expansion set, the miner
could silently miss MSPs.  These tests brute-force the expansion set of
small random query spaces and check every member is reachable from the
roots via ``successors``.  Membership itself is held to Algorithm 1's
definition by exhaustive enumeration, and the pruned witness-grid search
to the enumeration it replaced, on seeded crowd runs.  The valid tuples
the space selects from the WHERE clause part by part are held to the
ones it used to read off the full WHERE rows.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assignments import Assignment, QueryAssignmentSpace
from repro.datasets import culinary, health, travel
from repro.oassisql import parse_query
from repro.ontology import Fact, Ontology
from repro.sparql import BGP, SparqlEngine, Var
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

#: both variables multi-valued: the witness-grid search picks across two
#: variables, so it prunes between them and scans the last one
TWO_PLUS_QUERY = QUERY.replace("$x+ servedWith $y", "$x+ servedWith $y+")


@st.composite
def random_spaces(draw):
    """A small random two-taxonomy ontology with random goesWith pairs."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    foods = draw(st.integers(min_value=2, max_value=4))
    drinks = draw(st.integers(min_value=1, max_value=3))
    ontology = Ontology()
    food_leaves = []
    for index in range(foods):
        name = f"F{index}"
        # random tree: attach to Food or an earlier food
        parent = "Food" if index == 0 or rng.random() < 0.6 else f"F{rng.randrange(index)}"
        ontology.add(Fact(name, "subClassOf", parent))
        food_leaves.append(name)
    drink_leaves = []
    for index in range(drinks):
        name = f"D{index}"
        parent = "Drink" if index == 0 or rng.random() < 0.6 else f"D{rng.randrange(index)}"
        ontology.add(Fact(name, "subClassOf", parent))
        drink_leaves.append(name)
    # random goesWith pairs (at least one)
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=foods - 1),
                st.integers(min_value=0, max_value=drinks - 1),
            ),
            min_size=1,
            max_size=foods * drinks,
        )
    )
    for f, d in pairs:
        ontology.add(Fact(f"F{f}", "goesWith", f"D{d}"))
    ontology.vocabulary.add_relation("servedWith")
    query = parse_query(draw(st.sampled_from([QUERY, TWO_PLUS_QUERY])))
    return QueryAssignmentSpace(ontology, query, max_values_per_var=2)


def value_sets(space: QueryAssignmentSpace, name: str):
    """Singletons of ``name``'s universe, and pairs where its multiplicity
    admits two values."""
    universe = sorted(space.universe(name), key=str)
    sets = [frozenset({v}) for v in universe]
    (var,) = [v for v in space.satisfying.variables() if v.name == name]
    if space.satisfying.multiplicity_of(var).admits(2):
        sets += [frozenset(pair) for pair in itertools.combinations(universe, 2)]
    return sets


def candidate_nodes(space: QueryAssignmentSpace):
    """Every canonical node over ``value_sets`` of ``x`` and ``y``."""
    vocab = space.vocabulary
    for x_values in value_sets(space, "x"):
        for y_values in value_sets(space, "y"):
            node = Assignment.make(vocab, {"x": x_values, "y": y_values})
            # skip non-canonical value sets (comparable pairs collapse)
            if len(node.get("x")) == len(x_values) and len(node.get("y")) == len(y_values):
                yield node


def brute_force_expansion(space: QueryAssignmentSpace):
    """All multiplicity-respecting members of ``A`` by exhaustive search."""
    return [node for node in candidate_nodes(space) if space.in_expansion(node)]


def dominated_by_a_valid_assignment(space: QueryAssignmentSpace, node) -> bool:
    """Algorithm 1, line 1, by exhaustive enumeration: does some valid
    assignment with multiplicities dominate ``node``?  Valid means every
    selection of one value per variable is a WHERE tuple (Prop. 5.1)."""
    vocab = space.vocabulary
    tuples = {(row.get("x"), row.get("y")) for row in space.where_solutions()}

    def subsets(values):
        values = sorted(values, key=str)
        for size in range(1, len(values) + 1):
            yield from itertools.combinations(values, size)

    def dominates(grid_values, node_values):
        return all(any(vocab.leq(v, w) for w in grid_values) for v in node_values)

    for xs in subsets({x for x, _ in tuples}):
        if not dominates(xs, node.get("x")):
            continue
        for ys in subsets({y for _, y in tuples}):
            if dominates(ys, node.get("y")) and all(
                pair in tuples for pair in itertools.product(xs, ys)
            ):
                return True
    return False


def enumerated_grid_exists(space, values, relevant, dropped, index) -> bool:
    """The witness-grid test the pruned search replaced: every combination
    of one witness per (variable, value), each checked as a whole grid,
    with the same 20,000-combination cap and fallback."""
    options = []
    for name in relevant:
        for value in sorted(values[name], key=lambda t: t.name):
            witnesses, _ = space._witness_info(dropped, index, name, value)
            if not witnesses:
                return False
            options.append((name, witnesses))

    def grid_ok(choice):
        value_lists = [sorted(choice[n], key=lambda t: t.name) for n in relevant]
        for combo in itertools.product(*value_lists):
            mask = -1
            for name, value in zip(relevant, combo):
                mask &= index[name].get(value, 0)
                if not mask:
                    return False
        return True

    total = 1
    for _, witnesses in options:
        total *= len(witnesses)
        if total > 20000:
            return space._selectionwise_dominated(values, relevant, dropped, index)
    tried = set()
    for combo in itertools.product(*(w for _, w in options)):
        choice = {}
        for (name, _), witness in zip(options, combo):
            choice.setdefault(name, set()).add(witness)
        fingerprint = tuple(
            tuple(sorted(choice[n], key=lambda t: t.name)) for n in relevant
        )
        if fingerprint in tried:
            continue
        tried.add(fingerprint)
        if grid_ok(choice):
            return True
    return False


@given(random_spaces())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_expansion_member_is_reachable(space):
    reachable = set(space.all_nodes())
    for member in brute_force_expansion(space):
        assert member in reachable, f"unreachable expansion member: {member!r}"


@given(random_spaces())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reachable_set_is_inside_expansion(space):
    for node in space.all_nodes():
        assert space.in_expansion(node), f"traversal left A: {node!r}"


@given(random_spaces())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_expansion_is_downward_closed(space):
    vocab = space.vocabulary
    nodes = space.all_nodes()
    for node in nodes:
        for predecessor in space.predecessors(node):
            # predecessors of an A-member must be in A (down-closure)
            if predecessor.get("x") and predecessor.get("y"):
                assert space.in_expansion(predecessor), (node, predecessor)


@given(random_spaces())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_valid_base_reachable(space):
    reachable = set(space.all_nodes())
    for base in space.valid_base_assignments():
        assert base in reachable


@given(random_spaces())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_in_expansion_is_algorithm_1_line_1(space):
    for node in candidate_nodes(space):
        assert space.in_expansion(node) == dominated_by_a_valid_assignment(
            space, node
        ), node


@pytest.mark.parametrize(
    "domain,threshold,max_values",
    [("travel", 0.5, 2), ("travel", 0.3, 3), ("culinary", 0.3, 3)],
)
def test_search_matches_enumeration_on_seeded_runs(
    monkeypatch, domain, threshold, max_values
):
    """Every multi-valued verdict of a seeded crowd run equals the
    enumeration's, members and non-members of ``A`` alike."""
    from repro.crowd import CrowdCache
    from repro.engine.config import EngineConfig
    from repro.engine.engine import OassisEngine
    from repro.service.simulation import DOMAINS

    verdicts = []
    search = QueryAssignmentSpace._witness_grid_exists

    def checked(self, values, relevant, dropped, index):
        found = search(self, values, relevant, dropped, index)
        expected = enumerated_grid_exists(self, values, relevant, dropped, index)
        assert found == expected, values
        verdicts.append(found)
        return found

    monkeypatch.setattr(QueryAssignmentSpace, "_witness_grid_exists", checked)
    dataset = DOMAINS[domain]()
    engine = OassisEngine(
        dataset.ontology,
        config=EngineConfig(max_values_per_var=max_values, max_more_facts=1),
    )
    result = engine.execute(
        dataset.query(threshold),
        dataset.build_crowd(size=6, seed=1000),
        sample_size=3,
        cache=CrowdCache(),
        more_pool=dataset.more_pool,
    )
    assert result.questions > 0
    assert True in verdicts


# ------------------------------------------------ set-up from the WHERE rows


def reduced_from_rows(space: QueryAssignmentSpace, dropped):
    """``_reduced_solutions`` as it was computed from full WHERE rows: one
    pass over every row, reading each variable through the Binding."""
    remaining = tuple(v for v in space._shared_vars if v not in dropped)
    where = space.query.where
    if where is None or not remaining:
        return remaining, set()
    if not dropped:
        return remaining, {
            tuple(row.get(name) for name in remaining)
            for row in space.where_solutions()
            if all(name in row for name in remaining)
        }
    patterns = [
        p
        for p in where
        if not any(
            isinstance(part, Var) and part.name in dropped
            for part in (p.subject, p.relation.term, p.obj)
        )
    ]
    if not patterns:
        return remaining, set()
    reduced = BGP(patterns)
    constrained = tuple(
        name for name in remaining if any(name == v.name for v in reduced.variables())
    )
    return constrained, {
        tuple(row.get(name) for name in constrained)
        for row in SparqlEngine(space.ontology).solutions(reduced)
        if all(name in row for name in constrained)
    }


class RowSpace(QueryAssignmentSpace):
    """The space with its valid tuples and universes read off full rows."""

    def _reduced_solutions(self, dropped):
        cached = self._reduced_cache.get(dropped)
        if cached is None:
            cached = self._reduced_cache[dropped] = reduced_from_rows(self, dropped)
        return cached

    def _shared_universe(self, name):
        index = self._shared_vars.index(name)
        base_values = {values[index] for values in self._base_tuples(frozenset())}
        closure = set()
        for value in base_values:
            closure.update(self.vocabulary.ancestors(value))
        caps = self._caps.get(name)
        if caps:
            allowed = set()
            for cap in caps:
                if cap in self.vocabulary.element_order:
                    allowed.update(self.vocabulary.descendants(cap))
            closure &= allowed
        return frozenset(closure)


def assert_same_setup(space: QueryAssignmentSpace, oracle: RowSpace):
    shared = space._shared_vars
    for size in range(len(shared) + 1):
        for dropped in itertools.combinations(shared, size):
            dropped = frozenset(dropped)
            assert space._reduced_solutions(dropped) == reduced_from_rows(
                space, dropped
            ), dropped
    for name in space._sat_vars:
        assert space.universe(name) == oracle.universe(name), name
    assert space.roots() == oracle.roots()
    base = space.valid_base_assignments()
    assert len(base) == len(set(base))
    assert set(base) == set(oracle.valid_base_assignments())


#: travel's attractions and restaurants, with an optional restaurant:
#: dropping ``$z`` leaves ``$x`` in no pattern, and is a reachable node
OPTIONAL_RESTAURANT = """
SELECT FACT-SETS
WHERE
  $z instanceOf Restaurant .
  $z nearBy $x .
  $y subClassOf* Activity
SATISFYING
  $y doAt $x .
  [] eatAt $z*
WITH SUPPORT = 0.5
"""


@pytest.mark.parametrize(
    "module, text",
    [
        (travel, None),
        (travel, OPTIONAL_RESTAURANT),
        (culinary, None),
        (health, None),
    ],
    ids=["travel", "travel-optional-restaurant", "culinary", "self-treatment"],
)
def test_domain_setup_equals_the_full_row_computation(module, text):
    dataset = module.build_dataset()
    query = parse_query(text or dataset.query(0.5))
    space = QueryAssignmentSpace(dataset.ontology, query)
    oracle = RowSpace(dataset.ontology, query)
    assert_same_setup(space, oracle)
    # the walk below the roots reads the dropped-variable tuples too
    assert space.all_nodes(max_nodes=300) == oracle.all_nodes(max_nodes=300)


@given(random_spaces())
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_setup_equals_the_full_row_computation(space):
    oracle = RowSpace(space.ontology, space.query, max_values_per_var=2)
    assert_same_setup(space, oracle)
