"""Unit tests for the lazy query-driven assignment space (Section 5)."""

import pytest

from repro.assignments import Assignment, QueryAssignmentSpace
from repro.datasets import running_example
from repro.oassisql import parse_query
from repro.ontology import Fact
from repro.vocabulary import Element
from repro.vocabulary.terms import ANY_ELEMENT


def E(name: str) -> Element:
    return Element(name)


@pytest.fixture(scope="module")
def space() -> QueryAssignmentSpace:
    ontology = running_example.build_ontology()
    query = parse_query(running_example.SAMPLE_QUERY)
    return QueryAssignmentSpace(
        ontology,
        query,
        more_pool=running_example.more_pool(),
        max_values_per_var=2,
        max_more_facts=1,
    )


@pytest.fixture(scope="module")
def fragment_space() -> QueryAssignmentSpace:
    """The Figure 3 fragment: activities at attractions only."""
    ontology = running_example.build_ontology()
    query = parse_query(running_example.FRAGMENT_QUERY)
    return QueryAssignmentSpace(ontology, query, max_values_per_var=2)


class TestValidBase:
    def test_base_assignment_count(self, space):
        # 2 attractions x 7 activity generalizations (Activity, Sport,
        # Ball Game, Basketball, Baseball, Biking, Water Sport, Swimming,
        # Water Polo, Feed a monkey) = 2 x 10 ... restricted to the
        # subClassOf* Activity closure present in Figure 1
        base = space.valid_base_assignments()
        xs = {next(iter(a.get("x"))) for a in base}
        assert xs == {E("Central Park"), E("Bronx Zoo")}
        # every base assignment pairs the right restaurant
        for assignment in base:
            x = next(iter(assignment.get("x")))
            z = next(iter(assignment.get("z")))
            expected = E("Maoz Veg") if x == E("Central Park") else E("Pine")
            assert z == expected

    def test_base_assignments_are_valid(self, space):
        for assignment in space.valid_base_assignments():
            assert space.is_valid(assignment)

    def test_base_assignments_in_expansion(self, space):
        for assignment in space.valid_base_assignments():
            assert space.in_expansion(assignment)


class TestRoots:
    def test_single_root_matches_figure3_node1(self, fragment_space):
        roots = fragment_space.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.get("x") == {E("Attraction")}
        assert root.get("y") == {E("Activity")}

    def test_full_query_root_includes_restaurant_cap(self, space):
        (root,) = space.roots()
        assert root.get("z") == {E("Restaurant")}
        assert root.get("x") == {E("Attraction")}


class TestSuccessors:
    def test_specialization_steps(self, fragment_space):
        (root,) = fragment_space.roots()
        successors = fragment_space.successors(root)
        xs = {frozenset(s.get("x")) for s in successors}
        assert frozenset({E("Outdoor")}) in xs  # Attraction -> Outdoor
        ys = {frozenset(s.get("y")) for s in successors}
        assert frozenset({E("Sport")}) in ys
        assert frozenset({E("Feed a monkey")}) in ys

    def test_successors_strictly_more_specific(self, fragment_space):
        (root,) = fragment_space.roots()
        for successor in fragment_space.successors(root):
            assert root.strictly_leq(successor, fragment_space.vocabulary)

    def test_indoor_not_generated(self, fragment_space):
        # Indoor has no valid instance below it (no child-friendly indoor
        # attraction inside NYC), so it is outside the expansion set A
        (root,) = fragment_space.roots()
        successors = fragment_space.successors(root)
        xs = {frozenset(s.get("x")) for s in successors}
        assert frozenset({E("Indoor")}) not in xs

    def test_multiplicity_addition(self, fragment_space):
        vocab = fragment_space.vocabulary
        node = Assignment.make(
            vocab, {"x": {E("Central Park")}, "y": {E("Biking")}}
        )
        successors = fragment_space.successors(node)
        added = [s for s in successors if len(s.get("y")) == 2]
        assert added, "expected lazy combination successors for $y+"
        for successor in added:
            assert E("Biking") in successor.get("y")

    def test_x_never_gets_two_values(self, space):
        # $x has multiplicity exactly-one
        (root,) = space.roots()
        frontier = [root]
        seen = set(frontier)
        for _ in range(200):
            if not frontier:
                break
            node = frontier.pop()
            for successor in space.successors(node):
                assert len(successor.get("x")) <= 1
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)

    def test_more_fact_successor(self, space):
        (root,) = space.roots()
        with_more = [s for s in space.successors(root) if s.more]
        assert len(with_more) == 1
        assert Fact("Rent Bikes", "doAt", "Boathouse") in with_more[0].more

    def test_more_fact_capped(self, space):
        (root,) = space.roots()
        with_more = [s for s in space.successors(root) if s.more][0]
        assert not any(len(s.more) > 1 for s in space.successors(with_more))


class TestPredecessors:
    def test_predecessors_inverse_of_specialization(self, fragment_space):
        vocab = fragment_space.vocabulary
        node = Assignment.make(vocab, {"x": {E("Central Park")}, "y": {E("Biking")}})
        predecessors = fragment_space.predecessors(node)
        expected = Assignment.make(vocab, {"x": {E("Park")}, "y": {E("Biking")}})
        assert expected in predecessors

    def test_predecessors_strictly_more_general(self, fragment_space):
        vocab = fragment_space.vocabulary
        node = Assignment.make(vocab, {"x": {E("Central Park")}, "y": {E("Biking")}})
        for predecessor in fragment_space.predecessors(node):
            assert predecessor.strictly_leq(node, vocab)

    def test_dropping_a_value_is_a_predecessor(self, fragment_space):
        vocab = fragment_space.vocabulary
        node = Assignment.make(
            vocab, {"x": {E("Central Park")}, "y": {E("Biking"), E("Ball Game")}}
        )
        predecessors = fragment_space.predecessors(node)
        smaller = Assignment.make(
            vocab, {"x": {E("Central Park")}, "y": {E("Biking")}}
        )
        assert smaller in predecessors


class TestValidity:
    def test_class_level_assignment_invalid_for_instance_query(self, space):
        vocab = space.vocabulary
        class_level = Assignment.make(
            vocab,
            {"x": {E("Park")}, "y": {E("Biking")}, "z": {E("Maoz Veg")},
             "__any_0": {ANY_ELEMENT}},
        )
        assert not space.is_valid(class_level)

    def test_wrong_restaurant_pairing_invalid(self, space):
        vocab = space.vocabulary
        crossed = Assignment.make(
            vocab,
            {"x": {E("Central Park")}, "y": {E("Biking")}, "z": {E("Pine")},
             "__any_0": {ANY_ELEMENT}},
        )
        assert not space.is_valid(crossed)

    def test_wrong_pairing_not_in_expansion(self, space):
        vocab = space.vocabulary
        crossed = Assignment.make(
            vocab,
            {"x": {E("Central Park")}, "y": {E("Biking")}, "z": {E("Pine")},
             "__any_0": {ANY_ELEMENT}},
        )
        assert not space.in_expansion(crossed)

    def test_multi_value_validity(self, fragment_space):
        vocab = fragment_space.vocabulary
        two_sports = Assignment.make(
            vocab, {"x": {E("Central Park")}, "y": {E("Biking"), E("Basketball")}}
        )
        assert fragment_space.is_valid(two_sports)

    def test_missing_mandatory_variable_invalid(self, fragment_space):
        vocab = fragment_space.vocabulary
        no_y = Assignment.make(vocab, {"x": {E("Central Park")}})
        assert not fragment_space.is_valid(no_y)

    def test_more_fact_keeps_validity(self, space):
        vocab = space.vocabulary
        base = Assignment.make(
            vocab,
            {"x": {E("Central Park")}, "y": {E("Biking")}, "z": {E("Maoz Veg")},
             "__any_0": {ANY_ELEMENT}},
            more=[Fact("Rent Bikes", "doAt", "Boathouse")],
        )
        assert space.is_valid(base)


class TestExpansionMembership:
    def test_generalizations_of_valid_in_expansion(self, fragment_space):
        vocab = fragment_space.vocabulary
        general = Assignment.make(vocab, {"x": {E("Outdoor")}, "y": {E("Sport")}})
        assert fragment_space.in_expansion(general)

    def test_multi_value_expansion_membership(self, fragment_space):
        vocab = fragment_space.vocabulary
        # {Sport, Feed a monkey} at Outdoor: witnessed by Central Park's
        # sports and Bronx Zoo's monkey feeding?  No - a combination must
        # fix x to a single tuple value, and no single attraction has both
        # only if... both activities are WHERE-valid at every attraction
        # (the WHERE clause does not link y to x), so this IS in A.
        node = Assignment.make(
            vocab, {"x": {E("Outdoor")}, "y": {E("Sport"), E("Feed a monkey")}}
        )
        assert fragment_space.in_expansion(node)

    def test_whole_space_is_finite_and_enumerable(self, fragment_space):
        nodes = fragment_space.all_nodes()
        assert 20 < len(nodes) < 2000
        # every enumerated node is in the expansion by construction
        for node in nodes[:50]:
            assert fragment_space.in_expansion(node)


class TestUniverses:
    def test_x_universe_capped_at_attraction(self, fragment_space):
        universe = fragment_space.universe("x")
        assert E("Attraction") in universe
        assert E("Place") not in universe
        assert E("Thing") not in universe

    def test_top_values(self, fragment_space):
        assert fragment_space.top_values("x") == {E("Attraction")}
        assert fragment_space.top_values("y") == {E("Activity")}


class TestMaterializedNodes:
    def test_expanded_nodes_and_their_successors(self):
        ontology = running_example.build_ontology()
        space = QueryAssignmentSpace(
            ontology, parse_query(running_example.FRAGMENT_QUERY), max_values_per_var=2
        )
        assert space.materialized_nodes() == set()
        root = space.roots()[0]
        first = space.successors(root)
        assert space.materialized_nodes() == {root, *first}
        second = space.successors(first[0])
        assert space.materialized_nodes() == {root, *first, *second}


class TestDigestLeq:
    """space.leq must equal the semantic Assignment.leq on real lattices."""

    def test_matches_semantic_leq_on_traversed_nodes(self, fragment_space):
        vocabulary = fragment_space.vocabulary
        nodes = list(fragment_space.descend_iter(max_nodes=60))
        assert len(nodes) >= 10
        for a in nodes:
            for b in nodes:
                assert fragment_space.leq(a, b) == a.leq(b, vocabulary), (
                    f"digest leq diverged on {a!r} vs {b!r}"
                )

    def test_digests_invalidate_on_order_mutation(self, fragment_space):
        nodes = list(fragment_space.descend_iter(max_nodes=10))
        a, b = nodes[0], nodes[-1]
        before = fragment_space.leq(a, b)
        # bump the element-order version with an unrelated term; the digest
        # caches must rebuild rather than serve stale bitsets
        vocabulary = fragment_space.vocabulary
        vocabulary.element_order.add_term(E("Totally Unrelated"))
        assert fragment_space.leq(a, b) == before == a.leq(b, vocabulary)

    def test_right_masks_follow_a_term_registered_later(self, fragment_space):
        # a value the orders do not know has no id bit in its value set's
        # right mask; once it is registered below Sport, the mask shared
        # by the lattice must be rebuilt with the digests
        vocabulary = fragment_space.vocabulary
        general = Assignment.make(
            vocabulary, {"x": {E("Central Park")}, "y": {E("Sport")}}
        )
        novel = Assignment(dict(general.values, y=frozenset({E("Unicycling")})))
        assert not fragment_space.leq(general, novel)
        vocabulary.specialize_element("Sport", "Unicycling")
        assert general.leq(novel, vocabulary)
        assert fragment_space.leq(general, novel)


class TestOrderedSuccessors:
    def test_same_set_as_successors(self, fragment_space):
        for node in fragment_space.descend_iter(max_nodes=30):
            assert set(fragment_space.ordered_successors(node)) == set(
                fragment_space.successors(node)
            )

    def test_order_is_deterministic(self):
        """Two independently built spaces order successors identically —
        the chain-partition sort keys are hash-seed independent."""
        def build():
            ontology = running_example.build_ontology()
            query = parse_query(running_example.FRAGMENT_QUERY)
            return QueryAssignmentSpace(ontology, query, max_values_per_var=2)

        first, second = build(), build()
        first_nodes = list(first.descend_iter(max_nodes=40))
        second_nodes = list(second.descend_iter(max_nodes=40))
        assert first_nodes == second_nodes
        for node in first_nodes:
            assert [repr(s) for s in first.ordered_successors(node)] == [
                repr(s) for s in second.ordered_successors(node)
            ]
