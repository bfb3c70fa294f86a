"""Unit tests for repro.vocabulary.orders.PartialOrder."""

import pytest

from repro.vocabulary.orders import CycleError, PartialOrder
from repro.vocabulary.terms import Element


def sport_order() -> PartialOrder:
    """Activity ≤ Sport ≤ {Ball Game ≤ {Basketball, Baseball}, Biking}."""
    order = PartialOrder()
    edges = [
        ("Activity", "Sport"),
        ("Sport", "Ball Game"),
        ("Sport", "Biking"),
        ("Ball Game", "Basketball"),
        ("Ball Game", "Baseball"),
    ]
    for general, specific in edges:
        order.add_edge(Element(general), Element(specific))
    return order


class TestConstruction:
    def test_add_term_idempotent(self):
        order = PartialOrder()
        order.add_term(Element("A"))
        order.add_term(Element("A"))
        assert len(order) == 1

    def test_self_loop_rejected(self):
        order = PartialOrder()
        with pytest.raises(CycleError):
            order.add_edge(Element("A"), Element("A"))

    def test_cycle_rejected(self):
        order = PartialOrder()
        order.add_edge(Element("A"), Element("B"))
        order.add_edge(Element("B"), Element("C"))
        with pytest.raises(CycleError):
            order.add_edge(Element("C"), Element("A"))

    def test_edge_count_tracks_edges(self):
        order = sport_order()
        assert order.edge_count == 5

    def test_copy_is_independent(self):
        order = sport_order()
        dup = order.copy()
        dup.add_edge(Element("Biking"), Element("Mountain Biking"))
        assert Element("Mountain Biking") not in order
        assert Element("Mountain Biking") in dup

    def test_copy_preserves_edge_count(self):
        order = sport_order()
        assert order.copy().edge_count == order.edge_count


class TestOrderQueries:
    def test_leq_reflexive(self):
        order = sport_order()
        assert order.leq(Element("Sport"), Element("Sport"))

    def test_leq_transitive_reachability(self):
        order = sport_order()
        assert order.leq(Element("Activity"), Element("Basketball"))

    def test_leq_direction(self):
        order = sport_order()
        assert order.leq(Element("Sport"), Element("Biking"))
        assert not order.leq(Element("Biking"), Element("Sport"))

    def test_unregistered_terms_only_self_related(self):
        order = sport_order()
        assert order.leq(Element("Boathouse"), Element("Boathouse"))
        assert not order.leq(Element("Boathouse"), Element("Sport"))

    def test_incomparable_siblings(self):
        order = sport_order()
        assert not order.comparable(Element("Biking"), Element("Ball Game"))

    def test_children_and_parents(self):
        order = sport_order()
        assert order.children(Element("Sport")) == {
            Element("Ball Game"),
            Element("Biking"),
        }
        assert order.parents(Element("Basketball")) == {Element("Ball Game")}

    def test_descendants_reflexive_transitive(self):
        order = sport_order()
        assert order.descendants(Element("Ball Game")) == {
            Element("Ball Game"),
            Element("Basketball"),
            Element("Baseball"),
        }

    def test_ancestors(self):
        order = sport_order()
        assert order.ancestors(Element("Basketball")) == {
            Element("Basketball"),
            Element("Ball Game"),
            Element("Sport"),
            Element("Activity"),
        }

    def test_strict_variants_exclude_self(self):
        order = sport_order()
        assert Element("Sport") not in order.strict_descendants(Element("Sport"))
        assert Element("Sport") not in order.strict_ancestors(Element("Sport"))

    def test_roots_and_leaves(self):
        order = sport_order()
        assert order.roots() == {Element("Activity")}
        assert order.leaves() == {
            Element("Basketball"),
            Element("Baseball"),
            Element("Biking"),
        }

    def test_depth_and_height(self):
        order = sport_order()
        assert order.depth(Element("Activity")) == 0
        assert order.depth(Element("Basketball")) == 3
        assert order.height() == 3

    def test_depth_uses_longest_chain(self):
        order = PartialOrder()
        order.add_edge(Element("A"), Element("B"))
        order.add_edge(Element("B"), Element("C"))
        order.add_edge(Element("A"), Element("C"))  # redundant shortcut edge
        assert order.depth(Element("C")) == 2

    def test_minimal_generalization_steps(self):
        order = sport_order()
        assert order.minimal_generalization_steps(
            Element("Sport"), Element("Basketball")
        ) == 2
        assert order.minimal_generalization_steps(
            Element("Sport"), Element("Sport")
        ) == 0

    def test_minimal_generalization_steps_rejects_unrelated(self):
        order = sport_order()
        with pytest.raises(ValueError):
            order.minimal_generalization_steps(
                Element("Biking"), Element("Basketball")
            )

    def test_caches_invalidate_on_new_edge(self):
        order = sport_order()
        assert Element("Skiing") not in order.descendants(Element("Sport"))
        order.add_edge(Element("Sport"), Element("Skiing"))
        assert Element("Skiing") in order.descendants(Element("Sport"))

    def test_edges_iteration(self):
        order = sport_order()
        assert (Element("Sport"), Element("Biking")) in set(order.edges())


class TestChainPartition:
    def test_covers_every_term_exactly_once(self):
        order = sport_order()
        partition = order.chain_partition()
        assert set(partition) == set(order.terms())

    def test_chains_are_paths_down_the_order(self):
        order = sport_order()
        partition = order.chain_partition()
        # group terms by chain and check consecutive positions specialize
        chains = {}
        for term, (chain_id, position) in partition.items():
            chains.setdefault(chain_id, {})[position] = term
        for members in chains.values():
            assert sorted(members) == list(range(len(members)))
            for position in range(len(members) - 1):
                assert order.leq(members[position], members[position + 1])

    def test_deterministic_across_instances(self):
        assert sport_order().chain_partition() == sport_order().chain_partition()

    def test_invalidated_by_mutation(self):
        order = sport_order()
        before = order.chain_partition()
        order.add_edge(Element("Biking"), Element("Mountain Biking"))
        after = order.chain_partition()
        assert Element("Mountain Biking") in after
        assert Element("Mountain Biking") not in before
