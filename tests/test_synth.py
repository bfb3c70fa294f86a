"""Tests for the synthetic DAG and MSP-placement generators."""

import hashlib

import pytest

from repro.synth import (
    PlantedSignificance,
    dag_statistics,
    generate_dag,
    layer_sizes,
    place_msps,
)


class TestLayerSizes:
    def test_monotone_ramp(self):
        sizes = layer_sizes(500, 7)
        assert sizes[0] == 1
        assert sizes[-1] == 500
        assert sizes == sorted(sizes)

    def test_depth_one(self):
        assert layer_sizes(10, 1) == [1, 10]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            layer_sizes(10, 0)
        with pytest.raises(ValueError):
            layer_sizes(0, 3, root_count=1)


class TestGenerateDag:
    def test_requested_shape(self):
        dag = generate_dag(width=100, depth=5, seed=1)
        stats = dag_statistics(dag)
        assert stats["height"] == 5
        assert stats["width"] == 100
        assert stats["roots"] == 1

    def test_every_node_reachable_from_root(self):
        dag = generate_dag(width=60, depth=4, seed=2)
        (root,) = dag.roots()
        assert len(dag.descendants(root)) == len(dag)

    def test_valid_fraction(self):
        dag = generate_dag(width=80, depth=4, seed=3, valid_fraction=0.5)
        assert len(dag.valid_nodes()) == round(0.5 * len(dag))

    def test_valid_nodes_are_the_specific_ones(self):
        dag = generate_dag(width=80, depth=4, seed=3, valid_fraction=0.3)
        valid_depths = [dag.depth(n) for n in dag.valid_nodes()]
        invalid = [n for n in dag.nodes() if not dag.is_valid(n)]
        invalid_depths = [dag.depth(n) for n in invalid]
        assert min(valid_depths) >= max(0, max(invalid_depths) - 1)

    def test_deterministic_by_seed(self):
        a = generate_dag(width=50, depth=3, seed=7)
        b = generate_dag(width=50, depth=3, seed=7)
        assert set(a.nodes()) == set(b.nodes())
        for node in a.nodes():
            assert set(a.successors(node)) == set(b.successors(node))


class TestPlaceMsps:
    def test_count_and_incomparability(self):
        dag = generate_dag(width=100, depth=5, seed=1)
        planted = place_msps(dag, 8, seed=1)
        assert len(planted.msps) == 8
        for a in planted.msps:
            for b in planted.msps:
                if a != b:
                    assert not dag.leq(a, b)

    def test_significance_is_downward_closed(self):
        dag = generate_dag(width=100, depth=5, seed=2)
        planted = place_msps(dag, 5, seed=2)
        for node in dag.nodes():
            if planted.is_significant(node):
                for ancestor in dag.ancestors(node):
                    assert planted.is_significant(ancestor)

    def test_msps_are_maximal_significant(self):
        dag = generate_dag(width=100, depth=5, seed=3)
        planted = place_msps(dag, 5, seed=3)
        for msp in planted.msps:
            for successor in dag.successors(msp):
                assert not planted.is_significant(successor)

    def test_valid_only_placement(self):
        dag = generate_dag(width=100, depth=5, seed=4, valid_fraction=0.4)
        planted = place_msps(dag, 6, valid_only=True, seed=4)
        assert planted.valid_msps() == planted.msps

    def test_support_values(self):
        dag = generate_dag(width=60, depth=4, seed=5)
        planted = place_msps(dag, 3, seed=5)
        for node in dag.nodes():
            expected = 1.0 if planted.is_significant(node) else 0.0
            assert planted.support(node) == expected

    def test_policies_produce_requested_counts(self):
        dag = generate_dag(width=120, depth=5, seed=6)
        for policy in ("uniform", "nearby", "far"):
            planted = place_msps(dag, 5, policy=policy, seed=6)
            assert len(planted.msps) == 5

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1000, "55244b503213ddc9"),
            (1001, "4665f77402e2ba92"),
            (1002, "c6408afe6e1413fe"),
            (1003, "64605965c056503e"),
        ],
    )
    def test_paper_dag_placements_are_pinned(self, seed, digest):
        """The MSPs of perfbench's paper-dag units (seed 1), in placement
        order: the depth sort of the pool picks them, so a depth that
        moved would move the workload's questions."""
        dag = generate_dag(width=1350, depth=7, root_count=170, seed=seed)
        planted = place_msps(dag, round(0.05 * len(dag)), seed=seed)
        assert len(dag) == 4775 and len(planted.msps) == 239
        assert hashlib.sha256(repr(planted.msps).encode()).hexdigest()[:16] == digest

    def test_unknown_policy_rejected(self):
        dag = generate_dag(width=50, depth=3, seed=0)
        with pytest.raises(ValueError):
            place_msps(dag, 3, policy="weird")
