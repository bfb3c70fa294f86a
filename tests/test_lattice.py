"""Unit tests for the explicit assignment-space DAG."""

import pytest

from repro.assignments import ExplicitDAG
from repro.synth import generate_dag


@pytest.fixture()
def diamond() -> ExplicitDAG:
    dag = ExplicitDAG()
    for parent, child in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]:
        dag.add_edge(parent, child)
    dag.set_valid({2, 3, 4})
    return dag


class TestStructure:
    def test_roots(self, diamond):
        assert diamond.roots() == [0]

    def test_successors_predecessors(self, diamond):
        assert set(diamond.successors(0)) == {1, 2}
        assert set(diamond.predecessors(3)) == {1, 2}

    def test_self_loop_rejected(self):
        dag = ExplicitDAG()
        with pytest.raises(ValueError):
            dag.add_edge(1, 1)

    def test_len_and_contains(self, diamond):
        assert len(diamond) == 5
        assert 3 in diamond
        assert 99 not in diamond

    def test_valid_nodes(self, diamond):
        assert sorted(diamond.valid_nodes()) == [2, 3, 4]
        assert diamond.is_valid(3)
        assert not diamond.is_valid(0)

    def test_default_all_valid(self):
        dag = ExplicitDAG(edges=[(0, 1)])
        assert dag.is_valid(0) and dag.is_valid(1)


class TestOrder:
    def test_leq_reflexive(self, diamond):
        assert diamond.leq(3, 3)

    def test_leq_reachability(self, diamond):
        assert diamond.leq(0, 4)
        assert not diamond.leq(4, 0)
        assert not diamond.leq(1, 2)

    def test_descendants_ancestors(self, diamond):
        assert diamond.descendants(1) == {1, 3, 4}
        assert diamond.ancestors(3) == {0, 1, 2, 3}

    def test_descendants_cache_invalidated(self, diamond):
        assert diamond.descendants(4) == {4}
        diamond.add_edge(4, 5)
        assert diamond.descendants(4) == {4, 5}


class TestShapeMetrics:
    def test_depth(self, diamond):
        assert diamond.depth(0) == 0
        assert diamond.depth(3) == 2
        assert diamond.depth(4) == 3

    def test_height(self, diamond):
        assert diamond.height() == 3

    def test_width(self, diamond):
        assert diamond.width() == 2  # level 1 holds nodes 1 and 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_depths_equal_the_per_node_walk(self, seed):
        dag = generate_dag(width=80, depth=5, root_count=4, seed=seed)
        for node in dag.nodes():
            assert dag.depth(node) == walked_depth(dag, node)

    def test_depths_follow_new_edges(self, diamond):
        assert diamond.depth(4) == 3
        diamond.add_edge(4, 5)
        diamond.add_edge(0, 4)
        assert diamond.depth(5) == 4
        assert diamond.height() == 4
        diamond.add_node(6)
        assert diamond.depth(6) == 0


def walked_depth(dag: ExplicitDAG, node) -> int:
    """Longest distance from a root, by walking ``node``'s ancestors."""
    order, visited = [], set()
    stack = [(node, False)]
    while stack:
        current, processed = stack.pop()
        if processed:
            order.append(current)
        elif current not in visited:
            visited.add(current)
            stack.append((current, True))
            stack.extend((parent, False) for parent in dag.predecessors(current))
    depths = {}
    for current in order:
        depths[current] = 1 + max(
            (depths[p] for p in dag.predecessors(current)), default=-1
        )
    return depths[node]


class TestTraversal:
    def test_descend_iter_visits_everything_once(self, diamond):
        visited = list(diamond.descend_iter())
        assert sorted(visited) == [0, 1, 2, 3, 4]
        assert len(visited) == len(set(visited))

    def test_descend_iter_is_top_down(self, diamond):
        visited = list(diamond.descend_iter())
        assert visited.index(0) < visited.index(3) < visited.index(4)

    def test_all_nodes_bounded(self, diamond):
        assert len(diamond.all_nodes(max_nodes=2)) <= 3


class TestCopy:
    def test_copy_independent(self, diamond):
        dup = diamond.copy()
        dup.add_edge(4, 10)
        assert 10 not in diamond
        assert dup.is_valid(3)
