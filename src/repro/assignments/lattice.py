"""Assignment-space abstraction and the explicit DAG implementation.

The mining algorithms (Section 4) are written against an abstract
*assignment space*: a partially ordered set of nodes with lazy successor /
predecessor generation, a validity predicate, and the order relation.  Two
implementations exist:

* :class:`ExplicitDAG` — nodes and edges given up front.  Used by the
  synthetic experiments of Section 6.4, where the paper manipulates the DAG
  shape directly, and as the backing store for small test lattices.
* :class:`~repro.assignments.generator.QueryAssignmentSpace` — the lazy,
  query-driven space of Section 5.

Nodes of an :class:`ExplicitDAG` may be any hashable objects (synthetic
experiments use plain integers).
"""

from __future__ import annotations

import abc
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from ..observability import get_tracer

Node = TypeVar("Node", bound=Hashable)


class AssignmentSpace(abc.ABC, Generic[Node]):
    """The traversal interface consumed by the mining algorithms.

    Order convention follows the paper: ``leq(a, b)`` means *b is more
    specific than a*; roots are the most general nodes; successors move
    toward more specific assignments.
    """

    @abc.abstractmethod
    def roots(self) -> List[Node]:
        """The most general nodes (entry points of the top-down traversal)."""

    @abc.abstractmethod
    def successors(self, node: Node) -> List[Node]:
        """Traversal successors of ``node`` (strictly more specific)."""

    @abc.abstractmethod
    def predecessors(self, node: Node) -> List[Node]:
        """Traversal predecessors of ``node`` (strictly more general)."""

    @abc.abstractmethod
    def leq(self, a: Node, b: Node) -> bool:
        """The semantic order: is ``a`` at least as general as ``b``?"""

    @abc.abstractmethod
    def is_valid(self, node: Node) -> bool:
        """Is ``node`` valid w.r.t. the query's WHERE clause?"""

    def descend_iter(self, max_nodes: Optional[int] = None) -> Iterator[Node]:
        """Breadth-first enumeration from the roots (each node once)."""
        tracer = get_tracer()
        seen: Set[Node] = set()
        frontier: List[Node] = list(self.roots())
        for node in frontier:
            seen.add(node)
        index = 0
        while index < len(frontier):
            node = frontier[index]
            index += 1
            if tracer is not None:
                tracer.count("lattice.bfs.nodes")
            yield node
            if max_nodes is not None and len(seen) >= max_nodes:
                continue
            for successor in self.successors(node):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)

    def all_nodes(self, max_nodes: Optional[int] = None) -> List[Node]:
        """Materialize the space by BFS (bounded by ``max_nodes`` if given)."""
        return list(self.descend_iter(max_nodes=max_nodes))


class ExplicitDAG(AssignmentSpace[Node]):
    """An assignment space given by explicit nodes and immediate edges."""

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[Tuple[Node, Node]] = (),
        valid: Optional[Iterable[Node]] = None,
    ):
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._desc_cache: Dict[Node, FrozenSet[Node]] = {}
        self._depths: Optional[Dict[Node, int]] = None
        for node in nodes:
            self.add_node(node)
        for parent, child in edges:
            self.add_edge(parent, child)
        self._valid: Optional[Set[Node]] = set(valid) if valid is not None else None

    # ------------------------------------------------------------- building

    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self._desc_cache.clear()
            self._depths = None

    def add_edge(self, parent: Node, child: Node) -> None:
        """Add the immediate-successor edge ``parent ⋖ child``."""
        if parent == child:
            raise ValueError(f"self-loop on {parent!r}")
        self.add_node(parent)
        self.add_node(child)
        self._succ[parent].add(child)
        self._pred[child].add(parent)
        self._desc_cache.clear()
        self._depths = None

    def set_valid(self, valid: Iterable[Node]) -> None:
        """Declare the set of valid nodes (default: all nodes valid)."""
        self._valid = set(valid)

    # ------------------------------------------------------------ interface

    def roots(self) -> List[Node]:
        return [n for n, ps in self._pred.items() if not ps]

    def successors(self, node: Node) -> List[Node]:
        return list(self._succ.get(node, ()))

    def predecessors(self, node: Node) -> List[Node]:
        return list(self._pred.get(node, ()))

    def leq(self, a: Node, b: Node) -> bool:
        if a == b:
            return True
        return b in self.descendants(a)

    def is_valid(self, node: Node) -> bool:
        if self._valid is None:
            return node in self._succ
        return node in self._valid

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def nodes(self) -> List[Node]:
        return list(self._succ)

    def valid_nodes(self) -> List[Node]:
        if self._valid is None:
            return list(self._succ)
        return [n for n in self._succ if n in self._valid]

    def descendants(self, node: Node) -> FrozenSet[Node]:
        """Reflexive-transitive successors of ``node`` (memoized)."""
        cached = self._desc_cache.get(node)
        if cached is not None:
            return cached
        tracer = get_tracer()
        if tracer is not None:
            tracer.count("lattice.desc_cache.misses")
        seen: Set[Node] = {node}
        stack = [node]
        while stack:
            current = stack.pop()
            for child in self._succ.get(current, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        result = frozenset(seen)
        self._desc_cache[node] = result
        return result

    def ancestors(self, node: Node) -> FrozenSet[Node]:
        """Reflexive-transitive predecessors of ``node``."""
        seen: Set[Node] = {node}
        stack = [node]
        while stack:
            current = stack.pop()
            for parent in self._pred.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return frozenset(seen)

    def depth(self, node: Node) -> int:
        """Longest distance from a root (roots have depth 0)."""
        if self._depths is None:
            self._depths = self._all_depths()
        return self._depths[node]

    def _all_depths(self) -> Dict[Node, int]:
        """Every node's depth, in one topological pass from the roots."""
        waiting = {node: len(parents) for node, parents in self._pred.items()}
        depths = {node: 0 for node, count in waiting.items() if not count}
        ready = list(depths)
        while ready:
            current = ready.pop()
            below = depths[current] + 1
            for child in self._succ[current]:
                if depths.get(child, -1) < below:
                    depths[child] = below
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        return depths

    def width(self) -> int:
        """Size of the largest depth level (a simple width measure)."""
        levels: Dict[int, int] = {}
        for node in self._succ:
            level = self.depth(node)
            levels[level] = levels.get(level, 0) + 1
        return max(levels.values(), default=0)

    def height(self) -> int:
        """Longest root-to-leaf chain length."""
        return max((self.depth(n) for n in self._succ), default=0)

    def copy(self) -> "ExplicitDAG[Node]":
        dup: ExplicitDAG[Node] = ExplicitDAG()
        for node, children in self._succ.items():
            dup.add_node(node)
            for child in children:
                dup.add_edge(node, child)
        if self._valid is not None:
            dup.set_valid(self._valid)
        return dup
