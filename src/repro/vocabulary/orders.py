"""Partial orders over terms (the ``≤E`` and ``≤R`` of Definition 2.1).

The paper orders terms by *reversed subsumption*: ``a ≤ b`` means that *b is
more specific than a* (``Sport ≤ Biking`` because biking is a sport).  We
represent such an order as a DAG whose edges point from a term to its
*immediate specializations* (children).  Reachability gives the full order.

The structure supports the operations the mining algorithms need:

* ``leq(a, b)`` — is ``a ≤ b``?  (a single bit test on compiled closures)
* ``children(a)`` / ``parents(a)`` — immediate specializations /
  generalizations, the ``⋖`` steps of the assignment lattice;
* ``descendants`` / ``ancestors`` — reflexive-transitive closures, used by
  ``subClassOf*`` path evaluation and by up-set/down-set classification;
* ``roots()`` / ``leaves()`` — extremes of the order;
* ``depth(a)`` — longest chain from a root, used by synthetic-DAG shaping.

Closures are *bitset-compiled*: every term is interned to a dense integer
id on registration, and on first query after a mutation the full
reflexive-transitive closure is computed in one topological sweep as a
list of Python-int bitsets (``descendants_bits(t)`` has bit ``i`` set iff
``t ≤ term_of_id(i)``).  ``leq`` is then one shift-and-mask, and set
algebra over closures (the ``∩`` of witness search, the ``∪`` of up-set
accumulation) becomes bitwise AND/OR on machine words.  The historical
frozenset API (``descendants``/``ancestors``) is preserved as thin views
materialized lazily from the bitsets and memoized until the next edit.

Compilation is version-stamped: every structural change bumps
:attr:`PartialOrder.version`, and compiled state is rebuilt on the next
query when its stamp no longer matches (see ``docs/PERFORMANCE.md`` for
the invalidation contract).  The pre-compilation DFS implementations are
retained as ``*_reference`` methods; the randomized equivalence suite
(``tests/test_bitset_equivalence.py``) asserts both paths agree.

Cycles are rejected on insertion (a partial order must be acyclic).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..observability import count as _obs_count
from .terms import Term

#: header of a packed-closure blob: (term count, row stride in bytes)
_CLOSURE_HEADER = struct.Struct("!II")
#: length of the structural signature embedded after the header
_CLOSURE_SIG_LEN = 20


class CycleError(ValueError):
    """Raised when an edge insertion would create a cycle in the order."""


class PartialOrder:
    """A partial order over :class:`~repro.vocabulary.terms.Term` objects.

    Stored as an explicit Hasse-like DAG.  Edges need not form a transitive
    reduction — redundant edges are tolerated and ignored by reachability —
    but :meth:`children` only reports direct edges, so builders should add
    immediate-specialization edges only.
    """

    def __init__(self) -> None:
        self._children: Dict[Term, Set[Term]] = {}
        self._parents: Dict[Term, Set[Term]] = {}
        # interning: term <-> dense id.  Ids are assigned on registration
        # and never reused or invalidated (terms cannot be removed), so
        # bitset layouts stay aligned across recompilations.
        self._ids: Dict[Term, int] = {}
        self._terms_by_id: List[Term] = []
        # compiled closures: id -> reflexive-transitive bitset, rebuilt
        # lazily when the version stamp moves
        self._desc_bits: List[int] = []
        self._anc_bits: List[int] = []
        self._desc_compiled_at = -1
        self._anc_compiled_at = -1
        # lazily-materialized frozenset views over the compiled bitsets
        self._desc_view: Dict[Term, FrozenSet[Term]] = {}
        self._anc_view: Dict[Term, FrozenSet[Term]] = {}
        self._depth_cache: Dict[Term, int] = {}
        self._chain_pos: Dict[Term, Tuple[int, int]] = {}
        self._chain_compiled_at = -1
        self._sorted_children: Dict[Term, Tuple[Term, ...]] = {}
        self._sorted_parents: Dict[Term, Tuple[Term, ...]] = {}
        self._edge_count = 0
        #: bumped on every structural change; cheap cache-invalidation stamp
        self.version = 0

    @property
    def edge_count(self) -> int:
        """Number of immediate edges (used for cache invalidation stamps)."""
        return self._edge_count

    # ------------------------------------------------------------------ edit

    def add_term(self, term: Term) -> None:
        """Register ``term`` as a member of the order (idempotent)."""
        if term not in self._children:
            self._children[term] = set()
            self._parents[term] = set()
            self._ids[term] = len(self._terms_by_id)
            self._terms_by_id.append(term)
            self._invalidate()

    def add_edge(self, general: Term, specific: Term) -> None:
        """Record ``general ≤ specific`` as an immediate edge.

        Raises :class:`CycleError` if the edge would make the relation
        cyclic (including self-loops).
        """
        if general == specific:
            raise CycleError(f"self-loop on {general!r}")
        self.add_term(general)
        self.add_term(specific)
        if self._reaches(specific, general):
            raise CycleError(f"edge {general!r} -> {specific!r} would create a cycle")
        self._children[general].add(specific)
        self._parents[specific].add(general)
        self._edge_count += 1
        self._invalidate()

    def _invalidate(self) -> None:
        self.version += 1
        self._desc_view.clear()
        self._anc_view.clear()
        self._depth_cache.clear()
        self._sorted_children.clear()
        self._sorted_parents.clear()

    # ----------------------------------------------------------- compilation

    def _topological_ids(self) -> List[int]:
        """All term ids in a parents-before-children order (Kahn)."""
        indegree = {
            term: len(parents) for term, parents in self._parents.items()
        }
        queue: List[Term] = [t for t, d in indegree.items() if d == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            term = queue[head]
            head += 1
            order.append(self._ids[term])
            for child in self._children[term]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        return order

    def _ensure_desc_compiled(self) -> None:
        if self._desc_compiled_at == self.version:
            return
        ids = self._ids
        bits = [0] * len(self._terms_by_id)
        for tid in reversed(self._topological_ids()):
            acc = 1 << tid
            for child in self._children[self._terms_by_id[tid]]:
                acc |= bits[ids[child]]
            bits[tid] = acc
        self._desc_bits = bits
        self._desc_compiled_at = self.version
        _obs_count("orders.closure.desc_compiles")

    def _ensure_anc_compiled(self) -> None:
        if self._anc_compiled_at == self.version:
            return
        ids = self._ids
        bits = [0] * len(self._terms_by_id)
        for tid in self._topological_ids():
            acc = 1 << tid
            for parent in self._parents[self._terms_by_id[tid]]:
                acc |= bits[ids[parent]]
            bits[tid] = acc
        self._anc_bits = bits
        self._anc_compiled_at = self.version
        _obs_count("orders.closure.anc_compiles")

    # ----------------------------------------------------------- bitset API

    def term_id(self, term: Term) -> Optional[int]:
        """The dense interned id of ``term`` (None if unregistered)."""
        return self._ids.get(term)

    def term_of_id(self, term_id: int) -> Term:
        """The term interned at ``term_id``."""
        return self._terms_by_id[term_id]

    def descendants_bits(self, term: Term) -> int:
        """Reflexive-transitive specializations of ``term`` as a bitset.

        Bit ``i`` is set iff ``term ≤ term_of_id(i)``.  Unregistered terms
        yield 0 (they have no interned id to set).
        """
        tid = self._ids.get(term)
        if tid is None:
            return 0
        self._ensure_desc_compiled()
        return self._desc_bits[tid]

    def ancestors_bits(self, term: Term) -> int:
        """Reflexive-transitive generalizations of ``term`` as a bitset."""
        tid = self._ids.get(term)
        if tid is None:
            return 0
        self._ensure_anc_compiled()
        return self._anc_bits[tid]

    def terms_of_bits(self, bits: int) -> FrozenSet[Term]:
        """Materialize a bitset over interned ids back into terms."""
        terms_by_id = self._terms_by_id
        out = []
        while bits:
            low = bits & -bits
            out.append(terms_by_id[low.bit_length() - 1])
            bits ^= low
        return frozenset(out)

    # ------------------------------------------------- closure import/export

    def closure_signature(self) -> bytes:
        """A digest of the order's structure (terms in id order + edges).

        Two orders built by the same deterministic construction sequence
        have equal signatures; the signature travels with exported closure
        blobs so an adopting process can prove its own order is aligned
        (same interning layout, same edges) before trusting foreign bits.
        """
        digest = hashlib.sha1()
        for term in self._terms_by_id:
            digest.update(term.name.encode("utf-8"))
            digest.update(b"\x00")
        digest.update(b"\x01")
        for general in self._terms_by_id:
            for child in sorted(self._children[general]):
                digest.update(general.name.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(child.name.encode("utf-8"))
                digest.update(b"\x00")
        return digest.digest()

    def export_closures(self) -> bytes:
        """Serialize both compiled closures as one read-only byte blob.

        Layout: a ``(term count, row stride)`` header, the structural
        signature, then the descendant rows followed by the ancestor rows,
        each row the fixed-stride little-endian encoding of that term's
        closure bitset.  The blob is position-independent — built for
        shipping through ``multiprocessing.shared_memory`` to shard worker
        processes so they can serve ``leq``/closure queries without ever
        compiling (see :mod:`repro.service.shard.closures`).
        """
        self._ensure_desc_compiled()
        self._ensure_anc_compiled()
        nterms = len(self._terms_by_id)
        stride = max(1, (nterms + 7) // 8)
        out = bytearray(_CLOSURE_HEADER.pack(nterms, stride))
        out += self.closure_signature()
        for bits in self._desc_bits:
            out += bits.to_bytes(stride, "little")
        for bits in self._anc_bits:
            out += bits.to_bytes(stride, "little")
        return bytes(out)

    def adopt_closures(self, blob: bytes) -> None:
        """Install closures exported by an identically built order.

        The inverse of :meth:`export_closures`: validates the embedded
        term count and structural signature against *this* order, then
        installs the decoded bitsets and stamps them current — so the
        first ``leq``/``descendants`` query does a bit test instead of a
        topological sweep, and ``orders.closure.*_compiles`` stays at
        zero in the adopting process.  Raises ``ValueError`` on any
        mismatch (adopting foreign closures would silently corrupt every
        downstream classification).
        """
        header_len = _CLOSURE_HEADER.size
        if len(blob) < header_len + _CLOSURE_SIG_LEN:
            raise ValueError("closure blob too short for header + signature")
        nterms, stride = _CLOSURE_HEADER.unpack_from(blob, 0)
        if nterms != len(self._terms_by_id):
            raise ValueError(
                f"closure blob describes {nterms} terms, "
                f"this order has {len(self._terms_by_id)}"
            )
        sig_end = header_len + _CLOSURE_SIG_LEN
        if blob[header_len:sig_end] != self.closure_signature():
            raise ValueError("closure blob signature does not match this order")
        expected = sig_end + 2 * nterms * stride
        if len(blob) != expected:
            raise ValueError(
                f"closure blob is {len(blob)} bytes, expected {expected}"
            )
        desc: List[int] = []
        anc: List[int] = []
        offset = sig_end
        for _ in range(nterms):
            desc.append(int.from_bytes(blob[offset : offset + stride], "little"))
            offset += stride
        for _ in range(nterms):
            anc.append(int.from_bytes(blob[offset : offset + stride], "little"))
            offset += stride
        self._desc_bits = desc
        self._anc_bits = anc
        self._desc_compiled_at = self.version
        self._anc_compiled_at = self.version

    # ----------------------------------------------------------------- query

    def __contains__(self, term: Term) -> bool:
        return term in self._children

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._children)

    def terms(self) -> FrozenSet[Term]:
        """All terms registered in the order."""
        return frozenset(self._children)

    def children(self, term: Term) -> FrozenSet[Term]:
        """Immediate specializations of ``term`` (empty if unknown)."""
        return frozenset(self._children.get(term, ()))

    def parents(self, term: Term) -> FrozenSet[Term]:
        """Immediate generalizations of ``term`` (empty if unknown)."""
        return frozenset(self._parents.get(term, ()))

    def children_sorted(self, term: Term) -> Tuple[Term, ...]:
        """Immediate specializations in deterministic (sorted) order.

        Memoized until the next edit — traversal inner loops call this once
        per expansion step instead of materializing and re-sorting a
        frozenset every time.
        """
        cached = self._sorted_children.get(term)
        if cached is None:
            cached = tuple(sorted(self._children.get(term, ())))
            self._sorted_children[term] = cached
        return cached

    def parents_sorted(self, term: Term) -> Tuple[Term, ...]:
        """Immediate generalizations in deterministic (sorted) order."""
        cached = self._sorted_parents.get(term)
        if cached is None:
            cached = tuple(sorted(self._parents.get(term, ())))
            self._sorted_parents[term] = cached
        return cached

    def _reaches(self, src: Term, dst: Term) -> bool:
        """Uncached reachability used during edits (cache may be stale)."""
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            for child in self._children.get(node, ()):
                if child == dst:
                    return True
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    def leq(self, general: Term, specific: Term) -> bool:
        """Is ``general ≤ specific`` (reflexive)?

        Terms not registered in the order are only related to themselves,
        mirroring the paper's treatment of vocabulary terms that appear in
        transactions but not in the ontology (e.g. ``Boathouse``).
        """
        if general == specific:
            return True
        gid = self._ids.get(general)
        if gid is None:
            return False
        sid = self._ids.get(specific)
        if sid is None:
            return False
        if self._desc_compiled_at != self.version:
            self._ensure_desc_compiled()
        return (self._desc_bits[gid] >> sid) & 1 == 1

    def comparable(self, a: Term, b: Term) -> bool:
        """Are ``a`` and ``b`` related in either direction?"""
        return self.leq(a, b) or self.leq(b, a)

    def descendants(self, term: Term) -> FrozenSet[Term]:
        """Reflexive-transitive specializations of ``term``.

        A thin frozenset view over :meth:`descendants_bits`, materialized
        lazily and memoized until the next edit.
        """
        cached = self._desc_view.get(term)
        if cached is not None:
            return cached
        tid = self._ids.get(term)
        if tid is None:
            result: FrozenSet[Term] = frozenset({term})
        else:
            self._ensure_desc_compiled()
            result = self.terms_of_bits(self._desc_bits[tid])
        self._desc_view[term] = result
        _obs_count("orders.closure.desc_views")
        return result

    def ancestors(self, term: Term) -> FrozenSet[Term]:
        """Reflexive-transitive generalizations of ``term`` (thin view)."""
        cached = self._anc_view.get(term)
        if cached is not None:
            return cached
        tid = self._ids.get(term)
        if tid is None:
            result: FrozenSet[Term] = frozenset({term})
        else:
            self._ensure_anc_compiled()
            result = self.terms_of_bits(self._anc_bits[tid])
        self._anc_view[term] = result
        _obs_count("orders.closure.anc_views")
        return result

    def strict_descendants(self, term: Term) -> FrozenSet[Term]:
        """Transitive (non-reflexive) specializations."""
        return self.descendants(term) - {term}

    def strict_ancestors(self, term: Term) -> FrozenSet[Term]:
        """Transitive (non-reflexive) generalizations."""
        return self.ancestors(term) - {term}

    # ------------------------------------------------- reference (uncompiled)

    def leq_reference(self, general: Term, specific: Term) -> bool:
        """Pre-compilation ``leq`` via DFS reachability.

        Retained as the ground truth for the randomized equivalence
        suite; never used on hot paths.
        """
        if general == specific:
            return True
        if general not in self._children or specific not in self._children:
            return False
        return self._reaches(general, specific)

    def descendants_reference(self, term: Term) -> FrozenSet[Term]:
        """Pre-compilation descendant closure via DFS (ground truth)."""
        seen: Set[Term] = {term}
        stack = [term]
        while stack:
            node = stack.pop()
            for child in self._children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return frozenset(seen)

    def ancestors_reference(self, term: Term) -> FrozenSet[Term]:
        """Pre-compilation ancestor closure via DFS (ground truth)."""
        seen: Set[Term] = {term}
        stack = [term]
        while stack:
            node = stack.pop()
            for parent in self._parents.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return frozenset(seen)

    # -------------------------------------------------------------- extremes

    def roots(self) -> FrozenSet[Term]:
        """Terms with no parent (the most general terms)."""
        return frozenset(t for t, ps in self._parents.items() if not ps)

    def leaves(self) -> FrozenSet[Term]:
        """Terms with no child (the most specific terms)."""
        return frozenset(t for t, cs in self._children.items() if not cs)

    def depth(self, term: Term) -> int:
        """Length of the longest chain from a root to ``term`` (roots: 0)."""
        cached = self._depth_cache.get(term)
        if cached is not None:
            return cached
        # iterative longest-path on a DAG via memoized DFS
        order = self._topo_from_ancestors(term)
        for node in order:
            parents = self._parents.get(node, ())
            if not parents:
                self._depth_cache[node] = 0
            else:
                self._depth_cache[node] = 1 + max(self._depth_cache[p] for p in parents)
        return self._depth_cache[term]

    def _topo_from_ancestors(self, term: Term) -> List[Term]:
        """Topological order of ``term``'s ancestors, parents first."""
        visited: Set[Term] = set()
        order: List[Term] = []
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in self._parents.get(node, ()):
                if parent not in visited:
                    stack.append((parent, False))
        return order

    def height(self) -> int:
        """Longest chain length in the whole order (0 for flat orders)."""
        if not self._children:
            return 0
        return max(self.depth(t) for t in self._children)

    def chain_partition(self) -> Dict[Term, Tuple[int, int]]:
        """Greedy chain decomposition: term -> (chain id, position).

        Partitions the order into maximal chains by a deterministic
        top-down sweep: each term extends the chain of the first parent
        (in sorted order) whose chain it can still prolong, otherwise it
        starts a new chain.  The companion complexity paper shows crowd
        question cost is governed by the chain structure of the taxonomy;
        traversals use this partition to ask questions chain-by-chain so
        one insignificant answer prunes a whole suffix.  Memoized until
        the next structural edit.
        """
        if self._chain_compiled_at == self.version:
            return self._chain_pos
        pos: Dict[Term, Tuple[int, int]] = {}
        tails: Dict[int, Term] = {}
        chains = 0
        # deterministic topological sweep (sorted roots, sorted children)
        indegree = {t: len(ps) for t, ps in self._parents.items()}
        queue = sorted(t for t, d in indegree.items() if d == 0)
        head = 0
        while head < len(queue):
            term = queue[head]
            head += 1
            extended = None
            for parent in self.parents_sorted(term):
                parent_pos = pos.get(parent)
                if parent_pos is not None and tails.get(parent_pos[0]) == parent:
                    extended = parent_pos
                    break
            if extended is None:
                pos[term] = (chains, 0)
                tails[chains] = term
                chains += 1
            else:
                chain_id, depth = extended
                pos[term] = (chain_id, depth + 1)
                tails[chain_id] = term
            for child in self.children_sorted(term):
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        self._chain_pos = pos
        self._chain_compiled_at = self.version
        _obs_count("orders.chain_partitions")
        return pos

    def minimal_generalization_steps(self, general: Term, specific: Term) -> int:
        """Shortest edge distance from ``general`` down to ``specific``.

        Used by the synthetic MSP placement policies ("nearby" vs "far"
        MSPs, Section 6.4).  Raises ``ValueError`` if not ``general ≤
        specific``.
        """
        if general == specific:
            return 0
        if not self.leq(general, specific):
            raise ValueError(f"{general!r} is not ≤ {specific!r}")
        frontier = {general}
        dist = 0
        while frontier:
            dist += 1
            nxt: Set[Term] = set()
            for node in frontier:
                for child in self._children.get(node, ()):
                    if child == specific:
                        return dist
                    nxt.add(child)
            frontier = nxt
        raise AssertionError("unreachable: leq held but BFS did not find target")

    def copy(self) -> "PartialOrder":
        """An independent deep copy of the order."""
        dup = PartialOrder()
        for term in self._terms_by_id:
            dup.add_term(term)
        for term, children in self._children.items():
            for child in children:
                dup._children[term].add(child)
                dup._parents[child].add(term)
        dup._edge_count = self._edge_count
        dup.version += 1  # edges were added behind add_edge's back
        return dup

    def edges(self) -> Iterator[Tuple[Term, Term]]:
        """Iterate over all (general, specific) immediate edges."""
        for term, children in self._children.items():
            for child in children:
                yield (term, child)
