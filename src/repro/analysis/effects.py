"""Fixpoint effect inference over the project call graph.

Every function in the :class:`~repro.analysis.callgraph.CallGraph` gets
a *direct* effect set (what its own body does) and a *visible* effect
set (direct plus everything reachable through resolved call edges),
computed as a worklist fixpoint so recursion and cycles converge.

Effects tracked (each one is read by a rule in
:mod:`repro.analysis.deep`):

``blocking-io``
    A call that stalls the calling thread on the outside world: the
    blocking-call table from :mod:`repro.analysis.project`
    (``time.sleep``, ``socket.*``, ``subprocess.*``, ``requests.*``)
    plus the ``open``/``input`` builtins.
``wall-clock``
    A non-deterministic clock read (``time.time``, ``datetime.now``,
    ... — ``perf_counter``/``monotonic`` are fine, replay never
    compares them).
``unseeded-random``
    A call into the shared global RNG (``random.random`` and friends);
    seeded ``random.Random`` instances don't count.
``fsync``
    ``os.fsync`` — a durability barrier worth seeing across call
    chains because it is orders of magnitude slower than a write.

Functions can declare **audited exceptions** with a comment on (or
immediately above) their ``def`` line::

    def flush_wal(self) -> None:  # repro-effects: allow=fsync,blocking-io

An allowed effect is masked from the function's *visible* set: callers
no longer inherit it, so the deep rules stop reporting chains through
that function.  The function's own direct effects are still recorded
(``repro lint --explain`` shows both).  Unknown effect names in an
``allow=`` list are collected in :attr:`EffectAnalysis.annotation_errors`
and surfaced as findings by :mod:`repro.analysis.deep`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from . import project
from .callgraph import CallGraph, FunctionInfo

EFFECT_BLOCKING_IO = "blocking-io"
EFFECT_WALL_CLOCK = "wall-clock"
EFFECT_UNSEEDED_RANDOM = "unseeded-random"
EFFECT_FSYNC = "fsync"

#: plain (non-parameterised) effect names accepted by ``allow=``
PLAIN_EFFECTS: FrozenSet[str] = frozenset(
    {
        EFFECT_BLOCKING_IO,
        EFFECT_WALL_CLOCK,
        EFFECT_UNSEEDED_RANDOM,
        EFFECT_FSYNC,
    }
)

_ALLOW_COMMENT = re.compile(r"#\s*repro-effects:\s*allow=([A-Za-z0-9_.\-,]+)")


@dataclass(frozen=True)
class EffectSite:
    """Where a direct effect enters a function body."""

    qualname: str
    effect: str
    lineno: int
    detail: str


@dataclass(frozen=True)
class AnnotationError:
    """A malformed ``# repro-effects: allow=`` annotation."""

    path: str
    lineno: int
    token: str


@dataclass
class EffectAnalysis:
    """The result bundle: graph + direct/visible effects + their sites."""

    graph: CallGraph
    direct: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    visible: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    allows: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    sites: Dict[Tuple[str, str], EffectSite] = field(default_factory=dict)
    annotation_errors: List[AnnotationError] = field(default_factory=list)

    def effects_of(self, qualname: str) -> FrozenSet[str]:
        return self.visible.get(qualname, frozenset())

    def direct_of(self, qualname: str) -> FrozenSet[str]:
        return self.direct.get(qualname, frozenset())

    def site_of(self, qualname: str, effect: str) -> Optional[EffectSite]:
        return self.sites.get((qualname, effect))

    def witness_chain(
        self, start: str, effect: str
    ) -> Optional[List["ChainLink"]]:
        """Shortest ``start -> ... -> f`` where ``f`` *directly* causes
        ``effect`` and no hop masks it with an ``allow=`` annotation."""

        def carries(qualname: str) -> bool:
            return effect in self.visible.get(qualname, frozenset())

        def terminal(qualname: str) -> bool:
            return (
                effect in self.direct.get(qualname, frozenset())
                and effect not in self.allows.get(qualname, frozenset())
            )

        chain = self.graph.shortest_chain(start, terminal, follow=carries)
        if chain is None:
            return None
        links = [
            ChainLink(step.qualname, step.lineno) for step in chain
        ]
        site = self.site_of(links[-1].qualname, effect)
        if site is not None:
            links[-1] = ChainLink(
                links[-1].qualname,
                links[-1].call_lineno,
                site.detail,
                site.lineno,
            )
        return links

    def render_chain(self, links: List["ChainLink"]) -> str:
        """``a.f -> b.g:120 -> c.h:44 [time.sleep@51]`` (short modules)."""
        parts: List[str] = []
        for index, link in enumerate(links):
            name = _short(link.qualname)
            if index > 0 and link.call_lineno:
                name = f"{name}:{link.call_lineno}"
            parts.append(name)
        rendered = " -> ".join(parts)
        last = links[-1]
        if last.detail:
            rendered += f" [{last.detail}@{last.site_lineno}]"
        return rendered


@dataclass(frozen=True)
class ChainLink:
    """One hop of a rendered witness chain."""

    qualname: str
    call_lineno: int
    detail: str = ""
    site_lineno: int = 0


def _short(qualname: str) -> str:
    """Drop the shared package prefix for readable chains."""
    return qualname[6:] if qualname.startswith("repro.") else qualname


class _DirectEffectCollector:
    """Extracts the direct effects of every function."""

    def __init__(self, analysis: EffectAnalysis) -> None:
        self.analysis = analysis
        self.graph = analysis.graph

    # ----------------------------------------------------- per-function walk

    def collect(self) -> None:
        for qualname, node in self.graph.function_asts.items():
            info = self.graph.functions.get(qualname)
            if info is None:
                continue
            self._collect_function(info, node)
            self._collect_allows(info, node)

    def _collect_function(self, info: FunctionInfo, node: ast.AST) -> None:
        effects: Set[str] = set()
        body = getattr(node, "body", [])
        for statement in body:
            self._walk(info, statement, effects)
        if effects:
            self.analysis.direct[info.qualname] = frozenset(effects)

    def _walk(self, info: FunctionInfo, node: ast.AST, effects: Set[str]) -> None:
        # nested defs are their own graph nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Call):
            self._classify_call(info, node, effects)
        for child in ast.iter_child_nodes(node):
            self._walk(info, child, effects)

    def _classify_call(
        self, info: FunctionInfo, call: ast.Call, effects: Set[str]
    ) -> None:
        func = call.func
        module_info = self.graph.modules.get(info.module)
        imports = module_info.imports if module_info is not None else {}
        name: Optional[str] = None
        dotted_parts: List[str] = []
        if isinstance(func, ast.Name):
            name = func.id
            bound = imports.get(name)
            if bound is not None and bound[0] == "symbol":
                dotted_parts = bound[1].split(".")
            else:
                dotted_parts = [name]
        elif isinstance(func, ast.Attribute):
            node: ast.expr = func
            while isinstance(node, ast.Attribute):
                dotted_parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                dotted_parts.append(node.id)
                dotted_parts.reverse()
                name = dotted_parts[-1]
            else:
                dotted_parts = []
                name = func.attr
        if name is None:
            return
        if len(dotted_parts) >= 2:
            # normalise module aliases: ``import time as t`` -> t.sleep
            bound = imports.get(dotted_parts[0])
            if bound is not None and bound[0] == "module":
                dotted_parts = bound[1].split(".") + dotted_parts[1:]
        detail = ".".join(dotted_parts) if dotted_parts else name

        def record(effect: str) -> None:
            effects.add(effect)
            self.analysis.sites.setdefault(
                (info.qualname, effect),
                EffectSite(info.qualname, effect, call.lineno, detail),
            )

        # blocking builtins (open/input) — bare names only
        if isinstance(func, ast.Name) and name in project.BLOCKING_BUILTINS_IN_ASYNC:
            if name not in imports:
                record(EFFECT_BLOCKING_IO)
            return
        if len(dotted_parts) >= 2:
            head, last = dotted_parts[-2], dotted_parts[-1]
            blocked = project.BLOCKING_CALLS_IN_ASYNC.get(head)
            if blocked is not None and last in blocked:
                record(EFFECT_BLOCKING_IO)
            clocks = project.WALL_CLOCK_CALLS.get(head)
            if clocks is not None and last in clocks:
                record(EFFECT_WALL_CLOCK)
            if head == "random" and last in project.GLOBAL_RNG_FUNCTIONS:
                record(EFFECT_UNSEEDED_RANDOM)
            if head == "os" and last == "fsync":
                record(EFFECT_FSYNC)

    # --------------------------------------------------------- allow parsing

    def _collect_allows(self, info: FunctionInfo, node: ast.AST) -> None:
        module_info = self.graph.modules.get(info.module)
        if module_info is None:
            return
        lines = module_info.source.splitlines()
        first_body = getattr(node, "body", None)
        body_lineno = (
            first_body[0].lineno if first_body else info.lineno + 1
        )
        candidates = range(max(info.lineno - 1, 1), body_lineno)
        allowed: Set[str] = set()
        for lineno in candidates:
            if lineno - 1 >= len(lines):
                continue
            match = _ALLOW_COMMENT.search(lines[lineno - 1])
            if match is None:
                continue
            for token in match.group(1).split(","):
                token = token.strip()
                if not token:
                    continue
                if token in PLAIN_EFFECTS:
                    allowed.add(token)
                else:
                    self.analysis.annotation_errors.append(
                        AnnotationError(info.path, lineno, token)
                    )
        if allowed:
            self.analysis.allows[info.qualname] = frozenset(allowed)


def _propagate(analysis: EffectAnalysis) -> None:
    """Worklist fixpoint: visible = (direct ∪ callees' visible) − allows."""
    graph = analysis.graph
    visible: Dict[str, Set[str]] = {}
    for qualname in graph.functions:
        base = set(analysis.direct.get(qualname, frozenset()))
        base -= analysis.allows.get(qualname, frozenset())
        visible[qualname] = base
    worklist = list(graph.functions)
    queued = set(worklist)
    while worklist:
        qualname = worklist.pop()
        queued.discard(qualname)
        combined = set(analysis.direct.get(qualname, frozenset()))
        for edge in graph.callees_of(qualname):
            combined |= visible.get(edge.callee, set())
        combined -= analysis.allows.get(qualname, frozenset())
        if combined != visible.get(qualname, set()):
            visible[qualname] = combined
            for edge in graph.callers_of(qualname):
                if edge.caller not in queued:
                    queued.add(edge.caller)
                    worklist.append(edge.caller)
    analysis.visible = {
        qualname: frozenset(effects) for qualname, effects in visible.items()
    }


def infer_effects(graph: CallGraph) -> EffectAnalysis:
    """Run direct extraction + the propagation fixpoint over ``graph``."""
    analysis = EffectAnalysis(graph=graph)
    _DirectEffectCollector(analysis).collect()
    _propagate(analysis)
    return analysis
