"""The whole-program ("deep") rules: ``repro lint --deep``.

Where :mod:`repro.analysis.rules` inspects one function at a time, the
three rules here run over the project call graph
(:mod:`repro.analysis.callgraph`) and the inferred effect sets
(:mod:`repro.analysis.effects`), so they see violations that are only
visible across call boundaries.  **Every finding carries a witness call
chain** — the shortest ``entry -> ... -> offending call`` path the
analysis found — so a report is a debugging head start, not a puzzle.

``async-blocking-transitive``
    No ``blocking-io`` (or ``fsync``) effect may be *reachable* from an
    ``async def`` in the gateway.  The local ``async-blocking-io`` rule
    already flags direct calls; this one follows the call graph, so a
    ``time.sleep`` two helpers below ``_handle_connection`` still
    surfaces.  Chains of length one are left to the local rule.

``determinism-transitive``
    No ``wall-clock`` or ``unseeded-random`` effect may be reachable
    from the public entry points of the mining / lattice / crowd core
    (``DEEP_DETERMINISM_ENTRY_PREFIXES``): the replay and serial-MSP
    identity oracles re-execute these and compare outputs bit-for-bit.

``wire-taint``
    Raw wire payloads (``request.json()`` results, MCP
    ``message``/``params``/``arguments`` dicts) must pass through a
    ``repro.gateway.schema`` decode (``*.from_wire``) or an explicit
    scalar validation (``isinstance`` / ``int()``/``float()``/``str()``)
    before reaching ``GatewayApp`` / ``SessionManager`` methods.
    Intra-procedural, per transport function, with the taint's
    source-to-sink path in the message.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import ast

from . import project
from .callgraph import MODULE_BODY, CallEdge, FunctionInfo, build_callgraph
from .effects import (
    EFFECT_BLOCKING_IO,
    EFFECT_FSYNC,
    EFFECT_UNSEEDED_RANDOM,
    EFFECT_WALL_CLOCK,
    PLAIN_EFFECTS,
    EffectAnalysis,
    infer_effects,
)
from .findings import Finding, Severity

RULE_ASYNC_BLOCKING = "async-blocking-transitive"
RULE_DETERMINISM = "determinism-transitive"
RULE_WIRE_TAINT = "wire-taint"
RULE_ANNOTATION = "effect-annotation"


@dataclass(frozen=True)
class DeepRule:
    """Catalogue row for ``--list-rules`` (the logic lives below)."""

    id: str
    severity: Severity
    summary: str


DEEP_RULES: Tuple[DeepRule, ...] = (
    DeepRule(
        RULE_ASYNC_BLOCKING,
        Severity.ERROR,
        "no blocking-io/fsync effect reachable from gateway async handlers",
    ),
    DeepRule(
        RULE_DETERMINISM,
        Severity.ERROR,
        "no wall-clock/unseeded-random reachable from mining/lattice/crowd "
        "core entry points",
    ),
    DeepRule(
        RULE_WIRE_TAINT,
        Severity.ERROR,
        "raw HTTP/MCP payloads must pass schema decode before GatewayApp/"
        "SessionManager",
    ),
    DeepRule(
        RULE_ANNOTATION,
        Severity.ERROR,
        "a '# repro-effects: allow=' annotation names an unknown effect",
    ),
)


def _path_matches(path: str, prefix: str) -> bool:
    """Same semantics as ModuleInfo.matches: trailing '/' means contains."""
    posix = path.replace("\\", "/")
    if prefix.endswith("/"):
        return f"/{prefix}" in f"/{posix}"
    return posix == prefix or posix.endswith(f"/{prefix}")


def _in_any(path: str, prefixes: Sequence[str]) -> bool:
    return any(_path_matches(path, prefix) for prefix in prefixes)


@dataclass
class DeepResult:
    """Everything one deep run produced."""

    findings: List[Finding] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


def discover_package_root(paths: Sequence[str]) -> Optional[Path]:
    """The ``repro`` package directory implied by the lint paths.

    ``src`` / ``src/repro`` / any path inside them all resolve to the
    same package root; for fixture trees, a directory that *is* a
    package (has ``__init__.py``) is accepted as-is.
    """
    candidates: List[Path] = []
    for raw in paths:
        path = Path(raw)
        candidates.append(path if path.is_dir() else path.parent)
    candidates.append(Path("src"))
    for candidate in candidates:
        probe = candidate
        for _ in range(6):
            if probe.name == "repro" and (probe / "__init__.py").is_file():
                return probe
            nested = probe / "repro"
            if (nested / "__init__.py").is_file():
                return nested
            srced = probe / "src" / "repro"
            if (srced / "__init__.py").is_file():
                return srced
            if probe.parent == probe:
                break
            probe = probe.parent
    for candidate in candidates:
        if (candidate / "__init__.py").is_file():
            return candidate
    return None


def analyze(root: Path) -> EffectAnalysis:
    """Build the call graph for ``root`` and run effect inference."""
    graph = build_callgraph(root)
    return infer_effects(graph)


# --------------------------------------------------------------- the rules


def _chain_or_fallback(
    analysis: EffectAnalysis, start: str, effect: str
) -> str:
    links = analysis.witness_chain(start, effect)
    if links is None:
        return f"(effect inherited through the call graph from {start})"
    return analysis.render_chain(links)


def _check_async_blocking(
    analysis: EffectAnalysis, findings: List[Finding]
) -> None:
    for info in analysis.graph.functions.values():
        if not info.is_async:
            continue
        if not _in_any(info.path, project.ASYNC_MODULE_PREFIXES):
            continue
        for effect in (EFFECT_BLOCKING_IO, EFFECT_FSYNC):
            if effect not in analysis.effects_of(info.qualname):
                continue
            links = analysis.witness_chain(info.qualname, effect)
            if links is not None and len(links) == 1:
                continue  # direct call: the local async-blocking-io rule owns it
            chain = (
                analysis.render_chain(links)
                if links is not None
                else f"(chain through unresolved edges from {info.qualname})"
            )
            findings.append(
                Finding(
                    path=info.path,
                    line=info.lineno,
                    col=0,
                    rule=RULE_ASYNC_BLOCKING,
                    severity=Severity.ERROR,
                    message=(
                        f"async handler reaches a {effect} call; "
                        f"witness: {chain}"
                    ),
                )
            )


def _check_determinism(
    analysis: EffectAnalysis, findings: List[Finding]
) -> None:
    local_prefixes = project.DETERMINISTIC_MODULE_PREFIXES
    for info in analysis.graph.functions.values():
        if info.name == MODULE_BODY or not info.is_public:
            continue
        if not _in_any(info.path, project.DEEP_DETERMINISM_ENTRY_PREFIXES):
            continue
        for effect in (EFFECT_WALL_CLOCK, EFFECT_UNSEEDED_RANDOM):
            if effect not in analysis.effects_of(info.qualname):
                continue
            links = analysis.witness_chain(info.qualname, effect)
            if (
                links is not None
                and len(links) == 1
                and _in_any(info.path, local_prefixes)
            ):
                continue  # direct call: the local determinism rules own it
            chain = (
                analysis.render_chain(links)
                if links is not None
                else f"(chain through unresolved edges from {info.qualname})"
            )
            findings.append(
                Finding(
                    path=info.path,
                    line=info.lineno,
                    col=0,
                    rule=RULE_DETERMINISM,
                    severity=Severity.ERROR,
                    message=(
                        f"replay entry point reaches a {effect} call; "
                        f"witness: {chain}"
                    ),
                )
            )


class _TaintWalker:
    """Intra-procedural wire-taint tracking for one transport function."""

    def __init__(
        self,
        analysis: EffectAnalysis,
        info: FunctionInfo,
        node: ast.AST,
        findings: List[Finding],
    ) -> None:
        self.analysis = analysis
        self.info = info
        self.node = node
        self.findings = findings
        #: name -> provenance ("request.json():376 -> payload:377")
        self.taint: Dict[str, str] = {}
        self.edges_by_line: Dict[int, List[CallEdge]] = {}
        for edge in analysis.graph.callees_of(info.qualname):
            self.edges_by_line.setdefault(edge.lineno, []).append(edge)

    def run(self) -> None:
        args = getattr(self.node, "args", None)
        if args is not None:
            names = [
                argument.arg
                for argument in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                )
            ]
            for name in names:
                if name in project.WIRE_TAINT_PARAM_NAMES:
                    self.taint[name] = f"wire parameter '{name}'"
        for statement in getattr(self.node, "body", []):
            self._walk(statement)

    # ------------------------------------------------------------ traversal

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are analyzed as their own functions
        if isinstance(node, ast.Assign):
            self._scan_expr(node.value)
            provenance = self._expr_taint(node.value)
            for target in node.targets:
                self._assign(target, provenance, node.lineno)
            return
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            self._scan_expr(node.value)
            self._assign(node.target, self._expr_taint(node.value), node.lineno)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child)
            else:
                self._walk(child)

    def _assign(
        self, target: ast.expr, provenance: Optional[str], lineno: int
    ) -> None:
        if not isinstance(target, ast.Name):
            return
        if provenance is None:
            self.taint.pop(target.id, None)
        else:
            self.taint[target.id] = f"{provenance} -> {target.id}:{lineno}"

    def _scan_expr(self, expr: ast.expr) -> None:
        """Find isinstance validations and sink calls anywhere in ``expr``."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "isinstance"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                # an isinstance check is the scalar validation contract
                self.taint.pop(node.args[0].id, None)
                continue
            self._check_sink(node)

    def _check_sink(self, call: ast.Call) -> None:
        sink = self._sink_target(call)
        if sink is None:
            return
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for position, argument in enumerate(arguments, start=1):
            provenance = self._expr_taint(argument)
            if provenance is None:
                continue
            self.findings.append(
                Finding(
                    path=self.info.path,
                    line=call.lineno,
                    col=call.col_offset,
                    rule=RULE_WIRE_TAINT,
                    severity=Severity.ERROR,
                    message=(
                        f"raw wire payload reaches {sink} (arg {position}) "
                        f"without a repro.gateway.schema decode; "
                        f"witness: {provenance} -> {sink}:{call.lineno}"
                    ),
                )
            )

    def _sink_target(self, call: ast.Call) -> Optional[str]:
        for edge in self.edges_by_line.get(call.lineno, []):
            callee = self.analysis.graph.functions.get(edge.callee)
            if callee is None or callee.class_name is None:
                continue
            class_short = callee.class_name.rsplit(".", 1)[-1]
            if class_short in project.WIRE_SINK_CLASSES:
                expected = callee.name
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr == expected:
                    return f"{class_short}.{callee.name}()"
                if isinstance(func, ast.Name) and func.id == expected:
                    return f"{class_short}.{callee.name}()"
        return None

    # ---------------------------------------------------------- taint logic

    def _expr_taint(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.taint.get(expr.id)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute):
                if func.attr in project.WIRE_DECODE_METHODS:
                    return None  # schema decode: clean by definition
                if func.attr == "json":
                    receiver = func.value
                    rendered = (
                        receiver.id
                        if isinstance(receiver, ast.Name)
                        else "<expr>"
                    )
                    return f"{rendered}.json():{expr.lineno}"
                if func.attr in ("get", "pop", "setdefault"):
                    return self._expr_taint(func.value)
            if isinstance(func, ast.Name):
                if func.id in ("int", "float", "str", "bool", "len"):
                    return None  # scalar coercion validates the value
                if func.id == "dict":
                    for keyword in expr.keywords:
                        provenance = self._expr_taint(keyword.value)
                        if provenance is not None:
                            return provenance
                    for argument in expr.args:
                        provenance = self._expr_taint(argument)
                        if provenance is not None:
                            return provenance
            return None
        if isinstance(expr, ast.Subscript):
            return self._expr_taint(expr.value)
        if isinstance(expr, ast.Attribute):
            return self._expr_taint(expr.value)
        if isinstance(expr, ast.Dict):
            for value in list(expr.values) + [
                key for key in expr.keys if key is not None
            ]:
                provenance = self._expr_taint(value)
                if provenance is not None:
                    return provenance
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                provenance = self._expr_taint(value)
                if provenance is not None:
                    return provenance
            return None
        if isinstance(expr, ast.IfExp):
            return self._expr_taint(expr.body) or self._expr_taint(expr.orelse)
        if isinstance(expr, (ast.Await, ast.Starred)):
            return self._expr_taint(expr.value)
        return None


def _check_wire_taint(
    analysis: EffectAnalysis, findings: List[Finding]
) -> None:
    for qualname, node in analysis.graph.function_asts.items():
        info = analysis.graph.functions.get(qualname)
        if info is None or info.name == MODULE_BODY:
            continue
        if not _in_any(info.path, project.WIRE_TAINT_MODULES):
            continue
        _TaintWalker(analysis, info, node, findings).run()


def _check_annotations(
    analysis: EffectAnalysis, findings: List[Finding]
) -> None:
    for error in analysis.annotation_errors:
        findings.append(
            Finding(
                path=error.path,
                line=error.lineno,
                col=0,
                rule=RULE_ANNOTATION,
                severity=Severity.ERROR,
                message=(
                    f"unknown effect '{error.token}' in a "
                    "'# repro-effects: allow=' annotation (known: "
                    f"{', '.join(sorted(PLAIN_EFFECTS))})"
                ),
            )
        )


# ------------------------------------------------------------------ driver


def run_deep(paths: Sequence[str]) -> DeepResult:
    """Run the deep rules for the package implied by ``paths``."""
    root = discover_package_root(paths)
    if root is None:
        raise FileNotFoundError(
            "cannot locate a package root (looked for repro/__init__.py "
            f"near {list(paths)!r})"
        )
    analysis = analyze(root)
    findings: List[Finding] = []
    _check_async_blocking(analysis, findings)
    _check_determinism(analysis, findings)
    _check_wire_taint(analysis, findings)
    _check_annotations(analysis, findings)
    findings.sort()
    return DeepResult(
        findings=findings,
        stats={
            "functions": len(analysis.graph.functions),
            "edges": len(analysis.graph.edges),
            "unresolved": len(analysis.graph.unresolved),
        },
    )


# ----------------------------------------------------------------- explain


def explain_function(
    paths: Sequence[str], needle: str, stream: TextIO = sys.stdout
) -> int:
    """``repro lint --explain FUNC``: effects + witness chains for FUNC."""
    root = discover_package_root(paths)
    if root is None:
        print("cannot locate a package root", file=sys.stderr)
        return 2
    analysis = analyze(root)
    matches = analysis.graph.find(needle)
    if not matches:
        print(f"no function matches {needle!r}", file=sys.stderr)
        return 2
    for info in matches:
        stream.write(f"{info.qualname}  ({info.path}:{info.lineno})\n")
        direct = sorted(analysis.direct_of(info.qualname))
        visible = sorted(analysis.effects_of(info.qualname))
        allows = sorted(analysis.allows.get(info.qualname, frozenset()))
        stream.write(f"  direct effects:  {', '.join(direct) or '(none)'}\n")
        stream.write(f"  visible effects: {', '.join(visible) or '(none)'}\n")
        if allows:
            stream.write(f"  allowed (masked): {', '.join(allows)}\n")
        for effect in visible:
            links = analysis.witness_chain(info.qualname, effect)
            if links is not None:
                stream.write(
                    f"    {effect}: {analysis.render_chain(links)}\n"
                )
        callers = analysis.graph.callers_of(info.qualname)
        if callers:
            names = sorted({edge.caller for edge in callers})
            preview = ", ".join(names[:6])
            if len(names) > 6:
                preview += f", ... ({len(names)} total)"
            stream.write(f"  called by: {preview}\n")
        unresolved = [
            entry
            for entry in analysis.graph.unresolved
            if entry.caller == info.qualname
        ]
        for entry in unresolved:
            stream.write(
                f"  unresolved call: {entry.target} at line "
                f"{entry.lineno} ({entry.reason})\n"
            )
        stream.write("\n")
    return 0
