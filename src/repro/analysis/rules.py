"""The per-file lint rules: this repo's own invariants.

Every rule is a small AST pass over one module that reads its
configuration from :mod:`repro.analysis.project` and encodes an
invariant that is otherwise only documented prose:

* ``version-stamp`` — mutators of version-stamped structures bump the
  stamp (``docs/PERFORMANCE.md``);
* ``cache-guard`` — stamp-keyed memo caches are revalidated at every
  public entry point;
* ``tracer-name`` — counter/span names are registered in
  :mod:`repro.observability.names`;
* ``silent-except`` — broad excepts in the serving/fault layer must log
  a counter or re-raise (``docs/RELIABILITY.md``);
* ``unseeded-random`` / ``wall-clock`` — no module reads the global RNG
  or the wall clock, so replay and the identity oracles stay exact;
* ``async-blocking-io`` — gateway ``async def`` bodies never block the
  event loop (``docs/GATEWAY.md``);
* ``fork-unsafe-state`` — modules imported into shard worker processes
  hold no import-time locks/RNGs/thread-locals (``docs/SHARDING.md``):
  build such state in a factory called after spawn, or own the process
  boundary with ``__getstate__``.

``unseeded-random``, ``wall-clock`` and ``async-blocking-io`` see a call
through every import form: ``t.time()`` after ``import time as t`` and
``sleep()`` after ``from time import sleep`` are the calls they name
(:func:`banned_call`).

A false positive is fixed in the rule or in ``project.py``, never
silenced at the call site.  See ``docs/ANALYSIS.md`` for the catalogue.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from . import project
from .findings import Finding, Severity


@dataclass
class ModuleInfo:
    """One parsed source file handed to every rule."""

    path: Path
    display: str
    tree: ast.Module

    @property
    def posix(self) -> str:
        return self.path.as_posix()

    def matches(self, suffix: str) -> bool:
        """Does this file's path end with (or contain) ``suffix``?"""
        if suffix.endswith("/"):
            return suffix in self.posix
        return self.posix.endswith(suffix)

    def in_any(self, suffixes: Sequence[str]) -> bool:
        return any(self.matches(suffix) for suffix in suffixes)


# ------------------------------------------------------------- AST helpers


def _receiver_root_attr(node: ast.expr) -> Optional[str]:
    """The ``X`` of a ``self.X[...].method`` chain, if rooted at self."""
    current = node
    while isinstance(current, ast.Subscript):
        current = current.value
    if isinstance(current, ast.Attribute) and isinstance(current.value, ast.Name):
        if current.value.id == "self":
            return current.attr
    return None


def _last_component(node: ast.expr) -> Optional[str]:
    """The final name of a dotted expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def import_bindings(tree: ast.Module) -> Dict[str, str]:
    """Each name the module's absolute imports bind, mapped to what it names.

    ``import time as t`` binds ``t`` to ``time``; ``from time import
    sleep as nap`` binds ``nap`` to ``time.sleep``; ``import os.path``
    binds ``os`` to ``os``.  Imports inside functions count too.
    """
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _dotted(node: ast.expr, bindings: Dict[str, str]) -> Optional[str]:
    """``a.b.c`` as a string, its root name replaced by what an import binds."""
    if isinstance(node, ast.Name):
        return bindings.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bindings)
        return None if base is None else f"{base}.{node.attr}"
    return None


def banned_call(
    func: ast.expr, bindings: Dict[str, str], banned: Mapping[str, FrozenSet[str]]
) -> Optional[str]:
    """``module.attr`` when a call names one of ``banned``'s functions.

    The call is seen through the module's imports: ``t.time()`` after
    ``import time as t`` and ``time()`` after ``from time import time``
    both name ``time.time``, and ``datetime.now()`` after ``from
    datetime import datetime`` names ``datetime.now``.  The module is the
    last component of the receiver, so ``self.clock.time()`` names
    ``clock.time``.  A bare name that no import binds names nothing.
    """
    if isinstance(func, ast.Name):
        target = bindings.get(func.id)
        if target is None or "." not in target:
            return None
        receiver, _, attr = target.rpartition(".")
    elif isinstance(func, ast.Attribute):
        receiver, attr = _dotted(func.value, bindings) or "", func.attr
    else:
        return None
    module = receiver.rpartition(".")[2]
    return f"{module}.{attr}" if attr in banned.get(module, ()) else None


_DOTTED_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: container methods that mutate their receiver in place
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


class Rule:
    """Base class: one lint pass over one module."""

    id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )


class VersionStampRule(Rule):
    id = "version-stamp"
    severity = Severity.ERROR
    summary = "mutator skips the version stamp"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for spec in project.VERSION_STAMPED_CLASSES:
            if not module.matches(spec.module_suffix):
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == spec.class_name:
                    yield from self._check_class(module, node, spec)

    def _check_class(
        self,
        module: ModuleInfo,
        class_node: ast.ClassDef,
        spec: "project.VersionStampedClass",
    ) -> Iterator[Finding]:
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or method.name in spec.touch_calls:
                continue
            mutation = self._first_mutation(method, spec.guarded_attrs)
            if mutation is None:
                continue
            if self._touches_stamp(method, spec):
                continue
            node, attr = mutation
            yield self.finding(
                module,
                node,
                f"{spec.class_name}.{method.name}() mutates version-stamped "
                f"`self.{attr}` without bumping the version stamp "
                f"(assign `self.version` or call one of "
                f"{sorted(spec.touch_calls) or ['self.version += 1']})",
            )

    def _first_mutation(
        self, method: ast.AST, guarded: FrozenSet[str]
    ) -> Optional[Tuple[ast.AST, str]]:
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    root = _receiver_root_attr(target)
                    if root in guarded:
                        # plain `self.attr = ...` rebinds are mutations too
                        return (node, root)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    root = _receiver_root_attr(target)
                    if root in guarded:
                        return (node, root)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATOR_METHODS:
                    root = _receiver_root_attr(node.func.value)
                    if root in guarded:
                        return (node, root)
        return None

    def _touches_stamp(
        self, method: ast.AST, spec: "project.VersionStampedClass"
    ) -> bool:
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in spec.touch_attrs
                    ):
                        return True
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                func = node.func
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in spec.touch_calls
                ):
                    return True
        return False


class CacheGuardRule(Rule):
    id = "cache-guard"
    severity = Severity.ERROR
    summary = "public entry point skips the stamp-guard call"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for spec in project.STAMP_GUARDED_CLASSES:
            if not module.matches(spec.module_suffix):
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == spec.class_name:
                    yield from self._check_class(module, node, spec)

    def _check_class(
        self,
        module: ModuleInfo,
        class_node: ast.ClassDef,
        spec: "project.StampGuardedClass",
    ) -> Iterator[Finding]:
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.startswith("_") or method.name in spec.exempt:
                continue
            if self._calls_guard(method, spec.guard_call):
                continue
            yield self.finding(
                module,
                method,
                f"{spec.class_name}.{method.name}() is a public entry point "
                f"but never calls self.{spec.guard_call}(); its stamp-keyed "
                "caches may serve stale results after a mutation",
            )

    def _calls_guard(self, method: ast.AST, guard: str) -> bool:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == guard
            ):
                return True
        return False


class TracerNameRule(Rule):
    id = "tracer-name"
    severity = Severity.ERROR
    summary = "counter/span name missing from the registry"

    _COUNTER_FUNCS = frozenset({"count", "_obs_count"})
    _SPAN_FUNCS = frozenset({"span", "_obs_span"})
    _HIST_FUNCS = frozenset({"observe", "_obs_observe"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        from ..observability.names import (
            COUNTER_NAMES,
            HISTOGRAM_NAMES,
            SPAN_NAMES,
        )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if isinstance(func, ast.Name):
                func_name = func.id
            elif isinstance(func, ast.Attribute):
                func_name = func.attr
            else:
                continue
            if func_name in self._COUNTER_FUNCS:
                kind, registry = "counter", COUNTER_NAMES
            elif func_name in self._SPAN_FUNCS:
                kind, registry = "span", SPAN_NAMES
            elif func_name in self._HIST_FUNCS:
                kind, registry = "histogram", HISTOGRAM_NAMES
            else:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(
                first.value, str
            ):
                continue  # dynamic names are out of static reach
            name = first.value
            if not _DOTTED_NAME.match(name):
                continue  # not a dotted instrumentation name (e.g. str.count)
            if name not in registry:
                yield self.finding(
                    module,
                    first,
                    f"{kind} name {name!r} is not registered in "
                    "repro.observability.names; register it (or fix the "
                    "drifted name)",
                )


class SilentExceptRule(Rule):
    id = "silent-except"
    severity = Severity.ERROR
    summary = "broad except swallows the error silently"

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, type_expr: Optional[ast.expr]) -> bool:
        if type_expr is None:
            return True  # bare except is the broadest catch of all
        elements = (
            list(type_expr.elts)
            if isinstance(type_expr, ast.Tuple)
            else [type_expr]
        )
        return any(_last_component(e) in self._BROAD for e in elements)

    def _accounts_for_error(self, handler: ast.ExceptHandler) -> bool:
        """Does the handler re-raise or log an observability counter?"""
        for statement in handler.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    name = _last_component(node.func)
                    if name in project.COUNTER_CALL_NAMES:
                        return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_any(project.SILENT_EXCEPT_MODULE_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._accounts_for_error(node):
                continue
            yield self.finding(
                module,
                node,
                "broad except swallows the error without logging a counter "
                "or re-raising; in the serving layer a silent failure turns "
                "into a wedged session with no trace — count it "
                "(repro.observability.count) or re-raise",
            )


class UnseededRandomRule(Rule):
    id = "unseeded-random"
    severity = Severity.ERROR
    summary = "global random calls break deterministic replay"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        bindings = import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in project.GLOBAL_RNG_FUNCTIONS:
                        yield self.finding(
                            module,
                            node,
                            f"`from random import {alias.name}` pulls in the "
                            "global RNG; use a seeded random.Random instance",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # a bare call through `from random import ...` is
                # reported at its import, above
                name = banned_call(node.func, bindings, _GLOBAL_RNG_CALLS)
                if name:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() uses the global unseeded RNG; thread a "
                        "seeded random.Random instance",
                    )


_GLOBAL_RNG_CALLS = {"random": project.GLOBAL_RNG_FUNCTIONS}


class WallClockRule(Rule):
    id = "wall-clock"
    severity = Severity.ERROR
    summary = "wall-clock read breaks deterministic replay"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        bindings = import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = banned_call(node.func, bindings, project.WALL_CLOCK_CALLS)
            if name:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the wall clock; take time as a "
                    "parameter (an injectable clock) so runs replay",
                )


class ForkUnsafeStateRule(Rule):
    id = "fork-unsafe-state"
    severity = Severity.ERROR
    summary = "import-time lock/RNG state breaks process shards"

    def _unsafe_factory(self, value: Optional[ast.expr]) -> Optional[str]:
        """The offending factory name, if ``value`` calls one."""
        if not isinstance(value, ast.Call):
            return None
        name = _last_component(value.func)
        if name in project.FORK_UNSAFE_FACTORIES:
            return name
        return None

    def _assigned_values(
        self, statements: Sequence[ast.stmt]
    ) -> Iterator[Tuple[ast.stmt, Optional[ast.expr]]]:
        for statement in statements:
            if isinstance(statement, ast.Assign):
                yield statement, statement.value
            elif isinstance(statement, ast.AnnAssign):
                yield statement, statement.value

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_any(project.SHARD_IMPORTED_MODULE_PREFIXES):
            return
        for statement, value in self._assigned_values(module.tree.body):
            factory = self._unsafe_factory(value)
            if factory:
                yield self.finding(
                    module,
                    statement,
                    f"module-level {factory}() runs at import time in a "
                    "shard-imported module: a fork child inherits it in the "
                    "parent's state, a spawn child silently gets a fresh "
                    "one, and objects carrying it stop pickling — create "
                    "it in a factory called after the worker process starts",
                )
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if methods & project.FORK_STATE_EXEMPTING_METHODS:
                continue  # the class owns its process-boundary story
            for statement, value in self._assigned_values(node.body):
                factory = self._unsafe_factory(value)
                if factory:
                    yield self.finding(
                        module,
                        statement,
                        f"class-level {factory}() is created at import time "
                        "and shared by every instance; in a shard-imported "
                        "module either move it into __init__ (per-instance, "
                        "post-spawn) or define __getstate__ so the class "
                        "owns what crosses the process boundary",
                    )


class AsyncBlockingRule(Rule):
    id = "async-blocking-io"
    severity = Severity.ERROR
    summary = "blocking call inside async def stalls the event loop"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_any(project.ASYNC_MODULE_PREFIXES):
            return
        bindings = import_bindings(module.tree)
        reported: Set[int] = set()
        for outer in ast.walk(module.tree):
            if not isinstance(outer, ast.AsyncFunctionDef):
                continue
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call) or id(node) in reported:
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id not in bindings
                    and func.id in project.BLOCKING_BUILTINS_IN_ASYNC
                ):
                    reported.add(id(node))
                    yield self.finding(
                        module,
                        node,
                        f"{func.id}() blocks the event loop inside an async "
                        "def; every connected client stalls behind it — use "
                        "the asyncio equivalent or run_in_executor",
                    )
                    continue
                name = banned_call(
                    func, bindings, project.BLOCKING_CALLS_IN_ASYNC
                )
                if not name:
                    continue
                reported.add(id(node))
                yield self.finding(
                    module,
                    node,
                    f"{name}() blocks the event loop inside "
                    "an async def; every connected client stalls behind "
                    "it — use the asyncio equivalent (e.g. "
                    "asyncio.sleep, loop.run_in_executor)",
                )


# -------------------------------------------------------------- the registry

ALL_RULES: Tuple[Rule, ...] = (
    VersionStampRule(),
    CacheGuardRule(),
    TracerNameRule(),
    SilentExceptRule(),
    UnseededRandomRule(),
    WallClockRule(),
    ForkUnsafeStateRule(),
    AsyncBlockingRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
