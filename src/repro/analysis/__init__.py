"""repro.analysis — static analysis of this repo's own invariants.

See ``docs/ANALYSIS.md``.  **The project linter**
(:mod:`repro.analysis.lint`, :mod:`repro.analysis.rules`) is an
AST-based pass encoding version-stamp discipline of the compiled
caches, the observability name registry, error logging in the serving
layers, deterministic core modules, plus the usual hygiene rules.  Run it with
``python -m repro.analysis src/``, ``repro lint`` or ``make lint``; it
exits non-zero on errors and honors ``# repro-lint: disable=RULE``
suppressions.

On top of the per-file linter sits the **whole-program pass**
(``repro lint --deep``): :mod:`repro.analysis.callgraph` builds the
project call graph, :mod:`repro.analysis.effects` infers transitive
effect sets over it, and :mod:`repro.analysis.deep` runs the deep rules
(async-blocking-transitive, determinism-transitive, wire-taint), each
finding carrying a witness call chain.

The package ``__init__`` stays import-light: the lint and deep drivers
are loaded lazily on first attribute access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import CallGraph
    from .deep import DeepResult
    from .effects import EffectAnalysis
    from .lint import LintResult

__all__ = [
    "CallGraph",
    "DeepResult",
    "EffectAnalysis",
    "Finding",
    "LintResult",
    "Severity",
    "build_callgraph",
    "infer_effects",
    "main",
    "run_deep",
    "run_lint",
]

_LAZY_LINT_EXPORTS = frozenset({"LintResult", "main", "run_lint"})
_LAZY_DEEP_EXPORTS = {
    "CallGraph": "callgraph",
    "build_callgraph": "callgraph",
    "EffectAnalysis": "effects",
    "infer_effects": "effects",
    "DeepResult": "deep",
    "run_deep": "deep",
}


def __getattr__(name: str) -> Any:
    """Lazily expose the lint/deep drivers without importing them eagerly."""
    if name in _LAZY_LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    if name in _LAZY_DEEP_EXPORTS:
        import importlib

        module = importlib.import_module(
            f".{_LAZY_DEEP_EXPORTS[name]}", __name__
        )
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(__all__)
