"""repro.analysis — static analysis of this repo's own invariants.

See ``docs/ANALYSIS.md``.  **The project linter**
(:mod:`repro.analysis.lint`, :mod:`repro.analysis.rules`) is an
AST-based pass encoding version-stamp discipline of the compiled
caches, the observability name registry, error logging in the serving
layers, deterministic core modules, non-blocking gateway handlers and
fork-safe shard modules.  Run it with ``python -m repro.analysis src/``,
``repro lint`` or ``make lint``; it exits non-zero on errors.  A false
positive is fixed in the rule or in :mod:`repro.analysis.project`.

On top of the per-file linter sits the **whole-program pass**
(``repro lint --deep``): :mod:`repro.analysis.callgraph` builds the
project call graph, :mod:`repro.analysis.effects` infers transitive
effect sets over it, and :mod:`repro.analysis.deep` runs the deep rules
(async-blocking-transitive, determinism-transitive, wire-taint), each
finding carrying a witness call chain.

Import the submodules directly; this package exports nothing itself.
"""
