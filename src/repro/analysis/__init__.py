"""repro.analysis — static analysis of this repo's own invariants.

See ``docs/ANALYSIS.md``.  **The project linter**
(:mod:`repro.analysis.lint`, :mod:`repro.analysis.rules`) is an
AST-based pass encoding version-stamp discipline of the compiled
caches, the observability name registry, error logging in the serving
layers, no wall-clock or global-RNG reads, non-blocking gateway
handlers and fork-safe shard modules.  Run it with ``python -m
repro.analysis src/``, ``repro lint`` or ``make lint``; it exits
non-zero on errors.  A false positive is fixed in the rule or in
:mod:`repro.analysis.project`.

Import the submodules directly; this package exports nothing itself.
"""
