#!/usr/bin/env python
"""Machine-readable performance report for the bitset/TID-index hot paths.

Two sections, emitted as one JSON document (``BENCH_perf.json``):

* ``closure`` — ``leq`` via the compiled bitset closures vs. the retained
  DFS reference, on a paper-scale (≥4,000-node) random taxonomy;
* ``support`` — support counting via the TID-bitset index
  (:mod:`repro.crowd.tid_index`) vs. the per-transaction scan
  (:meth:`PersonalDatabase.support_reference`), same taxonomy scale.
  Both paths must agree on every query of the workload.

End-to-end identity of the two support paths (whole mining runs that
ask the same questions and find the same MSPs) is a tier-1 test:
``tests/test_bitset_equivalence.py::TestMiningEquivalence``.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py                # full
    PYTHONPATH=src python benchmarks/bench_report.py --quick        # CI-size
    PYTHONPATH=src python benchmarks/bench_report.py --validate BENCH_perf.json

``--validate`` re-checks an existing report against the JSON schema and the
acceptance thresholds (≥5× support speedup at ≥4,000 nodes, no support
mismatch) without re-running anything.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    # allow `python benchmarks/bench_report.py` without PYTHONPATH fiddling
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.crowd.personal_db import PersonalDatabase
from repro.observability import atomic_write_json, tracing
from repro.ontology.facts import Fact, FactSet
from repro.synth.taxonomy import random_vocabulary
from repro.vocabulary.terms import ANY_ELEMENT

SCHEMA_VERSION = 3

#: acceptance thresholds (mirrored in --validate)
MIN_DAG_NODES = 4000
MIN_SUPPORT_SPEEDUP = 5.0


def _best_of(repeats, fn):
    """Minimum wall time of ``repeats`` calls (classic micro-bench hygiene)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def _workload(rng, vocabulary, transactions, facts_per_tx, queries, max_facts):
    """A random personal DB plus a distinct-query workload over it."""
    elements = sorted(vocabulary.elements, key=lambda e: e.name)
    relations = sorted(vocabulary.relations, key=lambda r: r.name)
    fact_sets = []
    for _ in range(transactions):
        facts = [
            Fact(rng.choice(elements), rng.choice(relations), rng.choice(elements))
            for _ in range(rng.randint(2, facts_per_tx))
        ]
        fact_sets.append(FactSet(facts))
    db = PersonalDatabase.from_fact_sets(fact_sets)
    workload = []
    for _ in range(queries):
        facts = []
        for _ in range(rng.randint(1, max_facts)):
            subject = rng.choice(elements + [ANY_ELEMENT])
            facts.append(Fact(subject, rng.choice(relations), rng.choice(elements)))
        workload.append(FactSet(facts))
    return db, workload


def bench_closure(node_count, pairs, repeats, seed):
    """``leq`` bitset vs. DFS reference on a paper-scale taxonomy."""
    rng = random.Random(seed)
    build_start = time.perf_counter()
    vocabulary = random_vocabulary(element_count=node_count, depth=6, seed=seed)
    build_seconds = time.perf_counter() - build_start
    order = vocabulary.element_order

    compile_start = time.perf_counter()
    order.leq(next(iter(order.terms())), next(iter(order.terms())))
    compile_seconds = time.perf_counter() - compile_start

    terms = sorted(order.terms())
    sample = [(rng.choice(terms), rng.choice(terms)) for _ in range(pairs)]

    def run_bitset():
        for a, b in sample:
            order.leq(a, b)

    def run_reference():
        for a, b in sample:
            order.leq_reference(a, b)

    bitset_seconds = _best_of(repeats, run_bitset)
    reference_seconds = _best_of(max(1, repeats // 2), run_reference)
    return {
        "node_count": len(order),
        "build_seconds": round(build_seconds, 6),
        "compile_seconds": round(compile_seconds, 6),
        "leq_pairs": pairs,
        "bitset_seconds": round(bitset_seconds, 6),
        "reference_seconds": round(reference_seconds, 6),
        "speedup": round(reference_seconds / max(bitset_seconds, 1e-9), 2),
    }


def bench_support(node_count, transactions, queries, repeats, seed):
    """Support counting: TID-bitset index vs. per-transaction scan."""
    rng = random.Random(seed)
    vocabulary = random_vocabulary(element_count=node_count, depth=6, seed=seed)
    db, workload = _workload(
        rng,
        vocabulary,
        transactions=transactions,
        facts_per_tx=8,
        queries=queries,
        max_facts=3,
    )

    def run_optimized():
        db._hits_cache.clear()  # measure index work, not the memo
        for query in workload:
            db.support(query, vocabulary)

    def run_reference():
        for query in workload:
            db.support_reference(query, vocabulary)

    with tracing() as tracer:
        db.tid_index(vocabulary)  # build outside the timed region
        optimized_seconds = _best_of(repeats, run_optimized)
    reference_seconds = _best_of(max(1, repeats // 2), run_reference)

    # both paths must agree on the whole workload
    mismatches = sum(
        1
        for query in workload
        if db.support(query, vocabulary) != db.support_reference(query, vocabulary)
    )
    counters = tracer.report().get("counters", {})
    return {
        "node_count": len(vocabulary.element_order),
        "transactions": transactions,
        "queries": queries,
        "optimized_seconds": round(optimized_seconds, 6),
        "reference_seconds": round(reference_seconds, 6),
        "speedup": round(reference_seconds / max(optimized_seconds, 1e-9), 2),
        "mismatches": mismatches,
        "index_counters": {
            k: v for k, v in counters.items() if k.startswith("tid_index.")
        },
    }


# ------------------------------------------------------------------ schema


def validate_schema(report):
    """Raise ValueError when ``report`` violates the expected shape."""

    def need(mapping, key, kind, where):
        if key not in mapping:
            raise ValueError(f"{where}: missing key {key!r}")
        if not isinstance(mapping[key], kind):
            raise ValueError(
                f"{where}.{key}: expected {kind}, got {type(mapping[key]).__name__}"
            )
        return mapping[key]

    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    if need(report, "schema_version", int, "report") != SCHEMA_VERSION:
        raise ValueError(f"unknown schema_version {report['schema_version']!r}")
    need(report, "mode", str, "report")
    need(report, "python", str, "report")
    for section in ("closure", "support"):
        block = need(report, section, dict, "report")
        for key in ("node_count", "speedup", "bitset_seconds", "reference_seconds") \
                if section == "closure" else \
                ("node_count", "speedup", "optimized_seconds", "reference_seconds"):
            need(block, key, (int, float), section)


def check_thresholds(report):
    """Acceptance criteria; returns a list of failure strings."""
    failures = []
    support = report["support"]
    if support["node_count"] < MIN_DAG_NODES:
        failures.append(
            f"support bench ran at {support['node_count']} nodes "
            f"(need ≥{MIN_DAG_NODES})"
        )
    if support["speedup"] < MIN_SUPPORT_SPEEDUP:
        failures.append(
            f"support speedup {support['speedup']}× below the "
            f"{MIN_SUPPORT_SPEEDUP}× bar"
        )
    if support.get("mismatches", 0):
        failures.append(f"{support['mismatches']} support value mismatches")
    return failures


# -------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workloads (seconds, not minutes)"
    )
    parser.add_argument(
        "--output", default=None, help="where to write the JSON report"
    )
    parser.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing report instead of benchmarking",
    )
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)

    if args.validate:
        report = json.loads(Path(args.validate).read_text())
        validate_schema(report)
        failures = check_thresholds(report)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema + thresholds OK")
        return 0

    if args.quick:
        node_count, pairs, repeats = 4200, 2000, 2
        transactions, queries = 40, 60
    else:
        node_count, pairs, repeats = 4700, 5000, 3
        transactions, queries = 60, 120

    print(f"closure bench: {node_count}-node taxonomy, {pairs} leq pairs ...")
    closure = bench_closure(node_count, pairs, repeats, args.seed)
    print(
        f"  bitset {closure['bitset_seconds']}s vs reference "
        f"{closure['reference_seconds']}s -> {closure['speedup']}x"
    )
    print(f"support bench: {transactions} transactions, {queries} queries ...")
    support = bench_support(node_count, transactions, queries, repeats, args.seed)
    print(
        f"  tid-index {support['optimized_seconds']}s vs scan "
        f"{support['reference_seconds']}s -> {support['speedup']}x"
    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "seed": args.seed,
        "closure": closure,
        "support": support,
    }
    validate_schema(report)

    output = args.output or (
        "BENCH_quick.json" if args.quick else "BENCH_perf.json"
    )
    atomic_write_json(output, report)
    print(f"wrote {output}")

    failures = check_thresholds(report)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
