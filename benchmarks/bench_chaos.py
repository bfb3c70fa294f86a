#!/usr/bin/env python
"""Chaos report: break every serving layer, measure recovery.

Runs :func:`repro.faults.chaos.run_chaos_campaign` — the five scenarios
of :data:`repro.faults.chaos.SCENARIOS` per seed — over seeds × domains
and emits one JSON document (``BENCH_chaos.json``) with three gates:

* **invariants** — every scenario of every run is ``ok``: sessions
  settle, MSP sets are identical to an uninterrupted serial
  ``engine.execute``, no acknowledged answer is lost, re-asked or
  applied twice, and each kill or crash actually hit something;
* **exactly-once** — zero re-asks of acknowledged answers and zero
  double-charged session-cache entries across the ``gateway`` and
  ``client`` scenarios (the idempotency-key + journal-resume guarantee,
  audited end to end);
* **MTTR** — each component that goes down (gateway, shard,
  coordinator) must have recorded a time-to-recover sample, and the
  supervisor's shard-restart p95 must stay under
  ``MAX_SUPERVISOR_RESTART_P95_SECONDS``.  The gateway sample times the
  journal restore of a fresh ``GatewayApp``.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py                 # full
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick         # CI-size
    PYTHONPATH=src python benchmarks/bench_chaos.py --validate BENCH_chaos.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

if __package__ in (None, ""):
    # allow `python benchmarks/bench_chaos.py` without PYTHONPATH fiddling
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faults.chaos import SCENARIOS, run_chaos_campaign, summarize_runs
from repro.observability import atomic_write_json

SCHEMA_VERSION = 2

#: the supervisor must bring a killed shard back within this p95 budget
MAX_SUPERVISOR_RESTART_P95_SECONDS = 1.0

#: (seeds, domains) per mode
FULL_SWEEP = ((0, 1, 2), ("demo", "travel"))
QUICK_SWEEP = ((0,), ("demo",))

#: components whose kill must produce an MTTR sample (member and
#: client faults never take a component down, so no MTTR is expected)
KILLED_COMPONENTS = ("gateway", "shard", "coordinator")


def build_report(quick: bool) -> dict:
    seeds, domains = QUICK_SWEEP if quick else FULL_SWEEP
    runs = [
        run
        for domain in domains
        for run in run_chaos_campaign(seeds, domain=domain)["runs"]
    ]
    summary = summarize_runs(runs)
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "chaos",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seeds": list(seeds),
        "domains": list(domains),
        "runs": runs,
        "all_ok": summary["ok"],
        "violations": [v for run in runs for v in run["violations"]],
        "mttr": summary["mttr"],
        "supervisor_restart_p95_seconds": summary[
            "supervisor_restart_p95_seconds"
        ],
        "supervisor_restart_p95_budget_seconds": (
            MAX_SUPERVISOR_RESTART_P95_SECONDS
        ),
        "total_reasks": sum(
            run["scenarios"][name]["reasks"]
            for run in runs
            for name in ("gateway", "client")
        ),
        "total_double_charges": sum(
            run["scenarios"][name]["double_charges"]
            for run in runs
            for name in ("gateway", "client")
        ),
    }


def validate(report: dict) -> list:
    """Schema and acceptance checks; returns a list of problems."""
    problems = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version != {SCHEMA_VERSION}")
    runs = report.get("runs", [])
    if not runs:
        problems.append("no chaos runs in the report")
    if not report.get("quick"):
        domains = {run.get("domain") for run in runs}
        if not {"demo", "travel"} <= domains:
            problems.append(
                f"campaigns must cover demo and travel, got {sorted(domains)}"
            )
        if len({run.get("seed") for run in runs}) < 3:
            problems.append("full report must cover at least 3 seeds")
    for run in runs:
        tag = f"{run.get('domain')}/seed{run.get('seed')}"
        if not run.get("ok"):
            problems.append(f"{tag}: {run.get('violations')}")
        scenarios = run.get("scenarios", {})
        if set(scenarios) != set(SCENARIOS):
            problems.append(
                f"{tag}: scenarios {sorted(scenarios)} != {sorted(SCENARIOS)}"
            )
    if not report.get("all_ok"):
        problems.append("all_ok is false")
    if report.get("total_reasks", 0) != 0:
        problems.append(f"{report['total_reasks']} acknowledged answers re-asked")
    if report.get("total_double_charges", 0) != 0:
        problems.append(
            f"{report['total_double_charges']} answers double-charged"
        )
    mttr = report.get("mttr", {})
    for component in KILLED_COMPONENTS:
        stats = mttr.get(component)
        if not isinstance(stats, dict) or stats.get("incidents", 0) < 1:
            problems.append(f"no MTTR samples recorded for {component}")
    budget = report.get(
        "supervisor_restart_p95_budget_seconds",
        MAX_SUPERVISOR_RESTART_P95_SECONDS,
    )
    p95 = report.get("supervisor_restart_p95_seconds")
    if not isinstance(p95, (int, float)) or p95 > budget:
        problems.append(
            f"supervisor restart p95 {p95}s exceeds the {budget}s budget"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="one seed, one domain (CI-size)")
    parser.add_argument("--output", default="BENCH_chaos.json")
    parser.add_argument("--validate", metavar="PATH",
                        help="re-check an existing report; no runs")
    args = parser.parse_args(argv)

    if args.validate:
        report = json.loads(Path(args.validate).read_text(encoding="utf-8"))
        problems = validate(report)
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        print(f"{args.validate}: {'FAIL' if problems else 'ok'}")
        return 1 if problems else 0

    report = build_report(args.quick)
    atomic_write_json(args.output, report)
    for run in report["runs"]:
        mttrs = " ".join(
            f"{name}={run['mttr_seconds'][name]}s"
            for name in KILLED_COMPONENTS
        )
        print(
            f"{run['domain']:7} seed {run['seed']}: "
            f"ok={run['ok']}  mttr {mttrs}"
        )
    print(
        f"supervisor restart p95 {report['supervisor_restart_p95_seconds']}s "
        f"(budget {report['supervisor_restart_p95_budget_seconds']}s); "
        f"reasks={report['total_reasks']} "
        f"double_charges={report['total_double_charges']}"
    )
    print(f"wrote {args.output}")
    problems = validate(report)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
