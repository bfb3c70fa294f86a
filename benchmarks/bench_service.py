#!/usr/bin/env python
"""Throughput report for the concurrent crowd-serving layer.

Schema v3 covers both serving backends:

* **in-process** — one :func:`repro.service.run_simulation` row
  (sessions of one domain, shared crowd, injected drops and
  departures) served by the single-threaded loop on a virtual clock.
  The row carries the timeout-churn regression fields: with scaled
  deadlines every reaped question should be an *injected* drop, so
  ``excess_timeout_ratio = max(0, timeouts - dispatched // drop_every)
  / answered`` must stay ~0;
* **process-sharded mode** — :func:`repro.service.shard.
  run_sharded_simulation` across shard counts 1, 2 and 4 on a
  large-crowd campaign (100k members in full mode), with a per-shard-
  count efficiency table and a **core-aware scaling gate**: on a runner
  with >= 4 effective cores the 4-shard run must reach >= 2.5x the
  1-shard questions/s; on smaller runners the gate reports
  ``applicable: false`` with the reason instead of lying about scaling
  physics;
* **chaos** — one kill-one-shard -> supervised WAL-restore ->
  identical-MSP run (the ``shard`` scenario of
  :func:`repro.faults.run_scenario`), gated on ``ok``.

Every configuration's MSP set must equal the serial ``engine.execute``
run of the same query (the serving layers must be observationally
invisible to the mining semantics).  Any divergence, timeout,
unfinished session, excess churn or failed chaos run makes the process
exit non-zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py                 # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick         # <60s
    PYTHONPATH=src python benchmarks/bench_service.py --validate BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    # allow `python benchmarks/bench_service.py` without PYTHONPATH fiddling
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.observability import atomic_write_json, derive_service, tracing
from repro.service import run_simulation

SCHEMA_VERSION = 3

SHARD_COUNTS = (1, 2, 4)

#: every member ignores every n-th question in the in-process row
DROP_EVERY = 5
#: ceiling on timeouts beyond the injected drops, per answered question
MAX_EXCESS_TIMEOUT_RATIO = 0.02
#: the 4-shard speedup floor, enforced only on >= 4 effective cores
MIN_SPEEDUP_AT_4_SHARDS = 2.5


def effective_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_config(*, sessions: int, domain: str, seed: int) -> dict:
    """One in-process simulation; returns a report row."""
    with tracing() as tracer:
        started = time.perf_counter()
        report = run_simulation(
            domain=domain,
            sessions=sessions,
            crowd_size=6,
            sample_size=3,
            drop_every=DROP_EVERY,
            departures=1,
            question_timeout=0.2,
            max_runtime=240.0,
            verify=True,
            seed=seed,
        )
        elapsed = time.perf_counter() - started
    states = [info["state"] for info in report["sessions"].values()]
    service = derive_service(tracer.report()["counters"]) or {}
    questions = service.get("questions", {})
    answered = questions.get("answered", 0)
    injected = questions.get("dispatched", 0) // DROP_EVERY
    excess = max(0, questions.get("timeouts", 0) - injected)
    return {
        "elapsed_seconds": round(elapsed, 4),
        "virtual_seconds": round(report["virtual_seconds"], 4),
        "sessions": sessions,
        "sessions_completed": states.count("completed"),
        "sessions_per_second": round(report["sessions_per_second"], 4),
        "questions_answered": report["questions_answered"],
        "questions_per_second": round(report["questions_per_second"], 2),
        "timed_out": report["timed_out"],
        "msps_identical_to_serial": report["verified"],
        "mismatches": report["mismatches"],
        "service_counters": service,
        "timeout_churn": {
            "timeouts": questions.get("timeouts", 0),
            "injected_drops": injected,
            "excess_timeouts": excess,
            "excess_timeout_ratio": round(excess / answered, 4) if answered else 0.0,
        },
    }


def run_shard_config(
    shards: int,
    *,
    sessions: int,
    domain: str,
    crowd_size: int,
    sample_size: int,
    verify_crowd_size: int,
    seed: int,
) -> dict:
    """One process-sharded simulation; returns a report row.

    ``questions_per_second`` covers the serve phase only (fleet spawn
    and per-shard member construction excluded) — that is the quantity
    the scaling gate is about.
    """
    from repro.service.shard import run_sharded_simulation

    report = run_sharded_simulation(
        domain=domain,
        shards=shards,
        sessions=sessions,
        crowd_size=crowd_size,
        sample_size=sample_size,
        max_runtime=600.0,
        verify=True,
        seed=seed,
        verify_crowd_size=verify_crowd_size,
    )
    states = [info["state"] for info in report["sessions"].values()]
    return {
        "shards": shards,
        "crowd_size": crowd_size,
        "sample_size": sample_size,
        "partition_sizes": report["partition_sizes"],
        "quotas": report["quotas"],
        "elapsed_seconds": report["elapsed_seconds"],
        "sessions": sessions,
        "sessions_completed": states.count("completed"),
        "questions_answered": report["questions_answered"],
        "questions_per_second": round(report["questions_per_second"], 2),
        "timed_out": report["timed_out"],
        "msps_identical_to_serial": report["verified"],
        "mismatches": report["mismatches"],
        "shard_stats": report["shard_stats"],
    }


def build_report(quick: bool, seed: int) -> dict:
    from repro.faults import run_scenario

    sessions = 4 if quick else 8
    in_process = run_config(sessions=sessions, domain="demo", seed=seed)

    shard_sessions = 4 if quick else 8
    shard_crowd = 1_000 if quick else 100_000
    shard_sample = 10 if quick else 25
    shard_rows = [
        run_shard_config(
            shards,
            sessions=shard_sessions,
            domain="demo",
            crowd_size=shard_crowd,
            sample_size=shard_sample,
            verify_crowd_size=4 * shard_sample,
            seed=seed,
        )
        for shards in SHARD_COUNTS
    ]
    base_qps = shard_rows[0]["questions_per_second"]
    efficiency = {}
    for row in shard_rows:
        speedup = (
            round(row["questions_per_second"] / base_qps, 3) if base_qps else None
        )
        efficiency[str(row["shards"])] = {
            "questions_per_second": row["questions_per_second"],
            "speedup_vs_1_shard": speedup,
            "efficiency": round(speedup / row["shards"], 3)
            if speedup is not None
            else None,
        }

    cores = effective_cores()
    if quick:
        scaling_gate = {
            "applicable": False,
            "reason": "quick mode runs a reduced campaign; scaling not gated",
            "effective_cores": cores,
        }
    elif cores < 4:
        scaling_gate = {
            "applicable": False,
            "reason": f"only {cores} effective core(s); "
            f"{MIN_SPEEDUP_AT_4_SHARDS}x at 4 shards needs >= 4",
            "effective_cores": cores,
        }
    else:
        scaling_gate = {
            "applicable": True,
            "effective_cores": cores,
            "min_speedup_at_4_shards": MIN_SPEEDUP_AT_4_SHARDS,
            "speedup_at_4_shards": efficiency["4"]["speedup_vs_1_shard"],
        }

    chaos = run_scenario("shard", seed=seed, max_runtime=120.0)

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "service",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "domain": "demo",
        "in_process": in_process,
        "shard_runs": shard_rows,
        "shard_efficiency": efficiency,
        "scaling_gate": scaling_gate,
        "chaos": chaos,
        "identity": {
            "all_msps_identical": all(
                r["msps_identical_to_serial"] for r in [in_process] + shard_rows
            ),
            "all_settled": all(
                not r["timed_out"] and r["sessions_completed"] == r["sessions"]
                for r in [in_process] + shard_rows
            ),
        },
    }


def validate(report: dict) -> list:
    """Schema and acceptance checks; returns a list of problems."""
    problems = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version != {SCHEMA_VERSION}")
    row = report.get("in_process", {})
    tag = "in-process"
    for field in (
        "elapsed_seconds",
        "sessions_per_second",
        "questions_per_second",
        "questions_answered",
    ):
        if not isinstance(row.get(field), (int, float)):
            problems.append(f"{tag}: missing numeric {field}")
    if row.get("timed_out"):
        problems.append(f"{tag}: simulation timed out")
    if not row.get("msps_identical_to_serial"):
        problems.append(f"{tag}: MSPs diverged from serial execution")
    if row.get("sessions_completed") != row.get("sessions"):
        problems.append(f"{tag}: not every session completed")
    churn = row.get("timeout_churn", {})
    ratio = churn.get("excess_timeout_ratio")
    if not isinstance(ratio, (int, float)):
        problems.append(f"{tag}: missing timeout_churn.excess_timeout_ratio")
    elif ratio > MAX_EXCESS_TIMEOUT_RATIO:
        problems.append(
            f"{tag}: excess timeout ratio {ratio} > {MAX_EXCESS_TIMEOUT_RATIO} "
            "(deadline scaling regression)"
        )
    shard_rows = report.get("shard_runs", [])
    if sorted(r.get("shards") for r in shard_rows) != sorted(SHARD_COUNTS):
        problems.append(f"expected shard runs at counts {SHARD_COUNTS}")
    for row in shard_rows:
        tag = f"shards={row.get('shards')}"
        for field in ("elapsed_seconds", "questions_per_second", "questions_answered"):
            if not isinstance(row.get(field), (int, float)):
                problems.append(f"{tag}: missing numeric {field}")
        if row.get("timed_out"):
            problems.append(f"{tag}: simulation timed out")
        if not row.get("msps_identical_to_serial"):
            problems.append(f"{tag}: MSPs diverged from serial execution")
        if row.get("sessions_completed") != row.get("sessions"):
            problems.append(f"{tag}: not every session completed")
    efficiency = report.get("shard_efficiency", {})
    for count in SHARD_COUNTS:
        if str(count) not in efficiency:
            problems.append(f"shard_efficiency missing entry for {count} shard(s)")
    gate = report.get("scaling_gate", {})
    if "applicable" not in gate:
        problems.append("scaling_gate.applicable missing")
    elif gate["applicable"]:
        speedup = gate.get("speedup_at_4_shards")
        floor = gate.get("min_speedup_at_4_shards", MIN_SPEEDUP_AT_4_SHARDS)
        if not isinstance(speedup, (int, float)) or speedup < floor:
            problems.append(
                f"scaling gate failed: speedup_at_4_shards={speedup} < {floor}"
            )
    elif not gate.get("reason"):
        problems.append("inapplicable scaling_gate must state a reason")
    chaos = report.get("chaos", {})
    if not chaos.get("ok"):
        problems.append(
            f"shard chaos run failed: {chaos.get('violations', ['missing'])}"
        )
    if not report.get("identity", {}).get("all_msps_identical"):
        problems.append("identity.all_msps_identical is false")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced campaign sizes (finishes in <60s)")
    parser.add_argument("--output", default="BENCH_service.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--validate", metavar="PATH",
                        help="re-check an existing report; no simulation runs")
    args = parser.parse_args(argv)

    if args.validate:
        report = json.loads(Path(args.validate).read_text(encoding="utf-8"))
        problems = validate(report)
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        print(f"{args.validate}: {'FAIL' if problems else 'ok'}")
        return 1 if problems else 0

    report = build_report(args.quick, args.seed)
    atomic_write_json(args.output, report)
    row = report["in_process"]
    print(
        f"in-process: {row['elapsed_seconds']:.2f}s "
        f"({row['virtual_seconds']:.1f} virtual), "
        f"{row['questions_per_second']:.0f} questions/s, "
        f"identical={row['msps_identical_to_serial']}, "
        f"excess_timeouts={row['timeout_churn']['excess_timeouts']}"
    )
    for row in report["shard_runs"]:
        print(
            f"shards={row['shards']}: {row['elapsed_seconds']:.2f}s serve, "
            f"{row['questions_per_second']:.0f} questions/s, "
            f"crowd={row['crowd_size']}, "
            f"identical={row['msps_identical_to_serial']}"
        )
    gate = report["scaling_gate"]
    if gate["applicable"]:
        print(
            f"scaling gate: {gate['speedup_at_4_shards']}x at 4 shards "
            f"(floor {gate['min_speedup_at_4_shards']}x)"
        )
    else:
        print(f"scaling gate: not applicable — {gate['reason']}")
    print(f"chaos: {'ok' if report['chaos']['ok'] else 'FAILED'}")
    print(f"wrote {args.output}")
    problems = validate(report)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
