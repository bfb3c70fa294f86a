"""The OASSIS benchmark: one command, four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py compare OLD NEW

A run prints its run record (``{"record": ...}``: machine, seeds, drift
probe, every metric with its unit and sample count) and then, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
the workload untraced and then traced, and reports the per-layer metrics.
``--workload all`` does both for every workload.  ``compare`` reads the
run records saved from two sets of runs and gives a verdict per metric.

Each measurement runs in a fresh interpreter (``workloads.py``) whose
``PYTHONHASHSEED`` is derived from the seed, so two runs of one seed ask
the same questions.  An untraced run times several set-ups, then one
interpreter executes every unit several times, and the statistics pool
the readings of every execution, each scaled to the reference speed.  The exit code is 0 only when
every output passed its oracle.  See ``README.md`` for the workloads and
metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from probe import machine_probe, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("travel-batch", "paper-dag", "gateway-travel", "shard-travel")
#: set-up-only interpreters per untraced run, besides the measuring one
SETUP_REPEATS = 3
#: a run must end within this many seconds
RUN_BUDGET = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (no result is printed)."""


def load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        return json.load(handle)


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` of every interpreter of a run with ``seed``."""
    return int.from_bytes(hashlib.sha256(f"oassis:{seed}".encode()).digest()[:4], "big")


def machine_record() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass  # not Linux: the model stays unknown
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": commit,
    }


class Runner:
    """Starts workload interpreters within one run's time budget."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchmarkError(f"no program to measure: {ROOT}/src/repro is missing")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET
        self.env = dict(os.environ)
        self.env["PYTHONHASHSEED"] = str(hash_seed(seed))
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def warm_bytecode(self) -> None:
        """Compile the program once, so set-up is timed with warm caches."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )

    def child(self, mode: str) -> Dict[str, Any]:
        """One workload interpreter in ``mode`` (see ``workloads.py``)."""
        command = [sys.executable, os.path.join(HERE, "workloads.py"),
                   self.workload, str(self.seed), str(self.seconds), mode]
        spawned = time.monotonic()
        try:
            done = subprocess.run(
                command, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"{self.workload} {mode} run exceeded the time budget") from error
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(
                f"{self.workload} {mode} run failed (exit {done.returncode}):\n{done.stderr[-3000:]}"
            )
        report = json.loads(lines[-1])
        report["setup_unscaled_s"] = report["setup_done"] - spawned
        report["setup_s"] = report["setup_unscaled_s"] * speed_factor(report["setup_probe_s"])
        return report


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def quantile(ordered: Sequence[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary(units: Sequence[Sequence[Dict[str, Any]]], scaled: bool) -> Dict[str, Tuple[float, int]]:
    """The end-to-end statistics of a measured run, each with its sample
    count.

    ``units`` holds every unit's rounds; the rounds of a unit did the same
    work (the workload process checks that they asked the same
    questions).  With ``scaled``, every time of an execution is first
    scaled to the reference speed by the machine probes taken next to it
    (``probe.py``).  The readings of every execution are then pooled: the
    questions and the wall and CPU times are summed, and the quantiles are
    taken over every gap and every first-question time.
    """
    wall = cpu = 0.0
    answered = 0
    gaps: List[float] = []
    first: List[float] = []
    for rounds in units:
        for run in rounds:
            k = speed_factor(run["probe_s"]) if scaled else 1.0
            wall += run["wall_s"] * k
            cpu += run["cpu_s"] * k
            answered += run["questions"]
            gaps += [t * k for t in run["gaps"]]
            first += [t * k for t in run["first"]]
    gaps.sort()
    return {
        "questions_per_s": (answered / wall, len(units) * len(units[0])),
        "cpu_ms_per_question": (cpu * 1e3 / answered, len(units) * len(units[0])),
        "crowd_questions": (sum(rounds[0]["questions"] for rounds in units), 1),
        "question_gap_p50_ms": (statistics.median(gaps) * 1e3, len(gaps)),
        "question_gap_p99_ms": (quantile(gaps, 0.99) * 1e3, len(gaps)),
        "first_question_ms": (statistics.median(first) * 1e3, len(first)),
    }


def end_to_end(runner: Runner, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """An untraced run: set-up repeats, the measured rounds, drift probes."""
    runner.warm_bytecode()
    drift_before = [machine_probe() for _ in range(3)]
    children = [runner.child("setup") for _ in range(SETUP_REPEATS)]
    measured = runner.child("measure")
    drift_after = [machine_probe() for _ in range(3)]
    children.append(measured)
    setups = [child["setup_s"] for child in children]
    values = summary(measured["units"], scaled=True)
    values["setup_s"] = (statistics.median(setups), len(setups))
    values["peak_rss_mb"] = (measured["peak_rss_mb"], 1)
    unscaled = summary(measured["units"], scaled=False)
    unscaled["setup_s"] = (statistics.median(child["setup_unscaled_s"] for child in children), len(children))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: metric(values[name][0], units[name]) for name in units}
    record = {
        "samples": {name: values[name][1] for name in units},
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        "setup_samples_s": setups,
        "drift_probe_s": {"before": drift_before, "after": drift_after},
        "rounds": [
            [{k: run[k] for k in ("wall_s", "cpu_s", "questions", "probe_s")} for run in rounds]
            for rounds in measured["units"]
        ],
    }
    return metrics, {"reports": [measured], **record}, []


def per_layer(runner: Runner, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """An untraced pass over every unit, then the same pass traced."""
    plain = runner.child("once")
    traced = runner.child("traced")
    # one factor per run: the times of the traced run are summed over
    # its executions before they reach this process
    factors = [speed_factor([t for unit in run["units"] for t in unit[0]["probe_s"]])
               for run in (plain, traced)]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = {
        name: value * factors[1] if units.get(name, "").startswith("ms") else value
        for name, value in traced["layers"].items()
    }
    walls = [sum(unit[0]["wall_s"] for unit in run["units"]) * k for run, k in zip((plain, traced), factors)]
    layers["trace.overhead_share"] = walls[1] / walls[0] - 1.0
    problems = []
    questions = [sum(unit[0]["questions"] for unit in run["units"]) for run in (plain, traced)]
    if questions[0] != questions[1]:
        problems.append(f"crowd_questions differ: {questions[0]} untraced, {questions[1]} traced")
    if plain["msps"] != traced["msps"]:
        problems.append("MSP sets differ between the untraced and the traced run")
    problems += partition_problems(traced["partition"], traced["layers"]["trace.wall_ms_per_question"])
    metrics = {name: metric(layers[name], units[name]) for name in units}
    detail = {
        "reports": [plain, traced],
        "speed_factors": factors,
        "partition_unscaled_ms_per_question": traced["partition"],
    }
    return metrics, detail, problems


def partition_problems(parts: Dict[str, float], wall: float) -> List[str]:
    """The layers' self times must partition the traced wall time.

    ``unattributed`` and ``gateway.transport`` are what remains of a wall
    time once the spans inside it are subtracted, so the parts add up by
    construction; spans that overlap or overrun the wall show up instead
    as a negative remainder.
    """
    problems = []
    total = sum(parts.values())
    tolerance = 1e-6 * max(1.0, wall)
    if abs(total - wall) > tolerance:
        problems.append(f"layer self times add up to {total} ms, not the traced wall {wall} ms")
    for layer in ("unattributed", "gateway.transport"):
        if parts[layer] < -tolerance:
            problems.append(f"{layer} is negative ({parts[layer]} ms per question): spans overlap or overrun the wall")
    return problems


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    spec = load_spec()
    runner = Runner(workload, seed, seconds)
    started = time.monotonic()
    metrics, detail, problems = (per_layer if trace else end_to_end)(runner, spec)
    reports = detail.pop("reports")
    failed = sum(report["failed"] for report in reports) + len(problems)
    attempted = sum(report["attempted"] for report in reports) + 1
    record = {
        "workload": workload,
        "seed": seed,
        "hash_seed": hash_seed(seed),
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "metrics": metrics,
        "problems": problems + [p for report in reports for p in report["failures"]],
        "elapsed_s": time.monotonic() - started,
        **detail,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


# --------------------------------------------------------------- compare


def read_records(path: str) -> List[Dict[str, Any]]:
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict) and "record" in payload:
                records.append(payload["record"])
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved, under a metric's bound.

    ``worse``: the new median is worse than the old by more than the
    bound.  ``unresolved``: either side's quartile spread exceeds the
    bound, unless every new run beats every old run.  ``better``: the new
    side's quartiles lie wholly on the better side of the old side's.
    """
    sign = 1.0 if better == "higher" else -1.0
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    if om == 0:
        return "unresolved"
    change = sign * (nm - om) / abs(om)
    spread = max((o3 - o1) / abs(om), (n3 - n1) / abs(nm) if nm else float("inf"))
    all_better = min(sign * v for v in new) > max(sign * v for v in old)
    if spread > bound and not all_better:
        return "unresolved"
    if change < -bound:
        return "worse"
    good_new = n1 if sign > 0 else n3
    good_old = o3 if sign > 0 else o1
    if all_better or (change > 0 and sign * good_new > sign * good_old):
        return "better"
    return "unchanged"


def compare(old_path: str, new_path: str) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = read_records(old_path), read_records(new_path)
    worse = 0
    print(f"{'workload':15} {'metric':42} {'old q1/med/q3':>30} {'new q1/med/q3':>30}  verdict")
    workloads = sorted({r["workload"] for r in old} & {r["workload"] for r in new})
    for workload in workloads:
        names = sorted({n for r in old + new if r["workload"] == workload for n in r["metrics"]})
        for name in names:
            a = [r["metrics"][name]["value"] for r in old if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            if name in bounds:
                call = verdict(a, b, bounds[name]["better"], bounds[name]["bound"])
            else:
                call = "no bound"
            worse += call == "worse"
            left = "/".join(f"{v:.4g}" for v in quartiles(a))
            right = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{workload:15} {name:42} {left:>30} {right:>30}  {call} (n={len(a)}/{len(b)})")
    return 1 if worse else 0


# ------------------------------------------------------------------ main


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare OLD NEW", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description="The OASSIS benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            record, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                record, result = run_one(workload, args.seed, args.seconds, trace)
                print(json.dumps({"record": record}))
                combined["correct"] = combined["correct"] and result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, value in result["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = value
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
