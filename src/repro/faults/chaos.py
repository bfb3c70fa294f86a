"""Seeded chaos campaigns: every fault kind at once, invariants checked.

A chaos run serves several concurrent sessions of one experiment domain
while a :func:`~repro.faults.plan.chaos_plan` injects member timeouts,
duplicate deliveries, one abrupt departure and a *planted
always-malformed member* — all deterministically from one seed.  The
run is audited end to end; afterwards :func:`run_chaos_once` verifies
the engine's durability invariants:

* every session settled (no wedged dispatch state);
* **no acknowledged answer lost** — every submission the manager
  acknowledged as ``RECORDED`` is present in the session's cache (and,
  when WAL-backed, in the journal on disk);
* **no question answered twice** — at most one recorded answer per
  (assignment, member) in every cache, despite injected duplicates;
* no malformed support value leaked past validation into a cache;
* the planted bad member's circuit breaker tripped (quarantine works);
* the MSP set of every session equals a serial run of the same query
  (identical members make this exact even under chaos — the injected
  faults may cost retries, never answers).

A failing seed is a reproducible bug report: the in-process loop runs
on one thread and a virtual clock, so rerunning ``repro chaos --seeds N``
(with the same ``PYTHONHASHSEED``) replays the identical interleaving.

Imports of :mod:`repro.service` happen lazily inside the functions —
the service layer itself imports :mod:`repro.faults` for its injection
sites, and this module sits above both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .plan import FaultPlan, chaos_plan


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run."""

    seed: int
    domain: str
    sessions: int
    completed_sessions: int
    answers_recorded: int
    faults_injected: Dict[str, int]
    breaker_opened: Dict[str, int]
    violations: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "domain": self.domain,
            "sessions": self.sessions,
            "completed_sessions": self.completed_sessions,
            "answers_recorded": self.answers_recorded,
            "faults_injected": dict(self.faults_injected),
            "breaker_opened": dict(self.breaker_opened),
            "violations": list(self.violations),
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
        }


def run_chaos_once(
    *,
    seed: int,
    domain: str = "demo",
    sessions: int = 4,
    crowd_size: int = 6,
    sample_size: int = 3,
    durable_dir: Optional[str] = None,
    verify_msps: bool = True,
    max_runtime: float = 30.0,
    faults: Optional[FaultPlan] = None,
) -> ChaosReport:
    """One seeded chaos run; returns the invariant-checked report.

    ``faults`` overrides the default :func:`chaos_plan` (tests inject
    custom mixes).  ``durable_dir`` adds the WAL journal + checkpoint
    layer, extending the no-lost-answer invariant to the on-disk
    journal.  Requires ``crowd_size - 2 >= sample_size`` so quarantining
    the bad member and one departure cannot starve the aggregator.
    """
    from ..crowd.journal import replay_journal
    from ..service.simulation import run_simulation

    if crowd_size - 2 < sample_size:
        raise ValueError(
            "crowd_size - 2 must be >= sample_size (one planted bad member "
            "and one departure must leave a full sample)"
        )
    bad_member = "m0"
    departing_member = f"m{crowd_size - 1}"
    plan = (
        faults
        if faults is not None
        else chaos_plan(
            seed=seed,
            bad_member=bad_member,
            departing_member=departing_member,
            timeout_rate=0.05,
            duplicate_rate=0.08,
        )
    )
    started = time.perf_counter()
    report = run_simulation(
        domain=domain,
        sessions=sessions,
        crowd_size=crowd_size,
        sample_size=sample_size,
        question_timeout=0.2,
        backoff_base=0.01,
        max_runtime=max_runtime,
        verify=verify_msps,
        seed=seed,
        faults=plan,
        durable_dir=durable_dir,
        checkpoint_every=5 if durable_dir is not None else 0,
        breaker_window=4,
        breaker_cooldown=0.05,
        audit=True,
        _keep_handles=True,
    )
    elapsed = time.perf_counter() - started
    manager = report.pop("_manager")
    runner = report.pop("_runner")

    violations: List[str] = []
    completed = sum(
        1 for s in report["sessions"].values() if s["state"] == "completed"
    )
    if report.get("timed_out"):
        violations.append("run timed out before every session settled")
    for session_id, info in report["sessions"].items():
        if info["state"] == "open":
            violations.append(f"session {session_id} never settled")
    if not report.get("verified", True):
        for mismatch in report.get("mismatches", []):
            violations.append(
                f"MSP mismatch in session {mismatch['session']}"
            )

    # durability invariants, from the runner's audit trail
    recorded = 0
    per_session_cache: Dict[str, Dict[str, List[str]]] = {}
    for session in manager.sessions():
        answers: Dict[str, List[str]] = {}
        for assignment in session.cache.assignments():
            members = [m for m, _ in session.cache.answers_for(assignment)]
            answers[repr(assignment)] = members
            if len(members) != len(set(members)):
                violations.append(
                    f"answer applied twice in {session.session_id}: "
                    f"{assignment!r}"
                )
            for member, support in session.cache.answers_for(assignment):
                if not 0.0 <= support <= 1.0:
                    violations.append(
                        f"malformed support {support} leaked into "
                        f"{session.session_id} cache from {member}"
                    )
        per_session_cache[session.session_id] = answers
    seen_recorded = set()
    for entry in runner.audit or []:
        if entry["outcome"] != "recorded":
            continue
        recorded += 1
        key = (entry["session_id"], entry["assignment"], entry["member_id"])
        if key in seen_recorded:
            violations.append(f"answer acknowledged twice: {key}")
        seen_recorded.add(key)
        cached = per_session_cache.get(str(entry["session_id"]), {})
        if str(entry["member_id"]) not in cached.get(str(entry["assignment"]), []):
            violations.append(f"acknowledged answer lost from cache: {key}")
    if durable_dir is not None:
        for session in manager.sessions():
            journal = f"{durable_dir}/{session.session_id}.wal"
            records, corrupt = replay_journal(journal)
            if corrupt:
                violations.append(
                    f"{corrupt} corrupt journal lines in {journal}"
                )
            journaled = {(r.key, r.member) for r in records}
            for key_repr, members in per_session_cache[
                session.session_id
            ].items():
                for member in members:
                    if (key_repr, member) not in journaled:
                        violations.append(
                            "acknowledged answer missing from journal: "
                            f"({session.session_id}, {key_repr}, {member})"
                        )

    breaker_opened = report.get("breaker_opened", {})
    if faults is None and breaker_opened.get(bad_member, 0) < 1:
        violations.append(
            f"planted bad member {bad_member} was never quarantined"
        )

    return ChaosReport(
        seed=seed,
        domain=domain,
        sessions=sessions,
        completed_sessions=completed,
        answers_recorded=recorded,
        faults_injected=plan.injected(),
        breaker_opened=dict(breaker_opened),
        violations=violations,
        elapsed_seconds=elapsed,
    )


def run_chaos_campaign(
    seeds: Sequence[int] = (0, 1, 2),
    *,
    domain: str = "demo",
    durable_dir: Optional[str] = None,
    **options: Union[int, float, bool, None],
) -> Dict[str, object]:
    """Run :func:`run_chaos_once` for each seed; aggregate the verdict.

    ``durable_dir`` gets one subdirectory per seed so journals never
    collide across runs.  Extra keyword options are forwarded verbatim.
    """
    reports: List[ChaosReport] = []
    for seed in seeds:
        seed_dir = (
            f"{durable_dir}/seed-{seed}" if durable_dir is not None else None
        )
        reports.append(
            run_chaos_once(
                seed=seed,
                domain=domain,
                durable_dir=seed_dir,
                **options,  # type: ignore[arg-type]
            )
        )
    return {
        "domain": domain,
        "seeds": list(seeds),
        "ok": all(report.ok for report in reports),
        "total_faults_injected": sum(
            sum(report.faults_injected.values()) for report in reports
        ),
        "reports": [report.as_dict() for report in reports],
    }
