"""Seeded chaos campaigns: break every serving layer, check every invariant.

One chaos run serves a domain through each serving layer in turn and
breaks it on purpose, all from one seed.  The five scenarios, in
execution order (:data:`SCENARIOS`):

``session``
    the in-process loop under a :func:`~repro.faults.plan.chaos_plan`:
    member timeouts, duplicate deliveries, one abrupt departure and a
    *planted always-malformed member* (:func:`run_chaos_once`);
``gateway``
    a journaled :class:`~repro.gateway.app.GatewayApp` crashes
    mid-campaign and a fresh app is rebuilt from the same journal;
``client``
    requests are dropped (``DISCONNECT`` at the ``gateway.request``
    site) and sent again on the member's next turn, and every third
    applied answer is delivered again under its idempotency key;
``shard``
    one worker of a supervised shard fleet is SIGKILLed mid-serve and
    the :class:`~repro.service.supervisor.ShardSupervisor` restarts it
    from its WAL;
``coordinator``
    the shard coordinator aborts mid-serve and a fresh one recovers
    from the shard WALs alone.

Every scenario reports ``ok``, its ``violations`` and ``mttr_seconds``
(time to recover; ``None`` where nothing goes down).  The invariants:

* every session settles, within ``max_runtime``;
* every session's MSP set equals a serial ``engine.execute`` of the same
  query (identical members make this exact under any fault —
  :func:`~repro.service.simulation.serial_mismatches`);
* no acknowledged answer is lost from the cache or the journal, and no
  answer is applied twice (``session``, ``gateway``, ``client``);
* no malformed support reaches a cache, and the planted bad member is
  quarantined by their circuit breaker (``session``);
* no acknowledged answer is re-asked, and a duplicate delivery returns
  the first outcome (``gateway``, ``client``);
* the restarted gateway restores at least one session (``gateway``);
* the shard kill is triggered on a shard with a nonzero answer quota,
  the supervisor restarts it, and the restart replays WAL answers or
  re-sends asks (``shard``);
* the fresh coordinator replays at least one WAL answer
  (``coordinator``);
* the crowd cost a client reads from ``result`` counts every
  acknowledged answer once, across a restart too (``gateway``,
  ``client``).

Over a whole campaign, :func:`summarize_runs` also holds the
supervisor's shard restarts to a p95 of
:data:`MAX_SUPERVISOR_RESTART_P95_SECONDS`.

Determinism: ``session``, ``gateway`` and ``client`` run on the calling
thread — the session loop on a virtual clock, the gateway scenarios
calling :class:`GatewayApp` directly with members taking turns — so for
a fixed ``PYTHONHASHSEED`` a seed replays bit for bit, apart from the
wall-clock fields (``elapsed_seconds``, ``mttr_seconds``).  ``shard``
and ``coordinator`` run worker processes: their answers are fixed,
their interleaving is not.

Imports of :mod:`repro.service` and :mod:`repro.gateway` happen lazily
inside the functions — the service layer itself imports
:mod:`repro.faults` for its injection sites, and this module sits above
both.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .plan import FaultKind, FaultPlan, FaultSpec, chaos_plan

#: the scenarios of one chaos run, in execution order
SCENARIOS = ("session", "gateway", "client", "shard", "coordinator")

#: shard processes in the fleet scenarios
_FLEET_SHARDS = 3
#: nodes classified before the fleet scenarios kill or crash something
_FLEET_KILL_AFTER_NODES = 5
#: acknowledged answers before the gateway scenario crashes the app
_GATEWAY_CRASH_AFTER = 4
#: every n-th applied answer is delivered twice in the client scenario
_CLIENT_DUPLICATE_EVERY = 3
#: the supervisor must bring a killed shard back within this p95 budget
MAX_SUPERVISOR_RESTART_P95_SECONDS = 1.0


@dataclass
class ChaosReport:
    """Outcome of one seeded ``session`` scenario run."""

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


def _applied_twice(manager: Any) -> List[str]:
    """Cache entries holding two answers from one member for one node."""
    violations: List[str] = []
    for session in manager.sessions():
        for assignment in session.cache.assignments():
            members = [m for m, _ in session.cache.answers_for(assignment)]
            doubled = sorted({m for m in members if members.count(m) > 1})
            if doubled:
                violations.append(
                    f"answer applied twice in {session.session_id}: "
                    f"{assignment!r} by {doubled}"
                )
    return violations


# ------------------------------------------------------------------ session


def check_chaos_crowd(crowd_size: int, sample_size: int) -> None:
    """Raise ValueError unless quarantining the planted bad member and one
    departure still leave a full sample: ``crowd_size - 2 >= sample_size``."""
    if crowd_size - 2 < sample_size:
        raise ValueError(
            "crowd_size - 2 must be >= sample_size (one planted bad member "
            "and one departure must leave a full sample)"
        )


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
    """The ``session`` scenario; returns the invariant-checked report.

    ``faults`` overrides the default :func:`chaos_plan` (tests inject
    custom mixes).  ``durable_dir`` adds the WAL journal + checkpoint
    layer, extending the no-lost-answer invariant to the on-disk
    journal.  Requires ``crowd_size - 2 >= sample_size`` so quarantining
    the bad member and one departure cannot starve the aggregator.
    """
    from ..crowd.journal import replay_journal
    from ..service.simulation import run_simulation

    check_chaos_crowd(crowd_size, sample_size)
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
    for mismatch in report.get("mismatches", []):
        violations.append(f"MSP mismatch in session {mismatch['session']}")

    # durability invariants, from the runner's audit trail
    violations.extend(_applied_twice(manager))
    recorded = 0
    per_session_cache: Dict[str, Dict[str, List[str]]] = {}
    for session in manager.sessions():
        answers: Dict[str, List[str]] = {}
        for assignment in session.cache.assignments():
            answers[repr(assignment)] = [
                m for m, _ in session.cache.answers_for(assignment)
            ]
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


# ---------------------------------------------------------- gateway, client


@dataclass
class _HeldAnswer:
    """An answer request a member has yet to get through to the gateway."""

    qid: str
    node: Tuple[str, Tuple[Tuple[str, str, str], ...]]
    support: Optional[float]
    key: str
    #: for a deliberate duplicate delivery: the outcome the first got
    first_outcome: Optional[str] = None


def _gateway_campaign(
    *,
    seed: int,
    domain: str,
    sessions: int,
    crowd_size: int,
    sample_size: int,
    max_runtime: float,
    crash_after: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    duplicate_every: int = 0,
) -> Dict[str, Any]:
    """One campaign driven through :class:`GatewayApp` on this thread.

    Members take turns in a fixed order, calling the app directly as
    :class:`repro.api.Client` does.  A turn asks for a batch, answers
    it and sends every answer the member holds.  Each request first
    consults ``faults`` at the ``gateway.request`` site, as the HTTP
    transport does: a ``DISCONNECT`` drops the request unprocessed and
    the member sends it again on their next turn.  With
    ``duplicate_every`` every n-th applied answer is delivered again
    under its idempotency key and must come back with the first
    outcome.  ``crash_after`` closes the app once that many answers are
    acknowledged and builds a fresh one on the same journal; members
    keep their bearer tokens and the answers they hold.
    """
    from ..crowd.questions import ConcreteQuestion
    from ..gateway.app import GatewayApp, GatewayError
    from ..gateway.schema import QueryRequest, facts_from_wire
    from ..service.simulation import (
        DEFAULT_THRESHOLDS,
        DOMAINS,
        build_identical_crowd,
        serial_mismatches,
    )

    dataset = DOMAINS[domain]()
    members = build_identical_crowd(dataset, crowd_size, seed=seed)
    violations: List[str] = []
    mttr: Optional[float] = None
    restored: Optional[Dict[str, int]] = None
    acknowledged = 0
    duplicates_sent = 0
    reasks = 0
    timed_out = False
    queries: Dict[str, str] = {}
    tokens: Dict[str, str] = {}
    held: Dict[str, List[_HeldAnswer]] = {m.member_id: [] for m in members}
    applied: Dict[str, Set[Tuple[Any, ...]]] = {m.member_id: set() for m in members}

    def dropped(member_id: str) -> bool:
        return (
            faults is not None
            and faults.decide("gateway.request", member_id)
            is FaultKind.DISCONNECT
        )

    def turn(app: GatewayApp, member: Any) -> None:
        nonlocal acknowledged, duplicates_sent, reasks
        member_id = member.member_id
        outbox = held[member_id]
        if not dropped(member_id):
            batch = app.next_questions(app.authenticate(tokens[member_id]))
            for question in batch.questions:
                node = (question.session_id, question.facts)
                if node in applied[member_id]:
                    reasks += 1
                    violations.append(
                        f"{member_id} re-asked acknowledged node "
                        f"{question.qid} in {question.session_id}"
                    )
                answer = member.answer_concrete(
                    ConcreteQuestion(question.qid, facts_from_wire(question.facts))
                )
                outbox.append(
                    _HeldAnswer(
                        question.qid,
                        node,
                        answer.support,
                        f"{member_id}:{question.qid}",
                    )
                )
        sending, held[member_id] = outbox, []
        while sending:
            request = sending.pop(0)
            if dropped(member_id):
                held[member_id].append(request)
                continue
            response = app.submit_answer(
                app.authenticate(tokens[member_id]),
                request.qid,
                request.support,
                idempotency_key=request.key,
            )
            if request.first_outcome is not None:
                if response.outcome != request.first_outcome:
                    violations.append(
                        f"{member_id}: duplicate of {request.qid} came back "
                        f"{response.outcome!r}, first was "
                        f"{request.first_outcome!r}"
                    )
                continue
            if response.outcome not in ("recorded", "passed"):
                continue
            applied[member_id].add(request.node)
            acknowledged += 1
            if duplicate_every > 0 and acknowledged % duplicate_every == 0:
                duplicates_sent += 1
                request.first_outcome = response.outcome
                sending.append(request)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="chaos-gateway-") as scratch:
        journal = str(Path(scratch) / "gateway.journal")
        app = GatewayApp(journal_path=journal)
        try:
            app.activate_dataset(domain)
            for index in range(sessions):
                accepted = app.pose_query(
                    QueryRequest(
                        threshold=DEFAULT_THRESHOLDS[index % len(DEFAULT_THRESHOLDS)],
                        sample_size=sample_size,
                        session_id=f"{domain}-{index}",
                    )
                )
                queries[accepted.session_id] = accepted.query
            for member in members:
                tokens[member.member_id] = app.join(member.member_id).token
            deadline = started + max_runtime
            while not app.all_done():
                if time.perf_counter() >= deadline:
                    timed_out = True
                    break
                for member in members:
                    turn(app, member)
                    if (
                        crash_after is not None
                        and restored is None
                        and acknowledged >= crash_after
                    ):
                        # a crash keeps nothing in memory; closing only
                        # releases the journal handle (appends are on disk)
                        app.close()
                        down_at = time.perf_counter()
                        app = GatewayApp(journal_path=journal)
                        mttr = time.perf_counter() - down_at
                        restored = app.restored or {}
        except GatewayError as error:
            violations.append(f"{error.status} {error.error}: {error.detail}")
        finally:
            app.close()
        results = {sid: app.result(sid) for sid in queries}
        doubled = _applied_twice(app._manager)
        violations.extend(doubled)

    mismatches = serial_mismatches(
        domain,
        {sid: (queries[sid], results[sid].msps) for sid in queries},
        crowd_size=crowd_size,
        sample_size=sample_size,
        seed=seed,
    )
    questions_answered = sum(r.questions_asked for r in results.values())
    if timed_out:
        violations.append("campaign hit max_runtime before settling")
    if mismatches:
        violations.append(
            f"{len(mismatches)} session(s) diverged from serial MSPs"
        )
    if questions_answered != acknowledged:
        violations.append(
            f"result reports {questions_answered} questions asked for "
            f"{acknowledged} acknowledged answers"
        )
    if duplicate_every > 0 and duplicates_sent < 1:
        violations.append(
            "no duplicate answers were sent; the exactly-once probe is vacuous"
        )
    if crash_after is not None:
        if restored is None:
            violations.append("gateway crash never triggered")
        elif restored.get("sessions", 0) < 1:
            violations.append(
                "restarted gateway did not restore sessions from its journal"
            )
    return {
        "seed": seed,
        "domain": domain,
        "mttr_seconds": round(mttr, 4) if mttr is not None else None,
        "restored": restored,
        "questions_answered": questions_answered,
        "acknowledged": acknowledged,
        "duplicates_sent": duplicates_sent,
        "reasks": reasks,
        "double_charges": len(doubled),
        "faults_injected": faults.injected() if faults is not None else {},
        "mismatches": mismatches,
        "ok": not violations,
        "violations": violations,
    }


# ------------------------------------------------------------ shard fleets


class _CoordinatorCrash(RuntimeError):
    """Raised by the chaos hook to unwind the serve loop mid-flight."""


def _fleet_queries(dataset: Any, domain: str, sessions: int) -> Dict[str, str]:
    from ..service.simulation import DEFAULT_THRESHOLDS

    return {
        f"{domain}-{index}": dataset.query(
            DEFAULT_THRESHOLDS[index % len(DEFAULT_THRESHOLDS)]
        )
        for index in range(sessions)
    }


def _fleet(
    dataset: Any,
    durable_dir: str,
    hook: Optional[Callable[[Any], None]],
    supervisor: Any = None,
    *,
    seed: int,
    domain: str,
    crowd_size: int,
    sample_size: int,
    max_runtime: float,
) -> Any:
    """A shard coordinator over :data:`_FLEET_SHARDS` WAL-backed shards."""
    from ..service.shard.coordinator import ShardCoordinator

    return ShardCoordinator(
        dataset,
        shards=_FLEET_SHARDS,
        crowd_size=crowd_size,
        sample_size=sample_size,
        domain=domain,
        seed=seed,
        durable_dir=durable_dir,
        max_runtime=max_runtime,
        chaos_hook=hook,
        supervisor=supervisor,
    )


def _serve_fleet(coordinator: Any, queries: Mapping[str, str]) -> None:
    coordinator.start()
    for session_id, query in queries.items():
        coordinator.create_session(query, session_id)
    coordinator.serve()


def _fleet_violations(
    report: Mapping[str, Any],
    coordinator: Any,
    queries: Mapping[str, str],
    domain: str,
    *,
    crowd_size: int,
    sample_size: int,
    seed: int,
) -> Tuple[List[str], List[Dict[str, Any]]]:
    """The settle and serial-MSP checks every fleet scenario shares."""
    from ..service.simulation import serial_mismatches

    violations: List[str] = []
    if report["timed_out"]:
        violations.append("campaign hit max_runtime before settling")
    unsettled = sorted(
        sid for sid, info in report["sessions"].items()
        if info["state"] != "completed"
    )
    if unsettled:
        violations.append(f"unfinished sessions: {unsettled}")
    mismatches = serial_mismatches(
        domain,
        {
            session.session_id: (
                queries[session.session_id],
                [repr(a) for a in session.queue.current_msps()],
            )
            for session in coordinator.sessions()
        },
        crowd_size=crowd_size,
        sample_size=sample_size,
        seed=seed,
    )
    if mismatches:
        violations.append(
            f"{len(mismatches)} session(s) diverged from serial MSPs"
        )
    return violations, mismatches


def _shard_verdict(
    victim: Optional[int], quotas: Sequence[int], supervisor: Mapping[str, Any],
    wal_replayed: int,
) -> List[str]:
    """The shard kill's own invariants, from the supervisor's report."""
    if victim is None:
        return ["shard kill never triggered"]
    violations: List[str] = []
    if quotas[victim] < 1:
        violations.append(f"killed shard {victim} had no answer quota")
    if supervisor["restarts"] < 1:
        violations.append("supervisor never restarted the killed shard")
    elif wal_replayed < 1 and supervisor["asks_resent"] < 1:
        violations.append(
            f"kill of shard {victim} was vacuous: its restart replayed no "
            "WAL answer and re-sent no ask"
        )
    return violations


def _pick_victim(seed: int, quotas: Sequence[int]) -> int:
    """Rotate the victim by seed over the shards that answer questions."""
    serving = [index for index, quota in enumerate(quotas) if quota > 0]
    return serving[seed % len(serving)]


def _shard_scenario(
    *, seed: int, domain: str, sessions: int, crowd_size: int,
    sample_size: int, max_runtime: float,
) -> Dict[str, Any]:
    """SIGKILL one shard mid-serve; the supervisor restarts it unassisted."""
    from ..service.shard.coordinator import ShardCoordinator
    from ..service.simulation import DOMAINS
    from ..service.supervisor import ShardSupervisor

    dataset = DOMAINS[domain]()
    queries = _fleet_queries(dataset, domain, sessions)
    killed: List[int] = []

    def kill(coordinator: ShardCoordinator) -> None:
        if killed or coordinator.nodes_classified < _FLEET_KILL_AFTER_NODES:
            return
        killed.append(_pick_victim(seed, coordinator.quotas))
        coordinator.kill_shard(killed[0])

    with tempfile.TemporaryDirectory(prefix="chaos-shard-") as scratch:
        coordinator = _fleet(
            dataset, scratch, kill, ShardSupervisor(), seed=seed,
            domain=domain, crowd_size=crowd_size, sample_size=sample_size,
            max_runtime=max_runtime,
        )
        try:
            _serve_fleet(coordinator, queries)
        finally:
            coordinator.close()
    report = coordinator.report()
    violations, mismatches = _fleet_violations(
        report, coordinator, queries, domain,
        crowd_size=crowd_size, sample_size=sample_size, seed=seed,
    )
    victim = killed[0] if killed else None
    supervisor = report["supervisor"]
    violations += _shard_verdict(
        victim, report["quotas"], supervisor, report["wal_replayed"]
    )
    samples = supervisor["restart_seconds"]
    return {
        "seed": seed,
        "domain": domain,
        "killed_shard": victim,
        "quotas": report["quotas"],
        "mttr_seconds": round(max(samples), 4) if samples else None,
        "restart_seconds": samples,
        "supervisor": supervisor,
        "questions_answered": report["questions_answered"],
        "wal_replayed": report["wal_replayed"],
        "asks_resent": supervisor["asks_resent"],
        "mismatches": mismatches,
        "ok": not violations,
        "violations": violations,
    }


def _coordinator_scenario(
    *, seed: int, domain: str, sessions: int, crowd_size: int,
    sample_size: int, max_runtime: float,
) -> Dict[str, Any]:
    """Crash the coordinator; a fresh one recovers from shard WALs alone."""
    from ..service.shard.coordinator import ShardCoordinator
    from ..service.simulation import DOMAINS

    dataset = DOMAINS[domain]()
    queries = _fleet_queries(dataset, domain, sessions)
    violations: List[str] = []
    mismatches: List[Dict[str, Any]] = []
    mttr: Optional[float] = None
    report: Optional[Dict[str, Any]] = None

    def crash(coordinator: ShardCoordinator) -> None:
        if coordinator.nodes_classified < _FLEET_KILL_AFTER_NODES:
            return
        coordinator.abort()
        raise _CoordinatorCrash("injected coordinator crash")

    sizes: Dict[str, Any] = {
        "seed": seed,
        "domain": domain,
        "crowd_size": crowd_size,
        "sample_size": sample_size,
        "max_runtime": max_runtime,
    }
    with tempfile.TemporaryDirectory(prefix="chaos-coordinator-") as scratch:
        first = _fleet(dataset, scratch, crash, **sizes)
        crashed = False
        try:
            _serve_fleet(first, queries)
        except _CoordinatorCrash:
            crashed = True
        finally:
            first.close()  # a no-op after abort()
        if crashed:
            down_at = time.perf_counter()
            second = _fleet(dataset, scratch, None, **sizes)
            try:
                second.start()
                mttr = time.perf_counter() - down_at
                _serve_fleet(second, queries)
            finally:
                second.close()
            report = second.report()
            violations, mismatches = _fleet_violations(
                report, second, queries, domain,
                crowd_size=crowd_size, sample_size=sample_size, seed=seed,
            )
            if report["wal_replayed"] < 1:
                violations.append(
                    "fresh coordinator replayed nothing from the shard WALs"
                )
        else:
            violations.append(
                f"coordinator crash never triggered: fewer than "
                f"{_FLEET_KILL_AFTER_NODES} nodes classified"
            )
    return {
        "seed": seed,
        "domain": domain,
        "crashed": crashed,
        "mttr_seconds": round(mttr, 4) if mttr is not None else None,
        "wal_replayed": report["wal_replayed"] if report is not None else 0,
        "questions_answered": (
            report["questions_answered"] if report is not None else 0
        ),
        "mismatches": mismatches,
        "ok": not violations,
        "violations": violations,
    }


# ------------------------------------------------------------------ campaign


def run_scenario(
    name: str,
    *,
    seed: int,
    domain: str = "demo",
    sessions: int = 4,
    crowd_size: int = 6,
    sample_size: int = 3,
    max_runtime: float = 30.0,
    durable_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One scenario of :data:`SCENARIOS` for one seed; returns its report.

    Every report carries ``ok``, ``violations``, ``mttr_seconds`` and
    ``elapsed_seconds``.  ``durable_dir`` journals the ``session``
    scenario's sessions (WAL + checkpoints); the other scenarios journal
    into temporary directories, so a rerun never resumes an earlier
    run's state.
    """
    sizes: Dict[str, Any] = {
        "seed": seed,
        "domain": domain,
        "sessions": sessions,
        "crowd_size": crowd_size,
        "sample_size": sample_size,
        "max_runtime": max_runtime,
    }
    started = time.perf_counter()
    report: Dict[str, Any]
    if name == "session":
        report = run_chaos_once(durable_dir=durable_dir, **sizes).as_dict()
        report["mttr_seconds"] = None  # members fail; no component goes down
    elif name == "gateway":
        report = _gateway_campaign(crash_after=_GATEWAY_CRASH_AFTER, **sizes)
    elif name == "client":
        plan = FaultPlan(
            [FaultSpec("gateway.request", FaultKind.DISCONNECT, rate=0.04, limit=6)],
            seed=seed,
        )
        report = _gateway_campaign(
            faults=plan, duplicate_every=_CLIENT_DUPLICATE_EVERY, **sizes
        )
    elif name == "shard":
        report = _shard_scenario(**sizes)
    elif name == "coordinator":
        report = _coordinator_scenario(**sizes)
    else:
        raise ValueError(f"unknown scenario {name!r}; pick from {SCENARIOS}")
    report["elapsed_seconds"] = round(time.perf_counter() - started, 4)
    return report


def _mttr_summary(samples: Sequence[float]) -> Optional[Dict[str, Any]]:
    from ..service.supervisor import _percentile

    ordered = sorted(samples)
    if not ordered:
        return None
    return {
        "incidents": len(ordered),
        "max_seconds": round(ordered[-1], 4),
        "p95_seconds": round(_percentile(ordered, 0.95), 4),
        "mean_seconds": round(sum(ordered) / len(ordered), 4),
    }


def summarize_runs(runs: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """The verdict over chaos runs: ok, faults injected, MTTR per scenario.

    ``mttr`` summarizes each scenario's time-to-recover samples (``None``
    where nothing went down); ``supervisor_restart_p95_seconds`` is the
    nearest-rank p95 of every supervisor restart in the ``shard`` runs.
    ``ok`` needs every run ok and that p95 within
    :data:`MAX_SUPERVISOR_RESTART_P95_SECONDS`.
    """
    restarts = _mttr_summary(
        [s for run in runs for s in run["scenarios"]["shard"]["restart_seconds"]]
    )
    restart_p95 = restarts["p95_seconds"] if restarts is not None else None
    return {
        "ok": all(run["ok"] for run in runs)
        and (
            restart_p95 is None
            or restart_p95 <= MAX_SUPERVISOR_RESTART_P95_SECONDS
        ),
        "total_faults_injected": sum(
            sum(run["scenarios"][name]["faults_injected"].values())
            for run in runs
            for name in ("session", "client")
        ),
        "mttr": {
            name: _mttr_summary(
                [
                    run["mttr_seconds"][name]
                    for run in runs
                    if run["mttr_seconds"][name] is not None
                ]
            )
            for name in SCENARIOS
        },
        "supervisor_restart_p95_seconds": restart_p95,
    }


def run_chaos_campaign(
    seeds: Sequence[int] = (0, 1, 2),
    *,
    domain: str = "demo",
    durable_dir: Optional[str] = None,
    sessions: int = 4,
    crowd_size: int = 6,
    sample_size: int = 3,
    max_runtime: float = 30.0,
) -> Dict[str, Any]:
    """Run every scenario for each seed; aggregate the verdict and MTTR.

    The sizes apply to every scenario (:func:`run_scenario`);
    ``durable_dir`` gets one subdirectory per seed.
    """
    runs = []
    for seed in seeds:
        scenarios = {
            name: run_scenario(
                name,
                seed=seed,
                domain=domain,
                sessions=sessions,
                crowd_size=crowd_size,
                sample_size=sample_size,
                max_runtime=max_runtime,
                durable_dir=(
                    f"{durable_dir}/seed-{seed}" if durable_dir is not None else None
                ),
            )
            for name in SCENARIOS
        }
        violations = [
            f"{name}: {violation}"
            for name, report in scenarios.items()
            for violation in report["violations"]
        ]
        runs.append(
            {
                "seed": seed,
                "domain": domain,
                "scenarios": scenarios,
                "mttr_seconds": {
                    name: report["mttr_seconds"]
                    for name, report in scenarios.items()
                },
                "ok": not violations,
                "violations": violations,
            }
        )
    return {
        "domain": domain,
        "seeds": list(seeds),
        **summarize_runs(runs),
        "runs": runs,
    }
