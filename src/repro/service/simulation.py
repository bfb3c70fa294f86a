"""Multi-session crowd-serving simulations (CLI, benchmarks, tests).

Builds a crowd of *identical* deterministic members — same personal
database, no noise — and serves many sessions of one experiment domain
concurrently.  Identical members make the concurrent run's answer set
order-independent: any ``sample_size`` answers for a node average to the
same value, so the MSP set of every session must equal the MSP set of a
serial :meth:`~repro.engine.engine.OassisEngine.execute` run of the same
query — even with injected timeouts, drops and departures.  That identity
is the service layer's correctness oracle (``verify=True``).
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..crowd.cache import CrowdCache
from ..crowd.journal import DurableCrowdCache
from ..crowd.member import CrowdMember
from ..datasets import culinary, health, running_example, travel
from ..datasets.base import DomainDataset
from ..engine.engine import OassisEngine
from ..faults.plan import FaultPlan
from .runner import MemberScript, ServiceRunner, VirtualClock


class _DemoDataset:
    """The Figure 3 fragment lattice as a fast simulation domain.

    The three paper domains mine thousands of questions per session —
    right for benchmarks, too slow for unit tests and smoke runs.  This
    shim serves the running example's fragment query (a few dozen
    assignments) through the same ``DomainDataset`` surface.
    """

    name = "demo"
    #: no planted patterns and no MORE candidates: the crowd is one database
    patterns = ()
    more_pool = ()
    _template = running_example.FRAGMENT_QUERY.replace(
        "SUPPORT = 0.4", "SUPPORT = {threshold}"
    )

    def __init__(self) -> None:
        self.ontology = running_example.build_ontology()
        self._database = running_example.build_personal_databases()["u1"]

    def query(self, threshold: float = 0.4) -> str:
        return self._template.format(threshold=threshold)

    def build_crowd(self, size: int = 1, seed: int = 0, **_: object) -> List[CrowdMember]:
        return [
            CrowdMember(f"u{index}", self._database, self.ontology.vocabulary)
            for index in range(size)
        ]


DOMAINS = {
    "demo": _DemoDataset,
    "travel": travel.build_dataset,
    "culinary": culinary.build_dataset,
    "health": health.build_dataset,
}

#: session thresholds cycle through these (distinct workloads per session)
DEFAULT_THRESHOLDS = (0.2, 0.3, 0.4, 0.5)


def check_sample_size(crowd_size: int, sample_size: int) -> None:
    """Raise ValueError unless ``crowd_size`` members can fill a sample of
    ``sample_size``: with fewer, no node ever gets a verdict."""
    if not 1 <= sample_size <= crowd_size:
        raise ValueError("need 1 <= sample_size <= crowd_size")


def build_identical_crowd(
    dataset: DomainDataset, size: int, seed: int = 0, prefix: str = "m"
) -> List[CrowdMember]:
    """``size`` members sharing one sampled personal database.

    All behaviour knobs are zeroed (no noise, no specialization opt-in,
    no pruning clicks), so every member answers every question with the
    same deterministic support value.
    """
    prototype = dataset.build_crowd(
        size=1,
        seed=seed,
        noise=0.0,
        specialization_ratio=0.0,
        pruning_ratio=0.0,
        more_tip_ratio=0.0,
    )[0]
    vocabulary = dataset.ontology.vocabulary
    return [
        CrowdMember(f"{prefix}{index}", prototype.database, vocabulary)
        for index in range(size)
    ]


def run_simulation(
    *,
    domain: str = "demo",
    sessions: int = 8,
    crowd_size: int = 6,
    sample_size: int = 3,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    question_timeout: float = 0.25,
    max_attempts: int = 3,
    backoff_base: float = 0.01,
    in_flight_limit: int = 4,
    batch_size: int = 2,
    drop_every: int = 0,
    departures: int = 0,
    depart_after: int = 6,
    max_runtime: float = 60.0,
    verify: bool = True,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
    durable_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
    checkpoint_every: int = 0,
    breaker_window: int = 0,
    breaker_cooldown: float = 0.05,
    audit: bool = False,
    _keep_handles: bool = False,
) -> Dict:
    """Serve ``sessions`` concurrent sessions of ``domain``; report stats.

    In-process serving runs the single-threaded :class:`ServiceRunner`
    loop on a :class:`VirtualClock`: ``question_timeout``,
    ``backoff_base`` and ``breaker_cooldown`` are virtual seconds, so a
    dropped question costs no wall time.

    ``drop_every`` makes every member ignore every n-th question (injected
    timeouts); ``departures`` makes that many members (the highest ids)
    leave after ``depart_after`` answers.  A ``sample_size`` outside
    ``1..crowd_size`` raises ValueError (:func:`check_sample_size`).  Keep
    ``crowd_size - departures >= sample_size`` or late nodes can starve
    below the aggregator's sample and stay unclassified (the documented
    graceful degradation — sessions still settle, with fewer MSPs).

    Robustness knobs (PR 5): ``faults`` injects a deterministic
    :class:`~repro.faults.plan.FaultPlan` through the manager and runner
    sites; ``durable_dir`` backs each session with a WAL journal
    (``<dir>/<session>.wal``); ``checkpoint_every`` additionally writes a
    session checkpoint (``<dir>/<session>.ckpt.json``) every N answers;
    ``breaker_window`` enables the per-member circuit breaker; ``audit``
    keeps a per-submission audit trail on the runner for invariant
    checks.

    With ``verify=True`` each session's MSP set is compared against a
    serial ``engine.execute`` of the same query over a fresh identical
    crowd (:func:`serial_mismatches`); mismatches are listed in the
    report and flip ``verified``.  The process-fleet counterpart is
    :func:`repro.service.shard.run_sharded_simulation`.
    """
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; pick from {sorted(DOMAINS)}")
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    check_sample_size(crowd_size, sample_size)
    if departures >= crowd_size:
        raise ValueError("at least one member must stay")
    if checkpoint_every > 0 and durable_dir is None:
        raise ValueError("checkpoint_every requires durable_dir")
    dataset = DOMAINS[domain]()
    engine = OassisEngine(dataset.ontology)
    manager = engine.session_manager(
        question_timeout=question_timeout,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        in_flight_limit=in_flight_limit,
        batch_size=batch_size,
        breaker_window=breaker_window,
        breaker_cooldown=breaker_cooldown,
        faults=faults,
        clock=VirtualClock(),
    )
    queries = {}
    caches: List[CrowdCache] = []
    for index in range(sessions):
        threshold = thresholds[index % len(thresholds)]
        session_id = f"{domain}-{index}"
        queries[session_id] = dataset.query(threshold)
        cache: Optional[CrowdCache] = None
        if durable_dir is not None:
            cache = DurableCrowdCache(Path(durable_dir) / f"{session_id}.wal")
            caches.append(cache)
        session = manager.create_session(
            queries[session_id],
            session_id=session_id,
            sample_size=sample_size,
            cache=cache,
        )
        if checkpoint_every > 0 and durable_dir is not None:
            session.enable_checkpoints(
                Path(durable_dir) / f"{session_id}.ckpt.json",
                every=checkpoint_every,
            )
    members = build_identical_crowd(dataset, crowd_size, seed=seed)
    scripts = []
    for index, member in enumerate(members):
        departing = index >= crowd_size - departures
        scripts.append(
            MemberScript(
                member,
                drop_every=drop_every,
                depart_after=depart_after if departing else None,
            )
        )
    runner = ServiceRunner(
        manager,
        scripts,
        max_runtime=max_runtime,
        faults=faults,
        audit=audit,
    )
    try:
        report = runner.run()
    finally:
        for cache in caches:
            if isinstance(cache, DurableCrowdCache):
                cache.close()
    report["domain"] = domain
    report["crowd_size"] = crowd_size
    report["sample_size"] = sample_size
    if breaker_window > 0:
        report["breaker_opened"] = manager.breaker_opened_counts()
    if audit:
        report["audit_entries"] = len(runner.audit or [])
    if verify:
        report["mismatches"] = serial_mismatches(
            domain,
            {
                session.session_id: (
                    queries[session.session_id],
                    [repr(a) for a in session.msps()],
                )
                for session in manager.sessions()
            },
            crowd_size=crowd_size,
            sample_size=sample_size,
            seed=seed,
        )
        report["verified"] = not report["mismatches"]
    if _keep_handles:
        # for invariant auditors (repro.faults.chaos): live objects, so
        # callers must pop these before serializing the report
        report["_manager"] = manager
        report["_runner"] = runner
    return report


def serial_mismatches(
    domain: str,
    served: Mapping[str, Tuple[str, Iterable[str]]],
    *,
    crowd_size: int,
    sample_size: int,
    seed: int,
) -> List[Dict[str, Any]]:
    """Sessions whose MSP set differs from a serial run of their query.

    ``served`` maps each session id to its query text and the MSP reprs
    the serving path reached.  The oracle is
    :meth:`~repro.engine.engine.OassisEngine.execute` over a fresh
    identical crowd of ``crowd_size`` (:func:`build_identical_crowd`),
    memoized per query text, so every serving path — the in-process
    loop, the shard fleet, the gateway and each chaos scenario — is held
    to the same serial MSP set.
    """
    mismatches: List[Dict[str, Any]] = []
    for session_id, (query, msps) in served.items():
        expected = list(_serial_msps(domain, query, crowd_size, sample_size, seed))
        got = sorted(msps)
        if got != expected:
            mismatches.append(
                {"session": session_id, "expected": expected, "got": got}
            )
    return mismatches


@functools.lru_cache(maxsize=None)
def _serial_msps(
    domain: str, query: str, crowd_size: int, sample_size: int, seed: int
) -> Tuple[str, ...]:
    dataset = DOMAINS[domain]()
    baseline = build_identical_crowd(dataset, crowd_size, seed=seed, prefix="serial-m")
    result = OassisEngine(dataset.ontology).execute(
        query, baseline, sample_size=sample_size
    )
    return tuple(sorted(repr(a) for a in result.all_msps))
