"""Process-sharded simulations: the ``shards=N`` mode of ``run_simulation``.

Serves the same multi-session campaigns as
:func:`repro.service.simulation.run_simulation`, but through a
:class:`~repro.service.shard.coordinator.ShardCoordinator` fleet of
worker processes instead of a thread pool — the report keeps the same
shape (per-session states, questions, MSP counts, throughput) so the
CLI and benchmarks treat both modes interchangeably.

Correctness rides the identical oracle: with ``verify=True`` every
session's confirmed MSP set is compared against a serial
``engine.execute`` of the same query
(:func:`~repro.service.simulation.serial_mismatches`), exactly as the
in-process loop is verified.  Killing a shard or the coordinator
mid-serve is a scenario of :mod:`repro.faults.chaos`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union
import os

from ...datasets.base import DomainDataset
from .coordinator import ShardCoordinator


def run_sharded_simulation(
    *,
    domain: str = "demo",
    shards: int = 2,
    sessions: int = 8,
    crowd_size: int = 6,
    sample_size: int = 3,
    thresholds: Optional[Sequence[float]] = None,
    max_runtime: float = 120.0,
    verify: bool = True,
    seed: int = 0,
    durable_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
    batch_size: int = 8,
    max_outstanding: int = 32,
    verify_crowd_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Serve ``sessions`` concurrent sessions through ``shards`` processes.

    ``durable_dir`` gives every shard a WAL; a fleet started over the
    WALs of an earlier one replays them before serving.

    ``verify_crowd_size`` sizes the serial reference crowd of the oracle
    (default: ``crowd_size``).  With identical members the serial MSP set
    is crowd-size-invariant — any ``sample_size`` answers average to the
    same value — so large campaigns may verify against a smaller serial
    crowd without weakening the check, skipping the cost of building one
    ``MemberUser`` per member in ``engine.execute``.  Must still be
    ``>= sample_size``.
    """
    from ..simulation import DEFAULT_THRESHOLDS, DOMAINS, serial_mismatches

    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; pick from {sorted(DOMAINS)}")
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    serial_size = crowd_size if verify_crowd_size is None else verify_crowd_size
    if serial_size < sample_size:
        raise ValueError("verify_crowd_size must be at least sample_size")
    cycle = tuple(thresholds) if thresholds is not None else DEFAULT_THRESHOLDS
    dataset: DomainDataset = DOMAINS[domain]()
    coordinator = ShardCoordinator(
        dataset,
        shards=shards,
        crowd_size=crowd_size,
        sample_size=sample_size,
        domain=domain,
        seed=seed,
        durable_dir=durable_dir,
        batch_size=batch_size,
        max_outstanding=max_outstanding,
        max_runtime=max_runtime,
    )
    queries: Dict[str, str] = {}
    try:
        coordinator.start()
        for index in range(sessions):
            threshold = cycle[index % len(cycle)]
            session_id = f"{domain}-{index}"
            queries[session_id] = dataset.query(threshold)
            coordinator.create_session(queries[session_id], session_id)
        coordinator.serve()
    finally:
        # stats frames are collected at close, so close before reporting
        coordinator.close()
    report = coordinator.report()
    report["domain"] = domain
    report["crowd_size"] = crowd_size
    report["sample_size"] = sample_size
    if verify:
        report["mismatches"] = serial_mismatches(
            domain,
            {
                session.session_id: (
                    queries[session.session_id],
                    [repr(a) for a in session.queue.current_msps()],
                )
                for session in coordinator.sessions()
            },
            crowd_size=serial_size,
            sample_size=sample_size,
            seed=seed,
        )
        report["verified"] = not report["mismatches"]
    return report

