"""ShardCoordinator: query lifecycle over a fleet of shard processes.

The coordinator owns everything per-query — parsing, the lazy assignment
lattice, classification state, aggregator and :class:`~repro.mining.
trace.MspTracker` — by driving one ordinary
:class:`~repro.engine.queue_manager.QueueManager` per session with a
single *virtual member*.  Where a real member would answer a pending
question, the coordinator splits the node's ``sample_size`` answer quota
across shard processes (proportional to their consistent-hash member
partitions), ships asks over the length-prefixed protocol, and feeds the
returned per-member support answers back through
:meth:`~repro.engine.queue_manager.QueueManager.preload` — the exact
entry point snapshot-resume uses.  Every inference, verdict and MSP
confirmation therefore runs the same proven code as the serial and
threaded paths, which is what makes the serial-MSP-identity oracle hold
for every shard count.

Concurrency model: the coordinator is a **single-threaded event loop**
(dispatch → select → merge); it holds no locks at all.  Parallelism
lives in the shard processes, each of which owns its member partition
exclusively.  Backpressure is a per-shard cap on outstanding asks;
batching groups asks into one frame up to ``batch_size``.

Failure story (see ``docs/SHARDING.md`` and ``docs/RELIABILITY.md``):
:meth:`kill_shard` + :meth:`restore_shard` implement the chaos
campaign's kill-one-shard → WAL-restore cycle.  Asks in flight at the
dead shard are re-sent after restore; the stable per-node ``qid`` makes
the restored shard select the *same* members, whose answers its
replayed WAL already holds, so recovery never recomputes and never
diverges.  With a :class:`~repro.service.supervisor.ShardSupervisor`
attached, death detection and restart become *automatic*: a socket EOF,
a torn frame, a dead process or a missed heartbeat routes through
:meth:`_on_shard_failure` to the supervisor instead of raising, and the
supervisor restarts the shard (WAL replay) or — after bounded restart
failures — retires it via :meth:`degrade`, re-hashing its members onto
survivors through the ring's churn path.  :meth:`abort` is the
coordinator-crash fault: hard teardown with no shutdown handshake, so a
rebuilt coordinator over the same ``durable_dir`` proves WAL recovery.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal
import socket
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from collections import deque

from ...datasets.base import DomainDataset
from ...engine.engine import OassisEngine
from ...engine.queue_manager import PendingQuestion, QueueManager
from ...observability import count as _obs_count, span as _obs_span
from .closures import SharedClosures
from .hashring import DEFAULT_REPLICAS, HashRing, split_quota
from .protocol import (
    ProtocolError,
    Runs,
    ask_batch_frame,
    ask_entry,
    ping_frame,
    recv_frame,
    reshard_frame,
    runs_total,
    send_frame,
    shutdown_frame,
)
from .worker import STAT_KEYS, member_ids, shard_main

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from ..supervisor import ShardSupervisor

#: the coordinator's single traversal identity inside each QueueManager
VIRTUAL_MEMBER = "shard-coordinator"


class _NodeAsk:
    """One node's fan-out: quota split, per-shard runs, merge state."""

    __slots__ = ("session_id", "node", "key", "qid", "facts", "starts", "waiting", "runs", "fed")

    def __init__(
        self,
        session_id: str,
        node: Any,
        key: str,
        qid: int,
        facts: List[List[str]],
        starts: Dict[int, int],
    ) -> None:
        self.session_id = session_id
        self.node = node
        self.key = key
        self.qid = qid
        self.facts = facts
        self.starts = starts
        self.waiting: Set[int] = set(starts)
        self.runs: Dict[int, Runs] = {}
        self.fed = False


class _ShardHandle:
    """Coordinator-side state of one shard process."""

    __slots__ = (
        "index",
        "spec",
        "process",
        "sock",
        "alive",
        "outstanding",
        "inflight",
        "members",
        "replayed",
        "stats",
        "last_seen",
        "ping_sent",
        "retired",
    )

    def __init__(self, index: int, spec: Dict[str, Any]) -> None:
        self.index = index
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.sock: Optional[socket.socket] = None
        self.alive = False
        self.outstanding = 0
        self.inflight: Set[int] = set()
        self.members = 0
        self.replayed = 0
        self.stats: Dict[str, int] = {}
        #: monotonic time of the last frame received (heartbeat liveness)
        self.last_seen = 0.0
        #: an unanswered ping as ``(seq, sent_at)``; None when quiet
        self.ping_sent: Optional[Tuple[int, float]] = None
        #: True once the supervisor gave up and rehashed this shard away
        self.retired = False


class _Session:
    """One query being mined through the shard fleet."""

    def __init__(self, session_id: str, query_text: str, queue: QueueManager) -> None:
        self.session_id = session_id
        self.query_text = query_text
        self.queue = queue
        self.answers = 0
        self.nodes = 0
        self.complete = False

    @property
    def state(self) -> str:
        return "completed" if self.complete else "open"


class ShardCoordinator:
    """Process-sharded crowd serving over one engine (``engine=``)."""

    def __init__(
        self,
        domain_dataset: DomainDataset,
        *,
        shards: int,
        crowd_size: int,
        sample_size: int,
        domain: str,
        seed: int = 0,
        engine: Optional[OassisEngine] = None,
        durable_dir: Optional[Union[str, Path]] = None,
        replicas: int = DEFAULT_REPLICAS,
        batch_size: int = 8,
        max_outstanding: int = 32,
        max_runtime: float = 120.0,
        spawn_timeout: float = 60.0,
        chaos_hook: Optional[Callable[["ShardCoordinator"], None]] = None,
        supervisor: Optional["ShardSupervisor"] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if sample_size < 1 or sample_size > crowd_size:
            raise ValueError("need 1 <= sample_size <= crowd_size")
        if batch_size < 1 or max_outstanding < 1:
            raise ValueError("batch_size and max_outstanding must be positive")
        self.dataset = domain_dataset
        self.domain = domain
        self.engine = engine if engine is not None else OassisEngine(domain_dataset.ontology)
        self.shards = shards
        self.crowd_size = crowd_size
        self.sample_size = sample_size
        self.seed = seed
        self.replicas = replicas
        self.batch_size = batch_size
        self.max_outstanding = max_outstanding
        self.max_runtime = max_runtime
        self.spawn_timeout = spawn_timeout
        self.durable_dir = Path(durable_dir) if durable_dir is not None else None
        self.ring = HashRing(shards, replicas)
        self.partitions = self.ring.partition(member_ids(crowd_size))
        self.quotas = split_quota(sample_size, [len(p) for p in self.partitions])
        self.chaos_hook = chaos_hook
        #: heartbeat monitor + auto-restart; None = PR 7 manual chaos
        self.supervisor = supervisor
        self.timed_out = False
        self.nodes_classified = 0
        self._ping_seq = 0
        self._started = False
        self._closed = False
        self._elapsed = 0.0
        self._closures: Optional[SharedClosures] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._selector = selectors.DefaultSelector()
        self._handles: List[_ShardHandle] = []
        self._sessions: Dict[str, _Session] = {}
        self._next_qid = 0
        self._qids: Dict[Tuple[str, str], int] = {}
        self._asks: Dict[int, Tuple[_Session, _NodeAsk]] = {}
        self._sendq: List[Deque[int]] = [deque() for _ in range(shards)]

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Export closures, spawn every shard and await their ready frames."""
        if self._started:
            return
        with _obs_span("shard.start"):
            self._closures = SharedClosures(self.dataset.ontology.vocabulary)
            for index in range(self.shards):
                self._handles.append(_ShardHandle(index, self._spec(index)))
                self._spawn(self._handles[index])
            for handle in self._handles:
                self._await_ready(handle)
        self._started = True

    def _spec(self, index: int) -> Dict[str, Any]:
        assert self._closures is not None
        wal: Optional[str] = None
        if self.durable_dir is not None:
            wal = str(self.durable_dir / f"shard-{index}.wal")
        return {
            "shard": index,
            "shards": self.shards,
            "replicas": self.replicas,
            "domain": self.domain,
            "seed": self.seed,
            "crowd_size": self.crowd_size,
            "closures": self._closures.name,
            "wal": wal,
        }

    def _spawn(self, handle: _ShardHandle) -> None:
        with _obs_span("shard.spawn"):
            parent_sock, child_sock = socket.socketpair()
            process = self._ctx.Process(
                target=shard_main,
                args=(handle.spec, child_sock),
                name=f"repro-shard-{handle.index}",
                daemon=True,
            )
            process.start()
            child_sock.close()
            handle.process = process
            handle.sock = parent_sock
            handle.alive = True
            handle.outstanding = 0
            handle.inflight = set()
            handle.last_seen = time.monotonic()
            handle.ping_sent = None
            self._selector.register(parent_sock, selectors.EVENT_READ, handle)
        _obs_count("shard.spawns")

    def _await_ready(self, handle: _ShardHandle) -> None:
        assert handle.sock is not None
        handle.sock.settimeout(self.spawn_timeout)
        try:
            frame = recv_frame(handle.sock)
        finally:
            handle.sock.settimeout(None)
        if frame is None or frame.get("t") != "ready":
            raise RuntimeError(f"shard {handle.index} failed to come up: {frame!r}")
        handle.members = int(frame["members"])
        handle.replayed = int(frame["replayed"])
        if handle.members != len(self.partitions[handle.index]):
            raise RuntimeError(
                f"shard {handle.index} computed a partition of "
                f"{handle.members} members; coordinator expected "
                f"{len(self.partitions[handle.index])}"
            )
        _obs_count("shard.wal.replayed", handle.replayed)
        _obs_count("shard.closure.compiles", int(frame["compiles"]))

    # -------------------------------------------------------------- sessions

    def create_session(self, query_text: str, session_id: str) -> _Session:
        """Open a session; the query is parsed and its lattice built here."""
        if session_id in self._sessions:
            raise ValueError(f"duplicate session id {session_id!r}")
        queue = self.engine.queue_manager(query_text, sample_size=self.sample_size)
        queue.register_member(VIRTUAL_MEMBER)
        session = _Session(session_id, query_text, queue)
        self._sessions[session_id] = session
        _obs_count("shard.sessions.created")
        return session

    def sessions(self) -> List[_Session]:
        return list(self._sessions.values())

    # ------------------------------------------------------------------ serve

    def serve(self) -> None:
        """Drive every open session to completion (the event loop)."""
        if not self._started:
            self.start()
        started = time.monotonic()
        deadline = started + self.max_runtime
        with _obs_span("shard.serve"):
            while True:
                if self.chaos_hook is not None:
                    self.chaos_hook(self)
                if self.supervisor is not None:
                    self.supervisor.tick(self)
                progressed = self._dispatch()
                if self._check_complete():
                    break
                drained = self._drain(timeout=0.0 if progressed else 0.05)
                if self._check_complete():
                    break
                if not progressed and not drained and time.monotonic() >= deadline:
                    self.timed_out = True
                    _obs_count("shard.serve.timeouts")
                    break
        self._elapsed += time.monotonic() - started

    def _dispatch(self) -> bool:
        """Pull fresh nodes from sessions and flush per-shard batches."""
        progressed = False
        high_water = self.max_outstanding * max(1, len(self._handles))
        for session in self._sessions.values():
            if session.complete:
                continue
            while self._queued() < high_water:
                batch = session.queue.next_batch(
                    VIRTUAL_MEMBER, self.batch_size, fresh_only=True
                )
                if not batch:
                    break
                for pending in batch:
                    self._enqueue(session, pending)
                    progressed = True
                if len(batch) < self.batch_size:
                    break
        for handle in self._handles:
            progressed = self._flush(handle) or progressed
        return progressed

    def _queued(self) -> int:
        return sum(len(q) for q in self._sendq) + sum(
            h.outstanding for h in self._handles
        )

    def _enqueue(self, session: _Session, pending: PendingQuestion) -> None:
        key = repr(pending.assignment)
        qid = self._qids.get((session.session_id, key))
        if qid is None:
            qid = self._next_qid
            self._next_qid += 1
            self._qids[(session.session_id, key)] = qid
        assert pending.fact_set is not None
        facts = [
            [fact.subject.name, fact.relation.name, fact.obj.name]
            for fact in sorted(pending.fact_set)
        ]
        starts = {
            shard: qid % len(self.partitions[shard])
            for shard, quota in enumerate(self.quotas)
            if quota > 0
        }
        ask = _NodeAsk(session.session_id, pending.assignment, key, qid, facts, starts)
        self._asks[qid] = (session, ask)
        session.nodes += 1
        for shard in ask.waiting:
            self._sendq[shard].append(qid)
        _obs_count("shard.nodes.asked")

    def _flush(self, handle: _ShardHandle) -> bool:
        """Send queued asks to one shard, respecting the outstanding cap."""
        if not handle.alive or handle.sock is None:
            return False
        queue = self._sendq[handle.index]
        sent = False
        while queue and handle.outstanding < self.max_outstanding:
            entries: List[Dict[str, Any]] = []
            while (
                queue
                and handle.outstanding + len(entries) < self.max_outstanding
                and len(entries) < self.batch_size
            ):
                qid = queue.popleft()
                record = self._asks.get(qid)
                if record is None:
                    continue
                _, ask = record
                entries.append(
                    ask_entry(
                        ask.qid,
                        ask.key,
                        ask.facts,
                        ask.starts[handle.index],
                        self.quotas[handle.index],
                    )
                )
                handle.inflight.add(qid)
            if not entries:
                break
            try:
                send_frame(handle.sock, ask_batch_frame(entries))
            except OSError as error:
                # the shard died under us mid-write; its inflight set
                # already holds these qids, so a restore re-sends them
                self._on_shard_failure(handle, f"ask write failed: {error}")
                return sent
            handle.outstanding += len(entries)
            sent = True
            _obs_count("shard.batches.sent")
            _obs_count("shard.asks.sent", len(entries))
        if queue and handle.outstanding >= self.max_outstanding:
            _obs_count("shard.backpressure.deferred", len(queue))
        return sent

    def _drain(self, timeout: float) -> bool:
        """Receive and merge every ready delta; True when any arrived."""
        drained = False
        events = self._selector.select(timeout)
        for selector_key, _ in events:
            handle = selector_key.data
            if not isinstance(handle, _ShardHandle) or not handle.alive:
                continue
            assert handle.sock is not None
            try:
                frame = recv_frame(handle.sock)
            except ProtocolError as error:
                self._on_shard_failure(handle, f"torn frame: {error}")
                continue
            if frame is None:
                self._on_shard_failure(handle, "connection closed")
                continue
            handle.last_seen = time.monotonic()
            kind = frame["t"]
            if kind == "delta":
                self._on_delta(handle, frame)
                drained = True
            elif kind == "pong":
                handle.ping_sent = None
            elif kind == "resharded":
                handle.members = int(frame["members"])
            else:
                raise ProtocolError(
                    f"unexpected {kind!r} frame from shard {handle.index}"
                )
        return drained

    def _on_shard_failure(self, handle: _ShardHandle, reason: str) -> None:
        """A shard's socket or process failed mid-serve.

        Without a supervisor this is fatal, exactly the PR 7 behavior.
        With one, the handle is torn down and the death is reported; the
        supervisor's next tick restarts the shard or degrades around it.
        """
        if self.supervisor is None:
            raise RuntimeError(
                f"shard {handle.index} exited unexpectedly ({reason})"
            )
        self._mark_dead(handle)
        self.supervisor.record_death(handle.index, reason)

    def _mark_dead(self, handle: _ShardHandle) -> None:
        """Tear one shard's handle down (idempotent; kills a live process)."""
        if handle.sock is not None:
            try:
                self._selector.unregister(handle.sock)
            except (KeyError, ValueError):
                pass  # selector already forgot it (double teardown)
            handle.sock.close()
            handle.sock = None
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=self.spawn_timeout)
        handle.alive = False
        handle.ping_sent = None

    def _on_delta(self, handle: _ShardHandle, frame: Dict[str, Any]) -> None:
        qid = int(frame["qid"])
        handle.outstanding = max(0, handle.outstanding - 1)
        handle.inflight.discard(qid)
        _obs_count("shard.deltas.received")
        record = self._asks.get(qid)
        if record is None:
            _obs_count("shard.deltas.stale")
            return
        session, ask = record
        shard = int(frame["shard"])
        if shard not in ask.waiting:
            _obs_count("shard.deltas.stale")
            return
        runs: Runs = [[float(s), int(c)] for s, c in frame["runs"]]
        if runs_total(runs) != self.quotas[shard]:
            raise ProtocolError(
                f"shard {shard} returned {runs_total(runs)} answers for "
                f"qid {qid}; quota is {self.quotas[shard]}"
            )
        ask.runs[shard] = runs
        ask.waiting.discard(shard)
        if not ask.waiting and not ask.fed:
            self._feed(session, ask)

    def _feed(self, session: _Session, ask: _NodeAsk) -> None:
        """Merge a completed node's answers into the session's queue.

        Answers are replayed through ``preload`` (aggregator + verdict +
        tracker), then the virtual member's traversal is advanced by
        marking the node answered with the aggregator's decision average
        and returning it to the stack — the next ``next_batch`` consumes
        it as answered and expands its successors iff significant.
        """
        queue = session.queue
        merged = 0
        for shard in sorted(ask.runs):
            partition = self.partitions[shard]
            start = ask.starts[shard]
            offset = 0
            for support, count in ask.runs[shard]:
                for _ in range(int(count)):
                    member = partition[(start + offset) % len(partition)]
                    queue.preload(ask.node, member, float(support))
                    offset += 1
                    merged += 1
        average = queue.aggregator.average_support(ask.node)
        queue.mark_answered(VIRTUAL_MEMBER, ask.node, average)
        queue.expire_pending(VIRTUAL_MEMBER, ask.node)
        ask.fed = True
        session.answers += merged
        self.nodes_classified += 1
        self._asks.pop(ask.qid, None)
        _obs_count("shard.answers.merged", merged)
        _obs_count("shard.nodes.classified")

    def _check_complete(self) -> bool:
        all_complete = True
        for session in self._sessions.values():
            if session.complete:
                continue
            queue = session.queue
            if queue.has_pending() or queue.has_fresh_work(VIRTUAL_MEMBER):
                all_complete = False
                continue
            session.complete = True
            _obs_count("shard.sessions.completed")
        return all_complete

    # --------------------------------------------------------- chaos surface

    def kill_shard(self, index: int) -> None:
        """Hard-kill one shard process (the chaos campaign's fault)."""
        handle = self._handles[index]
        if not handle.alive:
            return
        self._mark_dead(handle)
        _obs_count("shard.kills")

    def hang_shard(self, index: int) -> None:
        """SIGSTOP one shard: alive process, dead protocol (the hang fault).

        Only the heartbeat can catch this — the socket stays open and
        the process stays "alive", but pings go unanswered until the
        supervisor declares it unresponsive and kills it for real.
        """
        handle = self._handles[index]
        if not handle.alive or handle.process is None or handle.process.pid is None:
            return
        os.kill(handle.process.pid, signal.SIGSTOP)

    def restore_shard(self, index: int) -> int:
        """Respawn a killed shard on its WAL; re-send its lost asks.

        Returns the number of asks re-sent.  The restored worker replays
        its journal before its ready frame, so the re-asks are served
        from memory — the WAL-restore path of ``docs/SHARDING.md``.
        """
        handle = self._handles[index]
        if handle.alive or handle.retired:
            return 0
        lost = sorted(handle.inflight)
        with _obs_span("shard.restore"):
            self._spawn(handle)
            self._await_ready(handle)
        reasks = 0
        for qid in lost:
            record = self._asks.get(qid)
            if record is None:
                continue
            _, ask = record
            if not ask.fed and index in ask.waiting:
                self._sendq[index].append(qid)
                reasks += 1
        _obs_count("shard.restores")
        _obs_count("shard.asks.resent", reasks)
        return reasks

    def ping_shard(self, index: int) -> bool:
        """Send a heartbeat probe; False when the write itself failed."""
        handle = self._handles[index]
        if not handle.alive or handle.sock is None:
            return False
        self._ping_seq += 1
        try:
            send_frame(handle.sock, ping_frame(self._ping_seq))
        except OSError as error:
            self._on_shard_failure(handle, f"ping write failed: {error}")
            return False
        handle.ping_sent = (self._ping_seq, time.monotonic())
        return True

    def degrade(self, index: int) -> int:
        """Retire a dead shard and re-hash its members onto survivors.

        The alive-aware ring recomputes partitions (only the retired
        shard's members move — the churn property), quotas are re-split,
        survivors get a ``reshard`` frame, and every not-yet-fed ask is
        re-planned under a *fresh* qid so any delta still in flight for
        the old plan drops on the existing stale path instead of
        tripping the quota check.  Returns the member count re-hashed.
        """
        handle = self._handles[index]
        if handle.retired:
            return 0
        if handle.alive:
            self._mark_dead(handle)
        handle.retired = True
        alive = {
            h.index for h in self._handles if h.alive and not h.retired
        }
        if not alive:
            raise RuntimeError("no living shards left to degrade onto")
        moved = len(self.partitions[index])
        self.partitions = self.ring.partition(
            member_ids(self.crowd_size), alive
        )
        self.quotas = split_quota(
            self.sample_size, [len(p) for p in self.partitions]
        )
        for survivor in self._handles:
            if survivor.alive and survivor.sock is not None:
                try:
                    send_frame(
                        survivor.sock,
                        reshard_frame(
                            sorted(alive), self.quotas[survivor.index]
                        ),
                    )
                except OSError as error:
                    self._on_shard_failure(
                        survivor, f"reshard write failed: {error}"
                    )
        replan = [
            (session, ask)
            for session, ask in self._asks.values()
            if not ask.fed
        ]
        self._asks.clear()
        for queue in self._sendq:
            queue.clear()
        for h in self._handles:
            h.inflight.clear()
            h.outstanding = 0
        for session, ask in replan:
            qid = self._next_qid
            self._next_qid += 1
            self._qids[(session.session_id, ask.key)] = qid
            starts = {
                shard: qid % len(self.partitions[shard])
                for shard, quota in enumerate(self.quotas)
                if quota > 0
            }
            fresh = _NodeAsk(
                session.session_id, ask.node, ask.key, qid, ask.facts, starts
            )
            self._asks[qid] = (session, fresh)
            for shard in fresh.waiting:
                self._sendq[shard].append(qid)
        return moved

    def alive_shards(self) -> List[int]:
        return [h.index for h in self._handles if h.alive]

    def retired_shards(self) -> List[int]:
        return [h.index for h in self._handles if h.retired]

    def abort(self) -> None:
        """Simulate a coordinator crash: hard teardown, no handshakes.

        Kills every shard outright (no shutdown frame, no stats
        collection) and releases OS resources — the shard WALs under
        ``durable_dir`` are the only thing that survives, which is the
        point: a fresh coordinator built over the same directory must
        recover from them alone.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            self._mark_dead(handle)
        self._selector.close()
        if self._closures is not None:
            self._closures.unlink()
            self._closures = None

    # ------------------------------------------------------------------ close

    def close(self) -> None:
        """Shut every shard down cleanly and release shared memory."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if not handle.alive or handle.sock is None:
                continue
            try:
                send_frame(handle.sock, shutdown_frame())
                handle.sock.settimeout(self.spawn_timeout)
                while True:
                    frame = recv_frame(handle.sock)
                    if frame is None:
                        break
                    if frame["t"] == "stats":
                        handle.stats = {
                            name: int(frame["counters"].get(name, 0))
                            for name in STAT_KEYS
                        }
                        break
                    if frame["t"] == "delta":
                        self._on_delta(handle, frame)
            except (OSError, ProtocolError):
                _obs_count("shard.shutdown.errors")
            finally:
                self._selector.unregister(handle.sock)
                handle.sock.close()
                handle.sock = None
                handle.alive = False
            if handle.process is not None:
                handle.process.join(timeout=self.spawn_timeout)
        for name in STAT_KEYS:
            total = sum(h.stats.get(name, 0) for h in self._handles)
            _obs_count(f"shard.fleet.{name}", total)
        self._selector.close()
        if self._closures is not None:
            self._closures.unlink()
            self._closures = None

    def __enter__(self) -> "ShardCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- report

    def report(self) -> Dict[str, Any]:
        """A summary dict shaped like :meth:`ServiceRunner.run`'s report."""
        sessions: Dict[str, Dict[str, Any]] = {}
        total_answers = 0
        for session in self._sessions.values():
            total_answers += session.answers
            sessions[session.session_id] = {
                "state": session.state,
                "questions": session.answers,
                "msps": len(session.queue.current_msps()),
                "valid_msps": len(session.queue.current_valid_msps()),
            }
        settled = sum(1 for s in sessions.values() if s["state"] != "open")
        elapsed = self._elapsed
        return {
            "shards": self.shards,
            "elapsed_seconds": elapsed,
            "timed_out": self.timed_out,
            "sessions": sessions,
            "questions_answered": total_answers,
            "sessions_per_second": settled / elapsed if elapsed > 0 else 0.0,
            "questions_per_second": (
                total_answers / elapsed if elapsed > 0 else 0.0
            ),
            "partition_sizes": [len(p) for p in self.partitions],
            "quotas": list(self.quotas),
            "shard_stats": {
                str(handle.index): dict(handle.stats) for handle in self._handles
            },
            "wal_replayed": sum(h.replayed for h in self._handles),
            "retired_shards": self.retired_shards(),
            "supervisor": (
                self.supervisor.report() if self.supervisor is not None else None
            ),
        }
