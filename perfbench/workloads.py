"""The benchmark's workload process: set up, run the timed phase, check.

``run.py`` starts this file in a fresh interpreter for every measurement,
with ``PYTHONHASHSEED`` derived from the workload seed, and reads the one
JSON object it prints last.  Usage::

    PYTHONPATH=src PYTHONHASHSEED=N python perfbench/workloads.py \\
        WORKLOAD SEED SECONDS MODE

``MODE`` is ``setup`` (set up, report the set-up time, tear down),
``measure`` (execute every unit ``ROUNDS`` times, untraced), ``once``
(execute every unit once, untraced) or ``traced`` (the same with
:mod:`layers` installed, behind the per-layer metrics).

A workload is ``units`` fixed units of work (a crowd, a DAG, a set of
sessions) sized to ``SECONDS``:
``max(1, round(SECONDS / (ROUNDS * unit_seconds)))``.  A seed and a
length therefore fix the inputs, and the questions asked, exactly.  The
rounds are interleaved (unit 0, 1, ..., then unit 0 again), every
execution starts from fresh state, and the report gives each execution's
figures, with the machine probe's readings around it; ``run.py`` pools
them.
"""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import SELF_LAYERS, QuestionClock, Tracer, install
from oracles import check_identity, check_planted, check_travel_batch
from probe import machine_probe

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space for journals and WALs, inside the checkout
WORK_ROOT = os.path.join(os.path.dirname(HERE), ".perfbench")


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th unit of a run (units never share inputs)."""
    return seed * 1000 + index


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of another process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rep:
    """What one timed execution of a unit measured."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.questions = 0
        self.gaps: List[float] = []
        self.first: List[float] = []
        #: session or unit id -> sorted MSP reprs
        self.msps: Dict[str, List[str]] = {}
        #: traced figures, captured as the timed section ends
        self.figures: Optional[Dict[str, Any]] = None
        #: machine probe seconds just before and just after (probe.py)
        self.probe: List[float] = []

    def report(self) -> Dict[str, Any]:
        """This execution's figures, JSON-ready; gaps sorted."""
        return {
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "questions": self.questions,
            "gaps": sorted(self.gaps),
            "first": self.first,
            "probe_s": self.probe,
        }


def _merged(total: Any, part: Any) -> Any:
    """Figures summed key by key (numbers, lists of numbers, dicts)."""
    if total is None:
        return json.loads(json.dumps(part))
    if isinstance(part, dict):
        for key, value in part.items():
            total[key] = _merged(total.get(key), value)
        return total
    if isinstance(part, list):
        return [a + b for a, b in zip(total, part)]
    return total + part


class Workload:
    """``setup`` → ``execute`` (→ ``prepare`` → ``execute`` …) → ``check``."""

    name = ""
    unit_seconds = 1.0
    #: executions of every unit in a measured run
    ROUNDS = 3
    #: layers and counters traced in this process (None = all of them)
    traced_here: Optional[Tuple[str, ...]] = None
    #: run on one CPU, with the machine probe (see ``probe.py``) on the
    #: CPU that does the work
    ONE_CPU = True

    def __init__(self, seed: int, seconds: float, tracer: Optional[Tracer]) -> None:
        if self.ONE_CPU:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.seed = seed
        self.units = max(1, round(seconds / (self.ROUNDS * self.unit_seconds)))
        self.tracer = tracer
        self.attempted = 0
        self.failures: List[str] = []
        self.peak_rss_mb = 0.0
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK_ROOT)

    def setup(self) -> None:
        """Everything before the first timed operation (unit 0 prepared)."""
        raise NotImplementedError

    def prepare(self, unit: int) -> None:
        """Fresh state for executing ``unit`` (not timed)."""

    def execute(self, unit: int) -> Rep:
        """One timed execution of ``unit``; then collect its outputs.

        Outputs the oracles need after the run are kept small, so that
        the heap, and the collector's work, do not grow from one
        execution to the next.
        """
        raise NotImplementedError

    def check(self, executions: Sequence[Rep]) -> None:
        """The oracles still to run once every execution is done."""

    def figures(self) -> Dict[str, Any]:
        """The traced figures of this process."""
        assert self.tracer is not None
        return {"system": self.tracer.snapshot(), "client": None}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fail(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        self.failures.extend(problems)


# --------------------------------------------------------------- batch


class TravelBatch(Workload):
    """``OassisEngine.execute`` of the travel query over seeded crowds.

    Every unit is a crowd of ``CROWD`` members with the paper's behaviour
    ratios, from ``build_crowd``.  The question count of one travel run
    moves by about 13% between crowds, so a run executes several small
    crowds rather than one large one.
    """

    name = "travel-batch"
    unit_seconds = 0.9
    THRESHOLD = 0.5
    CROWD = 6
    SAMPLE = 3

    def setup(self) -> None:
        from repro.crowd.aggregator import FixedSampleAggregator
        from repro.crowd.cache import CrowdCache
        from repro.datasets import travel
        from repro.engine.adapters import MemberUser
        from repro.engine.config import EngineConfig
        from repro.engine.engine import OassisEngine

        self._aggregator = FixedSampleAggregator
        self._cache = CrowdCache
        self.dataset = travel.build_dataset()
        self.engine = OassisEngine(
            self.dataset.ontology,
            config=EngineConfig(max_values_per_var=2, max_more_facts=1),
        )
        self.query = self.dataset.query(self.THRESHOLD)
        self.clock = QuestionClock()
        self.clock.hook(MemberUser, "support")
        self.clock.hook(MemberUser, "choose_specialization")
        self.space: Any = None
        self.prepare(0)

    def prepare(self, unit: int) -> None:
        # members keep answer state: every execution gets fresh ones
        self.crowd = self.dataset.build_crowd(size=self.CROWD, seed=sub_seed(self.seed, unit))

    def execute(self, unit: int) -> Rep:
        out, cache = Rep(), self._cache()
        self.clock.gaps, self.clock.first = out.gaps, out.first
        cpu_start, start = time.process_time(), time.perf_counter()
        self.clock.start()
        result = self.engine.execute(
            self.query,
            self.crowd,
            sample_size=self.SAMPLE,
            cache=cache,
            more_pool=self.dataset.more_pool,
        )
        out.wall, out.cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if self.tracer is not None:
            out.figures = self.figures()
        out.questions = result.questions
        out.msps = {f"unit{unit}": sorted(repr(a) for a in result.all_msps)}
        if self.space is None:
            self.space = self.engine.build_space(self.query, more_pool=self.dataset.more_pool)
        self.fail(
            check_travel_batch(
                result.all_msps,
                lambda node: cache.answers_for(node)[: self.SAMPLE],
                self.space.successors,
                lambda: self._aggregator(self.THRESHOLD, sample_size=self.SAMPLE),
            )
        )
        return out


class PaperDag(Workload):
    """``MultiUserMiner`` over a synthetic DAG of the paper's travel shape.

    Every unit is a DAG: width 1350, depth 7 and 170 roots give 4775
    nodes, 5% of them planted as MSPs.  Members are exact oracles of the
    planted significance.
    """

    name = "paper-dag"
    unit_seconds = 1.8
    MSP_SHARE = 0.05
    USERS = 5
    SAMPLE = 5

    def setup(self) -> None:
        from repro.crowd.aggregator import FixedSampleAggregator
        from repro.mining.multiuser import FunctionUser, MultiUserMiner
        from repro.synth.dag_gen import generate_dag
        from repro.synth.msp_placement import place_msps

        self._aggregator = FixedSampleAggregator
        self._miner = MultiUserMiner
        self._user = FunctionUser
        self.inputs = []
        for unit in range(self.units):
            seed = sub_seed(self.seed, unit)
            dag = generate_dag(width=1350, depth=7, root_count=170, seed=seed)
            planted = place_msps(dag, round(self.MSP_SHARE * len(dag)), seed=seed)
            self.inputs.append((dag, planted))
        self.clock = QuestionClock()
        self.clock.hook(FunctionUser, "support")

    def execute(self, unit: int) -> Rep:
        out = Rep()
        dag, planted = self.inputs[unit]
        users = [self._user(f"u{i}", planted.support) for i in range(self.USERS)]
        self.clock.gaps, self.clock.first = out.gaps, out.first
        cpu_start, start = time.process_time(), time.perf_counter()
        self.clock.start()
        miner = self._miner(dag, users, self._aggregator(0.5, sample_size=self.SAMPLE))
        result = miner.run()
        out.wall, out.cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if self.tracer is not None:
            out.figures = self.figures()
        out.questions = result.questions
        out.msps = {f"unit{unit}": sorted(repr(a) for a in result.msps)}
        self.fail(check_planted(result.msps, planted.msps))
        return out


# ------------------------------------------------------------- serving


def serial_msps(dataset: Any, thresholds: Sequence[float], crowd_size: int, seed: int,
                sample: int) -> Dict[float, List[str]]:
    """Serial ``execute`` over an identical crowd: the serving oracle."""
    from repro.engine.engine import OassisEngine
    from repro.service.simulation import build_identical_crowd

    engine = OassisEngine(dataset.ontology)
    expected: Dict[float, List[str]] = {}
    for threshold in sorted(set(thresholds)):
        crowd = build_identical_crowd(dataset, crowd_size, seed=seed, prefix="serial-m")
        result = engine.execute(dataset.query(threshold), crowd, sample_size=sample)
        expected[threshold] = sorted(repr(a) for a in result.all_msps)
    return expected


class Serving(Workload):
    """Shared shape of the two serving workloads.

    Concurrent travel sessions whose thresholds cycle, over identical
    members with sample size 3.  The members' one personal database is
    fixed (``CROWD_SEED``): a server or fleet start and a serial oracle
    per crowd would not fit in a run, and travel-batch already varies the
    crowd.  The seed sets the hash seed and the order of the sessions.
    """

    THRESHOLDS: Tuple[float, ...] = ()
    CROWD = 6
    CROWD_SEED = 0
    SAMPLE = 3

    def sessions(self, unit: int) -> List[Tuple[str, float]]:
        """The sessions of ``unit``: every threshold once, in seeded order."""
        order = list(self.THRESHOLDS)
        random.Random(sub_seed(self.seed, unit)).shuffle(order)
        return [(f"u{unit}t{threshold}", threshold) for threshold in order]

    def check(self, executions: Sequence[Rep]) -> None:
        expected = serial_msps(self.dataset, self.THRESHOLDS, self.CROWD, self.CROWD_SEED, self.SAMPLE)
        serial = {
            sid: expected[threshold]
            for unit in range(self.units)
            for sid, threshold in self.sessions(unit)
        }
        for execution in executions:
            for sid in sorted(execution.msps):
                self.fail(check_identity({sid: execution.msps[sid]}, {sid: serial[sid]}))


class _Wire:
    """The benchmark's one keep-alive HTTP connection to a gateway."""

    def __init__(self, port: int, tracer: Optional[Tracer]) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.requests = 0
        self.errors: List[str] = []
        if tracer is not None:
            # the client's round trips: the server's spans plus transport
            self._exchange = tracer.timed("gateway.client", self._exchange)  # type: ignore[method-assign]

    def call(self, method: str, path: str, payload: Optional[Dict[str, Any]] = None,
             token: Optional[str] = None) -> Tuple[Optional[Dict[str, Any]], float]:
        """One request: the decoded reply (None on non-2xx) and the round
        trip in seconds."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        status, raw, elapsed = self._exchange(method, path, body, headers)
        self.requests += 1
        if not 200 <= status < 300:
            self.errors.append(f"{method} {path}: HTTP {status} {raw[:200]!r}")
            return None, elapsed
        return json.loads(raw), elapsed

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  headers: Dict[str, str]) -> Tuple[int, bytes, float]:
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, raw, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


class GatewayTravel(Serving):
    """Travel sessions served by ``GatewayApp`` behind ``GatewayServer``.

    The server is its own process (``server.py``) with its journal on, a
    fresh one per execution.  This process is the only client: a closed
    loop on one keep-alive connection that answers for each member in
    turn, with ``wait=0``.
    """

    name = "gateway-travel"
    unit_seconds = 4.0
    ROUNDS = 5
    # ONE_CPU: client and server take turns on one connection, so on one
    # CPU each round trip is a plain context switch, not a cross-CPU
    # wake-up whose latency depends on the other tenants of the machine
    THRESHOLDS = (0.4, 0.5)
    traced_here = ("crowd.member", "crowd.support")

    def setup(self) -> None:
        from repro.datasets import travel

        self.dataset = travel.build_dataset()
        self.server: Optional[subprocess.Popen] = None
        self.wire: Optional[_Wire] = None
        self.served = 0
        self.prepare(0)

    def prepare(self, unit: int) -> None:
        from repro.gateway.schema import ActivateRequest, JoinRequest
        from repro.service.simulation import build_identical_crowd

        self._stop_server()
        self.served += 1
        self.journal = os.path.join(self.work, f"gateway-{self.served}.journal")
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), self.journal,
             "1" if self.tracer is not None else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._server_line()
        if not ready.startswith("ready "):
            raise RuntimeError(f"gateway server failed to start: {ready!r}")
        self.wire = _Wire(int(ready.split()[1]), self.tracer)
        reply, _ = self.wire.call("POST", "/datasets/activate", ActivateRequest("travel").to_wire())
        if reply is None:
            raise RuntimeError(f"activation failed: {self.wire.errors}")
        self.members = build_identical_crowd(self.dataset, self.CROWD, seed=self.CROWD_SEED)
        self.tokens: Dict[str, str] = {}
        for member in self.members:
            joined, _ = self.wire.call("POST", "/join", JoinRequest(member.member_id).to_wire())
            if joined is None:
                raise RuntimeError(f"join failed: {self.wire.errors}")
            self.tokens[member.member_id] = joined["token"]

    def _server_line(self) -> str:
        assert self.server is not None and self.server.stdout is not None
        return self.server.stdout.readline().strip()

    def _command(self, command: str) -> str:
        assert self.server is not None and self.server.stdin is not None
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return self._server_line()

    def execute(self, unit: int) -> Rep:
        from repro.crowd.questions import ConcreteQuestion
        from repro.gateway.schema import (
            AnswerRequest,
            QueryRequest,
            QuestionBatch,
            ResultResponse,
            facts_from_wire,
        )

        assert self.server is not None and self.wire is not None
        out, wire = Rep(), self.wire
        self._command("reset")
        wire.requests = 0
        server_cpu = proc_cpu_seconds(self.server.pid)
        start = time.perf_counter()
        for sid, threshold in self.sessions(unit):
            request = QueryRequest(query=None, threshold=threshold,
                                   sample_size=self.SAMPLE, session_id=sid)
            _, elapsed = wire.call("POST", "/query", request.to_wire())
            out.first.append(elapsed)
        # a member's gap: the round trips of its own requests between
        # answering one question and holding the next
        waited = {member.member_id: 0.0 for member in self.members}
        holding = {member.member_id: False for member in self.members}
        polls = empty = answers = 0
        progressed = True
        while progressed and not wire.errors:
            progressed = False
            for member in self.members:
                mid, token = member.member_id, self.tokens[member.member_id]
                reply, elapsed = wire.call("GET", "/next?wait=0", token=token)
                polls += 1
                waited[mid] += elapsed
                if reply is None:
                    break
                batch = QuestionBatch.from_wire(reply)
                if not batch.questions:
                    empty += 1
                    continue
                progressed = True
                for question in batch.questions:
                    if holding[mid]:
                        out.gaps.append(waited[mid])
                    holding[mid] = True
                    answer = member.answer_concrete(
                        ConcreteQuestion(question.qid, facts_from_wire(question.facts))
                    )
                    request = AnswerRequest(question.qid, answer.support,
                                            idempotency_key=f"{mid}:{question.qid}")
                    answered, elapsed = wire.call("POST", "/answer", request.to_wire(), token=token)
                    waited[mid] = elapsed
                    answers += 1
                    if answered is not None and answered.get("outcome") != "recorded":
                        self.failures.append(f"answer {question.qid}: {answered.get('outcome')}")
        out.wall = time.perf_counter() - start
        out.cpu = proc_cpu_seconds(self.server.pid) - server_cpu
        report = json.loads(self._command("report"))
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        if self.tracer is not None:
            out.figures = {
                "system": report["trace"],
                "client": self.tracer.snapshot(),
                "requests": wire.requests,
                "journal_bytes": report["journal_bytes"],
                "polls": polls,
                "empty_polls": empty,
            }
        self.attempted += wire.requests
        self.failures.extend(wire.errors)
        for sid, _ in self.sessions(unit):
            reply, _ = wire.call("GET", f"/result?session={sid}")
            if reply is None:
                self.fail([f"no result for session {sid}: {wire.errors[-1:]}"])
                continue
            result = ResultResponse.from_wire(reply)
            out.questions += result.questions_asked
            if not result.done:
                self.fail([f"session {sid} did not settle ({result.state})"])
            out.msps[sid] = sorted(result.msps)
        if out.questions != answers:
            self.fail([f"{answers} answers sent, {out.questions} questions counted"])
        return out

    def _stop_server(self) -> None:
        if self.wire is not None:
            self.wire.close()
            self.wire = None
        if self.server is None:
            return
        if self.server.poll() is None:
            try:
                self._command("stop")
            except (BrokenPipeError, OSError):
                pass  # already gone; wait() below reaps it
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None

    def close(self) -> None:
        self._stop_server()
        super().close()


class _FrameClock:
    """Times the coordinator's turnaround: from an answer's arrival (a
    delta frame) to the dispatch of the next question (an ask frame).

    It wraps the coordinator's frame functions; with ``count`` set it also
    counts ask frames and the bytes of every frame on the wire.
    """

    def __init__(self, count: bool) -> None:
        from repro.service.shard import coordinator, protocol

        self.gaps: List[float] = []
        self.frames = self.asks = self.frame_bytes = 0
        self._answered: List[float] = []
        send, recv = coordinator.send_frame, coordinator.recv_frame
        clock = time.perf_counter
        frames = self

        def send_frame(sock: Any, payload: Dict[str, Any]) -> None:
            if payload.get("t") == "ask_batch":
                now = clock()
                frames.gaps.extend(now - answered for answered in frames._answered)
                frames._answered.clear()
                frames.frames += 1
                frames.asks += len(payload["asks"])
            send(sock, payload)

        def recv_frame(sock: Any) -> Optional[Dict[str, Any]]:
            frame = recv(sock)
            if frame is not None and frame.get("t") == "delta":
                frames._answered.append(clock())
            return frame

        coordinator.send_frame, coordinator.recv_frame = send_frame, recv_frame
        if count:
            protocol.FRAME_HEADER = _CountingHeader(protocol.FRAME_HEADER, self)

    def reset(self) -> None:
        self.gaps = []
        self._answered = []
        self.frames = self.asks = self.frame_bytes = 0


class _CountingHeader:
    """Stands in for the frame length prefix and adds up frame sizes."""

    def __init__(self, real: Any, frames: _FrameClock) -> None:
        self._real = real
        self._frames = frames
        self.size = real.size

    def pack(self, length: int) -> bytes:
        self._frames.frame_bytes += self.size + length
        return self._real.pack(length)

    def unpack(self, data: bytes) -> Tuple[int, ...]:
        (length,) = self._real.unpack(data)
        self._frames.frame_bytes += self.size + length
        return (length,)


class ShardTravel(Serving):
    """Travel sessions served by a ``ShardCoordinator`` with one shard.

    A fresh fleet per execution; the shard keeps its WAL under the run's
    work directory, and no supervisor runs.  This process is the
    coordinator: ``start``, ``create_session`` and ``serve`` are the
    public calls it makes.
    """

    name = "shard-travel"
    unit_seconds = 2.2
    #: the coordinator and its shard work as a pipeline, one CPU each
    ONE_CPU = False
    THRESHOLDS = (0.3, 0.4, 0.5)

    def setup(self) -> None:
        from repro.datasets import travel

        self.frames = _FrameClock(count=self.tracer is not None)
        self.dataset = travel.build_dataset()
        self.coordinator: Any = None
        self.fleets = 0
        self.prepare(0)

    def prepare(self, unit: int) -> None:
        from repro.engine.engine import OassisEngine
        from repro.service.shard.coordinator import ShardCoordinator

        if self.coordinator is not None:
            self.coordinator.close()
        self.fleets += 1
        self.wal_dir = os.path.join(self.work, f"fleet-{self.fleets}")
        os.makedirs(self.wal_dir)
        self.coordinator = ShardCoordinator(
            self.dataset,
            shards=1,
            crowd_size=self.CROWD,
            sample_size=self.SAMPLE,
            domain="travel",
            seed=self.CROWD_SEED,
            engine=OassisEngine(self.dataset.ontology),
            durable_dir=self.wal_dir,
            max_runtime=600.0,
        )
        self.coordinator.start()
        (self.shard,) = multiprocessing.active_children()

    def execute(self, unit: int) -> Rep:
        out, coordinator = Rep(), self.coordinator
        self.frames.reset()
        shard_cpu = proc_cpu_seconds(self.shard.pid)
        cpu_start = time.process_time()
        start = time.perf_counter()
        for sid, threshold in self.sessions(unit):
            begin = time.perf_counter()
            coordinator.create_session(self.dataset.query(threshold), sid)
            out.first.append(time.perf_counter() - begin)
        serve_cpu = time.process_time()
        serve_start = time.perf_counter()
        coordinator.serve()
        end = time.perf_counter()
        out.wall = end - start
        worker_cpu = proc_cpu_seconds(self.shard.pid) - shard_cpu
        out.cpu = time.process_time() - cpu_start + worker_cpu
        out.gaps = self.frames.gaps
        self.peak_rss_mb = own_peak_rss_mb()
        if self.tracer is not None:
            out.figures = self.figures()
            out.figures.update(
                frames=self.frames.frames,
                asks=self.frames.asks,
                frame_bytes=self.frames.frame_bytes,
                wal_bytes=sum(
                    os.path.getsize(os.path.join(self.wal_dir, name))
                    for name in os.listdir(self.wal_dir)
                ),
                worker_cpu=worker_cpu,
                coordinator_wait=(end - serve_start) - (time.process_time() - serve_cpu),
            )
        for session in coordinator.sessions():
            out.questions += session.answers
            if not session.complete:
                self.fail([f"session {session.session_id} did not settle"])
            out.msps[session.session_id] = sorted(repr(a) for a in session.queue.current_msps())
        if coordinator.timed_out:
            self.fail(["coordinator serve timed out"])
        return out

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
        super().close()


WORKLOADS = {cls.name: cls for cls in (TravelBatch, PaperDag, GatewayTravel, ShardTravel)}


# ------------------------------------------------------------- reporting


def layer_metrics(rep: Rep) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of a traced run (README.md defines each), and the
    partition of its wall time: every layer's self time, per question."""
    figures = rep.figures
    assert figures is not None
    system, client = figures["system"], figures["client"]
    questions = max(1, rep.questions)

    def self_s(layer: str, snap: Optional[Dict[str, Any]] = system) -> float:
        return snap["layers"].get(layer, [0, 0.0, 0.0])[1] if snap else 0.0

    def calls(layer: str) -> int:
        return system["layers"].get(layer, [0, 0.0, 0.0])[0]

    def tally(name: str, snap: Optional[Dict[str, Any]] = system) -> int:
        return snap["counts"].get(name, 0) if snap else 0

    def per_q(seconds: float) -> float:
        return seconds * 1e3 / questions

    queries = calls("assignments.build")
    requests = figures.get("requests", 0)

    def per_query(seconds: float) -> float:
        return seconds * 1e3 / queries if queries else 0.0

    def per_request(seconds: float) -> float:
        return seconds * 1e3 / requests if requests else 0.0

    # the layers' self times partition the traced wall time
    parts = {layer: self_s(layer) for layer in SELF_LAYERS}
    if client is not None:
        # gateway: the client's round trips are split between the
        # server's spans (its root time) and the transport
        round_trips = client["layers"]["gateway.client"][2]
        parts["crowd.member"] = self_s("crowd.member", client)
        parts["gateway.transport"] = round_trips - system["root_seconds"]
        parts["unattributed"] = rep.wall - client["root_seconds"]
    else:
        parts["gateway.transport"] = 0.0
        parts["unattributed"] = rep.wall - system["root_seconds"]

    metrics = {
        "oassisql.parse_ms": per_query(parts["oassisql"]),
        "sparql.where_ms": per_query(parts["sparql"]),
        "sparql.solutions": tally("sparql.items") / queries if queries else 0.0,
        "assignments.build_ms": per_query(parts["assignments.build"]),
        "assignments.self_ms_per_question": per_q(parts["assignments"] + parts["assignments.build"]),
        "assignments.leq_calls_per_question": tally("assignments.leq") / questions,
        "assignments.successors_calls_per_question": tally("assignments.successors") / questions,
        "vocabulary.leq_calls_per_question": tally("vocabulary.leq") / questions,
        "crowd.member_ms_per_question": per_q(parts["crowd.member"]),
        "crowd.support_calls_per_question": (tally("crowd.support") + tally("crowd.support", client)) / questions,
        "crowd.aggregator_ms_per_question": per_q(parts["crowd.aggregator"]),
        "mining.self_ms_per_question": per_q(parts["mining"]),
        "mining.status_calls_per_question": tally("mining.status") / questions,
        "mining.tracker_refresh_ms_per_question": per_q(parts["mining.tracker"]),
        "mining.tracker_refresh_calls_per_question": calls("mining.tracker") / questions,
        "engine.queue_ms_per_question": per_q(parts["engine.queue"]),
        "service.self_ms_per_question": per_q(parts["service"] + parts["service.create"]),
        "service.create_session_ms": (
            system["layers"].get("service.create", [0, 0.0, 0.0])[2] * 1e3 / queries if queries else 0.0
        ),
        "service.empty_dispatch_share": (
            figures["empty_polls"] / figures["polls"] if figures.get("polls") else 0.0
        ),
        "gateway.app.self_ms_per_request": per_request(parts["gateway.app"]),
        "gateway.schema_ms_per_request": per_request(parts["gateway.schema"]),
        "gateway.transport_ms_per_request": per_request(parts["gateway.transport"]),
        "gateway.requests_per_question": requests / questions,
        "gateway.journal_ms_per_question": per_q(parts["gateway.journal"]),
        "gateway.journal_bytes_per_question": figures.get("journal_bytes", 0) / questions,
        "shard.codec_ms_per_question": per_q(parts["shard.codec"]),
        "shard.frame_bytes_per_question": figures.get("frame_bytes", 0) / questions,
        "shard.asks_per_frame": figures["asks"] / figures["frames"] if figures.get("frames") else 0.0,
        "shard.loop_self_ms_per_question": per_q(parts["shard.loop"]),
        "shard.coordinator_wait_ms_per_question": per_q(figures.get("coordinator_wait", 0.0)),
        "shard.worker_cpu_ms_per_question": per_q(figures.get("worker_cpu", 0.0)),
        "shard.wal_bytes_per_question": figures.get("wal_bytes", 0) / questions,
        "unattributed_ms_per_question": per_q(parts["unattributed"]),
        "trace.wall_ms_per_question": per_q(rep.wall),
    }
    return metrics, {layer: per_q(s) for layer, s in sorted(parts.items())}


def main(argv: Sequence[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    cls = WORKLOADS[name]
    tracer = install(Tracer(), cls.traced_here) if mode == "traced" else None
    rounds = cls.ROUNDS if mode == "measure" else 1
    workload = cls(seed, seconds, tracer)
    report: Dict[str, Any] = {"workload": name, "seed": seed}
    try:
        workload.setup()
        report["setup_done"] = time.monotonic()
        report["setup_probe_s"] = [machine_probe()]
        if mode != "setup":
            # executions[unit][round]; set-up prepared unit 0 of round 0
            executions: List[List[Rep]] = [[] for _ in range(workload.units)]
            for round_ in range(rounds):
                for unit in range(workload.units):
                    if round_ or unit:
                        workload.prepare(unit)
                    gc.collect()  # every execution starts from a clean heap
                    if tracer is not None:
                        tracer.reset()
                    before = machine_probe()
                    rep = workload.execute(unit)
                    rep.probe = [before, machine_probe()]
                    executions[unit].append(rep)
            flat = [execution for unit in executions for execution in unit]
            workload.check(flat)
            for unit, reps in enumerate(executions):
                if len({rep.questions for rep in reps}) > 1:
                    workload.fail([f"unit {unit}: rounds asked {[rep.questions for rep in reps]} questions"])
                if any(rep.msps != reps[0].msps for rep in reps):
                    workload.fail([f"unit {unit}: rounds found different MSP sets"])
            report.update(
                units=[[rep.report() for rep in reps] for reps in executions],
                peak_rss_mb=workload.peak_rss_mb or own_peak_rss_mb(),
                msps={k: v for reps in executions for k, v in reps[0].msps.items()},
                attempted=workload.attempted,
                failed=len(workload.failures),
                failures=workload.failures[:20],
            )
            if tracer is not None:
                total = Rep()
                for execution in flat:
                    total.wall += execution.wall
                    total.questions += execution.questions
                    total.figures = _merged(total.figures, execution.figures)
                report["layers"], report["partition"] = layer_metrics(total)
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
