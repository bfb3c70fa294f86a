"""Outside-in tracing of the OASSIS layers for the traced benchmark run.

Nothing under ``src/`` is modified.  :func:`install` replaces public
functions and methods of the ``repro`` modules with wrappers, in the
process that runs them:

* a *timed* wrapper records a span: calls, and self time (the span's
  duration minus the duration of wrapped spans nested inside it).  Self
  time is charged to the span's layer, so the layers' self times plus the
  time spent outside every span (``unattributed``) add up to the wall
  time of the traced phase exactly;
* a *counted* wrapper only counts calls.  It is used for the hot inner
  calls (``leq``, ``status``, ``successors``, ``support``), whose time
  stays in the caller's self time, to keep the tracing overhead small.

The untraced run installs none of this; only the timestamp hooks that
the end-to-end gap metrics need (:class:`QuestionClock`, and the shard's
frame clock in ``workloads.py``) run in both.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers whose self times partition the traced wall time (with
#: ``gateway.transport`` and ``unattributed``, derived by the workloads)
SELF_LAYERS = (
    "oassisql",
    "sparql",
    "assignments.build",
    "assignments",
    "crowd.member",
    "crowd.aggregator",
    "mining",
    "mining.tracker",
    "engine.queue",
    "service",
    "service.create",
    "gateway.app",
    "gateway.schema",
    "gateway.journal",
    "shard.codec",
    "shard.loop",
)

_SCHEMA_CLASSES = (
    "JoinRequest",
    "JoinResponse",
    "ActivateRequest",
    "ActivateResponse",
    "QueryRequest",
    "QueryAccepted",
    "QuestionDTO",
    "QuestionBatch",
    "AnswerRequest",
    "AnswerResponse",
    "ResultResponse",
    "ErrorResponse",
)

#: (layer, module, attribute path) of every timed function
TIMED: List[Tuple[str, str, str]] = [
    ("oassisql", "repro.engine.engine", "parse_query"),
    ("oassisql", "repro.engine.engine", "ensure_valid"),
    ("sparql", "repro.sparql.engine", "SparqlEngine.solutions"),
    ("assignments.build", "repro.assignments.generator", "QueryAssignmentSpace.__init__"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.roots"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.ordered_successors"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.predecessors"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.is_valid"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.in_expansion"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.instantiate"),
    ("assignments", "repro.assignments.generator", "QueryAssignmentSpace.propose_more_fact"),
    ("crowd.member", "repro.crowd.member", "CrowdMember.answer_concrete"),
    ("crowd.member", "repro.crowd.member", "CrowdMember.answer_specialization"),
    ("crowd.member", "repro.crowd.member", "CrowdMember.suggest_more_fact"),
    ("crowd.member", "repro.crowd.member", "CrowdMember.prunable_value"),
    ("crowd.member", "repro.mining.multiuser", "FunctionUser.support"),
    ("crowd.aggregator", "repro.crowd.aggregator", "Aggregator.add_answer"),
    ("crowd.aggregator", "repro.crowd.aggregator", "Aggregator.average_support"),
    ("crowd.aggregator", "repro.crowd.aggregator", "FixedSampleAggregator.verdict"),
    ("mining", "repro.mining.multiuser", "MultiUserMiner.run"),
    ("mining", "repro.mining.state", "ClassificationState.mark_significant"),
    ("mining", "repro.mining.state", "ClassificationState.mark_insignificant"),
    ("mining", "repro.mining.trace", "MspTracker.note_significant"),
    ("mining.tracker", "repro.mining.trace", "MspTracker.refresh"),
    ("engine.queue", "repro.engine.queue_manager", "QueueManager.next_batch"),
    ("engine.queue", "repro.engine.queue_manager", "QueueManager.submit_support"),
    ("engine.queue", "repro.engine.queue_manager", "QueueManager.preload"),
    ("engine.queue", "repro.engine.queue_manager", "QueueManager.mark_answered"),
    ("engine.queue", "repro.engine.queue_manager", "QueueManager.expire_pending"),
    ("engine.queue", "repro.engine.queue_manager", "QueueManager.has_fresh_work"),
    ("service.create", "repro.service.manager", "SessionManager.create_session"),
    ("service", "repro.service.manager", "SessionManager.next_batch"),
    ("service", "repro.service.manager", "SessionManager.submit"),
    ("service", "repro.service.manager", "SessionManager.attach_member"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.activate_dataset"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.join"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.authenticate"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.require_admin"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.pose_query"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.at_capacity"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.next_questions"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.submit_answer"),
    ("gateway.app", "repro.gateway.app", "GatewayApp.result"),
    ("gateway.schema", "repro.gateway.app", "facts_to_wire"),
    ("gateway.journal", "repro.gateway.journal", "GatewayJournal.log_activate"),
    ("gateway.journal", "repro.gateway.journal", "GatewayJournal.log_join"),
    ("gateway.journal", "repro.gateway.journal", "GatewayJournal.log_query"),
    ("gateway.journal", "repro.gateway.journal", "GatewayJournal.log_mint"),
    ("gateway.journal", "repro.gateway.journal", "GatewayJournal.log_answer"),
    ("shard.codec", "repro.service.shard.coordinator", "send_frame"),
    ("shard.codec", "repro.service.shard.coordinator", "recv_frame"),
    ("shard.loop", "repro.service.shard.coordinator", "ShardCoordinator.create_session"),
    ("shard.loop", "repro.service.shard.coordinator", "ShardCoordinator.serve"),
] + [
    ("gateway.schema", "repro.gateway.schema", f"{name}.{method}")
    for name in _SCHEMA_CLASSES
    for method in ("to_wire", "from_wire")
]

#: (counter name, module, attribute path) of every counted function
COUNTED: List[Tuple[str, str, str]] = [
    ("assignments.leq", "repro.assignments.generator", "QueryAssignmentSpace.leq"),
    ("assignments.successors", "repro.assignments.generator", "QueryAssignmentSpace.successors"),
    ("vocabulary.leq", "repro.vocabulary.vocabulary", "Vocabulary.leq"),
    ("mining.status", "repro.mining.state", "ClassificationState.status"),
    ("crowd.support", "repro.crowd.personal_db", "PersonalDatabase.support"),
]

#: functions whose span feeds a layer but which return a generator: the
#: wrapper drains it inside the span so its work is timed, not deferred
_GENERATORS = {"SparqlEngine.solutions"}


class Tracer:
    """Spans and counters of one process (single-threaded by design)."""

    def __init__(self) -> None:
        #: layer -> [calls, self seconds, total seconds]
        self.layers: Dict[str, List[float]] = {}
        #: counter name -> one-element cell, bound into its wrapper
        self._counters: Dict[str, List[int]] = {}
        self._sums: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        #: summed duration of spans entered with no span open
        self.root_seconds = 0.0

    # ------------------------------------------------------------- wrappers

    def timed(self, layer: str, fn: Callable[..., Any], drain: bool = False) -> Callable[..., Any]:
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    items = list(result)
                    tracer.add(layer + ".items", len(items))
                    result = iter(items)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_seconds += elapsed

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def add(self, name: str, amount: int) -> None:
        self._sums[name] = self._sums.get(name, 0) + amount

    # -------------------------------------------------------------- reading

    def snapshot(self) -> Dict[str, Any]:
        """Every figure, JSON-ready (also sent from the server process)."""
        counts = {name: cell[0] for name, cell in self._counters.items()}
        counts.update(self._sums)
        return {
            "layers": {k: [int(v[0]), v[1], v[2]] for k, v in self.layers.items()},
            "counts": counts,
            "root_seconds": self.root_seconds,
        }

    def reset(self) -> None:
        """Zero every figure (start of the timed phase)."""
        for stats in self.layers.values():
            stats[0] = 0
            stats[1] = 0.0
            stats[2] = 0.0
        for cell in self._counters.values():
            cell[0] = 0
        self._sums = {}
        self.root_seconds = 0.0


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    # a class's own __dict__ keeps a classmethod wrapped, so it can be
    # re-wrapped as one; getattr would return it bound to the class
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def install(tracer: Tracer, only: Optional[Tuple[str, ...]] = None) -> Tracer:
    """Wrap the functions in :data:`TIMED` and :data:`COUNTED`.

    ``only`` limits the wrapping to those layer and counter names (the
    gateway client traces just the members it simulates).
    """
    for layer, module_name, path in TIMED:
        if only is not None and layer not in only:
            continue
        owner, name, raw = _resolve(module_name, path)
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(tracer.timed(layer, raw.__func__)))
        else:
            setattr(owner, name, tracer.timed(layer, raw, drain=path in _GENERATORS))
    for counter, module_name, path in COUNTED:
        if only is not None and counter not in only:
            continue
        owner, name, raw = _resolve(module_name, path)
        setattr(owner, name, tracer.counted(counter, raw))
    return tracer


class QuestionClock:
    """Timestamps of the oracle calls that pose questions (untraced too).

    ``gaps`` are the system time between the end of one question and the
    start of the next; ``first`` is the time from :meth:`start` (posing a
    query) to the first question of that query.
    """

    def __init__(self) -> None:
        self.gaps: List[float] = []
        self.first: List[float] = []
        self._last_end: Optional[float] = None
        self._posed: Optional[float] = None

    def start(self) -> None:
        self._posed = time.perf_counter()
        self._last_end = None

    def hook(self, owner: type, name: str) -> None:
        fn = getattr(owner, name)
        clock = time.perf_counter
        tracker = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            begin = clock()
            if tracker._last_end is not None:
                tracker.gaps.append(begin - tracker._last_end)
            elif tracker._posed is not None:
                tracker.first.append(begin - tracker._posed)
                tracker._posed = None
            try:
                return fn(*args, **kwargs)
            finally:
                tracker._last_end = clock()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        setattr(owner, name, wrapper)
