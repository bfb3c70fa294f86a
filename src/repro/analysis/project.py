"""Project-invariant configuration consumed by the lint rules.

The linter in :mod:`repro.analysis.lint` is generic machinery (walk
files, parse, dispatch rules, report); everything that makes it *this
repo's* linter lives here: which classes carry version stamps, which
layers must not swallow errors, and which modules must stay
deterministic.  Each constant is documented in ``docs/ANALYSIS.md``
next to the rule that reads it.  A false positive is fixed here or in
the rule, never silenced at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

# ---------------------------------------------------------- version stamps


@dataclass(frozen=True)
class VersionStampedClass:
    """One class whose mutators must touch its version stamp.

    ``guarded_attrs`` are the ``self.<attr>`` structures that back the
    compiled/memoized state; any method mutating one of them must also
    assign ``self.<touch>`` or call one of the ``touch_calls`` in the
    same method body.
    """

    module_suffix: str
    class_name: str
    guarded_attrs: FrozenSet[str]
    touch_attrs: FrozenSet[str] = field(default_factory=frozenset)
    touch_calls: FrozenSet[str] = field(default_factory=frozenset)


VERSION_STAMPED_CLASSES: Tuple[VersionStampedClass, ...] = (
    VersionStampedClass(
        module_suffix="repro/vocabulary/orders.py",
        class_name="PartialOrder",
        guarded_attrs=frozenset(
            {"_children", "_parents", "_edge_count", "_ids", "_terms_by_id"}
        ),
        touch_attrs=frozenset({"version"}),
        touch_calls=frozenset({"_invalidate"}),
    ),
    VersionStampedClass(
        module_suffix="repro/ontology/graph.py",
        class_name="Ontology",
        guarded_attrs=frozenset(
            {"_facts", "_spo", "_pos", "_osp", "_labels", "_label_index"}
        ),
        touch_attrs=frozenset({"version"}),
        touch_calls=frozenset(),
    ),
)


@dataclass(frozen=True)
class StampGuardedClass:
    """A class whose public entry points must revalidate their caches.

    The SPARQL engine pattern: memo dictionaries are keyed on a joint
    version stamp, and every public method must call the guard
    (``_check_caches``) before touching them.
    """

    module_suffix: str
    class_name: str
    guard_call: str
    #: public methods exempt from the guard (pure accessors)
    exempt: FrozenSet[str] = field(default_factory=frozenset)


STAMP_GUARDED_CLASSES: Tuple[StampGuardedClass, ...] = (
    StampGuardedClass(
        module_suffix="repro/sparql/engine.py",
        class_name="SparqlEngine",
        guard_call="_check_caches",
    ),
)


# -------------------------------------------------------- error swallowing

#: module prefixes where a broad ``except Exception`` must either log a
#: counter or re-raise — the concurrent serving/fault layer, where a
#: silently swallowed error turns into a wedged session with no trace
SILENT_EXCEPT_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro/service/",
    "repro/faults/",
    "repro/gateway/",
)

#: call names the silent-except rule accepts as "the error was logged"
COUNTER_CALL_NAMES: FrozenSet[str] = frozenset({"count", "_obs_count"})


# ------------------------------------------------------------ fork safety

#: module prefixes imported into the shard worker processes — the spawn
#: closure of ``repro.service.shard.worker`` (the serving layers plus
#: everything a worker rebuilds: datasets, engine, crowd, vocabulary,
#: ontology, observability).  Module-level locks / RNGs / thread-locals
#: there are a process-safety trap: a fork child inherits a lock in
#: whatever state the parent held it, a spawn child silently gets a
#: *fresh* one (so "shared" state diverges), and any object graph that
#: carries one stops pickling across the process boundary.
SHARD_IMPORTED_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro/service/",
    "repro/crowd/",
    "repro/engine/",
    "repro/mining/",
    "repro/datasets/",
    "repro/vocabulary/",
    "repro/ontology/",
    "repro/observability/",
)

#: constructors whose call at *module import time* creates that state
#: (the ``threading``/``multiprocessing`` lock family, RNG instances and
#: thread-locals)
FORK_UNSAFE_FACTORIES: FrozenSet[str] = frozenset(
    {
        "Barrier",
        "BoundedSemaphore",
        "Condition",
        "Event",
        "Lock",
        "RLock",
        "Random",
        "Semaphore",
        "SystemRandom",
        "local",
    }
)

#: methods that mark a class as owning its process-boundary story: a
#: class body may hold fork-unsafe state if it also defines one of these
#: (it decides explicitly what crosses the boundary)
FORK_STATE_EXEMPTING_METHODS: FrozenSet[str] = frozenset(
    {"__getstate__", "__reduce__", "__reduce_ex__"}
)


# ------------------------------------------------------------ determinism

#: module suffixes that must stay deterministic for replay: no global
#: (unseeded) random calls, no wall-clock reads
DETERMINISTIC_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro/mining/",
    "repro/crowd/simulation.py",
)

#: functions of the ``random`` module that use the shared global RNG
GLOBAL_RNG_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
    }
)

#: wall-clock reads banned in deterministic modules (module name -> attrs)
WALL_CLOCK_CALLS = {
    "time": frozenset({"time", "time_ns", "localtime", "ctime", "gmtime"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "date": frozenset({"today"}),
}

# ------------------------------------------------------------ async serving

#: module prefixes whose ``async def`` bodies must never block: the
#: gateway multiplexes every connected member over one event loop, so a
#: single blocking call stalls all of them at once
ASYNC_MODULE_PREFIXES: Tuple[str, ...] = ("repro/gateway/",)

#: calls that block the event loop (module name -> attrs), banned inside
#: ``async def`` in the modules above; each has an asyncio-native
#: replacement (asyncio.sleep, open_connection, create_subprocess_exec,
#: run_in_executor)
BLOCKING_CALLS_IN_ASYNC = {
    "time": frozenset({"sleep"}),
    "socket": frozenset({"create_connection", "getaddrinfo", "gethostbyname"}),
    "subprocess": frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    ),
    "os": frozenset({"system", "wait", "waitpid"}),
    "requests": frozenset({"get", "post", "put", "delete", "head", "request"}),
}

#: bare builtins that block inside ``async def`` (filesystem and tty I/O)
BLOCKING_BUILTINS_IN_ASYNC: FrozenSet[str] = frozenset({"open", "input"})


# ------------------------------------------------------- deep (whole-program)

#: method names the call-graph builder must NEVER resolve by uniqueness
#: alone: they collide with dict/list/set/str/file/thread/queue protocol
#: methods, so ``x.get(...)`` on an untyped receiver stays unresolved
#: rather than aliasing some project method that happens to share the name
COMMON_METHOD_NAMES: FrozenSet[str] = frozenset(
    {name for t in (dict, list, set, tuple, str, bytes, frozenset) for name in dir(t)}
    | {
        "acquire",
        "cancel",
        "close",
        "fileno",
        "flush",
        "get",
        "get_nowait",
        "is_alive",
        "join",
        "notify",
        "notify_all",
        "open",
        "put",
        "put_nowait",
        "read",
        "readline",
        "release",
        "run",
        "send",
        "set",
        "start",
        "stop",
        "submit",
        "wait",
        "write",
    }
)

#: module prefixes whose *public* functions are determinism entry points
#: for the transitive pass: the replay/identity oracles re-execute these,
#: so no wall-clock read or unseeded-random call may be reachable.  This
#: is a superset of DETERMINISTIC_MODULE_PREFIXES — the lattice /
#: assignment core is included even though the local (direct-call) rule
#: does not police it
DEEP_DETERMINISM_ENTRY_PREFIXES: Tuple[str, ...] = (
    "repro/mining/",
    "repro/assignments/",
    "repro/crowd/simulation.py",
)

#: transport modules whose raw payload dicts are wire-taint sources
WIRE_TAINT_MODULES: Tuple[str, ...] = (
    "repro/gateway/http.py",
    "repro/gateway/mcp.py",
)

#: parameter names that carry raw (undecoded) wire payloads in the
#: transport modules above — MCP hands ``message``/``params``/
#: ``arguments`` dicts straight from JSON-RPC
WIRE_TAINT_PARAM_NAMES: FrozenSet[str] = frozenset(
    {"message", "params", "arguments", "payload"}
)

#: methods whose return value counts as *decoded*: the schema layer's
#: versioned constructors (``XxxRequest.from_wire``)
WIRE_DECODE_METHODS: FrozenSet[str] = frozenset({"from_wire"})

#: classes whose methods are wire-taint sinks: raw payloads must not
#: reach them without passing a schema decode or a scalar validation
WIRE_SINK_CLASSES: FrozenSet[str] = frozenset(
    {"GatewayApp", "SessionManager", "QueueManager"}
)
