"""Project-invariant configuration consumed by the lint rules.

The linter in :mod:`repro.analysis.lint` is generic machinery (walk
files, parse, dispatch rules, report); everything that makes it *this
repo's* linter lives here: which classes carry version stamps, which
layers must not swallow errors, and which calls read the wall clock or
block an event loop.  Each constant is documented in ``docs/ANALYSIS.md``
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

#: wall-clock reads, banned in every module (module name -> attrs): replay
#: and the identity oracles re-run the same inputs and compare outputs
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
#: run_in_executor).  The tier-1 suite's event-loop tripwire
#: (``tests/conftest.py``) fails a test that calls one of these, or a
#: builtin below, on a thread that runs an asyncio loop
BLOCKING_CALLS_IN_ASYNC = {
    "time": frozenset({"sleep"}),
    "socket": frozenset({"create_connection", "getaddrinfo", "gethostbyname"}),
    "subprocess": frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    ),
    "os": frozenset({"fsync", "system", "wait", "waitpid"}),
    "requests": frozenset({"get", "post", "put", "delete", "head", "request"}),
}

#: bare builtins that block inside ``async def`` (filesystem and tty I/O)
BLOCKING_BUILTINS_IN_ASYNC: FrozenSet[str] = frozenset({"open", "input"})
