"""The central registry of counter and span names.

Every counter incremented and every span opened anywhere in the engine
must use a name listed here.  The registry exists so that the dotted
naming scheme of ``docs/OBSERVABILITY.md`` cannot silently drift: the
static ``tracer-name`` lint rule (:mod:`repro.analysis`) checks every
literal ``count(...)``/``span(...)`` call site in ``src/`` against these
sets, and the observability test suite checks the converse — that a
fully traced run records no name the registry does not know.

Adding an instrumentation point is therefore a two-line change: add the
``count``/``span`` call, and register its name below (keep the sections
sorted).  A call site with an unregistered literal name fails
``make lint``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set, Union

from .core import Tracer

#: every registered counter name, grouped by subsystem prefix
COUNTER_NAMES: FrozenSet[str] = frozenset(
    {
        # crowd answer aggregation
        "aggregator.answers",
        # support counting (repro.crowd.personal_db)
        "support.count.tid",
        # the CrowdCache answer store
        "cache.answers.recorded",
        "cache.hits",
        "cache.misses",
        # crowd members and question kinds
        "crowd.answers.stale",
        "crowd.more_tips",
        "crowd.none_of_these",
        "crowd.pruning_clicks",
        "crowd.questions",
        "crowd.questions.concrete",
        "crowd.questions.specialization",
        # injected faults, by kind (repro.faults)
        "faults.injected.departure",
        "faults.injected.disconnect",
        "faults.injected.duplicate",
        "faults.injected.malformed",
        "faults.injected.slow_client",
        "faults.injected.timeout",
        # the network-facing crowd gateway (repro.gateway)
        "gateway.answers.accepted",
        "gateway.answers.deduped",
        "gateway.answers.duplicate",
        "gateway.auth.rejected",
        "gateway.backpressure.rejected",
        "gateway.datasets.activated",
        "gateway.disconnects.injected",
        "gateway.errors.client",
        "gateway.errors.server",
        "gateway.journal.appends",
        "gateway.journal.compactions",
        "gateway.journal.corrupt_skipped",
        "gateway.journal.replayed",
        "gateway.journal.restore_failures",
        "gateway.journal.restores",
        "gateway.longpoll.empty",
        "gateway.longpoll.waits",
        "gateway.mcp.calls",
        "gateway.mcp.unavailable",
        "gateway.members.joined",
        "gateway.queries.posed",
        "gateway.requests",
        "gateway.results.served",
        "gateway.slow_responses.injected",
        # assignment lattice traversal
        "lattice.bfs.nodes",
        "lattice.desc_cache.misses",
        "lattice.expansion.checks",
        "lattice.facts.misses",
        "lattice.reused",
        "lattice.succ_cache.hits",
        "lattice.succ_cache.misses",
        "lattice.successors.generated",
        # mining classification
        "mining.classified.by_crowd",
        "mining.inferred.insignificant",
        "mining.inferred.significant",
        "mining.msps.found",
        "mining.msps.valid",
        "mining.skipped.decided",
        "mining.skipped.insignificant",
        "mining.skipped.user_pruned",
        # bitset-compiled taxonomy closures
        "orders.chain_partitions",
        "orders.closure.anc_compiles",
        "orders.closure.anc_views",
        "orders.closure.desc_compiles",
        "orders.closure.desc_views",
        # durability and recovery (WAL journal, checkpoints, breakers)
        "recovery.answers.resolved",
        "recovery.answers.unresolved",
        "recovery.breaker.closed",
        "recovery.breaker.half_open",
        "recovery.breaker.opened",
        "recovery.breaker.short_circuited",
        "recovery.checkpoints.written",
        "recovery.sessions.restored",
        "recovery.wal.appends",
        "recovery.wal.compactions",
        "recovery.wal.corrupt_skipped",
        "recovery.wal.duplicates_skipped",
        "recovery.wal.replayed",
        # threshold-sweep replay
        "replay.answers_used",
        "replay.cache_misses",
        "replay.nodes_visited",
        # concurrent crowd-serving layer
        "service.answers.passed",
        "service.answers.pruned",
        "service.answers.recorded",
        "service.answers.rejected",
        "service.answers.stale",
        "service.members.attached",
        "service.members.departed",
        "service.questions.dispatched",
        "service.reassigned",
        "service.requeues",
        "service.retries.exhausted",
        "service.sessions.cancelled",
        "service.sessions.completed",
        "service.sessions.created",
        "service.sessions.resumed",
        "service.timeouts",
        # process-sharded serving (repro.service.shard)
        "shard.answers.merged",
        "shard.asks.resent",
        "shard.asks.sent",
        "shard.backpressure.deferred",
        "shard.batches.sent",
        "shard.closure.compiles",
        "shard.deltas.received",
        "shard.deltas.stale",
        "shard.fleet.answers",
        "shard.fleet.asks",
        "shard.fleet.cached",
        "shard.fleet.compiles",
        "shard.fleet.computed",
        "shard.fleet.replayed",
        "shard.kills",
        "shard.nodes.asked",
        "shard.nodes.classified",
        "shard.restores",
        "shard.serve.timeouts",
        "shard.sessions.completed",
        "shard.sessions.created",
        "shard.shutdown.errors",
        "shard.spawns",
        "shard.wal.replayed",
        # the shard-fleet heartbeat supervisor (repro.service.supervisor)
        "supervisor.deaths.detected",
        "supervisor.degraded",
        "supervisor.heartbeats.missed",
        "supervisor.heartbeats.sent",
        "supervisor.members.rehashed",
        "supervisor.restart.failures",
        "supervisor.restarts",
        # SPARQL-ish BGP evaluation
        "sparql.closure_cache.hits",
        "sparql.closure_cache.misses",
        "sparql.patterns.matched",
        "sparql.rel_match_cache.hits",
        "sparql.rel_match_cache.misses",
        "sparql.solutions",
        # TID-bitset support counting
        "tid_index.rebuilds",
        "tid_index.support.queries",
        "tid_index.witness.hits",
        "tid_index.witness.misses",
    }
)

#: every registered span name (the nodes of the span tree)
SPAN_NAMES: FrozenSet[str] = frozenset(
    {
        "backend.compile",
        "engine.execute",
        "engine.parse",
        "engine.replay",
        "gateway.restore",
        "lattice.build",
        "lattice.expand",
        "mine.horizontal",
        "mine.multiuser",
        "mine.replay",
        "mine.vertical",
        "recovery.restore",
        "result.build",
        "service.dispatch",
        "service.reap",
        "service.submit",
        "shard.restore",
        "shard.serve",
        "shard.spawn",
        "shard.start",
        "sparql.match",
        "supervisor.restart",
    }
)

#: every registered latency-histogram name (``Tracer.observe``); the
#: ``gateway.latency.*`` family is one histogram per HTTP endpoint plus
#: the MCP dispatch surface (see ``docs/GATEWAY.md``), and
#: ``lattice.latency.expand`` times each cold successor expansion
HISTOGRAM_NAMES: FrozenSet[str] = frozenset(
    {
        "gateway.latency.activate",
        "gateway.latency.answer",
        "gateway.latency.datasets",
        "gateway.latency.health",
        "gateway.latency.join",
        "gateway.latency.mcp",
        "gateway.latency.next",
        "gateway.latency.other",
        "gateway.latency.query",
        "gateway.latency.result",
        "gateway.poll.wait",
        "lattice.latency.expand",
    }
)

#: the union, for callers that do not care about the kind
ALL_NAMES: FrozenSet[str] = COUNTER_NAMES | SPAN_NAMES | HISTOGRAM_NAMES


def is_registered_counter(name: str) -> bool:
    """Is ``name`` a registered counter name?"""
    return name in COUNTER_NAMES


def is_registered_span(name: str) -> bool:
    """Is ``name`` a registered span name?"""
    return name in SPAN_NAMES


def is_registered_histogram(name: str) -> bool:
    """Is ``name`` a registered histogram name?"""
    return name in HISTOGRAM_NAMES


def _span_leaf_names(tracer: Tracer) -> Iterable[str]:
    for path in tracer.span_names():
        yield path.rsplit("/", 1)[-1]


def unregistered_names(tracer: Tracer) -> FrozenSet[str]:
    """Names a traced run recorded that the registry does not know.

    The runtime converse of the static ``tracer-name`` lint rule: feed it
    the tracer of a representative run and assert the result is empty
    (see ``tests/test_observability.py``).
    """
    stray: Set[str] = set()
    for name in tracer.counters:
        if name not in COUNTER_NAMES:
            stray.add(name)
    for name in _span_leaf_names(tracer):
        if name not in SPAN_NAMES:
            stray.add(name)
    for name in getattr(tracer, "histograms", {}):
        if name not in HISTOGRAM_NAMES:
            stray.add(name)
    return frozenset(stray)


def registered_names(kind: Union[str, None] = None) -> FrozenSet[str]:
    """The registered names: ``"counter"``, ``"span"``, ``"histogram"``
    or all of them (None)."""
    if kind == "counter":
        return COUNTER_NAMES
    if kind == "span":
        return SPAN_NAMES
    if kind == "histogram":
        return HISTOGRAM_NAMES
    if kind is None:
        return ALL_NAMES
    raise ValueError(f"unknown name kind {kind!r}")
