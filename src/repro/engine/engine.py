"""OassisEngine: the full query-evaluation pipeline (Section 6.1).

Ties together the OASSIS-QL parser, the SPARQL engine, the lazy assignment
generator, the crowd adapters and the mining algorithms::

    engine = OassisEngine(ontology, config=EngineConfig(max_values_per_var=2))
    result = engine.execute(query_text, members)
    print(result.render())

``execute`` runs the multi-user algorithm against real/simulated crowd
members; ``execute_single_user`` runs Algorithm 1 against one member;
``replay`` re-evaluates a query at a different threshold from cached
answers (the Section 6.3 threshold sweep); ``session_manager`` opens the
concurrent crowd-serving facade of :mod:`repro.service`.

Evaluation policy lives in one :class:`~repro.engine.config.EngineConfig`;
every public method takes keyword-only per-call overrides defaulting to
the configured values.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..assignments.assignment import Assignment
from ..assignments.generator import QueryAssignmentSpace, QueryLattice, lattice_key
from ..crowd.aggregator import FixedSampleAggregator
from ..crowd.cache import CrowdCache
from ..crowd.member import CrowdMember
from ..crowd.questions import ConcreteQuestion
from ..mining.multiuser import MultiUserMiner
from ..mining.replay import ReplayResult, replay_from_cache
from ..mining.vertical import vertical_mine
from ..nlg.templates import QuestionTemplates
from ..oassisql.ast import Query
from ..oassisql.parser import parse_query
from ..oassisql.validator import ensure_valid
from ..observability import count as _obs_count, get_tracer, span as _obs_span
from ..ontology.facts import Fact
from ..ontology.graph import Ontology
from .adapters import MemberUser
from .config import EngineConfig
from .queue_manager import QueueManager
from .results import QueryResult, build_result

#: query lattices an engine retains, the least recently posed evicted first
RETAINED_LATTICES = 4


class OassisEngine:
    """Crowd-assisted evaluation of OASSIS-QL queries over an ontology."""

    def __init__(self, ontology: Ontology, *, config: Optional[EngineConfig] = None):
        self.ontology = ontology
        self.config = config if config is not None else EngineConfig()
        # lattice_key -> the lattice of the spaces built for it
        self._lattices: "OrderedDict[tuple, QueryLattice]" = OrderedDict()

    # ----------------------------------------------------- config accessors

    @property
    def templates(self) -> QuestionTemplates:
        return self.config.templates

    @property
    def max_values_per_var(self) -> int:
        return self.config.max_values_per_var

    @property
    def max_more_facts(self) -> int:
        return self.config.max_more_facts

    # -------------------------------------------------------------- parsing

    def parse(self, text: str) -> Query:
        """Parse and validate a query against this engine's ontology."""
        with _obs_span("engine.parse"):
            query = parse_query(text)
            ensure_valid(query, self.ontology)
        return query

    def _as_query(self, query: Union[str, Query]) -> Query:
        return self.parse(query) if isinstance(query, str) else query

    def build_space(
        self, query: Union[str, Query], more_pool: Iterable[Fact] = ()
    ) -> QueryAssignmentSpace:
        """A fresh run's lazy assignment space for ``query``.

        Spaces of one query shape (:func:`~repro.assignments.generator.
        lattice_key`: no threshold, no crowd) share one
        :class:`~repro.assignments.generator.QueryLattice`, so a later
        run, replay or session of the query finds its WHERE clause
        evaluated and its nodes expanded; each space keeps its own MORE
        proposals.  The engine retains the ``RETAINED_LATTICES`` most
        recently posed shapes, and drops a lattice once the ontology or
        an order has changed since it was built.
        """
        parsed = self._as_query(query)
        pool = tuple(more_pool)
        config = self.config
        with _obs_span("lattice.build"):
            key = lattice_key(
                self.ontology,
                parsed,
                pool,
                config.max_values_per_var,
                config.max_more_facts,
            )
            retained = self._lattices
            # a key starts with the ontology and order versions
            for stale in [k for k in retained if k[0] != key[0]]:
                del retained[stale]
            lattice = retained.pop(key, None)
            if lattice is not None:
                _obs_count("lattice.reused")
            space = QueryAssignmentSpace(
                self.ontology,
                parsed,
                more_pool=pool,
                max_values_per_var=config.max_values_per_var,
                max_more_facts=config.max_more_facts,
                lattice=lattice,
            )
            retained[key] = space.lattice
            if len(retained) > RETAINED_LATTICES:
                retained.popitem(last=False)
            return space

    # ------------------------------------------------------------ execution

    def execute(
        self,
        query: Union[str, Query],
        members: Sequence[CrowdMember],
        *,
        sample_size: Optional[int] = None,
        cache: Optional[CrowdCache] = None,
        more_pool: Optional[Iterable[Fact]] = None,
        include_invalid: Optional[bool] = None,
        max_total_questions: Optional[int] = None,
    ) -> QueryResult:
        """Evaluate with the multi-user algorithm over ``members``."""
        run = self.config.override(
            sample_size=sample_size,
            include_invalid=include_invalid,
            max_total_questions=max_total_questions,
        )
        tracer = get_tracer()
        with _obs_span("engine.execute"):
            parsed = self._as_query(query)
            space = self.build_space(
                parsed, more_pool=more_pool if more_pool is not None else ()
            )
            aggregator = FixedSampleAggregator(
                parsed.threshold, sample_size=run.sample_size
            )
            users = [MemberUser(member, space) for member in members]
            miner = MultiUserMiner(
                space,
                users,
                aggregator,
                cache=cache,
                max_total_questions=run.max_total_questions,
            )
            mined = miner.run()
            with _obs_span("result.build"):
                result = build_result(
                    parsed,
                    space,
                    mined.msps,
                    mined.questions,
                    support_of=aggregator.average_support,
                    include_invalid=run.include_invalid,
                )
        if tracer is not None:
            # refresh after the engine.execute span closed so the report
            # includes its wall time
            result.stats = tracer.report()
        return result

    def execute_single_user(
        self,
        query: Union[str, Query],
        member: CrowdMember,
        *,
        more_pool: Optional[Iterable[Fact]] = None,
        include_invalid: Optional[bool] = None,
        max_questions: Optional[int] = None,
    ) -> QueryResult:
        """Evaluate with Algorithm 1 against a single member."""
        run = self.config.override(include_invalid=include_invalid)
        tracer = get_tracer()
        with _obs_span("engine.execute"):
            parsed = self._as_query(query)
            space = self.build_space(
                parsed, more_pool=more_pool if more_pool is not None else ()
            )
            answers: Dict[Assignment, float] = {}

            def oracle(node: Assignment) -> float:
                question = ConcreteQuestion(node, space.instantiate(node))
                support = member.answer_concrete(question).support
                answers[node] = support
                return support

            mined = vertical_mine(
                space, oracle, parsed.threshold, max_questions=max_questions
            )
            with _obs_span("result.build"):
                result = build_result(
                    parsed,
                    space,
                    mined.msps,
                    mined.questions,
                    support_of=answers.get,
                    include_invalid=run.include_invalid,
                )
        if tracer is not None:
            result.stats = tracer.report()
        return result

    def replay(
        self,
        query: Union[str, Query],
        member_ids: Sequence[str],
        cache: CrowdCache,
        *,
        threshold: Optional[float] = None,
        sample_size: Optional[int] = None,
        include_invalid: Optional[bool] = None,
        more_pool: Optional[Iterable[Fact]] = None,
        space: Optional[QueryAssignmentSpace] = None,
    ) -> Tuple[QueryResult, ReplayResult]:
        """Re-evaluate from cached answers — the Section 6.3 threshold sweep.

        Crowd answers are independent of the support threshold, so a query
        executed once (typically at the lowest threshold of interest) can
        be re-evaluated at any higher threshold from its
        :class:`~repro.crowd.cache.CrowdCache` alone.  The crowd is never
        contacted: the traversal consumes the cached per-assignment answer
        lists, and the returned mining result's ``questions`` field counts
        only the cached answers actually *used* at the new threshold (the
        Section 6.3 accounting).  The typical sweep::

            cache = CrowdCache()
            engine.execute(query, members, cache=cache)       # asks the crowd
            for threshold in (0.3, 0.4, 0.5):
                result, replayed = engine.replay(
                    query, member_ids, cache, threshold=threshold
                )

        ``threshold=None`` replays at the query's own threshold.
        ``member_ids`` is accepted for interface symmetry with
        :meth:`execute` but not needed — replay aggregates whatever answers
        the cache holds per assignment.  The second element of the returned
        pair is the :class:`~repro.mining.replay.ReplayResult`, whose
        ``cache_misses`` / ``nodes_visited`` expose the replay accounting.

        Pass the original run's ``space`` to retain crowd-proposed MORE
        extensions (a fresh space would not regenerate them).  See
        ``docs/LANGUAGE.md`` ("Threshold sweeps") and
        ``docs/OBSERVABILITY.md`` for the cost model behind this API.
        """
        run = self.config.override(
            sample_size=sample_size, include_invalid=include_invalid
        )
        tracer = get_tracer()
        with _obs_span("engine.replay"):
            parsed = self._as_query(query)
            if threshold is not None:
                satisfying = parsed.satisfying
                satisfying = type(satisfying)(
                    satisfying.meta_facts, satisfying.more, threshold
                )
                parsed = Query(
                    parsed.select_format, parsed.select_all, parsed.where, satisfying
                )
            if space is None:
                space = self.build_space(
                    parsed, more_pool=more_pool if more_pool is not None else ()
                )
            mined = replay_from_cache(
                space, cache, parsed.threshold, sample_size=run.sample_size
            )

            def support_of(node):
                answers = cache.answers_for(node)[: run.sample_size]
                if not answers:
                    return None
                return sum(s for _, s in answers) / len(answers)

            with _obs_span("result.build"):
                result = build_result(
                    parsed,
                    space,
                    mined.msps,
                    mined.questions,
                    support_of=support_of,
                    include_invalid=run.include_invalid,
                )
        if tracer is not None:
            result.stats = tracer.report()
        return result, mined

    def screen_members(
        self,
        query: Union[str, Query],
        members: Sequence[CrowdMember],
        *,
        probes_per_member: int = 8,
        tolerance: float = 0.05,
        max_violation_ratio: float = 0.2,
    ):
        """Consistency-screen members before mining (Section 4.2).

        Each member answers a few *calibration* questions along a
        general→specific chain of the query's assignment space; support
        monotonicity (a specialization can never be more frequent than its
        generalization) flags spammers.  Returns ``(kept, flagged)``.
        """
        from ..crowd.selection import filter_members

        parsed = self._as_query(query)
        space = self.build_space(parsed)
        probes = []
        frontier = list(space.roots())
        while frontier and len(probes) < probes_per_member:
            node = frontier.pop(0)
            probes.append(node)
            successors = space.successors(node)
            if successors:
                frontier.append(successors[0])
        answers_by_member = {}
        for member in members:
            answers = []
            for probe in probes:
                question = ConcreteQuestion(probe, space.instantiate(probe))
                answers.append((probe, member.answer_concrete(question).support))
            answers_by_member[member.member_id] = answers
        flagged_ids = filter_members(
            answers_by_member,
            space.leq,
            tolerance=tolerance,
            max_violation_ratio=max_violation_ratio,
        )
        kept = [m for m in members if m.member_id not in flagged_ids]
        flagged = [m for m in members if m.member_id in flagged_ids]
        return kept, flagged

    # --------------------------------------------------------- serving hooks

    def queue_manager(
        self,
        query: Union[str, Query],
        *,
        sample_size: Optional[int] = None,
        cache: Optional[CrowdCache] = None,
        more_pool: Optional[Iterable[Fact]] = None,
    ) -> QueueManager:
        """The served walk over ``query``'s assignment space.

        Callers render question text themselves (``self.templates``).
        """
        run = self.config.override(sample_size=sample_size)
        parsed = self._as_query(query)
        space = self.build_space(
            parsed, more_pool=more_pool if more_pool is not None else ()
        )
        aggregator = FixedSampleAggregator(
            parsed.threshold, sample_size=run.sample_size
        )
        return QueueManager(space, aggregator, cache=cache)

    def session_manager(self, **options):
        """A :class:`~repro.service.SessionManager` serving this engine.

        The facade into :mod:`repro.service`: host many concurrent query
        sessions over this engine's ontology and multiplex crowd members
        across them with batched dispatch, deadlines and retries.  Keyword
        options are forwarded to the :class:`~repro.service.ServiceConfig`
        (``question_timeout``, ``max_attempts``, ``in_flight_limit``, ...).
        """
        from ..service import SessionManager

        return SessionManager(self, **options)
