"""The observability subsystem: spans, counters, reports, disabled mode."""

import json

import pytest

from repro import CrowdMember, EngineConfig, OassisEngine
from repro.datasets import running_example
from repro.observability import (
    REPORT_VERSION,
    Histogram,
    Tracer,
    build_report,
    count,
    derive,
    disable,
    enable,
    enabled,
    get_tracer,
    is_registered_counter,
    is_registered_histogram,
    is_registered_span,
    observe,
    registered_names,
    render_report,
    render_spans,
    span,
    tracing,
    unregistered_names,
)
from repro.observability.core import _NULL_SPAN


class FakeClock:
    """A deterministic monotonic clock advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class AverageMember(CrowdMember):
    """The paper's ``u_avg`` (Example 4.6), as in test_engine.py."""

    def __init__(self, member_id, databases, vocabulary):
        from repro.crowd import PersonalDatabase

        super().__init__(member_id, PersonalDatabase(), vocabulary)
        self._databases = databases

    def true_support(self, fact_set):
        supports = [
            db.support(fact_set, self.vocabulary)
            for db in self._databases.values()
        ]
        return sum(supports) / len(supports)


def _engine(ontology):
    return OassisEngine(
        ontology, config=EngineConfig(max_values_per_var=2, max_more_facts=1)
    )


@pytest.fixture(scope="module")
def setting():
    ontology = running_example.build_ontology()
    dbs = running_example.build_personal_databases()
    members = [
        AverageMember(f"avg-{i}", dbs, ontology.vocabulary) for i in range(5)
    ]
    return _engine(ontology), members


class TestSpans:
    def test_nesting_attributes_time_to_the_open_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
        outer = tracer.root.children["outer"]
        assert outer.count == 1
        assert outer.total_seconds == pytest.approx(1.25)
        inner = outer.children["inner"]
        assert inner.count == 1
        assert inner.total_seconds == pytest.approx(0.25)
        # inner is a child of outer, not a second root
        assert list(tracer.root.children) == ["outer"]

    def test_same_name_same_parent_aggregates(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for _ in range(5):
            with tracer.span("loop"):
                clock.advance(0.1)
        node = tracer.root.children["loop"]
        assert node.count == 5
        assert node.total_seconds == pytest.approx(0.5)
        assert len(tracer.root.children) == 1

    def test_same_name_different_parent_stays_separate(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("shared"):
                pass
        with tracer.span("b"):
            with tracer.span("shared"):
                pass
        assert tracer.span_names() == ["a", "a/shared", "b", "b/shared"]

    def test_exception_still_closes_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.advance(2.0)
                raise RuntimeError("inside")
        node = tracer.root.children["boom"]
        assert node.total_seconds == pytest.approx(2.0)
        # the stack unwound: new spans open at the root again
        with tracer.span("after"):
            pass
        assert "after" in tracer.root.children

    def test_find_span_depth_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("target"):
                pass
        assert tracer.find_span("target").name == "target"
        assert tracer.find_span("absent") is None


class TestCounters:
    def test_aggregation(self):
        tracer = Tracer()
        tracer.count("a")
        tracer.count("a", 4)
        tracer.count("b", 2)
        assert tracer.value("a") == 5
        assert tracer.value("b") == 2
        assert tracer.value("never") == 0

    def test_module_level_count_reaches_active_tracer(self):
        with tracing() as tracer:
            count("x")
            count("x", 2)
        assert tracer.value("x") == 3


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert get_tracer() is None
        assert not enabled()

    def test_span_returns_the_shared_null_context_manager(self):
        assert span("anything") is _NULL_SPAN
        assert span("something.else") is _NULL_SPAN
        with span("noop"):
            pass  # usable as a context manager

    def test_count_is_a_noop(self):
        count("x", 100)  # nothing to assert on — must simply not raise

    def test_result_stats_is_none_when_disabled(self, setting):
        engine, members = setting
        result = engine.execute(
            running_example.FRAGMENT_QUERY, members, sample_size=5
        )
        assert result.stats is None
        assert "stats" not in result.to_dict()

    def test_tracing_is_context_local_and_resets(self):
        assert get_tracer() is None
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert enabled()
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is None

    def test_enable_disable(self):
        tracer = enable()
        try:
            assert get_tracer() is tracer
        finally:
            assert disable() is tracer
        assert get_tracer() is None


class TestReport:
    def test_derive_cache_hit_rate(self):
        assert derive({"cache.hits": 3, "cache.misses": 1})["cache_hit_rate"] == 0.75
        assert derive({})["cache_hit_rate"] is None

    def test_derive_inference_split(self):
        derived = derive(
            {
                "mining.inferred.significant": 2,
                "mining.inferred.insignificant": 7,
                "mining.classified.by_crowd": 4,
            }
        )
        assert derived["nodes_pruned_by_inference"] == 7
        assert derived["nodes_classified_by_inference"] == 9
        assert derived["nodes_classified_by_crowd"] == 4

    def test_schema_and_json_round_trip(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("phase"):
            clock.advance(0.5)
            tracer.count("crowd.questions", 3)
        report = build_report(tracer)
        assert report["version"] == REPORT_VERSION
        assert report["counters"] == {"crowd.questions": 3}
        assert report["derived"]["total_questions"] == 3
        (phase,) = report["spans"]
        assert phase == {
            "name": "phase",
            "count": 1,
            "total_s": 0.5,
            "children": [],
        }
        assert json.loads(json.dumps(report)) == report

    def test_render_contains_headline_and_sections(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("crowd.questions", 12)
        tracer.count("cache.hits", 1)
        tracer.count("cache.misses", 3)
        with tracer.span("engine.execute"):
            pass
        text = tracer.render()
        assert "total questions" in text
        assert "12" in text
        assert "cache hit rate" in text
        assert "25.0%" in text
        assert "nodes pruned by inference" in text
        assert "per-phase wall time" in text
        assert "engine.execute" in text

    def test_render_spans_only(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = render_spans(tracer.report())
        assert "outer" in text and "inner" in text
        assert "total questions" not in text


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def traced(self, setting):
        # a fresh engine: the module's engine may have posed the query
        # before, and then shares its expanded lattice with this run
        engine, members = setting
        with tracing() as tracer:
            result = _engine(engine.ontology).execute(
                running_example.FRAGMENT_QUERY, members, sample_size=5
            )
        return tracer, result

    def test_question_counter_matches_result(self, traced):
        tracer, result = traced
        assert tracer.value("crowd.questions") == result.questions
        assert result.stats["counters"]["crowd.questions"] == result.questions
        assert result.stats["derived"]["total_questions"] == result.questions

    def test_span_tree_covers_the_pipeline(self, traced):
        tracer, _ = traced
        execute = tracer.root.children["engine.execute"]
        assert execute.count == 1
        assert execute.total_seconds > 0.0
        for phase in ("engine.parse", "lattice.build", "mine.multiuser",
                      "result.build"):
            assert phase in execute.children, tracer.span_names()

    def test_stats_travel_on_the_result(self, traced):
        _, result = traced
        assert result.stats["version"] == REPORT_VERSION
        # the refreshed report includes the closed engine.execute wall time
        (execute,) = [
            s for s in result.stats["spans"] if s["name"] == "engine.execute"
        ]
        assert execute["total_s"] > 0.0
        assert json.loads(json.dumps(result.stats)) == result.stats
        assert result.to_dict()["stats"] == result.stats

    def test_inference_accounting_present(self, traced):
        tracer, _ = traced
        counters = tracer.counters
        assert counters.get("mining.classified.by_crowd", 0) > 0
        derived = derive(counters)
        total = (
            derived["nodes_classified_by_crowd"]
            + derived["nodes_classified_by_inference"]
        )
        assert total > 0

    def test_cold_expansions_fill_the_latency_histogram(self, traced):
        # one sample per successor-cache miss: the expansions a member's
        # next question waited on
        tracer, result = traced
        misses = tracer.value("lattice.succ_cache.misses")
        assert misses > 0
        assert tracer.histograms["lattice.latency.expand"].count == misses
        summary = result.stats["histograms"]["lattice.latency.expand"]
        assert summary["count"] == misses
        assert 0.0 < summary["p99_s"] <= summary["max_s"]

    def test_a_warm_run_expands_nothing_the_first_one_did(self, setting):
        # the second execution of the query on one engine finds every node
        # the first expanded or instantiated in the shared lattice, and
        # asks the same
        _, members = setting
        engine = _engine(running_example.build_ontology())
        runs = []
        for _ in range(2):
            with tracing() as tracer:
                result = engine.execute(
                    running_example.FRAGMENT_QUERY, members, sample_size=5
                )
            runs.append((tracer, result))
        (cold, first), (warm, second) = runs
        assert cold.value("lattice.succ_cache.misses") > 0
        assert cold.value("lattice.facts.misses") > 0
        assert warm.value("lattice.reused") == 1
        assert warm.value("lattice.succ_cache.misses") == 0
        assert warm.value("lattice.facts.misses") == 0
        assert "lattice.latency.expand" not in warm.histograms
        assert warm.value("lattice.succ_cache.hits") > 0
        assert second.questions == first.questions
        assert second.render() == first.render()

    def test_render_report_on_real_run(self, traced):
        tracer, _ = traced
        text = render_report(tracer.report())
        assert text.startswith("== observability summary ==")

    def test_every_recorded_name_is_registered(self, traced):
        # the runtime converse of the static tracer-name lint rule: a
        # representative traced run records no counter or span the
        # central registry (repro.observability.names) does not know
        tracer, _ = traced
        assert unregistered_names(tracer) == frozenset()

    def test_registry_helpers(self):
        assert is_registered_counter("crowd.questions")
        assert not is_registered_counter("engine.execute")
        assert is_registered_span("engine.execute")
        assert is_registered_histogram("gateway.latency.next")
        assert not is_registered_histogram("gateway.requests")
        assert (
            registered_names("counter")
            | registered_names("span")
            | registered_names("histogram")
        ) == registered_names()
        with pytest.raises(ValueError):
            registered_names("bogus")


class TestHistograms:
    def test_quantiles_are_clamped_to_observed_range(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.003, 0.004, 0.100):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.quantile(0.0) == pytest.approx(0.001)
        assert histogram.quantile(1.0) == pytest.approx(0.100)
        assert 0.001 <= histogram.quantile(0.5) <= 0.004

    def test_empty_histogram_quantile_is_zero(self):
        histogram = Histogram()
        assert histogram.quantile(0.99) == 0.0
        assert histogram.as_dict() == {"count": 0}

    def test_tracer_observe_aggregates_by_name(self):
        tracer = Tracer()
        tracer.observe("gateway.latency.next", 0.01)
        tracer.observe("gateway.latency.next", 0.02)
        tracer.observe("gateway.latency.answer", 0.005)
        assert tracer.histograms["gateway.latency.next"].count == 2
        assert tracer.histograms["gateway.latency.answer"].count == 1

    def test_module_level_observe_reaches_active_tracer(self):
        with tracing() as tracer:
            observe("gateway.latency.health", 0.003)
        assert tracer.histograms["gateway.latency.health"].count == 1
        observe("gateway.latency.health", 0.003)  # disabled: a no-op
        assert tracer.histograms["gateway.latency.health"].count == 1

    def test_unregistered_histogram_name_is_flagged(self):
        tracer = Tracer()
        tracer.observe("gateway.latency.bogus", 0.001)
        assert "gateway.latency.bogus" in unregistered_names(tracer)
        tracer2 = Tracer()
        tracer2.observe("gateway.latency.next", 0.001)
        assert unregistered_names(tracer2) == frozenset()

    def test_report_carries_histograms_and_gateway_section(self):
        tracer = Tracer()
        tracer.observe("gateway.latency.next", 0.01)
        tracer.count("gateway.requests")
        tracer.count("gateway.answers.accepted")
        report = tracer.report()
        assert report["histograms"]["gateway.latency.next"]["count"] == 1
        assert report["gateway"]["requests"] == 1
        text = render_report(report)
        assert "gateway" in text
        assert "latency histograms" in text

    def test_gateway_section_absent_without_gateway_traffic(self):
        tracer = Tracer()
        tracer.count("crowd.questions")
        assert tracer.report().get("gateway") is None
