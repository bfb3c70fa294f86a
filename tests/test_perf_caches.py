"""Behavioural tests for the perf-PR caches and their invalidation.

Covers the satellite fixes: the SPARQL engine no longer retains a stale
tracer across evaluations, the label reverse index stays consistent, the
personal-database hit memo is bounded, and the engine's closure caches drop
when the ontology mutates mid-lifetime.
"""

import pytest

from repro.crowd.personal_db import HITS_CACHE_MAX, PersonalDatabase
from repro.observability import Tracer, tracing
from repro.ontology.facts import fact_set
from repro.ontology.graph import Ontology
from repro.sparql.engine import SparqlEngine
from repro.sparql.parser import parse_bgp
from repro.vocabulary.terms import Element


@pytest.fixture()
def ontology():
    onto = Ontology()
    onto.add(("Biking", "subClassOf", "Sport"))
    onto.add(("Swimming", "subClassOf", "Sport"))
    onto.add(("GordonBeach", "instanceOf", "Beach"))
    onto.add(("Beach", "subClassOf", "Attraction"))
    onto.add(("GordonBeach", "inside", "TelAviv"))
    onto.add_label("GordonBeach", "family-friendly")
    return onto


class TestTracerLifecycle:
    def test_obs_cleared_after_solutions(self, ontology):
        engine = SparqlEngine(ontology)
        bgp = parse_bgp('$x inside TelAviv')
        with tracing() as tracer:
            list(engine.solutions(bgp))
            assert tracer.value("sparql.solutions") == 1
        # the trace has ended: the engine must not retain the dead tracer
        assert engine._obs is None
        results = list(engine.solutions(bgp))
        assert len(results) == 1
        assert engine._obs is None
        # no counting happened outside the trace
        assert tracer.value("sparql.solutions") == 1

    def test_fresh_tracer_picked_up_per_evaluation(self, ontology):
        engine = SparqlEngine(ontology)
        bgp = parse_bgp('$x inside TelAviv')
        with tracing() as first:
            list(engine.solutions(bgp))
        with tracing() as second:
            list(engine.solutions(bgp))
        assert first.value("sparql.solutions") == 1
        assert second.value("sparql.solutions") == 1

    def test_obs_cleared_after_ask(self, ontology):
        engine = SparqlEngine(ontology)
        with tracing():
            engine.ask(parse_bgp('$x inside TelAviv'))
        assert engine._obs is None


class TestLabelIndex:
    def test_reverse_index_matches_scan(self, ontology):
        expected = frozenset(
            e
            for e in ontology.vocabulary.elements
            if "family-friendly" in ontology.labels(e)
        )
        assert ontology.elements_with_label("family-friendly") == expected

    def test_index_updates_on_new_label(self, ontology):
        assert ontology.elements_with_label("quiet") == frozenset()
        ontology.add_label("Beach", "quiet")
        assert ontology.elements_with_label("quiet") == {Element("Beach")}

    def test_duplicate_label_is_idempotent(self, ontology):
        before = ontology.version
        ontology.add_label("GordonBeach", "family-friendly")
        assert ontology.version == before
        assert ontology.elements_with_label("family-friendly") == {
            Element("GordonBeach")
        }

    def test_copy_preserves_index(self, ontology):
        dup = ontology.copy()
        assert dup.elements_with_label("family-friendly") == {
            Element("GordonBeach")
        }


class TestEngineCacheInvalidation:
    def test_new_facts_visible_after_cached_evaluation(self, ontology):
        engine = SparqlEngine(ontology)
        bgp = parse_bgp('$x inside TelAviv')
        assert len(list(engine.solutions(bgp))) == 1
        ontology.add(("Pine", "inside", "TelAviv"))
        assert len(list(engine.solutions(bgp))) == 2

    def test_new_labels_visible_after_cached_evaluation(self, ontology):
        engine = SparqlEngine(ontology)
        bgp = parse_bgp('$x hasLabel "family-friendly"')
        assert len(list(engine.solutions(bgp))) == 1
        ontology.add_label("Beach", "family-friendly")
        assert len(list(engine.solutions(bgp))) == 2

    def test_closure_cache_counters_report(self, ontology):
        engine = SparqlEngine(ontology)
        bgp = parse_bgp('$x inside TelAviv')
        with tracing() as tracer:
            list(engine.solutions(bgp))
            list(engine.solutions(bgp))
        assert tracer.value("sparql.closure_cache.hits") >= 1


class TestBoundedHitsCache:
    def test_hits_cache_never_exceeds_cap(self, ontology):
        vocabulary = ontology.vocabulary
        db = PersonalDatabase.parse(["Biking doAt GordonBeach"])
        for i in range(HITS_CACHE_MAX + 50):
            db.support(fact_set((f"Q{i}", "doAt", "GordonBeach")), vocabulary)
        assert len(db._hits_cache) <= HITS_CACHE_MAX

    def test_eviction_keeps_answers_correct(self, ontology):
        vocabulary = ontology.vocabulary
        db = PersonalDatabase.parse(["Biking doAt GordonBeach"])
        target = fact_set(("Biking", "doAt", "GordonBeach"))
        assert db.support(target, vocabulary) == 1.0
        for i in range(HITS_CACHE_MAX + 10):
            db.support(fact_set((f"Q{i}", "doAt", "GordonBeach")), vocabulary)
        assert db.support(target, vocabulary) == 1.0
