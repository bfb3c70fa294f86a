"""Runs and sessions of one query shape share one lattice.

:meth:`OassisEngine.build_space` hands every run a fresh
:class:`QueryAssignmentSpace` over a retained :class:`QueryLattice`.  The
oracle is the unshared space: runs on one engine must ask exactly the
questions, find exactly the MSPs and read exactly the successor lists
that the same runs read on fresh engines, or on fresh spaces that replay
their MORE proposals.
"""

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import repro

from repro.assignments import QueryAssignmentSpace
from repro.crowd.cache import CrowdCache
from repro.datasets import culinary, health, travel
from repro.engine.adapters import MemberUser
from repro.engine.config import EngineConfig
from repro.engine.engine import RETAINED_LATTICES, OassisEngine
from repro.observability import tracing
from repro.ontology import Fact

CONFIG = EngineConfig(max_values_per_var=2, max_more_facts=1)
#: (crowd seed, threshold) of the runs one engine executes in turn
RUNS = ((1, 0.5), (2, 0.6), (3, 0.5))


@pytest.fixture()
def question_log(monkeypatch):
    """Every question a member is asked, with its answer, in order: the
    support and specialization questions and the MORE tips."""
    log = []

    def logged(name):
        method = getattr(MemberUser, name)

        def wrapper(self, node, *args):
            answer = method(self, node, *args)
            offered = tuple(args[0]) if args else None
            log.append((name, self.member_id, node, offered, answer))
            return answer

        return wrapper

    for name in ("support", "choose_specialization", "more_tip"):
        monkeypatch.setattr(MemberUser, name, logged(name))
    return log


def _execute(engine, dataset, seed, threshold):
    return engine.execute(
        dataset.query(threshold),
        dataset.build_crowd(size=6, seed=seed),
        sample_size=3,
        cache=CrowdCache(),
        more_pool=dataset.more_pool,
    )


def _runs(engine_for, dataset, question_log):
    """The questions, question count and MSPs of each of RUNS."""
    runs = []
    for seed, threshold in RUNS:
        start = len(question_log)
        result = _execute(engine_for(), dataset, seed, threshold)
        runs.append(
            (question_log[start:], result.questions, sorted(map(repr, result.all_msps)))
        )
    return runs


@pytest.mark.parametrize("module", [travel, culinary, health],
                         ids=["travel", "culinary", "health"])
def test_shared_runs_ask_what_fresh_engines_ask(module, question_log):
    dataset = module.build_dataset()
    engine = OassisEngine(dataset.ontology, config=CONFIG)
    shared = _runs(lambda: engine, dataset, question_log)
    fresh = _runs(
        lambda: OassisEngine(dataset.ontology, config=CONFIG), dataset, question_log
    )
    assert all(questions > 0 for _, questions, _ in shared)
    assert shared == fresh
    if module is travel:
        # the travel runs exercise the pool and the crowd's MORE tips
        assert any(entry[0] == "more_tip" and entry[4] for entry in question_log)


@pytest.fixture()
def travel_engine():
    dataset = travel.build_dataset()
    return dataset, OassisEngine(dataset.ontology, config=CONFIG)


def test_runs_read_the_lists_of_unshared_spaces(travel_engine, monkeypatch):
    dataset, engine = travel_engine
    spaces = []
    proposals = defaultdict(list)
    touched = defaultdict(dict)
    build_space = engine.build_space
    propose = QueryAssignmentSpace.propose_more_fact
    successors = QueryAssignmentSpace.successors

    def record_space(*args, **kwargs):
        space = build_space(*args, **kwargs)
        spaces.append(space)
        return space

    def record_proposal(self, node, fact):
        extended = propose(self, node, fact)
        proposals[self].append((node, fact, extended))
        return extended

    def record_expansion(self, node):
        touched[self][node] = None
        return successors(self, node)

    monkeypatch.setattr(engine, "build_space", record_space)
    monkeypatch.setattr(QueryAssignmentSpace, "propose_more_fact", record_proposal)
    monkeypatch.setattr(QueryAssignmentSpace, "successors", record_expansion)
    for seed, threshold in RUNS:
        _execute(engine, dataset, seed, threshold)
    assert len(spaces) == len(RUNS)
    assert all(space.lattice is spaces[0].lattice for space in spaces)
    assert any(extended for space in spaces for _, _, extended in proposals[space])

    def unshared(query):
        return QueryAssignmentSpace(
            dataset.ontology,
            query,
            more_pool=dataset.more_pool,
            max_values_per_var=CONFIG.max_values_per_var,
            max_more_facts=CONFIG.max_more_facts,
        )

    for space in spaces:
        fresh = unshared(space.query)
        for node, fact, _ in proposals[space]:
            fresh.propose_more_fact(node, fact)
        nodes = list(touched[space])
        for node in nodes:
            fresh.successors(node)
        assert space.materialized_nodes() == fresh.materialized_nodes()
        for node in nodes:
            assert space.successors(node) == fresh.successors(node)
            assert space.ordered_successors(node) == fresh.ordered_successors(node)

    # an extension one run proposed is in no other run's lists, unless that
    # run proposed it too or the pool offers it to every run
    plain = unshared(spaces[0].query)
    for space in spaces:
        for other in spaces:
            if other is space:
                continue
            own = {(node, extended) for node, _, extended in proposals[other]}
            for node, _, extended in proposals[space]:
                if extended is None or (node, extended) in own:
                    continue
                if extended in plain.successors(node):
                    continue
                assert extended not in other.successors(node)
                assert extended not in other.ordered_successors(node)


def test_a_proposal_stays_in_its_run(travel_engine):
    dataset, engine = travel_engine
    query = dataset.query(0.5)
    first, second = engine.build_space(query), engine.build_space(query)
    assert first.lattice is second.lattice
    root = first.roots()[0]
    tip = dataset.more_pool[0]  # the spaces have no pool: a proposal only
    before = second.successors(root)
    extended = first.propose_more_fact(root, tip)
    assert extended is not None
    assert extended in first.successors(root)
    assert extended in first.ordered_successors(root)
    for space in (second, engine.build_space(query)):
        assert extended not in space.successors(root)
        assert extended not in space.ordered_successors(root)
    assert second.successors(root) == before
    # a proposal on a node the run has not expanded joins its list later
    child = before[0]
    other_tip = Fact("Swimming", "doAt", "Gordon Beach")
    late = second.propose_more_fact(child, other_tip)
    assert late in second.successors(child)
    assert late not in first.successors(child)


def _count_reuse(engine, *args):
    with tracing() as tracer:
        engine.build_space(*args)
    return tracer.value("lattice.reused")


def test_reuse_is_counted_per_query_shape(travel_engine):
    dataset, engine = travel_engine
    assert _count_reuse(engine, dataset.query(0.5)) == 0
    # another threshold, another parse: the same shape
    assert _count_reuse(engine, dataset.query(0.3)) == 1
    assert _count_reuse(engine, engine.parse(dataset.query(0.7))) == 1
    # another MORE pool, another value cap: other lattices
    assert _count_reuse(engine, dataset.query(0.5), dataset.more_pool) == 0
    engine.config = EngineConfig(max_values_per_var=3, max_more_facts=1)
    assert _count_reuse(engine, dataset.query(0.5)) == 0


@pytest.mark.parametrize("change", ["ontology triple", "order edge"])
def test_a_changed_ontology_gets_a_new_lattice(change):
    dataset = travel.build_dataset()
    engine = OassisEngine(dataset.ontology, config=CONFIG)
    old = engine.build_space(dataset.query(0.5)).lattice
    _execute(engine, dataset, 1, 0.5)
    vocabulary = dataset.ontology.vocabulary
    orders = (vocabulary.element_order.version, vocabulary.relation_order.version)
    if change == "ontology triple":
        # a restaurant near one more attraction: new WHERE tuples
        dataset.ontology.add(Fact("Abu Hassan", "nearBy", "Gordon Beach"))
        assert (vocabulary.element_order.version,
                vocabulary.relation_order.version) == orders
    else:
        # Biking becomes a water sport too: new successors and order
        vocabulary.specialize_element("Water Sport", "Biking")
    assert _count_reuse(engine, dataset.query(0.5)) == 0
    assert engine.build_space(dataset.query(0.5)).lattice is not old
    shared = _execute(engine, dataset, 2, 0.5)
    fresh = _execute(OassisEngine(dataset.ontology, config=CONFIG), dataset, 2, 0.5)
    assert shared.questions == fresh.questions
    assert sorted(map(repr, shared.all_msps)) == sorted(map(repr, fresh.all_msps))


def test_an_engine_retains_at_most_the_cap(travel_engine):
    dataset, engine = travel_engine
    pools = [()] + [[Fact("Rent Bikes", "doAt", f"Stand {i}")]
                    for i in range(RETAINED_LATTICES + 2)]
    for pool in pools:
        engine.build_space(dataset.query(0.5), pool)
        assert len(engine._lattices) <= RETAINED_LATTICES
    assert len(engine._lattices) == RETAINED_LATTICES
    # the least recently posed go first: re-posing a retained shape keeps
    # it, so the oldest other one is evicted
    assert _count_reuse(engine, dataset.query(0.5), pools[-RETAINED_LATTICES]) == 1
    assert _count_reuse(engine, dataset.query(0.5), pools[0]) == 0
    assert _count_reuse(engine, dataset.query(0.5), pools[-RETAINED_LATTICES]) == 1
    assert _count_reuse(engine, dataset.query(0.5), pools[-RETAINED_LATTICES + 1]) == 0


def test_predecessor_lists_do_not_move_with_the_hash_seed():
    # lists in a shared lattice must not depend on which run filled them:
    # every predecessor list of a 3,005-node breadth-first prefix of
    # travel, hashed in two interpreters
    src = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "import hashlib\n"
        "from repro.assignments import QueryAssignmentSpace\n"
        "from repro.datasets import travel\n"
        "from repro.oassisql import parse_query\n"
        "dataset = travel.build_dataset()\n"
        "space = QueryAssignmentSpace(dataset.ontology,\n"
        "    parse_query(dataset.query(0.5)), more_pool=dataset.more_pool,\n"
        "    max_values_per_var=2, max_more_facts=1)\n"
        "nodes = space.all_nodes(max_nodes=3000)\n"
        "digest = hashlib.sha256()\n"
        "for node in nodes:\n"
        "    digest.update(repr(space.predecessors(node)).encode())\n"
        "print(len(nodes), digest.hexdigest())\n"
    )
    outputs = []
    for hash_seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(run.stdout.split())
    assert outputs[0][0] == "3005"
    assert outputs[0] == outputs[1]
