"""Correctness checks of the benchmark's outputs, one per workload.

Each check returns a list of problems; an empty list means the output is
correct.  The checks take plain values so that a test can feed them a
corrupted result and watch them fail.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Sequence


def check_travel_batch(
    msps: Sequence[Hashable],
    answers_for: Callable[[Hashable], List[Any]],
    successors: Callable[[Hashable], Iterable[Hashable]],
    make_aggregator: Callable[[], Any],
) -> List[str]:
    """Every MSP is significant by its recorded answers; no successor is.

    ``answers_for`` returns the ``(member, support)`` answers that decided
    a node: the first ``sample_size`` a run recorded for it in its
    ``CrowdCache``.  Later answers do not count: the fixed-sample
    aggregator decides a node once it has ``sample_size`` answers, and a
    specialization question can still add answers to a node that is
    already decided.  ``make_aggregator`` builds a fresh aggregator with
    the query's threshold and sample size.
    """
    from repro.crowd.aggregator import Verdict

    problems: List[str] = []
    if not msps:
        problems.append("no MSP reported")
    for msp in msps:
        aggregator = make_aggregator()
        nodes = [msp, *successors(msp)]
        for node in nodes:
            for member, support in answers_for(node):
                aggregator.add_answer(node, member, support)
        if aggregator.verdict(msp) is not Verdict.SIGNIFICANT:
            problems.append(f"MSP {msp!r} is not significant by its recorded answers")
        for node in nodes[1:]:
            if aggregator.verdict(node) is Verdict.SIGNIFICANT:
                problems.append(f"successor {node!r} of MSP {msp!r} is significant")
    return problems


def check_planted(mined: Iterable[Hashable], planted: Iterable[Hashable]) -> List[str]:
    """The mined MSPs equal the planted set."""
    got, want = set(mined), set(planted)
    if got == want:
        return []
    return [
        f"mined {len(got)} MSPs, planted {len(want)}: "
        f"{len(got - want)} extra, {len(want - got)} missing"
    ]


def check_identity(served: Dict[str, Sequence[str]], serial: Dict[str, Sequence[str]]) -> List[str]:
    """Each served session's MSPs equal the serial engine's for its query."""
    problems: List[str] = []
    for session, msps in sorted(served.items()):
        expected = serial.get(session)
        if expected is None:
            problems.append(f"session {session}: no serial result")
        elif sorted(msps) != sorted(expected):
            problems.append(
                f"session {session}: {len(msps)} MSPs served, "
                f"{len(expected)} from serial execute"
            )
    return problems
