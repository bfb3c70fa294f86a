"""Threshold replay from cached answers (Section 6.3).

Crowd answers are independent of the support threshold, so a query executed
at threshold 0.2 can be re-evaluated at 0.3/0.4/0.5 from the
:class:`~repro.crowd.cache.CrowdCache` alone.  The paper counts, per
threshold, "only the answers used by the algorithm out of the cached ones";
this module implements exactly that accounting: a vertical-style traversal
whose ``ask`` consumes the first ``sample_size`` cached answers of each
assignment it visits.

Assignments with no cached answers are treated as insignificant: the
original (lowest-threshold) run only left a node unasked when it lay below
its insignificant boundary, and support monotonicity makes such nodes
insignificant at every higher threshold too.  Cache misses are still
counted and reported so that a *mis*-use of replay (e.g. replaying at a
*lower* threshold) is visible.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, TypeVar

from ..assignments.lattice import AssignmentSpace
from ..crowd.cache import CrowdCache
from ..observability import get_tracer, span as _obs_span
from .trace import MiningResult, Probe
from .vertical import vertical_walk

Node = TypeVar("Node", bound=Hashable)


class ReplayResult(MiningResult[Node]):
    """Replay outcome; ``questions`` counts the cached answers used."""

    def __init__(self, *args, cache_misses: int = 0, nodes_visited: int = 0):
        super().__init__(*args)
        self.cache_misses = cache_misses
        self.nodes_visited = nodes_visited


def replay_from_cache(
    space: AssignmentSpace[Node],
    cache: CrowdCache,
    threshold: float,
    sample_size: int = 5,
    valid_nodes: Optional[Sequence[Node]] = None,
    target_msps: Optional[Sequence[Node]] = None,
) -> ReplayResult[Node]:
    """Re-evaluate at ``threshold`` using only cached answers.

    Algorithm 1's loop (:func:`~repro.mining.vertical.vertical_walk`) with
    a cache-average oracle.  Returns a result whose ``questions`` field is
    the number of cached answers the traversal consumed — the Section 6.3
    per-threshold count.
    """
    probe: Probe[Node] = Probe(
        space, stride=5, valid_nodes=valid_nodes, target_msps=target_msps
    )
    obs = get_tracer()
    cache_misses = 0
    nodes_visited = 0

    def ask(node: Node) -> bool:
        nonlocal cache_misses, nodes_visited
        nodes_visited += 1
        if obs is not None:
            obs.count("replay.nodes_visited")
        answers = cache.answers_for(node)[:sample_size]
        if answers:
            probe.questions += len(answers)
            if obs is not None:
                obs.count("replay.answers_used", len(answers))
            significant = sum(s for _, s in answers) / len(answers) >= threshold
        else:
            cache_misses += 1
            if obs is not None:
                obs.count("replay.cache_misses")
            significant = False
        probe.mark(node, significant)
        probe.sample()
        return significant

    with _obs_span("mine.replay"):
        msps = list(vertical_walk(probe, ask))
    return probe.result(
        msps,
        ReplayResult,
        cache_misses=cache_misses,
        nodes_visited=nodes_visited,
    )
