"""Top-k and diversified answers (Section 8 future-work extensions).

* :func:`vertical_mine_top_k` — Algorithm 1 with early termination once
  ``k`` MSPs are confirmed.  The vertical traversal makes this effective:
  it produces complete MSPs incrementally (the paper: "answers can be
  returned faster, as soon as they are identified"), so stopping early
  saves the whole remaining exploration.
* :func:`diversify` — pick ``k`` answers that are pairwise semantically
  far apart, by greedy max-min selection under a lattice distance (the
  symmetric difference of the assignments' down-sets is approximated by
  value-level taxonomy distance).
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, List, Optional, Sequence, TypeVar

from ..assignments.assignment import Assignment
from ..assignments.lattice import AssignmentSpace
from ..vocabulary.vocabulary import Vocabulary
from .trace import MiningResult, Probe
from .vertical import SupportOracle, vertical_walk

Node = TypeVar("Node", bound=Hashable)


def vertical_mine_top_k(
    space: AssignmentSpace[Node],
    support_oracle: SupportOracle,
    threshold: float,
    k: int,
    valid_only: bool = True,
    max_questions: Optional[int] = None,
) -> MiningResult[Node]:
    """Run the vertical algorithm until ``k`` (valid) MSPs are confirmed."""
    if k < 1:
        raise ValueError("k must be positive")
    probe: Probe[Node] = Probe(space, support_oracle, threshold)

    def budget_left() -> bool:
        return max_questions is None or probe.questions < max_questions

    msps: List[Node] = []
    for msp in vertical_walk(probe, probe.ask, budget_left):
        msps.append(msp)
        if len([m for m in msps if not valid_only or space.is_valid(m)]) >= k:
            break
    result = probe.result(msps)
    result.valid_msps = result.valid_msps[:k]
    result.msps = list(result.valid_msps) if valid_only else result.msps[:k]
    return result


def assignment_distance(a: Assignment, b: Assignment, vocabulary: Vocabulary) -> float:
    """A simple semantic distance between assignments.

    Per shared variable, 0 when the value sets are equal, 0.5 when they are
    comparable (one refines the other), 1 when incomparable; variables
    present in only one assignment count 1.  MORE facts contribute their
    symmetric difference size (capped at 1).  The result is normalized by
    the number of contributing components.
    """
    names = set(a.values) | set(b.values)
    total = 0.0
    parts = 0
    for name in names:
        parts += 1
        va, vb = a.get(name), b.get(name)
        if va == vb:
            continue
        if not va or not vb:
            total += 1.0
            continue
        sub = Assignment({name: va})
        sup = Assignment({name: vb})
        if sub.leq(sup, vocabulary) or sup.leq(sub, vocabulary):
            total += 0.5
        else:
            total += 1.0
    if a.more or b.more:
        parts += 1
        if a.more != b.more:
            total += min(1.0, len(a.more ^ b.more))
    if parts == 0:
        return 0.0
    return total / parts


def diversify(
    answers: Sequence[Node],
    k: int,
    distance: Callable[[Node, Node], float],
    seed: int = 0,
) -> List[Node]:
    """Greedy max-min selection of ``k`` mutually distant answers."""
    if k < 1:
        raise ValueError("k must be positive")
    pool = list(answers)
    if len(pool) <= k:
        return pool
    rng = random.Random(seed)
    chosen = [pool.pop(rng.randrange(len(pool)))]
    while len(chosen) < k and pool:
        best_index = max(
            range(len(pool)),
            key=lambda i: min(distance(pool[i], c) for c in chosen),
        )
        chosen.append(pool.pop(best_index))
    return chosen
