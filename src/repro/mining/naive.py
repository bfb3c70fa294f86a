"""Naive baseline — Section 6.4.

Randomly picks an unclassified *valid* assignment and asks about it, using
the same Observation 4.4 inference scheme as the other algorithms (and never
asking about already-classified assignments).  It performs well only when
MSPs are dense enough for lucky guesses.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional, Sequence, TypeVar

from ..assignments.lattice import AssignmentSpace
from .trace import MiningResult, Probe
from .vertical import SupportOracle

Node = TypeVar("Node", bound=Hashable)


def naive_mine(
    space: AssignmentSpace[Node],
    support_oracle: SupportOracle,
    threshold: float,
    rng: Optional[random.Random] = None,
    valid_nodes: Optional[Sequence[Node]] = None,
    target_msps: Optional[Sequence[Node]] = None,
    max_questions: Optional[int] = None,
) -> MiningResult[Node]:
    """Random-order probing of the valid assignments.

    ``valid_nodes`` may be supplied to avoid re-materializing the space;
    otherwise the space is enumerated and filtered through ``is_valid``.
    """
    rng = rng if rng is not None else random.Random(0)
    if valid_nodes is None:
        valid_nodes = [n for n in space.all_nodes() if space.is_valid(n)]
    probe: Probe[Node] = Probe(
        space,
        support_oracle,
        threshold,
        valid_nodes=valid_nodes,
        target_msps=target_msps,
    )

    order = list(valid_nodes)
    rng.shuffle(order)
    for node in order:
        if max_questions is not None and probe.questions >= max_questions:
            break
        if not probe.state.is_classified(node):
            probe.ask(node)
    return probe.result()
