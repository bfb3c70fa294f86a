"""Horizontal (Apriori-inspired) baseline — Section 6.4.

Levelwise bottom-up evaluation: an assignment is asked about only after
*all* of its immediate predecessors have been verified significant, exactly
like Apriori's candidate generation.  It shares the Observation 4.4
inference scheme with the vertical algorithm and never re-asks classified
assignments, so the comparison isolates the traversal order.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Set, TypeVar

from ..assignments.lattice import AssignmentSpace
from ..observability import span as _obs_span
from .state import Status
from .trace import MiningResult, Probe
from .vertical import SupportOracle

Node = TypeVar("Node", bound=Hashable)


def horizontal_mine(
    space: AssignmentSpace[Node],
    support_oracle: SupportOracle,
    threshold: float,
    valid_nodes: Optional[Sequence[Node]] = None,
    target_msps: Optional[Sequence[Node]] = None,
    max_questions: Optional[int] = None,
) -> MiningResult[Node]:
    """Levelwise mining: breadth-first, gated on all-predecessors-significant."""
    probe: Probe[Node] = Probe(
        space,
        support_oracle,
        threshold,
        valid_nodes=valid_nodes,
        target_msps=target_msps,
    )
    state = probe.state

    # frontier of candidates whose predecessors are all known significant
    with _obs_span("mine.horizontal"):
        pending: List[Node] = list(space.roots())
        enqueued: Set[Node] = set(pending)
        index = 0
        while index < len(pending):
            if max_questions is not None and probe.questions >= max_questions:
                break
            node = pending[index]
            index += 1
            status = state.status(node)
            if status is Status.UNKNOWN:
                significant = probe.ask(node)
            else:
                significant = status is Status.SIGNIFICANT
                if significant:
                    probe.tracker.note_significant(node)
            if not significant:
                continue
            for successor in space.successors(node):
                if successor in enqueued:
                    continue
                predecessors = space.predecessors(successor)
                if all(state.status(p) is Status.SIGNIFICANT for p in predecessors):
                    enqueued.add(successor)
                    pending.append(successor)

    return probe.result()
