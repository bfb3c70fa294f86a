"""The vertical algorithm (Algorithm 1) — single-user query evaluation.

Top-down traversal of the expanded assignment space: repeatedly pick the
most general unclassified assignment, and while it is significant, chase
unclassified immediate successors, descending on every significant answer.
The most specific significant assignment reached is appended to the output;
``ask`` classifies whole up-/down-sets per Observation 4.4, so most of the
space is never asked about.

Optional hooks reproduce the Section 6.2/6.4 interaction optimizations:

* ``specialization_oracle`` — with probability ``specialization_ratio``,
  instead of probing successors one by one the (simulated) user is asked an
  open question and directly names a significant successor, or answers
  "none of these", classifying every offered candidate at once;
* ``prune_oracle`` — with probability ``pruning_ratio`` a question is
  accompanied by a user-guided pruning click, classifying extra nodes as
  insignificant at no question cost.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Iterator, List, Optional, Sequence, Set, TypeVar

from ..assignments.lattice import AssignmentSpace
from ..observability import get_tracer, span as _obs_span
from .state import ClassificationState, Status
from .trace import MiningResult, Probe

Node = TypeVar("Node", bound=Hashable)

#: A support oracle: maps a node to the (single) user's support value.
SupportOracle = Callable[[Node], float]

#: A specialization oracle: given the current node and the offered
#: candidates, returns a significant candidate or None ("none of these").
SpecializationOracle = Callable[[Node, Sequence[Node]], Optional[Node]]

#: A pruning oracle: given the just-asked node, returns extra nodes whose
#: up-sets should be classified insignificant for free.
PruneOracle = Callable[[Node], Sequence[Node]]


def find_minimal_unclassified(
    space: AssignmentSpace[Node], state: ClassificationState[Node]
) -> Optional[Node]:
    """The most general unclassified node, by top-down BFS from the roots.

    Never descends through insignificant nodes (their up-sets are fully
    classified).  Returns None when everything reachable is classified.
    """
    seen: Set[Node] = set()
    frontier: List[Node] = []
    for root in space.roots():
        if root not in seen:
            seen.add(root)
            frontier.append(root)
    index = 0
    while index < len(frontier):
        node = frontier[index]
        index += 1
        status = state.status(node)
        if status is Status.UNKNOWN:
            return node
        if status is Status.INSIGNIFICANT:
            continue
        for successor in space.successors(node):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return None


def vertical_walk(
    probe: Probe[Node],
    ask: Callable[[Node], bool],
    budget_left: Callable[[], bool] = lambda: True,
    specialize: Optional[Callable[[Node, List[Node]], Optional[Node]]] = None,
) -> Iterator[Node]:
    """Algorithm 1's loop: yield each MSP it reaches, in order.

    Repeatedly takes the most general unclassified node and, while the
    answers say significant, chases unclassified successors, descending on
    the first significant one; the node a descent stops at is yielded.
    ``ask`` poses the question and classifies through ``probe``.
    ``budget_left`` is checked before every question; a descent cut short
    by it yields the node it stopped at.  ``specialize`` may replace one
    step's concrete probes by an open question (§6.2): it returns the named
    successor to descend to, None for "none of these" (the descent ends),
    or the current node itself when it asked nothing.
    """
    space, state = probe.space, probe.state
    while budget_left():
        current = find_minimal_unclassified(space, state)
        if current is None:
            return
        if not ask(current):
            continue
        descending = True
        while descending and budget_left():
            unclassified = [
                s for s in space.successors(current) if not state.is_classified(s)
            ]
            if not unclassified:
                break
            if specialize is not None:
                chosen = specialize(current, unclassified)
                if chosen is None:
                    break
                if chosen is not current:
                    current = chosen
                    continue
            descending = False
            for successor in unclassified:
                if not budget_left():
                    break
                if state.is_classified(successor):
                    continue  # classified by an earlier ask in this scan
                if ask(successor):
                    current = successor
                    descending = True
                    break
        yield current


def vertical_mine(
    space: AssignmentSpace[Node],
    support_oracle: SupportOracle,
    threshold: float,
    specialization_oracle: Optional[SpecializationOracle] = None,
    specialization_ratio: float = 0.0,
    prune_oracle: Optional[PruneOracle] = None,
    pruning_ratio: float = 0.0,
    rng: Optional[random.Random] = None,
    valid_nodes: Optional[Sequence[Node]] = None,
    target_msps: Optional[Sequence[Node]] = None,
    max_questions: Optional[int] = None,
) -> MiningResult[Node]:
    """Run Algorithm 1 against a single (simulated) user.

    ``valid_nodes``, when given, enables the classified-valid progress
    series in the trace (used by the pace-of-collection figures).
    """
    rng = rng if rng is not None else random.Random(0)
    obs = get_tracer()

    def prune(node: Node) -> Sequence[Node]:
        if rng.random() >= pruning_ratio:
            return ()
        if obs is not None:
            obs.count("crowd.pruning_clicks")
        return prune_oracle(node)  # type: ignore[misc]

    probe: Probe[Node] = Probe(
        space,
        support_oracle,
        threshold,
        prune=prune if prune_oracle is not None else None,
        valid_nodes=valid_nodes,
        target_msps=target_msps,
    )

    def specialize(current: Node, unclassified: List[Node]) -> Optional[Node]:
        if rng.random() >= specialization_ratio:
            return current
        probe.questions += 1
        if obs is not None:
            obs.count("crowd.questions")
            obs.count("crowd.questions.specialization")
        chosen = specialization_oracle(current, unclassified)  # type: ignore[misc]
        if chosen is None:
            # "none of these": every offered candidate is support 0
            if obs is not None:
                obs.count("crowd.none_of_these")
            for candidate in unclassified:
                probe.state.mark_insignificant(candidate)
        else:
            probe.mark(chosen, True)
        probe.sample()
        return chosen

    def budget_left() -> bool:
        return max_questions is None or probe.questions < max_questions

    with _obs_span("mine.vertical"):
        msps = list(
            vertical_walk(
                probe,
                probe.ask,
                budget_left,
                specialize if specialization_oracle is not None else None,
            )
        )
    return probe.result(msps)
