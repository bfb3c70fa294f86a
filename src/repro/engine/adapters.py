"""Adapters connecting crowd members to the mining layer.

The mining algorithms speak :class:`~repro.mining.multiuser.UserOracle`
(opaque nodes); crowd members speak fact-sets.  :class:`MemberUser` bridges
the two by instantiating assignments against the query's SATISFYING clause
before handing them to the member.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..assignments.assignment import Assignment
from ..assignments.generator import QueryAssignmentSpace
from ..crowd.member import CrowdMember
from ..crowd.questions import (
    ConcreteQuestion,
    NoneOfTheseAnswer,
    SpecializationAnswer,
    SpecializationQuestion,
)
from ..mining.multiuser import UserOracle
from ..vocabulary.terms import Term


class MemberUser(UserOracle[Assignment]):
    """A :class:`CrowdMember` seen through the miner's oracle interface."""

    def __init__(self, member: CrowdMember, space: QueryAssignmentSpace):
        super().__init__(member.member_id)
        self.member = member
        self.space = space

    def willing(self) -> bool:
        return self.member.willing_to_answer()

    def support(self, node: Assignment) -> float:
        question = ConcreteQuestion(node, self.space.instantiate(node))
        return self.member.answer_concrete(question).support

    def wants_specialization(self) -> bool:
        return self.member.wants_specialization()

    def choose_specialization(
        self, node: Assignment, candidates: Sequence[Assignment]
    ) -> Optional[Tuple[Assignment, float]]:
        question = SpecializationQuestion(
            node, self.space.instantiate(node), candidates
        )
        answer = self.member.answer_specialization(question, self.space.instantiate)
        if isinstance(answer, SpecializationAnswer):
            return (answer.chosen, answer.support)
        if isinstance(answer, NoneOfTheseAnswer):
            return None
        raise TypeError(f"unexpected specialization answer {answer!r}")

    def prune_value(self, node: Assignment) -> Optional[Term]:
        return self.member.prunable_value(node)

    def more_tip(self, node: Assignment):
        return self.member.suggest_more_fact(self.space.instantiate(node))

    def matches_prune(self, node: Assignment, token: object) -> bool:
        return isinstance(token, Term) and self.space.involves(node, token)
