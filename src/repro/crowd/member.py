"""Simulated crowd members.

A :class:`CrowdMember` owns a (virtual) personal database and answers the
two question types.  Behaviour knobs reproduce the phenomena the paper's
experiments vary:

* ``noise`` — zero-mean Gaussian perturbation of the true support, modeling
  imperfect recall [Bradburn et al.];
* ``quantize`` — snap answers to the UI's five-point frequency scale;
* ``specialization_ratio`` — how often the member accepts answering an
  open-ended specialization question rather than a concrete one (the paper
  observed 12% in the wild and sweeps 0–100% synthetically, Fig. 4f);
* ``pruning_ratio`` — how often the member volunteers a user-guided pruning
  click on an irrelevant value (observed 13%; swept 0/25/50%);
* ``irrelevant_values`` — terms the member considers never-relevant, the
  source of pruning clicks and "none of these" answers.

A :class:`SpammerMember` answers uniformly at random; it exists to exercise
the consistency-based filtering of :mod:`repro.crowd.selection`.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from typing import FrozenSet, Iterable, Optional

from ..assignments.assignment import Assignment
from ..ontology.facts import FactSet
from ..vocabulary.terms import Term
from ..vocabulary.vocabulary import Vocabulary
from .personal_db import PersonalDatabase
from .questions import (
    Answer,
    ConcreteQuestion,
    NoneOfTheseAnswer,
    SpecializationAnswer,
    SpecializationQuestion,
    SupportAnswer,
    quantize_support,
)


class CrowdMember:
    """A cooperative, possibly noisy crowd member."""

    def __init__(
        self,
        member_id: str,
        database: PersonalDatabase,
        vocabulary: Vocabulary,
        noise: float = 0.0,
        quantize: bool = False,
        specialization_ratio: float = 0.0,
        pruning_ratio: float = 0.0,
        irrelevant_values: Iterable[Term] = (),
        rng: Optional[random.Random] = None,
        max_questions: Optional[int] = None,
        more_tip_ratio: float = 0.0,
    ):
        self.member_id = member_id
        self.database = database
        self.vocabulary = vocabulary
        self.noise = noise
        self.quantize = quantize
        self.specialization_ratio = specialization_ratio
        self.pruning_ratio = pruning_ratio
        self.irrelevant_values: FrozenSet[Term] = frozenset(irrelevant_values)
        # pruning tokens are looked for in this order, not in hash order
        self._irrelevant_sorted = sorted(self.irrelevant_values)
        self.rng = rng if rng is not None else random.Random(0)
        self.max_questions = max_questions
        self.more_tip_ratio = more_tip_ratio
        self.questions_answered = 0

    # ------------------------------------------------------------- answering

    def true_support(self, fact_set: FactSet) -> float:
        """The member's exact support for ``fact_set`` (no noise)."""
        return self.database.support(fact_set, self.vocabulary)

    def _reported_support(self, fact_set: FactSet) -> float:
        value = self.true_support(fact_set)
        if self.noise > 0.0:
            value += self.rng.gauss(0.0, self.noise)
            value = min(1.0, max(0.0, value))
        if self.quantize:
            value = quantize_support(value)
        return value

    def willing_to_answer(self) -> bool:
        """Members may quit after ``max_questions`` (Section 4.2, change 1)."""
        return self.max_questions is None or self.questions_answered < self.max_questions

    def wants_specialization(self) -> bool:
        """Does the member opt into an open-ended question right now?"""
        return self.rng.random() < self.specialization_ratio

    def prunable_value(self, assignment: Assignment) -> Optional[Term]:
        """A value in ``assignment`` the member would prune, if any.

        Fires with probability ``pruning_ratio`` when the assignment touches
        one of the member's irrelevant values; of several, the first in
        sorted order.
        """
        if not self.irrelevant_values or self.rng.random() >= self.pruning_ratio:
            return None
        for irrelevant in self._irrelevant_sorted:
            for values in assignment.values.values():
                for value in values:
                    if self.vocabulary.leq(irrelevant, value):
                        return irrelevant
        return None

    def answer_concrete(self, question: ConcreteQuestion) -> SupportAnswer:
        """Answer a concrete frequency question."""
        self.questions_answered += 1
        return SupportAnswer(self._reported_support(question.fact_set))

    def answer_specialization(
        self,
        question: SpecializationQuestion,
        instantiate,
    ) -> Answer:
        """Answer an open specialization question.

        ``instantiate`` maps a candidate assignment to its fact-set.  The
        member picks the candidate with the highest personal support, if any
        candidate is personally frequent; otherwise answers "none of these"
        (zeroing every candidate at once).
        """
        self.questions_answered += 1
        best: Optional[Assignment] = None
        best_support = 0.0
        for candidate in question.candidates:
            support = self.true_support(instantiate(candidate))
            if support > best_support:
                best, best_support = candidate, support
        if best is None:
            return NoneOfTheseAnswer(question.candidates)
        reported = best_support
        if self.quantize:
            reported = quantize_support(reported)
        return SpecializationAnswer(best, reported)

    def suggest_more_fact(self, fact_set: FactSet, force: bool = False):
        """A MORE tip: a fact frequently co-occurring with ``fact_set``.

        Models the UI's "more" button (Section 6.2): with probability
        ``more_tip_ratio`` the member volunteers the most common extra fact
        from their transactions that support ``fact_set``, excluding facts
        the fact-set already implies.  Returns None when the member does not
        volunteer, has no supporting transactions, or no new fact co-occurs
        in at least half of them.

        Counting comes first: every fact's occurrences in the supporting
        transactions are counted without a comparison, and only the facts
        that reach that floor are compared with the pattern, once each.
        """
        if not force and self.rng.random() >= self.more_tip_ratio:
            return None
        supporting = self.database.supporting_transactions(fact_set, self.vocabulary)
        if not supporting:
            return None
        counts = Counter(chain.from_iterable(t.facts for t in supporting))
        # only volunteer tips that genuinely co-occur often
        floor = max(1, len(supporting) // 2)
        vocabulary = self.vocabulary
        # skip facts comparable to the pattern: a generalization adds
        # nothing and a specialization (e.g. naming the dish behind a
        # wildcard) is refinement, not extra advice
        frequent = [
            fact
            for fact, count in counts.items()
            if count >= floor
            and not any(
                fact.leq(g, vocabulary) or g.leq(fact, vocabulary) for g in fact_set
            )
        ]
        if not frequent:
            return None
        return max(sorted(frequent, key=str), key=counts.__getitem__)

    def __repr__(self) -> str:
        return f"CrowdMember({self.member_id!r}, |D|={len(self.database)})"


class OracleMember(CrowdMember):
    """A member whose support comes from a planted function, not a DB.

    The synthetic experiments of Section 6.4 plant (in)significance directly
    on DAG nodes; this member answers from that ground truth.  ``support_fn``
    maps an assignment (or any node object) to its support value.
    """

    def __init__(
        self,
        member_id: str,
        support_fn,
        vocabulary: Optional[Vocabulary] = None,
        noise: float = 0.0,
        rng: Optional[random.Random] = None,
        **kwargs,
    ):
        super().__init__(
            member_id,
            PersonalDatabase(),
            vocabulary if vocabulary is not None else Vocabulary(),
            noise=noise,
            rng=rng,
            **kwargs,
        )
        self._support_fn = support_fn

    def true_support(self, fact_set) -> float:  # type: ignore[override]
        return self._support_fn(fact_set)


class SpammerMember(CrowdMember):
    """Answers uniformly at random, ignoring its (empty) history."""

    def __init__(
        self,
        member_id: str,
        vocabulary: Vocabulary,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(member_id, PersonalDatabase(), vocabulary, rng=rng)

    def true_support(self, fact_set: FactSet) -> float:  # type: ignore[override]
        return self.rng.random()
