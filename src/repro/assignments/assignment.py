"""Assignments with multiplicities and their semantic order (Def. 4.1).

An assignment maps each query variable to a *set* of vocabulary terms
(singleton sets for the default multiplicity; larger sets when ``+``/``*``
multiplicities are in play; the empty set for multiplicity 0).  The MORE
construct contributes a set of extra facts, ordered by the fact order, which
we carry alongside the variable bindings so that a single order relation
covers the whole Figure 3 lattice.

The raw Def. 4.1 relation is a *preorder* on value sets: ``{Sport, Biking}``
and ``{Biking}`` are mutually related because ``Sport ≤ Biking``.  We work
with canonical representatives — antichains of maximal values — which turns
it into a genuine partial order without changing the induced semantics.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from ..ontology.facts import Fact, FactSet
from ..oassisql.ast import MetaFact, SatisfyingClause
from ..sparql.ast import Blank, Concrete, StringLiteral, Var
from ..vocabulary.terms import Element, Relation, Term
from ..vocabulary.vocabulary import Vocabulary


def canonical_values(values: Iterable[Term], vocabulary: Vocabulary) -> FrozenSet[Term]:
    """The antichain of ``≤``-maximal (most specific) values in ``values``."""
    pool = set(values)
    return frozenset(
        v
        for v in pool
        if not any(v != w and vocabulary.leq(v, w) for w in pool)
    )


def canonical_facts(facts: Iterable[Fact], vocabulary: Vocabulary) -> FrozenSet[Fact]:
    """The antichain of maximal (most specific) facts in ``facts``."""
    pool = set(facts)
    return frozenset(
        f
        for f in pool
        if not any(f != g and f.leq(g, vocabulary) for g in pool)
    )


class Assignment:
    """An immutable assignment ``variable -> set of terms`` plus MORE facts.

    Instances should be built through :meth:`make` (or a space's factory) so
    value sets are canonicalized against the vocabulary; the raw constructor
    trusts its inputs.
    """

    __slots__ = ("values", "more", "_hash")

    def __init__(
        self,
        values: Mapping[str, FrozenSet[Term]],
        more: FrozenSet[Fact] = frozenset(),
    ):
        # drop empty value sets: a variable at multiplicity 0 simply does
        # not constrain anything, and omitting it keeps equality canonical
        self.values: Dict[str, FrozenSet[Term]] = {
            name: frozenset(vals) for name, vals in values.items() if vals
        }
        self.more: FrozenSet[Fact] = frozenset(more)
        self._hash = hash(
            (tuple(sorted((n, tuple(sorted(v))) for n, v in self.values.items())), self.more)
        )

    @classmethod
    def make(
        cls,
        vocabulary: Vocabulary,
        values: Mapping[str, Iterable[Term]],
        more: Iterable[Fact] = (),
    ) -> "Assignment":
        """Canonicalizing constructor."""
        canon = {
            name: canonical_values(vals, vocabulary) for name, vals in values.items()
        }
        return cls(canon, canonical_facts(more, vocabulary))

    @classmethod
    def single(cls, vocabulary: Vocabulary, **bindings: Term) -> "Assignment":
        """Convenience: one value per variable, e.g. ``single(v, x=park)``."""
        return cls.make(vocabulary, {name: {val} for name, val in bindings.items()})

    # -------------------------------------------------------------- protocol

    def get(self, name: str) -> FrozenSet[Term]:
        """Value set of variable ``name`` (empty if unbound/multiplicity 0)."""
        return self.values.get(name, frozenset())

    def variables(self) -> FrozenSet[str]:
        return frozenset(self.values)

    def size(self) -> int:
        """Total number of values plus MORE facts (the 'weight' of the node)."""
        return sum(len(v) for v in self.values.values()) + len(self.more)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Assignment)
            and self.values == other.values
            and self.more == other.more
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [
            f"{name}->{{{', '.join(sorted(t.name for t in vals))}}}"
            for name, vals in sorted(self.values.items())
        ]
        if self.more:
            parts.append(f"more->{{{', '.join(sorted(str(f) for f in self.more))}}}")
        return f"Assignment({'; '.join(parts)})"

    # ------------------------------------------------------------- semantics

    def leq(self, other: "Assignment", vocabulary: Vocabulary) -> bool:
        """Def. 4.1: every value here has a ≥-specific witness in ``other``.

        MORE facts are compared with the fact order, which matches viewing
        MORE as the sugar ``$u $p $v*`` with per-fact value tuples.
        """
        for name, vals in self.values.items():
            other_vals = other.values.get(name)
            if not other_vals:
                return False
            for v in vals:
                if not any(vocabulary.leq(v, w) for w in other_vals):
                    return False
        for f in self.more:
            if not any(f.leq(g, vocabulary) for g in other.more):
                return False
        return True

    def strictly_leq(self, other: "Assignment", vocabulary: Vocabulary) -> bool:
        return self != other and self.leq(other, vocabulary)

    def involves(self, term: Term, vocabulary: Vocabulary) -> bool:
        """Does ``term`` or a specialization of it occur here?

        Checks every variable value and the subject and object of every
        MORE fact.  This is the pruning rule (§6.2): a member's click on
        ``term`` drops every assignment that involves it from their walk.
        """
        for values in self.values.values():
            for value in values:
                if vocabulary.leq(term, value):
                    return True
        for fact in self.more:
            if vocabulary.leq(term, fact.subject) or vocabulary.leq(term, fact.obj):
                return True
        return False

    # --------------------------------------------------------- instantiation

    def instantiate(self, satisfying: SatisfyingClause) -> FactSet:
        """Apply the assignment to the SATISFYING meta-fact-set: ``φ(A_SAT)``.

        Each meta-fact expands to the cross product of its variables' value
        sets; meta-facts touching a variable with an empty value set are
        dropped (multiplicity 0); MORE facts are appended verbatim.
        """
        facts: Set[Fact] = set()
        for meta_fact in satisfying.meta_facts:
            facts.update(self._expand_meta_fact(meta_fact))
        facts.update(self.more)
        return FactSet(facts)

    def _expand_meta_fact(self, meta_fact: MetaFact) -> Set[Fact]:
        subjects = self._position_values(meta_fact.subject.term, Element)
        relations = self._position_values(meta_fact.relation.term, Relation)
        objects = self._position_values(meta_fact.obj.term, Element)
        if subjects is None or relations is None or objects is None:
            return set()  # a variable at multiplicity 0 drops the meta-fact
        return {
            Fact(s, r, o) for s in subjects for r in relations for o in objects
        }

    def _position_values(self, term, expected_type) -> Optional[List[Term]]:
        """Concrete values for one meta-fact position, or None to drop it."""
        if isinstance(term, Concrete):
            return [expected_type(term.name)]
        if isinstance(term, Var):
            vals = self.values.get(term.name)
            if not vals:
                return None
            return sorted(vals, key=lambda t: t.name)
        if isinstance(term, Blank):
            # blanks in the SATISFYING clause are resolved by the engine to
            # fresh variables before assignments are built; an unresolved
            # blank means "don't care", which we cannot instantiate here
            raise ValueError(
                "unresolved blank in SATISFYING meta-fact; "
                "resolve blanks to variables before instantiating"
            )
        if isinstance(term, StringLiteral):
            raise ValueError("string literal cannot appear in a mined fact")
        raise TypeError(f"unexpected meta-fact term {term!r}")

    def satisfies_multiplicities(self, satisfying: SatisfyingClause) -> bool:
        """Do all value-set sizes respect their multiplicity annotations?"""
        for var in satisfying.variables():
            multiplicity = satisfying.multiplicity_of(var)
            if not multiplicity.admits(len(self.values.get(var.name, ()))):
                return False
        if self.more and not satisfying.more:
            return False
        return True

    # ----------------------------------------------------------- derivation

    def with_value(
        self, vocabulary: Vocabulary, name: str, value: Term
    ) -> "Assignment":
        """A copy with ``value`` added to variable ``name`` (canonicalized)."""
        new_values = dict(self.values)
        new_values[name] = canonical_values(
            set(new_values.get(name, frozenset())) | {value}, vocabulary
        )
        return Assignment(new_values, self.more)

    def with_replaced_value(
        self, vocabulary: Vocabulary, name: str, old: Term, new: Term
    ) -> "Assignment":
        """A copy with ``old`` replaced by ``new`` in variable ``name``."""
        current = set(self.values.get(name, frozenset()))
        current.discard(old)
        current.add(new)
        new_values = dict(self.values)
        new_values[name] = canonical_values(current, vocabulary)
        return Assignment(new_values, self.more)

    def with_more_fact(self, vocabulary: Vocabulary, fact: Fact) -> "Assignment":
        """A copy with ``fact`` added to the MORE facts (canonicalized)."""
        return Assignment(
            self.values, canonical_facts(set(self.more) | {fact}, vocabulary)
        )

    def with_replaced_more_fact(
        self, vocabulary: Vocabulary, old: Fact, new: Fact
    ) -> "Assignment":
        """A copy with MORE fact ``old`` replaced by ``new``."""
        facts = set(self.more)
        facts.discard(old)
        facts.add(new)
        return Assignment(self.values, canonical_facts(facts, vocabulary))

    def restrict(self, names: Iterable[str]) -> "Assignment":
        """Project onto the given variable names, dropping MORE facts."""
        wanted = set(names)
        return Assignment(
            {n: v for n, v in self.values.items() if n in wanted}, frozenset()
        )
