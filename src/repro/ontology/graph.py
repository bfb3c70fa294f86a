"""The ontology: an indexed triple store of "universal truth" facts.

The ontology of Section 2 is just a fact-set with a distinguished role; in
practice the SPARQL-ish WHERE evaluation needs fast pattern lookup, so this
module provides a triple store with the classic three indexes (SPO, POS,
OSP), plus label facts and helpers that keep the vocabulary orders and the
taxonomy facts (``subClassOf`` / ``instanceOf``) consistent.

The store recognises the two taxonomy relations by name: inserting
``A subClassOf B`` or ``a instanceOf B`` also records ``B ≤E A`` in the
vocabulary's element order, exactly as in the paper's Example 2.3 where
those relations "coincide with the reverse of the partial order ≤E".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set

from ..vocabulary.terms import Element, Relation, as_element
from ..vocabulary.vocabulary import Vocabulary
from .facts import Fact, FactLike, FactSet, as_fact

#: Relations whose assertion also updates the element order.
SUBCLASS_OF = "subClassOf"
INSTANCE_OF = "instanceOf"
TAXONOMY_RELATIONS = frozenset({SUBCLASS_OF, INSTANCE_OF})

#: Relation used for string labels (``$x hasLabel "child-friendly"``).
HAS_LABEL = "hasLabel"


class Ontology:
    """A set of universal facts over a :class:`Vocabulary`, fully indexed."""

    def __init__(self, vocabulary: Optional[Vocabulary] = None):
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._facts: Set[Fact] = set()
        # index maps: subject -> relation -> {objects} and the two rotations
        self._spo: Dict[Element, Dict[Relation, Set[Element]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._pos: Dict[Relation, Dict[Element, Set[Element]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._osp: Dict[Element, Dict[Element, Set[Relation]]] = defaultdict(
            lambda: defaultdict(set)
        )
        # element -> set of string labels, plus the reverse index the
        # engine's hasLabel patterns probe (label -> elements)
        self._labels: Dict[Element, Set[str]] = defaultdict(set)
        self._label_index: Dict[str, Set[Element]] = defaultdict(set)
        #: bumped on every fact/label insertion; caches key on it together
        #: with the vocabulary order versions (see docs/PERFORMANCE.md)
        self.version = 0

    # ------------------------------------------------------------- mutation

    def add(self, fact: FactLike) -> Fact:
        """Assert ``fact``; taxonomy facts also extend the element order."""
        f = as_fact(fact)
        if f in self._facts:
            return f
        self.vocabulary.add_element(f.subject.name)
        self.vocabulary.add_relation(f.relation.name)
        self.vocabulary.add_element(f.obj.name)
        self._facts.add(f)
        self.version += 1
        self._spo[f.subject][f.relation].add(f.obj)
        self._pos[f.relation][f.subject].add(f.obj)
        self._osp[f.obj][f.subject].add(f.relation)
        if f.relation.name in TAXONOMY_RELATIONS:
            # "Biking subClassOf Sport" means Sport ≤E Biking
            self.vocabulary.specialize_element(f.obj.name, f.subject.name)
        return f

    def add_all(self, facts: Iterable[FactLike]) -> None:
        for fact in facts:
            self.add(fact)

    def add_label(self, element, label: str) -> None:
        """Attach the string ``label`` to ``element`` (``hasLabel``)."""
        elem = as_element(element)
        self.vocabulary.add_element(elem.name)
        if label not in self._labels[elem]:
            self._labels[elem].add(label)
            self._label_index[label].add(elem)
            self.version += 1

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: FactLike) -> bool:
        return as_fact(fact) in self._facts

    def as_fact_set(self) -> FactSet:
        return FactSet(self._facts)

    def labels(self, element) -> FrozenSet[str]:
        """All string labels attached to ``element``."""
        return frozenset(self._labels.get(as_element(element), ()))

    def has_label(self, element, label: str) -> bool:
        return label in self._labels.get(as_element(element), ())

    def elements_with_label(self, label: str) -> FrozenSet[Element]:
        """Elements carrying ``label``, from the maintained reverse index."""
        return frozenset(self._label_index.get(label, ()))

    # -------------------------------------------------------------- matching

    def match(
        self,
        subject: Optional[Element] = None,
        relation: Optional[Relation] = None,
        obj: Optional[Element] = None,
    ) -> Iterator[Fact]:
        """All asserted facts matching the (possibly wildcard) pattern.

        ``None`` in a position means "any".  Selects the cheapest index for
        the bound positions.
        """
        if subject is not None and relation is not None and obj is not None:
            f = Fact(subject, relation, obj)
            if f in self._facts:
                yield f
            return
        if subject is not None and relation is not None:
            for o in self._spo.get(subject, {}).get(relation, ()):
                yield Fact(subject, relation, o)
            return
        if relation is not None and obj is not None:
            for s in self.subjects(relation, obj):
                yield Fact(s, relation, obj)
            return
        if subject is not None and obj is not None:
            for r in self._osp.get(obj, {}).get(subject, ()):
                yield Fact(subject, r, obj)
            return
        if subject is not None:
            for r, objs in self._spo.get(subject, {}).items():
                for o in objs:
                    yield Fact(subject, r, o)
            return
        if relation is not None:
            for s, objs in self._pos.get(relation, {}).items():
                for o in objs:
                    yield Fact(s, relation, o)
            return
        if obj is not None:
            for s, rels in self._osp.get(obj, {}).items():
                for r in rels:
                    yield Fact(s, r, obj)
            return
        yield from self._facts

    def objects(self, subject: Element, relation: Relation) -> FrozenSet[Element]:
        """All ``o`` with ``<subject, relation, o>`` asserted."""
        return frozenset(self._spo.get(subject, {}).get(relation, ()))

    def subjects(self, relation: Relation, obj: Element) -> FrozenSet[Element]:
        """All ``s`` with ``<s, relation, obj>`` asserted.

        Reads whichever index side is smaller: the subjects of ``obj``
        (OSP) or the subjects of ``relation`` (POS).
        """
        by_object = self._osp.get(obj, {})
        by_relation = self._pos.get(relation, {})
        if len(by_object) <= len(by_relation):
            return frozenset(s for s, rels in by_object.items() if relation in rels)
        return frozenset(s for s, objs in by_relation.items() if obj in objs)

    def holds(self, fact: FactLike) -> bool:
        """Is ``fact`` semantically implied by the ontology (``{f} ≤ O``)?

        Stronger than ``in``: uses the fact-set order, so e.g.
        ``<Central Park, nearBy, NYC>`` holds if ``<Central Park, inside,
        NYC>`` is asserted and ``nearBy ≤R inside``.
        """
        f = as_fact(fact)
        if f in self._facts:
            return True
        return any(f.leq(g, self.vocabulary) for g in self._facts)

    def implies(self, fact_set: FactSet) -> bool:
        """Is the whole ``fact_set ≤`` the ontology's fact-set?"""
        return all(self.holds(f) for f in fact_set)

    def copy(self) -> "Ontology":
        dup = Ontology(self.vocabulary.copy())
        for f in self._facts:
            dup.add(f)
        for elem, labels in self._labels.items():
            for label in labels:
                dup.add_label(elem, label)
        return dup

    def __repr__(self) -> str:
        return f"Ontology({len(self._facts)} facts, {self.vocabulary!r})"
