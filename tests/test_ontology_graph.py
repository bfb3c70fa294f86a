"""Unit tests for the indexed ontology triple store."""

import pytest

from repro.datasets import culinary, health, travel
from repro.ontology import Fact, Ontology, fact_set
from repro.vocabulary import Element, Relation


@pytest.fixture()
def onto() -> Ontology:
    o = Ontology()
    o.add(Fact("Park", "subClassOf", "Outdoor"))
    o.add(Fact("Central Park", "instanceOf", "Park"))
    o.add(Fact("Central Park", "inside", "NYC"))
    o.add(Fact("Maoz Veg", "nearBy", "Central Park"))
    o.vocabulary.specialize_relation("nearBy", "inside")
    o.add_label("Central Park", "child-friendly")
    return o


class TestMutation:
    def test_add_registers_vocabulary(self, onto):
        assert onto.vocabulary.has_element("Central Park")
        assert onto.vocabulary.has_relation("inside")

    def test_add_is_idempotent(self, onto):
        before = len(onto)
        onto.add(Fact("Central Park", "inside", "NYC"))
        assert len(onto) == before

    def test_taxonomy_facts_extend_element_order(self, onto):
        # "Park subClassOf Outdoor" means Outdoor ≤E Park
        assert onto.vocabulary.leq(Element("Outdoor"), Element("Park"))
        # instanceOf works the same way
        assert onto.vocabulary.leq(Element("Park"), Element("Central Park"))

    def test_add_all(self):
        o = Ontology()
        o.add_all([("A", "r", "B"), ("C", "r", "D")])
        assert len(o) == 2


class TestMatching:
    def test_fully_bound(self, onto):
        assert list(onto.match(Element("Central Park"), Relation("inside"), Element("NYC")))
        assert not list(onto.match(Element("NYC"), Relation("inside"), Element("Central Park")))

    def test_subject_relation(self, onto):
        facts = list(onto.match(subject=Element("Central Park"), relation=Relation("inside")))
        assert facts == [Fact("Central Park", "inside", "NYC")]

    def test_relation_object(self, onto):
        facts = list(onto.match(relation=Relation("instanceOf"), obj=Element("Park")))
        assert facts == [Fact("Central Park", "instanceOf", "Park")]

    def test_subject_object(self, onto):
        facts = list(onto.match(subject=Element("Central Park"), obj=Element("NYC")))
        assert facts == [Fact("Central Park", "inside", "NYC")]

    def test_subject_only(self, onto):
        facts = set(onto.match(subject=Element("Central Park")))
        assert len(facts) == 2

    def test_relation_only(self, onto):
        facts = list(onto.match(relation=Relation("nearBy")))
        assert facts == [Fact("Maoz Veg", "nearBy", "Central Park")]

    def test_object_only(self, onto):
        facts = list(onto.match(obj=Element("NYC")))
        assert facts == [Fact("Central Park", "inside", "NYC")]

    def test_wildcard_everything(self, onto):
        assert len(list(onto.match())) == len(onto)

    def test_objects_subjects_helpers(self, onto):
        assert onto.objects(Element("Central Park"), Relation("inside")) == {Element("NYC")}
        assert onto.subjects(Relation("inside"), Element("NYC")) == {Element("Central Park")}


class TestIndexSides:
    """``subjects`` and ``match(relation=, obj=)`` read the smaller of the
    object's and the relation's index; both must equal a full scan."""

    def test_bound_relation_and_object_equal_a_scan(self):
        object_side = relation_side = 0
        for domain in (travel, culinary, health):
            ontology = domain.build_ontology()
            facts = list(ontology)
            for relation in sorted({f.relation for f in facts}):
                for obj in sorted({f.obj for f in facts}):
                    scanned = {
                        f for f in facts if f.relation == relation and f.obj == obj
                    }
                    assert ontology.subjects(relation, obj) == {
                        f.subject for f in scanned
                    }
                    assert set(ontology.match(relation=relation, obj=obj)) == scanned
                    if len(ontology._osp[obj]) <= len(ontology._pos[relation]):
                        object_side += 1
                    else:
                        relation_side += 1
        # the pairs exercise both index sides
        assert object_side and relation_side


class TestSemantics:
    def test_holds_asserted(self, onto):
        assert onto.holds(("Central Park", "inside", "NYC"))

    def test_holds_via_relation_generalization(self, onto):
        # nearBy ≤ inside, so "Central Park nearBy NYC" is implied
        assert onto.holds(("Central Park", "nearBy", "NYC"))
        assert not onto.holds(("NYC", "nearBy", "Central Park"))

    def test_holds_via_element_generalization(self, onto):
        # Park ≤ Central Park, so "Park inside NYC" is implied
        assert onto.holds(("Park", "inside", "NYC"))

    def test_implies_fact_set(self, onto):
        assert onto.implies(
            fact_set(("Park", "inside", "NYC"), ("Maoz Veg", "nearBy", "Central Park"))
        )
        assert not onto.implies(fact_set(("Pine", "nearBy", "NYC")))


class TestLabels:
    def test_labels_lookup(self, onto):
        assert onto.labels("Central Park") == {"child-friendly"}
        assert onto.labels("NYC") == frozenset()

    def test_has_label(self, onto):
        assert onto.has_label("Central Park", "child-friendly")
        assert not onto.has_label("Central Park", "romantic")

    def test_elements_with_label(self, onto):
        assert onto.elements_with_label("child-friendly") == {Element("Central Park")}


class TestCopy:
    def test_copy_independent(self, onto):
        dup = onto.copy()
        dup.add(Fact("Pine", "nearBy", "Bronx Zoo"))
        assert ("Pine", "nearBy", "Bronx Zoo") not in onto
        assert ("Pine", "nearBy", "Bronx Zoo") in dup

    def test_copy_preserves_labels(self, onto):
        assert onto.copy().labels("Central Park") == {"child-friendly"}
