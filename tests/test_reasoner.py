"""Subsumption queries over the running example's taxonomy.

Each query is one call on :class:`~repro.vocabulary.Vocabulary`,
:class:`~repro.ontology.Ontology` or :class:`~repro.ontology.FactSet`
(``docs/MIGRATION.md`` lists the call for each).
"""

import pytest

from repro.assignments.assignment import canonical_values
from repro.datasets import running_example
from repro.ontology import Fact, Ontology, fact_set
from repro.vocabulary import Element


@pytest.fixture()
def ontology() -> Ontology:
    return running_example.build_ontology()


class TestTaxonomyQueries:
    def test_subclasses_reflexive(self, ontology):
        subs = ontology.vocabulary.descendants(Element("Sport"))
        assert Element("Sport") in subs
        assert Element("Basketball") in subs

    def test_subclasses_strict(self, ontology):
        sport = Element("Sport")
        subs = ontology.vocabulary.descendants(sport) - {sport}
        assert sport not in subs
        assert Element("Biking") in subs

    def test_superclasses(self, ontology):
        supers = ontology.vocabulary.ancestors(Element("Basketball"))
        assert Element("Ball Game") in supers
        assert Element("Activity") in supers

    def test_instances_direct(self, ontology):
        assert ontology.holds(("Central Park", "instanceOf", "Park"))

    def test_instances_through_subclasses(self, ontology):
        # Central Park instanceOf Park, Park subClassOf Outdoor
        assert ontology.holds(("Central Park", "instanceOf", "Outdoor"))
        assert ontology.holds(("Central Park", "instanceOf", "Attraction"))

    def test_instances_unknown_relation(self):
        assert not Ontology().holds(("Anything", "instanceOf", "Thing"))

    def test_is_instance(self, ontology):
        assert ontology.holds(("Bronx Zoo", "instanceOf", "Attraction"))
        assert not ontology.holds(("NYC", "instanceOf", "Attraction"))


class TestImplication:
    def test_implied_facts_generalize_components(self, ontology):
        transaction = fact_set(("Basketball", "doAt", "Central Park"))
        vocabulary = ontology.vocabulary
        assert transaction.implies_fact(Fact("Sport", "doAt", "Central Park"), vocabulary)
        assert transaction.implies_fact(Fact("Basketball", "doAt", "Park"), vocabulary)
        assert transaction.implies_fact(Fact("Activity", "doAt", "Attraction"), vocabulary)

    def test_least_upper_bounds(self, ontology):
        vocabulary = ontology.vocabulary
        common = vocabulary.ancestors(Element("Basketball")) & vocabulary.ancestors(
            Element("Biking")
        )
        assert canonical_values(common, vocabulary) == {Element("Sport")}

    def test_least_upper_bounds_self(self, ontology):
        vocabulary = ontology.vocabulary
        common = vocabulary.ancestors(Element("Biking"))
        assert canonical_values(common, vocabulary) == {Element("Biking")}

    def test_taxonomy_acyclic(self, ontology):
        # every element lies below a root, and leq is antisymmetric
        order = ontology.vocabulary.element_order
        below_roots = set().union(*(order.descendants(r) for r in order.roots()))
        assert below_roots == set(order.terms())
        assert not any(
            a != b and order.leq(a, b) and order.leq(b, a)
            for a in order.terms()
            for b in order.terms()
        )
