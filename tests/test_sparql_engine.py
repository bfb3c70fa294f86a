"""Unit tests for BGP evaluation against the Figure 1 ontology."""

from itertools import permutations

import pytest

from repro.datasets import running_example
from repro.sparql import Binding, SparqlEngine, parse_bgp
from repro.vocabulary import Element, Relation


@pytest.fixture(scope="module")
def engine() -> SparqlEngine:
    return SparqlEngine(running_example.build_ontology())


def names(solutions, var):
    return sorted(str(s[var]) for s in solutions)


class TestBasicMatching:
    def test_concrete_pattern_ask(self, engine):
        assert engine.ask(parse_bgp("<Central Park> inside NYC"))
        assert not engine.ask(parse_bgp("NYC inside <Central Park>"))

    def test_single_variable_object(self, engine):
        solutions = list(engine.solutions(parse_bgp("<Central Park> inside $c")))
        assert names(solutions, "c") == ["NYC"]

    def test_single_variable_subject(self, engine):
        solutions = list(engine.solutions(parse_bgp("$x inside NYC")))
        assert names(solutions, "x") == ["Bronx Zoo", "Central Park", "Madison Square"]

    def test_relation_variable(self, engine):
        solutions = list(engine.solutions(parse_bgp("<Central Park> $p NYC")))
        assert names(solutions, "p") == ["inside"]

    def test_join_two_patterns(self, engine):
        bgp = parse_bgp("$x instanceOf Park . $x inside NYC")
        solutions = list(engine.solutions(bgp))
        assert names(solutions, "x") == ["Central Park", "Madison Square"]

    def test_blank_node_existential(self, engine):
        bgp = parse_bgp("[] nearBy $x")
        solutions = list(engine.solutions(bgp))
        # blanks are projected away; duplicates collapse.  NYC appears via
        # the inside edges, since nearBy <=R inside.
        assert names(solutions, "x") == ["Bronx Zoo", "Central Park", "NYC"]
        assert all(len(s) == 1 for s in solutions)

    def test_no_solutions(self, engine):
        assert list(engine.solutions(parse_bgp("$x inside Paris"))) == []


class TestPropertyPaths:
    def test_star_includes_zero_steps(self, engine):
        solutions = list(engine.solutions(parse_bgp("$w subClassOf* Attraction")))
        found = names(solutions, "w")
        assert "Attraction" in found  # zero steps
        assert "Park" in found and "Zoo" in found  # transitive

    def test_star_backward(self, engine):
        solutions = list(engine.solutions(parse_bgp("Park subClassOf* $up")))
        assert "Place" in names(solutions, "up")

    def test_plus_excludes_zero_steps(self, engine):
        solutions = list(engine.solutions(parse_bgp("$w subClassOf+ Attraction")))
        found = names(solutions, "w")
        assert "Attraction" not in found
        assert "Park" in found

    def test_opt_zero_or_one(self, engine):
        solutions = list(engine.solutions(parse_bgp("$w subClassOf? Attraction")))
        found = names(solutions, "w")
        assert "Attraction" in found
        assert "Outdoor" in found
        assert "Park" not in found  # two steps away

    def test_fully_bound_path(self, engine):
        assert engine.ask(parse_bgp("Basketball subClassOf* Activity"))
        assert not engine.ask(parse_bgp("Basketball subClassOf* Place"))


class TestRelationSpecialization:
    def test_nearby_pattern_matches_inside_edges(self, engine):
        # nearBy ≤R inside in Figure 1, so inside facts satisfy nearBy
        solutions = list(engine.solutions(parse_bgp("$z nearBy <Central Park>")))
        assert "Maoz Veg" in names(solutions, "z")
        solutions = list(engine.solutions(parse_bgp("$x nearBy NYC")))
        assert "Central Park" in names(solutions, "x")

    def test_inside_pattern_does_not_match_nearby_edges(self, engine):
        solutions = list(engine.solutions(parse_bgp("$z inside <Central Park>")))
        assert names(solutions, "z") == []


class TestLabelMatching:
    def test_label_filter(self, engine):
        bgp = parse_bgp('$x hasLabel "child-friendly"')
        solutions = list(engine.solutions(bgp))
        assert names(solutions, "x") == ["Bronx Zoo", "Central Park"]

    def test_label_enumeration(self, engine):
        bgp = parse_bgp("<Central Park> hasLabel $l")
        solutions = list(engine.solutions(bgp))
        assert [s["l"] for s in solutions] == ["child-friendly"]

    def test_label_fully_bound(self, engine):
        assert engine.ask(parse_bgp('<Central Park> hasLabel "child-friendly"'))
        assert not engine.ask(parse_bgp('NYC hasLabel "child-friendly"'))


class TestFullWhereClause:
    def test_figure2_where_clause(self, engine):
        from repro.oassisql import parse_query

        query = parse_query(running_example.SAMPLE_QUERY)
        solutions = list(engine.solutions(query.where))
        # 2 attractions x 7 activity values (Activity, Sport, Ball Game,
        # Basketball, Baseball, Biking, Water Sport, Swimming, Water Polo,
        # Feed a monkey) restricted to subClassOf* Activity
        xs = {str(s["x"]) for s in solutions}
        assert xs == {"Central Park", "Bronx Zoo"}
        pairs = {(str(s["x"]), str(s["z"])) for s in solutions}
        assert pairs == {("Central Park", "Maoz Veg"), ("Bronx Zoo", "Pine")}
        ys = {str(s["y"]) for s in solutions}
        assert "Biking" in ys and "Activity" in ys
        # Madison Square has no child-friendly label -> excluded
        assert "Madison Square" not in xs


class TestLabelEnumeration:
    def test_both_free_enumerates_all_labels(self, engine):
        bgp = parse_bgp("$x hasLabel $l")
        solutions = list(engine.solutions(bgp))
        pairs = {(str(s["x"]), s["l"]) for s in solutions}
        assert ("Central Park", "child-friendly") in pairs
        assert ("Bronx Zoo", "child-friendly") in pairs

    def test_relation_variable_binds_to_relations(self, engine):
        from repro.vocabulary import Relation

        bgp = parse_bgp("<Maoz Veg> $p <Central Park>")
        solutions = list(engine.solutions(bgp))
        assert [s["p"] for s in solutions] == [Relation("nearBy")]

    def test_shared_variable_subject_object(self, engine):
        # $x r $x: no self-loops exist in Figure 1
        bgp = parse_bgp("$x inside $x")
        assert list(engine.solutions(bgp)) == []


class TestPatternOrder:
    """A conjunctive BGP has the same rows whatever order its patterns are in."""

    @staticmethod
    def rows_per_order(engine, patterns):
        return [
            {frozenset(s.items()) for s in engine.solutions(parse_bgp(" . ".join(order)))}
            for order in permutations(patterns)
        ]

    def test_zero_length_path_pairs_every_element_with_itself(self, engine):
        # Central Park has labels but no subClassOf edge: a zero-step path
        # still joins it to itself, with both ends free or one bound
        for patterns in (
            ["$x subClassOf* $y", "$y hasLabel $l"],
            ["$x doAt? $y", "$y hasLabel $l"],
        ):
            first, *others = self.rows_per_order(engine, patterns)
            assert all(rows == first for rows in others)
            assert {str(dict(row)["x"]) for row in first} == {"Bronx Zoo", "Central Park"}

    def test_a_bound_variable_is_never_rebound(self, engine):
        # $b cannot be both an element (inside) and a label string
        assert self.rows_per_order(engine, ["$c inside $b", "$a hasLabel $b"]) == [set(), set()]
        assert list(engine.solutions(parse_bgp("$a hasLabel $a"))) == []

    def test_relation_variable_matches_only_the_asserted_relation(self, engine):
        # [] $p $c and [] $p $b need one asserted relation into both ends;
        # a bound $p must not match its ≤R-specializations either
        rows = self.rows_per_order(engine, ["[] $p $c", "[] $p $b", "$b nearBy $c"])
        assert rows == [set()] * 6
        # nor a free one with both ends free: Central Park is inside NYC,
        # not asserted nearBy it
        triples = {
            (str(s["s"]), str(s["p"]), str(s["o"]))
            for s in engine.solutions(parse_bgp("$s $p $o"))
        }
        assert ("Central Park", "inside", "NYC") in triples
        assert ("Central Park", "nearBy", "NYC") not in triples


class TestBinding:
    def test_lookups_agree_with_as_dict(self):
        binding = Binding({"y": Element("Zoo"), "p": Relation("inside"), "x": "label"})
        as_dict = binding.as_dict()
        assert len(binding) == len(as_dict) == 3
        for name, value in as_dict.items():
            assert binding[name] == value
            assert binding.get(name) == value
            assert name in binding
        assert "z" not in binding
        assert binding.get("z") is None
        assert binding.get("z", "default") == "default"
        with pytest.raises(KeyError):
            binding["z"]

    def test_identity_is_that_of_the_sorted_items(self):
        items = [("y", Element("Zoo")), ("p", Relation("inside")), ("x", "label")]
        binding = Binding(dict(items))
        reordered = Binding(dict(reversed(items)))
        assert list(binding) == ["p", "x", "y"]
        assert binding == reordered == dict(items)
        assert hash(binding) == hash(reordered) == hash(tuple(sorted(items)))
        assert repr(binding) == repr(reordered) == "Binding(p=inside, x=label, y=Zoo)"
        assert binding != Binding({"x": "label"})
