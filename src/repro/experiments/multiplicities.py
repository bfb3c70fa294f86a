"""Section 6.4 (text): MSPs with multiplicities and lazy generation.

Two claims to reproduce:

1. the number of questions depends on the number of MSPs, not on whether
   they carry multiplicities (value-set sizes 1–4);
2. lazy assignment generation materializes under ~1% of the nodes an eager
   algorithm would create for the same maximal multiplicity.

The experiment runs on a synthetic *query* space (a two-taxonomy ontology
and a ``$x+ servedWith $y`` query), because multiplicities only exist
there, not in the abstract integer DAGs of Figure 5.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..assignments.assignment import Assignment
from ..assignments.generator import QueryAssignmentSpace
from ..mining.vertical import vertical_mine
from ..oassisql.parser import parse_query
from ..ontology.facts import Fact
from ..ontology.graph import Ontology
from ..vocabulary.terms import Element
from .reporting import format_table

QUERY_TEMPLATE = """
SELECT FACT-SETS
WHERE
  $x subClassOf* Food .
  $y subClassOf* Drink
SATISFYING
  $x+ servedWith $y
WITH SUPPORT = {threshold}
"""


def build_synthetic_ontology(foods: int = 16, drinks: int = 8) -> Ontology:
    """A flat two-taxonomy ontology: F1..Fn under Food, D1..Dm under Drink."""
    ontology = Ontology()
    ontology.add(Fact("Food", "subClassOf", "Consumable"))
    ontology.add(Fact("Drink", "subClassOf", "Consumable"))
    for index in range(1, foods + 1):
        ontology.add(Fact(f"F{index}", "subClassOf", "Food"))
    for index in range(1, drinks + 1):
        ontology.add(Fact(f"D{index}", "subClassOf", "Drink"))
    ontology.vocabulary.add_relation("servedWith")
    return ontology


def build_space(
    ontology: Ontology, threshold: float = 0.5, max_values: int = 4
) -> QueryAssignmentSpace:
    query = parse_query(QUERY_TEMPLATE.format(threshold=threshold))
    return QueryAssignmentSpace(
        ontology, query, max_values_per_var=max_values, max_more_facts=0
    )


def plant_targets(
    space: QueryAssignmentSpace,
    count: int,
    max_set_size: int,
    foods: int,
    drinks: int,
    seed: int = 0,
) -> List[Assignment]:
    """Random pairwise-incomparable target MSPs with bounded value sets."""
    rng = random.Random(seed)
    vocabulary = space.vocabulary
    targets: List[Assignment] = []
    attempts = 0
    while len(targets) < count and attempts < 200 * count:
        attempts += 1
        size = rng.randint(1, max_set_size)
        food_set = {
            Element(f"F{rng.randint(1, foods)}") for _ in range(size)
        }
        drink = Element(f"D{rng.randint(1, drinks)}")
        candidate = Assignment.make(
            vocabulary, {"x": food_set, "y": {drink}}
        )
        comparable = any(
            candidate.leq(t, vocabulary) or t.leq(candidate, vocabulary)
            for t in targets
        )
        if not comparable:
            targets.append(candidate)
    return targets


def count_generated_nodes(space: QueryAssignmentSpace) -> int:
    """Nodes the lazy generator actually materialized during a run."""
    generated = set(space.roots())
    generated.update(space.materialized_nodes())
    return len(generated)


def count_eager_nodes(foods: int, drinks: int, max_set_size: int) -> int:
    """Nodes an eager generator would create up to the same multiplicity.

    With a flat food taxonomy the candidate x-values are ``Food`` or any
    non-empty set of up to ``max_set_size`` leaves (all antichains), and the
    y-values are ``Drink`` or a leaf: counting, not materializing.
    """
    x_options = 1  # {Food}
    for k in range(1, max_set_size + 1):
        x_options += _choose(foods, k)
    y_options = drinks + 1  # each leaf, or {Drink}
    return x_options * y_options


def _choose(n: int, k: int) -> int:
    if k > n:
        return 0
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result


def run_multiplicities_experiment(
    msp_counts: Sequence[int] = (4, 8),
    max_set_sizes: Sequence[int] = (1, 2, 4),
    foods: int = 16,
    drinks: int = 8,
    threshold: float = 0.5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Grid over (#MSPs, max multiplicity size): questions + lazy ratio."""
    rows: List[Dict[str, object]] = []
    ontology = build_synthetic_ontology(foods, drinks)
    for count in msp_counts:
        for max_size in max_set_sizes:
            space = build_space(ontology, threshold, max_values=max(max_set_sizes))
            targets = plant_targets(space, count, max_size, foods, drinks, seed=seed)

            def support(node: Assignment) -> float:
                return (
                    1.0
                    if any(node.leq(t, space.vocabulary) for t in targets)
                    else 0.0
                )

            result = vertical_mine(space, support, threshold, target_msps=targets)
            lazy = count_generated_nodes(space)
            eager = count_eager_nodes(foods, drinks, max(max_set_sizes))
            rows.append(
                {
                    "msps": count,
                    "max_set_size": max_size,
                    "questions": result.questions,
                    "lazy_nodes": lazy,
                    "eager_nodes": eager,
                    "lazy_percent": 100.0 * lazy / eager,
                    "found_msps": len(result.msps),
                }
            )
    return rows


def render_multiplicities(rows: List[Dict[str, object]]) -> str:
    headers = [
        "#MSPs",
        "max |set|",
        "questions",
        "lazy nodes",
        "eager nodes",
        "lazy %",
    ]
    table_rows = [
        (
            r["msps"],
            r["max_set_size"],
            r["questions"],
            r["lazy_nodes"],
            r["eager_nodes"],
            f"{r['lazy_percent']:.2f}%",
        )
        for r in rows
    ]
    return format_table(
        headers, table_rows, title="Multiplicities — lazy vs eager generation"
    )
