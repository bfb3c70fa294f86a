"""Synthetic taxonomies: random layered term DAGs at paper scale.

The crowd experiments of Section 6 run over real taxonomies with thousands
of terms (the paper quotes 4.7k–10.5k nodes for the travel and health
ontologies).  This module generates *vocabulary-level* DAGs of that shape —
layered element/relation orders with controlled width, depth and extra
cross edges — for the bitset-equivalence test suite
(``tests/test_bitset_equivalence.py``).

This is distinct from :mod:`repro.synth.dag_gen`, which generates
*assignment-space* DAGs (the mining lattice); here we generate the term
orders those spaces are built over.
"""

from __future__ import annotations

import random
from typing import List

from ..vocabulary.orders import PartialOrder
from ..vocabulary.terms import Element
from ..vocabulary.vocabulary import Vocabulary
from .dag_gen import layer_sizes


def random_taxonomy(
    vocabulary: Vocabulary,
    node_count: int = 4700,
    depth: int = 6,
    seed: int = 0,
    extra_edge_probability: float = 0.15,
    prefix: str = "N",
) -> List[List[Element]]:
    """Grow a random layered element taxonomy inside ``vocabulary``.

    Returns the layers (roots first).  Every non-root gets one parent in
    the previous layer plus occasional extra cross parents, mirroring the
    multi-inheritance of real ontologies.  Node names are ``{prefix}{i}``.
    """
    if node_count < depth + 1:
        raise ValueError("node_count must cover at least one node per layer")
    rng = random.Random(seed)
    # find the widest bottom layer whose geometric ramp sums to node_count
    width = max(1, node_count // depth)
    while sum(layer_sizes(width, depth)) > node_count and width > 1:
        width -= 1
    sizes = layer_sizes(width, depth)
    # distribute any remainder over the deepest layer
    sizes[-1] += node_count - sum(sizes)

    layers: List[List[Element]] = []
    counter = 0
    for size in sizes:
        layer = []
        for _ in range(size):
            layer.append(vocabulary.add_element(f"{prefix}{counter}"))
            counter += 1
        layers.append(layer)
    for upper, lower in zip(layers, layers[1:]):
        for child in lower:
            parent = rng.choice(upper)
            vocabulary.element_order.add_edge(parent, child)
            while rng.random() < extra_edge_probability:
                extra = rng.choice(upper)
                if extra != parent:
                    vocabulary.element_order.add_edge(extra, child)
                    break
    return layers


def random_order(
    node_count: int = 200,
    depth: int = 5,
    seed: int = 0,
    extra_edge_probability: float = 0.2,
) -> PartialOrder:
    """A standalone random element order (for order-level equivalence tests)."""
    vocabulary = Vocabulary()
    random_taxonomy(
        vocabulary,
        node_count=node_count,
        depth=depth,
        seed=seed,
        extra_edge_probability=extra_edge_probability,
    )
    return vocabulary.element_order


def random_vocabulary(
    element_count: int = 4700,
    relation_count: int = 12,
    depth: int = 6,
    seed: int = 0,
    extra_edge_probability: float = 0.15,
) -> Vocabulary:
    """A paper-scale vocabulary: layered element DAG + a small relation chain.

    Relations form a shallow specialization forest (real vocabularies keep
    ``≤R`` tiny — ``nearBy ≤ inside`` is the paper's sole example).
    """
    rng = random.Random(seed ^ 0x5EED)
    vocabulary = Vocabulary()
    random_taxonomy(
        vocabulary,
        node_count=element_count,
        depth=depth,
        seed=seed,
        extra_edge_probability=extra_edge_probability,
    )
    relations = [vocabulary.add_relation(f"rel{i}") for i in range(relation_count)]
    for child in relations[1:]:
        if rng.random() < 0.5:
            parent = rng.choice(relations[: relations.index(child)])
            if parent is not child:
                try:
                    vocabulary.relation_order.add_edge(parent, child)
                except ValueError:
                    pass
    return vocabulary
