"""Ontology layer: facts, fact-sets and the indexed triple store."""

from .facts import Fact, FactSet, as_fact, fact_set, parse_fact_set
from .graph import (
    HAS_LABEL,
    INSTANCE_OF,
    SUBCLASS_OF,
    TAXONOMY_RELATIONS,
    Ontology,
)
from .turtle import TurtleSyntaxError, dump, dumps, load, loads

__all__ = [
    "HAS_LABEL",
    "INSTANCE_OF",
    "SUBCLASS_OF",
    "TAXONOMY_RELATIONS",
    "Fact",
    "FactSet",
    "Ontology",
    "TurtleSyntaxError",
    "as_fact",
    "dump",
    "dumps",
    "fact_set",
    "load",
    "loads",
    "parse_fact_set",
]
