"""Solution bindings produced by BGP evaluation.

A :class:`Binding` is an immutable mapping from variable names to values
(elements, relations, or label strings).  Evaluation works with plain dicts
internally and freezes them on output.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple, Union

from ..vocabulary.terms import Element, Relation

BindingValue = Union[Element, Relation, str]


class Binding(Mapping[str, BindingValue]):
    """An immutable variable assignment (one SPARQL solution row).

    Lookups (``[]``, ``get``, ``in``) go to a dict; hash, equality,
    iteration order and ``repr`` are those of the items sorted by name.
    """

    __slots__ = ("_items", "_map")

    def __init__(self, mapping: Mapping[str, BindingValue]):
        self._items: Tuple[Tuple[str, BindingValue], ...] = tuple(
            sorted(mapping.items())
        )
        self._map: Dict[str, BindingValue] = dict(self._items)

    def __getitem__(self, key: str) -> BindingValue:
        return self._map[key]

    def get(self, key, default=None):
        return self._map.get(key, default)

    def __contains__(self, key: object) -> bool:
        return key in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Binding):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._map == dict(other)
        return NotImplemented

    def as_dict(self) -> Dict[str, BindingValue]:
        return dict(self._map)

    def project(self, names) -> "Binding":
        """Restrict to the given variable names (missing names are dropped)."""
        wanted = set(names)
        return Binding({n: v for n, v in self._items if n in wanted})

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in self._items)
        return f"Binding({inner})"
