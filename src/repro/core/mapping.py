"""Mappings: partial assignments of spans to variables (paper §2.1, §2.4).

A *mapping* ``µ`` assigns spans to a finite set of variables — its *domain*
``dom(µ)``.  Under the schemaless semantics of Maturana et al. different
mappings produced by the same spanner may have different domains; the empty
mapping (empty domain) is a perfectly valid extraction result.

Compatibility (``µ1 ~ µ2``) and union (``µ1 ∪ µ2``) follow the SPARQL-style
definitions of §2.4: two mappings are compatible when they agree on every
common variable, and then their union is the mapping defined on the union of
the domains.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping as TMapping

from .errors import MappingError
from .spans import Span

#: Variables are plain strings; the paper's ``Vars`` is countably infinite
#: and disjoint from the alphabet, which we do not need to enforce — any
#: hashable string works.
Variable = str


class Mapping:
    """An immutable partial function from variables to spans.

    Construct from any ``dict``-like of variable → :class:`Span`::

        Mapping({"x": Span(1, 3), "y": Span(3, 3)})

    Mappings are hashable (usable inside relations/sets) and compare by
    value.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, assignments: TMapping[Variable, Span] | Iterable[tuple[Variable, Span]] = ()):
        items = dict(assignments)
        for var, sp in items.items():
            if not isinstance(var, str):
                raise MappingError(f"variable must be str, got {type(var).__name__}")
            if not isinstance(sp, Span):
                raise MappingError(
                    f"value for {var!r} must be Span, got {type(sp).__name__}"
                )
        # Store as a sorted tuple so that equal mappings hash equally.
        self._items: tuple[tuple[Variable, Span], ...] = tuple(
            sorted(items.items())
        )
        self._hash = hash(self._items)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Variable]:
        return (var for var, _ in self._items)

    def __contains__(self, var: object) -> bool:
        return any(v == var for v, _ in self._items)

    def __getitem__(self, var: Variable) -> Span:
        for v, sp in self._items:
            if v == var:
                return sp
        raise KeyError(var)

    def get(self, var: Variable, default: Span | None = None) -> Span | None:
        """Span assigned to ``var``, or ``default`` when undefined."""
        for v, sp in self._items:
            if v == var:
                return sp
        return default

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}↦{sp}" for v, sp in self._items)
        return f"{{{inner}}}"

    # -- the paper's operations --------------------------------------------

    @property
    def domain(self) -> frozenset[Variable]:
        """``dom(µ)``: the set of variables this mapping assigns."""
        return frozenset(v for v, _ in self._items)

    def items(self) -> tuple[tuple[Variable, Span], ...]:
        """The (variable, span) pairs, sorted by variable name."""
        return self._items

    def is_compatible(self, other: "Mapping") -> bool:
        """SPARQL compatibility: agreement on every common variable.

        Mappings with disjoint domains are vacuously compatible — this is
        the crux of why the schemaless difference is subtle (§4).
        """
        if len(self._items) > len(other._items):
            self, other = other, self  # iterate over the smaller one
        for var, sp in self._items:
            other_sp = other.get(var)
            if other_sp is not None and other_sp != sp:
                return False
        return True

    def union(self, other: "Mapping") -> "Mapping":
        """``µ1 ∪ µ2`` for compatible mappings; raises otherwise."""
        if not self.is_compatible(other):
            raise MappingError(f"cannot union incompatible mappings {self} and {other}")
        merged = dict(self._items)
        merged.update(other._items)
        return Mapping(merged)

    def restrict(self, variables: Iterable[Variable]) -> "Mapping":
        """``µ ↾ Y``: the restriction to ``dom(µ) ∩ Y`` (projection, §2.4)."""
        keep = set(variables)
        return Mapping({v: sp for v, sp in self._items if v in keep})

    def drop(self, variables: Iterable[Variable]) -> "Mapping":
        """The restriction to ``dom(µ) \\ variables``."""
        lose = set(variables)
        return Mapping({v: sp for v, sp in self._items if v not in lose})

    def rename(self, renaming: TMapping[Variable, Variable]) -> "Mapping":
        """Rename variables; variables absent from ``renaming`` are kept."""
        renamed = {renaming.get(v, v): sp for v, sp in self._items}
        if len(renamed) != len(self._items):
            raise MappingError(f"renaming {renaming} collapses variables of {self}")
        return Mapping(renamed)

    def as_dict(self) -> dict[Variable, Span]:
        """A plain mutable ``dict`` copy of the assignments."""
        return dict(self._items)


#: The empty mapping — produced e.g. by a Boolean spanner that matched.
EMPTY_MAPPING = Mapping()


def compatible(first: Mapping, second: Mapping) -> bool:
    """Function form of :meth:`Mapping.is_compatible`."""
    return first.is_compatible(second)


def merge(first: Mapping, second: Mapping) -> Mapping:
    """Function form of :meth:`Mapping.union`."""
    return first.union(second)
