"""The enumeration backend.

A backend turns a sequential VA into a document-independent *prepared*
form once (:meth:`EnumerationBackend.prepare`), then builds a per-document
*run* (:meth:`PreparedVA.run`): an
:class:`~repro.va.indexed.IndexedMatchGraph` exposing the Theorem-2.5
enumeration plus the match-graph size gauges the engine's statistics
report.

One backend ships, ``indexed`` (the default): states relabelled to dense
integers with precomputed per-letter/per-opset transition tables and
bitmask state sets (:mod:`repro.va.indexed`).  Each document takes one of
two walks through the automaton's shared
:class:`~repro.va.kernel.TransitionKernel`, chosen by
:func:`~repro.va.kernel.run_walk_runs`: the run walk advances maximal
letter runs in O(log run) memoized mask applications, the letter walk
(text, where runs are short) steps interned frontier nodes, one list
index per letter.  A per-document product (Theorem 4.8's, a
:class:`~repro.va.indexed.LayeredIndexedVA`) is already in the indexed
form and already layered: its run takes its layers as the forward pass,
and it has no kernel.

``tests/engine`` checks the backend, on each walk, against the reference
oracles — the naive run-semantics enumerator and the frozenset
:class:`~repro.va.matchgraph.MatchGraph` walk
(:func:`~repro.va.evaluation.enumerate_mappings`) — on random automata
and documents, in both content and enumeration order.
"""

from __future__ import annotations

import abc
from typing import Iterator

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError, SpannerError
from ..core.mapping import Mapping
from ..va.automaton import VA
from ..va.indexed import IndexedMatchGraph, LayeredIndexedVA, indexed_nonempty
from ..va.properties import is_sequential


class PreparedVA(abc.ABC):
    """The document-independent prepared form of one sequential VA."""

    va: VA

    @abc.abstractmethod
    def run(self, document: Document | str, guard=None) -> IndexedMatchGraph:
        """Build the per-document run (graph construction).  ``guard`` is
        an optional :class:`~repro.engine.guards.ExecutionGuard` the run
        checks cooperatively (at run boundaries during construction, per
        DFS frame during enumeration)."""

    def enumerate(self, document: Document | str) -> Iterator[Mapping]:
        return self.run(document).enumerate()

    @abc.abstractmethod
    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        """Decide ``⟦A⟧(d) ≠ ∅`` with a Boolean forward pass that never
        builds enumeration edges."""

    def run_extended(
        self, prior: IndexedMatchGraph, document: Document | str, guard=None
    ) -> IndexedMatchGraph:
        """The run of ``document``, an append-extension of ``prior``'s
        document, resumed from ``prior``'s checkpointed frontier in
        O(appended) walk steps
        (:meth:`~repro.va.indexed.IndexedMatchGraph.extended`)."""
        return prior.extended(as_document(document), guard=guard)

    def kernel_hits(self) -> int:
        """Cumulative run-compressed kernel advances behind this prepared
        form (``0`` without a kernel).  The kernel is shared by every
        engine on the automaton, so the engine counts only the growth
        across each of its own calls into the backend."""
        return 0

    def frontier_misses(self) -> int:
        """Cumulative frontier-transition cache misses behind this
        prepared form (``0`` without a frontier cache), counted by the
        engine like :meth:`kernel_hits`."""
        return 0


class EnumerationBackend(abc.ABC):
    """A strategy for preparing and enumerating sequential VAs."""

    name: str

    @abc.abstractmethod
    def prepare(self, va: "VA | LayeredIndexedVA") -> PreparedVA:
        """Compile the document-independent form (checks sequentiality);
        a per-document product becomes a :class:`PreparedIndexedVA`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _require_sequential(va: "VA | LayeredIndexedVA") -> None:
    sequential = va.is_sequential() if isinstance(va, LayeredIndexedVA) else is_sequential(va)
    if not sequential:
        raise NotSequentialError(
            "enumeration backends require a sequential VA"
        )


# -- indexed: dense-int states, precomputed tables, bitmask profiles --------


class PreparedIndexedVA(PreparedVA):
    """Prepared form of the ``indexed`` backend: an :class:`IndexedVA`
    (cached on the automaton via :meth:`VA.indexed`) whose kernel is
    shared by every document's walk, or a per-document
    :class:`LayeredIndexedVA` as it is, which runs on its own document
    only and builds its VA view only if :attr:`va` is read."""

    __slots__ = ("indexed",)

    def __init__(self, va: "VA | LayeredIndexedVA"):
        _require_sequential(va)
        self.indexed = va if isinstance(va, LayeredIndexedVA) else va.indexed()

    @property
    def va(self) -> VA:
        return self.indexed.va

    def run(self, document: Document | str, guard=None) -> IndexedMatchGraph:
        return IndexedMatchGraph(self.indexed, as_document(document), guard=guard)

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        return indexed_nonempty(self.indexed, document, guard=guard)

    def kernel_hits(self) -> int:
        if self.indexed.layers is not None:
            return 0  # a per-document form has no kernel
        return self.indexed.kernel().run_hits

    def frontier_misses(self) -> int:
        if self.indexed.layers is not None:
            return 0
        return self.indexed.kernel().step_misses


class IndexedBackend(EnumerationBackend):
    """Dense-indexed evaluator (see :mod:`repro.va.indexed`): the run walk
    through the transition kernel on run-heavy documents, the letter walk
    over its interned frontier nodes on text."""

    name = "indexed"

    def prepare(self, va: "VA | LayeredIndexedVA") -> PreparedIndexedVA:
        return PreparedIndexedVA(va)


# -- registry ---------------------------------------------------------------

BACKENDS: dict[str, type[EnumerationBackend]] = {
    IndexedBackend.name: IndexedBackend,
}

DEFAULT_BACKEND = IndexedBackend.name

#: Retired backend names that still resolve.  The repository benchmark
#: builds its csv-extract engine with ``backend="vectorized"``, the name of
#: the backend whose letter walk the indexed one took over; the entry goes
#: once that benchmark moves to the default backend.
_ALIASES = {"vectorized": IndexedBackend.name}


def available_backends() -> "list[str]":
    """The registered backend names (sorted)."""
    return sorted(BACKENDS)


def get_backend(backend: "str | EnumerationBackend | None") -> EnumerationBackend:
    """Resolve a backend name (or pass an instance through).  Unknown
    names raise :class:`SpannerError`."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, EnumerationBackend):
        return backend
    try:
        cls = BACKENDS[_ALIASES.get(backend, backend)]
    except KeyError:
        raise SpannerError(
            f"unknown enumeration backend {backend!r}; "
            f"available: {sorted(BACKENDS)}"
        ) from None
    return cls()
