"""Pluggable enumeration backends.

A backend turns a sequential VA into a document-independent *prepared*
form once (:meth:`EnumerationBackend.prepare`), then builds a per-document
*run* (:meth:`PreparedVA.run`): an
:class:`~repro.va.indexed.IndexedMatchGraph` exposing the Theorem-2.5
enumeration plus the match-graph size gauges the engine's statistics
report.

A per-document product (Theorem 4.8's, a
:class:`~repro.va.indexed.LayeredIndexedVA`) is already in the indexed
form and is already layered: every backend prepares it as
:class:`PreparedIndexedVA`, whose run takes its layers as the forward
pass.  It has no document-independent tables for a kernel or for numpy
planes to amortise.

Shipped backends:

* ``indexed`` (the default) — states relabelled to dense integers with
  precomputed per-letter/per-opset transition tables and bitmask state
  sets (:mod:`repro.va.indexed`).  Each document takes one of two walks,
  chosen by :func:`~repro.va.kernel.takes_run_walk`: the run walk advances
  maximal letter runs through the
  :class:`~repro.va.kernel.TransitionKernel` in O(log run) memoized mask
  applications, the letter walk (text, where runs are short) takes one
  mask step per letter.
* ``vectorized`` — the numpy uint64 state-plane substrate
  (:mod:`repro.va.vectorized`): interned frontier nodes over a
  precomputed successor-plane table, plane-matrix power doubling on
  runs, and whole-document plane arrays for the backward pass.  It
  enumerates on the indexed DFS and keeps its own ``first()`` walk.
  Needs numpy (the ``[fast]`` extra); requesting it without numpy raises
  a clean :class:`~repro.core.errors.BackendUnavailableError`.

Both backends are interchangeable: ``tests/engine`` checks each against
the reference oracles — the naive run-semantics enumerator and the
frozenset :class:`~repro.va.matchgraph.MatchGraph` walk
(:func:`~repro.va.evaluation.enumerate_mappings`) — on random automata
and documents, in both content and enumeration order.
:func:`available_backends` lists the ones that can actually run in this
environment (``indexed`` always, ``vectorized`` with numpy).
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
from ..va.vectorized import (
    VectorizedMatchGraph,
    numpy_available,
    require_numpy,
    vectorized_nonempty,
)


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

    @abc.abstractmethod
    def run_extended(
        self, prior: IndexedMatchGraph, document: Document | str, guard=None
    ) -> IndexedMatchGraph:
        """The run of ``document``, an append-extension of ``prior``'s
        document, resumed from ``prior``'s checkpointed frontier in
        O(appended) walk steps
        (:meth:`~repro.va.indexed.IndexedMatchGraph.extended`)."""

    def kernel_hits(self) -> int:
        """Cumulative run-compressed kernel advances behind this prepared
        form (``0`` for backends without a kernel).  The engine samples it
        around each evaluation to attribute ``kernel_run_hits``."""
        return 0

    def frontier_misses(self) -> int:
        """Cumulative frontier-transition cache misses behind this
        prepared form (``0`` for backends without a frontier cache).  The
        engine samples it around each evaluation to attribute
        ``frontier_cache_misses``."""
        return 0


class EnumerationBackend(abc.ABC):
    """A strategy for preparing and enumerating sequential VAs."""

    name: str

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment
        (``vectorized`` needs numpy; ``indexed`` always can)."""
        return True

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
    shared by every document's run walk, or a per-document
    :class:`LayeredIndexedVA` as it is (on every backend), which runs on
    its own document only and builds its VA view only if :attr:`va` is
    read."""

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

    def run_extended(
        self, prior: IndexedMatchGraph, document: Document | str, guard=None
    ) -> IndexedMatchGraph:
        return prior.extended(as_document(document), guard=guard)

    def kernel_hits(self) -> int:
        if self.indexed.layers is not None:
            return 0  # a per-document form never takes the run walk
        return self.indexed.kernel().run_hits


class IndexedBackend(EnumerationBackend):
    """Dense-indexed evaluator (see :mod:`repro.va.indexed`): the run walk
    through the transition kernel on run-heavy documents, the letter walk
    on text."""

    name = "indexed"

    def prepare(self, va: "VA | LayeredIndexedVA") -> PreparedIndexedVA:
        return PreparedIndexedVA(va)


# -- vectorized: numpy uint64 state planes + interned frontier nodes --------


class PreparedVectorizedVA(PreparedVA):
    """Prepared form of the ``vectorized`` backend: a
    :class:`~repro.va.vectorized.VectorizedVA` (cached on the automaton
    via :meth:`VA.vectorized`) sharing one frontier-node kernel across
    every document."""

    __slots__ = ("va", "vectorized")

    def __init__(self, va: VA):
        _require_sequential(va)
        self.vectorized = va.vectorized()
        self.va = self.vectorized.va

    def run(self, document: Document | str, guard=None) -> VectorizedMatchGraph:
        return VectorizedMatchGraph(self.vectorized, as_document(document), guard=guard)

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        return vectorized_nonempty(self.vectorized, document, guard=guard)

    def run_extended(
        self, prior: VectorizedMatchGraph, document: Document | str, guard=None
    ) -> VectorizedMatchGraph:
        return prior.extended(as_document(document), guard=guard)

    def kernel_hits(self) -> int:
        return self.vectorized.kernel().run_hits

    def frontier_misses(self) -> int:
        return self.vectorized.kernel().step_misses


class VectorizedBackend(EnumerationBackend):
    """The numpy state-plane evaluator (see :mod:`repro.va.vectorized`).

    Constructing the backend without numpy raises
    :class:`~repro.core.errors.BackendUnavailableError` — requesting
    ``--backend vectorized`` fails fast with the install hint instead of
    dying mid-evaluation.
    """

    name = "vectorized"

    def __init__(self):
        require_numpy()

    @classmethod
    def is_available(cls) -> bool:
        return numpy_available()

    def prepare(
        self, va: "VA | LayeredIndexedVA"
    ) -> "PreparedVectorizedVA | PreparedIndexedVA":
        if isinstance(va, LayeredIndexedVA):
            return PreparedIndexedVA(va)
        return PreparedVectorizedVA(va)


# -- registry ---------------------------------------------------------------

BACKENDS: dict[str, type[EnumerationBackend]] = {
    IndexedBackend.name: IndexedBackend,
    VectorizedBackend.name: VectorizedBackend,
}

DEFAULT_BACKEND = IndexedBackend.name


def available_backends() -> "list[str]":
    """The registered backend names that can run in this environment
    (sorted) — ``indexed`` unconditionally, plus ``vectorized`` when numpy
    is importable."""
    return sorted(
        name for name, cls in BACKENDS.items() if cls.is_available()
    )


def get_backend(backend: "str | EnumerationBackend | None") -> EnumerationBackend:
    """Resolve a backend name (or pass an instance through).

    Unknown names raise :class:`SpannerError`; a known backend whose
    dependencies are missing raises
    :class:`~repro.core.errors.BackendUnavailableError` (with the install
    hint) from its constructor.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, EnumerationBackend):
        return backend
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise SpannerError(
            f"unknown enumeration backend {backend!r}; "
            f"available: {sorted(BACKENDS)}"
        ) from None
    return cls()
