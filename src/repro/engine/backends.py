"""Pluggable enumeration backends.

A backend turns a sequential VA into a document-independent *prepared*
form once (:meth:`EnumerationBackend.prepare`), then builds a per-document
*run* (:meth:`PreparedVA.run`) exposing the Theorem-2.5 enumeration plus
the match-graph size gauges the engine's statistics report.

Shipped backends:

* ``matchgraph`` — the original path: states stay arbitrary hashable
  objects, the prepared form is a
  :class:`~repro.va.matchgraph.FactorizedVA` and runs are
  :class:`~repro.va.matchgraph.MatchGraph` DFS walks.
* ``indexed`` — states relabelled to dense integers with precomputed
  per-letter/per-opset transition tables and bitmask state sets
  (:mod:`repro.va.indexed`); same semantics, faster hot loop.  Forward and
  backward passes are *run-compressed* through the
  :class:`~repro.va.kernel.TransitionKernel` (maximal letter runs advance
  in O(log run) memoized mask applications).
* ``indexed-plain`` — the same substrate with the kernel disabled (the
  per-letter escape hatch, kept for comparison benches and as a guard
  against kernel regressions).
* ``vectorized`` — the numpy uint64 state-plane substrate
  (:mod:`repro.va.vectorized`): interned frontier nodes over a
  precomputed successor-plane table, plane-matrix power doubling on
  runs, and whole-document plane arrays for the backward pass.  Needs
  numpy (the ``[fast]`` extra); requesting it without numpy raises a
  clean :class:`~repro.core.errors.BackendUnavailableError`.

All backends are interchangeable: ``tests/engine`` checks each against the
naive run-semantics enumerator on random automata and documents, in both
content and enumeration order.  :func:`available_backends` lists the ones
that can actually run in this environment (everything except
``vectorized`` is always available).
"""

from __future__ import annotations

import abc
from typing import Iterator

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError, SpannerError
from ..core.mapping import Mapping
from ..va.automaton import VA
from ..va.evaluation import enumerate_matchgraph
from ..va.indexed import IndexedMatchGraph, IndexedVA, indexed_nonempty
from ..va.matchgraph import FactorizedVA, MatchGraph, boolean_nonempty
from ..va.properties import is_sequential
from ..va.vectorized import (
    VectorizedMatchGraph,
    numpy_available,
    require_numpy,
    vectorized_nonempty,
)


class PreparedRun(abc.ABC):
    """A per-document match graph ready to enumerate."""

    @property
    @abc.abstractmethod
    def is_empty(self) -> bool:
        """Whether the result is empty (no live source state)."""

    @abc.abstractmethod
    def states_alive(self) -> int:
        """Total live states across the graph's layers (size gauge)."""

    @abc.abstractmethod
    def enumerate(self) -> Iterator[Mapping]:
        """Enumerate the mappings with polynomial delay (Theorem 2.5)."""

    def enumerate_since(self, prefix_length: int) -> Iterator[Mapping]:
        """Every mapping that is not a mapping of the document's first
        ``prefix_length`` letters, plus possibly some that are, each once
        and in no particular order; ``-1`` asks for all of them.

        The indexed runs walk back from the final layer and skip the
        prefix's mappings
        (:meth:`~repro.va.indexed.IndexedMatchGraph.enumerate_since`); the
        fallback enumerates everything.
        """
        return self.enumerate()

    def first(self) -> "Mapping | None":
        """The first mapping in canonical order, or ``None`` if empty.

        Backends with a dedicated greedy walk override this; the fallback
        takes the enumeration's head.
        """
        return next(self.enumerate(), None)


class PreparedVA(abc.ABC):
    """The document-independent prepared form of one sequential VA."""

    va: VA

    @abc.abstractmethod
    def run(self, document: Document | str, guard=None) -> PreparedRun:
        """Build the per-document run (graph construction).  ``guard`` is
        an optional :class:`~repro.engine.guards.ExecutionGuard` the run
        checks cooperatively (at run boundaries during construction, per
        DFS frame during enumeration)."""

    def enumerate(self, document: Document | str) -> Iterator[Mapping]:
        return self.run(document).enumerate()

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        """Decide ``⟦A⟧(d) ≠ ∅``.

        Backends override this with a Boolean forward pass that never
        builds enumeration edges; the fallback asks the enumerator for one
        mapping.
        """
        if guard is not None:
            guard.check()
        for _ in self.run(document, guard=guard).enumerate():
            return True
        return False

    def supports_extension(self) -> bool:
        """Whether :meth:`run_extended` resumes from a prior run's
        checkpoint instead of rebuilding.  Backends whose match graph
        snapshots the forward frontier (``indexed``, ``indexed-plain``,
        ``vectorized``) override this; the tail session consults it to
        attribute reused vs. recomputed layers honestly."""
        return False

    def run_extended(
        self, prior: PreparedRun, document: Document | str, guard=None
    ) -> PreparedRun:
        """The run of ``document``, an append-extension of ``prior``'s
        document, reusing ``prior``'s layers where the backend can.

        The default is a full rebuild — always correct, never faster.
        Extending backends override it with the O(appended) checkpoint
        resume.
        """
        return self.run(document, guard=guard)

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

    def edge_rows_batched(self) -> int:
        """Cumulative batched edge-row contexts materialised behind this
        prepared form (``0`` for backends without batched enumeration).
        The engine samples it around each evaluation to attribute
        ``edge_rows_batched``."""
        return 0


class EnumerationBackend(abc.ABC):
    """A strategy for preparing and enumerating sequential VAs."""

    name: str

    #: Block budget for backends with a batched enumeration path: the
    #: maximum number of distinct ``(letter, live mask)`` layer contexts a
    #: document may have before enumeration falls back to the scalar
    #: walk; ``0`` disables batching, ``None`` keeps the backend default
    #: (:data:`repro.va.vectorized.DEFAULT_ENUM_BLOCK_SIZE`).  Set by the
    #: engine's ``enumeration_block_size`` knob / ``--enum-block``.
    enumeration_block_size: "int | None" = None

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment
        (``vectorized`` needs numpy; everything else always can)."""
        return True

    @abc.abstractmethod
    def prepare(self, va: VA) -> PreparedVA:
        """Compile the document-independent form (checks sequentiality)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _require_sequential(va: VA) -> None:
    if not is_sequential(va):
        raise NotSequentialError(
            "enumeration backends require a sequential VA"
        )


# -- matchgraph: the original Theorem-2.5 path ------------------------------


class _MatchGraphRun(PreparedRun):
    __slots__ = ("graph",)

    def __init__(self, graph: MatchGraph):
        self.graph = graph

    @property
    def is_empty(self) -> bool:
        return self.graph.is_empty

    def states_alive(self) -> int:
        return self.graph.states_alive()

    def enumerate(self) -> Iterator[Mapping]:
        return enumerate_matchgraph(self.graph)


class PreparedMatchGraphVA(PreparedVA):
    """Prepared form of the ``matchgraph`` backend: a shared
    :class:`FactorizedVA` whose closure caches grow across documents."""

    __slots__ = ("va", "factorized")

    def __init__(self, va: VA):
        _require_sequential(va)
        self.factorized = FactorizedVA(va)
        self.va = self.factorized.va

    def run(self, document: Document | str, guard=None) -> _MatchGraphRun:
        # The matchgraph substrate predates the guard plumbing: the guard
        # brackets construction (the engine ticks per emitted mapping), so
        # deadlines still bound the whole evaluation.
        if guard is not None:
            guard.check()
        graph = MatchGraph(self.factorized, document)
        if guard is not None:
            guard.check()
        return _MatchGraphRun(graph)

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        if guard is not None:
            guard.check()
        return boolean_nonempty(self.factorized, document)


class MatchGraphBackend(EnumerationBackend):
    """The original evaluator: frozenset profiles over hashable states."""

    name = "matchgraph"

    def prepare(self, va: VA) -> PreparedMatchGraphVA:
        return PreparedMatchGraphVA(va)


# -- indexed: dense-int states, precomputed tables, bitmask profiles --------


class PreparedIndexedVA(PreparedVA):
    """Prepared form of the ``indexed`` backends: an :class:`IndexedVA`
    (cached on the automaton via :meth:`VA.indexed`), run-compressed
    through the shared kernel unless ``compressed=False``."""

    __slots__ = ("va", "indexed", "compressed")

    def __init__(self, va: VA, compressed: bool = True):
        _require_sequential(va)
        self.indexed = va.indexed()
        self.va = self.indexed.va
        self.compressed = compressed

    def run(self, document: Document | str, guard=None) -> IndexedMatchGraph:
        return IndexedMatchGraph(
            self.indexed,
            as_document(document),
            compressed=self.compressed,
            guard=guard,
        )

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        return indexed_nonempty(
            self.indexed, document, compressed=self.compressed, guard=guard
        )

    def supports_extension(self) -> bool:
        return True

    def run_extended(
        self, prior: PreparedRun, document: Document | str, guard=None
    ) -> IndexedMatchGraph:
        if not isinstance(prior, IndexedMatchGraph):
            return self.run(document, guard=guard)
        return prior.extended(as_document(document), guard=guard)

    def kernel_hits(self) -> int:
        return self.indexed.kernel().run_hits if self.compressed else 0


class IndexedBackend(EnumerationBackend):
    """Dense-indexed evaluator (see :mod:`repro.va.indexed`), with the
    run-compressed transition kernel on the hot paths."""

    name = "indexed"
    compressed = True

    def prepare(self, va: VA) -> PreparedIndexedVA:
        return PreparedIndexedVA(va, compressed=self.compressed)


class PlainIndexedBackend(IndexedBackend):
    """The ``indexed`` substrate with the run-compressed kernel disabled —
    the per-letter escape hatch and comparison baseline."""

    name = "indexed-plain"
    compressed = False


# -- vectorized: numpy uint64 state planes + interned frontier nodes --------


class PreparedVectorizedVA(PreparedVA):
    """Prepared form of the ``vectorized`` backend: a
    :class:`~repro.va.vectorized.VectorizedVA` (cached on the automaton
    via :meth:`VA.vectorized`) sharing one frontier-node kernel across
    every document."""

    __slots__ = ("va", "vectorized", "block_size")

    def __init__(self, va: VA, block_size: "int | None" = None):
        _require_sequential(va)
        self.vectorized = va.vectorized()
        self.va = self.vectorized.va
        self.block_size = block_size

    def run(self, document: Document | str, guard=None) -> VectorizedMatchGraph:
        return VectorizedMatchGraph(
            self.vectorized,
            as_document(document),
            block_size=self.block_size,
            guard=guard,
        )

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        return vectorized_nonempty(self.vectorized, document, guard=guard)

    def supports_extension(self) -> bool:
        return True

    def run_extended(
        self, prior: PreparedRun, document: Document | str, guard=None
    ) -> VectorizedMatchGraph:
        if not isinstance(prior, VectorizedMatchGraph):
            return self.run(document, guard=guard)
        return prior.extended(as_document(document), guard=guard)

    def kernel_hits(self) -> int:
        return self.vectorized.kernel().run_hits

    def frontier_misses(self) -> int:
        return self.vectorized.kernel().step_misses

    def edge_rows_batched(self) -> int:
        return self.vectorized.kernel().edge_rows_batched


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

    def prepare(self, va: VA) -> PreparedVectorizedVA:
        return PreparedVectorizedVA(va, block_size=self.enumeration_block_size)


# IndexedMatchGraph (and its vectorized subclass) already expose the full
# run interface.
PreparedRun.register(IndexedMatchGraph)


# -- registry ---------------------------------------------------------------

BACKENDS: dict[str, type[EnumerationBackend]] = {
    MatchGraphBackend.name: MatchGraphBackend,
    IndexedBackend.name: IndexedBackend,
    PlainIndexedBackend.name: PlainIndexedBackend,
    VectorizedBackend.name: VectorizedBackend,
}

DEFAULT_BACKEND = IndexedBackend.name


def available_backends() -> "list[str]":
    """The registered backend names that can run in this environment
    (sorted) — everything except ``vectorized`` unconditionally, plus
    ``vectorized`` when numpy is importable."""
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
