"""The prepared automaton behind every engine evaluation.

:class:`PreparedIndexedVA` turns a sequential VA into its
document-independent indexed form once, then builds a per-document *run*
(:meth:`PreparedIndexedVA.run`): an
:class:`~repro.va.indexed.IndexedMatchGraph` exposing the Theorem-2.5
enumeration plus the match-graph size gauges the engine's statistics
report.

The indexed form relabels states to dense integers with precomputed
per-letter/per-opset transition tables and bitmask state sets
(:mod:`repro.va.indexed`).  Each document takes one of two walks through
the automaton's shared :class:`~repro.va.kernel.TransitionKernel`, chosen
by :func:`~repro.va.kernel.run_walk_runs`: the run walk advances maximal
letter runs in O(log run) memoized mask applications, the letter walk
(text, where runs are short) steps interned frontier nodes, one list
index per letter.  A per-document product (Theorem 4.8's, a
:class:`~repro.va.indexed.LayeredIndexedVA`) is already in the indexed
form and already layered: its run takes its layers as the forward pass,
and it has no kernel.

``tests/engine`` checks it, on each walk, against the reference oracles —
the naive run-semantics enumerator and the frozenset
:class:`~repro.va.matchgraph.MatchGraph` walk
(:func:`~repro.va.evaluation.enumerate_mappings`) — on random automata
and documents, in both content and enumeration order.
"""

from __future__ import annotations

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError
from ..va.automaton import VA
from ..va.indexed import IndexedMatchGraph, LayeredIndexedVA, indexed_nonempty
from ..va.properties import is_sequential


class PreparedIndexedVA:
    """The prepared form of one sequential VA: an :class:`IndexedVA`
    (cached on the automaton via :meth:`VA.indexed`) whose kernel is
    shared by every document's walk, or a per-document
    :class:`LayeredIndexedVA` as it is, which runs on its own document
    only."""

    __slots__ = ("indexed",)

    def __init__(self, va: "VA | LayeredIndexedVA"):
        layered = isinstance(va, LayeredIndexedVA)
        if not (va.is_sequential() if layered else is_sequential(va)):
            raise NotSequentialError("enumeration requires a sequential VA")
        self.indexed = va if layered else va.indexed()

    def run(self, document: Document | str, guard=None) -> IndexedMatchGraph:
        """Build the per-document run (graph construction).  ``guard`` is
        an optional :class:`~repro.engine.guards.ExecutionGuard` the run
        checks cooperatively (at run boundaries during construction, per
        DFS frame during enumeration)."""
        return IndexedMatchGraph(self.indexed, as_document(document), guard=guard)

    def is_nonempty(self, document: Document | str, guard=None) -> bool:
        """Decide ``⟦A⟧(d) ≠ ∅`` with a Boolean forward pass that never
        builds enumeration edges."""
        return indexed_nonempty(self.indexed, document, guard=guard)

    def run_extended(
        self, prior: IndexedMatchGraph, document: Document | str, guard=None
    ) -> IndexedMatchGraph:
        """The run of ``document``, an append-extension of ``prior``'s
        document, resumed from ``prior``'s checkpointed frontier in
        O(appended) walk steps
        (:meth:`~repro.va.indexed.IndexedMatchGraph.extended`)."""
        return prior.extended(as_document(document), guard=guard)

    def counters(self) -> "tuple[int, int]":
        """The cumulative ``(kernel run hits, frontier misses)`` behind this
        prepared form: runs the run walk advanced in one kernel step, and
        frontier transitions the letter walk computed.  Both are ``0`` on
        a per-document form, which has no kernel.  The kernel is shared
        by every engine on the automaton, so the engine counts only the
        growth across each of its own calls."""
        if self.indexed.layers is not None:
            return 0, 0
        kernel = self.indexed.kernel()
        return kernel.run_hits, kernel.step_misses
