"""Difference against a synchronized subtrahend (Theorem 4.8 / Cor. 4.9).

Bounding the number of common variables (Lemma 4.2) is one route to a
tractable difference; this module implements the other: ``A1 \\ A2`` with
**unboundedly many** common variables X, provided ``A1`` is semi-functional
for X and ``A2`` is synchronized for X.

Construction (following Appendix B.5, see DESIGN.md for the deviation).
Step 1 is document independent and runs once, when a
:class:`PreparedSyncDifference` is built; steps 2–4 run per document, in
:meth:`PreparedSyncDifference.compile`:

1. Check both operands sequential.  Project ``A2`` onto X and trim.
   Synchronizedness makes every variable either used on all accepting
   runs or on none; never-used variables are dropped from X (they cannot
   constrain compatibility), after which the subtrahend is *functional*
   over the effective common set (:func:`synchronized_subtrahend`).
   Decompose ``A1`` by the exact subset ``Y`` of common variables its runs
   use, and factorize the subtrahend and every component, so their
   per-state closure memos serve every document.
2. Build the match graphs of the subtrahend and of each component on the
   document.
3. For each component, sweep the document once, tracking per layer the
   pairs ``(q1, T)`` where ``q1`` is an A1-state and ``T`` the **set** of
   A2 match-graph states reachable under operation sets that agree with
   A1's on ``Γ_Y`` (operations on skipped variables are unconstrained —
   a compatible subtrahend mapping may place them anywhere).
4. Accept exactly when no consistent A2 acceptance exists — then, and only
   then, the A1 mapping survives the difference.

Tracking the *set* ``T`` is the universally-correct form of the paper's
deterministic match structure ``D2``: for a synchronized subtrahend the
sets stay polynomially small (they are the paper's D2 states), which
:class:`SyncDifferenceStats` measures empirically (E8 ablation).  The
construction is *correct* for any sequential functional-over-X subtrahend;
only the polynomial bound needs synchronizedness, so ``require_synchronized
= False`` lets experiments probe the unsynchronized regime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError, NotSynchronizedError
from ..core.mapping import Variable
from ..va.automaton import VA, State
from ..va.matchgraph import FactorizedVA, MatchGraph, OpSet
from ..va.matchstruct import never_used_variables
from ..va.operations import empty_va, project_va, trim, union_all
from ..va.properties import is_functional, is_sequential, is_synchronized_for
from .join import _ProductBuilder, used_set_components


@dataclass
class SyncDifferenceStats:
    """Instrumentation of one synchronized-difference compilation."""

    effective_common: frozenset[Variable] = frozenset()
    components: int = 0
    max_tracked_set: int = 0  # width of the D2-like subset tracking
    product_nodes: int = 0

    def observe_set(self, size: int) -> None:
        self.max_tracked_set = max(self.max_tracked_set, size)


def synchronized_subtrahend(
    second: VA, common: frozenset[Variable], require_synchronized: bool = True
) -> "tuple[frozenset[Variable], VA] | None":
    """Theorem 4.8's analysis of the subtrahend, shared with the
    optimizer's eligibility rule.

    Projects ``second`` onto ``common`` and trims, drops the variables no
    accepting run extracts, then projects and trims again.

    Returns:
        The effective common variables and the projected subtrahend, or
        ``None`` when the projection is the empty spanner.

    Raises:
        NotSynchronizedError: if the projected subtrahend is not
            synchronized for the effective common variables (checked only
            when ``require_synchronized``), or not functional over them.
    """
    projected = trim(project_va(second, common))
    if not projected.accepting:
        return None
    # Drop variables the subtrahend never extracts: they never constrain
    # compatibility.  For a synchronized subtrahend every variable is
    # all-or-nothing, so afterwards the projection is functional.
    effective = common - never_used_variables(projected, common)
    subtrahend = trim(project_va(projected, effective))
    if effective and require_synchronized and not is_synchronized_for(subtrahend, effective):
        raise NotSynchronizedError(
            "the subtrahend is not synchronized for the common variables "
            f"{sorted(effective)}; Theorem 4.8 does not apply "
            "(pass require_synchronized=False to build anyway, or use "
            "adhoc_difference for the bounded-common-variable route)"
        )
    if effective and not is_functional(subtrahend):
        raise NotSynchronizedError(
            "after dropping never-used variables the subtrahend must be "
            "functional over the common variables; it is not — the input "
            "violates Theorem 4.8's preconditions"
        )
    return effective, subtrahend


class PreparedSyncDifference:
    """The document-independent half of Theorem 4.8 for ``A1 \\ A2``
    (construction step 1); :meth:`compile` runs steps 2–4 on a document.

    Building one checks both operands sequential, analyses the subtrahend
    (:func:`synchronized_subtrahend`) and splits the minuend into its
    used-set components.  The factorizations of the subtrahend and of each
    component are kept, so their per-state closure memos serve every
    document this object compiles.

    Args:
        first: the minuend ``A1`` (sequential; semi-functionalised for the
            common variables internally if needed).
        second: the subtrahend ``A2``; must be synchronized for the common
            variables unless ``require_synchronized=False``.
        require_synchronized: when True (default), raise
            :class:`NotSynchronizedError` if ``A2`` is not synchronized
            for the effective common variables — without that property the
            polynomial size bound is forfeit (the construction stays
            correct).

    Raises:
        NotSequentialError: if either operand is not sequential.
        NotSynchronizedError: see :func:`synchronized_subtrahend`.
    """

    __slots__ = ("_first", "_effective", "_subtrahend", "_components")

    def __init__(self, first: VA, second: VA, require_synchronized: bool = True):
        if not is_sequential(first) or not is_sequential(second):
            raise NotSequentialError("synchronized_difference requires sequential operands")
        self._first = trim(first)
        second = trim(second)
        analysis = synchronized_subtrahend(
            second, self._first.variables & second.variables, require_synchronized
        )
        self._effective: frozenset[Variable] = frozenset()
        #: ``None`` when the subtrahend is the empty spanner.
        self._subtrahend: FactorizedVA | None = None
        self._components: tuple[tuple[frozenset[Variable], FactorizedVA], ...] = ()
        if analysis is None:
            return
        self._effective, subtrahend = analysis
        self._subtrahend = FactorizedVA(subtrahend)
        if self._effective:
            self._components = tuple(
                (used, FactorizedVA(component))
                for used, component in used_set_components(
                    self._first, self._effective
                ).items()
            )

    def compile(
        self, document: Document | str, stats: SyncDifferenceStats | None = None
    ) -> VA:
        """An ad-hoc sequential VA ``Ad`` with ``⟦Ad⟧(d) = ⟦A1 \\ A2⟧(d)``
        for ``document``.

        Args:
            stats: optional accumulator for the E8 ablation measurements.
        """
        doc = as_document(document)
        if self._subtrahend is None:
            return self._first  # the subtrahend is the empty spanner
        if stats is not None:
            stats.effective_common = self._effective
        graph2 = MatchGraph(self._subtrahend, doc)
        if graph2.is_empty:
            return self._first  # the subtrahend extracts nothing from this document
        if not self._effective:
            # Boolean subtrahend that accepts d: its empty mapping is
            # compatible with everything.
            return empty_va()
        if stats is not None:
            stats.components = len(self._components)
        pieces: list[VA] = []
        for used, component in self._components:
            piece = _component_difference(component, used, graph2, doc, stats)
            if piece is not None:
                pieces.append(piece)
        if not pieces:
            return empty_va()
        if len(pieces) == 1:
            return pieces[0]
        return union_all(pieces).relabelled()


def synchronized_difference(
    first: VA,
    second: VA,
    document: Document | str,
    require_synchronized: bool = True,
    stats: SyncDifferenceStats | None = None,
) -> VA:
    """An ad-hoc sequential VA ``Ad`` with ``⟦Ad⟧(d) = ⟦A1 \\ A2⟧(d)``
    (Theorem 4.8): :class:`PreparedSyncDifference` built and compiled for
    one document.  Callers compiling the same operands for many documents
    should keep the prepared form instead.

    Args:
        first: the minuend ``A1`` (sequential; semi-functionalised for the
            common variables internally if needed).
        second: the subtrahend ``A2``; must be synchronized for the common
            variables unless ``require_synchronized=False``.
        document: the document the result is valid for.
        require_synchronized: when True (default), raise
            :class:`NotSynchronizedError` if ``A2`` is not synchronized
            for the effective common variables — without that property the
            polynomial size bound is forfeit (the construction stays
            correct).
        stats: optional accumulator for the E8 ablation measurements.
    """
    prepared = PreparedSyncDifference(first, second, require_synchronized)
    return prepared.compile(document, stats)


def _component_difference(
    component: FactorizedVA,
    used: frozenset[Variable],
    graph2: MatchGraph,
    doc: Document,
    stats: SyncDifferenceStats | None,
) -> VA | None:
    """The ad-hoc automaton for one used-set component of the minuend."""
    graph1 = MatchGraph(component, doc)
    if graph1.is_empty:
        return None
    n = len(doc)

    def constrained(ops: OpSet) -> OpSet:
        return frozenset(op for op in ops if op.var in used)

    builder = _ProductBuilder()
    accept: State = ("acc",)
    accepting_used = False
    initial_tracked: frozenset[State] = frozenset((graph2.factorized.va.initial,))
    initial: State = (0, graph1.factorized.va.initial, initial_tracked)
    seen: set[State] = {initial}
    stack: list[State] = [initial]
    while stack:
        node = stack.pop()
        layer, q1, tracked = node
        if stats is not None:
            stats.observe_set(len(tracked))
            stats.product_nodes += 1
        if layer == n:
            for ops1 in graph1.final_opsets.get(q1, frozenset()):
                key = constrained(ops1)
                blocked = any(
                    constrained(ops2) == key
                    for q2 in tracked
                    for ops2 in graph2.final_opsets.get(q2, frozenset())
                )
                if not blocked:
                    builder.chain(node, ops1, None, accept)
                    accepting_used = True
            continue
        options2 = graph2.successor_options(layer, tracked) if tracked else {}
        for ops1, targets1 in graph1.edges[layer].get(q1, {}).items():
            key = constrained(ops1)
            next_tracked = frozenset(
                t
                for ops2, targets2 in options2.items()
                if constrained(ops2) == key
                for t in targets2
            )
            letter = doc.letter(layer + 1)
            for r1 in targets1:
                target: State = (layer + 1, r1, next_tracked)
                builder.chain(node, ops1, letter, target)
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    if not accepting_used:
        return None
    return trim(VA(initial, (accept,), builder.transitions))
