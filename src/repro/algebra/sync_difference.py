"""Difference against a synchronized subtrahend (Theorem 4.8 / Cor. 4.9).

Bounding the number of common variables (Lemma 4.2) is one route to a
tractable difference; this module implements the other: ``A1 \\ A2`` with
**unboundedly many** common variables X, provided ``A1`` is semi-functional
for X and ``A2`` is synchronized for X.

Construction (following Appendix B.5, with one deviation: step 3 tracks a
*set* of subtrahend states where the paper determinises, see below).
Step 1 is document independent and runs once, when a
:class:`PreparedSyncDifference` is built; steps 2–4 run per document, in
:meth:`PreparedSyncDifference.compile_layered`:

1. Check both operands sequential.  Project ``A2`` onto X and trim.
   Synchronizedness makes every variable either used on all accepting
   runs or on none; never-used variables are dropped from X (they cannot
   constrain compatibility), after which the subtrahend is *functional*
   over the effective common set (:func:`synchronized_subtrahend`).
   Decompose ``A1`` by the exact subset ``Y`` of common variables its runs
   use.  Index the subtrahend and every component
   (:class:`~repro.va.indexed.IndexedVA`, cached on their automata), and
   restrict every operation set id to each ``Y`` once.
2. Run the indexed match graphs of the subtrahend and of each component
   on the document.
3. For each component, sweep the document once, layer by layer, tracking
   the pairs ``(q1, T)`` where ``q1`` is an A1-state and ``T`` the **set**
   (a bitmask) of A2 match-graph states reachable under operation sets
   that agree with A1's on ``Γ_Y`` (operations on skipped variables are
   unconstrained — a compatible subtrahend mapping may place them
   anywhere).
4. Accept exactly when no consistent A2 acceptance exists — then, and only
   then, the A1 mapping survives the difference.

The sweep emits its pairs directly in the dense form the engine runs, a
:class:`~repro.va.indexed.LayeredIndexedVA`: per-layer node masks,
per-node ``(opset id, target mask)`` rows and final opset ids, with every
component under one root node.  No :class:`VA` is built per document
unless a caller asks for one (:meth:`PreparedSyncDifference.compile`, or a
plan node that composes automata).

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
from typing import NamedTuple

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError, NotSynchronizedError
from ..core.mapping import Variable
from ..utils.bits import iter_bits
from ..va.automaton import VA
from ..va.indexed import IndexedMatchGraph, IndexedVA, LayeredIndexedVA
from ..va.matchgraph import OpSet
from ..va.matchstruct import never_used_variables
from ..va.operations import empty_va, project_va, trim
from ..va.properties import is_functional, is_sequential, is_synchronized_for
from .join import used_set_components


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


class _Component(NamedTuple):
    """One used-set component of the minuend, with its operation set ids
    mapped for the sweep once, up front."""

    indexed: IndexedVA
    #: ``key[oid]``: the id of the component opset's restriction to ``Y``.
    key: tuple[int, ...]
    #: ``subtrahend_key[oid]``: the same for the subtrahend's opsets.
    subtrahend_key: tuple[int, ...]
    #: ``out[oid]``: the component opset's id in the product's opsets.
    out: tuple[int, ...]


class PreparedSyncDifference:
    """The document-independent half of Theorem 4.8 for ``A1 \\ A2``
    (construction step 1); :meth:`compile_layered` runs steps 2–4 on a
    document.

    Building one checks both operands sequential, analyses the subtrahend
    (:func:`synchronized_subtrahend`) and splits the minuend into its
    used-set components.  The indexed forms of the subtrahend and of each
    component are kept, so their tables serve every document this object
    compiles, and so do the operation set ids the sweep reads.

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

    __slots__ = (
        "_first",
        "_effective",
        "_subtrahend",
        "_components",
        "_opsets",
        "_empty",
    )

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
        self._subtrahend: IndexedVA | None = None
        self._components: tuple[_Component, ...] = ()
        #: The product's operation sets by id, shared by every form built.
        self._opsets: list[OpSet] = []
        self._empty = empty_va()
        if analysis is None:
            return
        self._effective, subtrahend = analysis
        self._subtrahend = subtrahend.indexed()
        if not self._effective:
            return
        out_ids: dict[OpSet, int] = {}
        components = []
        for used, component in used_set_components(self._first, self._effective).items():
            indexed = component.indexed()
            keys: dict[OpSet, int] = {}

            def key(ops: OpSet) -> int:
                restricted = frozenset(op for op in ops if op.var in used)
                return keys.setdefault(restricted, len(keys))

            components.append(
                _Component(
                    indexed,
                    tuple(map(key, indexed.opsets)),
                    tuple(map(key, self._subtrahend.opsets)),
                    tuple(out_ids.setdefault(ops, len(out_ids)) for ops in indexed.opsets),
                )
            )
        self._components = tuple(components)
        self._opsets = list(out_ids)

    def compile_layered(
        self, document: Document | str, stats: SyncDifferenceStats | None = None
    ) -> "LayeredIndexedVA | VA":
        """``⟦A1 \\ A2⟧(d)`` for ``document``, as the dense form the engine
        runs.

        The form is the product of steps 2–4.  Where the answer needs no
        product, the result is instead an automaton this object keeps, the
        same one for every document: the minuend, when the subtrahend
        extracts nothing from the document (or nothing at all), and the
        empty spanner when a Boolean subtrahend accepts it.

        Args:
            stats: optional accumulator for the E8 ablation measurements.
        """
        doc = as_document(document)
        if self._subtrahend is None:
            return self._first  # the subtrahend is the empty spanner
        if stats is not None:
            stats.effective_common = self._effective
        run2 = IndexedMatchGraph(self._subtrahend, doc)
        if run2.is_empty:
            return self._first  # the subtrahend extracts nothing from this document
        if not self._effective:
            # Boolean subtrahend that accepts d: its empty mapping is
            # compatible with everything.
            return self._empty
        if stats is not None:
            stats.components = len(self._components)
        tables: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in doc.text]
        accept: list[tuple[int, ...]] = []
        # Every component's initial pair is the root, node 0 of layer 0.
        root_row: dict[int, int] = {}
        root_accept: dict[int, None] = {}
        for component in self._components:
            run1 = IndexedMatchGraph(component.indexed, doc)
            if not run1.is_empty:
                _sweep(component, run1, run2, tables, accept, root_row, root_accept, stats)
        if tables:
            tables[0].append(tuple(root_row.items()))
        else:
            accept.append(tuple(root_accept))
        return LayeredIndexedVA(doc, self._opsets, tables, accept)

    def compile(
        self, document: Document | str, stats: SyncDifferenceStats | None = None
    ) -> VA:
        """An ad-hoc sequential VA ``Ad`` with ``⟦Ad⟧(d) = ⟦A1 \\ A2⟧(d)``
        for ``document``: :meth:`compile_layered`'s result as a VA.

        Args:
            stats: optional accumulator for the E8 ablation measurements.
        """
        result = self.compile_layered(document, stats)
        return result if isinstance(result, VA) else result.va


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


def _sweep(
    component: _Component,
    run1: IndexedMatchGraph,
    run2: IndexedMatchGraph,
    tables: list[list[tuple[tuple[int, int], ...]]],
    accept: list[tuple[int, ...]],
    root_row: dict[int, int],
    root_accept: dict[int, None],
    stats: SyncDifferenceStats | None,
) -> None:
    """Step 3 for one component: add its pairs ``(q1, T)`` to the product,
    layer by layer, as nodes with their rows (appended to ``tables``) and,
    at the last layer, their accepting opset ids (appended to ``accept``).

    A layer's pairs become its next node ids in discovery order, after the
    nodes earlier components left there.  The initial pair is the root,
    whose row and accepting opsets collect into ``root_row`` and
    ``root_accept``.  ``T``'s options are grouped by restricted opset once
    per layer and tracked set.  Both runs' edge rows are read inline from
    their tables, pruned to the live states of the next layer, as
    :meth:`IndexedMatchGraph.edge_row` would build them."""
    n = len(tables)
    key1, key2, out = component.key, component.subtrahend_key, component.out
    tables1, ids1, alive1 = run1.indexed.tables, run1.letter_ids, run1.alive
    tables2, ids2, alive2 = run2.indexed.tables, run2.letter_ids, run2.alive
    frontier: dict[tuple[int, int], int] = {
        (run1.indexed.initial_id, 1 << run2.indexed.initial_id): 0
    }
    for layer in range(n):
        if stats is not None:
            _observe(stats, frontier)
        table1, live1 = tables1[ids1[layer]], alive1[layer + 1]
        table2, live2 = tables2[ids2[layer]], alive2[layer + 1]
        following: dict[tuple[int, int], int] = {}
        next_id = len(tables[layer + 1]) if layer + 1 < n else len(accept)
        by_tracked: dict[int, dict[int, int]] = {}
        for q1, tracked in frontier:  # in id order, so rows append at their ids
            options = by_tracked.get(tracked)
            if options is None:
                options = by_tracked[tracked] = {}
                for q2 in iter_bits(tracked):
                    for oid, targets2 in table2[q2]:
                        targets2 &= live2
                        if targets2:
                            key = key2[oid]
                            options[key] = options.get(key, 0) | targets2
            row = []
            for oid, targets1 in table1[q1]:
                targets1 &= live1
                if not targets1:
                    continue
                next_tracked = options.get(key1[oid], 0)
                targets = 0
                while targets1:
                    low = targets1 & -targets1
                    targets1 ^= low
                    pair = (low.bit_length() - 1, next_tracked)
                    target = following.get(pair)
                    if target is None:
                        target = following[pair] = next_id
                        next_id += 1
                    targets |= 1 << target
                row.append((out[oid], targets))
            if layer:
                tables[layer].append(tuple(row))
            else:
                for oid, targets in row:
                    root_row[oid] = root_row.get(oid, 0) | targets
        frontier = following
    if stats is not None:
        _observe(stats, frontier)
    final1, final2 = run1.final, run2.final
    blocked_by: dict[int, set[int]] = {}
    for q1, tracked in frontier:
        blocked = blocked_by.get(tracked)
        if blocked is None:
            blocked = blocked_by[tracked] = {
                key2[oid] for q2 in iter_bits(tracked) for oid in final2.get(q2, ())
            }
        survivors = [out[oid] for oid in final1.get(q1, ()) if key1[oid] not in blocked]
        if n:
            accept.append(tuple(survivors))
        else:
            root_accept.update(dict.fromkeys(survivors))


def _observe(stats: SyncDifferenceStats, frontier: "dict[tuple[int, int], int]") -> None:
    stats.product_nodes += len(frontier)
    for _, tracked in frontier:
        stats.observe_set(tracked.bit_count())
