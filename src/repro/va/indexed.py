"""Dense-indexed evaluation substrate (the engine's backend).

:class:`~repro.va.matchgraph.FactorizedVA` keeps states as arbitrary
hashable objects and macro transitions as per-state dictionaries — flexible,
but the match-graph hot loop then spends its time hashing tuples and
chasing dictionaries.  :class:`IndexedVA` relabels the states of a trimmed
sequential VA to dense integers ``0..n-1`` (BFS order from the initial
state), interns its letters into a dense :class:`~repro.core.document.Alphabet`,
interns every operation set to a small integer, and precomputes, for every
(letter id, state) pair, the grouped macro transitions as tuples of
``(opset_id, target_bitmask)`` plus an *aggregate successor mask* (the union
of all targets, ignoring operation sets).

State *sets* are then Python integers used as bitsets, and documents are
arrays of letter ids (cached on the :class:`~repro.core.document.Document`
per alphabet), so the forward pass is array indexing and ``|``/``&`` on
machine words instead of string hashing and frozenset algebra.

:class:`IndexedMatchGraph` is *lazy* (streaming): construction runs only a
cheap Boolean forward pass — enough to decide emptiness (Theorem 2.5's
linear preprocessing).  The pass takes one of two walks through the
automaton's shared :class:`~repro.va.kernel.TransitionKernel`, chosen per
document by :func:`~repro.va.kernel.run_walk_runs`, which builds the
run-length encoding (:meth:`~repro.core.document.Document.runs`) only
for the documents that take the run walk:

* the **run walk** (documents of long runs, and the empty document)
  advances each maximal single-letter run in O(log run) memoized mask
  applications, so construction scales with the number of *runs*; the
  per-layer forward masks expand on demand, and the backward pass reuses
  the kernel's predecessor transformers with fixpoint fill inside runs;
* the **letter walk** (text, where the mean run is short) steps the
  kernel's interned frontier nodes, one list index per letter, and keeps
  only the final frontier; the per-layer forward masks and the backward
  co-reachability nodes are walked the same way on demand, and each live
  layer is one ``&`` of the two.

The per-(layer, state) enumeration edge rows materialise on demand on
both walks.  The enumeration DFS additionally *skips* quiet stretches: a
state is quiet at a layer when its only live option there is its
empty-opset self-loop, which is what a character class under a star
(``.*``, ``[0-9]*``) compiles to, and a profile of quiet states jumps in
one step, across letters, to the first layer where one of them stops
being quiet.  Each state finds the end of a stretch once, for every
later entry to reuse, so a no-capture stretch costs one stack frame per
path.  A star over a union of letters such as ``(a|b)*`` compiles to one
state per letter, quiet only inside a run of its own letter; the DFS
crosses its stretches with a second skip, an index from each forced
frame to the end of its stretch, which the first path through a stretch
builds and every later path hops along.  :meth:`IndexedMatchGraph.first`
is a greedy walk: on the letter walk it prunes against the
co-reachability nodes and memoizes its choices in the kernel, across
documents; otherwise it reads the live layers, with the quiet skip.  A
tail session's re-evaluation instead walks back from the final layer
over the forward masks alone (:meth:`IndexedMatchGraph.enumerate_since`),
pruned at the previous run's length; :meth:`IndexedMatchGraph.extended`
keeps the walk of the graph it extends.  Semantics are identical on
both walks — the equivalence tests in ``tests/engine`` force each walk
and check them against each other and against the naive enumerator.

:class:`IndexedVA` is document independent and safe to share across
documents; :meth:`VA.indexed` caches one per automaton.
:class:`LayeredIndexedVA` is the same dense form for an automaton built
for one document, whose states are pinned to that document's layers
(Theorem 4.8's per-document product): its layers *are* the forward pass,
so :class:`IndexedMatchGraph` takes them as given instead of walking,
and it has no kernel.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Iterator

from ..core.document import Alphabet, Document, as_document
from ..core.errors import NotSequentialError, SpannerError
from ..core.mapping import Mapping, Variable
from ..core.spans import Span
from ..utils.bits import apply_masks, iter_bits
from .automaton import VA, State, Transition
from .kernel import TransitionKernel, run_walk_runs
from .matchgraph import (
    FactorizedVA,
    OpSet,
    opset_sort_key,
)
from .operations import trim
from .properties import is_sequential


class IndexedVA:
    """Document-independent indexed form of a (sequential) VA.

    Attributes:
        factorized: the underlying factorization (shares closure caches).
        n_states: number of live states after trimming.
        initial_id: dense id of the initial state (always 0).
        alphabet: the interned :class:`Alphabet` of the automaton's letters.
        opsets: interned operation sets; index = opset id.
        empty_opset_id: the id of the empty operation set, or ``-1`` when
            every macro transition performs at least one operation.
        tables: ``tables[letter_id][state_id]`` is a tuple of
            ``(opset_id, target_bitmask)`` macro transitions, canonically
            ordered.
        successor_masks: ``successor_masks[letter_id][state_id]`` is the
            union of the target bitmasks of ``tables[letter_id][state_id]``
            — the Boolean (operation-blind) transition relation the lazy
            match graph's forward/backward passes run on.
        quiet_masks: ``quiet_masks[letter_id]`` is the bitmask of states
            that have a self-transition on the letter and whose
            self-transitions on it all carry the empty operation set — the
            states the enumeration walks may skip with (see
            :meth:`IndexedMatchGraph.enumerate`).
        star_mask: the union of :attr:`quiet_masks`, the *star states*:
            those with a quiet self-loop on some letter, which is what a
            star compiles to.  Only profiles of star states can start a
            forced stretch of the enumeration DFS.
        accept: ``accept[state_id]`` is the tuple of accepting opset ids,
            canonically ordered.
        accept_mask: bitmask of states with at least one accepting opset.
        accept_by_opset: ``accept_by_opset[opset_id]`` is the bitmask of
            states that accept with that operation set.
        layers: always ``None``: the form serves every document (see
            :class:`LayeredIndexedVA`).
    """

    layers: "list[int] | None" = None

    def __init__(self, va: VA, factorized: FactorizedVA | None = None):
        if factorized is None:
            factorized = FactorizedVA(va)
        self.factorized = factorized
        tva = factorized.va  # trimmed
        order: dict[State, int] = {tva.initial: 0}
        queue = deque((tva.initial,))
        while queue:
            state = queue.popleft()
            for _, target in tva.transitions_from(state):
                if target not in order:
                    order[target] = len(order)
                    queue.append(target)
        # Trimming keeps only reachable states, so `order` covers them all.
        self.n_states = len(order)
        self.initial_id = 0
        self.alphabet = Alphabet.of(tva.letters())
        self.opsets: list[OpSet] = []
        opset_ids: dict[OpSet, int] = {}

        def intern(ops: OpSet) -> int:
            found = opset_ids.get(ops)
            if found is None:
                found = opset_ids[ops] = len(self.opsets)
                self.opsets.append(ops)
            return found

        states_by_id = sorted(order, key=order.__getitem__)
        opsets = self.opsets
        n_letters = len(self.alphabet)
        tables: list[list[tuple[tuple[int, int], ...]]] = [
            [()] * self.n_states for _ in range(n_letters)
        ]
        successor_masks: list[list[int]] = [
            [0] * self.n_states for _ in range(n_letters)
        ]
        quiet_masks = [0] * n_letters
        accept: list[tuple[int, ...]] = [()] * self.n_states
        accept_mask = 0
        letter_id = self.alphabet.ids.__getitem__
        for state, sid in order.items():
            bit = 1 << sid
            grouped: dict[int, dict[int, int]] = {}
            for ops, mid in factorized.closure(state):
                for label, target in tva.transitions_from(mid):
                    if isinstance(label, str):
                        per_ops = grouped.setdefault(letter_id(label), {})
                        oid = intern(ops)
                        per_ops[oid] = per_ops.get(oid, 0) | (1 << order[target])
            for lid, per_ops in grouped.items():
                entries = tuple(
                    sorted(per_ops.items(), key=lambda kv: opset_sort_key(self.opsets[kv[0]]))
                )
                tables[lid][sid] = entries
                mask = 0
                loud = False
                for oid, target_mask in entries:
                    mask |= target_mask
                    if target_mask & bit and opsets[oid]:
                        loud = True  # a self-loop that performs operations
                successor_masks[lid][sid] = mask
                if mask & bit and not loud:
                    quiet_masks[lid] |= bit
            accept[sid] = tuple(
                sorted(
                    (intern(ops) for ops in factorized.accepting_opsets(state)),
                    key=lambda oid: opset_sort_key(self.opsets[oid]),
                )
            )
            if accept[sid]:
                accept_mask |= 1 << sid
        self.tables = tables
        self.successor_masks = successor_masks
        self.quiet_masks = quiet_masks
        self.star_mask = 0
        for mask in quiet_masks:
            self.star_mask |= mask
        self.accept = accept
        self.accept_mask = accept_mask
        self.accept_by_opset = [0] * len(self.opsets)
        for sid, oids in enumerate(accept):
            for oid in oids:
                self.accept_by_opset[oid] |= 1 << sid
        self.states_by_id = tuple(states_by_id)
        # Canonical enumeration rank per opset id (ids are interned in
        # discovery order, which is not the canonical order).
        self.opset_rank, self.empty_opset_id = _canonical_ranks(self.opsets)
        self._kernel: TransitionKernel | None = None

    @property
    def va(self) -> VA:
        """The trimmed automaton this form indexes."""
        return self.factorized.va

    def kernel(self) -> TransitionKernel:
        """The transition kernel over this automaton
        (:mod:`repro.va.kernel`), built once and cached.  Its memoized
        ``(letter, 2^k)`` power transformers, interned frontier nodes and
        ``first()`` memo are shared by every document evaluated through
        this indexed form."""
        if self._kernel is None:
            self._kernel = TransitionKernel(self)
        return self._kernel

    def __getstate__(self) -> dict:
        # The kernel is a cache, and its interned nodes link into chains
        # deeper than pickle's recursion limit: a copy, such as a
        # worker's, starts a kernel of its own.
        state = self.__dict__.copy()
        state["_kernel"] = None
        return state

    def predecessor_rows(self) -> "list[list[tuple[tuple[int, int], ...]]]":
        """The macro transitions inverted: ``rows[letter_id][state_id]`` is
        a tuple of ``(opset_id, source_mask)`` pairs, the states that reach
        ``state_id`` by performing that operation set and reading that
        letter.  :meth:`IndexedMatchGraph.enumerate_since` walks back over
        them.  Built once and cached (document independent)."""
        rows = getattr(self, "_predecessor_rows", None)
        if rows is None:
            rows = self._predecessor_rows = [
                _inverted(table, self.n_states) for table in self.tables
            ]
        return rows

    def __repr__(self) -> str:
        return (
            f"IndexedVA(states={self.n_states}, opsets={len(self.opsets)}, "
            f"letters={len(self.alphabet)})"
        )


def _inverted(
    table: "list[tuple[tuple[int, int], ...]]", width: int
) -> "list[tuple[tuple[int, int], ...]]":
    """One table of ``(opset_id, target_mask)`` rows inverted: for each of
    the ``width`` targets, the ``(opset_id, source_mask)`` pairs of the
    rows that reach it."""
    per_target: list[dict[int, int]] = [{} for _ in range(width)]
    for source, row in enumerate(table):
        bit = 1 << source
        for oid, target_mask in row:
            for target in iter_bits(target_mask):
                sources = per_target[target]
                sources[oid] = sources.get(oid, 0) | bit
    return [tuple(sources.items()) for sources in per_target]


def _canonical_ranks(opsets: "list[OpSet]") -> "tuple[list[int], int]":
    """Per-opset canonical enumeration ranks, and the id of the empty
    operation set (``-1`` when absent)."""
    rank = [0] * len(opsets)
    ordered = sorted(range(len(opsets)), key=lambda oid: opset_sort_key(opsets[oid]))
    for position, oid in enumerate(ordered):
        rank[oid] = position
    empty = next((oid for oid, ops in enumerate(opsets) if not ops), -1)
    return rank, empty


class LayeredIndexedVA:
    """The dense indexed form of an automaton built for one document,
    whose states are pinned to the document's layers.

    Theorem 4.8's per-document product
    (:meth:`~repro.algebra.sync_difference.PreparedSyncDifference.compile_layered`)
    emits this form directly, and the engine runs it through
    :class:`IndexedMatchGraph` with no :class:`VA` in between.  It offers
    the attributes of :class:`IndexedVA` the match graph reads, with one
    twist: its tables are indexed by layer where :class:`IndexedVA`'s are
    indexed by letter.  A node's macro transitions are read only at its own
    layer, under that layer's letter, so the layer stands in for the letter
    (:attr:`letter_ids` is ``range(n)``) and the tables stay O(nodes)
    instead of O(|Σ|·nodes).  Node ids are local to their layer, so no
    state mask is wider than one layer.  No node has a self-loop, so none
    is quiet or a star state, and the kernel's run walk never applies.
    Dead nodes are kept; the match graph's backward pass prunes them.

    Attributes:
        document: the document the form is built for, and the only one it
            evaluates.
        tables: ``tables[i][node]`` is a tuple of ``(opset_id,
            target_mask)`` macro transitions from a node of layer ``i`` into
            layer ``i + 1``; an opset id may repeat.  Node 0 is layer 0's
            only node.
        successor_masks: ``successor_masks[i][node]`` is the union of
            ``tables[i][node]``'s target masks.
        accept: ``accept[node]`` is the tuple of accepting opset ids of a
            last-layer node.
        layers: ``layers[i]`` is the bitmask of all nodes of layer ``i``,
            each forward reachable; the match graph takes them as its
            forward layers.
        opsets: operation sets by id, as in :class:`IndexedVA`; the list
            may be shared with other forms.
        n_states: the number of nodes over all layers.
    """

    initial_id = 0

    def __init__(
        self,
        document: Document,
        opsets: "list[OpSet]",
        tables: "list[list[tuple[tuple[int, int], ...]]]",
        accept: "list[tuple[int, ...]]",
        successor_masks: "list[list[int]] | None" = None,
    ):
        self.document = document
        self.opsets = opsets
        self.tables = tables
        self.accept = accept
        self.layers = [(1 << len(rows)) - 1 for rows in tables]
        self.layers.append((1 << len(accept)) - 1)
        self.n_states = sum(map(len, tables)) + len(accept)
        if successor_masks is None:
            successor_masks = []
            for rows in tables:
                masks = []
                for row in rows:
                    mask = 0
                    for _, target_mask in row:
                        mask |= target_mask
                    masks.append(mask)
                successor_masks.append(masks)
        self.successor_masks = successor_masks
        self.letter_ids = range(len(tables))
        self.quiet_masks = [0] * len(tables)
        self.star_mask = 0
        self.opset_rank, self.empty_opset_id = _canonical_ranks(opsets)
        accept_mask = 0
        accept_by_opset = [0] * len(opsets)
        for node, oids in enumerate(accept):
            bit = 1 << node
            for oid in oids:
                accept_mask |= bit
                accept_by_opset[oid] |= bit
        self.accept_mask = accept_mask
        self.accept_by_opset = accept_by_opset
        self._predecessor_rows: "list | None" = None
        self._va: VA | None = None

    def projected(self, keep: "frozenset[Variable]") -> "LayeredIndexedVA":
        """``π_keep`` of this form: every operation set restricted to the
        variables of ``keep`` and re-interned, so operation sets that
        become equal share one id.  The successor masks are shared with
        this form."""
        ids: dict[OpSet, int] = {}
        opsets: list[OpSet] = []
        remap: list[int] = []
        for ops in self.opsets:
            kept = frozenset(op for op in ops if op.var in keep)
            oid = ids.get(kept)
            if oid is None:
                oid = ids[kept] = len(opsets)
                opsets.append(kept)
            remap.append(oid)
        tables = [
            [tuple([(remap[oid], target_mask) for oid, target_mask in row]) for row in rows]
            for rows in self.tables
        ]
        accept = [tuple(dict.fromkeys(remap[oid] for oid in oids)) for oids in self.accept]
        return LayeredIndexedVA(
            self.document, opsets, tables, accept, successor_masks=self.successor_masks
        )

    def is_sequential(self) -> bool:
        """Whether every run of the form is valid (§2.3): no variable is
        opened twice, closed while not open, or left open at acceptance.

        One forward pass over the layers, tracking for each reachable
        status — the variables opened so far and those closed — the mask
        of the nodes reached with it.  Each status steps every opset id
        once, into a table the pass indexes.  Dead nodes are checked too,
        which is stricter than sequentiality only on branches that cannot
        accept."""
        bits: dict[Variable, int] = {}
        effects: list[tuple[int, int]] = []
        for ops in self.opsets:
            opens = closes = 0
            for op in ops:
                bit = bits.setdefault(op.var, 1 << len(bits))
                if op.is_open:
                    opens |= bit
                else:
                    closes |= bit
            effects.append((opens, closes))
        # A status is ``opened | closed << width``; ``after(status)[oid]``
        # is the status past that opset, or -1 when the opset is invalid.
        width = len(bits)
        full = (1 << width) - 1
        steps: dict[int, list[int]] = {}

        def after(status: int) -> list[int]:
            table = steps.get(status)
            if table is None:
                opened, closed = status & full, status >> width
                table = steps[status] = [
                    -1
                    if opens & opened or closes & (closed | ~(opened | opens))
                    else (opened | opens) | (closed | closes) << width
                    for opens, closes in effects
                ]
            return table

        reached: dict[int, int] = {0: self.layers[0]}
        for rows in self.tables:
            following: dict[int, int] = {}
            for status, mask in reached.items():
                table = after(status)
                while mask:
                    low = mask & -mask
                    mask ^= low
                    for oid, target_mask in rows[low.bit_length() - 1]:
                        step = table[oid]
                        if step < 0:
                            return False
                        following[step] = following.get(step, 0) | target_mask
            reached = following
        for status, mask in reached.items():
            table = after(status)
            for node in iter_bits(mask & self.accept_mask):
                for oid in self.accept[node]:
                    step = table[oid]
                    if step < 0 or step & full != step >> width:
                        return False
        return True

    def predecessor_rows(self) -> "list[list[tuple[tuple[int, int], ...]]]":
        """The tables inverted, as :meth:`IndexedVA.predecessor_rows`:
        ``rows[i][node]`` lists the ``(opset_id, source_mask)`` pairs of the
        layer-``i`` nodes that reach ``node`` of layer ``i + 1``.  Built
        once and cached."""
        if self._predecessor_rows is None:
            self._predecessor_rows = [
                _inverted(rows, self.layers[layer + 1].bit_length())
                for layer, rows in enumerate(self.tables)
            ]
        return self._predecessor_rows

    @property
    def va(self) -> VA:
        """An equivalent trimmed, sequential :class:`VA`, built on first
        use for callers that compose automata: the node of layer ``i``
        numbered ``k`` becomes state ``(i, k)``, and each macro transition a
        chain performing its operations, opens before closes, then reading
        the layer's letter."""
        if self._va is None:
            text = self.document.text
            fresh = count()
            transitions: list[Transition] = []

            def chain(source: State, ops: OpSet) -> State:
                for op in sorted(ops, key=lambda op: (not op.is_open, op.var)):
                    target = ("op", next(fresh))
                    transitions.append((source, op, target))
                    source = target
                return source

            for layer, rows in enumerate(self.tables):
                for node, row in enumerate(rows):
                    for oid, target_mask in row:
                        end = chain((layer, node), self.opsets[oid])
                        transitions.extend(
                            (end, text[layer], (layer + 1, target))
                            for target in iter_bits(target_mask)
                        )
            last = len(self.tables)
            accepting = [
                chain((last, node), self.opsets[oid])
                for node, oids in enumerate(self.accept)
                for oid in oids
            ]
            self._va = trim(VA((0, 0), accepting, transitions))
        return self._va

    def __repr__(self) -> str:
        return (
            f"LayeredIndexedVA(states={self.n_states}, opsets={len(self.opsets)}, "
            f"layers={len(self.layers)})"
        )


def indexed_nonempty(
    indexed: "IndexedVA | LayeredIndexedVA", document: Document | str, guard=None
) -> bool:
    """Decide ``⟦A⟧(d) ≠ ∅`` with the Boolean forward pass alone — no
    edge rows, no backward pruning — on the walk
    :func:`~repro.va.kernel.run_walk_runs` picks for the document, through
    the shared :class:`~repro.va.kernel.TransitionKernel`: the run walk
    advances over its run-length encoding in O(runs · log run) and stops
    once the frontier dies, the letter walk steps one interned node per
    letter (:meth:`~repro.va.kernel.TransitionKernel.frontier`).  An
    :class:`~repro.engine.guards.ExecutionGuard` is checked once per run
    on the run walk, and once per ~4k letters on the letter walk.  A
    :class:`LayeredIndexedVA`'s layers are that pass already, so it
    answers from its last layer.
    """
    doc = as_document(document)
    if indexed.layers is not None:
        return not IndexedMatchGraph(indexed, doc, guard=guard).is_empty
    kernel = indexed.kernel()
    runs = run_walk_runs(doc)
    mask = 1 << indexed.initial_id
    if runs is not None:
        runs = _encoded_runs(runs, indexed.alphabet)
        mask = _advance_runs(kernel, runs, mask, guard)
    else:
        mask = kernel.frontier(doc.encoded(indexed.alphabet), mask, guard)
    return bool(mask & indexed.accept_mask)


def _mapping_from_entries(entries: "list[tuple[int, OpSet]]") -> Mapping:
    """Assemble a mapping from sparse ``(position, operation set)`` pairs
    in ascending position order — the skipping walks only record the
    positions that actually perform operations, so reconstruction costs
    O(operations) instead of O(document).  Equivalent to
    :func:`~repro.va.matchgraph.mapping_from_opsets` on the padded list
    (the input comes from valid runs of a sequential VA, so the
    caller-error checks there cannot fire here)."""
    opened: dict = {}
    spans: dict = {}
    for position, ops in entries:
        for op in ops:
            if op.is_open:
                opened[op.var] = position
        for op in ops:
            if not op.is_open:
                spans[op.var] = Span(opened.pop(op.var), position)
    return Mapping(spans)


def _encoded_runs(runs, alphabet: Alphabet):
    """The maximal-run view with letters replaced by dense ids (-1 when
    the letter is unknown to the alphabet)."""
    ids = alphabet.ids
    return (
        (ids.get(letter, -1), start, length) for letter, start, length in runs
    )


def _advance_runs(kernel, runs, mask: int, guard) -> int:
    """The run walk: the frontier after the encoded ``runs``, started at
    ``mask``, each run advanced through ``kernel``, the automaton's
    :class:`~repro.va.kernel.TransitionKernel`, with one guard check per
    run (``0`` once nothing survives, or at a letter unknown to the
    VA)."""
    for lid, _start, length in runs:
        if guard is not None:
            guard.check()
        if lid < 0:
            return 0
        mask = kernel.advance(lid, mask, length)
        if not mask:
            return 0
    return mask


def _expand_runs(succ, forward, runs, mask, begin: int, guard) -> int:
    """Fill ``forward[begin + 1:]`` from ``mask`` at layer ``begin``, walking
    the encoded ``runs`` (those after the run holding layer ``begin``
    start past it), and return the last layer's mask (``0`` once nothing
    survives).  Inside a run, once the mask hits a fixpoint the rest of
    the run is a slice fill."""
    for lid, start, length in runs:
        if guard is not None:
            guard.check()
        if lid < 0 or not mask:
            return 0
        row = succ[lid]
        end = start + length
        i = start
        if i < begin:
            i = begin
        while i < end:
            nxt = apply_masks(row, mask)
            if not nxt:
                return 0
            i += 1
            forward[i] = nxt
            if nxt == mask:
                # Fixpoint: the rest of the run repeats this mask.
                forward[i + 1 : end + 1] = [nxt] * (end - i)
                i = end
            mask = nxt
    return mask


class IndexedMatchGraph:
    """The layered match graph of an :class:`IndexedVA` on one document,
    with layers as state bitmasks — built *lazily*.

    Construction runs only the Boolean forward pass, which already
    decides :attr:`is_empty`, on the walk
    :func:`~repro.va.kernel.run_walk_runs` picks for the document, through
    the automaton's shared :class:`~repro.va.kernel.TransitionKernel`:
    the run walk advances each letter run, the letter walk steps one
    interned frontier node per letter; both keep only the final frontier.
    The per-layer forward masks materialise on first access to
    :attr:`forward` (run interiors with fixpoint fill, or one node step
    per letter), the backward pruning pass on first access to
    :attr:`alive`, and enumeration edge rows per (layer, state) as the DFS
    reaches them.  A :class:`LayeredIndexedVA` walks nothing: its layers
    are the forward masks, it has no kernel, and its layers stand in for
    the document's letter ids.

    ``guard`` attaches an :class:`~repro.engine.guards.ExecutionGuard`:
    the run walk's forward/backward passes check it once per letter run
    (O(runs) overhead, not O(positions)), the letter walk's construction
    checks it once per ~4k letters and its per-layer walks once up front
    and then tick it per letter, the enumeration DFS ticks it per stack
    frame, and every materialised edge row is charged against the
    ``edge_rows`` budget.  A guarded letter-walk construction checks the
    shared kernel's cache footprint
    (:meth:`~repro.va.kernel.TransitionKernel.cache_bytes_estimate`)
    against the ``cache_bytes`` budget once, after its forward pass.  With
    no guard every checkpoint is a single ``is not None`` test.
    """

    __slots__ = (
        "indexed",
        "document",
        "final",
        "final_mask",
        "_n",
        "_runs",
        "_kernel",
        "_letter_ids",
        "_forward",
        "_frontier",
        "_alive",
        "_cnodes",
        "_quiet_ends",
        "_edges",
        "_guard",
    )

    def __init__(self, indexed: IndexedVA, document: Document | str, guard=None):
        self.indexed = indexed
        doc = self.document = as_document(document)
        self._guard = guard
        n = self._n = len(doc)
        self._letter_ids: tuple[int, ...] | None = None
        self._forward: list[int] | None = None
        self._alive: list[int] | None = None
        self._cnodes: list[list] | None = None
        self._quiet_ends: list[list[int] | None] | None = None
        self._runs: tuple[tuple[int, int, int], ...] | None = None
        mask = 1 << indexed.initial_id
        if indexed.layers is not None:
            # A per-document form: its layers are the forward pass.
            if doc.text != indexed.document.text:
                raise SpannerError(
                    "a per-document form evaluates only the document it was built for"
                )
            if guard is not None:
                guard.check()
            self._kernel: TransitionKernel | None = None
            self._letter_ids = indexed.letter_ids
            self._forward = indexed.layers
            mask = indexed.layers[n]
        else:
            kernel = self._kernel = indexed.kernel()
            runs = run_walk_runs(doc)
            if runs is not None:
                self._runs = tuple(_encoded_runs(runs, indexed.alphabet))
                mask = _advance_runs(kernel, self._runs, mask, guard)
            else:
                mask = kernel.frontier(self.letter_ids, mask, guard)
                if guard is not None:
                    guard.gauge_cache_bytes(kernel.cache_bytes_estimate())
        # Checkpoint the raw pre-acceptance frontier: an append-extension
        # resumes the forward pass from here instead of position 0.
        self._frontier = mask
        # Acceptance at the last layer.
        final_mask = mask & indexed.accept_mask
        self.final_mask = final_mask
        accept = indexed.accept
        self.final: dict[int, tuple[int, ...]] = {
            sid: accept[sid] for sid in iter_bits(final_mask)
        }
        self._edges: list[dict[int, tuple[tuple[int, int], ...]] | None] = [
            None
        ] * n

    @property
    def is_empty(self) -> bool:
        """Whether ``⟦A⟧(d) = ∅`` — no accepting state is forward-reachable
        at the last layer (decided by the Boolean pass alone)."""
        return not self.final_mask

    @property
    def letter_ids(self) -> tuple[int, ...]:
        """The document as dense letter ids (cached on the document; built
        on demand — the run walk's Boolean pass never needs it)."""
        ids = self._letter_ids
        if ids is None:
            ids = self._letter_ids = self.document.encoded(self.indexed.alphabet)
        return ids

    def checkpoint(self) -> int:
        """The raw forward frontier at the last layer, *before* the
        acceptance intersection — the state :meth:`extended` resumes from.
        Distinct from :attr:`final_mask`: a frontier with no accepting
        state today may reach one after the next append."""
        return self._frontier

    def extended(self, document: Document | str, guard=None) -> "IndexedMatchGraph":
        """The match graph of ``document`` — an append-extension of this
        graph's document — built by resuming the Boolean forward pass from
        the checkpointed frontier instead of position 0.

        The graph is layered by position, so the appended letters only
        extend the frontier: the prefix contributes nothing but its
        checkpoint.  The extension keeps this graph's walk, whatever the
        new document's run profile.  Already-materialised prefix forward
        layers are carried over and the overhang's layers are expanded
        after them (the frontier falls out of that walk), which is all
        :meth:`enumerate_since` needs; otherwise the checkpoint advances
        over the overhang alone, one interned node per letter on the
        letter walk, and on the run walk an appended run that merges with
        the tail run advances through the kernel's memoized transformer
        powers in O(log extra).  The carried layers and the run tuple are
        copied, in C, so an extension also costs O(document) copying.  The
        backward pruning, co-reachability nodes, quiet-stretch memo, and
        enumeration edge rows are *not* carried over — they are pruned
        against the final layer's acceptance, which every append changes
        — and rebuild lazily over the new document on demand.

        ``document`` must extend ``self.document`` letter for letter;
        callers (normally a tail session, via
        :meth:`~repro.core.document.Document.append`) guarantee it, and
        only the lengths are checked — a full prefix comparison would cost
        the O(document) this path exists to avoid.  A
        :class:`LayeredIndexedVA` covers only its own document, so its graph
        extends to that document alone.
        """
        doc = as_document(document)
        old_n = self._n
        n = len(doc)
        if n < old_n:
            raise SpannerError(
                f"extended() needs an append-extension of the graph's "
                f"document ({n} letters < {old_n})"
            )
        indexed = self.indexed
        if indexed.layers is not None:
            return IndexedMatchGraph(indexed, doc, guard=guard)
        graph = IndexedMatchGraph.__new__(IndexedMatchGraph)
        graph.indexed = indexed
        graph.document = doc
        graph._guard = guard
        graph._n = n
        graph._letter_ids = None
        graph._forward = None
        graph._alive = None
        graph._cnodes = None
        graph._quiet_ends = None
        kernel = graph._kernel = self._kernel
        mask = self._frontier
        if self._runs is not None:
            # The run walk: splice the encoded runs (only the possibly
            # merged tail run and the new suffix runs are re-encoded).
            old_runs = self._runs
            keep = max(len(old_runs) - 1, 0)
            overhang = tuple(_encoded_runs(doc.runs()[keep:], indexed.alphabet))
            graph._runs = old_runs[:keep] + overhang
            if self._forward is not None:
                # The prefix layers are expanded: expand the overhang's
                # too, which yields the frontier on the way.
                forward = list(self._forward)
                forward.extend([0] * (n - old_n))
                mask = _expand_runs(
                    indexed.successor_masks, forward, overhang, mask, old_n, guard
                )
                graph._forward = forward
            else:
                # Advance the checkpoint over the overhang.
                for lid, start, length in overhang:
                    if guard is not None:
                        guard.check()
                    end = start + length
                    if end <= old_n or not mask:
                        continue
                    if lid < 0:
                        mask = 0
                        break
                    mask = kernel.advance(lid, mask, end - max(start, old_n))
                    if not mask:
                        break
        else:
            # The letter walk: step the overhang's letters from the
            # checkpoint, filling their layers if the prefix's are built.
            graph._runs = None
            overhang = indexed.alphabet.encode(doc.text[old_n:])
            if self._forward is not None:
                forward = list(self._forward)
                mask = kernel.walk(overhang, mask, forward, guard)
                forward.extend([0] * (n + 1 - len(forward)))
                graph._forward = forward
            else:
                mask = kernel.frontier(overhang, mask, guard)
        graph._frontier = mask
        final_mask = mask & indexed.accept_mask
        graph.final_mask = final_mask
        accept = indexed.accept
        graph.final = {sid: accept[sid] for sid in iter_bits(final_mask)}
        graph._edges = [None] * n
        return graph

    @property
    def forward(self) -> list[int]:
        """Forward-reachable state masks per layer, built on first access.

        The run walk expands run interiors layer by layer, short-cutting
        to a slice fill once a run's frontier hits a fixpoint; the letter
        walk steps one interned node per letter
        (:meth:`~repro.va.kernel.TransitionKernel.walk`)."""
        forward = self._forward
        if forward is None:
            indexed = self.indexed
            start = 1 << indexed.initial_id
            if self._runs is not None:
                forward = [0] * (self._n + 1)
                forward[0] = start
                _expand_runs(
                    indexed.successor_masks, forward, self._runs, start, 0, self._guard
                )
            else:
                forward = [start]
                self._kernel.walk(self.letter_ids, start, forward, self._guard)
                forward.extend([0] * (self._n + 1 - len(forward)))
            self._forward = forward
        return forward

    @property
    def alive(self) -> list[int]:
        """Live (co-reachable ∩ reachable) state masks per layer, from the
        Boolean backward pass (run once, on demand).

        On the run walk the pass walks the run-length encoding with the
        kernel's predecessor transformers, filling whole run interiors
        once the co-reachability chain hits a fixpoint; the letter walk
        intersects the forward layers with interned co-reachability nodes;
        a :class:`LayeredIndexedVA` tests each node's successors against
        the next live layer.  An empty graph never runs the pass at all: a
        full accepting path crosses every layer, so one empty layer means
        all layers are empty."""
        alive = self._alive
        if alive is None:
            n = self._n
            if not self.final_mask:
                alive = [0] * (n + 1)
            elif self._runs is not None:
                alive = self._alive_by_runs()
            elif self._kernel is not None:
                alive = self._alive_by_letters()
            else:
                alive = self._alive_by_layers()
            self._alive = alive
            guard = self._guard
            if (
                guard is not None
                and guard.budget is not None
                and guard.budget.states is not None
            ):
                guard.charge_states(sum(mask.bit_count() for mask in alive))
        return alive

    def _alive_by_runs(self) -> list[int]:
        n = self._n
        forward = self.forward
        kernel = self._kernel
        indexed = self.indexed
        succ, quiet = indexed.successor_masks, indexed.quiet_masks
        alive = [0] * (n + 1)
        # `live` chains M[i] = pred(M[i+1]) ∩ forward[i], which equals the
        # reachable ∩ co-reachable pruning exactly (a live state's path
        # successor is itself live); intersecting every layer keeps the
        # masks small.  Inside a run, once both M and the forward mask are
        # stable the recurrence reproduces itself, so the rest of the
        # stable stretch fills without further mask applications.
        guard = self._guard
        live = alive[n] = self.final_mask
        for lid, start, length in reversed(self._runs):
            if guard is not None:
                guard.check()
            if not live:
                break  # nothing co-reachable earlier either
            pred = kernel.pred_row(lid)
            row = succ[lid]
            end = start + length
            i = end - 1
            while i >= start:
                nxt = apply_masks(pred, live) & forward[i]
                alive[i] = nxt
                begin = i
                if nxt == live and forward[i] == forward[i + 1]:
                    # Stable: M[j] = pred(M[j+1]) ∩ forward[j] keeps
                    # producing the same mask while the forward chain
                    # stays equal — fill the stretch.
                    j = i - 1
                    fwd_i = forward[i]
                    while j >= start and forward[j] == fwd_i:
                        alive[j] = nxt
                        j -= 1
                    begin = j + 1
                # Every layer of begin..i reads this letter into `live`,
                # so the same states are quiet at all of them.
                candidates = nxt & quiet[lid]
                if candidates:
                    self._record_quiet(row, live, candidates, begin, i + 1)
                i = begin - 1
                live = nxt
        return alive

    def _alive_by_letters(self) -> list[int]:
        """Live layers of the letter walk: each forward layer intersected
        with its co-reachability node's mask.  Equal to intersecting layer
        by layer, since a forward state's successor along any path is
        itself forward."""
        mask_slot = self._kernel._mask_slot
        return [
            f & node[mask_slot]
            for f, node in zip(self.forward, self._coreach_nodes())
        ]

    def _alive_by_layers(self) -> list[int]:
        """Live layers of a :class:`LayeredIndexedVA`, which has no
        kernel: a forward node is live when one of its successors is live
        at the next layer (the guard is ticked per layer)."""
        forward = self.forward
        succ = self.indexed.successor_masks
        n = self._n
        guard = self._guard
        alive = [0] * (n + 1)
        live = alive[n] = self.final_mask
        for i in range(n - 1, -1, -1):
            if guard is not None:
                guard.tick()
            if not live:
                break  # nothing co-reachable earlier either
            row = succ[i]  # a layer stands in for its letter
            layer_alive = 0
            mask = forward[i]
            while mask:
                low = mask & -mask
                if row[low.bit_length() - 1] & live:
                    layer_alive |= low
                mask ^= low
            alive[i] = live = layer_alive
        return alive

    def _coreach_nodes(self) -> "list[list]":
        """Interned co-reachability nodes per layer of a non-empty
        letter-walk graph: the pure backward recurrence ``C[i] =
        pred(C[i + 1])`` from the accepting layer, one node step per letter
        (the guard is checked once up front and ticked per letter)."""
        cnodes = self._cnodes
        if cnodes is None:
            kernel = self._kernel
            guard = self._guard
            if guard is not None:
                guard.check()
            pred_extend = kernel.pred_extend
            node = kernel.pred_node(self.final_mask)
            cnodes = [node]
            append = cnodes.append
            # A surviving frontier read no letter unknown to the VA.
            for lid in reversed(self.letter_ids):
                if guard is not None:
                    guard.tick()
                nxt = node[lid]
                node = nxt if nxt is not None else pred_extend(node, lid)
                append(node)
            cnodes.reverse()
            self._cnodes = cnodes
        return cnodes

    def _quiet_memo(self, sid: int) -> list[int]:
        """State ``sid``'s quiet-stretch memo: once known, ``stops[i]`` is
        the first layer after ``i`` at which the state is not quiet (or the
        last layer); ``0`` while unknown, and where the state is not quiet
        at ``i``.  Allocated on first use."""
        ends = self._quiet_ends
        if ends is None:
            ends = self._quiet_ends = [None] * self.indexed.n_states
        stops = ends[sid]
        if stops is None:
            stops = ends[sid] = [0] * self._n
        return stops

    def _record_quiet(self, row, live, candidates, begin, end) -> None:
        """Record, in the run walk's backward pass, the quiet states of
        layers ``begin..end-1``: each reads the letter of ``row`` into the
        live mask ``live``, so a state of ``candidates`` (live there, with
        a quiet self-loop on the letter) whose only successor in ``live``
        is itself is quiet at all of them, until its stretch from ``end``
        on ends.  The pass records the later layers first, so every end is
        exact and the enumeration walks test only the layer they enter
        at."""
        for sid in iter_bits(candidates):
            bit = 1 << sid
            if row[sid] & live == bit:
                stops = self._quiet_memo(sid)
                reach = stops[end] if end < self._n else 0
                stops[begin:end] = [reach or end] * (end - begin)

    def _quiet_end(self, profile: int, layer: int) -> int:
        """The first layer from ``layer`` on at which some state of
        ``profile`` is not quiet, or the last layer: a profile whose
        states are all quiet at ``layer`` jumps there.

        A state is *quiet* at layer ``i`` when its only live option there
        is its empty-opset self-loop: it is in the letter's
        :attr:`IndexedVA.quiet_masks` and its only successor in
        ``alive[i + 1]`` is itself.  A state scans forward to the end of
        its stretch, ticking the guard once per layer, and records the end
        on every layer it passed (:meth:`_quiet_memo`), so every later
        entry into the stretch reuses it and a state tests each layer at
        most once."""
        n = self._n
        ids = self.letter_ids
        alive = self.alive
        indexed = self.indexed
        succ, quiet = indexed.successor_masks, indexed.quiet_masks
        guard = self._guard
        target = n
        for sid in iter_bits(profile):
            stops = self._quiet_memo(sid)
            end = stops[layer]
            if not end:
                bit = 1 << sid
                scanned = layer
                while scanned < n:
                    if guard is not None:
                        guard.tick()
                    end = stops[scanned]
                    if end:
                        break  # joined a stretch found before
                    lid = ids[scanned]
                    if not quiet[lid] & bit or succ[lid][sid] & alive[scanned + 1] != bit:
                        end = scanned
                        break
                    scanned += 1
                else:
                    end = n
                stops[layer:scanned] = [end] * (scanned - layer)
            if end < target:
                target = end
                if end == layer:
                    break  # not quiet here: no jump
        return target

    def states_alive(self) -> int:
        """Total live states across all layers (graph-size gauge)."""
        return sum(mask.bit_count() for mask in self.alive)

    def width(self) -> int:
        """Maximum number of live states in any layer."""
        return max((mask.bit_count() for mask in self.alive), default=0)

    def edge_row(self, layer: int, sid: int) -> list[tuple[int, int]]:
        """The pruned macro transitions of live state ``sid`` at ``layer``
        (``(opset_id, live_target_mask)`` pairs), built on first demand.
        The returned list is the cache entry: treat it as immutable."""
        cache = self._edges[layer]
        if cache is None:
            cache = self._edges[layer] = {}
        row = cache.get(sid)
        if row is None:
            if self._guard is not None:
                self._guard.charge_edge_rows(1)
            live = self.alive[layer + 1]
            row = cache[sid] = [
                (oid, target_mask & live)
                for oid, target_mask in self.indexed.tables[self.letter_ids[layer]][sid]
                if target_mask & live
            ]
        return row

    #: Entry cap of the forced-stretch index of one :meth:`enumerate`
    #: call: one entry per forced ``(layer, profile)`` frame a stretch
    #: passes.  Past it the index stops growing and later paths step
    #: through the stretches they enter, with the same result.
    FORCED_INDEX_LIMIT = 1 << 19

    def enumerate(self, limit: int | None = None) -> Iterator[Mapping]:
        """DFS enumeration with polynomial delay (Theorem 2.5), bitmask
        profiles and parent-pointer path reconstruction.

        ``limit`` stops after that many mappings; the lazy edge rows mean a
        small limit touches only the layers along the walked paths.  A path
        goes on in place with its canonically first option and stacks the
        others.  Two skips cross the layers where nothing can be captured:

        * A frame whose profile is all *quiet* (every state's only live
          option is its empty-opset self-loop, which is what a character
          class under a star, ``.*`` or ``[0-9]+``, compiles to) jumps in
          one frame, across letters, to the first layer where one of its
          states stops being quiet (:meth:`_quiet_end`).
        * A *forced* frame (its profile holds only star states, see
          :attr:`IndexedVA.star_mask`, and its one live option is the
          empty operation set) starts a forced stretch, which the first
          path to reach it walks and indexes (:meth:`_forced_end`); every
          later path that enters the stretch hops to its end in one frame.
          A star over a union of letters such as ``(a|b)*`` compiles to
          one state per letter, so its profile changes with the letter
          and only this skip crosses its stretches.  The index is a lazy
          form of the jump pointers of Amarilli, Bourhis, Mengel and
          Niewerth (ICDT 2019); it lives for one call, holds at most
          :attr:`FORCED_INDEX_LIMIT` entries, and stays empty for automata
          without star states, such as Theorem 4.8's per-document forms.

        A path node is ``((position, operation set), parent)`` and records
        only operating steps, so skips push the parent unchanged and a leaf
        rebuilds its mapping in O(captures), not O(layers).
        """
        if self.is_empty or (limit is not None and limit <= 0):
            return
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        quiet, star = indexed.quiet_masks, indexed.star_mask
        quiet_end, forced_end = self._quiet_end, self._forced_end
        n = self._n
        final = self.final
        alive = self.alive
        tables = indexed.tables
        letter_ids = self.letter_ids
        edges = self._edges
        guard = self._guard
        forced: dict[tuple[int, int], tuple[int, int]] = {}
        emitted = 0
        # Stack frames: (layer, profile mask, path node).
        stack: list[tuple[int, int, tuple | None]] = [
            (0, 1 << indexed.initial_id, None)
        ]
        while stack:
            layer, profile, node = stack.pop()
            while True:
                if guard is not None:
                    guard.tick()
                if layer == n:
                    options_set: set[int] = set()
                    mask = profile
                    while mask:
                        low = mask & -mask
                        options_set.update(final.get(low.bit_length() - 1, ()))
                        mask ^= low
                    entries: list[tuple[int, OpSet]] = []
                    while node is not None:
                        entry, node = node
                        entries.append(entry)
                    entries.reverse()
                    for oid in sorted(options_set, key=rank.__getitem__):
                        final_ops = opsets[oid]
                        yield _mapping_from_entries(
                            entries + [(n + 1, final_ops)] if final_ops else entries
                        )
                        emitted += 1
                        if limit is not None and emitted >= limit:
                            return
                    break
                lid = letter_ids[layer]
                if not profile & ~star:
                    # Scan only where a quiet stretch can outlast this
                    # layer, that is where the next letter is quiet for the
                    # profile too: a one-layer stretch is this frame's own
                    # step.
                    if (
                        not profile & ~quiet[lid]
                        and layer + 1 < n
                        and not profile & ~quiet[letter_ids[layer + 1]]
                    ):
                        j = quiet_end(profile, layer)
                        if j > layer:
                            layer = j
                            continue
                    hop = forced.get((layer, profile))
                    if hop is not None:
                        layer, profile = hop
                        continue
                # Inlined edge_row: the per-layer row build is the hot loop.
                cache = edges[layer]
                if cache is None:
                    cache = edges[layer] = {}
                row_table = tables[lid]
                live = alive[layer + 1]
                options: dict[int, int] = {}
                mask = profile
                while mask:
                    low = mask & -mask
                    mask ^= low
                    sid = low.bit_length() - 1
                    row = cache.get(sid)
                    if row is None:
                        if guard is not None:
                            guard.charge_edge_rows(1)
                        row = cache[sid] = [
                            (oid, target_mask & live)
                            for oid, target_mask in row_table[sid]
                            if target_mask & live
                        ]
                    for oid, target_mask in row:
                        prev = options.get(oid)
                        options[oid] = target_mask if prev is None else prev | target_mask
                if len(options) == 1:
                    # Single choice (the common layer in sparse documents):
                    # skip the canonical sort.
                    oid, target_mask = options.popitem()
                    ops = opsets[oid]
                    if ops:
                        node = ((layer + 1, ops), node)
                    elif not (profile | target_mask) & ~star:
                        # Forced, into a frame that may be forced too.
                        layer, profile = forced_end(layer, profile, target_mask, forced)
                        continue
                else:
                    ordered = sorted(options, key=rank.__getitem__)
                    # Stack the later options in reverse rank order, so the
                    # DFS pops them canonically.
                    for oid in ordered[:0:-1]:
                        ops = opsets[oid]
                        stack.append(
                            (layer + 1, options[oid], ((layer + 1, ops), node) if ops else node)
                        )
                    oid = ordered[0]
                    target_mask = options[oid]
                    ops = opsets[oid]
                    if ops:
                        node = ((layer + 1, ops), node)
                layer += 1
                profile = target_mask

    def _forced_end(
        self,
        layer: int,
        profile: int,
        target: int,
        index: "dict[tuple[int, int], tuple[int, int]]",
    ) -> tuple[int, int]:
        """The end of the forced stretch that starts at the forced frame
        ``(layer, profile)``, whose one live option leads to ``target``:
        the first frame on from it that is not forced, as ``(layer,
        profile)``, where a leaf counts as not forced.

        Walks the stretch frame by frame, ticking the guard once per
        frame, jumps its quiet stretches (:meth:`_quiet_end`), and stops
        early where it joins a stretch ``index`` holds.  Then records the
        end in ``index`` for every forced frame it passed, this one
        included, unless the end is the next layer, where a hop would be
        no shorter than the step."""
        n = self._n
        indexed = self.indexed
        empty = indexed.empty_opset_id
        quiet, star = indexed.quiet_masks, indexed.star_mask
        tables = indexed.tables
        letter_ids = self.letter_ids
        alive = self.alive
        guard = self._guard
        walked = [(layer, profile)]
        start = layer
        layer += 1
        profile = target
        end = None
        while layer < n:
            if guard is not None:
                guard.tick()
            key = (layer, profile)
            end = index.get(key)
            if end is not None or profile & ~star:
                break
            lid = letter_ids[layer]
            if (
                not profile & ~quiet[lid]
                and layer + 1 < n
                and not profile & ~quiet[letter_ids[layer + 1]]
            ):
                j = self._quiet_end(profile, layer)
                if j > layer:
                    walked.append(key)
                    layer = j
                    continue
            # Forced here when every live option of every state is the
            # empty operation set; a later path hops this frame, so its
            # edge rows are read from the tables and not kept.
            row_table = tables[lid]
            live = alive[layer + 1]
            target = 0
            mask = profile
            while mask:
                low = mask & -mask
                mask ^= low
                for oid, target_mask in row_table[low.bit_length() - 1]:
                    target_mask &= live
                    if target_mask:
                        if oid != empty:
                            target = mask = 0
                            break
                        target |= target_mask
            if not target:
                break
            walked.append(key)
            layer += 1
            profile = target
        if end is None:
            end = (layer, profile)
        if end[0] > start + 1 and len(index) < self.FORCED_INDEX_LIMIT:
            for key in walked:
                index[key] = end
        return end

    def first(self) -> Mapping | None:
        """The first mapping in canonical order, or ``None`` if empty —
        one Boolean pass plus a single root-to-sink path.

        A dedicated greedy walk: the DFS's first leaf is reached by taking
        the canonically-minimal operation set at every layer, so no stack,
        no generator frames, and no alternatives are ever pushed.  On the
        letter walk it prunes against the co-reachability nodes and
        memoizes each choice in the kernel (:meth:`_first_by_nodes`).  On
        the run walk and on a :class:`LayeredIndexedVA` it reads the live
        layers and the edges along the path, and the same skip as
        :meth:`enumerate` jumps a profile whose states are all quiet to the
        first layer where one of them stops being quiet.
        """
        if self.is_empty:
            return None
        if self._runs is None and self._kernel is not None:
            return self._first_by_nodes()
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        quiet = indexed.quiet_masks
        quiet_end = self._quiet_end
        edge_row = self.edge_row
        letter_ids = self.letter_ids
        n = self._n
        guard = self._guard
        entries: list[tuple[int, OpSet]] = []
        profile = 1 << indexed.initial_id
        layer = 0
        while layer < n:
            if guard is not None:
                guard.tick()
            if (
                not profile & ~quiet[letter_ids[layer]]
                and layer + 1 < n
                and not profile & ~quiet[letter_ids[layer + 1]]
            ):
                j = quiet_end(profile, layer)
                if j > layer:
                    layer = j
                    continue
            best_oid = -1
            best_rank = -1
            best_mask = 0
            mask = profile
            while mask:
                low = mask & -mask
                mask ^= low
                sid = low.bit_length() - 1
                for oid, target_mask in edge_row(layer, sid):
                    if best_rank < 0 or rank[oid] < best_rank:
                        best_rank, best_oid, best_mask = rank[oid], oid, target_mask
                    elif oid == best_oid:
                        best_mask |= target_mask
            ops = opsets[best_oid]
            if ops:
                entries.append((layer + 1, ops))
            profile = best_mask
            layer += 1
        final = self.final
        best_final = -1
        mask = profile
        while mask:
            low = mask & -mask
            mask ^= low
            for oid in final.get(low.bit_length() - 1, ()):
                if best_final < 0 or rank[oid] < rank[best_final]:
                    best_final = oid
        final_ops = opsets[best_final]
        if final_ops:
            entries.append((n + 1, final_ops))
        return _mapping_from_entries(entries)

    def _first_by_nodes(self) -> Mapping:
        """:meth:`first` on a non-empty letter-walk graph, with its own
        skip: a step whose choice is the empty operation set on a fixpoint
        profile repeats through the rest of its letter run while the
        co-reach node stays the same.  A candidate target of a live
        profile is always forward-reachable, so ``target ∩ coreach`` is
        exactly ``target ∩ alive`` and the live layers are never built.
        The per-layer choice is memoized on ``(profile, letter, co-reach
        node id)`` in the kernel's :attr:`~repro.va.kernel.TransitionKernel.first_memo`,
        shared across documents, so a long document costs one dictionary
        probe per position, with the edge inspection running only on
        misses."""
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        empty_oid = indexed.empty_opset_id
        tables = indexed.tables
        kernel = self._kernel
        mask_slot, id_slot = kernel._mask_slot, kernel._id_slot
        memo = kernel.first_memo
        memo_limit = kernel.FIRST_CACHE_LIMIT
        letter_ids = self.letter_ids
        cnodes = self._coreach_nodes()
        n = self._n
        guard = self._guard
        entries: list[tuple[int, OpSet]] = []
        profile = 1 << indexed.initial_id
        layer = 0
        while layer < n:
            if guard is not None:
                guard.tick()
            lid = letter_ids[layer]
            cnode = cnodes[layer + 1]
            key = (profile, lid, cnode[id_slot])
            best = memo.get(key)
            if best is None:
                live = cnode[mask_slot]
                row_table = tables[lid]
                best_oid = -1
                best_rank = -1
                best_mask = 0
                for sid in iter_bits(profile):
                    for oid, target_mask in row_table[sid]:
                        target_mask &= live
                        if not target_mask:
                            continue
                        if best_rank < 0 or rank[oid] < best_rank:
                            best_rank, best_oid = rank[oid], oid
                            best_mask = target_mask
                        elif oid == best_oid:
                            best_mask |= target_mask
                best = (best_oid, best_mask)
                if len(memo) < memo_limit:
                    memo[key] = best
            best_oid, best_mask = best
            if best_oid == empty_oid and best_mask == profile:
                # Forced-equivalent empty steps on a fixpoint profile:
                # scan the stretch once (same letter, same co-reach node
                # at the successor layer) and jump it.
                j = layer + 1
                while j < n and letter_ids[j] == lid and cnodes[j + 1] is cnode:
                    j += 1
                layer = j
            else:
                ops = opsets[best_oid]
                if ops:
                    entries.append((layer + 1, ops))
                profile = best_mask
                layer += 1
        final = self.final
        best_final = -1
        for sid in iter_bits(profile):
            for oid in final.get(sid, ()):
                if best_final < 0 or rank[oid] < rank[best_final]:
                    best_final = oid
        final_ops = opsets[best_final]
        if final_ops:
            entries.append((n + 1, final_ops))
        return _mapping_from_entries(entries)

    def enumerate_since(self, prefix_length: int) -> Iterator[Mapping]:
        """Every mapping of this document that is not a mapping of its
        first ``prefix_length`` letters, plus possibly some that are (the
        caller filters those against the ones it holds), each once and in
        no particular order.  ``-1`` enumerates every mapping.

        The output-sensitive walk behind a tail session's re-evaluation: a
        DFS from the final layer back to layer 0 over the automaton's
        predecessor rows (:meth:`IndexedVA.predecessor_rows`), each step
        intersected with the forward layer, which :meth:`extended` carries
        over.  Every forward-reachable state leads back to the initial one,
        so no branch dead-ends, and no ``alive`` pass, quiet-stretch memo
        or edge row is built.  A branch whose operation sets above layer
        ``m = prefix_length`` are all empty (the final one included)
        completes, through a state at layer ``m`` that accepts with the
        operation set chosen there, to a mapping of the prefix; such
        states are dropped at layer ``m``.  So a re-evaluation after an
        append that completes no match walks only the appended layers, and
        each new mapping costs one walk back to layer 0.
        """
        n = self._n
        if self.is_empty or prefix_length == n:
            # With no new letters every branch ends in a prefix mapping.
            return
        indexed = self.indexed
        opsets = indexed.opsets
        accept_by_opset = indexed.accept_by_opset
        rows = indexed.predecessor_rows()
        forward = self.forward
        letter_ids = self.letter_ids
        guard = self._guard
        # Stack frames: (layer, profile mask, quiet, path node).  ``quiet``:
        # every operation set chosen from ``layer`` up is empty.  A path
        # node is ((position, operation set), node of the later positions),
        # so the walk down to layer 0 lists the entries in position order.
        stack: list[tuple[int, int, bool, tuple | None]] = []
        by_final: dict[int, int] = {}
        for sid, oids in self.final.items():
            for oid in oids:
                by_final[oid] = by_final.get(oid, 0) | (1 << sid)
        for oid, profile in by_final.items():
            ops = opsets[oid]
            stack.append((n, profile, not ops, ((n + 1, ops), None) if ops else None))
        while stack:
            frame = stack.pop()
            while frame is not None:
                if guard is not None:
                    guard.tick()
                layer, profile, quiet, node = frame
                if not layer:
                    entries: list[tuple[int, OpSet]] = []
                    while node is not None:
                        entry, node = node
                        entries.append(entry)
                    yield _mapping_from_entries(entries)
                    break
                layer -= 1
                row = rows[letter_ids[layer]]
                if profile & (profile - 1):
                    options: dict[int, int] = {}
                    mask = profile
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        for oid, sources in row[low.bit_length() - 1]:
                            prev = options.get(oid)
                            options[oid] = sources if prev is None else prev | sources
                    choices = options.items()
                else:
                    # One state (the common case): its row is the options.
                    choices = row[profile.bit_length() - 1]
                reach = forward[layer]
                prune = quiet and layer == prefix_length
                # Follow one branch in place and stack the others.
                frame = None
                for oid, sources in choices:
                    sources &= reach
                    if prune:
                        sources &= ~accept_by_opset[oid]
                    if sources:
                        if frame is not None:
                            stack.append(frame)
                        ops = opsets[oid]
                        if ops:
                            frame = (layer, sources, False, ((layer + 1, ops), node))
                        else:
                            frame = (layer, sources, quiet, node)


def enumerate_indexed(
    indexed: IndexedVA | VA, document: Document | str, limit: int | None = None
) -> Iterator[Mapping]:
    """Enumerate ``⟦A⟧(d)`` via the indexed substrate.

    Accepts a prebuilt :class:`IndexedVA` (shared across documents) or a
    raw sequential :class:`VA`.  The match graph is built lazily on the
    first ``next()``, so the first delay carries the preprocessing.
    """
    if isinstance(indexed, VA):
        if not is_sequential(indexed):
            raise NotSequentialError(
                "indexed enumeration requires a sequential VA"
            )
        indexed = IndexedVA(indexed)
    yield from IndexedMatchGraph(indexed, document).enumerate(limit=limit)
