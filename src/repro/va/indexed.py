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
both walks, at the layers the enumeration DFS steps.  Between them the
DFS *jumps*: where no state of its profile has a live option that
performs operations, the path is forced, so a profile moves in one step
to the first layer where the image of its states under the transitions
that perform no operation holds a state with a live operating option,
or to the last layer (Amarilli, Bourhis, Mengel and Niewerth's jump to
the next capture layer, ICDT 2019).  On the letter walk the image steps
a third family of the kernel's interned nodes and each layer is two
memoized mask tests against the co-reachability nodes, so the DFS builds
neither the forward nor the live layers; on the run walk a profile that
is a fixpoint of a run's image crosses the run's stable live layers in
one step.  :class:`IndexedVA` also marks, once per automaton, the *done*
states, from which no run performs an operation: a jump also stops where
the live part of the image turns all done, and a frame whose profile is
all done is a leaf with one mapping, without a jump to the end.
:meth:`IndexedMatchGraph.first` is a greedy walk with the same jump: on
the letter walk it prunes against the co-reachability nodes and memoizes
its choices in the kernel, across documents; otherwise it reads the live
layers.  A tail session's re-evaluation instead
walks back from the final layer over the forward masks alone
(:meth:`IndexedMatchGraph.enumerate_since`), pruned at the previous
run's length, and a branch that has chosen an operation ends at the
first profile of *clean* states, which no run reaches through an
operation; :meth:`IndexedMatchGraph.extended` keeps the walk of the
graph it extends.  Semantics are identical on
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

from bisect import bisect_right
from collections import deque
from itertools import count
from operator import itemgetter
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
        done_mask: the states from which no run performs an operation,
            accepting operation sets included: a jump stops where its live
            image holds only these states, and a DFS frame whose profile
            does ends in exactly one mapping, its path's, where a jump on
            would cross the rest of the document (see
            :meth:`IndexedMatchGraph.enumerate`).
        clean_mask: the states that no run reaches through an operation:
            a backward frame whose profile holds only these states walks
            back to layer 0 without another operation (see
            :meth:`IndexedMatchGraph.enumerate_since`).
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
        accept: list[tuple[int, ...]] = [()] * self.n_states
        accept_mask = 0
        # Per state, the union of its successors over every letter; the
        # states that perform an operation (on a transition or when they
        # accept), and the states an operation leads into.
        successors = [0] * self.n_states
        operating = entered = 0
        letter_id = self.alphabet.ids.__getitem__
        for state, sid in order.items():
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
                for oid, target_mask in entries:
                    mask |= target_mask
                    if opsets[oid]:
                        operating |= 1 << sid
                        entered |= target_mask
                successor_masks[lid][sid] = mask
                successors[sid] |= mask
            accept[sid] = tuple(
                sorted(
                    (intern(ops) for ops in factorized.accepting_opsets(state)),
                    key=lambda oid: opset_sort_key(self.opsets[oid]),
                )
            )
            if accept[sid]:
                accept_mask |= 1 << sid
                if any(opsets[oid] for oid in accept[sid]):
                    operating |= 1 << sid
        self.tables = tables
        self.successor_masks = successor_masks
        predecessors = [0] * self.n_states
        for sid, mask in enumerate(successors):
            for target in iter_bits(mask):
                predecessors[target] |= 1 << sid
        everything = (1 << self.n_states) - 1
        self.done_mask = everything & ~_reachable(operating, predecessors)
        self.clean_mask = everything & ~_reachable(entered, successors)
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


def _reachable(seed: int, edges: "list[int]") -> int:
    """The states reachable from the states of ``seed`` along ``edges``
    (``edges[state]`` is the mask of a state's neighbours), ``seed``
    included; each state is expanded once."""
    reached = pending = seed
    while pending:
        low = pending & -pending
        pending ^= low
        fresh = edges[low.bit_length() - 1] & ~reached
        reached |= fresh
        pending |= fresh
    return reached


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
    state mask is wider than one layer, and a mask that holds for every
    layer, as :attr:`IndexedVA.done_mask` and :attr:`IndexedVA.clean_mask`
    do, is ``0`` here, and the enumeration's jump tests one layer at a
    time (the kernel and its run walk never apply).
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
        self.done_mask = self.clean_mask = 0
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
    frame and checks it once per 4096 layers a jump crosses, every frame
    charges its profile's states against the ``states`` budget, and every
    materialised edge row is charged against the ``edge_rows`` budget.
    A guarded letter-walk construction checks the
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
        "_edges",
        "_guard",
        "states_explored",
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
        #: The states of the profiles of the last enumeration's DFS
        #: frames, one count per frame (see :meth:`enumerate`).
        self.states_explored = 0
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
        backward pruning, co-reachability nodes and enumeration edge rows
        are *not* carried over — they are pruned
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
        graph.states_explored = 0
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
            # Document.append extended the cached encoding, if the
            # document held one: slice it rather than encode again.
            graph._runs = None
            overhang = doc.encoded_from(indexed.alphabet, old_n)
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
        return alive

    def _alive_by_runs(self) -> list[int]:
        n = self._n
        forward = self.forward
        kernel = self._kernel
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
            i = start + length - 1
            while i >= start:
                nxt = apply_masks(pred, live) & forward[i]
                alive[i] = nxt
                if nxt == live and forward[i] == forward[i + 1]:
                    # Stable: M[j] = pred(M[j+1]) ∩ forward[j] keeps
                    # producing the same mask while the forward chain
                    # stays equal, which it does back to the fixpoint's
                    # first layer in the run — fill the stretch.
                    begin = forward.index(forward[i], start, i + 1)
                    alive[begin:i] = [nxt] * (i - begin)
                    i = begin
                i -= 1
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

    def _jumper(self):
        """The jump, as a function of ``(profile, layer)`` bound to this
        graph's walk: from a live profile at a layer, to the first layer
        where the live part of the image of its states under the
        transitions that perform no operation is all done
        (:attr:`IndexedVA.done_mask`) or holds a state with a live
        operating option, or to the last layer, with that live part there.
        On the way every live option is the empty operation set, so the
        path is forced and performs nothing, and past an all-done image it
        performs nothing either: the DFS ends it there with a leaf.  The
        guard is checked once per 4096 steps, as
        :meth:`~repro.va.kernel.TransitionKernel.frontier`'s guarded twin
        does.

        On the letter walk the image steps the kernel's interned nodes
        over the transitions that perform no operation
        (:meth:`~repro.va.kernel.TransitionKernel.empty_extend`), and each
        layer is two tests against masks of its letter that the next
        co-reachability node memoizes
        (:meth:`~repro.va.kernel.TransitionKernel.operating`): the states
        with a live operating option, and the states with a transition
        that performs no operation into a live state that is not done; an
        image without the second turns all done at the next layer.  The
        image stays unpruned on the way: a state of it that is not
        co-reachable has no co-reachable successor, so it meets neither
        mask, and the stop prunes it.

        Every other walk (the run walk, a :class:`LayeredIndexedVA`, a
        graph without a kernel) scans the profile's macro transitions once
        per layer against the live layers, and tests the live image for
        done states where it changes.  On the run walk a profile that
        is a fixpoint of its image, inside a run where the forward and live
        layers are stable, crosses the run's stable live layers in one
        step: the live layers follow ``M[j] = pred(M[j+1]) ∩ F`` there, so
        a fixpoint of that recurrence holds at every layer up to its last
        occurrence in the run, and each of those layers repeats the same
        test and the same image.

        While the image *holds* at the profile (on the letter walk, stays
        its own node), as across a class star, a walk from any of those
        layers is the same walk, so each profile keeps the last stretch it
        held: a jump that starts inside it returns at once, and one that
        walks into it while holding joins it.  Paths that enter one stretch
        at many layers, as after a capture followed by a class star and a
        later operation, so cross it once in all."""
        n = self._n
        ids = self.letter_ids
        guard = self._guard
        chunk = n if guard is None else 4096
        not_done = ~self.indexed.done_mask
        if self._runs is None and self._kernel is not None:
            kernel = self._kernel
            mask_slot, op_slot = kernel._mask_slot, kernel._op_slot
            operating, empty_extend = kernel.operating, kernel.empty_extend
            cnodes = self._coreach_nodes()

            def walk(profile: int, layer: int, lo: int, hi: int) -> "tuple":
                node = kernel.empty_node(profile)
                until = -1  # the last layer the image held at, once known
                while True:
                    stop = min(n, layer + chunk)
                    while layer < stop:
                        if until < 0 and lo <= layer < hi:
                            return None, layer
                        lid = ids[layer]
                        cnode = cnodes[layer + 1]
                        masks = cnode[op_slot + lid]
                        if masks is None:
                            masks = operating(lid, cnode)
                        op, keep = masks
                        if profile & op:
                            result = layer, profile & cnodes[layer][mask_slot]
                            return result, layer if until < 0 else until
                        done = not profile & keep
                        nxt = node[lid]
                        if nxt is None:
                            nxt = empty_extend(node, lid)
                        layer += 1
                        if nxt is not node:
                            if until < 0:
                                until = layer - 1
                            node, profile = nxt, nxt[mask_slot]
                        if done:
                            result = layer, profile & cnode[mask_slot]
                            return result, layer if until < 0 else until
                    if layer == n:
                        return (n, profile & self.final_mask), n - 1 if until < 0 else until
                    guard.check()

        else:
            alive, forward = self.alive, self.forward
            tables = self.indexed.tables
            empty = self.indexed.empty_opset_id
            runs = self._runs

            def walk(profile: int, layer: int, lo: int, hi: int) -> "tuple":
                until = -1
                while True:
                    stop = min(n, layer + chunk)
                    while layer < stop:
                        if until < 0 and lo <= layer < hi:
                            return None, layer
                        live = alive[layer + 1]
                        lid = ids[layer]
                        image = 0
                        mask = profile
                        while mask:
                            low = mask & -mask
                            mask ^= low
                            for oid, target_mask in tables[lid][low.bit_length() - 1]:
                                if target_mask & live:
                                    if oid != empty:
                                        return (layer, profile), layer if until < 0 else until
                                    image |= target_mask
                        image &= live
                        layer += 1
                        if image != profile:
                            if until < 0:
                                until = layer - 1
                            if not image & not_done:
                                return (layer, image), until
                            profile = image
                        elif (
                            runs is not None
                            and layer < n
                            and ids[layer] == lid
                            and alive[layer + 1] == live
                            and forward[layer + 1] == forward[layer]
                        ):
                            run = bisect_right(runs, layer - 1, key=itemgetter(1)) - 1
                            _, start, length = runs[run]
                            layer = start + length
                            while alive[layer] != live:
                                layer -= 1
                    if layer >= n:
                        return (layer, profile), n - 1 if until < 0 else until
                    guard.check()

        # Per profile: (its last held stretch's first layer, the layer past
        # its last, the jump's result from any of them).
        held: dict[int, tuple] = {}

        def jump(profile: int, layer: int) -> "tuple[int, int]":
            if not profile & not_done:
                return layer, profile
            lo, hi, found = held.get(profile, (-1, -1, None))
            result, until = walk(profile, layer, lo, hi)
            if result is None:  # started or walked into the last stretch
                result, until, layer = found, hi - 1, min(layer, lo)
            held[profile] = layer, until + 1, result
            return result

        return jump

    def states_alive(self) -> int:
        """Total live states across all layers: a graph-size gauge, which
        builds the live layers (the engine reports the DFS's own count,
        :attr:`states_explored`)."""
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

    def enumerate(self, limit: int | None = None) -> Iterator[Mapping]:
        """DFS enumeration with polynomial delay (Theorem 2.5), bitmask
        profiles and parent-pointer path reconstruction.

        ``limit`` stops after that many mappings; the lazy edge rows mean a
        small limit touches only the layers along the walked paths.  A path
        goes on in place with its canonically first option and stacks the
        others.  Two shortcuts cross the layers where nothing can be
        captured:

        * A frame with a single option takes it, and the path jumps on
          (:meth:`_jumper`) to the first layer where the image of its
          profile under the transitions that perform no operation holds a
          state with a live operating option or is all done, or to the
          last layer: the layers in between offer only the empty
          operation set, so the path is forced and its mapping does not
          change.  On the letter walk the jump steps the kernel's nodes
          and tests the co-reachability nodes, against which the DFS also
          prunes its edge rows: a forward-reachable state's targets meet
          them exactly where they meet the live layers, so neither the
          forward nor the live layers are built.
        * A frame whose profile is all *done* (:attr:`IndexedVA.done_mask`:
          no run from its states performs an operation) is a leaf: every
          live path on from it ends in the one mapping of the path so far,
          where a jump on would cross the rest of the document.

        A path node is ``((position, operation set), parent)`` and records
        only operating steps, so a jump pushes the parent unchanged and a
        leaf rebuilds its mapping in O(captures), not O(layers).  Every
        frame counts its profile's states into :attr:`states_explored`,
        before it charges them against a guard's ``states`` budget, so a
        trip leaves the two equal.
        """
        if self.is_empty or (limit is not None and limit <= 0):
            return
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        done = indexed.done_mask
        empty = indexed.empty_opset_id
        jump = self._jumper()
        n = self._n
        final = self.final
        tables = indexed.tables
        letter_ids = self.letter_ids
        edges = self._edges
        guard = self._guard
        if self._runs is None and self._kernel is not None:
            lives, mask_slot = self._coreach_nodes(), self._kernel._mask_slot
        else:
            lives, mask_slot = self.alive, None
        explored = 0
        emitted = 0
        # Stack frames: (layer, profile mask, path node).
        stack: list[tuple[int, int, tuple | None]] = [
            (0, 1 << indexed.initial_id, None)
        ]
        while stack:
            layer, profile, node = stack.pop()
            while True:
                states = profile.bit_count()
                explored += states
                if guard is not None:
                    self.states_explored = explored  # before a trip
                    guard.tick()
                    guard.charge_states(states)
                if layer == n or not profile & ~done:
                    # A leaf: one mapping per operation set the profile
                    # accepts with.  A done profile's live paths perform
                    # nothing more and accept with the empty one alone.
                    if profile & ~done:
                        options_set: set[int] = set()
                        mask = profile
                        while mask:
                            low = mask & -mask
                            options_set.update(final.get(low.bit_length() - 1, ()))
                            mask ^= low
                        finals = sorted(options_set, key=rank.__getitem__)
                    else:
                        finals = [empty]
                    entries: list[tuple[int, OpSet]] = []
                    while node is not None:
                        entry, node = node
                        entries.append(entry)
                    entries.reverse()
                    self.states_explored = explored
                    for oid in finals:
                        final_ops = opsets[oid]
                        yield _mapping_from_entries(
                            entries + [(n + 1, final_ops)] if final_ops else entries
                        )
                        emitted += 1
                        if limit is not None and emitted >= limit:
                            return
                    break
                # Inlined edge_row: the per-layer row build is the hot loop.
                cache = edges[layer]
                if cache is None:
                    cache = edges[layer] = {}
                row_table = tables[letter_ids[layer]]
                live = lives[layer + 1]
                if mask_slot is not None:
                    live = live[mask_slot]
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
                    # skip the canonical sort, and jump a forced stretch.
                    oid, profile = options.popitem()
                    ops = opsets[oid]
                    if ops:
                        node = ((layer + 1, ops), node)
                    layer, profile = jump(profile, layer + 1)
                    continue
                ordered = sorted(options, key=rank.__getitem__)
                # Stack the later options in reverse rank order, so the
                # DFS pops them canonically.
                for oid in ordered[:0:-1]:
                    ops = opsets[oid]
                    stack.append(
                        (layer + 1, options[oid], ((layer + 1, ops), node) if ops else node)
                    )
                oid = ordered[0]
                profile = options[oid]
                ops = opsets[oid]
                if ops:
                    node = ((layer + 1, ops), node)
                layer += 1
        self.states_explored = explored

    def first(self) -> Mapping | None:
        """The first mapping in canonical order, or ``None`` if empty —
        one Boolean pass plus a single root-to-sink path.

        A dedicated greedy walk: the DFS's first leaf is reached by taking
        the canonically-minimal operation set at every layer, so no stack,
        no generator frames, and no alternatives are ever pushed.
        :meth:`enumerate`'s jump carries the path across every stretch
        where it is forced, and the path ends at the last layer or where
        its profile is all done; :meth:`_choice` picks the option at each
        other layer where the jump stops.
        """
        if self.is_empty:
            return None
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        done = indexed.done_mask
        jump, choice = self._jumper(), self._choice
        n = self._n
        guard = self._guard
        entries: list[tuple[int, OpSet]] = []
        profile = 1 << indexed.initial_id
        layer = 0
        while True:
            if guard is not None:
                guard.tick()
            layer, profile = jump(profile, layer)
            if layer == n or not profile & ~done:
                break
            oid, profile = choice(profile, layer)
            ops = opsets[oid]
            if ops:
                entries.append((layer + 1, ops))
            layer += 1
        if layer == n:
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

    def _choice(self, profile: int, layer: int) -> "tuple[int, int]":
        """:meth:`first`'s choice at ``layer``: the canonically first live
        option of ``profile``, as ``(opset id, target mask)``.

        On the letter walk the macro transitions are pruned against the
        co-reachability node: a candidate target of a live profile is
        always forward-reachable, so ``target ∩ coreach`` is exactly
        ``target ∩ alive`` and the live layers are never built.  The choice
        is memoized on ``(profile, letter, co-reach node id)`` in the
        kernel's :attr:`~repro.va.kernel.TransitionKernel.first_memo`,
        shared across documents; a transient node, computed anew on every
        use, has id ``-1``, under which no choice is stored.  Otherwise the
        options are the edge rows."""
        kernel = self._kernel
        key = None
        if self._runs is None and kernel is not None:
            lid = self.letter_ids[layer]
            cnode = self._coreach_nodes()[layer + 1]
            key = (profile, lid, cnode[kernel._id_slot])
            best = kernel.first_memo.get(key)
            if best is not None:
                return best
            live, row_table = cnode[kernel._mask_slot], self.indexed.tables[lid]
            options = [
                (oid, target_mask & live)
                for sid in iter_bits(profile)
                for oid, target_mask in row_table[sid]
                if target_mask & live
            ]
        else:
            options = [
                option for sid in iter_bits(profile) for option in self.edge_row(layer, sid)
            ]
        best_oid = min((oid for oid, _ in options), key=self.indexed.opset_rank.__getitem__)
        best_mask = 0
        for oid, target_mask in options:
            if oid == best_oid:
                best_mask |= target_mask
        best = (best_oid, best_mask)
        if key is not None and key[2] >= 0 and len(kernel.first_memo) < kernel.FIRST_CACHE_LIMIT:
            kernel.first_memo[key] = best
        return best

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
        so no branch dead-ends, and no ``alive`` pass, co-reachability node
        or edge row is built: the walk does not jump, since its own
        shortcut ends a branch at its first all-clean profile.  A branch
        whose operation sets above layer ``m = prefix_length`` are all
        empty (the final one included) completes, through a state at
        layer ``m`` that accepts with the operation set chosen there, to a
        mapping of the prefix; such states are dropped at layer ``m``.  A
        branch that has chosen an operation yields as soon as its profile
        is all *clean* (:attr:`IndexedVA.clean_mask`): no run reaches
        those states through an operation, so the walk back to layer 0
        would add none.
        So a re-evaluation after an append that completes no match walks
        only the appended layers, and each new mapping costs a walk back
        over its captured region, not to layer 0.
        """
        n = self._n
        if self.is_empty or prefix_length == n:
            # With no new letters every branch ends in a prefix mapping.
            return
        indexed = self.indexed
        opsets = indexed.opsets
        accept_by_opset = indexed.accept_by_opset
        clean = indexed.clean_mask
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
                if not layer or not (quiet or profile & ~clean):
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
