"""Vectorized letter walk: interned frontier nodes over numpy plane tables.

The letter walk of the indexed substrate (:mod:`repro.va.indexed`) steps
Python-int bitsets one letter at a time — fast for small automata, but
on large text documents with ≥64-state queries the per-position big-int
walk dominates everything (``is_nonempty``, ``first``, graph
construction).  This module reworks the letter walk around an
on-the-fly subset construction, with numpy uint64 *state planes* for the
transitions it has not seen yet:

* **Frontier nodes** — the forward recurrence is inherently sequential
  (layer ``i + 1`` needs layer ``i``), so raw per-position numpy calls
  would drown in per-call overhead.  Instead the kernel interns every
  frontier it has ever seen as a *node* whose per-letter successor slots
  are filled lazily — an on-the-fly subset construction over exactly the
  reachable frontiers, akin to the deterministic automata of Florenzano
  et al. (PODS 2018).  The hot loop is ``node = node[letter_id]``; real
  workloads revisit a handful of distinct frontiers, so almost every
  position is one list index.  Nodes are document independent and
  shared across a corpus, and bounded
  (:attr:`VectorizedKernel.STEP_CACHE_LIMIT`); pathological automata
  that overflow the bound keep computing misses through the plane table.
  The backward co-reachability pass walks a second node family over the
  predecessor relation the same way.
* **Plane tables** — a cache miss is one transition application on a
  state set over ``n`` states, held as ``ceil(n / 64)`` uint64 words.
  :class:`VectorizedVA` precomputes an ``(alphabet, states, n_planes)``
  successor-plane table, so a miss is a gather of the frontier's state
  rows plus one ``bitwise_or.reduce`` — the vectorized form of
  :func:`repro.utils.bits.apply_masks`.  Predecessor-plane tables (the
  transposed relation) are built per letter on demand.  The layers a
  graph keeps are Python ints: its live layers are one ``&`` per layer
  of the forward and co-reachability masks.

Documents of long letter runs, the ones
:func:`~repro.va.kernel.run_walk_runs` sends to the run walk, run the
indexed code itself: :func:`vectorized_graph` builds an
:class:`~repro.va.indexed.IndexedMatchGraph` over
:attr:`VectorizedVA.indexed`, whose
:class:`~repro.va.kernel.TransitionKernel` advances each run in O(log
run) memoized mask applications, and :func:`vectorized_nonempty` answers
through :func:`~repro.va.indexed.indexed_nonempty`.  Fixpoint absorption
on Python ints beats plane gathers there, so the nodes serve the letter
walk only.

:class:`VectorizedMatchGraph`, the letter walk's graph, subclasses
:class:`~repro.va.indexed.IndexedMatchGraph` so enumeration semantics are
*inherited*, not re-implemented: the DFS with its quiet-stretch and
forced-stretch skips, the edge rows, the ``alive`` layers and their
gauges, mapping reconstruction and tail extensions are the indexed code
paths, fed by node-walk ``forward`` and co-reachability layers.
:meth:`VectorizedMatchGraph.first` gets a dedicated walk that never
materialises the alive layers at all: it prunes against interned
co-reachability nodes and memoizes the greedy per-layer choice on
``(profile, letter, co-reach node)`` in a kernel-level (cross-document)
cache.

numpy is an *optional* dependency (the ``[fast]`` extra).  When it is not
installed, importing this module is harmless; building any vectorized
object raises :class:`~repro.core.errors.BackendUnavailableError` with an
installation hint, and the engine's pure-Python backends keep working
unchanged.

Plane layout is little-endian both across and within words (state ``s``
lives in bit ``s % 64`` of word ``s // 64``), matching
``int.to_bytes(..., "little")`` — the explicit ``<u8`` dtype keeps the
packed bytes identical on big-endian hosts too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..core.document import Document, as_document
from ..core.errors import BackendUnavailableError, NotSequentialError
from ..core.mapping import Mapping
from ..utils.bits import iter_bits
from .automaton import VA
from .indexed import (
    IndexedMatchGraph,
    IndexedVA,
    _mapping_from_entries,
    indexed_nonempty,
)
from .kernel import run_walk_runs
from .properties import is_sequential

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as NUMPY
except ImportError:  # pragma: no cover
    NUMPY = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .matchgraph import OpSet

#: Little-endian uint64: native (zero-cost) on every mainstream platform,
#: and it pins the byte layout so ``tobytes``/``int.from_bytes`` agree
#: everywhere.
_U64 = "<u8"

_NUMPY_HINT = (
    "the vectorized backend needs numpy — install the fast extra "
    "(pip install repro[fast]) or pick another backend (e.g. indexed)"
)

def numpy_available() -> bool:
    """Whether the vectorized substrate can be built in this process."""
    return NUMPY is not None


def require_numpy():
    """The numpy module, or a clean :class:`BackendUnavailableError`."""
    if NUMPY is None:
        raise BackendUnavailableError(_NUMPY_HINT)
    return NUMPY


# -- plane packing ------------------------------------------------------------


def planes_to_mask(planes) -> int:
    """Unpack a plane array (any shape, one state set) back to an int."""
    return int.from_bytes(planes.tobytes(), "little")


def _planes_from_masks(masks, n_planes: int):
    """Pack a sequence of int bitsets into a ``(len, n_planes)`` array."""
    np = NUMPY
    if n_planes == 1:
        return np.array(masks, dtype=_U64).reshape(len(masks), 1)
    row = 8 * n_planes
    buf = b"".join(mask.to_bytes(row, "little") for mask in masks)
    return np.frombuffer(buf, dtype=_U64).reshape(len(masks), n_planes)


# -- the document-independent vectorized form ---------------------------------


class VectorizedVA:
    """Plane-table form of an :class:`IndexedVA` (document independent).

    Attributes:
        indexed: the underlying indexed form (tables, opsets, acceptance).
        n_states: dense state count.
        n_planes: uint64 words per state set (``ceil(n_states / 64)``).
        succ_planes: the ``(alphabet, states, n_planes)`` successor-plane
            table — row ``[lid, sid]`` is the plane form of
            ``indexed.successor_masks[lid][sid]``.
    """

    __slots__ = (
        "indexed",
        "n_states",
        "n_planes",
        "succ_planes",
        "_kernel",
    )

    def __init__(self, indexed: IndexedVA):
        np = require_numpy()
        self.indexed = indexed
        n_states = self.n_states = indexed.n_states
        n_planes = self.n_planes = max(1, (n_states + 63) // 64)
        n_letters = len(indexed.alphabet)
        row = 8 * n_planes
        buf = b"".join(
            mask.to_bytes(row, "little")
            for per_letter in indexed.successor_masks
            for mask in per_letter
        )
        self.succ_planes = np.frombuffer(buf, dtype=_U64).reshape(
            n_letters, n_states, n_planes
        )
        self._kernel: "VectorizedKernel | None" = None

    @property
    def va(self) -> VA:
        """The trimmed automaton this form evaluates."""
        return self.indexed.va

    @property
    def alphabet(self):
        return self.indexed.alphabet

    def kernel(self) -> "VectorizedKernel":
        """The shared vectorized kernel (frontier nodes, the ``first()``
        memo), built once and reused by every document."""
        if self._kernel is None:
            self._kernel = VectorizedKernel(self)
        return self._kernel

    def __repr__(self) -> str:
        return (
            f"VectorizedVA(states={self.n_states}, planes={self.n_planes}, "
            f"letters={len(self.indexed.alphabet)})"
        )


class VectorizedKernel:
    """Frontier stepping for one :class:`VectorizedVA`.

    Frontiers are interned as *nodes*: ``node[letter_id]`` is the
    successor node (``None`` until computed — the on-the-fly subset
    construction), ``node[n_letters]`` the frontier's int mask, and
    ``node[n_letters + 1]`` a kernel-unique small id (the memo handle of
    :meth:`VectorizedMatchGraph.first`).  Separate node families cover
    the successor and the predecessor relation; misses are computed by
    the vectorized plane gather (:meth:`extend`, :meth:`pred_extend`).

    Attributes:
        step_misses: frontier transitions actually computed through the
            plane tables (cache misses), counted into
            ``EngineStats.frontier_cache_misses``.
    """

    #: Total interned nodes + filled successor slots across both node
    #: families.  Real workloads reach a few dozen; the bound only
    #: matters for adversarial subset-construction blowups, which simply
    #: stop caching (transient nodes, computed per use, never linked).
    STEP_CACHE_LIMIT = 1 << 16

    #: Entries in the cross-document greedy-walk memo of ``first()``.
    FIRST_CACHE_LIMIT = 1 << 16

    __slots__ = (
        "vva",
        "_n_letters",
        "_mask_slot",
        "_id_slot",
        "_nodes",
        "_pred_nodes",
        "_next_id",
        "_cached_steps",
        "_pred_tables",
        "first_memo",
        "step_misses",
    )

    def __init__(self, vva: VectorizedVA):
        self.vva = vva
        n_letters = self._n_letters = len(vva.indexed.alphabet)
        self._mask_slot = n_letters
        self._id_slot = n_letters + 1
        self._nodes: dict[int, list] = {}
        self._pred_nodes: dict[int, list] = {}
        self._next_id = 0
        self._cached_steps = 0
        self._pred_tables: dict[int, object] = {}
        self.first_memo: dict = {}
        self.step_misses = 0

    # -- the vectorized transition op ------------------------------------

    def _gather(self, table, mask: int) -> int:
        """One transformer application: gather the set states' plane rows
        from ``table`` (``(states, n_planes)``) and OR-reduce them — the
        vectorized :func:`~repro.utils.bits.apply_masks`."""
        sids = list(iter_bits(mask))
        if not sids:
            return 0
        return planes_to_mask(NUMPY.bitwise_or.reduce(table[sids], axis=0))

    # -- interned frontier nodes ------------------------------------------

    def _intern(self, registry: dict, mask: int) -> list:
        """The node of ``mask`` in ``registry`` (created on first use;
        transient — computed but never registered — once the cache bound
        is hit)."""
        node = registry.get(mask)
        if node is None:
            node = [None] * self._n_letters
            node.append(mask)
            node.append(self._next_id)
            self._next_id += 1
            if self._cached_steps < self.STEP_CACHE_LIMIT:
                registry[mask] = node
                self._cached_steps += 1
        return node

    def node(self, mask: int) -> list:
        """The successor-family node of a frontier mask."""
        return self._intern(self._nodes, mask)

    def pred_node(self, mask: int) -> list:
        """The predecessor-family node of a co-reachability mask."""
        return self._intern(self._pred_nodes, mask)

    def extend(self, node: list, letter_id: int) -> list:
        """Fill (and link, within the bound) one successor slot by a
        plane gather — the forward cache-miss path: the node of the
        states reached from ``node``'s by one ``letter_id``."""
        nxt_mask = self._gather(
            self.vva.succ_planes[letter_id], node[self._mask_slot]
        )
        self.step_misses += 1
        nxt = self._intern(self._nodes, nxt_mask)
        if self._cached_steps < self.STEP_CACHE_LIMIT:
            node[letter_id] = nxt
            self._cached_steps += 1
        return nxt

    def pred_extend(self, node: list, letter_id: int) -> list:
        """Fill one predecessor slot — the backward cache-miss path: the
        node of the states with a ``letter_id`` successor in ``node``'s."""
        nxt_mask = self._gather(
            self.pred_table(letter_id), node[self._mask_slot]
        )
        self.step_misses += 1
        nxt = self._intern(self._pred_nodes, nxt_mask)
        if self._cached_steps < self.STEP_CACHE_LIMIT:
            node[letter_id] = nxt
            self._cached_steps += 1
        return nxt

    def pred_table(self, letter_id: int):
        """The ``(states, n_planes)`` predecessor-plane table of a letter
        (transpose of the successor relation), built once on demand."""
        table = self._pred_tables.get(letter_id)
        if table is None:
            vva = self.vva
            rows = [0] * vva.n_states
            for source, targets in enumerate(
                vva.indexed.successor_masks[letter_id]
            ):
                bit = 1 << source
                for target in iter_bits(targets):
                    rows[target] |= bit
            table = _planes_from_masks(rows, vva.n_planes)
            self._pred_tables[letter_id] = table
        return table

    # -- whole-document sweeps ---------------------------------------------

    def frontier(self, document: Document, mask: int, guard=None) -> int:
        """The final forward frontier of ``document`` started at ``mask``
        (``0`` if the frontier dies or a letter is unknown to the VA):
        one interned-node step, a list index, per letter.

        A ``guard`` leaves the unguarded hot loop untouched: a chunked
        twin runs instead and checks it once per ~4k letters.
        """
        if not mask:
            return 0
        alphabet = self.vva.indexed.alphabet
        ids = alphabet.ids
        if any(letter not in ids for letter in document.letter_counts()):
            return 0  # an unknown letter kills every run through it
        node = self._intern(self._nodes, mask)
        extend = self.extend
        encoded = document.encoded(alphabet)
        if guard is None:
            for lid in encoded:
                nxt = node[lid]
                node = nxt if nxt is not None else extend(node, lid)
        else:
            for start in range(0, len(encoded), 4096):
                guard.check()
                for lid in encoded[start : start + 4096]:
                    nxt = node[lid]
                    node = nxt if nxt is not None else extend(node, lid)
        return node[self._mask_slot]

    def cache_bytes_estimate(self) -> int:
        """A rough gauge of this kernel's cross-document cache footprint
        (interned frontier nodes, the ``first()`` memo) — what a guard's
        ``cache_bytes`` budget is checked against, once per guarded
        :class:`VectorizedMatchGraph` construction.  Deliberately coarse:
        per-entry constants stand in for deep ``sys.getsizeof`` walks, so
        the gauge is cheap enough to consult per document."""
        slots = self._n_letters + 2
        return self._cached_steps * 8 * slots + 96 * len(self.first_memo)

    def __repr__(self) -> str:
        return (
            f"VectorizedKernel(states={self.vva.n_states}, "
            f"cached_steps={self._cached_steps}, "
            f"step_misses={self.step_misses})"
        )


def vectorized_nonempty(
    vva: VectorizedVA, document: Document | str, guard=None
) -> bool:
    """Decide ``⟦A⟧(d) ≠ ∅`` with one Boolean forward sweep: the interned
    node walk (:meth:`VectorizedKernel.frontier`) on text, the indexed
    run walk (:func:`~repro.va.indexed.indexed_nonempty`) on the
    documents :func:`~repro.va.kernel.run_walk_runs` sends there."""
    doc = as_document(document)
    indexed = vva.indexed
    if run_walk_runs(doc) is not None:
        return indexed_nonempty(indexed, doc, guard=guard)
    mask = vva.kernel().frontier(doc, 1 << indexed.initial_id, guard=guard)
    return bool(mask & indexed.accept_mask)


def vectorized_graph(
    vva: VectorizedVA, document: Document | str, guard=None
) -> IndexedMatchGraph:
    """The match graph of ``document`` on the vectorized substrate: a
    :class:`VectorizedMatchGraph` on text, the indexed run walk's
    :class:`~repro.va.indexed.IndexedMatchGraph` over ``vva.indexed`` on
    the documents :func:`~repro.va.kernel.run_walk_runs` sends to the run
    walk."""
    doc = as_document(document)
    if run_walk_runs(doc) is not None:
        return IndexedMatchGraph(vva.indexed, doc, guard=guard)
    return VectorizedMatchGraph(vva, doc, guard=guard)


# -- the per-document graph ---------------------------------------------------


class VectorizedMatchGraph(IndexedMatchGraph):
    """The layered match graph on one document, with node-walk layers:
    the letter walk of the vectorized substrate (:func:`vectorized_graph`
    builds it for text only, but it is correct on every document).

    Construction runs only the Boolean forward frontier (enough for
    :attr:`is_empty`).  The per-layer forward masks and the backward
    co-reachability nodes are computed one interned-node step per letter
    through the shared :class:`VectorizedKernel`; the live layers are
    their per-layer intersection, as Python ints.

    :meth:`enumerate` is *inherited* from :class:`IndexedMatchGraph` —
    the DFS, edge rows, the quiet-stretch and forced-stretch skips, and
    mapping reconstruction are the indexed code — and so are ``alive``,
    its gauges and the guard's ``states`` charge, over the layers
    :meth:`_alive_by_letters` builds.  So is :meth:`extended`: an
    append-extension takes the indexed letter walk from the checkpointed
    frontier over the carried :attr:`forward` layers and is an
    :class:`IndexedMatchGraph`.  :meth:`first` never touches the alive
    layers: it walks interned co-reachability nodes with a kernel-level
    greedy-choice memo.

    A guarded construction checks the shared kernel's cache footprint
    (:meth:`VectorizedKernel.cache_bytes_estimate`) against the guard's
    ``cache_bytes`` budget once, after its forward sweep.
    """

    __slots__ = ("vva", "_vkernel", "_cnodes")

    def __init__(self, vva: VectorizedVA, document: Document | str, guard=None):
        indexed = vva.indexed
        self.vva = vva
        self.indexed = indexed
        self.document = as_document(document)
        self._guard = guard
        n = self._n = len(self.document)
        self._letter_ids = None
        self._forward = None
        self._alive = None
        self._quiet_ends = None
        # The base's run-walk slots stay unused: this is a letter walk.
        self._runs = None
        self._kernel = None
        self._cnodes = None
        kernel = self._vkernel = vva.kernel()
        mask = kernel.frontier(
            self.document, 1 << indexed.initial_id, guard=guard
        )
        if guard is not None:
            guard.gauge_cache_bytes(kernel.cache_bytes_estimate())
        # Checkpoint for append-extensions (see the base class).
        self._frontier = mask
        final_mask = mask & indexed.accept_mask
        self.final_mask = final_mask
        accept = indexed.accept
        self.final = {sid: accept[sid] for sid in iter_bits(final_mask)}
        self._edges = [None] * n

    # -- node-walk layers ---------------------------------------------------

    @property
    def forward(self) -> "list[int]":
        """Forward-reachable masks per layer (int form, built once): one
        interned-node step per letter.  The guard is checked once up
        front and ticked per letter."""
        forward = self._forward
        if forward is None:
            guard = self._guard
            if guard is not None:
                guard.check()
            kernel = self._vkernel
            mask_slot = kernel._mask_slot
            extend = kernel.extend
            node = kernel.node(1 << self.indexed.initial_id)
            forward = [node[mask_slot]]
            append = forward.append
            for lid in self.letter_ids:
                if guard is not None:
                    guard.tick()
                if lid < 0:
                    break  # a letter unknown to the VA: nothing lives past it
                nxt = node[lid]
                node = nxt if nxt is not None else extend(node, lid)
                append(node[mask_slot])
            forward.extend([0] * (self._n + 1 - len(forward)))
            self._forward = forward
        return forward

    def _coreach_nodes(self) -> "list[list]":
        """Interned co-reachability nodes per layer of a non-empty graph:
        the pure backward recurrence ``C[i] = pred(C[i + 1])`` from the
        accepting layer, one node step per letter (the guard is checked
        once up front and ticked per letter)."""
        cnodes = self._cnodes
        if cnodes is None:
            kernel = self._vkernel
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

    def _alive_by_letters(self) -> "list[int]":
        """Live layers: each forward layer intersected with its
        co-reachability node's mask — equal to the indexed backend's
        per-layer pruning (a forward state's successor along any path is
        itself forward, so intersecting late loses nothing)."""
        mask_slot = self._vkernel._mask_slot
        return [
            f & node[mask_slot]
            for f, node in zip(self.forward, self._coreach_nodes())
        ]

    # -- first(): memoized greedy walk ------------------------------------

    def first(self) -> "Mapping | None":
        """The first mapping in canonical order, or ``None`` if empty.

        Semantically identical to the inherited greedy walk (canonically
        minimal operation set per layer) but pruned against the
        co-reachability nodes instead of the alive layers, and with its
        own skip: a step whose choice is the empty operation set on a
        fixpoint profile repeats through the rest of its letter run while
        the co-reach node stays the same.  A candidate target of a live
        profile is always forward-reachable, so ``target ∩ coreach`` is
        exactly ``target ∩ alive`` and the backward intersection never
        needs materialising.  The per-layer choice is memoized on
        ``(profile, letter, co-reach node id)`` in a *kernel-level* cache
        shared across documents, so long documents cost one dictionary
        probe per position with the edge inspection running only on
        misses.
        """
        if self.is_empty:
            return None
        indexed = self.indexed
        opsets, rank = indexed.opsets, indexed.opset_rank
        empty_oid = indexed.empty_opset_id
        tables = indexed.tables
        kernel = self._vkernel
        mask_slot, id_slot = kernel._mask_slot, kernel._id_slot
        memo = kernel.first_memo
        memo_limit = kernel.FIRST_CACHE_LIMIT
        letter_ids = self.letter_ids
        cnodes = self._coreach_nodes()
        n = self._n
        guard = self._guard
        entries: "list[tuple[int, OpSet]]" = []
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
                # Run-skip: forced-equivalent empty steps on a fixpoint
                # profile — scan the stretch once (same letter, same
                # co-reach context at the successor layer) and jump it.
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


def enumerate_vectorized(
    vectorized: "VectorizedVA | VA",
    document: Document | str,
    limit: "int | None" = None,
) -> Iterator[Mapping]:
    """Enumerate ``⟦A⟧(d)`` via the vectorized substrate (lazy — the graph
    is built on the first ``next()``; see :func:`vectorized_graph`)."""
    if isinstance(vectorized, VA):
        if not is_sequential(vectorized):
            raise NotSequentialError(
                "vectorized enumeration requires a sequential VA"
            )
        vectorized = vectorized.vectorized()
    yield from vectorized_graph(vectorized, document).enumerate(limit=limit)
