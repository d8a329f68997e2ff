"""Vectorized bitset transition kernel: numpy uint64 state planes.

The Boolean forward/backward passes of the indexed substrate
(:mod:`repro.va.indexed`) step Python-int bitsets one letter at a time —
fast for small automata, but on large documents with ≥64-state queries the
per-position big-int walk dominates everything (``is_nonempty``,
``first``, graph construction).  This module reworks those passes around
numpy uint64 *state planes* plus an on-the-fly subset construction:

* **State planes** — a state set over ``n`` states is an ``(n_planes,)``
  uint64 array with ``n_planes = ceil(n / 64)``; every word operation
  covers 64 states at once.  Per-layer masks of a whole document pack into
  one ``(len(d) + 1, n_planes)`` uint64 array, so whole-document
  combinations (the reachable ∩ co-reachable intersection, layer
  popcounts) are single vectorized ops instead of ``len(d)`` Python-int
  operations.
* **Successor-plane table** — :class:`VectorizedVA` precomputes an
  ``(alphabet, states, n_planes)`` uint64 table; one transition
  application is a gather of the frontier's state rows plus one
  ``bitwise_or.reduce`` — the vectorized form of
  :func:`repro.utils.bits.apply_masks`.  The backward co-reachability
  pass mirrors it with predecessor-plane tables (the transposed
  relation), built per letter on demand.
* **Frontier nodes** — the forward recurrence is inherently sequential
  (layer ``i + 1`` needs layer ``i``), so raw per-position numpy calls
  would drown in per-call overhead.  Instead the kernel interns every
  frontier it has ever seen as a *node* whose per-letter successor slots
  are filled lazily — an on-the-fly subset construction over exactly the
  reachable frontiers.  The hot loop is ``node = node[letter_id]``; the
  plane gather runs only on cache misses, and real workloads revisit a
  handful of distinct frontiers, so almost every position is one list
  index.  Nodes are document independent and shared across a corpus —
  like the memoized transformer powers of PR 4 — and bounded
  (:attr:`VectorizedKernel.STEP_CACHE_LIMIT`); pathological automata
  that overflow the bound keep computing misses through the plane table.
* **Run doubling on planes** — long maximal letter runs advance through
  memoized ``(letter, 2^k)`` *plane-matrix* transformer powers (the
  vectorized mirror of :class:`repro.va.kernel.TransitionKernel`), with
  the same fixpoint absorption, so run-heavy documents keep their
  O(runs · log run) cost; :meth:`VectorizedKernel.frontier` picks the
  node walk or the run walk per document with the indexed substrate's
  rule, :func:`~repro.va.kernel.takes_run_walk`.

:class:`VectorizedMatchGraph` subclasses
:class:`~repro.va.indexed.IndexedMatchGraph` so enumeration semantics are
*inherited*, not re-implemented: the DFS with its quiet-stretch and
forced-stretch skips, the edge rows, and mapping reconstruction are the
indexed code paths, fed by plane-backed ``forward``/``alive`` layers
(unpacked to Python-int form exactly once, on demand).
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
from ..core.errors import (
    BackendUnavailableError,
    NotSequentialError,
    SpannerError,
)
from ..core.mapping import Mapping
from ..utils.bits import iter_bits
from .automaton import VA
from .indexed import (
    IndexedMatchGraph,
    IndexedVA,
    _advance_runs,
    _encoded_runs,
    _mapping_from_entries,
)
from .kernel import takes_run_walk
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


def mask_to_planes(mask: int, n_planes: int):
    """Pack an int bitset into an ``(n_planes,)`` uint64 plane array."""
    np = require_numpy()
    return np.frombuffer(
        mask.to_bytes(8 * n_planes, "little"), dtype=_U64
    ).copy()


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


def _masks_from_planes(planes) -> "list[int]":
    """Unpack a ``(rows, n_planes)`` array into a list of int bitsets."""
    n_planes = planes.shape[1]
    if n_planes == 1:
        return planes[:, 0].tolist()
    out = planes[:, 0].tolist()
    for p in range(1, n_planes):
        shift = 64 * p
        out = [
            low | (high << shift) if high else low
            for low, high in zip(out, planes[:, p].tolist())
        ]
    return out


def _popcounts(planes):
    """Per-row population counts of a ``(rows, n_planes)`` plane array."""
    np = NUMPY
    if hasattr(np, "bitwise_count"):  # numpy ≥ 2.0
        return np.bitwise_count(planes).sum(axis=1)
    bits = np.unpackbits(
        np.ascontiguousarray(planes).view(np.uint8), axis=1, bitorder="little"
    )
    return bits.sum(axis=1, dtype=np.int64)


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
        """The shared vectorized kernel (frontier nodes, plane powers),
        built once and reused by every document."""
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
    the vectorized plane gather.  Long maximal letter runs go through
    :meth:`advance`, the plane mirror of
    :meth:`repro.va.kernel.TransitionKernel.advance`: fixpoint absorption
    first, memoized ``(letter, 2^k)`` plane-matrix powers otherwise.

    Attributes:
        run_hits: compressed run advances (length ≥ 2), sampled into
            ``EngineStats.kernel_run_hits``.
        step_misses: frontier transitions actually computed through the
            plane tables (cache misses), sampled into
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
        "_powers",
        "_pred_tables",
        "first_memo",
        "run_hits",
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
        # _powers[lid][k]: the (states, n_planes) transformer of 2^k letters.
        self._powers: dict[int, list] = {}
        self._pred_tables: dict[int, object] = {}
        self.first_memo: dict = {}
        self.run_hits = 0
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
        plane gather — the forward cache-miss path."""
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
        """Fill one predecessor slot — the backward cache-miss path."""
        nxt_mask = self._gather(
            self.pred_table(letter_id), node[self._mask_slot]
        )
        self.step_misses += 1
        nxt = self._intern(self._pred_nodes, nxt_mask)
        if self._cached_steps < self.STEP_CACHE_LIMIT:
            node[letter_id] = nxt
            self._cached_steps += 1
        return nxt

    def step(self, letter_id: int, mask: int) -> int:
        """One letter forward: the image of the frontier ``mask``."""
        node = self._intern(self._nodes, mask)
        nxt = node[letter_id]
        if nxt is None:
            nxt = self.extend(node, letter_id)
        return nxt[self._mask_slot]

    def pred_step(self, letter_id: int, mask: int) -> int:
        """One letter backward: the states with a successor in ``mask``."""
        node = self._intern(self._pred_nodes, mask)
        nxt = node[letter_id]
        if nxt is None:
            nxt = self.pred_extend(node, letter_id)
        return nxt[self._mask_slot]

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

    # -- run compression on planes ----------------------------------------

    def power(self, letter_id: int, k: int):
        """The memoized ``(states, n_planes)`` transformer of ``2^k``
        copies of the letter, composed by repeated plane-matrix squaring."""
        np = NUMPY
        powers = self._powers.get(letter_id)
        if powers is None:
            powers = self._powers[letter_id] = [
                np.ascontiguousarray(self.vva.succ_planes[letter_id])
            ]
        n_states = self.vva.n_states
        while len(powers) <= k:
            previous = powers[-1]
            # bits[s, t]: state t is in the image row of state s.  The
            # where/reduce pair is the plane form of kernel.compose().
            bits = np.unpackbits(
                previous.view(np.uint8), axis=1, bitorder="little"
            )[:, :n_states].astype(bool)
            zero = np.zeros(1, dtype=_U64)
            powers.append(
                np.bitwise_or.reduce(
                    np.where(bits[:, :, None], previous[None, :, :], zero),
                    axis=1,
                )
            )
        return powers[k]

    def advance(self, letter_id: int, mask: int, length: int) -> int:
        """The frontier after a run of ``length`` copies of the letter —
        O(1) on a fixpoint, O(log length) plane gathers otherwise."""
        if length <= 0 or not mask:
            return mask
        nxt = self.step(letter_id, mask)
        if length == 1:
            return nxt
        self.run_hits += 1
        if nxt == mask or not nxt:
            return nxt
        remaining = length - 1
        mask = nxt
        k = 0
        while remaining and mask:
            if remaining & 1:
                mask = self._gather(self.power(letter_id, k), mask)
            remaining >>= 1
            k += 1
        return mask

    # -- whole-document sweeps ---------------------------------------------

    def frontier(self, document: Document, mask: int, guard=None) -> int:
        """The final forward frontier of ``document`` started at ``mask``
        (``0`` if the frontier dies or a letter is unknown to the VA).

        Adaptive (:func:`~repro.va.kernel.takes_run_walk`): documents
        dominated by short runs walk interned nodes per position (one list
        index each); run-heavy documents advance per run through fixpoint
        absorption and plane-power doubling.
        A ``guard`` is checked once per run on the run walk; the
        node walk keeps its unguarded hot loop untouched and runs a
        chunked twin (one check per ~4k positions) only when guarded.
        """
        if not mask:
            return 0
        n = len(document)
        if n == 0:
            return mask
        alphabet = self.vva.indexed.alphabet
        runs = document.runs()
        if takes_run_walk(n, len(runs)):
            return _advance_runs(self, _encoded_runs(runs, alphabet), mask, guard)
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
            for start in range(0, n, 4096):
                guard.check()
                for lid in encoded[start : start + 4096]:
                    nxt = node[lid]
                    node = nxt if nxt is not None else extend(node, lid)
        return node[self._mask_slot]

    def cache_bytes_estimate(self) -> int:
        """A rough gauge of this kernel's cross-document cache footprint
        (interned frontier nodes, the ``first()`` memo, plane powers) —
        what a guard's ``cache_bytes`` budget is checked against, once per
        guarded :class:`VectorizedMatchGraph` construction.  Deliberately
        coarse: per-entry constants stand in for deep ``sys.getsizeof``
        walks, so the gauge is cheap enough to consult per document."""
        slots = self._n_letters + 2
        node_bytes = self._cached_steps * 8 * slots
        memo_bytes = 96 * len(self.first_memo)
        power_bytes = sum(
            sum(p.nbytes for p in powers) for powers in self._powers.values()
        )
        return node_bytes + memo_bytes + power_bytes

    def __repr__(self) -> str:
        cached_powers = sum(len(p) - 1 for p in self._powers.values())
        return (
            f"VectorizedKernel(states={self.vva.n_states}, "
            f"cached_steps={self._cached_steps}, "
            f"cached_powers={cached_powers}, run_hits={self.run_hits})"
        )


def vectorized_nonempty(
    vva: VectorizedVA, document: Document | str, guard=None
) -> bool:
    """Decide ``⟦A⟧(d) ≠ ∅`` with the vectorized Boolean forward pass
    (one adaptive frontier sweep — see :meth:`VectorizedKernel.frontier`)."""
    doc = as_document(document)
    indexed = vva.indexed
    mask = vva.kernel().frontier(doc, 1 << indexed.initial_id, guard=guard)
    return bool(mask & indexed.accept_mask)


# -- the per-document graph ---------------------------------------------------


class VectorizedMatchGraph(IndexedMatchGraph):
    """The layered match graph on one document, with plane-array layers.

    Construction runs only the adaptive Boolean forward frontier (enough
    for :attr:`is_empty`).  The per-layer forward masks, the backward
    co-reachability pass, and the layer gauges are computed through the
    shared :class:`VectorizedKernel` and the ``(len(d) + 1, n_planes)``
    uint64 plane arrays; the reachable ∩ co-reachable intersection is one
    whole-document vectorized AND.

    :meth:`enumerate` is *inherited* from :class:`IndexedMatchGraph` —
    the DFS, edge rows, the quiet-stretch and forced-stretch skips, and
    mapping reconstruction are the indexed code, reading ``alive``
    through the overridden property (plane arrays unpacked to Python-int
    layers once, on demand).  :meth:`first` never touches those layers:
    it walks interned co-reachability nodes with a kernel-level
    greedy-choice memo.

    A guarded construction checks the shared kernel's cache footprint
    (:meth:`VectorizedKernel.cache_bytes_estimate`) against the guard's
    ``cache_bytes`` budget once, after its forward sweep.
    """

    __slots__ = (
        "vva",
        "_vkernel",
        "_forward_planes",
        "_alive_planes",
        "_cnodes",
    )

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
        self._kernel = None  # the scalar-kernel slot of the base stays unused
        self._forward_planes = None
        self._alive_planes = None
        self._cnodes = None
        kernel = self._vkernel = vva.kernel()
        self._runs = tuple(_encoded_runs(self.document.runs(), indexed.alphabet))
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

    def extended(
        self, document: Document | str, guard=None
    ) -> "VectorizedMatchGraph":
        """The match graph of ``document`` — an append-extension of this
        graph's document — resumed from the checkpointed frontier (the
        vectorized mirror of the base-class override).

        The overhang advances through the shared kernel: interned frontier
        nodes per appended letter, plane-power doubling when appended
        letters merge into the tail run.  Already-materialised prefix
        forward layers carry over, extended over the overhang; the plane
        arrays, co-reachability nodes, quiet-stretch memo, and edge rows
        rebuild lazily (they are pruned against the acceptance of the
        *new* final layer).  A tail session's re-evaluation needs none of
        them: the inherited
        :meth:`~repro.va.indexed.IndexedMatchGraph.enumerate_since` walks
        back from the final layer over the carried forward layers
        and stops at the checkpoint, so an append that completes no match
        costs O(appended) and each new mapping one walk back to layer 0.
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
        graph = VectorizedMatchGraph.__new__(VectorizedMatchGraph)
        graph.vva = self.vva
        graph.indexed = indexed
        graph.document = doc
        graph._guard = guard
        graph._n = n
        graph._letter_ids = None
        graph._forward = None
        graph._alive = None
        graph._quiet_ends = None
        graph._kernel = None
        graph._forward_planes = None
        graph._alive_planes = None
        graph._cnodes = None
        kernel = graph._vkernel = self._vkernel
        ids_get = indexed.alphabet.ids.get
        old_runs = self._runs
        keep = max(len(old_runs) - 1, 0)
        graph._runs = old_runs[:keep] + tuple(
            _encoded_runs(doc.runs()[keep:], indexed.alphabet)
        )
        mask = self._frontier
        for lid, start, length in graph._runs[keep:]:
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
        if self._forward is not None:
            forward = list(self._forward)
            forward.extend([0] * (n - old_n))
            m = self._frontier
            i = old_n
            for ch in doc.text[old_n:]:
                if not m:
                    break
                lid = ids_get(ch, -1)
                if lid < 0:
                    break
                m = kernel.step(lid, m)
                if not m:
                    break
                i += 1
                forward[i] = m
            graph._forward = forward
        if guard is not None:
            guard.gauge_cache_bytes(kernel.cache_bytes_estimate())
        graph._frontier = mask
        final_mask = mask & indexed.accept_mask
        graph.final_mask = final_mask
        accept = indexed.accept
        graph.final = {sid: accept[sid] for sid in iter_bits(final_mask)}
        graph._edges = [None] * n
        return graph

    # -- plane-backed layer materialisation --------------------------------

    @property
    def forward(self) -> "list[int]":
        """Forward-reachable masks per layer (int form, built once): the
        interned-node walk over the runs, with fixpoint slice fill."""
        forward = self._forward
        if forward is None:
            n = self._n
            guard = self._guard
            forward = [0] * (n + 1)
            mask = forward[0] = 1 << self.indexed.initial_id
            kernel = self._vkernel
            mask_slot = kernel._mask_slot
            extend = kernel.extend
            node = kernel.node(mask)
            for lid, start, length in self._runs:
                if guard is not None:
                    guard.check()
                if lid < 0 or not node[mask_slot]:
                    break
                end = start + length
                i = start
                while i < end:
                    nxt = node[lid]
                    if nxt is None:
                        nxt = kernel.extend(node, lid)
                    i += 1
                    forward[i] = nxt[mask_slot]
                    if nxt is node:
                        # Fixpoint: the rest of the run repeats this mask.
                        forward[i + 1 : end + 1] = [nxt[mask_slot]] * (end - i)
                        i = end
                    node = nxt
                if not node[mask_slot]:
                    break
            self._forward = forward
        return forward

    @property
    def forward_planes(self):
        """The forward layers as a ``(n + 1, n_planes)`` uint64 array."""
        planes = self._forward_planes
        if planes is None:
            planes = self._forward_planes = _planes_from_masks(
                self.forward, self.vva.n_planes
            )
        return planes

    def _coreach_nodes(self) -> "list[list]":
        """Interned co-reachability nodes per layer: the pure backward
        recurrence ``C[i] = pred(C[i + 1])`` from the accepting layer,
        with node-identity fixpoint slice fill inside runs."""
        cnodes = self._cnodes
        if cnodes is None:
            kernel = self._vkernel
            guard = self._guard
            n = self._n
            node = kernel.pred_node(self.final_mask)
            cnodes = [node] * (n + 1)
            if self.final_mask:
                for lid, start, length in reversed(self._runs):
                    if guard is not None:
                        guard.check()
                    i = start + length - 1
                    while i >= start:
                        nxt = node[lid]
                        if nxt is None:
                            nxt = kernel.pred_extend(node, lid)
                        cnodes[i] = nxt
                        if nxt is node:
                            # Fixpoint: the rest of the run repeats it.
                            cnodes[start:i] = [nxt] * (i - start)
                            i = start
                        i -= 1
                        node = nxt
            else:
                cnodes[:n] = [kernel.pred_node(0)] * n
            self._cnodes = cnodes
        return cnodes

    @property
    def alive_planes(self):
        """Live (reachable ∩ co-reachable) plane layers.

        Chains the backward co-reachability nodes, packs them, and
        intersects with the forward layers in one whole-document
        vectorized AND — equal to the indexed backend's per-layer pruning
        (a forward state's successor along any path is itself forward, so
        intersecting late loses nothing)."""
        planes = self._alive_planes
        if planes is None:
            np = NUMPY
            n_planes = self.vva.n_planes
            if not self.final_mask:
                planes = np.zeros((self._n + 1, n_planes), dtype=_U64)
            else:
                mask_slot = self._vkernel._mask_slot
                coreach = [node[mask_slot] for node in self._coreach_nodes()]
                planes = self.forward_planes & _planes_from_masks(
                    coreach, n_planes
                )
            self._alive_planes = planes
            guard = self._guard
            if (
                guard is not None
                and guard.budget is not None
                and guard.budget.states is not None
            ):
                guard.charge_states(int(_popcounts(planes).sum()))
        return planes

    @property
    def alive(self) -> "list[int]":
        """Live masks per layer in int form (unpacked once, for the
        inherited DFS and edge rows)."""
        alive = self._alive
        if alive is None:
            alive = self._alive = _masks_from_planes(self.alive_planes)
        return alive

    # -- gauges -----------------------------------------------------------

    def states_alive(self) -> int:
        """Total live states across all layers (vectorized popcount)."""
        return int(_popcounts(self.alive_planes).sum())

    def width(self) -> int:
        """Maximum number of live states in any layer."""
        counts = _popcounts(self.alive_planes)
        return int(counts.max()) if counts.size else 0

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
    is built on the first ``next()``)."""
    if isinstance(vectorized, VA):
        if not is_sequential(vectorized):
            raise NotSequentialError(
                "vectorized enumeration requires a sequential VA"
            )
        vectorized = vectorized.vectorized()
    yield from VectorizedMatchGraph(vectorized, document).enumerate(limit=limit)
