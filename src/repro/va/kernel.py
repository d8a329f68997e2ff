"""The transition kernel: both walks of the indexed substrate.

The per-document cost of the indexed evaluation substrate
(:mod:`repro.va.indexed`) is dominated by the layer-by-layer forward and
backward sweeps.  The transition of a letter σ is a *state-mask
transformer* ``f_σ`` (a map from state bitsets to state bitsets that
distributes over union, :func:`~repro.utils.bits.apply_masks` over the
letter's successor masks).  :class:`TransitionKernel` serves every
document evaluated through one :class:`~repro.va.indexed.IndexedVA`, in
one of two walks:

* **The run walk** — when the document has long maximal runs of a single
  letter, consuming a run of ``r`` copies of σ applies ``f_σ^r``.  If
  ``f_σ(m) == m`` the frontier is stable and the rest of the run advances
  in O(1) (*fixpoint absorption*, the common case); otherwise the kernel
  composes transformers ``f_σ^(2^k)`` and memoizes them per
  ``(letter, 2^k)`` (*repeated doubling*), so any run of length ``r``
  advances in ``O(log r)`` mask applications.  The backward
  co-reachability pass runs on :meth:`pred_row`, the per-letter
  *predecessor* transformer (the transpose of the successor relation).
* **The letter walk** — on text, where the mean run is short, the kernel
  interns every frontier it has seen as a *node* whose per-letter
  successor slots fill in on first use: the on-the-fly subset
  construction of Florenzano et al. (PODS 2018), over exactly the
  frontiers the documents reach.  The hot loop is ``node =
  node[letter_id]``, one list index per letter; only a cache miss
  applies a transformer (:meth:`extend`).  The backward pass walks a
  second node family over the predecessor transformers the same way
  (:meth:`pred_extend`), and :meth:`IndexedMatchGraph.first
  <repro.va.indexed.IndexedMatchGraph.first>` memoizes its greedy
  per-layer choice in :attr:`first_memo`.  Real workloads revisit a
  handful of distinct frontiers; an automaton whose subset construction
  outgrows :attr:`STEP_CACHE_LIMIT` keeps computing its misses on
  transient nodes.

Powers, nodes and the memo are document independent and shared by every
document and engine that evaluates the automaton.  The kernel counts
:attr:`run_hits` and :attr:`step_misses`, which the engine samples into
``EngineStats.kernel_run_hits`` and ``EngineStats.frontier_cache_misses``.

Which walk a document takes is one rule, :func:`takes_run_walk`.
:func:`run_walk_runs` decides it for a document from one scan that stops
once the document has too many runs to qualify, so text never builds a
run-length encoding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..utils.bits import apply_masks, iter_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.document import Document
    from .indexed import IndexedVA


#: The mean run length from which a document takes the run walk.
RUN_WALK_THRESHOLD = 4


def takes_run_walk(length: int, runs: int) -> bool:
    """Whether a document of ``length`` letters in ``runs`` maximal runs
    takes the run walk (``length ≥ RUN_WALK_THRESHOLD · runs``) rather
    than the letter walk.  The empty document has no runs and takes the
    run walk, which has nothing to walk."""
    return length >= RUN_WALK_THRESHOLD * runs


def run_walk_runs(document: "Document") -> "tuple[tuple[str, int, int], ...] | None":
    """The maximal runs of ``document`` if it takes the run walk, else
    ``None`` — :func:`takes_run_walk` decided by a scan that stops past
    the most runs the rule admits (``len // RUN_WALK_THRESHOLD``; a
    threshold of 0 admits every document), through
    :meth:`~repro.core.document.Document.runs_within`.  A document with
    cached runs (a store-hydrated one, say) routes from those."""
    threshold = RUN_WALK_THRESHOLD
    length = len(document)
    return document.runs_within(length // threshold if threshold else length)


def compose(outer: "list[int]", inner: "list[int]") -> "list[int]":
    """The transformer applying ``inner`` then ``outer`` (per-state)."""
    return [apply_masks(outer, row) for row in inner]


class TransitionKernel:
    """Transition stepping for one :class:`IndexedVA`: memoized run
    powers for the run walk, interned frontier nodes for the letter walk.

    A node is a list: ``node[letter_id]`` is the successor node (``None``
    until computed), ``node[n_letters]`` the frontier's int mask, and
    ``node[n_letters + 1]`` a kernel-unique small id, the handle of the
    ``first()`` memo.  Separate node families cover the successor and the
    predecessor relation.

    Attributes:
        successor_masks: the per-letter base transformers (one application
            = one letter consumed), borrowed from the indexed automaton.
        n_states: number of dense states.
        run_hits: cumulative count of compressed run advances (runs of
            length ≥ 2 served by fixpoint absorption or power doubling
            instead of per-letter stepping).
        step_misses: cumulative count of node transitions actually
            computed (cache misses of the letter walk, both families).
        first_memo: the letter walk's greedy ``first()`` choices, keyed on
            ``(profile, letter id, co-reachability node id)``.
    """

    #: Total interned nodes + filled successor slots across both node
    #: families.  Real workloads reach a few dozen; the bound only
    #: matters for adversarial subset-construction blowups, which simply
    #: stop caching (transient nodes, computed per use, never linked).
    STEP_CACHE_LIMIT = 1 << 16

    #: Entries in the cross-document greedy-walk memo of ``first()``.
    FIRST_CACHE_LIMIT = 1 << 16

    __slots__ = (
        "successor_masks",
        "n_states",
        "_powers",
        "_preds",
        "run_hits",
        "_n_letters",
        "_mask_slot",
        "_id_slot",
        "_nodes",
        "_pred_nodes",
        "_next_id",
        "_cached_steps",
        "first_memo",
        "step_misses",
    )

    def __init__(self, indexed: "IndexedVA"):
        self.successor_masks = indexed.successor_masks
        self.n_states = indexed.n_states
        # _powers[letter_id][k] is the transformer of 2^k applications of
        # the letter; built on demand, memoized per (letter, 2^k).
        self._powers: dict[int, list[list[int]]] = {}
        self._preds: dict[int, list[int]] = {}
        self.run_hits = 0
        n_letters = self._n_letters = len(indexed.successor_masks)
        self._mask_slot = n_letters
        self._id_slot = n_letters + 1
        self._nodes: dict[int, list] = {}
        self._pred_nodes: dict[int, list] = {}
        self._next_id = 0
        self._cached_steps = 0
        self.first_memo: dict = {}
        self.step_misses = 0

    def step(self, letter_id: int, mask: int) -> int:
        """One letter: the image of the state set ``mask``."""
        return apply_masks(self.successor_masks[letter_id], mask)

    # -- the run walk ------------------------------------------------------

    def power(self, letter_id: int, k: int) -> "list[int]":
        """The memoized transformer of ``2^k`` copies of the letter."""
        powers = self._powers.get(letter_id)
        if powers is None:
            powers = self._powers[letter_id] = [self.successor_masks[letter_id]]
        while len(powers) <= k:
            previous = powers[-1]
            powers.append(compose(previous, previous))
        return powers[k]

    def advance(self, letter_id: int, mask: int, length: int) -> int:
        """The frontier after a run of ``length`` copies of the letter.

        O(1) once the frontier hits a fixpoint of the letter's transformer,
        O(log length) power applications otherwise — never O(length).
        """
        if length <= 0 or not mask:
            return mask
        nxt = apply_masks(self.successor_masks[letter_id], mask)
        if length == 1:
            return nxt
        self.run_hits += 1
        if nxt == mask or not nxt:
            # Fixpoint (or death): the rest of the run changes nothing.
            return nxt
        remaining = length - 1
        mask = nxt
        k = 0
        while remaining and mask:
            if remaining & 1:
                mask = apply_masks(self.power(letter_id, k), mask)
            remaining >>= 1
            k += 1
        return mask

    def cached_power_count(self) -> int:
        """How many composed ``(letter, 2^k)`` transformers are memoized
        (the base ``2^0`` rows are free and not counted).

        The incremental-append path leans on this memo: extending a
        document whose appended letters merge into the tail run re-enters
        :meth:`advance` with the checkpointed frontier, and every power the
        original run already built is reused — the extension costs
        O(log extra) applications and at most O(log extra) *new*
        compositions, never a re-walk of the run.  The tail tests pin that
        by watching this gauge across extensions.
        """
        return sum(len(powers) - 1 for powers in self._powers.values())

    def pred_row(self, letter_id: int) -> "list[int]":
        """The predecessor transformer of the letter (transpose of the
        successor relation), built once per letter on demand.  Drives the
        backward co-reachability pass: ``apply_masks(pred_row(σ), L)`` is
        the set of states with at least one σ-successor in ``L``.
        """
        row = self._preds.get(letter_id)
        if row is None:
            successors = self.successor_masks[letter_id]
            row = [0] * self.n_states
            for source, targets in enumerate(successors):
                bit = 1 << source
                for target in iter_bits(targets):
                    row[target] |= bit
            self._preds[letter_id] = row
        return row

    # -- the letter walk: interned frontier nodes --------------------------

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

    def _link(self, node: list, letter_id: int, nxt: list) -> list:
        """Count one computed transition and fill its slot, within the
        cache bound."""
        self.step_misses += 1
        if self._cached_steps < self.STEP_CACHE_LIMIT:
            node[letter_id] = nxt
            self._cached_steps += 1
        return nxt

    def node(self, mask: int) -> list:
        """The successor-family node of a frontier mask."""
        return self._intern(self._nodes, mask)

    def pred_node(self, mask: int) -> list:
        """The predecessor-family node of a co-reachability mask."""
        return self._intern(self._pred_nodes, mask)

    def extend(self, node: list, letter_id: int) -> list:
        """The forward cache-miss path: the node of the states reached
        from ``node``'s by one ``letter_id``, linked into its slot."""
        nxt = self.node(self.step(letter_id, node[self._mask_slot]))
        return self._link(node, letter_id, nxt)

    def pred_extend(self, node: list, letter_id: int) -> list:
        """The backward cache-miss path: the node of the states with a
        ``letter_id`` successor in ``node``'s, linked into its slot."""
        nxt = self.pred_node(
            apply_masks(self.pred_row(letter_id), node[self._mask_slot])
        )
        return self._link(node, letter_id, nxt)

    def frontier(self, ids: "Sequence[int]", mask: int, guard=None) -> int:
        """The frontier after the letter ids ``ids``, started at ``mask``:
        one node step, a list index, per letter.  ``0`` when an id is
        ``-1`` (a letter unknown to the VA kills every run through it),
        found by one scan of ``ids`` before the walk, so no ``-1`` indexes
        a node.  A frontier that dies walks on in the empty node.

        A ``guard`` leaves the unguarded hot loop untouched: a chunked
        twin runs instead and checks it once per ~4k letters.
        """
        if not mask or -1 in ids:
            return 0
        node = self.node(mask)
        extend = self.extend
        if guard is None:
            for lid in ids:
                nxt = node[lid]
                node = nxt if nxt is not None else extend(node, lid)
        else:
            for start in range(0, len(ids), 4096):
                guard.check()
                for lid in ids[start : start + 4096]:
                    nxt = node[lid]
                    node = nxt if nxt is not None else extend(node, lid)
        return node[self._mask_slot]

    def walk(self, ids: "Sequence[int]", mask: int, layers: "list[int]", guard=None) -> int:
        """Append to ``layers`` the frontier after each letter id of
        ``ids``, started at ``mask``, one node step per letter, and return
        the last one.  At an id of ``-1`` (a letter unknown to the VA) it
        returns ``0`` and appends nothing more.  The guard is checked once
        up front and ticked per letter."""
        if guard is not None:
            guard.check()
        mask_slot = self._mask_slot
        extend = self.extend
        append = layers.append
        node = self.node(mask)
        for lid in ids:
            if guard is not None:
                guard.tick()
            if lid < 0:
                return 0
            nxt = node[lid]
            node = nxt if nxt is not None else extend(node, lid)
            append(node[mask_slot])
        return node[mask_slot]

    def cache_bytes_estimate(self) -> int:
        """A rough gauge of the letter walk's cross-document cache
        footprint (interned nodes, the ``first()`` memo) — what a guard's
        ``cache_bytes`` budget is checked against, once per guarded
        letter-walk graph construction.  Deliberately coarse: per-entry
        constants stand in for deep ``sys.getsizeof`` walks, so the gauge
        is cheap enough to consult per document."""
        slots = self._n_letters + 2
        return self._cached_steps * 8 * slots + 96 * len(self.first_memo)

    def __repr__(self) -> str:
        return (
            f"TransitionKernel(states={self.n_states}, "
            f"cached_powers={self.cached_power_count()}, "
            f"run_hits={self.run_hits}, cached_steps={self._cached_steps}, "
            f"step_misses={self.step_misses})"
        )
