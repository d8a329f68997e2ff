"""The run-compressed Boolean transition kernel.

The per-document cost of the indexed evaluation substrate
(:mod:`repro.va.indexed`) is dominated by the layer-by-layer forward and
backward sweeps: one mask application per document letter.  When the
document has long maximal runs of a single letter, that is wasted work —
the transition of a letter σ is a *state-mask transformer* ``f_σ`` (a map
from state bitsets to state bitsets that distributes over union), and
consuming a run of ``r`` copies of σ applies ``f_σ^r``.

:class:`TransitionKernel` exploits this two ways:

* **Fixpoint absorption** — if ``f_σ(m) == m`` the frontier is stable and
  the whole remaining run advances in O(1).  This is the common case:
  frontiers under a repeated letter typically stabilise after a handful of
  steps.
* **Repeated doubling** — otherwise the kernel composes transformers
  ``f_σ^(2^k)`` and memoizes them per ``(letter, 2^k)``, so *any* run of
  length ``r`` advances in ``O(log r)`` mask applications.  Powers are
  document independent and shared across every document evaluated through
  the same :class:`~repro.va.indexed.IndexedVA`.

The kernel also serves the backward co-reachability pass through
:meth:`pred_row`, the per-letter *predecessor* transformer (the transpose
of the successor relation), and keeps a cumulative :attr:`run_hits`
counter the engine samples into ``EngineStats.kernel_run_hits``.

Whether a document advances per run at all is one rule,
:func:`takes_run_walk`: documents of long runs take the *run walk* through
the kernel, text (mean run length near 1) takes the *letter walk*, one
mask step per letter.  :func:`run_walk_runs` decides it for a document
from one scan that stops once the document has too many runs to qualify,
so text never builds a run-length encoding.  The indexed substrate routes
through it (:class:`~repro.va.indexed.IndexedMatchGraph`,
:func:`~repro.va.indexed.indexed_nonempty`), and so does the vectorized
one (:func:`~repro.va.vectorized.vectorized_graph`,
:func:`~repro.va.vectorized.vectorized_nonempty`), which sends the run
walk's documents to the indexed code, so this kernel is the only run
walk there is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    """Run-compressed transition stepping for one :class:`IndexedVA`.

    Attributes:
        successor_masks: the per-letter base transformers (one application
            = one letter consumed), borrowed from the indexed automaton.
        n_states: number of dense states.
        run_hits: cumulative count of compressed run advances (runs of
            length ≥ 2 served by fixpoint absorption or power doubling
            instead of per-letter stepping).
    """

    __slots__ = ("successor_masks", "n_states", "_powers", "_preds", "run_hits")

    def __init__(self, indexed: "IndexedVA"):
        self.successor_masks = indexed.successor_masks
        self.n_states = indexed.n_states
        # _powers[letter_id][k] is the transformer of 2^k applications of
        # the letter; built on demand, memoized per (letter, 2^k).
        self._powers: dict[int, list[list[int]]] = {}
        self._preds: dict[int, list[int]] = {}
        self.run_hits = 0

    def step(self, letter_id: int, mask: int) -> int:
        """One letter: the image of the state set ``mask``."""
        return apply_masks(self.successor_masks[letter_id], mask)

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

    def __repr__(self) -> str:
        cached = self.cached_power_count()
        return (
            f"TransitionKernel(states={self.n_states}, "
            f"cached_powers={cached}, run_hits={self.run_hits})"
        )
