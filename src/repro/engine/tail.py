"""Incremental evaluation over growing documents (the log-tailing runtime).

The match graph is layered by position, so appending ``k`` letters to a
document only *extends* the frontier — nothing in the first ``n`` layers
changes.  A :class:`TailSession` exploits that end to end: it holds one
(query, document) pair, accumulates appends through
:meth:`~repro.core.document.Document.append` (O(k) interpreter steps
plus O(document) copies done in C), and re-evaluates by resuming the
backend's Boolean forward pass from the previous run's checkpointed
frontier (:meth:`~repro.va.indexed.IndexedMatchGraph.extended`) instead
of rebuilding from position 0.  An extension keeps the walk of the run it
extends, so the session keeps the walk its first run chose (the run walk
or the letter walk, see :mod:`repro.va.indexed`) until :meth:`reset`.
Until the document first matches, an append only advances the
checkpoint: on the run walk, appends that merge into its tail run
advance through the kernel's memoized transformer powers, so a long
quiet stretch costs O(log extra) steps, not even O(k), and on the letter
walk each appended letter is one interned-node step; after that, the
forward layers the walk below needs are extended instead.

:meth:`TailSession.reevaluate` returns only the *new* mappings — those
not produced by any earlier re-evaluation.  The run walks back from its
final layer (:meth:`~repro.va.indexed.IndexedMatchGraph.enumerate_since`)
and drops, at the checkpoint's layer, the branches that can only end in
mappings of the checkpointed document; whatever else it yields is checked
against the set of everything already emitted, not against a span
predicate: an append can complete a match whose every capture operation
lies in the old region (``x{a}bb`` on ``"ab" + "b"`` captures ``a`` at
position 1), so "spans ending in the appended region" is not a sound
filter, but mappings are hashable and the emitted set is exact.

Cost model (when incremental reuse wins — see the README's streaming
section):

* **Quiet appends** (the monitoring regime: most appends complete no
  match) cost one checkpoint resume over the overhang plus, once the
  document has matched, a walk back over the appended layers that stops
  at the checkpoint — O(appended) interpreter steps, independent of the
  mappings already emitted, plus O(document) copies done in C: the append
  copies the text, the run tuple and every cached encoding, and the
  extension copies the run tuple and the carried forward layers.  The
  committed E18 baseline (``BENCH_incremental.json``) puts a quiet
  append at 0.098 ms on a 10k-letter document and 0.414 ms at 50k.
* **Prefilter-rejected states** are cheaper still: while the accumulated
  document cannot possibly match (a must-occur letter absent), the
  session answers from the O(1) histogram check without touching the
  backend at all, and extends from the last checkpoint once the
  prefilter admits.
* **Matching re-evaluations** pay, per new mapping, a walk back over its
  captured region, plus sorting the new mappings into canonical order: a
  branch that has chosen an operation stops at the first layer where its
  states are all clean (:attr:`~repro.va.indexed.IndexedVA.clean_mask`),
  rather than walking on to layer 0.  Mappings emitted earlier are not
  walked again.  The first matching evaluation after a rebuild also
  expands the forward layers once; later extensions carry them over.
* **Rebuilds** — the first re-evaluation, the first after :meth:`reset`,
  and every one for which the query prepares a new automaton (ad-hoc
  plans prepare one per document, unless the plan hands back the
  automaton it prepared last, as a synchronized difference does with its
  minuend while the subtrahend extracts nothing) — build the run from
  position 0 and enumerate everything;
  :class:`~repro.engine.stats.EngineStats` attributes reused vs.
  recomputed layers either way.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..core.document import Document, as_document
from ..core.mapping import Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..va.indexed import IndexedMatchGraph
    from .backends import PreparedIndexedVA
    from .core import ExecutionContext


def _canonical_key(mapping: Mapping) -> tuple:
    """The sort key of canonical enumeration order.

    Enumeration picks one operation set per position, from position 1 on,
    in :func:`~repro.va.matchgraph.opset_sort_key` order, where the empty
    set comes first; so two mappings of one document compare at the first
    position where their operations differ.  Listing only the positions
    that carry operations, as ``(-position, operations)`` pairs in
    position order, keeps that order: where one mapping has an operation
    and the other has none, the other's next pair holds a later position,
    so its negated position is smaller, or it has no next pair at all."""
    ops: dict[int, list[tuple[str, bool]]] = {}
    for var, span in mapping.items():
        ops.setdefault(span.begin, []).append((var, False))
        ops.setdefault(span.end, []).append((var, True))
    return tuple((-position, sorted(ops[position])) for position in sorted(ops))


class TailSession:
    """An incremental evaluation handle for one query on one growing
    document.

    Build via :meth:`Engine.tail(query) <repro.engine.core.Engine.tail>`.
    Feed text with :meth:`append` (cheap, no evaluation), then call
    :meth:`reevaluate` to get the mappings that are new since the last
    call; ``reevaluate(text)`` combines both.  The session shares its
    engine's compiled plan, prepared automaton, statistics, and kernel
    caches.

    Attributes:
        document: the accumulated :class:`~repro.core.document.Document`.
        reevaluations: completed :meth:`reevaluate` calls.
        total_matches: mappings emitted across the session's lifetime.
    """

    __slots__ = (
        "_context",
        "document",
        "_prepared",
        "_run",
        "_run_n",
        "_seen",
        "reevaluations",
        "total_matches",
    )

    def __init__(self, context: "ExecutionContext", document: Document | str = ""):
        self._context = context
        self.document = as_document(document)
        self._prepared: "PreparedIndexedVA | None" = None
        self._run: "IndexedMatchGraph | None" = None
        self._run_n = 0
        self._seen: set[Mapping] = set()
        self.reevaluations = 0
        self.total_matches = 0

    def __len__(self) -> int:
        return len(self.document)

    def append(self, text: str) -> None:
        """Grow the document by ``text`` without evaluating — the cached
        artifacts (runs, histogram, encodings) extend in O(len(text))
        interpreter steps plus O(document) copies done in C."""
        if text:
            self.document = self.document.append(text)

    def reset(self, document: "Document | str" = "") -> None:
        """Restart the session on ``document``, discarding the checkpoint
        and the emitted-mapping memory.

        The recovery path for sources that went *backwards* — a tailed
        file that was truncated, rotated, or replaced.  Append-only
        resumption is unsound there (the old frontier describes letters
        that no longer exist), so the next :meth:`reevaluate` rebuilds
        from position 0 and re-emits every mapping of the new content.
        Session lifetime counters (:attr:`reevaluations`,
        :attr:`total_matches`) survive; the compiled plan and kernel
        caches are shared with the engine and stay warm.
        """
        self.document = as_document(document)
        self._prepared = None
        self._run = None
        self._run_n = 0
        self._seen = set()

    def reevaluate(self, text: str = "") -> list[Mapping]:
        """Append ``text`` (optional) and return the mappings that are new
        since the previous call: the accumulated document's mappings in
        canonical enumeration order (the order every backend's
        ``enumerate`` yields), minus every mapping emitted since the last
        :meth:`reset`.

        The union of every call's results is the union of the evaluations
        of every re-evaluated prefix, which for a non-monotone query is not
        the evaluation of the accumulated document: with ``x{a}``,
        ``reevaluate("a")`` emits x↦[1, 2⟩, and ``"aa"`` has no mapping.
        The hypothesis suite pins both properties across all backends.
        """
        self.append(text)
        doc = self.document
        stats = self._context.stats
        stats.tail_reevaluations += 1
        self.reevaluations += 1
        prefilter = self._context.prefilter()
        if prefilter is not None and not prefilter.admits(doc):
            # Proven empty from the histogram alone: no graph, no letter
            # work.  The prior run's checkpoint stays valid — extension
            # spans multi-append gaps — so the next admitted re-evaluation
            # still resumes instead of rebuilding.
            stats.prefilter_rejects += 1
            return []
        context = self._context
        prepared = context.prepared_for(doc)
        n = len(doc)
        start = time.perf_counter()
        if self._run is not None and prepared is self._prepared:
            run = context._counted(prepared, prepared.run_extended, self._run, doc)
            # Every mapping of the checkpointed document is in `_seen`.
            since = self._run_n
            stats.tail_reused_layers += since
            stats.tail_recomputed_layers += n - since
        else:
            run = context._counted(prepared, prepared.run, doc)
            since = -1
            stats.tail_recomputed_layers += n
        stats.compile_seconds += time.perf_counter() - start
        self._prepared = prepared
        self._run = run
        self._run_n = n
        if run.is_empty:
            return []
        seen = self._seen
        start = time.perf_counter()
        fresh = context._counted(
            prepared,
            list,
            (m for m in run.enumerate_since(since) if m not in seen),
        )
        fresh.sort(key=_canonical_key)
        stats.enumerate_seconds += time.perf_counter() - start
        seen.update(fresh)
        stats.mappings += len(fresh)
        self.total_matches += len(fresh)
        return fresh

    def __repr__(self) -> str:
        return (
            f"TailSession(letters={len(self.document)}, "
            f"reevaluations={self.reevaluations}, "
            f"matches={self.total_matches})"
        )
