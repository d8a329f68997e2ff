"""Per-engine run statistics.

One :class:`EngineStats` instance lives on each
:class:`~repro.engine.core.Engine` and is updated by every evaluation that
flows through it: plan-cache behaviour, static-vs-ad-hoc compilation
counts, compile/enumerate wall time, and match-graph size.  ``snapshot()``
copies the counters so callers can diff before/after a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


@dataclass
class EngineStats:
    """Counters for one engine instance (cumulative across queries).

    Attributes:
        documents: documents evaluated.
        mappings: mappings yielded to callers.
        plan_hits / plan_misses: compiled-plan cache behaviour — a miss
            builds the plan and compiles its static prefix.
        static_reuses: static plan nodes served from the plan's cache
            instead of being recompiled for a document.
        adhoc_compiles: ad-hoc plan nodes (differences, black boxes)
            compiled for a specific document.
        document_hits / document_misses: per-document prepared-VA cache
            (fully-static plans hit on every document after the first;
            ad-hoc plans hit only when the engine's document cache is
            enabled and the same text recurs).
        nonempty_checks: emptiness decisions served by the Boolean bitmask
            pass (no enumeration edges built).
        prefilter_rejects: documents rejected by the VA-derived prefilter
            (:mod:`repro.va.prefilter`) before any graph was built or the
            document was even encoded — including documents pruned by the
            corpus index without ever being fetched from the store.
        index_hits: batch/stream calls answered through a
            :class:`~repro.corpus.CorpusStore` index plan (posting-list
            intersections and range scans) instead of a corpus walk.
        index_candidates: candidate documents produced by those index
            plans — everything else was pruned without touching a row.
        hydrations: documents fetched from a corpus store with their
            cached artifacts pre-seeded — the letter histogram and the
            exact run count, plus the run-length encoding of a document
            that takes the run walk — so each hydration skips a
            ``letter_counts()`` recomputation and routes to its walk with
            no scan of the text.
        kernel_run_hits: letter runs advanced by the run-compressed
            transition kernel (fixpoint absorption or power doubling)
            instead of per-letter stepping.
        frontier_cache_misses: frontier transitions the letter walk
            actually computed (one mask application each) — every other
            position was served by the kernel's interned frontier nodes
            (``0`` on the documents that take the run walk, and on
            Theorem 4.8's per-document forms).
        edge_rows_batched: always ``0``.  It counted the edge-row
            contexts of a batched DFS that is gone; the field stays only
            because the repository benchmark (``perfbench/harness.py``)
            reads it from :meth:`as_dict`, and goes with that benchmark's
            next change.
        tail_reevaluations: incremental ``TailSession.reevaluate()`` calls
            (including ones short-circuited by the prefilter).
        tail_reused_layers: document layers served from a checkpointed
            prior run during tail re-evaluations — work the full rebuild
            would have repeated.
        tail_recomputed_layers: document layers actually computed during
            tail re-evaluations (the appended overhang on an extension;
            the whole document on a rebuild or a non-extending backend).
        parallel_shards: worker shards dispatched by
            ``evaluate_many(workers=N)``; shard counters are merged back
            into the parent engine, so times are summed CPU time across
            processes, not wall time.
        rules_fired: total optimizer rewrites applied across plan builds.
        rule_fires: per-rule fired counts (rule name → count).
        cse_hits: physical plan nodes served by common-subexpression
            elimination — duplicate logical subtrees sharing one compiled
            node, within a plan and (for static subtrees) across plans.
        fingerprint_hits: plan-cache hits served by the structural
            fingerprint of the optimized logical plan (structurally equal
            queries built from distinct atom objects).
        guard_checks: :class:`~repro.engine.guards.ExecutionGuard`
            checkpoints evaluated (full ``check()`` calls — strided
            ``tick()`` calls that skipped the clock are not counted).
        deadline_hits: evaluations stopped by a guard deadline.
        budget_hits: evaluations stopped by a guard resource budget.
        shard_retries: parallel shards lost to a crashed worker process
            and recomputed serially in the parent.
        store_retries: corpus-store sqlite calls that hit a transient
            locked/busy error and succeeded on a bounded-backoff retry.
        parallel_fallbacks: reasons ``evaluate_many(workers=N)`` fell back
            to sequential evaluation (reason → count); the one reason is
            ``pickle: …``, the query failed to serialise (e.g. a black-box
            spanner over a lambda), named by the error pickle raised.
        compile_seconds: wall time spent compiling and preparing automata.
        enumerate_seconds: wall time spent inside enumeration.
        states_explored: total live match-graph states across all runs.
    """

    documents: int = 0
    mappings: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    static_reuses: int = 0
    adhoc_compiles: int = 0
    document_hits: int = 0
    document_misses: int = 0
    nonempty_checks: int = 0
    prefilter_rejects: int = 0
    index_hits: int = 0
    index_candidates: int = 0
    hydrations: int = 0
    kernel_run_hits: int = 0
    frontier_cache_misses: int = 0
    edge_rows_batched: int = 0
    tail_reevaluations: int = 0
    tail_reused_layers: int = 0
    tail_recomputed_layers: int = 0
    parallel_shards: int = 0
    rules_fired: int = 0
    rule_fires: dict = field(default_factory=dict)
    cse_hits: int = 0
    fingerprint_hits: int = 0
    guard_checks: int = 0
    deadline_hits: int = 0
    budget_hits: int = 0
    shard_retries: int = 0
    store_retries: int = 0
    parallel_fallbacks: dict = field(default_factory=dict)
    compile_seconds: float = 0.0
    enumerate_seconds: float = 0.0
    states_explored: int = 0

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counters."""
        copy = replace(self)
        copy.rule_fires = dict(self.rule_fires)
        copy.parallel_fallbacks = dict(self.parallel_fallbacks)
        return copy

    def merge(self, other: "EngineStats") -> None:
        """Add another stats object's counters into this one (used to fold
        per-shard worker statistics back into the parent engine)."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                merged = dict(mine)
                for key, value in theirs.items():
                    merged[key] = merged.get(key, 0) + value
                setattr(self, f.name, merged)
            else:
                setattr(self, f.name, mine + theirs)

    def delta(self, since: "EngineStats") -> "EngineStats":
        """The counter differences ``self - since``."""
        values = {}
        for f in fields(self):
            mine, base = getattr(self, f.name), getattr(since, f.name)
            if isinstance(mine, dict):
                diff = {
                    key: mine.get(key, 0) - base.get(key, 0)
                    for key in mine.keys() | base.keys()
                }
                values[f.name] = {key: v for key, v in diff.items() if v}
            else:
                values[f.name] = mine - base
        return EngineStats(**values)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        return out

    def summary(self) -> str:
        """A compact human-readable one-per-line report."""
        lines = [
            f"documents          {self.documents}",
            f"mappings           {self.mappings}",
            f"plan cache         {self.plan_hits} hit / {self.plan_misses} miss",
            f"prepared documents {self.document_hits} hit / {self.document_misses} miss",
            f"static reuses      {self.static_reuses}",
            f"ad-hoc compiles    {self.adhoc_compiles}",
            f"nonempty checks    {self.nonempty_checks}",
            f"prefilter rejects  {self.prefilter_rejects}",
            f"index hits         {self.index_hits}"
            f" ({self.index_candidates} candidates)",
            f"hydrations         {self.hydrations}",
            f"kernel run hits    {self.kernel_run_hits}",
            f"frontier misses    {self.frontier_cache_misses}",
            f"tail reevaluations {self.tail_reevaluations}"
            f" ({self.tail_reused_layers} layers reused /"
            f" {self.tail_recomputed_layers} recomputed)",
            f"parallel shards    {self.parallel_shards}",
            f"optimizer rewrites {self.rules_fired}{self._rule_breakdown()}",
            f"plan CSE hits      {self.cse_hits}",
            f"fingerprint hits   {self.fingerprint_hits}",
            f"guard checks       {self.guard_checks}"
            f" ({self.deadline_hits} deadline /"
            f" {self.budget_hits} budget trips)",
            f"shard retries      {self.shard_retries}"
            f"{self._fallback_breakdown()}",
            f"store retries      {self.store_retries}",
            f"compile time       {self.compile_seconds * 1e3:.2f} ms",
            f"enumerate time     {self.enumerate_seconds * 1e3:.2f} ms",
            f"states explored    {self.states_explored}",
        ]
        return "\n".join(lines)

    def _fallback_breakdown(self) -> str:
        if not self.parallel_fallbacks:
            return ""
        parts = ", ".join(
            f"{name} ×{count}"
            for name, count in sorted(self.parallel_fallbacks.items())
        )
        return f" (serial fallbacks: {parts})"

    def _rule_breakdown(self) -> str:
        if not self.rule_fires:
            return ""
        parts = ", ".join(
            f"{name} ×{count}" for name, count in sorted(self.rule_fires.items())
        )
        return f" ({parts})"
