"""The staged execution engine.

An :class:`Engine` owns:

* a **plan cache** — every query (an :class:`~repro.algebra.planner.RAQuery`,
  a ``(tree, instantiation)`` pair, or a bare sequential VA) is compiled
  once into a :class:`~repro.engine.plan.CompiledPlan` whose static prefix
  is shared across all documents;
* the **prepared automata** (:mod:`repro.engine.backends`): each compiled
  VA in its indexed form for fast repeated evaluation, which chooses the
  run walk or the letter walk per document;
* **batch/streaming APIs** — :meth:`Engine.evaluate_many`,
  :meth:`Engine.is_nonempty_many` and :meth:`Engine.enumerate_stream`
  amortise all document-independent work over a document stream, and
  accept a persistent :class:`~repro.corpus.CorpusStore` to answer from
  its posting-list index instead of walking the corpus;
* per-run **statistics** (:class:`~repro.engine.stats.EngineStats`).

The per-query prepared state lives in an :class:`ExecutionContext`; the
engine hands the same context back for the same query, which is what makes
repeated and batched evaluation cheap.

Usage::

    engine = Engine()
    relations = engine.evaluate_many(query, ["doc one", "doc two", "doc one"])
    print(engine.stats.summary())
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterable, Iterator

from ..algebra.planner import PlannerConfig, RAQuery
from ..algebra.ra_tree import Instantiation, RANode
from ..core.document import Document, as_document
from ..core.errors import ExecutionInterrupted, SpannerError
from ..core.mapping import Mapping
from ..core.relation import SpanRelation
from ..corpus.store import CorpusSelection, CorpusStore
from ..va.automaton import VA
from ..va.prefilter import VAPrefilter
from ..va.properties import is_sequential
from .backends import PreparedIndexedVA
from .guards import Budget, CancelToken, ExecutionGuard
from .plan import CompiledPlan, StaticNode, as_va, plan_from_logical, resolve_logical
from .stats import EngineStats


def _as_corpus_selection(documents) -> "CorpusSelection | None":
    """Coerce a store (all documents, id order) or a selection; ``None``
    for ordinary document iterables."""
    if isinstance(documents, CorpusStore):
        return CorpusSelection(documents, documents.doc_ids())
    if isinstance(documents, CorpusSelection):
        return documents
    return None


class ExecutionContext:
    """Prepared per-query state: the compiled plan, the prepared static
    form (for fully static plans), the VA-derived document prefilter, and
    an optional per-document cache of prepared ad-hoc automata."""

    __slots__ = (
        "plan",
        "stats",
        "_static_prepared",
        "_reused",
        "_doc_cache",
        "_doc_cache_size",
        "_prefilter_enabled",
        "_prefilter",
    )

    def __init__(
        self,
        plan: CompiledPlan,
        stats: EngineStats,
        document_cache_size: int = 0,
        prefilter: bool = True,
    ):
        self.plan = plan
        self.stats = stats
        self._static_prepared: PreparedIndexedVA | None = None
        # The last ad-hoc VA prepared, with its prepared form: a plan node
        # hands back the same VA object for every document where its answer
        # is document independent (a synchronized difference's early
        # answers), so that VA is prepared once.
        self._reused: "tuple[VA, PreparedIndexedVA] | None" = None
        self._doc_cache: OrderedDict[str, PreparedIndexedVA] = OrderedDict()
        self._doc_cache_size = document_cache_size
        self._prefilter_enabled = prefilter
        self._prefilter: "VAPrefilter | bool | None" = None

    def prefilter(self) -> "VAPrefilter | None":
        """The document prefilter of this query, or ``None`` when
        unavailable (disabled on the engine, an ad-hoc plan suffix, or a
        non-sequential automaton).

        Only fully static plans prefilter: their single compiled VA is the
        whole query, so the VA's necessary conditions are necessary for
        the query.  Computed once and cached on the automaton."""
        cached = self._prefilter
        if cached is None:
            if not self._prefilter_enabled or not self.plan.is_fully_static:
                cached = False
            else:
                va = self.plan.root.va
                cached = va.prefilter() if is_sequential(va) else False
            self._prefilter = cached
        return cached or None

    def prepared_for(self, doc: Document) -> PreparedIndexedVA:
        """The prepared automaton evaluating the query on ``doc``."""
        stats = self.stats
        if self.plan.is_fully_static:
            if self._static_prepared is None:
                stats.document_misses += 1
                start = time.perf_counter()
                self._static_prepared = PreparedIndexedVA(self.plan.root.va)
                stats.compile_seconds += time.perf_counter() - start
                stats.static_reuses += 1
            else:
                stats.document_hits += 1
            return self._static_prepared
        key = doc.text
        cached = self._doc_cache.get(key)
        if cached is not None:
            self._doc_cache.move_to_end(key)
            stats.document_hits += 1
            return cached
        stats.document_misses += 1
        start = time.perf_counter()
        compiled = self.plan.va_for(doc, stats)
        reused = self._reused
        if reused is not None and reused[0] is compiled:
            prepared = reused[1]
        else:
            prepared = PreparedIndexedVA(compiled)
            if isinstance(compiled, VA):
                self._reused = (compiled, prepared)
        stats.compile_seconds += time.perf_counter() - start
        if self._doc_cache_size > 0:
            self._doc_cache[key] = prepared
            while len(self._doc_cache) > self._doc_cache_size:
                self._doc_cache.popitem(last=False)
        return prepared

    def _counted(self, prepared: PreparedIndexedVA, call, *args):
        """``call(*args)``, one synchronous call into the prepared
        automaton, with the growth of its kernel counters
        (:meth:`PreparedIndexedVA.counters`) during it added to
        :attr:`stats`.

        The kernels behind a prepared form are cached on the automaton
        and shared by every engine that evaluates it, so their counters
        are cumulative across all of them; growth inside one synchronous
        call, during which no other evaluation in the thread can touch
        the kernels, is this engine's own.  So every call into the
        prepared form goes through here: construction, each ``next()`` of
        an enumeration, ``first()``, ``is_nonempty()``, and a tail
        extension and its walk."""
        hits, misses = prepared.counters()
        try:
            return call(*args)
        finally:
            stats = self.stats
            now_hits, now_misses = prepared.counters()
            stats.kernel_run_hits += now_hits - hits
            stats.frontier_cache_misses += now_misses - misses

    def compile(self, doc: Document) -> VA:
        """The (possibly ad-hoc) VA for one document, without preparing it
        (a dense per-document form gives its VA view)."""
        return as_va(self.plan.va_for(doc, self.stats))

    def _absorb_trip(self, exc: ExecutionInterrupted, guard) -> bool:
        """Handle one guard trip: attribute the guard's counters, then
        either absorb it (partial mode — records the truncation reason and
        returns ``True``) or decorate it with a stats snapshot for the
        caller and return ``False`` (re-raise)."""
        guard.drain_into(self.stats)
        if guard.degrade:
            guard.truncated = exc.reason
            return True
        if exc.stats is None:
            exc.stats = self.stats.snapshot()
        return False

    def enumerate(
        self,
        document: Document | str,
        limit: int | None = None,
        guard: "ExecutionGuard | None" = None,
    ) -> Iterator[Mapping]:
        """Enumerate the query on one document, recording statistics.

        ``limit`` stops after that many mappings; the run is lazy, so a
        small limit short-circuits graph construction too, and the first
        answers arrive after one Boolean pass rather than the full edge
        build.

        A ``guard`` bounds the evaluation: construction and the DFS check
        it cooperatively, and each emitted mapping is charged against the
        ``mappings`` budget.  On a trip, ``on_budget="raise"`` propagates
        the structured exception (with a stats snapshot attached);
        ``on_budget="partial"`` ends the iteration early with
        ``guard.truncated`` recording the reason.
        """
        if limit is not None and limit <= 0:
            return
        doc = as_document(document)
        stats = self.stats
        prefilter = self.prefilter()
        if prefilter is not None and not prefilter.admits(doc):
            # Proven empty from the document's cached histogram alone: no
            # graph, no encoding, no per-letter work.
            stats.documents += 1
            stats.prefilter_rejects += 1
            return
        prepared = self.prepared_for(doc)
        stats.documents += 1
        start = time.perf_counter()
        try:
            run = self._counted(prepared, prepared.run, doc, guard)
        except ExecutionInterrupted as exc:
            stats.compile_seconds += time.perf_counter() - start
            if self._absorb_trip(exc, guard):
                return
            raise
        stats.compile_seconds += time.perf_counter() - start
        emitted = 0
        start = time.perf_counter()
        iterator = run.enumerate()
        try:
            while True:
                try:
                    mapping = self._counted(prepared, next, iterator)
                    if guard is not None:
                        guard.charge_mappings(1)
                except StopIteration:
                    stats.enumerate_seconds += time.perf_counter() - start
                    break
                except ExecutionInterrupted as exc:
                    stats.enumerate_seconds += time.perf_counter() - start
                    if self._absorb_trip(exc, guard):
                        break
                    raise
                stats.enumerate_seconds += time.perf_counter() - start
                stats.mappings += 1
                emitted += 1
                yield mapping
                if limit is not None and emitted >= limit:
                    break
                start = time.perf_counter()
        finally:
            # The DFS counts as it steps, so the gauge builds nothing.
            stats.states_explored += run.states_explored
            if guard is not None:
                guard.drain_into(stats)

    def first(
        self,
        document: Document | str,
        guard: "ExecutionGuard | None" = None,
    ) -> Mapping | None:
        """The first mapping in canonical order, or ``None`` if empty.

        Delegates to the run's dedicated
        :meth:`~repro.va.indexed.IndexedMatchGraph.first` walk — one
        Boolean forward pass plus a single greedy root-to-sink descent,
        never a full edge build.  On text (the letter walk) the descent
        prunes against interned co-reachability nodes and memoizes its
        choices across documents, so the backward ``alive`` layers are
        never built; on the run walk and on Theorem 4.8's per-document
        forms it reads them, so they are built here.  Either way it jumps
        every forced stretch, as the DFS does, and as a deliberate fast
        path it skips the ``states_explored`` gauge.
        """
        doc = as_document(document)
        stats = self.stats
        prefilter = self.prefilter()
        if prefilter is not None and not prefilter.admits(doc):
            stats.documents += 1
            stats.prefilter_rejects += 1
            return None
        prepared = self.prepared_for(doc)
        stats.documents += 1
        start = time.perf_counter()
        try:
            run = self._counted(prepared, prepared.run, doc, guard)
            stats.compile_seconds += time.perf_counter() - start
            start = time.perf_counter()
            mapping = self._counted(prepared, run.first)
            stats.enumerate_seconds += time.perf_counter() - start
        except ExecutionInterrupted as exc:
            # Decision calls have no partial prefix to degrade to, so a
            # trip always raises — partial mode only softens enumeration.
            guard.drain_into(stats)
            if exc.stats is None:
                exc.stats = stats.snapshot()
            raise
        if mapping is not None:
            stats.mappings += 1
        if guard is not None:
            guard.drain_into(stats)
        return mapping

    def is_nonempty(
        self,
        document: Document | str,
        guard: "ExecutionGuard | None" = None,
    ) -> bool:
        """Decide emptiness with the Boolean forward pass — no
        enumeration edges are built.  The prefilter answers outright for
        documents it can reject, skipping even the Boolean pass.  A guard
        trip always raises here (a Boolean answer has no usable prefix)."""
        doc = as_document(document)
        stats = self.stats
        prefilter = self.prefilter()
        if prefilter is not None and not prefilter.admits(doc):
            stats.nonempty_checks += 1
            stats.prefilter_rejects += 1
            return False
        prepared = self.prepared_for(doc)
        stats.nonempty_checks += 1
        start = time.perf_counter()
        try:
            result = self._counted(prepared, prepared.is_nonempty, doc, guard)
        except ExecutionInterrupted as exc:
            stats.enumerate_seconds += time.perf_counter() - start
            guard.drain_into(stats)
            if exc.stats is None:
                exc.stats = stats.snapshot()
            raise
        stats.enumerate_seconds += time.perf_counter() - start
        if guard is not None:
            guard.drain_into(stats)
        return result


class Engine:
    """The staged execution engine (see module docstring).

    Args:
        backend: ``None`` or ``"indexed"``, the one enumeration backend
            (:mod:`repro.engine.backends`); ``"vectorized"``, the retired
            backend whose letter walk it took over, is still accepted.
            Any other value raises :class:`SpannerError`.
        plan_cache_size: maximum number of distinct queries whose plans
            stay cached (LRU).
        document_cache_size: per-query LRU of prepared ad-hoc automata,
            keyed by document text — serves repeated documents without
            recompiling the ad-hoc suffix.  ``0`` disables it.
        optimize: run the rewrite-rule optimizer
            (:mod:`repro.engine.optimizer`) on every compiled plan
            (default).  ``False`` is the escape hatch: plans lower the
            raw logical tree exactly as written.
        prefilter: derive a document prefilter from every fully static
            plan (:mod:`repro.va.prefilter`) and reject provably
            non-matching documents in O(1), before any graph is built
            (default).  ``False`` is the escape hatch: every document
            runs the full Boolean pass.
    """

    def __init__(
        self,
        backend: "str | None" = None,
        plan_cache_size: int = 128,
        document_cache_size: int = 0,
        optimize: bool = True,
        prefilter: bool = True,
    ):
        # The repository benchmark's csv-extract engine still passes
        # "vectorized"; the name goes once that benchmark drops it.
        if backend not in (None, "indexed", "vectorized"):
            raise SpannerError(
                f"unknown enumeration backend {backend!r}; available: ['indexed']"
            )
        self.stats = EngineStats()
        self.optimize = optimize
        self.prefilter = prefilter
        self._plan_cache_size = plan_cache_size
        self._document_cache_size = document_cache_size
        self._contexts: OrderedDict[object, ExecutionContext] = OrderedDict()
        # Fingerprint-keyed StaticNodes shared across every plan this
        # engine builds (plan-level CSE, cross-query flavour).
        self._static_cache: OrderedDict[object, StaticNode] = OrderedDict()
        self._static_cache_size = max(4 * plan_cache_size, 64)

    # -- query resolution ---------------------------------------------------

    def prepare(
        self,
        query: "RAQuery | RANode | VA",
        instantiation: Instantiation | None = None,
        config: PlannerConfig | None = None,
    ) -> ExecutionContext:
        """The (cached) execution context for a query.

        Accepts an :class:`RAQuery`, a bare sequential :class:`VA`, or an
        RA tree plus its instantiation.  A plan-cache miss resolves the
        logical plan, optimizes it (unless the engine was built with
        ``optimize=False``), and compiles the static prefix; every later
        call is a hit.  Plans are cached under both a cheap structural key
        and the optimized logical plan's fingerprint, so structurally
        equal queries share one plan even when their atoms are distinct
        objects.
        """
        if isinstance(query, RAQuery):
            tree, instantiation, config = query.tree, query.instantiation, query.config
        elif isinstance(query, VA):
            return self._context_for_va(query)
        elif isinstance(query, RANode):
            if instantiation is None:
                raise SpannerError("an RA tree query needs an instantiation")
            tree = query
        else:
            raise TypeError(f"cannot evaluate a {type(query).__name__}")
        config = config or PlannerConfig()
        key = self._plan_key(tree, instantiation, config)
        context = self._contexts.get(key) if key is not None else None
        if context is not None:
            self._contexts.move_to_end(key)
            self.stats.plan_hits += 1
            return context
        start = time.perf_counter()
        logical, report = resolve_logical(
            tree, instantiation, config, self.optimize, self.stats
        )
        fp_key = ("fp", logical.fingerprint, config, self.optimize)
        context = self._contexts.get(fp_key)
        if context is not None:
            self._contexts.move_to_end(fp_key)
            self.stats.compile_seconds += time.perf_counter() - start
            self.stats.plan_hits += 1
            self.stats.fingerprint_hits += 1
            if key is not None:
                self._store(key, context)  # alias the cheap key for next time
            return context
        self.stats.plan_misses += 1
        plan = plan_from_logical(
            logical,
            tree,
            instantiation,
            config,
            report=report,
            stats=self.stats,
            static_cache=self._static_cache,
            join_bound_checked=self.optimize,
        )
        self._trim_static_cache()
        self.stats.compile_seconds += time.perf_counter() - start
        context = ExecutionContext(
            plan, self.stats, self._document_cache_size,
            prefilter=self.prefilter,
        )
        self._store(fp_key, context)
        if key is not None:
            self._store(key, context)
        return context

    def _context_for_va(self, va: VA) -> ExecutionContext:
        key = ("va", va.fingerprint())
        context = self._contexts.get(key)
        if context is not None:
            self._contexts.move_to_end(key)
            self.stats.plan_hits += 1
            return context
        self.stats.plan_misses += 1
        plan = CompiledPlan(StaticNode(va), None, None, PlannerConfig())
        context = ExecutionContext(
            plan, self.stats, self._document_cache_size,
            prefilter=self.prefilter,
        )
        self._store(key, context)
        return context

    def _store(self, key: object, context: ExecutionContext) -> None:
        self._contexts[key] = context
        # Plans are stored under several keys (structural key, fingerprint
        # key, aliases), so capacity counts distinct *plans*, not keys —
        # eviction pops the oldest keys until the plan count fits.
        while (
            len({id(c) for c in self._contexts.values()}) > self._plan_cache_size
        ):
            self._contexts.popitem(last=False)

    def _trim_static_cache(self) -> None:
        while len(self._static_cache) > self._static_cache_size:
            self._static_cache.popitem(last=False)

    @staticmethod
    def _plan_key(
        tree: RANode, instantiation: Instantiation, config: PlannerConfig
    ) -> "object | None":
        """The cheap structural cache key, or ``None`` when the query is
        not cheaply cacheable.

        Atom *objects* are embedded in the key (not their ids): the cache
        entry then keeps them alive, so a recycled ``id()`` can never
        alias a later query to a stale plan.  Regex formulas hash
        structurally; VAs and black boxes by identity.  An exotic
        unhashable atom opts the query out of this cache — the
        fingerprint-keyed path still serves it.
        """
        atoms = tuple(
            sorted(instantiation.spanners.items(), key=lambda item: item[0])
        )
        slots = tuple(
            sorted(
                (slot, frozenset(variables))
                for slot, variables in instantiation.projections.items()
            )
        )
        key = (tree, atoms, slots, config)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    # -- guards --------------------------------------------------------------

    @staticmethod
    def _make_guard(
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> "ExecutionGuard | None":
        """The guard of one engine call: an explicit ``guard`` passes
        through verbatim (shared-across-calls semantics), the shorthand
        knobs build a fresh one, and all-``None`` means unguarded."""
        if guard is not None:
            return guard
        if deadline is None and budget is None and cancel is None:
            return None
        return ExecutionGuard(
            deadline=deadline, budget=budget, cancel=cancel, on_budget=on_budget
        )

    # -- single-document API ------------------------------------------------

    def compile(self, query, document: Document | str) -> VA:
        """The (possibly ad-hoc) VA for one document, with the static
        prefix served from the plan cache."""
        return self.prepare(query).compile(as_document(document))

    def explain(
        self,
        query,
        instantiation: Instantiation | None = None,
        config: PlannerConfig | None = None,
    ) -> str:
        """The compiled plan of a query, pretty-printed
        (:meth:`CompiledPlan.explain`): physical tree with CSE sharing
        marks, optimized logical plan, and the optimizer's rule-fire
        summary."""
        return self.prepare(query, instantiation, config).plan.explain()

    def enumerate(
        self,
        query,
        document: Document | str,
        limit: int | None = None,
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> Iterator[Mapping]:
        """Enumerate a query on one document (polynomial delay).

        ``limit`` caps the number of mappings; small limits short-circuit
        the lazy graph construction.  ``deadline`` /
        ``budget`` / ``cancel`` bound the evaluation through an
        :class:`ExecutionGuard` (or pass a prebuilt ``guard`` to share one
        across calls); ``on_budget="partial"`` ends the iteration at the
        trip instead of raising.
        """
        g = self._make_guard(deadline, budget, on_budget, cancel, guard)
        return self.prepare(query).enumerate(document, limit=limit, guard=g)

    def evaluate(
        self,
        query,
        document: Document | str,
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> SpanRelation:
        """Materialise a query on one document.

        Under a guard, a trip with ``on_budget="raise"`` propagates the
        structured :class:`~repro.core.errors.ExecutionInterrupted` with
        the prefix materialised so far attached as ``exc.partial`` (a
        truncated :class:`SpanRelation`); with ``on_budget="partial"`` the
        prefix is returned directly, flagged ``truncated``.
        """
        g = self._make_guard(deadline, budget, on_budget, cancel, guard)
        context = self.prepare(query)
        if g is None:
            return SpanRelation(context.enumerate(document))
        collected: list[Mapping] = []
        try:
            for mapping in context.enumerate(document, guard=g):
                collected.append(mapping)
        except ExecutionInterrupted as exc:
            exc.partial = SpanRelation(collected, truncated=True)
            raise
        return SpanRelation(collected, truncated=g.truncated is not None)

    def first(
        self,
        query,
        document: Document | str,
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> Mapping | None:
        """The first mapping in canonical order, or ``None`` if empty —
        Theorem 2.5's first delay: one linear preprocessing pass plus a
        single root-to-sink walk.  Guard trips always raise here."""
        g = self._make_guard(deadline, budget, on_budget, cancel, guard)
        return self.prepare(query).first(document, guard=g)

    def is_nonempty(
        self,
        query,
        document: Document | str,
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> bool:
        """Decide ``⟦q⟧(d) ≠ ∅`` via the Boolean bitmask pass —
        no enumeration edges are built.  Guard trips always raise here."""
        g = self._make_guard(deadline, budget, on_budget, cancel, guard)
        return self.prepare(query).is_nonempty(document, guard=g)

    def tail(self, query, document: Document | str = "") -> "TailSession":
        """An incremental evaluation session for a growing document
        (:class:`~repro.engine.tail.TailSession`).

        The session shares this engine's compiled plan and prepared
        automaton for ``query``; each ``reevaluate(appended_text)``
        resumes the forward pass from the previous run's checkpoint and
        returns only the mappings that are new since the last call."""
        from .tail import TailSession

        return TailSession(self.prepare(query), document)

    # -- batch / streaming API ----------------------------------------------

    def evaluate_many(
        self,
        query,
        documents: "Iterable[Document | str] | CorpusStore | CorpusSelection",
        limit: int | None = None,
        workers: int | None = None,
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> list[SpanRelation]:
        """Materialise a query over a batch of documents, compiling the
        static prefix exactly once.

        The whole corpus shares one compiled plan and (for fully static
        queries) one interned alphabet, so each document is wrapped and
        encoded at most once.  The VA-derived prefilter runs up front over
        the corpus: provably non-matching documents get their empty
        relations immediately and are never evaluated — and never shipped
        to workers — so on sparse corpora the per-document cost collapses
        to the O(1) histogram check.

        ``documents`` may also be a :class:`~repro.corpus.CorpusStore` (or
        a :meth:`~repro.corpus.CorpusStore.select` selection of one): the
        prefilter conditions then compile into *index operations* —
        posting-list intersections and length range scans — so
        non-matching documents are pruned in sublinear time without even
        fetching their rows, and the survivors hydrate with their cached
        run-length encodings and histograms instead of recomputing them
        (:attr:`EngineStats.index_hits` / ``index_candidates`` /
        ``hydrations``).  Results align with the store's ascending doc-id
        order (or the selection's order).

        Args:
            limit: per-document cap on materialised mappings.
            workers: shard the *surviving* documents across this many
                worker processes (round-robin); per-shard statistics are
                merged back into :attr:`stats`.  Falls back to in-process
                evaluation when fewer than two documents survive, or when
                the query does not pickle (e.g. a black-box spanner over a
                lambda), which is recorded in ``stats.parallel_fallbacks``.
            deadline / budget / cancel / guard: one
                :class:`ExecutionGuard` shared across the *whole batch*
                (budgets are cumulative over all documents; the deadline
                is propagated to worker shards).  With
                ``on_budget="raise"`` a trip carries the relations
                completed so far as ``exc.partial``; with
                ``on_budget="partial"`` the tripped document keeps its
                prefix and every later document returns an empty relation,
                all flagged ``truncated``.
        """
        g = self._make_guard(deadline, budget, on_budget, cancel, guard)
        context = self.prepare(query)
        keys, survivors = self._survivors(context, documents, "documents")
        docs = list(survivors.values())
        relations: "list[SpanRelation] | None" = None
        if workers is not None and workers > 1 and len(docs) > 1:
            relations = self._evaluate_parallel(query, docs, limit, workers, g)
        if relations is None:
            relations = self._materialise_batch(context, docs, limit, g)
        by_key = dict(zip(survivors, relations))
        empty = SpanRelation(())
        return [by_key.get(key, empty) for key in keys]

    def _materialise_batch(
        self,
        context: ExecutionContext,
        docs: "list[Document]",
        limit: int | None,
        guard: "ExecutionGuard | None",
    ) -> list[SpanRelation]:
        """Materialise one relation per document in-process, sharing one
        guard across the batch.  Raise-mode trips carry the relations
        completed so far as ``exc.partial``; partial mode flags the
        tripped document's prefix (and every later document's empty
        relation) as truncated — a tripped guard keeps re-tripping, so
        the rest of the batch short-circuits at construction."""
        if guard is None:
            return [
                SpanRelation(context.enumerate(doc, limit=limit))
                for doc in docs
            ]
        relations: list[SpanRelation] = []
        try:
            for doc in docs:
                mappings = list(context.enumerate(doc, limit=limit, guard=guard))
                relations.append(
                    SpanRelation(mappings, truncated=guard.truncated is not None)
                )
        except ExecutionInterrupted as exc:
            exc.partial = relations
            raise
        return relations

    def _evaluate_parallel(
        self,
        query,
        docs: list[Document],
        limit: int | None,
        workers: int,
        guard: "ExecutionGuard | None" = None,
    ) -> "list[SpanRelation] | None":
        """The process-pool path; ``None`` means fall back to sequential
        (with the reason recorded in ``stats.parallel_fallbacks``).

        Guard propagation: shards receive the *remaining* deadline and the
        budget spec, run in partial mode, and report their trip reason
        back; the parent then re-raises (raise mode, with the merged
        relations as the partial result) or marks the batch truncated
        (partial mode).  Budgets apply per shard — the parent cannot
        meter workers mid-flight — so a batch-wide ceiling is the spec
        times the shard count in the worst case.  Cancel tokens do not
        cross process boundaries; lost (crashed) shards are recomputed
        serially in the parent and counted in ``stats.shard_retries``."""
        from .guards import exception_for
        from .parallel import evaluate_sharded, parallel_payload, probe_parallelise

        payload = parallel_payload(query)
        failure = probe_parallelise(payload)
        if failure is not None:
            fallbacks = self.stats.parallel_fallbacks
            fallbacks[failure] = fallbacks.get(failure, 0) + 1
            return None
        relations, shard_stats, tripped, retries = evaluate_sharded(
            payload, docs, limit, workers,
            document_cache_size=self._document_cache_size,
            optimize=self.optimize,
            prefilter=self.prefilter,
            deadline=guard.remaining() if guard is not None else None,
            budget=guard.budget if guard is not None else None,
        )
        for stats in shard_stats:
            self.stats.merge(stats)
        self.stats.parallel_shards += len(shard_stats)
        self.stats.shard_retries += retries
        reasons = [reason for reason in tripped if reason]
        if guard is not None and reasons:
            reason = reasons[0]
            if guard.tripped is None:
                guard.tripped = reason
            if reason == "deadline":
                guard.deadline_hits += 1
            elif reason.startswith("budget"):
                guard.budget_hits += 1
            guard.drain_into(self.stats)
            if guard.degrade:
                guard.truncated = reason
            else:
                exc = exception_for(reason)(
                    f"evaluation interrupted in a worker shard ({reason})",
                    reason=reason,
                    partial=relations,
                    stats=self.stats.snapshot(),
                )
                raise exc
        return relations

    # -- survivors of the prefilter and the index plan ------------------------

    def _survivors(
        self,
        context: ExecutionContext,
        documents: "Iterable[Document | str] | CorpusStore | CorpusSelection",
        counter: str,
    ) -> "tuple[Iterable, dict]":
        """The batch's keys, one per input document (its position in an
        iterable, its doc id in a store or selection), and the documents
        left to evaluate under those keys, each distinct key once.

        An iterable is checked against the prefilter document by document.
        A store runs the index plan, so pruned documents are never
        fetched, and hydrates each surviving id once.  Each rejected
        document is charged to ``prefilter_rejects`` and to ``counter``
        (``"documents"`` or ``"nonempty_checks"``)."""
        selection = _as_corpus_selection(documents)
        if selection is None:
            docs = [as_document(doc) for doc in documents]
            prefilter = context.prefilter()
            survivors = {
                index: doc
                for index, doc in enumerate(docs)
                if prefilter is None or prefilter.admits(doc)
            }
            self._charge_rejects(counter, len(docs) - len(survivors))
            return range(len(docs)), survivors
        store = selection.store
        retries_base = store.retries
        try:
            ids, kept = self._corpus_survivors(context, selection, counter)
            survivors = {
                doc_id: self._hydrate(store, doc_id)
                for doc_id in dict.fromkeys(ids)
                if kept is None or doc_id in kept
            }
        finally:
            self.stats.store_retries += store.retries - retries_base
        return ids, survivors

    def _corpus_survivors(
        self, context: ExecutionContext, selection: CorpusSelection, counter: str
    ) -> "tuple[list[int], set[int] | None]":
        """The selection's ids plus the set surviving the index plan.

        A ``None`` survivor set means the index could not prune (prefilter
        disabled, ad-hoc plan, non-sequential automaton): every id must be
        hydrated and evaluated.  Pruned documents are charged to
        ``prefilter_rejects`` and to ``counter`` — they were rejected by
        exactly the prefilter's conditions, just from the index instead of
        a walk.
        """
        ids = list(selection.doc_ids)
        prefilter = context.prefilter()
        if prefilter is None:
            return ids, None
        stats = self.stats
        plan, kept = selection.store.survivors(prefilter, within=ids)
        stats.index_hits += 1
        stats.index_candidates += len(plan.doc_ids)
        kept_set = set(kept)
        self._charge_rejects(
            counter, sum(1 for doc_id in ids if doc_id not in kept_set)
        )
        return ids, kept_set

    def _charge_rejects(self, counter: str, rejected: int) -> None:
        stats = self.stats
        stats.prefilter_rejects += rejected
        setattr(stats, counter, getattr(stats, counter) + rejected)

    def _hydrate(self, store: CorpusStore, doc_id: int) -> Document:
        self.stats.hydrations += 1
        return store.document(doc_id)

    # -- batch emptiness ------------------------------------------------------

    def is_nonempty_many(
        self,
        query,
        documents: "Iterable[Document | str] | CorpusStore | CorpusSelection",
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> list[bool]:
        """Decide ``⟦q⟧(d) ≠ ∅`` for a whole batch, sharing one compiled
        plan — the batch form of :meth:`is_nonempty`.

        Plain iterables walk the batch with the per-document prefilter;
        a :class:`~repro.corpus.CorpusStore` (or selection) answers
        through the index plan first, running the Boolean pass only on
        the candidate documents that survive it.  A shared guard bounds
        the whole batch; trips always raise (Boolean answers have no
        usable prefix to degrade to).
        """
        g = self._make_guard(deadline, budget, "raise", cancel, guard)
        context = self.prepare(query)
        keys, survivors = self._survivors(context, documents, "nonempty_checks")
        answers = {
            key: context.is_nonempty(doc, guard=g) for key, doc in survivors.items()
        }
        return [answers.get(key, False) for key in keys]

    def enumerate_stream(
        self,
        query,
        documents: "Iterable[Document | str] | CorpusStore | CorpusSelection",
        limit: int | None = None,
        *,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        on_budget: str = "raise",
        cancel: "CancelToken | None" = None,
        guard: "ExecutionGuard | None" = None,
    ) -> Iterator[tuple[int, Mapping]]:
        """Stream ``(document_index, mapping)`` pairs over a document
        stream, lazily — suitable for unbounded streams.  ``limit`` caps
        the mappings taken per document.

        The stream shares one compiled plan and interned alphabet; each
        incoming document is wrapped once and checked against the
        VA-derived prefilter first, so non-matching documents cost one
        O(1) histogram probe and contribute nothing to the stream.

        Over a :class:`~repro.corpus.CorpusStore` (or selection) the pairs
        are ``(doc_id, mapping)`` and the index plan prunes non-candidates
        up front, so pruned documents are never fetched at all.

        Guard parameters mirror :meth:`evaluate`; the guard spans the
        whole stream (budgets are cumulative across documents)."""
        g = self._make_guard(
            deadline=deadline, budget=budget, on_budget=on_budget,
            cancel=cancel, guard=guard,
        )
        context = self.prepare(query)
        selection = _as_corpus_selection(documents)
        if selection is not None:
            store = selection.store
            retries_base = store.retries
            try:
                ids, survivor_set = self._corpus_survivors(
                    context, selection, "documents"
                )
                for doc_id in ids:
                    if survivor_set is not None and doc_id not in survivor_set:
                        continue
                    doc = self._hydrate(store, doc_id)
                    for mapping in context.enumerate(doc, limit=limit, guard=g):
                        yield doc_id, mapping
                    if g is not None and g.truncated is not None:
                        return
            finally:
                self.stats.store_retries += store.retries - retries_base
            return
        for index, doc in enumerate(documents):
            for mapping in context.enumerate(as_document(doc), limit=limit, guard=g):
                yield index, mapping
            if g is not None and g.truncated is not None:
                return

    def __repr__(self) -> str:
        return f"Engine(plans={len(self._contexts)})"
