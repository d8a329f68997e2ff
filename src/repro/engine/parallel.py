"""Process-pool document sharding for :meth:`Engine.evaluate_many`.

``Engine.evaluate_many(query, docs, workers=N)`` splits the document batch
round-robin into ``N`` shards, evaluates each shard in its own worker
process (each worker builds a private :class:`Engine` configured like the
parent's and compiles the query once — the per-shard analogue of the
parent's plan cache), and reassembles results in input order.  Each
worker returns its :class:`~repro.engine.stats.EngineStats`, which the
parent merges so batch counters stay meaningful; the merged times are
summed CPU seconds across processes, not wall time.

The corpus-store path (``evaluate_many`` over a
:class:`~repro.corpus.CorpusStore`) threads through here too: the parent
runs the index plan and hydrates the surviving documents, and only those
survivors are sharded — workers receive raw texts and re-derive their
evaluation-local artifacts, so index pruning is never paid per shard.

Work ships to workers by pickling, so the parallel path requires a
picklable query.  :func:`parallel_payload` reduces a query to plain data
(an :class:`RAQuery` is sent as its ``(tree, instantiation, config)``
triple — never its engine) and :func:`probe_parallelise` probes pickling
up front; callers fall back to the sequential path when the probe fails
(e.g. black-box spanners closing over lambdas), so ``workers=N`` is always
safe to pass.

Robustness: shards inherit the caller's remaining deadline and budget
spec and run their guard in partial mode, reporting the trip reason back
instead of raising across the process boundary.  A crashed worker breaks
the whole pool (``BrokenProcessPool``); the shards whose results were
lost are recomputed serially in the parent — with fault injection's
crash site disabled so an injected crash cannot loop — and the retry
count is reported so the caller can surface it in ``EngineStats``.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

from ..core.document import Document
from ..core.relation import SpanRelation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .stats import EngineStats


def parallel_payload(query: object) -> object:
    """An engine-free description of ``query``, a :class:`VA` or an
    :class:`RAQuery` (the batch calls prepare the query first, and those
    are the shapes that prepare without an instantiation)."""
    from ..va.automaton import VA

    if isinstance(query, VA):
        return ("va", query)
    return ("ra", query.tree, query.instantiation, query.config)


def probe_parallelise(payload: object) -> "str | None":
    """Probe whether the payload survives pickling (workers get a copy).

    Returns ``None`` when sharding is viable, otherwise a short reason
    string for the fallback ledger.  Only serialisation failures are
    caught — ``PicklingError`` plus the ``TypeError``/``AttributeError``
    that ``pickle`` raises for closures and local classes; anything else
    (a broken ``__reduce__``, say) is a real bug and propagates.
    """
    try:
        pickle.dumps(payload)
        return None
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        return f"pickle: {type(exc).__name__}"


def _rebuild_query(payload):
    if payload[0] == "va":
        return payload[1]
    from ..algebra.planner import RAQuery

    _, tree, instantiation, config = payload
    return RAQuery(tree, instantiation, config)


def _run_shard(
    payload,
    texts: list[str],
    limit: int | None,
    document_cache_size: int,
    optimize: bool,
    prefilter: bool,
    deadline: "float | None" = None,
    budget=None,
    crashable: bool = True,
) -> "tuple[list[SpanRelation], EngineStats, str | None]":
    """Worker entry point: evaluate one shard with a private engine.

    Runs the shard guard in partial mode so a trip never crosses the
    process boundary as an exception — the trip *reason* travels back in
    the result tuple and the parent decides whether to raise.  Serial
    retries of lost shards run in the parent with ``crashable=False`` so
    the fault harness's crash site cannot re-fire.
    """
    from ..testing import faults
    from .core import Engine
    from .guards import ExecutionGuard

    faults.install_from_env()
    if crashable:
        faults.shard_crash("parallel.shard")
    engine = Engine(
        document_cache_size=document_cache_size,
        optimize=optimize,
        prefilter=prefilter,
    )
    query = _rebuild_query(payload)
    guard = None
    if deadline is not None or budget is not None:
        guard = ExecutionGuard(
            deadline=deadline, budget=budget, on_budget="partial"
        )
    relations = engine.evaluate_many(query, texts, limit=limit, guard=guard)
    tripped = guard.tripped if guard is not None else None
    return relations, engine.stats, tripped


def evaluate_sharded(
    payload,
    documents: Sequence[Document],
    limit: int | None,
    workers: int,
    document_cache_size: int = 0,
    optimize: bool = True,
    prefilter: bool = True,
    deadline: "float | None" = None,
    budget=None,
) -> "tuple[list[SpanRelation], list[EngineStats], list[str | None], int]":
    """Evaluate ``documents`` across ``workers`` processes.

    Returns ``(relations, shard_stats, tripped_reasons, retries)``: the
    relations in input order, the per-shard statistics, each shard's
    guard-trip reason (``None`` when it ran to completion), and how many
    shards had to be recomputed serially after a worker crash.  Documents
    are sharded round-robin (``documents[i::n]``), which balances load
    when document cost correlates with position in the batch.  The caller
    has already prefiltered the corpus (only surviving documents are
    shipped); ``prefilter`` just keeps worker engines configured like the
    parent.

    A crashed worker poisons the whole pool, so every shard whose future
    raises ``BrokenProcessPool`` is rerun in-parent (``crashable=False``)
    rather than resubmitted — one serial pass, no crash loop.
    """
    n_shards = max(1, min(workers, len(documents)))
    shards = [
        [doc.text for doc in documents[offset::n_shards]]
        for offset in range(n_shards)
    ]
    results: "list[tuple[list[SpanRelation], EngineStats, str | None] | None]"
    results = [None] * n_shards
    with ProcessPoolExecutor(max_workers=n_shards) as pool:
        futures = []
        try:
            for texts in shards:
                futures.append(pool.submit(
                    _run_shard, payload, texts, limit,
                    document_cache_size, optimize, prefilter, deadline, budget,
                ))
        except BrokenProcessPool:
            pass  # shards never submitted join the serial reap below
        for offset, future in enumerate(futures):
            try:
                results[offset] = future.result()
            except BrokenProcessPool:
                pass
    lost = [offset for offset, result in enumerate(results) if result is None]
    for offset in lost:
        results[offset] = _run_shard(
            payload, shards[offset], limit,
            document_cache_size, optimize, prefilter, deadline, budget,
            crashable=False,
        )
    relations: list[SpanRelation | None] = [None] * len(documents)
    for offset, shard_result in enumerate(results):
        shard_relations = shard_result[0]  # type: ignore[index]
        for position, relation in enumerate(shard_relations):
            relations[offset + position * n_shards] = relation
    return (
        relations,  # type: ignore[return-value]
        [result[1] for result in results],  # type: ignore[index]
        [result[2] for result in results],  # type: ignore[index]
        len(lost),
    )
