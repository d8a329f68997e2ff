"""E17 — the persistent corpus store: ingest-once amortisation, posting-list
candidate pruning, and index-driven batch evaluation vs the list walk.

The list-walk ``evaluate_many`` pays O(corpus bytes) on *every call*: each
document is re-wrapped and its letter histogram recomputed just so the
prefilter can reject it.  A :class:`~repro.corpus.CorpusStore` pays that
cost once, at ingest, and answers each query from the posting-list index in
time proportional to the *candidates* instead:

* **ingest** — one-time cost of hashing, artifact derivation (histogram,
  run count, and a run-length encoding for the documents that take the
  run walk only), and posting-list construction, plus the dedup-hit
  fast path on re-ingest;
* **index vs walk** — the acceptance section: a needle-in-a-haystack
  corpus (short matching documents in a sea of long non-matching ones)
  swept across selectivities.  The bar: **≥5x** speedup of the warm-store
  index path over the list walk at 1% selectivity on a ≥1000-document
  corpus.  Cold-handle numbers (fresh process: sqlite open + hydration,
  no document cache) are reported alongside.  Both paths must return
  byte-identical relations;
* **maintenance** — incremental add/update/remove vs the full
  ``rebuild()``, so the cost of keeping the index consistent stays
  visible, and a tailed log: successive 4-line appends to one 50-line
  server log stored beside the corpus, each pass timed with the garbage
  collector paused and the median pass reported, plus the sqlite
  statements of one steady append (reported, not asserted).

Results are written to ``BENCH_corpus.json`` at the repository root (CI
uploads it; ``tests/integration/test_perf_budgets.py`` gates the committed
copy).  Set ``BENCH_E17_TINY=1`` for a seconds-scale smoke version with the
timing assertions relaxed.
"""

import os
import random
import tempfile
import time
from pathlib import Path
from statistics import median

from repro.corpus import CorpusStore
from repro.engine import Engine
from repro.utils import format_table
from repro.workloads.packs import server_logs

from bench_common import paused

TINY = bool(os.environ.get("BENCH_E17_TINY"))

#: The workload: rare-letter captures in an a/b sea — the prefilter derives
#: "requires c", which the index answers from the ``c`` posting list.
FORMULA = "(a|b|c)*x{c+}(a|b|c)*"

CORPUS_DOCS = 30 if TINY else 1_200
NONMATCH_LENGTH = 80 if TINY else 3_000
MATCH_LENGTH = 20 if TINY else 60
SELECTIVITIES = (0.1, 1.0) if TINY else (0.01, 0.1, 0.5)
REPEATS = 1 if TINY else 3

MAINT_BATCH = 5 if TINY else 100

#: The tailed log: ``LOG_APPENDS`` appends of ``APPEND_LINES`` lines each
#: to a ``LOG_LINES``-line log, in ``APPEND_PASSES`` timed passes.
LOG_LINES = 50
APPEND_LINES = 4
LOG_APPENDS = 5 if TINY else 100
APPEND_PASSES = 3

_JSON: dict = {
    "experiment": "e17_corpus_store",
    "formula": FORMULA,
    "tiny": TINY,
    "sections": {},
}


def _flush_json():
    from bench_common import write_json_report

    _JSON["generated_unix"] = int(time.time())
    write_json_report("BENCH_corpus.json", _JSON, at_root=True)


def _compiled():
    from bench_common import compile_formula

    return compile_formula(FORMULA)


def _best_of(repeats, func):
    best, value = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = func()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best * 1e3, value


def _corpus(matching_fraction: float, seed: int) -> list[str]:
    """Needle-in-a-haystack: short matching documents (containing ``cc``)
    scattered through long ``c``-free ones."""
    rng = random.Random(seed)
    n_matching = max(1, int(CORPUS_DOCS * matching_fraction))
    texts = []
    for i in range(CORPUS_DOCS):
        if i < n_matching:
            body = "".join(rng.choice("ab") for _ in range(MATCH_LENGTH))
            cut = rng.randrange(1, MATCH_LENGTH)
            texts.append(body[:cut] + "cc" + body[cut:])
        else:
            texts.append(
                "".join(rng.choice("ab") for _ in range(NONMATCH_LENGTH))
            )
    rng.shuffle(texts)
    return texts


# -- ingest ------------------------------------------------------------------


def _ingest_sweep():
    texts = _corpus(0.1, seed=17)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.sqlite"
        with CorpusStore(path) as store:
            ingest_ms, _ = _best_of(1, lambda: store.add_many(texts))
            assert len(store) == len(texts)  # unique by construction
            reingest_ms, _ = _best_of(1, lambda: store.add_many(texts))
            assert store.dedup_hits == len(texts)
            store_bytes = store.stats()["store_bytes"]
    total_letters = sum(len(t) for t in texts)
    return {
        "docs": len(texts),
        "total_letters": total_letters,
        "ingest_ms": round(ingest_ms, 2),
        "reingest_dedup_ms": round(reingest_ms, 2),
        "docs_per_s": round(len(texts) / (ingest_ms / 1e3), 1),
        "store_bytes": store_bytes,
    }


def bench_e17_ingest(benchmark, report):
    row = benchmark.pedantic(_ingest_sweep, rounds=1, iterations=1)
    table = format_table(
        list(row.keys()),
        [list(row.values())],
        title="E17a ingest-once cost: artifact derivation + posting lists, "
        "and the content-hash dedup fast path on re-ingest",
    )
    report("E17a_corpus_ingest", table)
    _JSON["sections"]["ingest"] = row
    _flush_json()
    assert row["reingest_dedup_ms"] < row["ingest_ms"], row


# -- index-driven evaluation vs the list walk --------------------------------


def _index_vs_walk_sweep():
    va = _compiled()
    rows = []
    for fraction in SELECTIVITIES:
        texts = _corpus(fraction, seed=int(fraction * 1000))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.sqlite"
            with CorpusStore(path) as store:
                store.add_many(texts)
                assert len(store) == len(texts)

            walk_engine = Engine()
            walk_engine.evaluate_many(va, texts)  # warm the plan cache
            walk_ms, walk_relations = _best_of(
                REPEATS, lambda: walk_engine.evaluate_many(va, texts)
            )

            # Cold: a fresh handle per call — sqlite open, index plan,
            # hydration from rows; the engine's compiled plan stays warm
            # so the delta is purely the store side.
            cold_engine = Engine()
            cold_engine.evaluate_many(va, texts[:1])  # warm the plan cache

            def cold_call():
                with CorpusStore(path) as cold_store:
                    return cold_engine.evaluate_many(va, cold_store)

            cold_ms, cold_relations = _best_of(REPEATS, cold_call)

            # Warm: one long-lived handle — the steady state of a standing
            # corpus; survivors are served from the LRU document cache.
            warm_engine = Engine()
            with CorpusStore(path) as warm_store:
                warm_engine.evaluate_many(va, warm_store)  # warm both caches
                before = warm_engine.stats.snapshot()
                warm_ms, warm_relations = _best_of(
                    REPEATS,
                    lambda: warm_engine.evaluate_many(va, warm_store),
                )
                delta = warm_engine.stats.delta(before)

            # The acceptance criterion's other half: byte-identical results.
            assert cold_relations == walk_relations
            assert warm_relations == walk_relations
            matching = sum(1 for r in walk_relations if len(r))
            rows.append(
                {
                    "matching_fraction": fraction,
                    "docs": len(texts),
                    "matching_docs": matching,
                    "walk_ms": round(walk_ms, 3),
                    "index_cold_ms": round(cold_ms, 3),
                    "index_warm_ms": round(warm_ms, 3),
                    "speedup_cold": round(walk_ms / cold_ms, 2),
                    "speedup_warm": round(walk_ms / warm_ms, 2),
                    "candidates_per_query": delta.index_candidates // REPEATS,
                    "hydrations_per_query": delta.hydrations // REPEATS,
                }
            )
    return rows


def bench_e17_index_vs_walk(benchmark, report):
    rows = benchmark.pedantic(_index_vs_walk_sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "matching",
            "docs",
            "matches",
            "walk_ms",
            "cold_ms",
            "warm_ms",
            "cold_speedup",
            "warm_speedup",
            "candidates",
        ],
        [
            [
                r["matching_fraction"],
                r["docs"],
                r["matching_docs"],
                r["walk_ms"],
                r["index_cold_ms"],
                r["index_warm_ms"],
                f'{r["speedup_cold"]:.2f}x',
                f'{r["speedup_warm"]:.2f}x',
                r["candidates_per_query"],
            ]
            for r in rows
        ],
        title=f"E17b index-driven evaluate_many vs list walk ({CORPUS_DOCS} "
        f"docs, non-matching {NONMATCH_LENGTH} letters, matching "
        f"{MATCH_LENGTH}): posting-list pruning + cached-artifact hydration",
    )
    report("E17b_index_vs_walk", table)
    _JSON["sections"]["index_vs_walk"] = {
        "docs": CORPUS_DOCS,
        "nonmatch_length": NONMATCH_LENGTH,
        "match_length": MATCH_LENGTH,
        "repeats": REPEATS,
        "rows": rows,
    }
    _flush_json()
    for row in rows:
        # The index must prune: candidates stay at the matching-doc scale.
        assert row["candidates_per_query"] <= row["matching_docs"] + 1, row
    if not TINY:
        # Acceptance bar: ≥5x for the warm store at 1% selectivity on a
        # ≥1000-document corpus.  Dense corpora converge on the walk (both
        # paths evaluate every document) — reported, not asserted.
        sparsest = min(rows, key=lambda r: r["matching_fraction"])
        assert sparsest["matching_fraction"] <= 0.01, rows
        assert sparsest["docs"] >= 1000, rows
        assert sparsest["speedup_warm"] >= 5.0, sparsest


# -- incremental maintenance vs rebuild --------------------------------------


def _log_appends(store: CorpusStore) -> tuple[list[float], int]:
    """Tail a server log stored beside the corpus: ``(ms per append of
    each pass, sqlite statements of one steady append)``.  Each pass
    stores the log afresh, times its ``LOG_APPENDS`` appends (the first
    included) and removes it again."""
    lines = server_logs.generate_lines(
        LOG_LINES + APPEND_LINES * (LOG_APPENDS + 1), seed=41
    )
    log = "".join(line + "\n" for line in lines[:LOG_LINES])
    chunks = [
        "".join(line + "\n" for line in lines[start : start + APPEND_LINES])
        for start in range(LOG_LINES, len(lines), APPEND_LINES)
    ]
    passes = []
    statements: list[str] = []
    for _ in range(APPEND_PASSES):
        doc_id = store.add(log)

        def appends():
            start = time.perf_counter()
            for chunk in chunks[:-1]:
                store.append(doc_id, chunk)
            return time.perf_counter() - start

        passes.append(paused(appends) * 1e3 / LOG_APPENDS)
        statements.clear()
        store._conn.set_trace_callback(statements.append)
        try:
            store.append(doc_id, chunks[-1])
        finally:
            store._conn.set_trace_callback(None)
        assert store.text(doc_id) == log + "".join(chunks)
        store.remove(doc_id)
    return passes, len(statements)


def _maintenance_sweep():
    texts = _corpus(0.1, seed=23)
    extra = _corpus(0.1, seed=29)[:MAINT_BATCH]
    with tempfile.TemporaryDirectory() as tmp:
        with CorpusStore(Path(tmp) / "store.sqlite") as store:
            store.add_many(texts)
            add_ms, added = _best_of(1, lambda: store.add_many(extra))
            update_ms, _ = _best_of(
                1,
                lambda: [
                    store.update(doc_id, f"{store.text(doc_id)}ab")
                    for doc_id in added
                ],
            )
            remove_ms, _ = _best_of(
                1, lambda: [store.remove(doc_id) for doc_id in added]
            )
            append_passes, append_statements = _log_appends(store)
            rebuild_ms, summary = _best_of(1, lambda: store.rebuild(verify=True))
            assert summary["issues"] == [], summary
            assert len(store) == len(texts)
    return {
        "base_docs": len(texts),
        "batch": MAINT_BATCH,
        "add_ms": round(add_ms, 2),
        "update_ms": round(update_ms, 2),
        "remove_ms": round(remove_ms, 2),
        "rebuild_verify_ms": round(rebuild_ms, 2),
        "log_appends": LOG_APPENDS,
        "append_ms": round(median(append_passes), 3),
        "append_ms_passes": [round(ms, 3) for ms in append_passes],
        "steady_append_statements": append_statements,
    }


def bench_e17_maintenance(benchmark, report):
    row = benchmark.pedantic(_maintenance_sweep, rounds=1, iterations=1)
    table = format_table(
        list(row.keys()),
        [list(row.values())],
        title=f"E17c incremental maintenance ({MAINT_BATCH}-doc batches) vs "
        f"full rebuild --verify; {APPEND_LINES}-line appends to a "
        f"{LOG_LINES}-line log (ms per append, median of {APPEND_PASSES} "
        "passes)",
    )
    report("E17c_corpus_maintenance", table)
    _JSON["sections"]["maintenance"] = row
    _flush_json()
    assert row["add_ms"] < row["rebuild_verify_ms"], row
