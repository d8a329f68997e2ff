"""E14 — the streaming match-graph runtime: first-match latency, density
sweeps, and parallel corpus evaluation.

Theorem 2.5 promises the *first* answer after one linear preprocessing
pass.  The lazy :class:`~repro.va.indexed.IndexedMatchGraph` makes that
concrete: construction is a Boolean bitmask forward pass, and enumeration
edges materialise only along the paths the DFS walks.  This bench measures

* **first-match latency** (lazy vs. an eager edge build — every edge row
  of every live state, then the first mapping — sweeping document length
  on sparse documents) — the lazy path must be ≥2x faster on long sparse
  inputs;
* a **match-density sweep** at fixed length — how first-match, full
  enumeration, and the Boolean emptiness check scale as matches thicken;
* **parallel corpus evaluation** — ``Engine.evaluate_many(workers=N)``
  sharding a document batch across processes, which must scale near
  linearly when the hardware has the cores (the assertion is skipped on
  starved runners; the measured numbers are recorded either way).  Each
  worker count is timed ``REPEATS`` times, the counts taking turns, each
  run on a fresh engine and fresh ``Document`` copies with the garbage
  collector paused (as ``timeit``, E16 and E18 do); the median run is
  reported.

Results are written both as human-readable tables (the ``report`` fixture)
and machine-readably to ``BENCH_runtime.json`` at the repository root (the
perf-trajectory seed; CI uploads it as an artifact).  Set ``BENCH_E14_TINY=1``
to run a seconds-scale smoke version that still exercises every code path
and the full JSON schema, with the timing assertions relaxed.
"""

import gc
import os
import time
from statistics import median

from repro.core import Document
from repro.engine import Engine
from repro.utils import format_table
from repro.utils.bits import iter_bits
from repro.va import (
    FactorizedVA,
    IndexedMatchGraph,
    MatchGraph,
    enumerate_matchgraph,
    indexed_nonempty,
)
from repro.workloads import random_document

TINY = bool(os.environ.get("BENCH_E14_TINY"))

#: Sparse single-capture workload: matches are the rare `c` positions in an
#: a/b sea, so match count ≈ density · length while the match graph still
#: spans the whole document.
FORMULA = "(a|b|c)*x{c}(a|b|c)*"

#: First-match workload: two adjacent captures anchored at rare `c` marks —
#: enough automaton structure that the eager build materialises many live
#: states per layer while the first-match walk touches one.
FIRST_FORMULA = "(a|b|c)*x{c(a|b)*}y{(a|b)*c}(a|b|c)*"

LENGTHS = (100, 300) if TINY else (1_000, 2_500, 5_000, 10_000)
SPARSE_DENSITY = 0.002
DENSITIES = (0.01, 0.05) if TINY else (0.0005, 0.005, 0.05)
DENSITY_LENGTH = 200 if TINY else 5_000
PARALLEL_DOCS = 8 if TINY else 200
PARALLEL_LENGTH = 100 if TINY else 2_000
PARALLEL_DENSITY = 0.01
WORKER_SWEEP = (1, 2) if TINY else (1, 2, 4)
REPEATS = 1 if TINY else 3

_JSON: dict = {
    "experiment": "e14_streaming_runtime",
    "formula": FORMULA,
    "first_match_formula": FIRST_FORMULA,
    "tiny": TINY,
    "cpu_count": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    "sections": {},
}


def _flush_json():
    from bench_common import write_json_report

    _JSON["generated_unix"] = int(time.time())
    write_json_report("BENCH_runtime.json", _JSON, at_root=True)


def _compiled():
    from bench_common import compile_formula

    return compile_formula(FORMULA)


def _sparse_document(length: int, density: float, seed: int) -> Document:
    import random

    rng = random.Random(seed)
    base = random_document("ab", length, rng).text
    # At least two marks so the pair-capture formula always has a match.
    n_marks = max(2, int(length * density))
    positions = rng.sample(range(length), n_marks)
    chars = list(base)
    for position in positions:
        chars[position] = "c"
    # A Document (not a str) so the letter-id encoding is computed once and
    # cached across repeated runs, as in a corpus-serving engine.
    return Document("".join(chars))


def _best_of(repeats, func):
    best, value = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = func()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best * 1e3, value


# -- first-match latency: lazy vs eager graphs ------------------------------


def _eager_first(indexed, doc):
    """The first mapping after an eager edge build: the backward pass and
    every edge row of every live state, then the enumeration's head."""
    graph = IndexedMatchGraph(indexed, doc)
    alive = graph.alive
    for layer in range(len(doc)):
        for sid in iter_bits(alive[layer]):
            graph.edge_row(layer, sid)
    return next(graph.enumerate(), None)


def _first_match_sweep():
    from bench_common import compile_formula

    va = compile_formula(FIRST_FORMULA)
    indexed = va.indexed()
    factorized = FactorizedVA(va)
    rows = []
    for length in LENGTHS:
        doc = _sparse_document(length, SPARSE_DENSITY, seed=length)
        lazy_ms, lazy_first = _best_of(
            REPEATS, lambda: IndexedMatchGraph(indexed, doc).first()
        )
        eager_ms, eager_first = _best_of(
            REPEATS, lambda: _eager_first(indexed, doc)
        )
        matchgraph_ms, mg_first = _best_of(
            REPEATS,
            lambda: next(enumerate_matchgraph(MatchGraph(factorized, doc)), None),
        )
        assert lazy_first == eager_first == mg_first is not None
        rows.append(
            {
                "length": length,
                "lazy_first_ms": round(lazy_ms, 3),
                "eager_first_ms": round(eager_ms, 3),
                "matchgraph_first_ms": round(matchgraph_ms, 3),
                "speedup_vs_eager": round(eager_ms / lazy_ms, 2),
            }
        )
    return rows


def bench_e14_first_match_latency(benchmark, report):
    rows = benchmark.pedantic(_first_match_sweep, rounds=1, iterations=1)
    table = format_table(
        ["length", "lazy_ms", "eager_ms", "matchgraph_ms", "speedup_vs_eager"],
        [
            [
                r["length"],
                r["lazy_first_ms"],
                r["eager_first_ms"],
                r["matchgraph_first_ms"],
                f'{r["speedup_vs_eager"]:.2f}x',
            ]
            for r in rows
        ],
        title=f"E14a first-match latency on sparse documents "
        f"(density {SPARSE_DENSITY}): lazy Boolean pass + on-demand edges "
        "vs eager full edge build",
    )
    report("E14a_first_match_latency", table)
    _JSON["sections"]["first_match"] = {
        "formula": FIRST_FORMULA,
        "density": SPARSE_DENSITY,
        "repeats": REPEATS,
        "rows": rows,
    }
    _flush_json()
    if not TINY:
        # The acceptance bar: ≥2x on sparse 10k-letter documents.
        longest = rows[-1]
        assert longest["speedup_vs_eager"] >= 2.0, longest


# -- match-density sweep ----------------------------------------------------


def _density_sweep():
    va = _compiled()
    indexed = va.indexed()
    rows = []
    for density in DENSITIES:
        doc = _sparse_document(DENSITY_LENGTH, density, seed=int(density * 1e6))
        nonempty_ms, _ = _best_of(REPEATS, lambda: indexed_nonempty(indexed, doc))
        first_ms, _ = _best_of(REPEATS, lambda: IndexedMatchGraph(indexed, doc).first())
        full_ms, mappings = _best_of(
            REPEATS, lambda: sum(1 for _ in IndexedMatchGraph(indexed, doc).enumerate())
        )
        rows.append(
            {
                "density": density,
                "mappings": mappings,
                "nonempty_ms": round(nonempty_ms, 3),
                "first_ms": round(first_ms, 3),
                "full_ms": round(full_ms, 3),
            }
        )
    return rows


def bench_e14_match_density(benchmark, report):
    rows = benchmark.pedantic(_density_sweep, rounds=1, iterations=1)
    table = format_table(
        ["density", "mappings", "nonempty_ms", "first_ms", "full_ms"],
        [
            [r["density"], r["mappings"], r["nonempty_ms"], r["first_ms"], r["full_ms"]]
            for r in rows
        ],
        title=f"E14b match-density sweep at length {DENSITY_LENGTH}: the "
        "Boolean emptiness check and first-match stay flat while full "
        "enumeration grows with the output",
    )
    report("E14b_match_density", table)
    _JSON["sections"]["density_sweep"] = {"length": DENSITY_LENGTH, "rows": rows}
    _flush_json()
    # Short-circuit sanity: deciding emptiness must not cost more than full
    # enumeration at the densest setting.
    densest = rows[-1]
    assert densest["nonempty_ms"] <= densest["full_ms"] * 1.5, densest


# -- parallel corpus evaluation ---------------------------------------------


def _timed_batch(va, texts, workers):
    """One ``evaluate_many`` over fresh ``Document`` copies of ``texts`` on
    a fresh engine, timed with the collector paused: ``(ms, relations,
    stats)``.  Fresh documents keep one run from reading the letter
    encodings an earlier run cached, which the worker shards never see."""
    engine = Engine()
    docs = [Document(text) for text in texts]
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        relations = engine.evaluate_many(va, docs, workers=workers)
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    return elapsed * 1e3, relations, engine.stats


def _parallel_sweep():
    va = _compiled()
    texts = [
        _sparse_document(PARALLEL_LENGTH, PARALLEL_DENSITY, seed=i).text
        for i in range(PARALLEL_DOCS)
    ]
    walls = {workers: [] for workers in WORKER_SWEEP}
    stats = {}
    baseline = None
    # The worker counts take turns within each repeat, so a slow phase of
    # the host falls on every count alike.
    for _ in range(REPEATS):
        for workers in WORKER_SWEEP:
            wall_ms, relations, stats[workers] = _timed_batch(va, texts, workers)
            walls[workers].append(wall_ms)
            if baseline is None:
                baseline = relations
            else:
                assert relations == baseline  # sharding must not change results
    baseline_ms = median(walls[WORKER_SWEEP[0]])
    rows = []
    for workers in WORKER_SWEEP:
        wall_ms = median(walls[workers])
        rows.append(
            {
                "workers": workers,
                "wall_ms": round(wall_ms, 1),
                "wall_ms_runs": [round(ms, 1) for ms in walls[workers]],
                "speedup": round(baseline_ms / wall_ms, 2),
                "parallel_shards": stats[workers].parallel_shards,
                "documents": stats[workers].documents,
            }
        )
    return rows


def bench_e14_parallel_scaling(benchmark, report):
    rows = benchmark.pedantic(_parallel_sweep, rounds=1, iterations=1)
    cpus = _JSON["cpu_count"] or 1
    table = format_table(
        ["workers", "wall_ms", "speedup", "shards", "documents"],
        [
            [r["workers"], r["wall_ms"], f'{r["speedup"]:.2f}x', r["parallel_shards"], r["documents"]]
            for r in rows
        ],
        title=f"E14c parallel corpus evaluation ({PARALLEL_DOCS} docs x "
        f"{PARALLEL_LENGTH} letters, {cpus} CPU(s) available): "
        "evaluate_many(workers=N) shards across processes; median of "
        f"{REPEATS} alternating run(s) per count, fresh documents, "
        "collector paused",
    )
    report("E14c_parallel_scaling", table)
    _JSON["sections"]["parallel_scaling"] = {
        "n_docs": PARALLEL_DOCS,
        "doc_length": PARALLEL_LENGTH,
        "density": PARALLEL_DENSITY,
        "repeats": REPEATS,
        "rows": rows,
    }
    _flush_json()
    for row in rows:
        assert row["documents"] == PARALLEL_DOCS  # stats merged from shards
    if not TINY and cpus >= 4:
        by_workers = {r["workers"]: r for r in rows}
        assert by_workers[4]["speedup"] >= 2.0, by_workers[4]
