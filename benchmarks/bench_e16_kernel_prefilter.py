"""E16 — the run-compressed transition kernel and the VA-derived corpus
prefilter: run-heavy documents, selectivity sweeps, and shared-corpus
batches.

The evaluation kernel's per-document cost should be sublinear in practice:

* **run-compressed kernel** — documents with long single-letter runs
  take the run walk: they advance through memoized ``(letter, 2^k)``
  transformer powers (plus fixpoint absorption), and the enumeration DFS
  jumps a forced stretch across a run's stable live layers in one step,
  so both emptiness and full enumeration scale with the number of
  *runs*, not letters.  The acceptance bar: ≥2x full-enumeration
  speedup over the letter walk (forced by raising the shared run-walk
  threshold) on run-heavy documents.
* **prefilter** — corpora where most documents provably cannot match are
  rejected in O(1) from the cached letter histogram, before any graph or
  encoding exists.  The acceptance bar: ≥5x emptiness/first-match
  throughput on a sparse corpus (≤10% matching documents).
* **shared-corpus batches** — ``Engine.evaluate_many`` prefilters up
  front and only evaluates (or ships to workers) the survivors.
* **walk matrix** (E16d) — the engine's letter walk, which steps
  interned frontier nodes, vs the per-letter mask walk it replaced
  (:func:`_mask_walk_nonempty` and :class:`_MaskWalkGraph`, kept here as
  the baseline) on a >64-state query: Boolean emptiness and first-match
  on a low-run 100k-letter document (where the node walk should win ≥5x)
  and on a run-heavy document (which takes the same run walk on both
  sides) — both cells are reported so the README's matrix stays honest.
  The sides take turns within each repeat, so host speed phases hit both
  sides of a ratio, and a call shorter than :data:`MIN_SAMPLE_S` repeats
  back to back within each timed sample.
  The barred cells time warm documents, whose runs and letter ids are
  cached; a second leg, with no bar, times the same calls on a new
  ``Document`` per call, which pays the routing scan and the encoding
  as the engine does on a document it has not seen.
* **enumeration throughput** (E16e) — *full enumeration* (mappings/sec)
  across a run-length × match-density grid, each cell the median of
  :data:`ENUM_REPEATS` runs on fresh documents, plus the DFS frames per
  mapping, each on every cell's document and on its first quarter.  The
  acceptance bar is a count: on the low-run 100k-letter cells, whose
  query stars a union of letters, frames per mapping on the whole
  document are at most 1.5x those on its first quarter (a walk that
  steps one frame per layer grows about 4x).  One more low-run cell,
  under the same bar, runs :data:`HELD_FORMULA`, whose paths enter one
  class-star stretch at many layers: a jump that crossed the stretch
  anew on every path would add about one guard check per 4096 layers,
  about n/2 layers per mapping.

Every timed call runs with the garbage collector paused, as ``timeit``
does, so a collection triggered by earlier allocations cannot land in one
side of a ratio.

Results are written as human-readable tables (the ``report`` fixture) and
machine-readably to ``BENCH_kernel.json`` at the repository root (CI
uploads it as an artifact; ``bench_common.write_json_report`` stamps the
git SHA).  Set ``BENCH_E16_TINY=1`` for a seconds-scale smoke version that
still exercises every code path and the full JSON schema, with the timing
assertions relaxed.
"""

import gc
import math
import os
import random
import statistics
import time
from unittest.mock import patch

from repro.core import Document
from repro.engine import Engine, ExecutionGuard
from repro.utils import apply_masks, format_table
from repro.va import IndexedMatchGraph, indexed_nonempty
from repro.va import kernel as kernel_module
from repro.va.kernel import run_walk_runs

TINY = bool(os.environ.get("BENCH_E16_TINY"))

#: The kernel workload: rare-letter captures in an a/b run sea.  The
#: prefilter derives "requires c" from it, so mark-free documents are
#: provably non-matching.
FORMULA = "(a|b|c)*x{c+}(a|b|c)*"

#: Run lengths for the run-heavy sweep (documents keep ~the same letter
#: count while runs lengthen, so the letter walk's cost stays flat and
#: the run walk's falls with the run count).
RUN_LENGTHS = (4, 16) if TINY else (10, 100, 1000)
KERNEL_DOC_LETTERS = 400 if TINY else 20_000
KERNEL_MARKS = 4

SELECTIVITIES = (0.25, 1.0) if TINY else (0.01, 0.1, 0.5)
CORPUS_DOCS = 12 if TINY else 400
CORPUS_DOC_LENGTH = 60 if TINY else 2_000
BATCH_SIZES = (8,) if TINY else (50, 200, 800)
REPEATS = 1 if TINY else 3

_JSON: dict = {
    "experiment": "e16_kernel_prefilter",
    "formula": FORMULA,
    "tiny": TINY,
    "sections": {},
}


def _flush_json():
    from bench_common import write_json_report

    _JSON["generated_unix"] = int(time.time())
    write_json_report("BENCH_kernel.json", _JSON, at_root=True)


def _compiled():
    from bench_common import compile_formula

    return compile_formula(FORMULA)


def _best_of(repeats, func, calls=1):
    """The best per-call wall time (ms) over ``repeats`` samples of
    ``calls`` back-to-back calls of ``func``, and its last value.  The
    collector is paused while a sample runs and restored after it, as
    ``timeit`` does."""
    best, value = None, None
    for _ in range(repeats):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(calls):
                value = func()
            elapsed = (time.perf_counter() - start) / calls
        finally:
            if collecting:
                gc.enable()
        if best is None or elapsed < best:
            best = elapsed
    return best * 1e3, value


def _run_heavy_document(
    letters: int, run_length: int, marks: int, seed: int
) -> Document:
    """~``letters`` letters of alternating a/b runs of ``run_length``,
    with ``marks`` isolated ``c`` letters spread between runs (0 marks
    gives a provably non-matching document)."""
    rng = random.Random(seed)
    n_runs = max(1, letters // run_length)
    mark_at = set(rng.sample(range(1, n_runs), min(marks, n_runs - 1)) if n_runs > 1 else [])
    parts = []
    for i in range(n_runs):
        parts.append(("a" if i % 2 == 0 else "b") * run_length)
        if i in mark_at:
            parts.append("c")
    return Document("".join(parts))


# -- run-compressed kernel: full enumeration and emptiness -------------------


def _letter_walk():
    """Force the letter walk on every non-empty document: no document
    reaches this mean run length."""
    return patch.object(kernel_module, "RUN_WALK_THRESHOLD", 1 << 30)


def _kernel_sweep():
    va = _compiled()
    indexed = va.indexed()
    rows = []
    for run_length in RUN_LENGTHS:
        doc = _run_heavy_document(
            KERNEL_DOC_LETTERS, run_length, KERNEL_MARKS, seed=run_length
        )
        empty_doc = _run_heavy_document(
            KERNEL_DOC_LETTERS, run_length, 0, seed=run_length
        )
        compressed_ms, n_compressed = _best_of(
            REPEATS,
            lambda: sum(1 for _ in IndexedMatchGraph(indexed, doc).enumerate()),
        )
        nonempty_compressed_ms, _ = _best_of(
            REPEATS, lambda: indexed_nonempty(indexed, empty_doc)
        )
        with _letter_walk():
            plain_ms, n_plain = _best_of(
                REPEATS,
                lambda: sum(1 for _ in IndexedMatchGraph(indexed, doc).enumerate()),
            )
            nonempty_plain_ms, _ = _best_of(
                REPEATS, lambda: indexed_nonempty(indexed, empty_doc)
            )
        assert n_compressed == n_plain > 0
        rows.append(
            {
                "run_length": run_length,
                "doc_letters": len(doc),
                "mappings": n_compressed,
                "full_compressed_ms": round(compressed_ms, 3),
                "full_plain_ms": round(plain_ms, 3),
                "full_speedup": round(plain_ms / compressed_ms, 2),
                "emptiness_compressed_ms": round(nonempty_compressed_ms, 4),
                "emptiness_plain_ms": round(nonempty_plain_ms, 4),
                "emptiness_speedup": round(
                    nonempty_plain_ms / nonempty_compressed_ms, 2
                ),
            }
        )
    return rows


def bench_e16_run_compressed_kernel(benchmark, report):
    rows = benchmark.pedantic(_kernel_sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "run_len",
            "letters",
            "mappings",
            "full_run_walk_ms",
            "full_letter_walk_ms",
            "speedup",
            "empty_run_walk_ms",
            "empty_letter_walk_ms",
            "speedup",
        ],
        [
            [
                r["run_length"],
                r["doc_letters"],
                r["mappings"],
                r["full_compressed_ms"],
                r["full_plain_ms"],
                f'{r["full_speedup"]:.2f}x',
                r["emptiness_compressed_ms"],
                r["emptiness_plain_ms"],
                f'{r["emptiness_speedup"]:.2f}x',
            ]
            for r in rows
        ],
        title="E16a run walk (run-compressed kernel) vs letter walk on "
        f"run-heavy documents (~{KERNEL_DOC_LETTERS} letters, "
        f"{KERNEL_MARKS} marks): full enumeration and Boolean emptiness",
    )
    report("E16a_run_compressed_kernel", table)
    _JSON["sections"]["kernel_run_sweep"] = {
        "doc_letters": KERNEL_DOC_LETTERS,
        "marks": KERNEL_MARKS,
        "repeats": REPEATS,
        "rows": rows,
    }
    _flush_json()
    if not TINY:
        # Acceptance bar: ≥2x full enumeration on run-heavy documents.
        longest = rows[-1]
        assert longest["full_speedup"] >= 2.0, longest
        assert longest["emptiness_speedup"] >= 2.0, longest


# -- prefilter: selectivity sweep --------------------------------------------


def _selectivity_corpus(matching_fraction: float, seed: int) -> list[Document]:
    """A corpus where only ``matching_fraction`` of documents contain the
    required ``c`` mark (the rest are provably non-matching)."""
    rng = random.Random(seed)
    n_matching = max(1, int(CORPUS_DOCS * matching_fraction))
    docs = []
    for i in range(CORPUS_DOCS):
        marks = 2 if i < n_matching else 0
        docs.append(
            _run_heavy_document(
                CORPUS_DOC_LENGTH, 10, marks, seed=rng.randrange(1 << 30)
            )
        )
    rng.shuffle(docs)
    return docs


def _selectivity_sweep():
    va = _compiled()
    rows = []
    for fraction in SELECTIVITIES:
        docs = _selectivity_corpus(fraction, seed=int(fraction * 1000))
        results = {}
        for label, prefilter in (("prefiltered", True), ("full_scan", False)):
            engine = Engine(prefilter=prefilter)
            engine.is_nonempty(va, docs[0])  # warm the plan cache
            nonempty_ms, _ = _best_of(
                REPEATS,
                lambda: sum(1 for doc in docs if engine.is_nonempty(va, doc)),
            )
            first_ms, _ = _best_of(
                REPEATS,
                lambda: sum(
                    1 for doc in docs if engine.first(va, doc) is not None
                ),
            )
            results[label] = (nonempty_ms, first_ms, engine)
        nonempty_pf, first_pf, engine_pf = results["prefiltered"]
        nonempty_full, first_full, _ = results["full_scan"]
        rows.append(
            {
                "matching_fraction": fraction,
                "docs": len(docs),
                "nonempty_prefiltered_ms": round(nonempty_pf, 3),
                "nonempty_full_ms": round(nonempty_full, 3),
                "nonempty_speedup": round(nonempty_full / nonempty_pf, 2),
                "first_prefiltered_ms": round(first_pf, 3),
                "first_full_ms": round(first_full, 3),
                "first_speedup": round(first_full / first_pf, 2),
                "prefilter_rejects": engine_pf.stats.prefilter_rejects,
            }
        )
    return rows


def bench_e16_prefilter_selectivity(benchmark, report):
    rows = benchmark.pedantic(_selectivity_sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "matching",
            "docs",
            "nonempty_pf_ms",
            "nonempty_full_ms",
            "speedup",
            "first_pf_ms",
            "first_full_ms",
            "speedup",
        ],
        [
            [
                r["matching_fraction"],
                r["docs"],
                r["nonempty_prefiltered_ms"],
                r["nonempty_full_ms"],
                f'{r["nonempty_speedup"]:.2f}x',
                r["first_prefiltered_ms"],
                r["first_full_ms"],
                f'{r["first_speedup"]:.2f}x',
            ]
            for r in rows
        ],
        title=f"E16b prefilter selectivity sweep ({CORPUS_DOCS} docs x "
        f"{CORPUS_DOC_LENGTH} letters): corpus emptiness and first-match "
        "throughput, O(1) histogram rejection vs full Boolean scan",
    )
    report("E16b_prefilter_selectivity", table)
    _JSON["sections"]["prefilter_selectivity"] = {
        "docs": CORPUS_DOCS,
        "doc_length": CORPUS_DOC_LENGTH,
        "repeats": REPEATS,
        "rows": rows,
    }
    _flush_json()
    if not TINY:
        # Acceptance bar: ≥5x emptiness/first-match throughput on a
        # sparse corpus (≤10% matching documents).  Emptiness clears it
        # across the sparse range; first-match clears it on the sparsest
        # corpus — at exactly 10% matching the surviving documents' full
        # first-match work (identical under both engines) already bounds
        # any prefilter's speedup near 2x, so that row is reported as the
        # curve but asserted only against the baseline.
        sparse = [r for r in rows if r["matching_fraction"] <= 0.1]
        assert sparse, rows
        for row in sparse:
            assert row["nonempty_speedup"] >= 5.0, row
            assert row["first_speedup"] >= 1.0, row
        sparsest = min(rows, key=lambda r: r["matching_fraction"])
        assert sparsest["matching_fraction"] <= 0.1, sparsest
        assert sparsest["first_speedup"] >= 5.0, sparsest


# -- shared-corpus batch path -------------------------------------------------


def _batch_sweep():
    va = _compiled()
    rows = []
    for size in BATCH_SIZES:
        rng = random.Random(size)
        n_matching = max(1, size // 10)
        docs = [
            _run_heavy_document(
                CORPUS_DOC_LENGTH,
                10,
                2 if i < n_matching else 0,
                seed=rng.randrange(1 << 30),
            )
            for i in range(size)
        ]
        rng.shuffle(docs)
        baseline = None
        timings = {}
        for label, prefilter in (("prefiltered", True), ("full_scan", False)):
            engine = Engine(prefilter=prefilter)
            wall_ms, relations = _best_of(
                REPEATS, lambda: engine.evaluate_many(va, docs)
            )
            if baseline is None:
                baseline = relations
            else:
                assert relations == baseline  # prefilter must not change results
            timings[label] = wall_ms
        rows.append(
            {
                "batch_size": size,
                "matching_docs": sum(1 for r in baseline if len(r)),
                "prefiltered_ms": round(timings["prefiltered"], 3),
                "full_scan_ms": round(timings["full_scan"], 3),
                "speedup": round(timings["full_scan"] / timings["prefiltered"], 2),
            }
        )
    return rows


# -- walk matrix: the node walk vs the per-letter mask walk -------------------

#: A >64-state query (wider than one machine word): an anchored 24-letter
#: pattern inside a capture, in an a/b sea.
MATRIX_FORMULA = "(a|b)*x{" + "ab" * 12 + "a+}(a|b)*"
MATRIX_DOC_LETTERS = 2_000 if TINY else 100_000
MATRIX_RUN_LENGTH = 25_000  # the run-heavy workload's run size (non-tiny)
#: The two sides of every cell: the baseline first, then the engine.
MATRIX_WALKS = ("mask_walk", "node_walk")


def _mask_walk_nonempty(indexed, doc: Document) -> bool:
    """``is_nonempty`` as the letter walk ran before it stepped interned
    frontier nodes: one mask application per letter, stopping once the
    frontier dies.  A document of long runs takes the run walk, as it
    did then."""
    if run_walk_runs(doc) is not None:
        return indexed_nonempty(indexed, doc)
    succ = indexed.successor_masks
    mask = 1 << indexed.initial_id
    for lid in doc.encoded(indexed.alphabet):
        if lid < 0:
            return False  # a letter unknown to the VA: no run survives
        mask = apply_masks(succ[lid], mask)
        if not mask:
            return False
    return bool(mask & indexed.accept_mask)


class _MaskWalkGraph(IndexedMatchGraph):
    """The match graph as the letter walk built it before it stepped
    interned frontier nodes, for ``first()``: forward layers by one mask
    application per letter, live layers by testing each forward state's
    successors against the next live layer, and the library's greedy
    ``first()`` over those live layers, with its jump.  A
    document of long runs takes the run walk, as it did then."""

    __slots__ = ()

    def __init__(self, indexed, document):
        super().__init__(indexed, document)
        if self._runs is None:
            # Without a kernel, first() reads the live layers below.
            self._kernel = None

    @property
    def forward(self):
        if self._forward is None and self._runs is None:
            indexed = self.indexed
            succ = indexed.successor_masks
            forward = [0] * (self._n + 1)
            mask = forward[0] = 1 << indexed.initial_id
            for i, lid in enumerate(self.letter_ids):
                if lid < 0:
                    break
                mask = apply_masks(succ[lid], mask)
                if not mask:
                    break
                forward[i + 1] = mask
            self._forward = forward
        return super().forward

    @property
    def alive(self):
        if self._alive is None and self._runs is None:
            ids = self.letter_ids
            forward = self.forward
            succ = self.indexed.successor_masks
            alive = [0] * (self._n + 1)
            live = alive[self._n] = self.final_mask
            for i in range(self._n - 1, -1, -1):
                if not live:
                    break  # nothing co-reachable earlier either
                row = succ[ids[i]]
                layer_alive = 0
                mask = forward[i]
                while mask:
                    low = mask & -mask
                    if row[low.bit_length() - 1] & live:
                        layer_alive |= low
                    mask ^= low
                alive[i] = live = layer_alive
            self._alive = alive
        return super().alive


def _matrix_documents() -> "list[tuple[str, Document]]":
    """The two matrix workloads: a low-run (random a/b) document with one
    planted match, and a run-heavy (few long runs) document."""
    rng = random.Random(16)
    n = MATRIX_DOC_LETTERS
    low_run = [rng.choice("ab") for _ in range(n)]
    planted = "ab" * 12 + "aa"
    middle = n // 2
    low_run[middle : middle + len(planted)] = planted
    run_length = max(4, min(MATRIX_RUN_LENGTH, n // 4))
    parts = []
    while sum(len(p) for p in parts) < n:
        parts.append("a" * run_length)
        parts.append("b" * run_length)
    run_heavy = "".join(parts)[:n] + planted
    return [
        ("low_run", Document("".join(low_run))),
        ("run_heavy", Document(run_heavy)),
    ]


#: The shortest timed sample of a matrix cell: a call faster than this
#: repeats back to back within each sample, so a few milliseconds of host
#: jitter cannot decide a ratio of short calls.
MIN_SAMPLE_S = 0.03


def _calls_per_sample(func) -> int:
    """Back-to-back calls of ``func`` per timed sample: enough that a
    sample lasts at least :data:`MIN_SAMPLE_S`, from one probe call."""
    ms, _ = _best_of(1, func)
    return max(1, math.ceil(MIN_SAMPLE_S * 1e3 / ms))


def _matrix_sweep(fresh: bool):
    """The walk-matrix cells, each call on the workload's own warm
    document, or (``fresh``) on a new ``Document`` of its text."""
    from repro.engine import PreparedIndexedVA
    from repro.regex import parse

    from bench_common import compile_formula

    va = compile_formula(parse(MATRIX_FORMULA))
    indexed = va.indexed()
    assert indexed.n_states > 64  # wider than one machine word
    prepared = PreparedIndexedVA(va)
    sides = {
        "mask_walk": {
            "nonempty_ms": lambda doc: _mask_walk_nonempty(indexed, doc),
            "first_ms": lambda doc: _MaskWalkGraph(indexed, doc).first(),
        },
        "node_walk": {
            "nonempty_ms": prepared.is_nonempty,
            "first_ms": lambda doc: prepared.run(doc).first(),
        },
    }
    rows = []
    for workload, doc in _matrix_documents():

        def subject(doc=doc):
            return Document(doc.text) if fresh else doc

        for side in MATRIX_WALKS:
            # Warm the automaton's caches (nodes, powers) and, on the warm
            # leg, the document's (runs, encoding).
            sides[side]["nonempty_ms"](subject())
        best = {side: {} for side in MATRIX_WALKS}
        # Each cell times the sides in turns within each repeat, in
        # alternating order, so a speed phase of the host (or the state
        # the previous call leaves) lands on both sides of a ratio alike;
        # each keeps its best of REPEATS.
        for metric in ("nonempty_ms", "first_ms"):
            calls = {
                side: _calls_per_sample(lambda: sides[side][metric](subject()))
                for side in MATRIX_WALKS
            }
            for repeat in range(REPEATS):
                order = MATRIX_WALKS if repeat % 2 == 0 else MATRIX_WALKS[::-1]
                for side in order:
                    ms, answer = _best_of(
                        1, lambda: sides[side][metric](subject()), calls[side]
                    )
                    # A true emptiness answer, or a first mapping.
                    assert answer not in (False, None), (workload, side, metric)
                    cell = best[side]
                    cell[metric] = min(cell.get(metric, ms), ms)
        for side in MATRIX_WALKS:
            rows.append(
                {
                    "workload": workload,
                    "walk": side,
                    "doc_letters": len(doc),
                    "nonempty_ms": round(best[side]["nonempty_ms"], 4),
                    "first_ms": round(best[side]["first_ms"], 4),
                }
            )
    return rows


def _walk_matrix_sweep():
    """The barred matrix cells, on warm documents (the live perf gate
    re-runs this)."""
    return _matrix_sweep(fresh=False)


def _fresh_walk_matrix_sweep():
    """The same cells on a new ``Document`` per call (reported only)."""
    return _matrix_sweep(fresh=True)


def _matrix_speedups(rows):
    """Node-walk-over-mask-walk ratios per workload."""
    by_key = {(r["workload"], r["walk"]): r for r in rows}
    speedups = {}
    for workload in ("low_run", "run_heavy"):
        mask = by_key[(workload, "mask_walk")]
        node = by_key[(workload, "node_walk")]
        speedups[workload] = {
            "nonempty": round(mask["nonempty_ms"] / node["nonempty_ms"], 2),
            "first": round(mask["first_ms"] / node["first_ms"], 2),
        }
    return speedups


def _report_matrix(report, name: str, section: str, rows, documents: str):
    """Report one walk-matrix leg and record it as a JSON section."""
    speedups = _matrix_speedups(rows)
    table = format_table(
        ["workload", "walk", "letters", "nonempty_ms", "first_ms"],
        [
            [
                r["workload"],
                r["walk"],
                r["doc_letters"],
                r["nonempty_ms"],
                r["first_ms"],
            ]
            for r in rows
        ],
        title="E16d walk matrix on a >64-state query "
        f"({MATRIX_DOC_LETTERS} letters, {documents}): Boolean emptiness "
        "and first-match, per-letter mask walk vs interned-node walk",
    )
    report(name, table)
    _JSON["sections"][section] = {
        "formula": MATRIX_FORMULA,
        "doc_letters": MATRIX_DOC_LETTERS,
        "repeats": REPEATS,
        "min_sample_s": MIN_SAMPLE_S,
        "documents": documents,
        "walks": list(MATRIX_WALKS),
        "rows": rows,
        "node_walk_speedup_vs_mask_walk": speedups,
    }
    _flush_json()
    return speedups


def bench_e16_walk_matrix(benchmark, report):
    rows = benchmark.pedantic(_walk_matrix_sweep, rounds=1, iterations=1)
    speedups = _report_matrix(
        report, "E16d_walk_matrix", "walk_matrix", rows, "warm documents"
    )
    if not TINY:
        # Acceptance bar: ≥5x over the mask walk on a low-run 100k-letter
        # document with a ≥64-state query, for both emptiness and
        # first-match.  (Run-heavy documents take the same run walk on
        # both sides — reported, not asserted.)
        low_run = speedups["low_run"]
        assert low_run["nonempty"] >= 5.0, speedups
        assert low_run["first"] >= 5.0, speedups


def bench_e16_walk_matrix_fresh(benchmark, report):
    # What the engine pays on a document it has not seen: the routing
    # scan, the letter encoding and, on the run walk, the runs.  No bar.
    rows = benchmark.pedantic(_fresh_walk_matrix_sweep, rounds=1, iterations=1)
    _report_matrix(
        report,
        "E16d_walk_matrix_fresh",
        "walk_matrix_fresh",
        rows,
        "a new Document per call",
    )


# -- enumeration throughput and DFS frames -------------------------------------

ENUM_DOC_LETTERS = 2_000 if TINY else 100_000
#: Gap shapes for the needle sea: 1 = low-run (random a/b letters),
#: larger values = run-heavy (single-letter runs of that length).
ENUM_RUN_LENGTHS = (1, 1_000)
#: Per-gap needle probabilities (match density; one needle is always
#: planted mid-document so every cell enumerates at least one mapping).
ENUM_NEEDLE_RATES = (0.02, 0.08)
#: Runs per cell, each on a fresh document with the collector paused;
#: the median is reported.
ENUM_REPEATS = 3
#: The held-stretch cell's query: every x path crosses the [ab]* stretch
#: from its capture to the y at the end of the document.
HELD_FORMULA = "[ab]*x{a}[ab]*y{b}"


def _enum_document(run_length: int, needle_rate: float, seed: int) -> Document:
    """~``ENUM_DOC_LETTERS`` letters of a/b gaps with ``ab^12 a`` needles
    (the :data:`MATRIX_FORMULA` match) planted between gaps."""
    rng = random.Random(seed)
    needle = "ab" * 12 + "a"
    parts = []
    total = 0
    while total < ENUM_DOC_LETTERS:
        if run_length <= 1:
            gap = "".join(
                rng.choice("ab") for _ in range(rng.randrange(20, 60))
            )
        else:
            gap = ("a" if rng.random() < 0.5 else "b") * run_length
        parts.append(gap)
        total += len(gap)
        if rng.random() < needle_rate:
            parts.append(needle)
            total += len(needle)
    text = "".join(parts)[:ENUM_DOC_LETTERS]
    middle = len(text) // 2
    return Document(text[:middle] + needle + text[middle:])


class _FrameCounter(ExecutionGuard):
    """A guard with no limits that counts its ticks and checks: the
    enumeration DFS ticks once per frame, and a jump checks once per 4096
    layers it crosses."""

    def __init__(self):
        super().__init__()
        self.ticks = 0

    def tick(self):
        self.ticks += 1

    def check(self):
        self.ticks += 1


def _frames_per_mapping(indexed, doc: Document) -> "float | None":
    """DFS frames and jump chunks per mapping of a full enumeration
    (``None`` without a mapping), counted after the backward pass, which
    ticks and checks too."""
    counter = _FrameCounter()
    graph = IndexedMatchGraph(indexed, doc, guard=counter)
    graph.alive
    counter.ticks = 0
    mappings = sum(1 for _ in graph.enumerate())
    return round(counter.ticks / mappings, 1) if mappings else None


def _enumeration_cell(indexed, doc: Document) -> dict:
    """Full enumeration of one document, the median of
    :data:`ENUM_REPEATS` runs, each on a fresh copy so it pays the letter
    encoding a document caches, as the engine does on a new document, and
    with the collector paused; and its DFS frames per mapping."""
    from bench_common import paused

    def run():
        start = time.perf_counter()
        mappings = sum(
            1 for _ in IndexedMatchGraph(indexed, Document(doc.text)).enumerate()
        )
        return (time.perf_counter() - start) * 1e3, mappings

    runs = [paused(run) for _ in range(ENUM_REPEATS)]
    return {
        "letters": len(doc),
        "mappings": runs[0][1],
        "indexed_ms": round(statistics.median(ms for ms, _ in runs), 3),
        "indexed_ms_runs": [round(ms, 3) for ms, _ in runs],
        "frames_per_mapping": _frames_per_mapping(indexed, doc),
    }


def _held_document(seed: int) -> Document:
    """``ENUM_DOC_LETTERS`` random a/b letters, with a ``b`` closing the
    document and its first quarter, so both end a match of
    :data:`HELD_FORMULA`."""
    rng = random.Random(seed)
    letters = [rng.choice("ab") for _ in range(ENUM_DOC_LETTERS)]
    letters[ENUM_DOC_LETTERS // 4 - 1] = letters[-1] = "b"
    return Document("".join(letters))


def _enumeration_sweep():
    from repro.regex import parse

    from bench_common import compile_formula

    cells = [
        (
            MATRIX_FORMULA,
            run_length,
            rate,
            _enum_document(run_length, rate, seed=run_length * 1000 + int(rate * 100)),
        )
        for run_length in ENUM_RUN_LENGTHS
        for rate in ENUM_NEEDLE_RATES
    ]
    cells.append((HELD_FORMULA, 1, None, _held_document(seed=1)))
    rows = []
    for formula, run_length, rate, doc in cells:
        indexed = compile_formula(parse(formula)).indexed()
        full = _enumeration_cell(indexed, doc)
        assert full["mappings"] > 0, (formula, run_length, rate)
        quarter = _enumeration_cell(indexed, Document(doc.text[: len(doc) // 4]))
        rows.append(
            {
                "formula": formula,
                "workload": "low_run" if run_length <= 1 else "run_heavy",
                "run_length": run_length,
                "needle_rate": rate,
                "doc_letters": full["letters"],
                "mappings": full["mappings"],
                "indexed_ms": full["indexed_ms"],
                "indexed_ms_runs": full["indexed_ms_runs"],
                "indexed_maps_per_s": round(full["mappings"] / (full["indexed_ms"] / 1e3), 1),
                "frames_per_mapping": full["frames_per_mapping"],
                "quarter_letters": quarter["letters"],
                "quarter_mappings": quarter["mappings"],
                "quarter_indexed_ms": quarter["indexed_ms"],
                "quarter_frames_per_mapping": quarter["frames_per_mapping"],
            }
        )
    return rows


def bench_e16_enumeration_throughput(benchmark, report):
    rows = benchmark.pedantic(_enumeration_sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "query",
            "workload",
            "needle_rate",
            "mappings",
            "indexed_ms",
            "frames/map",
            "quarter: mappings",
            "indexed_ms",
            "frames/map",
        ],
        [
            [
                "matrix" if r["formula"] == MATRIX_FORMULA else r["formula"],
                r["workload"],
                "-" if r["needle_rate"] is None else r["needle_rate"],
                r["mappings"],
                r["indexed_ms"],
                r["frames_per_mapping"],
                r["quarter_mappings"],
                r["quarter_indexed_ms"],
                "-"
                if r["quarter_frames_per_mapping"] is None
                else r["quarter_frames_per_mapping"],
            ]
            for r in rows
        ],
        title="E16e full-enumeration throughput on the >64-state matrix "
        f"query and the held-stretch query ({ENUM_DOC_LETTERS} letters and "
        "the first quarter): full enumeration and DFS frames per mapping, "
        "run-length x match-density",
    )
    report("E16e_enumeration_throughput", table)
    _JSON["sections"]["enumeration_throughput"] = {
        "formula": MATRIX_FORMULA,
        "held_formula": HELD_FORMULA,
        "doc_letters": ENUM_DOC_LETTERS,
        "repeats": ENUM_REPEATS,
        "run_lengths": list(ENUM_RUN_LENGTHS),
        "needle_rates": list(ENUM_NEEDLE_RATES),
        "rows": rows,
    }
    _flush_json()
    if not TINY:
        # Acceptance bar: on every low-run cell, DFS frames per mapping
        # grow at most 1.5x from the first quarter to the whole document
        # (run-heavy cells skip inside runs either way, and their first
        # quarters may hold no needle, so they are reported, not asserted).
        for row in rows:
            if row["workload"] == "low_run":
                assert row["quarter_mappings"] > 0, row
                assert (
                    row["frames_per_mapping"]
                    <= 1.5 * row["quarter_frames_per_mapping"]
                ), row


def bench_e16_shared_corpus_batch(benchmark, report):
    rows = benchmark.pedantic(_batch_sweep, rounds=1, iterations=1)
    table = format_table(
        ["batch", "matching", "prefiltered_ms", "full_scan_ms", "speedup"],
        [
            [
                r["batch_size"],
                r["matching_docs"],
                r["prefiltered_ms"],
                r["full_scan_ms"],
                f'{r["speedup"]:.2f}x',
            ]
            for r in rows
        ],
        title="E16c shared-corpus batch evaluation "
        f"(~10% matching docs x {CORPUS_DOC_LENGTH} letters): "
        "evaluate_many with the up-front prefilter vs full scans",
    )
    report("E16c_shared_corpus_batch", table)
    _JSON["sections"]["batch_corpus"] = {
        "doc_length": CORPUS_DOC_LENGTH,
        "repeats": REPEATS,
        "rows": rows,
    }
    _flush_json()
    for row in rows:
        assert row["matching_docs"] >= 1, row
