"""E18 — incremental append evaluation: tailing a growing document costs
O(appended), not O(document).

The match graph is layered by position, so a :class:`~repro.engine.tail
.TailSession` resumes the Boolean forward pass from the previous run's
checkpointed frontier instead of rebuilding from position 0.  The sweep
tails the server-logs workload pack (``repro.workloads.packs``) with the
ERROR-timestamp monitoring query and times each 100-letter append two
ways:

* **incremental** — ``session.reevaluate(chunk)`` on one long-lived
  session (frontier resume over the overhang);
* **rebuild** — a fresh full evaluation of the whole accumulated
  document, plan cache warm (what every poll costs without the
  incremental runtime).

Two regimes:

* **quiet** (the acceptance section) — ``error_rate=0``: no append ever
  completes a match, so the incremental path is pure frontier extension
  plus an emptiness test.  The bar: **≥5x** speedup for 100-letter
  appends on a ≥50k-letter document (in practice it is orders of
  magnitude — the rebuild re-walks every layer).
* **dense** — ``error_rate=0.2``: an incremental re-evaluation walks
  back from the final layer over each new mapping's captured region and
  stops at the checkpoint for the mappings already emitted, while a
  rebuild enumerates every mapping of the document again; reported, not
  asserted.

Each cell runs both ways in ``PASSES`` passes, each on a fresh engine,
and reports the median pass.  Every timed loop runs with the garbage
collector paused, as ``timeit`` (and E16) does, so a collection triggered
by earlier allocations cannot land in one pass's timing.

Results are written to ``BENCH_incremental.json`` at the repository root
(CI uploads it; ``tests/integration/test_perf_budgets.py`` gates the
committed copy).  Set ``BENCH_E18_TINY=1`` for a seconds-scale smoke
version with the timing assertions relaxed.
"""

import os
import time
from statistics import median

from repro.engine import Engine
from repro.utils import format_table
from repro.va import regex_to_va, trim
from repro.workloads.packs import (
    error_timestamp_formula,
    generate_log,
    golden_error_timestamps,
)

from bench_common import paused

TINY = bool(os.environ.get("BENCH_E18_TINY"))

APPEND_LETTERS = 100
APPENDS = 3 if TINY else 20
QUIET_DOC_LETTERS = (2_000,) if TINY else (10_000, 50_000)
DENSE_DOC_LETTERS = 1_000 if TINY else 5_000
#: Timed passes per cell; the median is reported.
PASSES = 3

_JSON: dict = {
    "experiment": "e18_incremental",
    "formula": "error_timestamp_formula (workload pack: server_logs)",
    "tiny": TINY,
    "sections": {},
}


def _flush_json():
    from bench_common import write_json_report

    _JSON["generated_unix"] = int(time.time())
    write_json_report("BENCH_incremental.json", _JSON, at_root=True)


def _log_of_length(letters: int, error_rate: float, seed: int) -> str:
    """A pack-generated log trimmed to exactly ``letters`` letters."""
    lines = 1 + letters // 40  # pack lines run ~45-60 letters
    text = generate_log(lines, seed=seed, error_rate=error_rate)
    while len(text) < letters:
        lines *= 2
        text = generate_log(lines, seed=seed, error_rate=error_rate)
    return text[:letters]


def _incremental_pass(va, base: str, chunks: list[str]):
    """One timed pass of the appends on a fresh engine's session: ``(ms
    per append, mappings the appends emitted, the session, the engine's
    stats)``."""
    engine = Engine()
    session = engine.tail(va, base)
    session.reevaluate()  # establish the checkpointed run (setup, untimed)

    def appends():
        matches = 0
        start = time.perf_counter()
        for chunk in chunks:
            matches += len(session.reevaluate(chunk))
        return time.perf_counter() - start, matches

    seconds, matches = paused(appends)
    return seconds * 1e3 / APPENDS, matches, session, engine.stats


def _rebuild_pass(va, base: str, chunks: list[str]):
    """One timed pass of full re-evaluations after each append, plan cache
    warm: ``(ms per append, the last relation)``."""
    engine = Engine()
    engine.evaluate(va, base)  # warm the plan cache (untimed)
    documents = []
    accumulated = base
    for chunk in chunks:
        accumulated += chunk
        documents.append(accumulated)

    def rebuilds():
        relation = None
        start = time.perf_counter()
        for document in documents:
            relation = engine.evaluate(va, document)
        return time.perf_counter() - start, relation

    seconds, relation = paused(rebuilds)
    return seconds * 1e3 / APPENDS, relation


def _measure(base_letters: int, error_rate: float, seed: int) -> dict:
    """Time APPENDS × APPEND_LETTERS-letter appends, incremental vs
    rebuild, on a ``base_letters``-letter document: the median of
    ``PASSES`` passes each way."""
    va = trim(regex_to_va(error_timestamp_formula()))
    total = base_letters + APPENDS * APPEND_LETTERS
    text = _log_of_length(total, error_rate, seed)
    base = text[:base_letters]
    chunks = [
        text[base_letters + i * APPEND_LETTERS :
             base_letters + (i + 1) * APPEND_LETTERS]
        for i in range(APPENDS)
    ]

    incremental = [_incremental_pass(va, base, chunks) for _ in range(PASSES)]
    rebuild = [_rebuild_pass(va, base, chunks) for _ in range(PASSES)]
    incremental_ms = median(run[0] for run in incremental)
    rebuild_ms = median(ms for ms, _relation in rebuild)
    _ms, matches, session, stats = incremental[0]
    _ms, final_relation = rebuild[0]

    # Correctness alongside the timing: every pass emits the same
    # mappings, and the session's lifetime emissions cover the full
    # document's matches, which equal the golden oracle.
    assert {run[1] for run in incremental} == {matches}
    assert session.document.text == text
    assert len(final_relation) == len(golden_error_timestamps(text))
    assert session.total_matches >= len(final_relation)

    return {
        "doc_letters": base_letters,
        "append_letters": APPEND_LETTERS,
        "appends": APPENDS,
        "error_rate": error_rate,
        "matches": matches,
        "incremental_ms": round(incremental_ms, 4),
        "rebuild_ms": round(rebuild_ms, 4),
        "speedup": round(rebuild_ms / incremental_ms, 1),
        "reused_layers": stats.tail_reused_layers,
        "recomputed_layers": stats.tail_recomputed_layers,
    }


def _table(rows, title):
    return format_table(
        [
            "doc",
            "append",
            "appends",
            "err_rate",
            "matches",
            "incr_ms",
            "rebuild_ms",
            "speedup",
            "reused",
            "recomputed",
        ],
        [
            [
                r["doc_letters"],
                r["append_letters"],
                r["appends"],
                r["error_rate"],
                r["matches"],
                r["incremental_ms"],
                r["rebuild_ms"],
                f'{r["speedup"]}x',
                r["reused_layers"],
                r["recomputed_layers"],
            ]
            for r in rows
        ],
        title=title,
    )


# -- quiet regime (acceptance) ------------------------------------------------


def _quiet_sweep():
    return [
        _measure(letters, error_rate=0.0, seed=18 + i)
        for i, letters in enumerate(QUIET_DOC_LETTERS)
    ]


def bench_e18_quiet_tail(benchmark, report):
    rows = benchmark.pedantic(_quiet_sweep, rounds=1, iterations=1)
    report(
        "E18a_quiet_tail",
        _table(
            rows,
            "E18a quiet monitoring stream (error_rate=0): per-append cost "
            "of the incremental session vs a full re-evaluation",
        ),
    )
    _JSON["sections"]["quiet"] = {"rows": rows}
    _flush_json()
    for row in rows:
        # No append completes a match on a quiet stream, and the session
        # reuses every already-built layer.
        assert row["matches"] == 0, row
        assert row["reused_layers"] > 0, row
    if not TINY:
        # Acceptance bar: ≥5x for 100-letter appends on a ≥50k-letter
        # document.
        big = max(rows, key=lambda r: r["doc_letters"])
        assert big["doc_letters"] >= 50_000, rows
        assert big["append_letters"] == 100, rows
        assert big["speedup"] >= 5.0, big


# -- dense regime (reported) --------------------------------------------------


def _dense_sweep():
    return [_measure(DENSE_DOC_LETTERS, error_rate=0.2, seed=31)]


def bench_e18_dense_tail(benchmark, report):
    rows = benchmark.pedantic(_dense_sweep, rounds=1, iterations=1)
    report(
        "E18b_dense_tail",
        _table(
            rows,
            "E18b dense stream (error_rate=0.2): the incremental session "
            "walks back once per new mapping; a rebuild enumerates every "
            "mapping again",
        ),
    )
    _JSON["sections"]["dense"] = {"rows": rows}
    _flush_json()
    assert rows[0]["matches"] > 0, rows
