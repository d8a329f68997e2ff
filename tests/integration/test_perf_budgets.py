"""Perf-budget regression gate (ROADMAP item: CI perf budgets).

The committed ``BENCH_*.json`` files at the repository root are the perf
baselines: they record each experiment's speedups at the SHA they were
measured.  This module gates two things:

* **the committed baselines themselves** — the acceptance bars of the
  E14 runtime, E15 optimizer, E16 kernel, and E17 corpus-store benches
  must hold in the checked-in numbers (a PR that regresses perf and
  "fixes" CI by committing worse numbers fails here, visibly);
* **the live code** — the backend-matrix workload is re-run in-process
  (one 100k-letter document, reduced repeats — the tiny slice of the full
  bench) and the measured vectorized-over-indexed speedups must stay
  within ``PERF_BUDGET_TOLERANCE`` (default 30%) of the committed ones.

Speedup *ratios* are compared, never wall-clock times, so the gate is
machine independent: a slow CI runner slows both backends alike.  Set
``PERF_BUDGET_SKIP=1`` to bypass the module (emergency escape hatch for
pathological environments); set ``PERF_BUDGET_TOLERANCE=0.5`` to widen
the budget without editing code.
"""

import json
import os
import pathlib
import sys

import pytest

from repro.va.vectorized import numpy_available

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"

#: Allowed relative speedup loss before the gate fails (>30% slowdown of
#: the measured speedup ratio vs the committed baseline is a regression).
TOLERANCE = float(os.environ.get("PERF_BUDGET_TOLERANCE", "0.30"))

pytestmark = pytest.mark.skipif(
    os.environ.get("PERF_BUDGET_SKIP") == "1",
    reason="perf budgets skipped via PERF_BUDGET_SKIP=1",
)


def _committed(name: str, experiment: str) -> dict:
    path = REPO_ROOT / name
    if not path.exists():
        pytest.skip(f"no committed {name} baseline")
    data = json.loads(path.read_text())
    if data.get("tiny"):
        pytest.skip(f"committed {name} was written in tiny mode")
    assert data["experiment"] == experiment
    assert data["git_sha"] and data["git_sha"] != "unknown"
    return data


def _baseline() -> dict:
    return _committed("BENCH_kernel.json", "e16_kernel_prefilter")


def _bench_module():
    """The E16 bench module, imported from ``benchmarks/`` (its workload
    builders are the single source of truth for the gate's documents)."""
    bench_dir = str(REPO_ROOT / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_e16_kernel_prefilter as bench

    if bench.TINY:
        pytest.skip("BENCH_E16_TINY is set: workloads not baseline-sized")
    return bench


class TestCommittedBaseline:
    """The checked-in numbers must themselves clear the acceptance bars."""

    def test_schema_and_provenance(self):
        data = _baseline()
        assert data["experiment"] == "e16_kernel_prefilter"
        assert data["git_sha"] and data["git_sha"] != "unknown"
        sections = data["sections"]
        for name in (
            "kernel_run_sweep",
            "prefilter_selectivity",
            "batch_corpus",
            "backend_matrix",
            "backend_matrix_fresh",
            "enumeration_throughput",
        ):
            assert sections[name]["rows"], name

    def test_kernel_acceptance_bar_holds(self):
        rows = _baseline()["sections"]["kernel_run_sweep"]["rows"]
        longest = rows[-1]
        assert longest["full_speedup"] >= 2.0, longest
        assert longest["emptiness_speedup"] >= 2.0, longest

    def test_backend_matrix_acceptance_bar_holds(self):
        section = _baseline()["sections"]["backend_matrix"]
        assert section["doc_letters"] >= 100_000, section
        low_run = section["vectorized_speedup_vs_indexed"]["low_run"]
        # The tentpole bar: ≥5x over indexed on is_nonempty and first()
        # for a low-run 100k-letter document with a >64-state query.
        assert low_run["nonempty"] >= 5.0, low_run
        assert low_run["first"] >= 5.0, low_run

    def test_enumeration_frames_acceptance_bar_holds(self):
        section = _baseline()["sections"]["enumeration_throughput"]
        assert section["doc_letters"] >= 100_000, section
        low_run = [
            r for r in section["rows"] if r["workload"] == "low_run"
        ]
        assert low_run, section["rows"]
        # The output-linear bar: on every low-run 100k-letter cell (a
        # union star around the capture), DFS frames per mapping on the
        # whole document are at most 1.5x those on its first quarter; a
        # walk of one frame per layer grows about 4x.
        for row in low_run:
            assert row["mappings"] > 0 and row["quarter_mappings"] > 0, row
            assert (
                row["frames_per_mapping"]
                <= 1.5 * row["quarter_frames_per_mapping"]
            ), row


@pytest.mark.skipif(not numpy_available(), reason="vectorized needs numpy")
class TestLiveSpeedupBudget:
    """Re-measure the backend matrix and compare ratios to the baseline."""

    def test_vectorized_speedup_within_budget(self):
        baseline = _baseline()["sections"]["backend_matrix"]
        bench = _bench_module()
        if bench.MATRIX_DOC_LETTERS != baseline["doc_letters"]:
            pytest.skip("bench workload size diverged from the baseline")
        committed = baseline["vectorized_speedup_vs_indexed"]["low_run"]
        measured = bench._matrix_speedups(bench._backend_matrix_sweep())
        assert "low_run" in measured, measured
        for metric in ("nonempty", "first"):
            floor = committed[metric] * (1.0 - TOLERANCE)
            assert measured["low_run"][metric] >= floor, (
                f"{metric}: measured {measured['low_run'][metric]}x, "
                f"committed {committed[metric]}x, budget floor {floor:.2f}x "
                f"(tolerance {TOLERANCE:.0%}) — the vectorized backend "
                "regressed (or the baseline needs regenerating: "
                "PYTHONPATH=src python -m pytest "
                "benchmarks/bench_e16_kernel_prefilter.py -o "
                "python_files='bench_*.py' -o python_functions='bench_*' "
                "--benchmark-disable)"
            )


class TestCommittedRuntimeBaseline:
    """``BENCH_runtime.json`` (E14): streaming/first-match acceptance bars."""

    def test_schema_and_sections(self):
        sections = _committed("BENCH_runtime.json", "e14_streaming_runtime")[
            "sections"
        ]
        for name in ("density_sweep", "first_match", "parallel_scaling"):
            assert sections[name]["rows"], name

    def test_lazy_first_match_acceptance_bar_holds(self):
        rows = _committed("BENCH_runtime.json", "e14_streaming_runtime")[
            "sections"
        ]["first_match"]["rows"]
        deepest = max(rows, key=lambda r: r["length"])
        assert deepest["length"] >= 10_000, deepest
        assert deepest["speedup_vs_eager"] >= 2.0, deepest

    def test_nonempty_never_costs_a_full_enumeration(self):
        rows = _committed("BENCH_runtime.json", "e14_streaming_runtime")[
            "sections"
        ]["density_sweep"]["rows"]
        densest = max(rows, key=lambda r: r["density"])
        assert densest["nonempty_ms"] <= densest["full_ms"] * 1.5, densest


class TestCommittedOptimizerBaseline:
    """``BENCH_optimizer.json`` (E15): rewrite-payoff acceptance bars."""

    def test_union_cse_shrinks_states_and_pays_off(self):
        rows = _committed("BENCH_optimizer.json", "e15_optimizer")["sections"][
            "deep_union_cse"
        ]
        for row in rows:
            assert row["states_after"] < row["states_before"], row
        deepest = max(rows, key=lambda r: r["size"])
        assert deepest["total_ms_on"] < deepest["total_ms_off"], deepest
        assert deepest["speedup"] >= 2.0, deepest

    def test_join_pushdown_compiles_faster(self):
        rows = _committed("BENCH_optimizer.json", "e15_optimizer")["sections"][
            "join_pushdown"
        ]
        for row in rows:
            assert row["states_after"] <= row["states_before"], row
            assert "push-project-join" in row["rules_fired"], row
        widest = max(rows, key=lambda r: r["size"])
        assert widest["compile_ms_on"] * 2.0 <= widest["compile_ms_off"], widest


class TestCommittedCorpusBaseline:
    """``BENCH_corpus.json`` (E17): index-vs-walk acceptance bars."""

    def test_schema_and_sections(self):
        data = _committed("BENCH_corpus.json", "e17_corpus_store")
        sections = data["sections"]
        assert sections["index_vs_walk"]["rows"]
        assert sections["ingest"]["docs"] >= 1000
        assert sections["maintenance"]["rebuild_verify_ms"] > 0

    def test_index_speedup_acceptance_bar_holds(self):
        section = _committed("BENCH_corpus.json", "e17_corpus_store")[
            "sections"
        ]["index_vs_walk"]
        sparsest = min(
            section["rows"], key=lambda r: r["matching_fraction"]
        )
        # The tentpole bar: ≥5x for warm-store index-driven evaluate_many
        # over the list walk at 1% selectivity on a ≥1000-document corpus.
        assert sparsest["matching_fraction"] <= 0.01, sparsest
        assert sparsest["docs"] >= 1000, sparsest
        assert sparsest["speedup_warm"] >= 5.0, sparsest

    def test_index_prunes_to_candidate_scale(self):
        section = _committed("BENCH_corpus.json", "e17_corpus_store")[
            "sections"
        ]["index_vs_walk"]
        for row in section["rows"]:
            assert (
                row["candidates_per_query"] <= row["matching_docs"] + 1
            ), row
            assert row["hydrations_per_query"] <= row["docs"], row


class TestCommittedIncrementalBaseline:
    """``BENCH_incremental.json`` (E18): tail-session acceptance bars."""

    def test_schema_and_sections(self):
        data = _committed("BENCH_incremental.json", "e18_incremental")
        sections = data["sections"]
        assert sections["quiet"]["rows"]
        assert sections["dense"]["rows"]

    def test_quiet_tail_speedup_acceptance_bar_holds(self):
        rows = _committed("BENCH_incremental.json", "e18_incremental")[
            "sections"
        ]["quiet"]["rows"]
        # The tentpole bar: 100-letter appends to a >=50k-letter quiet
        # document re-evaluate >=5x faster than a full rebuild.
        big = max(rows, key=lambda r: r["doc_letters"])
        assert big["doc_letters"] >= 50_000, rows
        assert big["append_letters"] == 100, rows
        assert big["speedup"] >= 5.0, big
        for row in rows:
            assert row["matches"] == 0, row
            assert row["reused_layers"] > 0, row

    def test_dense_tail_is_reported(self):
        rows = _committed("BENCH_incremental.json", "e18_incremental")[
            "sections"
        ]["dense"]["rows"]
        assert rows[0]["matches"] > 0, rows
