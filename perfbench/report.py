"""The per-layer baseline: one traced run per workload, as a report.

For each workload it runs ``run.py --trace 1`` (an untraced reference run,
then the traced run) and tabulates every layer's self seconds and share
of the op time, the exact counts, ``trace.coverage`` and
``trace.overhead``, plus the set-up's own attribution.  It then checks the
layer table of ``perfbench/README.md`` — each layer's time takes a larger
share of its home workload than of its flat one — and that the trace
covers at least ``MIN_COVERAGE`` of every workload's op time; it exits
with code 1 when either fails.

Usage (from the root of a checkout; about 40 s per workload):

    python3 perfbench/report.py --seed 1 --out perfbench/baseline/trace-report.md
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, invoke, op_seconds  # noqa: E402
from steadiness import machine_facts  # noqa: E402
from tracing import LAYERS  # noqa: E402

#: The traced run must attribute at least this share of the op time.
MIN_COVERAGE = 0.95

#: ``(metrics, end-to-end metric they move, home workloads, flat workload)``.
LAYER_TABLE = (
    (("va.compile_s", "engine.plan.self_s", "engine.plan.misses"),
     "op_p50_ms", ("store-query",), "csv-extract"),
    (("va.prefilter.self_s", "va.prefilter.reject_ratio"),
     "op_p50_ms", ("store-query",), "adhoc-difference"),
    (("corpus.index.self_s", "corpus.index.candidates", "corpus.index.precision"),
     "op_p50_ms", ("store-query",), "csv-extract"),
    (("corpus.store.hydrate_s", "corpus.store.hydrations"),
     "op_p90_ms", ("store-query",), "csv-extract"),
    (("corpus.store.ingest_s",), "setup_s", ("store-query",), "csv-extract"),
    (("corpus.store.append_s", "corpus.store.retries"),
     "op_p50_ms", ("log-tail",), "store-query"),
    (("algebra.adhoc_s", "algebra.adhoc_compiles", "algebra.adhoc_states"),
     "ops_per_s", ("adhoc-difference",), "store-query"),
    (("engine.backends.prepare_s",), "op_p50_ms", ("adhoc-difference",), "csv-extract"),
    (("core.document.encode_s",), "ops_per_s", ("csv-extract",), "store-query"),
    (("va.forward_s", "va.kernel_run_hits", "va.frontier_cache_misses"),
     "op_p50_ms", ("store-query",), "adhoc-difference"),
    (("va.enumerate_s", "va.edge_rows_batched", "va.states_explored"),
     "mappings_per_s / op_p90_ms", ("csv-extract", "log-tail"), "adhoc-difference"),
    (("engine.tail.self_s", "engine.tail.reuse_ratio", "engine.tail.fresh_ratio"),
     "op_p90_ms", ("log-tail",), "csv-extract"),
    (("engine.core.self_s",), "op_p50_ms", ("store-query",), None),
)


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, list]:
    result, runs = invoke(workload, seed, seconds, 1)
    return {name: entry["value"] for name, entry in result["metrics"].items()}, runs


def share(runs: list, name: str) -> float:
    """A layer's self time as a share of the traced op time (of the
    traced set-up for ingest, which is set-up work)."""
    tracing = runs[1]["tracing"]
    if name == "corpus.store.ingest_s":
        return tracing["setup_layers_s"][name] / tracing["setup_s"]
    return tracing["ops_layers_s"][name] / tracing["ops_s"]


def render(data: dict, seed: int, seconds: int) -> tuple[str, bool]:
    """The report, and whether every check held."""
    names = list(data)
    lines = [
        "# Per-layer baseline (traced runs)",
        "",
        f"One `run.py --trace 1` per workload, seed {seed}, {seconds} s.  Times are",
        "self reference seconds over the timed ops (with set-up for",
        "`corpus.store.ingest_s`) and, in brackets, their share of the traced op",
        "time (of the traced set-up for ingest).",
        "Counts are exact counter deltas over the timed ops.",
        "",
        f"Machine: {machine_facts()}.",
        "",
        "| | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names),
    ]
    runs_of = {name: data[name]["runs"] for name in names}
    rows = [
        ("ops", lambda n: str(runs_of[n][1]["ops"])),
        ("mappings", lambda n: str(runs_of[n][1]["mappings"])),
        ("op time, untraced (ref. s)", lambda n: f"{runs_of[n][0]['op_time_s']:.3f}"),
        ("op time, traced (ref. s)", lambda n: f"{runs_of[n][1]['op_time_s']:.3f}"),
        ("set-up, traced (s)", lambda n: f"{runs_of[n][1]['tracing']['setup_s']:.3f}"),
    ]
    for label, cell in rows:
        lines.append(f"| {label} | " + " | ".join(cell(n) for n in names) + " |")
    metric_names = list(data[names[0]]["metrics"])
    for metric in metric_names:
        cells = []
        for name in names:
            value = data[name]["metrics"][metric]
            if metric in LAYERS:
                cells.append(f"{value:.3f} ({share(runs_of[name], metric):.1%})")
            elif isinstance(value, float):
                cells.append(f"{value:.4f}")
            else:
                cells.append(str(value))
        lines.append(f"| `{metric}` | " + " | ".join(cells) + " |")

    lines += ["", "## Set-up attribution (self seconds of the traced set-up)", "",
              "| layer | " + " | ".join(names) + " |", "|---|" + "---|" * len(names)]
    for layer in LAYERS:
        cells = []
        for name in names:
            tracing = runs_of[name][1]["tracing"]
            value = tracing["setup_layers_s"].get(layer, 0.0)
            cells.append(f"{value:.3f} ({value / tracing['setup_s']:.1%})")
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    cells = []
    for name in names:
        tracing = runs_of[name][1]["tracing"]
        cells.append(f"{tracing['setup_unattributed_s'] / tracing['setup_s']:.1%}")
    lines.append("| not in any entry point | " + " | ".join(cells) + " |")

    lines += ["", "## Home against flat workload", "",
              "Each layer's time should take a larger share on its home workload than on",
              "its flat one.", "",
              "| layer time | moves | home: share | flat: share | holds |",
              "|---|---|---|---|---|"]
    ok = True
    for metrics, moves, homes, flat in LAYER_TABLE:
        name = metrics[0]
        home_shares = [share(runs_of[h], name) for h in homes]
        home_text = ", ".join(f"{h} {s:.1%}" for h, s in zip(homes, home_shares))
        if flat is None:
            lines.append(f"| `{name}` | {moves} | {home_text} | — | — |")
            continue
        flat_share = share(runs_of[flat], name)
        holds = all(s > flat_share for s in home_shares)
        ok &= holds
        lines.append(
            f"| `{name}` | {moves} | {home_text} | {flat} {flat_share:.1%} | {holds} |"
        )
    coverage = {name: runs_of[name][1]["tracing"]["coverage"] for name in names}
    low = [f"{name} {value:.2%}" for name, value in coverage.items() if value < MIN_COVERAGE]
    ok &= not low
    absent = sorted({a for name in names for a in runs_of[name][1]["tracing"]["absent"]})
    lines += [
        "",
        f"Coverage below {MIN_COVERAGE:.0%}: {', '.join(low) or 'none'}.",
        f"Entry points absent: {', '.join(absent) if absent else 'none'}.",
        "",
        f"All checks held: {ok}",
    ]
    return "\n".join(lines) + "\n", ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    data = {}
    for workload in WORKLOADS:
        metrics, runs = traced(workload, args.seed, seconds)
        for run in runs:
            run["op_time_s"] = sum(op_seconds(run))
            for raw in ("latencies_s", "bursts_s", "kinds", "setup_steps_s", "setup_bursts_s"):
                run.pop(raw)
        data[workload] = {"metrics": metrics, "runs": runs}
    text, ok = render(data, args.seed, seconds)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        args.out.with_suffix(".json").write_text(json.dumps(data, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
