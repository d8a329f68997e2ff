"""Steadiness evidence: run every workload on several seeds, twice, and
check the spread of each end-to-end metric against BENCHMARK.json.

For each workload and metric it records the median and quartiles of each
set of runs (``statistics.quantiles(values, n=4)``), the spread
``(Q3 - Q1) / median`` against the metric's bound, and how far the
second set's median moved from the first.  Every metric, ``setup_s``
included, must keep its spread within its bound.  The same statistics
are kept for the runs' plain wall times, beside the reference seconds
the benchmark reports, so the two can be compared.  It adds three checks:

* fixed work — a seed's op list, mapping total and mappings per op are
  identical in both sets;
* no gap between op kinds at a percentile — in no run does the largest
  rise between neighbouring sorted latencies within ±5% of the p50 or
  p90 rank exceed ``STEP_LIMIT`` of the latency at the rank while the
  ops below and above it share no op kind;
* real set-up — no run's ``setup_s`` is a few milliseconds.

Usage (from the root of a checkout; about 25 s per run):

    python3 perfbench/steadiness.py --seeds 10 --sets 2 \\
        --out perfbench/baseline/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import end_to_end, invoke, op_seconds  # noqa: E402

#: The gap check looks this share of the ranks either side of p50/p90.
WINDOW = 0.05
#: A rise between neighbouring latencies larger than this share of the
#: latency at the rank, between ops of different kinds, is a gap.
STEP_LIMIT = 0.15
#: A ``setup_s`` below this is "a few ms of work".
MIN_SETUP_S = 0.1


def machine_facts() -> str:
    """CPU count and model, Python and numpy versions of this host."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as info:
            model = next(
                line.split(":", 1)[1].strip() for line in info if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return (
        f"{os.cpu_count()} CPUs ({model}), Python {platform.python_version()}, "
        f"numpy {numpy_version}"
    )


def run_once(workload: str, seed: int, seconds: int) -> dict:
    result, runs = invoke(workload, seed, seconds, 0)
    raw = runs[0]
    return {
        "seed": seed,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "wall_metrics": {name: value for name, (value, _) in end_to_end(raw, False).items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "ops": raw["ops"],
        "mappings": raw["mappings"],
        "op_digest": raw["op_digest"],
        "mappings_digest": raw["mappings_digest"],
        "setup_runs_s": raw["setup_s"],
        "percentiles": percentile_gaps(op_seconds(raw), raw["kinds"]),
    }


def percentile_gaps(latencies: list, kinds: list) -> dict:
    """For the p50 and p90 ranks: the largest rise between neighbouring
    sorted latencies within ±WINDOW of the rank, as a share of the
    latency at the rank, and whether the ops of that window below the
    rise and above it have no op kind in common."""
    ordered = sorted(zip(latencies, kinds))
    n = len(ordered)
    width = max(2, round(WINDOW * n))
    out = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        rank = round(q * (n - 1))
        lo, hi = max(0, rank - width), min(n - 1, rank + width)
        cut = max(range(lo, hi), key=lambda i: ordered[i + 1][0] - ordered[i][0])
        below = {kind for _, kind in ordered[lo : cut + 1]}
        above = {kind for _, kind in ordered[cut + 1 : hi + 1]}
        step = (ordered[cut + 1][0] - ordered[cut][0]) / ordered[rank][0]
        apart = not below & above
        out[name] = {"step": step, "kinds_apart": apart, "gap": apart and step > STEP_LIMIT}
    return out


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def evaluate(sets: list, config: dict) -> dict:
    report = {"workloads": {}, "ok": True}
    for workload in config["workloads"]:
        name = workload["name"]
        runs = [[run for run in runs if run["workload"] == name] for runs in sets]
        entry = {"metrics": {}, "checks": {}}
        for metric in config["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            per_set = [summarise([run["metrics"][key] for run in rs]) for rs in runs]
            wall = [summarise([run["wall_metrics"][key] for run in rs]) for rs in runs]
            row = {"bound": bound, "sets": per_set, "wall_sets": wall}
            row["spread_ok"] = all(s["spread"] <= bound for s in per_set)
            row["spread_below_third"] = all(s["spread"] < bound / 3 for s in per_set)
            row["median_ok"] = True
            if len(per_set) > 1:
                for kind, summaries in (("", per_set), ("wall_", wall)):
                    first, second = summaries[0]["median"], summaries[1]["median"]
                    row[f"{kind}median_change"] = (second - first) / first
                change = row["median_change"]
                row["median_ok"] = (change if metric["better"] == "lower" else -change) <= bound
            entry["metrics"][key] = row
            report["ok"] &= row["spread_ok"] and row["median_ok"]
        flat = [run for rs in runs for run in rs]
        by_seed = {}
        for run in flat:
            by_seed.setdefault(run["seed"], []).append(
                (run["ops"], run["mappings"], run["op_digest"], run["mappings_digest"])
            )
        entry["checks"] = {
            "fixed_work": all(len(set(v)) == 1 for v in by_seed.values()),
            "ops_per_run": sorted({run["ops"] for run in flat}),
            "mappings_per_run": {seed: v[0][1] for seed, v in sorted(by_seed.items())},
            "failed_ops": sum(run["failed"] for run in flat),
            "min_setup_s": min(min(run["setup_runs_s"]) for run in flat),
        }
        checks = entry["checks"]
        for rank in ("p50", "p90"):
            found = [run["percentiles"][rank] for run in flat]
            checks[f"median_step_{rank}"] = statistics.median(f["step"] for f in found)
            checks[f"max_step_{rank}"] = max(f["step"] for f in found)
            checks[f"kinds_apart_{rank}"] = sum(f["kinds_apart"] for f in found)
            checks[f"gaps_{rank}"] = sum(f["gap"] for f in found)
        checks["no_kind_gap"] = checks["gaps_p50"] == checks["gaps_p90"] == 0
        checks["real_setup"] = checks["min_setup_s"] >= MIN_SETUP_S
        report["ok"] &= (
            checks["fixed_work"] and checks["failed_ops"] == 0
            and checks["no_kind_gap"] and checks["real_setup"]
        )
        report["workloads"][name] = entry
    return report


def markdown(report: dict, config: dict) -> str:
    lines = [
        "# Steadiness evidence",
        "",
        f"Sets of runs: {report['sets']}, seeds {report['seeds']}, "
        f"{config['run_seconds']} s per run.  Spread is (Q3 − Q1) / median of "
        "one set; the bound is BENCHMARK.json's.  Δ median is set 2 against set 1.",
        "",
        f"Machine: {report['machine']}.",
        "",
    ]
    for name, entry in report["workloads"].items():
        lines += [f"## {name}", "", "| metric | bound | median | Q1 | Q3 | spread | Δ median |",
                  "|---|---|---|---|---|---|---|"]
        for key, row in entry["metrics"].items():
            for index, s in enumerate(row["sets"]):
                change = f"{row['median_change']:+.2%}" if index and "median_change" in row else ""
                lines.append(
                    f"| {key} (set {index + 1}) | {row['bound']} | {s['median']:.4g} | "
                    f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.2%} | {change} |"
                )
        lines += ["", "Spread in reference seconds (reported) against plain wall seconds "
                  "(the same runs, unscaled):", "",
                  "| metric | set | reference spread | wall spread | Δ median reference | "
                  "Δ median wall |", "|---|---|---|---|---|---|"]
        for key, row in entry["metrics"].items():
            if key == "peak_rss_mb":
                continue  # not a time
            for index, (s, w) in enumerate(zip(row["sets"], row["wall_sets"])):
                changes = (
                    f"{row['median_change']:+.2%} | {row['wall_median_change']:+.2%}"
                    if index and "median_change" in row else " | "
                )
                lines.append(
                    f"| {key} | {index + 1} | {s['spread']:.2%} | {w['spread']:.2%} | {changes} |"
                )
        c = entry["checks"]
        wide = [
            f"{key} (set {index + 1}, {s['spread']:.1%})"
            for key, row in entry["metrics"].items()
            for index, s in enumerate(row["sets"]) if s["spread"] >= row["bound"] / 3
        ]
        lines += [
            "",
            f"- spreads at or above a third of their bound: {', '.join(wide) or 'none'}",
            f"- fixed work (same op list, mapping total and mappings per op per seed): "
            f"{c['fixed_work']}; ops per run {c['ops_per_run']}; failed ops {c['failed_ops']}",
            f"- mappings per run by seed: {c['mappings_per_run']}",
            f"- largest latency step within ±{WINDOW:.0%} of the p50 rank: median run "
            f"{c['median_step_p50']:.1%}, worst run {c['max_step_p50']:.1%}; of the p90 rank: "
            f"median run {c['median_step_p90']:.1%}, worst run {c['max_step_p90']:.1%}",
            f"- runs whose largest step there splits the ops into kinds with none in common: "
            f"p50 {c['kinds_apart_p50']}, p90 {c['kinds_apart_p90']}; of those, steps above "
            f"{STEP_LIMIT:.0%} (gaps between op kinds): p50 {c['gaps_p50']}, p90 {c['gaps_p90']}",
            f"- smallest set-up {c['min_setup_s']:.3f} s",
            "",
        ]
    lines.append(f"All bounds held: {report['ok']}")
    return "\n".join(lines) + "\n"


def measure(index: int, seeds: list, config: dict) -> list:
    """One set of runs: every workload on every seed, seed by seed."""
    runs = []
    for seed in seeds:
        for workload in config["workloads"]:
            run = run_once(workload["name"], seed, config["run_seconds"])
            run["workload"] = workload["name"]
            runs.append(run)
            print(
                f"set {index + 1} {workload['name']} seed {seed}: "
                + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                file=sys.stderr, flush=True,
            )
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--rescore", type=Path,
        help="re-check the runs saved in this evidence file against BENCHMARK.json",
    )
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.rescore is not None:
        saved = json.loads(args.rescore.read_text())
        sets, seeds = saved["runs"], saved["seeds"]
    else:
        seeds = list(range(1, args.seeds + 1))
        sets = [measure(index, seeds, config) for index in range(args.sets)]
    report = evaluate(sets, config)
    report["sets"] = len(sets)
    report["seeds"] = seeds
    report["machine"] = machine_facts()
    report["runs"] = sets
    text = markdown(report, config)
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        args.out.with_suffix(".md").write_text(text)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
