"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: store-query, csv-extract, log-tail, adhoc-difference (see
``perfbench/README.md``).  The library is imported from this checkout's
``src``; without it the command fails without printing a result.

``--trace 0`` runs the workload once in a fresh process and reports the
end-to-end metrics.  ``--trace 1`` runs it twice, untraced and then
traced, and reports the per-layer metrics of the traced run together
with the tracing overhead.  Either way the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is non-zero when any op raised or disagreed with its oracle.
``--details FILE`` also writes the raw per-run results (latencies, op
kinds, counters, self time per layer) for the steadiness and determinism
scripts, and ``--spans FILE`` the traced run's spans as
``[name, start, end, parent, op, value]`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("store-query", "csv-extract", "log-tail", "adhoc-difference")
#: A workload process still running after this long is killed (exit 3).
DEADLINE_S = 170.0
#: ``setup_s`` is the median of this many from-scratch set-ups.
SETUP_REPS = 5
#: Time metrics are in reference seconds: wall seconds scaled by how long
#: a fixed slice of pure-Python work (``harness._burst``) took around
#: them, against this reference.  Contention from other tenants of the
#: host slows the slice and the library alike, so the scaling cancels it;
#: a change to the library moves the library's time and not the slice's.
REFERENCE_BURST_S = 0.005

RATIOS = (
    "va.prefilter.reject_ratio",
    "corpus.index.precision",
    "engine.tail.reuse_ratio",
    "engine.tail.fresh_ratio",
    "trace.coverage",
    "trace.overhead",
)


class RunFailed(Exception):
    """A workload process failed to produce a result."""


def _child(args, trace: int, setup_reps: int, workdir: Path, deadline: float) -> dict:
    """Run the workload in a fresh single-threaded process; its last
    output line is the raw result."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(workdir),
        SQLITE_TMPDIR=str(workdir),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--setup-reps", str(setup_reps), "--workdir", str(workdir / f"trace-{trace}"),
    ]
    if trace and args.spans is not None:
        command += ["--spans", str(args.spans.resolve())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RunFailed(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    lines = output.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RunFailed(f"{args.workload} exited with code {process.returncode}")
    return json.loads(lines[-1])


def _quantile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _scale(seconds: list, bursts: list) -> list:
    """Each stretch of timed work in reference seconds: its wall time
    scaled by the calibration slices run just before and just after it."""
    return [
        wall * 2 * REFERENCE_BURST_S / (bursts[i] + bursts[i + 1])
        for i, wall in enumerate(seconds)
    ]


def op_seconds(result: dict, scaled: bool = True) -> list:
    """Each op's time, in reference seconds or (``scaled=False``) wall
    seconds."""
    if not scaled:
        return list(result["latencies_s"])
    return _scale(result["latencies_s"], result["bursts_s"])


def setup_seconds(result: dict, scaled: bool = True) -> list:
    """Each set-up's time: the sum of its steps, each scaled like an op
    (or, with ``scaled=False``, wall seconds)."""
    if not scaled:
        return list(result["setup_s"])
    return [
        sum(_scale(steps, bursts))
        for steps, bursts in zip(result["setup_steps_s"], result["setup_bursts_s"])
    ]


def end_to_end(result: dict, scaled: bool = True) -> dict:
    latencies = op_seconds(result, scaled)
    timed = sum(latencies)
    latencies_ms = [seconds * 1e3 for seconds in latencies]
    return {
        "setup_s": (statistics.median(setup_seconds(result, scaled)), "s"),
        "ops_per_s": (result["ops"] / timed, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (_quantile(latencies_ms, 0.9), "ms"),
        "mappings_per_s": (result["mappings"] / timed, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(traced: dict, reference: dict) -> dict:
    """Layer self seconds of the traced run, scaled to reference seconds
    like the op latencies they add up to (set-up layers like set-up)."""
    tracing = traced["tracing"]
    ops_scale = sum(op_seconds(traced)) / sum(traced["latencies_s"])
    setup_scale = setup_seconds(traced)[0] / traced["setup_s"][0]
    metrics = {
        name: (tracing["ops_layers_s"][name] * ops_scale, "s") for name in LAYERS
    }
    # Bulk ingest is set-up work.
    metrics["corpus.store.ingest_s"] = (
        tracing["ops_layers_s"]["corpus.store.ingest_s"] * ops_scale
        + tracing["setup_layers_s"]["corpus.store.ingest_s"] * setup_scale,
        "s",
    )
    for name, value in traced["layer_counts"].items():
        metrics[name] = (value, "ratio" if name in RATIOS else "count")
    metrics["trace.coverage"] = (tracing["coverage"], "ratio")
    metrics["trace.overhead"] = (
        sum(op_seconds(traced)) / sum(op_seconds(reference)) - 1, "ratio"
    )
    return metrics


def invoke(workload: str, seed: int, seconds: float, trace: int, env=None) -> tuple:
    """Run this command in a subprocess, for the evidence scripts: returns
    its result line and the raw per-process results (``--details``)."""
    details = ROOT / ".perfbench_tmp" / f"details-{os.getpid()}.json"
    details.parent.mkdir(exist_ok=True)
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--details", str(details)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, env=env,
    )
    if process.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{process.stderr}")
    result = json.loads(process.stdout.strip().splitlines()[-1])
    runs = json.loads(details.read_text())
    details.unlink()
    return result, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", type=Path, help="write the raw results here")
    parser.add_argument(
        "--spans", type=Path,
        help="with --trace 1, write the traced run's spans here when it ends",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runs = [
                _child(args, 0, 1, scratch, deadline),
                _child(args, 1, 1, scratch, deadline),
            ]
            metrics = per_layer(runs[1], runs[0])
        else:
            runs = [_child(args, 0, SETUP_REPS, scratch, deadline)]
            metrics = end_to_end(runs[0])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.details is not None:
        args.details.write_text(json.dumps(runs))
    attempted = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for failure in run["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
        absent = (run["tracing"] or {}).get("absent")
        if absent:
            print(f"trace: entry points absent: {', '.join(absent)}", file=sys.stderr)
        print(
            f"{run['workload']} seed={run['seed']} trace={run['trace']}: "
            f"{run['ops']} ops, {run['mappings']} mappings, "
            f"set-up {', '.join(f'{s:.3f}' for s in run['setup_s'])} s, "
            f"ops {sum(run['latencies_s']):.3f} s",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
