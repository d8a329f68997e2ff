"""Determinism self-check: every run is fixed work.

For each workload it makes two traced runs with seed 1 (each runs the
workload untraced and then traced) under different ``PYTHONHASHSEED``
values, and one untraced run with seed 2.  It checks that

* the four processes of the first seed ran the same op list, returned the
  same mappings per op and moved every engine and store counter by the
  same amount — tracing included;
* the two traced processes report the same per-layer counts;
* the second seed changes the inputs but not the op count.

Usage (from the root of a checkout; about a minute per workload):

    python3 perfbench/selfcheck.py --seconds 3 --out perfbench/baseline/determinism.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, invoke  # noqa: E402

SEED = 1
OTHER_SEED = 2


def raw_runs(workload: str, seed: int, seconds: float, trace: int, hash_seed: str) -> list:
    return invoke(
        workload, seed, seconds, trace, env={**os.environ, "PYTHONHASHSEED": hash_seed}
    )[1]


def fingerprint(run: dict) -> dict:
    """What must repeat exactly for one seed."""
    return {
        "ops": run["ops"],
        "op_digest": run["op_digest"],
        "mappings": run["mappings"],
        "mappings_digest": run["mappings_digest"],
        "counters": run["counters"],
    }


def check(workload: str, seconds: float) -> dict:
    first = raw_runs(workload, SEED, seconds, 1, "1")
    second = raw_runs(workload, SEED, seconds, 1, "2")
    other = raw_runs(workload, OTHER_SEED, seconds, 0, "1")[0]
    same_seed = [fingerprint(run) for run in first + second]
    traced_counts = [first[1]["layer_counts"], second[1]["layer_counts"]]
    result = {
        "ops": first[0]["ops"],
        "mappings": first[0]["mappings"],
        "same_seed_identical": all(f == same_seed[0] for f in same_seed),
        "layer_counts_identical": traced_counts[0] == traced_counts[1],
        "other_seed_same_op_count": other["ops"] == first[0]["ops"],
        "other_seed_new_inputs": other["op_digest"] != first[0]["op_digest"],
        "failed_ops": sum(run["failed"] for run in first + second) + other["failed"],
        "layer_counts": traced_counts[0],
    }
    result["ok"] = (
        result["same_seed_identical"]
        and result["layer_counts_identical"]
        and result["other_seed_same_op_count"]
        and result["other_seed_new_inputs"]
        and result["failed_ops"] == 0
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {workload: check(workload, args.seconds) for workload in WORKLOADS}
    for workload, result in report.items():
        print(
            f"{workload:17s} ops={result['ops']:4d} mappings={result['mappings']:6d} "
            f"same-seed={result['same_seed_identical']} "
            f"layer-counts={result['layer_counts_identical']} "
            f"second-seed: same op count={result['other_seed_same_op_count']}, "
            f"new inputs={result['other_seed_new_inputs']} "
            f"failed={result['failed_ops']}"
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": SEED, "other_seed": OTHER_SEED, "seconds": args.seconds,
             "workloads": report}, indent=1) + "\n")
    return 0 if all(result["ok"] for result in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
