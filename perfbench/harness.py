"""Run one workload in this process and print its raw results as JSON.

``run.py`` starts this script once per measured run (twice for a traced
run: untraced for reference, then traced), so every workload runs alone
in a fresh single-threaded process.  The sequence is fixed:

1. build the inputs and oracles from the seed (not timed);
2. set up ``--setup-reps`` times from scratch, timing each in steps
   (the workload marks the steps) with a calibration slice between
   steps, outside the timing; the last state is kept (with ``--trace 1``
   the set-up is traced);
3. collect garbage once, then run the op list, one op after another,
   timing each op from outside through the public API;
4. check every result against its oracle (not timed); each result is
   reduced to a digest right after its op, outside the timing, so that
   no result stays alive to slow the garbage collector.

Usage: python3 perfbench/harness.py --workload NAME --seed N --seconds S
       --trace 0|1 --setup-reps K --workdir DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def _import_checkout():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent.parent != SOURCE.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {SOURCE}")


def _burst() -> float:
    """Seconds one fixed slice of pure-Python work takes right now."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return time.perf_counter() - start


class _SetupTimer:
    """Times one set-up step by step.  A calibration slice runs before the
    first step and after every step, outside the timing, so that each
    step can be scaled by the slices either side of it, like an op."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.steps: list = []
        self.bursts = [_burst()]
        self._begin()

    def _begin(self) -> None:
        self.root = self.tracer.open_root("setup", -1) if self.tracer else None
        self.start = time.perf_counter()

    def finish(self) -> None:
        """Ends the current step."""
        self.steps.append(time.perf_counter() - self.start)
        if self.tracer:
            self.tracer.close_root(self.root)
        self.bursts.append(_burst())

    def step(self) -> None:
        """Ends the current step and starts the next; workloads call this
        between the parts of their set-up."""
        self.finish()
        self._begin()


def _layer_counts(before: dict, after: dict, nonempty: int, trace) -> dict:
    """The per-layer counts: exact counter deltas over the timed ops."""
    d = {key: after[key] - before.get(key, 0) for key in after}
    offered = d["documents"] + d["nonempty_checks"] + d["tail_reevaluations"]
    layers = d["tail_reused_layers"] + d["tail_recomputed_layers"]
    counts = {
        "engine.plan.misses": d["plan_misses"],
        "va.prefilter.reject_ratio": d["prefilter_rejects"] / offered if offered else 0.0,
        "corpus.index.candidates": d["index_candidates"],
        "corpus.index.precision": (
            nonempty / d["index_candidates"] if d["index_candidates"] else 0.0
        ),
        "corpus.store.hydrations": d["hydrations"],
        "corpus.store.retries": d["store_retries"],
        "algebra.adhoc_compiles": d["adhoc_compiles"],
        "va.kernel_run_hits": d["kernel_run_hits"],
        "va.frontier_cache_misses": d["frontier_cache_misses"],
        "va.edge_rows_batched": d["edge_rows_batched"],
        "va.states_explored": d["states_explored"],
        "engine.tail.reuse_ratio": d["tail_reused_layers"] / layers if layers else 0.0,
    }
    if trace is not None:
        counts["algebra.adhoc_states"] = trace["adhoc_states"]
        counts["engine.tail.fresh_ratio"] = (
            trace["tail_fresh"] / trace["tail_enumerated"]
            if trace["tail_enumerated"] else 0.0
        )
    return counts


def run(args) -> dict:
    _import_checkout()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, workload.op_count(args.seconds))
    ops = inputs["ops"]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setup_steps = []
    setup_bursts = []
    state = None
    for rep in range(args.setup_reps):
        if state is not None:
            workload.close(state)
            state = None
        workdir = args.workdir / f"setup-{rep}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        timer = _SetupTimer(tracer)
        state = workload.setup(inputs, workdir, timer.step)
        timer.finish()
        setup_steps.append(timer.steps)
        setup_bursts.append(timer.bursts)

    before = workload.counters(state)
    answers = [None] * len(ops)
    latencies = [0.0] * len(ops)
    bursts = [0.0] * (len(ops) + 1)
    errors = {}
    gc.collect()
    clock = time.perf_counter
    bursts[0] = _burst()
    for index, op in enumerate(ops):
        root = tracer.open_root("op", index) if tracer else None
        start = clock()
        try:
            result = workload.run(state, op)
        except Exception:  # an op that raises is a failed op, not a crash
            errors[index] = traceback.format_exc(limit=3)
        latencies[index] = clock() - start
        if tracer:
            tracer.close_root(root)
        if index not in errors:
            try:
                answers[index] = workload.answer(state, op, result)
            except Exception:  # a result of the wrong shape fails its op
                errors[index] = traceback.format_exc(limit=3)
            result = None
        bursts[index + 1] = _burst()
    after = workload.counters(state)
    trace = None
    if tracer:
        tracer.uninstall()
        trace = tracer.summary()
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.spans))

    for index, op in enumerate(ops):
        if index not in errors:
            problem = workload.check(state, op, answers[index])
            if problem is not None:
                errors[index] = problem
    mappings = [answer["mappings"] if answer else 0 for answer in answers]
    nonempty = sum(answer.get("nonempty", 0) for answer in answers if answer)
    workload.close(state)

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(ops),
        "failed": len(errors),
        "failures": [f"op {i}: {errors[i]}" for i in sorted(errors)[:5]],
        "op_digest": digest(ops),
        "kinds": [op["kind"] for op in ops],
        "mappings": sum(mappings),
        "mappings_digest": digest(mappings),
        "setup_s": [sum(steps) for steps in setup_steps],
        "setup_steps_s": setup_steps,
        "setup_bursts_s": setup_bursts,
        "latencies_s": latencies,
        "bursts_s": bursts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": {key: after[key] - before.get(key, 0) for key in after},
        "layer_counts": _layer_counts(before, after, nonempty, trace),
        "tracing": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=3)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
