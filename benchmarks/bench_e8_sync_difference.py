"""E8 — Theorem 4.8 / Corollary 4.9: the synchronized difference, with the
determinisation-width ablation.

Workload: K separator-delimited blocks.  The minuend binds ``x_i`` to any
prefix of block i (many mappings); the subtrahend pins every ``x_i`` to the
block's first letter (one mapping) — functional and synchronized, sharing
*all* K variables with the minuend (outside E7's bounded-k regime).

Shapes to confirm:
* compile+evaluate time grows polynomially with the document length;
* the tracked-subset width (our stand-in for the paper's deterministic
  match structure D2) stays flat for the synchronized subtrahend and grows
  for an unsynchronized control with ambiguous operation placement.

E8a also times the production route: ``Engine.evaluate`` of the same
``RAQuery(Difference(...))``, which the optimizer lowers to Theorem 4.8
and which runs the product's dense per-document form with no VA built
(``engine_ms``, a warm engine: plan, static prefix and the prepared
difference already built, so only the per-document half runs).  Both
routes must return the same relation.
"""

import random
import time

from repro import Difference, Engine, Instantiation, Leaf, RAQuery
from repro.algebra import SyncDifferenceStats, synchronized_difference
from repro.regex import capture, concat, sigma_star, star, sym, union
from repro.utils import fit_power_law, format_table
from repro.va import evaluate_va

from bench_common import compile_formula

K = 3
LENGTH_SWEEP = (2, 4, 6, 8)


def _blocks(block_formula) -> "object":
    parts = []
    for i in range(1, K + 1):
        if parts:
            parts.append(sym("c"))
        parts.append(block_formula(i))
    return concat(*parts)


def _minuend():
    sigma = sigma_star("ab")
    return compile_formula(_blocks(lambda i: concat(capture(f"x{i}", sigma), sigma)))


def _subtrahend_synchronized():
    sigma = sigma_star("ab")
    return compile_formula(_blocks(lambda i: concat(capture(f"x{i}", sym("a")), sigma)))


def _subtrahend_unsynchronized():
    sigma = sigma_star("ab")
    return compile_formula(
        _blocks(
            lambda i: union(
                concat(capture(f"x{i}", sym("a")), sigma),
                concat(sym("a"), capture(f"x{i}", sigma)),
            )
        )
    )


def _document(block_length: int) -> str:
    rng = random.Random(8)
    chunks = [
        "a" + "".join(rng.choice("ab") for _ in range(block_length - 1))
        for _ in range(K)
    ]
    return "c".join(chunks)


def _run(doc: str, synchronized: bool = True):
    minuend = _minuend()
    subtrahend = (
        _subtrahend_synchronized() if synchronized else _subtrahend_unsynchronized()
    )
    stats = SyncDifferenceStats()
    start = time.perf_counter()
    compiled = synchronized_difference(
        minuend, subtrahend, doc, require_synchronized=synchronized, stats=stats
    )
    result = evaluate_va(compiled, doc)
    elapsed = time.perf_counter() - start
    return elapsed, stats, result


def _engine_run(doc: str, expected) -> float:
    """``Engine.evaluate`` of ``A1 \\ A2`` on a warm engine, in seconds;
    asserts it agrees with the one-shot route."""
    query = RAQuery(
        Difference(Leaf("minuend"), Leaf("subtrahend")),
        Instantiation(
            spanners={"minuend": _minuend(), "subtrahend": _subtrahend_synchronized()}
        ),
        engine=Engine(),
    )
    query.evaluate(doc)  # warm-up: plan, static prefix, prepared difference
    start = time.perf_counter()
    result = query.evaluate(doc)
    elapsed = time.perf_counter() - start
    assert result == expected, (doc, "Engine.evaluate differs from evaluate_va")
    return elapsed


def _sweep():
    rows, xs, ys = [], [], []
    for block_length in LENGTH_SWEEP:
        doc = _document(block_length)
        elapsed, stats, result = _run(doc)
        engine_elapsed = _engine_run(doc, result)
        rows.append(
            [
                len(doc),
                stats.max_tracked_set,
                stats.product_nodes,
                len(result),
                f"{elapsed * 1e3:.1f}",
                f"{engine_elapsed * 1e3:.1f}",
            ]
        )
        xs.append(len(doc))
        ys.append(max(elapsed, 1e-7))
    return rows, xs, ys


def bench_e8_document_sweep(benchmark, report):
    rows, xs, ys = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    exponent = fit_power_law(xs, ys)
    table = format_table(
        ["doc_chars", "max_tracked_set", "product_nodes", "results", "ms", "engine_ms"],
        rows,
        title=f"E8a synchronized difference (k={K}, all variables shared): "
        f"power-law exponent ≈ {exponent:.2f}; tracked-set width stays flat",
    )
    report("E8a_sync_difference_doc_sweep", table)
    assert all(row[3] > 0 for row in rows), "workload must produce survivors"
    widths = [row[1] for row in rows]
    assert max(widths) <= 4, "synchronized subtrahend must keep tracking small"


def _skipping_minuend():
    """A minuend whose runs may *skip* each shared variable — skipped
    variables leave the subtrahend's operation placement unconstrained,
    which is where the determinisation width lives."""
    from repro.regex import eps

    sigma = sigma_star("ab")
    return compile_formula(
        _blocks(lambda i: union(concat(capture(f"x{i}", sigma), sigma), sigma))
    )


def _ablation():
    doc = _document(5)
    minuend = _skipping_minuend()
    rows = []
    for label, synchronized in (("synchronized", True), ("unsynchronized", False)):
        subtrahend = (
            _subtrahend_synchronized() if synchronized else _subtrahend_unsynchronized()
        )
        stats = SyncDifferenceStats()
        start = time.perf_counter()
        compiled = synchronized_difference(
            minuend, subtrahend, doc, require_synchronized=synchronized, stats=stats
        )
        out = len(evaluate_va(compiled, doc))
        elapsed = time.perf_counter() - start
        rows.append(
            [
                label,
                stats.max_tracked_set,
                stats.product_nodes,
                out,
                f"{elapsed * 1e3:.1f}",
            ]
        )
    return rows


def bench_e8_synchronizedness_ablation(benchmark, report):
    rows = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    table = format_table(
        ["subtrahend", "max_tracked_set", "product_nodes", "results", "ms"],
        rows,
        title="E8b ablation: the D2-style tracked-set width under a "
        "synchronized vs unsynchronized subtrahend",
    )
    report("E8b_sync_difference_ablation", table)
    sync_width, unsync_width = rows[0][1], rows[1][1]
    assert unsync_width >= sync_width


def bench_e8_single(benchmark):
    doc = _document(6)
    minuend, subtrahend = _minuend(), _subtrahend_synchronized()
    benchmark(
        lambda: len(
            evaluate_va(synchronized_difference(minuend, subtrahend, doc), doc)
        )
    )
