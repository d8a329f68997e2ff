"""E1 — Theorem 2.5: polynomial-delay enumeration for sequential VAs.

Shape to confirm: the *maximum inter-result delay* grows polynomially
(near-linearly for this workload) with the document length, independent of
the output size; the first delay carries the linear preprocessing.

Two walks are swept: the match-graph oracle, and the engine's indexed
walk (:meth:`~repro.va.indexed.IndexedMatchGraph.enumerate`), whose
quiet-stretch skip jumps over the no-capture stretches between αinfo's
records.  The mean and max inter-delay power-law exponents of both are
reported side by side; only the oracle's low-degree bound is asserted,
since timing exponents swing with the host.
"""

import random

from repro.utils import fit_power_law, format_table, record_enumeration
from repro.va import FactorizedVA, enumerate_compiled, enumerate_indexed, regex_to_va, trim
from repro.workloads import alpha_info, generate_students

SIZES = (10, 20, 40, 80)
INDEXED_SIZES = (20, 40, 80, 160, 320)


def _va():
    return trim(regex_to_va(alpha_info()))


def _sweep(enumerate_on, sizes):
    """Per-size delay rows, plus the power-law exponents of the mean and
    the max inter-result delay against the document length."""
    rows = []
    lengths, means, maxes = [], [], []
    for n_students in sizes:
        doc = generate_students(n_students, random.Random(7))
        stats = record_enumeration(enumerate_on(doc))
        inter = stats.delays[1:]
        mean_inter = sum(inter) / len(inter) if inter else 0.0
        rows.append(
            [
                len(doc),
                stats.count,
                f"{stats.first_delay * 1e3:.2f}",
                f"{stats.max_inter_delay * 1e3:.3f}",
                f"{mean_inter * 1e3:.3f}",
            ]
        )
        lengths.append(len(doc))
        means.append(max(mean_inter, 1e-7))
        maxes.append(max(stats.max_inter_delay, 1e-7))
    return rows, fit_power_law(lengths, means), fit_power_law(lengths, maxes)


def _walks():
    fva = FactorizedVA(_va())
    indexed = _va().indexed()
    return {
        "oracle": _sweep(lambda doc: enumerate_compiled(fva, doc), SIZES),
        "indexed": _sweep(lambda doc: enumerate_indexed(indexed, doc), INDEXED_SIZES),
    }


def bench_e1_delay_scaling(benchmark, report):
    walks = benchmark.pedantic(_walks, rounds=1, iterations=1)
    for name, (rows, mean_exponent, max_exponent) in walks.items():
        report(
            f"E1_enumeration_delay_{name}",
            format_table(
                ["doc_chars", "mappings", "first_ms", "max_inter_ms", "mean_inter_ms"],
                rows,
                title=f"E1 enumeration delay, {name} walk (αinfo on student "
                f"corpora); mean-inter-delay power-law exponent ≈ "
                f"{mean_exponent:.2f}, max-inter-delay ≈ {max_exponent:.2f}",
            ),
        )
    report(
        "E1_enumeration_delay",
        format_table(
            ["walk", "students", "mean_inter_exponent", "max_inter_exponent"],
            [
                [
                    name,
                    f"{sizes[0]}–{sizes[-1]}",
                    f"{mean_exponent:.2f}",
                    f"{max_exponent:.2f}",
                ]
                for (name, (_, mean_exponent, max_exponent)), sizes in zip(
                    walks.items(), (SIZES, INDEXED_SIZES)
                )
            ],
            title="E1 delay exponents against the document length",
        ),
    )
    # polynomial of low degree — nowhere near the output-sized blowup a
    # materialising evaluator would show
    _, _, exponent = walks["oracle"]
    assert exponent < 3.0


def bench_e1_enumerate_40_students(benchmark):
    fva = FactorizedVA(_va())
    doc = generate_students(40, random.Random(7))
    benchmark(lambda: sum(1 for _ in enumerate_compiled(fva, doc)))
