"""Synchronized difference (Theorem 4.8 / Corollary 4.9)."""

import random

import pytest

from repro.core import NotSynchronizedError
from repro.regex import parse
from repro.va import (
    evaluate_naive,
    evaluate_va,
    is_sequential,
    regex_to_va,
    rename_variables,
    trim,
)
from repro.va.matchgraph import FactorizedVA, MatchGraph
from repro.algebra import (
    PreparedSyncDifference,
    SyncDifferenceStats,
    semantic_difference,
    synchronized_difference,
)
from repro.algebra.join import used_set_components
from repro.algebra.sync_difference import synchronized_subtrahend
from repro.workloads import (
    random_sequential_formula,
    synchronized_block_formula,
    unsynchronized_block_formula,
)


def compile_formula(formula) -> "VA":
    if isinstance(formula, str):
        formula = parse(formula)
    return trim(regex_to_va(formula))


def check(minuend, subtrahend, doc: str, **kwargs) -> None:
    a1, a2 = compile_formula(minuend), compile_formula(subtrahend)
    compiled = synchronized_difference(a1, a2, doc, **kwargs)
    assert is_sequential(compiled)
    expected = semantic_difference(evaluate_va(a1, doc), evaluate_va(a2, doc))
    assert evaluate_va(compiled, doc) == expected, (doc,)


class TestSynchronizedSubtrahend:
    def test_block_family(self):
        check(
            synchronized_block_formula(2),
            synchronized_block_formula(2, alphabet="a"),
            "abcba",
        )

    def test_minuend_with_optional_variables(self):
        # A1 skips x on some runs; the skipped variable is unconstrained.
        check("(x1{a*}|ε)c·x2{[ab]*}", synchronized_block_formula(2), "acb")

    def test_boolean_subtrahend_accepting(self):
        # Subtrahend with no common variables that accepts the document:
        # its empty mapping kills everything.
        check("x{a}[abc]*", "[abc]*", "abc")

    def test_boolean_subtrahend_rejecting(self):
        check("x{a}[abc]*", "[abc]*d|d[abc]*", "abc")

    def test_subtrahend_empty_spanner(self):
        check("x{a}[ab]*", "∅", "ab")

    def test_subtrahend_empty_on_document(self):
        check(synchronized_block_formula(1), "x1{b}c*", "ac")

    def test_extra_subtrahend_variables_projected(self):
        # Variables of A2 not in A1 cannot affect the difference.
        check("x1{a}[abc]*", "x1{a}y{[abc]*}", "abc")

    def test_never_used_common_variable_dropped(self):
        # A2 mentions x2 only on dead branches; x2 must not constrain.
        check(synchronized_block_formula(2), "x1{a*}c[ab]*", "acb")


class TestPreconditions:
    def test_unsynchronized_subtrahend_rejected(self):
        a1 = compile_formula(synchronized_block_formula(1))
        a2 = compile_formula("(x1{a}|ε a x1{ε})[ab]*")
        with pytest.raises(NotSynchronizedError):
            synchronized_difference(a1, a2, "ab")

    def test_unsynchronized_allowed_when_not_required(self):
        # The construction stays correct; only the size bound is forfeit.
        f2 = unsynchronized_block_formula(1)
        check("x1{[ab]*}", f2, "ab", require_synchronized=False)
        check("x1{[ab]*}", f2, "ba", require_synchronized=False)

    def test_stats_populated(self):
        stats = SyncDifferenceStats()
        a1 = compile_formula(synchronized_block_formula(2))
        a2 = compile_formula(synchronized_block_formula(2, alphabet="a"))
        synchronized_difference(a1, a2, "aca", stats=stats)
        assert stats == SyncDifferenceStats(
            effective_common=frozenset({"x1", "x2"}),
            components=1,
            max_tracked_set=1,
            product_nodes=4,
        )


class TestPreparedForm:
    def test_fills_stats_on_every_compile(self):
        # The document-independent fields come from the prepared form, so a
        # fresh accumulator per document still receives all four.
        a1 = compile_formula(synchronized_block_formula(2))
        a2 = compile_formula(synchronized_block_formula(2, alphabet="a"))
        prepared = PreparedSyncDifference(a1, a2)
        for doc in ("aca", "acb", "", "aca"):
            once, reused = SyncDifferenceStats(), SyncDifferenceStats()
            expected = synchronized_difference(a1, a2, doc, stats=once)
            compiled = prepared.compile(doc, stats=reused)
            assert reused == once, doc
            assert evaluate_va(compiled, doc) == evaluate_va(expected, doc), doc


class TestRandomizedAgainstSemantic:
    def test_random_minuends(self):
        rng = random.Random(5)
        subtrahend = compile_formula(synchronized_block_formula(2))
        for _ in range(10):
            f1 = random_sequential_formula(rng.randint(0, 2), rng, alphabet="abc", depth=2)
            a1 = trim(regex_to_va(f1))
            doc = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            # rename f1's variables into the shared ones half the time
            compiled = synchronized_difference(a1, subtrahend, doc)
            expected = semantic_difference(
                evaluate_naive(a1, doc), evaluate_va(subtrahend, doc)
            )
            assert evaluate_va(compiled, doc) == expected, (f1.to_text(), doc)

    def test_random_shared_variable_minuends(self):
        rng = random.Random(6)
        subtrahend = compile_formula(synchronized_block_formula(1, alphabet="ab"))
        for _ in range(10):
            f1 = random_sequential_formula(1, rng, alphabet="ab", depth=2)
            # Rename the formula's variable to the shared name x1.
            from repro.va import rename_variables

            a1 = trim(regex_to_va(f1))
            if a1.variables:
                a1 = rename_variables(a1, {next(iter(a1.variables)): "x1"})
            doc = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            compiled = synchronized_difference(a1, subtrahend, doc)
            expected = semantic_difference(
                evaluate_naive(a1, doc), evaluate_va(subtrahend, doc)
            )
            assert evaluate_va(compiled, doc) == expected, (f1.to_text(), doc)


def frozenset_sweep_counts(a1, a2, doc: str, synchronized: bool = True) -> "tuple[int, int]":
    """``(product_nodes, max_tracked_set)`` of step 3 run over frozenset
    :class:`MatchGraph` objects: a depth-first search over the pairs
    ``(layer, q1, T)``, one component at a time, skipping a component whose
    match graph is empty.  An independent count of the pairs the dense
    sweep must discover."""
    first = trim(a1)
    analysis = synchronized_subtrahend(
        trim(a2), first.variables & a2.variables, require_synchronized=synchronized
    )
    if analysis is None or not analysis[0]:
        return 0, 0
    effective, subtrahend = analysis
    graph2 = MatchGraph(FactorizedVA(subtrahend), doc)
    if graph2.is_empty:
        return 0, 0
    nodes = widest = 0
    for used, component in used_set_components(first, effective).items():
        graph1 = MatchGraph(FactorizedVA(component), doc)
        if graph1.is_empty:
            continue

        def key(ops):
            return frozenset(op for op in ops if op.var in used)

        initial = (0, graph1.factorized.va.initial, frozenset({graph2.factorized.va.initial}))
        seen, stack = {initial}, [initial]
        while stack:
            layer, q1, tracked = stack.pop()
            nodes += 1
            widest = max(widest, len(tracked))
            if layer == len(doc):
                continue
            options = graph2.successor_options(layer, tracked) if tracked else {}
            for ops1, targets1 in graph1.edges[layer].get(q1, {}).items():
                next_tracked = frozenset(
                    t for ops2, targets2 in options.items() if key(ops2) == key(ops1)
                    for t in targets2
                )
                for r1 in targets1:
                    target = (layer + 1, r1, next_tracked)
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
    return nodes, widest


class TestProductSize:
    """E8's columns count the product's pairs; the dense sweep must find
    exactly the pairs of the frozenset sweep."""

    def test_empty_minuend_graph_adds_no_nodes(self):
        # The subtrahend matches "ab", the minuend's only component does
        # not: the component is swept over no pair.
        stats = SyncDifferenceStats()
        a1 = compile_formula("x1{a}c")
        a2 = compile_formula(synchronized_block_formula(1))
        assert evaluate_va(synchronized_difference(a1, a2, "ab", stats=stats), "ab").is_empty
        assert (stats.components, stats.product_nodes, stats.max_tracked_set) == (1, 0, 0)

    def test_random_minuends_match_the_frozenset_sweep(self):
        rng = random.Random(7)
        # ``(subtrahend, synchronized)``: against the unsynchronized one,
        # the minuend that may skip each variable tracks sets of up to
        # three states.
        subtrahends = [
            (compile_formula(synchronized_block_formula(2)), True),
            (compile_formula("[ab]*x1{a}[ab]*c[abc]*"), True),
            (compile_formula(unsynchronized_block_formula(2)), False),
        ]
        skipping = compile_formula("(x1{[ab]*}[ab]*|[ab]*)c(x2{[ab]*}[ab]*|[ab]*)")
        widest = 0
        for _ in range(48):
            if rng.random() < 0.5:
                a1 = skipping
            else:
                f1 = random_sequential_formula(2, rng, alphabet="abc", depth=3)
                a1 = trim(regex_to_va(f1))
                a1 = rename_variables(a1, dict(zip(sorted(a1.variables), ("x1", "x2"))))
            a2, synchronized = rng.choice(subtrahends)
            doc = "c".join(
                "".join(rng.choice("ab") for _ in range(rng.randint(0, 3))) for _ in range(2)
            )
            stats = SyncDifferenceStats()
            synchronized_difference(
                a1, a2, doc, require_synchronized=synchronized, stats=stats
            )
            counts = (stats.product_nodes, stats.max_tracked_set)
            assert counts == frozenset_sweep_counts(a1, a2, doc, synchronized), doc
            widest = max(widest, stats.max_tracked_set)
        assert widest > 1
