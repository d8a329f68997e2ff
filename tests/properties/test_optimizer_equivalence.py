"""The optimizer's central contract: optimized plans compute exactly the
spanner of the unoptimized plan and of the one-shot naive evaluation
path, on every backend (hypothesis over random RA trees)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Instantiation, RAQuery, parse
from repro.algebra.planner import evaluate_ra
from repro.algebra.ra_tree import Difference, Join, Leaf, Project, UnionNode
from repro.engine import available_backends
from repro.va import enumerate_mappings, evaluate_naive
from repro.workloads import random_sequential_formula

from .conftest import documents

_SETTINGS = settings(max_examples=30, deadline=None)

_VARIABLES = ("x", "y")


@st.composite
def ra_queries(draw, max_depth: int = 3):
    """Random instantiated RA trees over small sequential formula leaves.

    Leaves reuse a small formula pool, so duplicate subtrees (the CSE and
    dedup fodder) appear naturally.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    pool_size = draw(st.integers(min_value=1, max_value=3))
    pool = [
        random_sequential_formula(
            draw(st.integers(min_value=0, max_value=2)), rng, depth=2
        )
        for _ in range(pool_size)
    ]
    spanners = {f"s{i}": formula for i, formula in enumerate(pool)}

    def build(depth: int):
        grow = depth < max_depth and draw(st.booleans())
        if not grow:
            return Leaf(f"s{draw(st.integers(min_value=0, max_value=pool_size - 1))}")
        op = draw(st.sampled_from(("union", "join", "difference", "project")))
        if op == "project":
            keep = draw(
                st.frozensets(st.sampled_from(_VARIABLES), max_size=len(_VARIABLES))
            )
            return Project(build(depth + 1), keep)
        left, right = build(depth + 1), build(depth + 1)
        if op == "union":
            return UnionNode(left, right)
        if op == "join":
            return Join(left, right)
        return Difference(left, right)

    return build(0), Instantiation(spanners=spanners)


class TestOptimizedPlansAreEquivalent:
    @given(ra_queries(), documents)
    @_SETTINGS
    def test_optimized_matches_unoptimized_and_one_shot(self, query, doc):
        tree, inst = query
        expected = evaluate_ra(tree, inst, doc)
        optimized = Engine().evaluate(RAQuery(tree, inst), doc)
        unoptimized = Engine(optimize=False).evaluate(RAQuery(tree, inst), doc)
        assert optimized == expected
        assert unoptimized == expected

    @given(ra_queries(), documents)
    @_SETTINGS
    def test_optimized_agrees_across_backends(self, query, doc):
        # Every backend enumerates the optimized plan in the canonical
        # order of the match-graph oracle over the same compiled automaton.
        tree, inst = query
        for name in available_backends():
            engine = Engine(backend=name)
            order = list(engine.enumerate(RAQuery(tree, inst), doc))
            compiled = engine.compile(RAQuery(tree, inst), doc)
            assert order == list(enumerate_mappings(compiled, doc)), name

    @given(ra_queries(max_depth=2), documents)
    @_SETTINGS
    def test_compiled_va_matches_naive_run_semantics(self, query, doc):
        tree, inst = query
        engine = Engine()
        compiled = engine.compile(RAQuery(tree, inst), doc)
        assert evaluate_naive(compiled, doc) == evaluate_ra(tree, inst, doc)


class TestDeepDuplicateTrees:
    def test_deep_union_with_duplicates_collapses_and_agrees(self):
        formulas = ["x{(a|b)+}", "x{a+}b*", "x{(a|b)+}", "x{a+}b*", "x{(a|b)+}"]
        spanners = {f"s{i}": parse(text) for i, text in enumerate(formulas)}
        tree = Leaf("s0")
        for index in range(1, len(formulas)):
            tree = UnionNode(tree, Leaf(f"s{index}"))
        tree = Project(tree, frozenset({"x"}))
        inst = Instantiation(spanners=spanners)
        on, off = Engine(), Engine(optimize=False)
        plan_on = on.prepare(RAQuery(tree, inst)).plan
        plan_off = off.prepare(RAQuery(tree, inst)).plan
        assert plan_on.static_states() < plan_off.static_states()
        for doc in ("", "a", "ab", "abab", "bbaa"):
            assert on.evaluate(RAQuery(tree, inst), doc) == off.evaluate(
                RAQuery(tree, inst), doc
            )
