"""The batched vectorized enumeration path end to end: block DFS over
batch-materialised edge rows ≡ the scalar walk ≡ ``indexed`` ≡ naive
(hypothesis, including >64-state multi-plane automata, empty and
run-heavy documents, and ``limit=`` prefixes with mid-fan cutoffs), the
block-budget fallback, the ``limit`` row-materialisation short-circuit,
row reuse across append-extended runs, the bulk :meth:`Mapping.from_arrays`
constructor, and the shared-kernel gauge watermark."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document, Mapping, Span, SpanRelation
from repro.engine import Engine
from repro.engine.backends import PreparedVectorizedVA
from repro.regex import parse
from repro.va import evaluate_naive, regex_to_va, trim
from repro.va.indexed import IndexedMatchGraph
from repro.va.vectorized import (
    DEFAULT_ENUM_BLOCK_SIZE,
    VectorizedMatchGraph,
    numpy_available,
)

from ..properties.conftest import documents, sequential_formulas

_SETTINGS = settings(max_examples=40, deadline=None)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="batched enumeration needs numpy"
)

#: Run-heavy documents: long single-letter stretches (the inherited
#: quiet-stretch skip interacting with the batched skip index).
run_documents = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(min_value=1, max_value=40)),
    min_size=0,
    max_size=4,
).map(lambda runs: "".join(letter * length for letter, length in runs))


def _multi_plane_va():
    """A sequential VA with more than 64 dense states (≥ 2 planes)."""
    va = trim(regex_to_va(parse("(a|b)*x{" + "ab" * 12 + "a+}(a|b)*")))
    assert va.indexed().n_states > 64
    return va


def _graph(va, doc, block_size=None):
    return VectorizedMatchGraph(va.vectorized(), doc, block_size=block_size)


@needs_numpy
class TestBatchedMatchesEveryPath:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_batched_scalar_indexed_naive_agree(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = evaluate_naive(va, doc)
        batched = list(_graph(va, doc).enumerate())
        scalar = list(_graph(va, doc, block_size=0).enumerate())
        indexed = list(IndexedMatchGraph(va.indexed(), doc).enumerate())
        assert batched == scalar == indexed
        assert SpanRelation(batched) == expected

    @given(sequential_formulas(), run_documents)
    @_SETTINGS
    def test_batched_matches_scalar_on_run_heavy_documents(self, formula, doc):
        va = trim(regex_to_va(formula))
        assert list(_graph(va, doc).enumerate()) == list(
            _graph(va, doc, block_size=0).enumerate()
        )

    @given(
        sequential_formulas(), documents, st.integers(min_value=0, max_value=4)
    )
    @_SETTINGS
    def test_limit_is_a_prefix_even_mid_fan(self, formula, doc, limit):
        va = trim(regex_to_va(formula))
        full = list(_graph(va, doc).enumerate())
        assert list(_graph(va, doc).enumerate(limit=limit)) == full[:limit]

    @pytest.mark.parametrize(
        "doc", ["", "ab" * 13 + "aa", "ab" * 40, "a" * 120, "ab" * 13 + "ac"]
    )
    def test_multi_plane_documents(self, doc):
        va = _multi_plane_va()
        batched = list(_graph(va, doc).enumerate())
        assert batched == list(_graph(va, doc, block_size=0).enumerate())
        assert batched == list(IndexedMatchGraph(va.indexed(), doc).enumerate())
        for limit in (1, 3):
            assert (
                list(_graph(va, doc).enumerate(limit=limit)) == batched[:limit]
            )


@needs_numpy
class TestBlockBudget:
    def test_budget_below_context_count_falls_back_to_scalar(self):
        va = trim(regex_to_va(parse("(a|b)*x{a+}(a|b)*")))
        doc = "abba" * 20
        graph = _graph(va, doc, block_size=1)
        assert graph._distinct_contexts() > 1
        fallback = list(graph.enumerate())
        # The fallback never materialised a batched row.
        assert va.vectorized().kernel().edge_rows_batched == 0
        assert fallback == list(_graph(va, doc).enumerate())

    def test_default_budget_batches_and_counts_rows(self):
        va = trim(regex_to_va(parse("(a|b)*x{a+}(a|b)*")))
        doc = "abba" * 20
        graph = _graph(va, doc)
        assert graph._distinct_contexts() <= DEFAULT_ENUM_BLOCK_SIZE
        assert list(graph.enumerate())
        assert va.vectorized().kernel().edge_rows_batched > 0

    def test_engine_knob_disables_batching(self):
        formula = "(a|b)*x{a+}(a|b)*"
        doc = "abba" * 20
        engine = Engine(backend="vectorized", enumeration_block_size=0)
        reference = Engine(backend="indexed")
        va = trim(regex_to_va(parse(formula)))
        assert list(engine.enumerate(va, doc)) == list(
            reference.enumerate(va, doc)
        )
        assert engine.stats.edge_rows_batched == 0

    def test_engine_attributes_batched_rows_to_stats(self):
        engine = Engine(backend="vectorized")
        va = trim(regex_to_va(parse("(a|b)*x{a+}(a|b)*")))
        list(engine.enumerate(va, "abba" * 20))
        assert engine.stats.edge_rows_batched > 0
        assert engine.stats.edge_rows_batched == (
            va.vectorized().kernel().edge_rows_batched
        )
        assert "edge rows batched" in engine.stats.summary()


@needs_numpy
class TestLimitShortCircuit:
    """``enumerate(limit=k)`` stops materialising edge rows once ``k``
    mappings are out — pinned via the ``edge_rows_batched`` gauge."""

    FORMULA = "(a|b)*x{" + "ab" * 12 + "a+}(a|b)*"
    #: The needle early so ``limit=1`` answers near the document start,
    #: then a long tail whose contexts a full enumeration must also walk.
    DOC = "ab" * 12 + "a" + "ab" * 300 + "a" * 7 + "ab" * 12 + "a"

    def test_limit_zero_builds_no_rows(self):
        va = trim(regex_to_va(parse(self.FORMULA)))  # fresh kernel
        engine = Engine(backend="vectorized")
        assert list(engine.enumerate(va, self.DOC, limit=0)) == []
        assert engine.stats.edge_rows_batched == 0

    def test_rows_build_lazily_per_visited_context(self):
        # Rows materialise per *visited* (letter, live mask) context, not
        # eagerly per document: a limited run builds no more than the
        # document's distinct contexts, and stays a correct prefix.
        va = trim(regex_to_va(parse(self.FORMULA)))
        engine = Engine(backend="vectorized")
        got = list(engine.enumerate(va, self.DOC, limit=1))
        assert got == list(
            Engine(backend="indexed").enumerate(va, self.DOC, limit=1)
        )
        rows = engine.stats.edge_rows_batched
        graph = _graph(va, self.DOC)
        assert 0 < rows <= graph._distinct_contexts()

    def test_warm_kernel_limited_run_builds_no_rows(self):
        va = trim(regex_to_va(parse(self.FORMULA)))
        engine = Engine(backend="vectorized", document_cache_size=0)
        list(engine.enumerate(va, self.DOC))
        rows = engine.stats.edge_rows_batched
        assert rows > 0
        list(engine.enumerate(va, self.DOC, limit=1))
        assert engine.stats.edge_rows_batched == rows


@needs_numpy
class TestTailRowReuse:
    def test_tail_reevaluations_reuse_prefix_rows(self):
        # Tail sessions walk back from the final layer instead; a full
        # enumeration of an append-extended run still shares the kernel's
        # content-keyed batched rows with the run it extends.
        va = trim(regex_to_va(parse("(a|b)*x{ab}(a|b)*")))
        prepared = PreparedVectorizedVA(va)
        doc = Document("ab" * 30)
        run = prepared.run(doc)
        list(run.enumerate())
        first_rows = prepared.edge_rows_batched()
        assert first_rows > 0
        doc = doc.append("ab" * 30)
        run = prepared.run_extended(run, doc)
        list(run.enumerate())
        second_delta = prepared.edge_rows_batched() - first_rows
        # The appended tail reproduces the prefix's (letter, live mask)
        # contexts, so the second pass re-hits the kernel's batched rows
        # instead of rebuilding them per append.
        assert second_delta <= first_rows
        doc = doc.append("ab" * 30)
        run = prepared.run_extended(run, doc)
        list(run.enumerate())
        # And by the third identical append the context set is saturated.
        assert prepared.edge_rows_batched() == first_rows + second_delta

    def test_tail_union_equals_full_evaluation(self):
        va = trim(regex_to_va(parse("(a|b)*x{ab}(a|b)*")))
        engine = Engine(backend="vectorized")
        session = engine.tail(va)
        emitted = []
        text = ""
        for chunk in ("ab" * 10, "ba" * 8, "", "abab"):
            text += chunk
            emitted.extend(session.reevaluate(chunk))
        assert set(emitted) == set(
            Engine(backend="vectorized").evaluate(va, text)
        )
        assert len(emitted) == len(set(emitted))


class TestMappingFromArrays:
    def test_equals_the_checked_constructor(self):
        items = (("x", Span(1, 2)), ("y", Span(2, 5)))
        fast = Mapping.from_arrays(items)
        slow = Mapping(dict(items))
        assert fast == slow
        assert hash(fast) == hash(slow)
        assert dict(fast.items()) == dict(slow.items())

    def test_empty_mapping(self):
        assert Mapping.from_arrays(()) == Mapping({})
        assert hash(Mapping.from_arrays(())) == hash(Mapping({}))


@needs_numpy
class TestGaugeWatermark:
    """The kernel behind a prepared form is shared and its counters are
    cumulative — interleaved enumerations and tail re-evaluations must
    attribute each increment to :class:`EngineStats` exactly once (the
    old sample-a-base-around-each-evaluation scheme double-counted)."""

    def test_interleaved_consumers_attribute_growth_exactly_once(self):
        va = trim(regex_to_va(parse("(a|b)*x{ab}(a|b)*")))
        engine = Engine(backend="vectorized", document_cache_size=0)
        session = engine.tail(va)
        gen = engine.enumerate(va, "ab" * 15)
        next(gen)  # leave the first enumeration suspended mid-flight
        session.reevaluate("ab" * 10)  # a tail pass touches the kernel
        list(gen)  # now finish the suspended enumeration
        session.reevaluate("ba" * 6)
        engine.evaluate(va, "abab")
        engine.is_nonempty(va, "ab")
        kernel = va.vectorized().kernel()
        assert engine.stats.kernel_run_hits == kernel.run_hits
        assert engine.stats.frontier_cache_misses == kernel.step_misses
        assert engine.stats.edge_rows_batched == kernel.edge_rows_batched
