"""The enumeration path against the oracles: the prepared automaton
computes exactly the spanner of the naive run-semantics baseline, in the
canonical order of the match-graph oracle (hypothesis), and so does every
backend leg
(the indexed backend pinned to each walk, and the letter walk on bounded
caches, too) on >64-state multi-plane automata and on ``limit``
prefixes that end mid-fan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NotSequentialError, SpanRelation
from repro.engine import Engine, PreparedIndexedVA
from repro.regex import parse
from repro.va import (
    VA,
    enumerate_indexed,
    enumerate_mappings,
    evaluate_naive,
    regex_to_va,
    trim,
)

from ..properties.conftest import documents, sequential_formulas
from .conftest import BACKEND_LEGS, leg_settings

_SETTINGS = settings(max_examples=40, deadline=None)


class TestBackendsMatchNaive:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_every_backend_matches_naive(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = evaluate_naive(va, doc)
        run = PreparedIndexedVA(va).run(doc)
        assert SpanRelation(run.enumerate()) == expected

    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_backends_agree_on_enumeration_order(self, formula, doc):
        va = trim(regex_to_va(formula))
        oracle = list(enumerate_mappings(va, doc))
        assert list(PreparedIndexedVA(va).run(doc).enumerate()) == oracle

    @given(sequential_formulas(max_vars=2), documents)
    @_SETTINGS
    def test_prepared_form_is_reusable_across_documents(self, formula, doc):
        va = trim(regex_to_va(formula))
        prepared = PreparedIndexedVA(va)
        first = SpanRelation(prepared.run(doc).enumerate())
        again = SpanRelation(prepared.run(doc).enumerate())
        other = SpanRelation(prepared.run(doc + "a").enumerate())
        assert first == again
        assert other == evaluate_naive(va, doc + "a")


def _multi_plane_va():
    """A sequential VA with more than 64 dense states (≥ 2 planes)."""
    va = trim(regex_to_va(parse("(a|b)*x{" + "ab" * 12 + "a+}(a|b)*")))
    assert va.indexed().n_states > 64
    return va


class TestBackendLegs:
    @pytest.mark.parametrize("leg", BACKEND_LEGS)
    @pytest.mark.parametrize(
        "doc", ["", "ab" * 13 + "aa", "ab" * 40, "a" * 120, "ab" * 13 + "ac"]
    )
    def test_multi_plane_documents(self, leg, doc):
        va = _multi_plane_va()
        oracle = list(enumerate_mappings(va, doc))
        with leg_settings(leg) as name:
            engine = Engine(backend=name)
            full = list(engine.enumerate(va, doc))
            assert full == oracle
            for limit in (1, 3):
                assert list(engine.enumerate(va, doc, limit=limit)) == full[:limit]

    @given(
        sequential_formulas(),
        documents,
        st.integers(min_value=0, max_value=4),
        st.sampled_from(BACKEND_LEGS),
    )
    @_SETTINGS
    def test_limit_is_a_prefix_even_mid_fan(self, formula, doc, limit, leg):
        va = trim(regex_to_va(formula))
        oracle = list(enumerate_mappings(va, doc))
        with leg_settings(leg) as name:
            got = list(Engine(backend=name).enumerate(va, doc, limit=limit))
        assert got == oracle[:limit]

    @given(sequential_formulas(), documents, st.sampled_from(BACKEND_LEGS))
    @_SETTINGS
    def test_first_is_the_enumeration_head(self, formula, doc, leg):
        va = trim(regex_to_va(formula))
        oracle = list(enumerate_mappings(va, doc))
        with leg_settings(leg) as name:
            engine = Engine(backend=name)
            assert engine.first(va, doc) == (oracle[0] if oracle else None)
            assert engine.is_nonempty(va, doc) == bool(oracle)

    @pytest.mark.parametrize("leg", BACKEND_LEGS)
    def test_empty_document_and_empty_result(self, leg):
        va = trim(regex_to_va(parse("x{a+}")))
        for doc in ("", "b", "aa"):
            oracle = list(enumerate_mappings(va, doc))
            with leg_settings(leg) as name:
                engine = Engine(backend=name)
                assert list(engine.enumerate(va, doc)) == oracle
                assert engine.first(va, doc) == (oracle[0] if oracle else None)
                assert engine.is_nonempty(va, doc) == bool(oracle)

    @pytest.mark.parametrize("leg", BACKEND_LEGS)
    def test_batch_parallel_and_streaming_agree(self, leg):
        va = trim(regex_to_va(parse("x{[ab]+}c")))
        docs = ["abcab", "", "ababc", "zzz", "c", "abab", "abc" * 30, "a" * 40 + "c"]
        expected = [evaluate_naive(va, doc) for doc in docs]
        with leg_settings(leg) as name:
            engine = Engine(backend=name)
            assert engine.evaluate_many(va, docs) == expected
            assert engine.evaluate_many(va, docs, workers=2) == expected
            assert engine.stats.parallel_shards == 2
            streamed = [[] for _ in docs]
            for index, mapping in engine.enumerate_stream(va, docs):
                streamed[index].append(mapping)
        assert [SpanRelation(mappings) for mappings in streamed] == expected


class TestIndexedForm:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_enumerate_indexed_matches_matchgraph(self, formula, doc):
        va = trim(regex_to_va(formula))
        assert list(enumerate_indexed(va, doc)) == list(enumerate_mappings(va, doc))

    def test_indexed_accessor_caches(self):
        va = trim(regex_to_va_text("x{a*}b"))
        assert va.indexed() is va.indexed()

    def test_indexed_runs_gauge_matches_matchgraph(self):
        from repro.va import FactorizedVA, IndexedMatchGraph, MatchGraph

        va = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*"))
        doc = "abab"
        graph = MatchGraph(FactorizedVA(va), doc)
        indexed = IndexedMatchGraph(va.indexed(), doc)
        assert indexed.states_alive() == graph.states_alive()
        assert indexed.width() == graph.width()
        assert indexed.is_empty == graph.is_empty


class TestSequentialityGuard:
    def test_non_sequential_input_rejected(self):
        from repro.va import VarOp, open_op

        # Opens x twice: not sequential.
        x_open = open_op("x")
        va = VA(0, {2}, [(0, x_open, 1), (1, x_open, 2)])
        with pytest.raises(NotSequentialError):
            PreparedIndexedVA(va)


def regex_to_va_text(text: str) -> VA:
    from repro.regex import parse

    return regex_to_va(parse(text))
