"""Backend interchangeability: every enumeration backend computes exactly
the spanner of the naive run-semantics baseline, in the canonical order
of the match-graph oracle (hypothesis)."""

import pytest
from hypothesis import given, settings

from repro.core import NotSequentialError, SpanRelation
from repro.engine import available_backends, get_backend
from repro.va import (
    VA,
    enumerate_indexed,
    enumerate_mappings,
    evaluate_naive,
    regex_to_va,
    trim,
)

from ..properties.conftest import documents, sequential_formulas

_SETTINGS = settings(max_examples=40, deadline=None)

ALL_BACKENDS = available_backends()


class TestBackendsMatchNaive:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_every_backend_matches_naive(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = evaluate_naive(va, doc)
        for name in ALL_BACKENDS:
            prepared = get_backend(name).prepare(va)
            assert SpanRelation(prepared.enumerate(doc)) == expected, name

    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_backends_agree_on_enumeration_order(self, formula, doc):
        va = trim(regex_to_va(formula))
        oracle = list(enumerate_mappings(va, doc))
        for name in ALL_BACKENDS:
            order = list(get_backend(name).prepare(va).enumerate(doc))
            assert order == oracle, name

    @given(sequential_formulas(max_vars=2), documents)
    @_SETTINGS
    def test_prepared_form_is_reusable_across_documents(self, formula, doc):
        va = trim(regex_to_va(formula))
        for name in ALL_BACKENDS:
            prepared = get_backend(name).prepare(va)
            first = SpanRelation(prepared.enumerate(doc))
            again = SpanRelation(prepared.enumerate(doc))
            other = SpanRelation(prepared.enumerate(doc + "a"))
            assert first == again
            assert other == evaluate_naive(va, doc + "a")


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
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_non_sequential_input_rejected(self, name):
        from repro.va import VarOp, open_op

        # Opens x twice: not sequential.
        x_open = open_op("x")
        va = VA(0, {2}, [(0, x_open, 1), (1, x_open, 2)])
        with pytest.raises(NotSequentialError):
            get_backend(name).prepare(va)


def regex_to_va_text(text: str) -> VA:
    from repro.regex import parse

    return regex_to_va(parse(text))
