"""The ``vectorized`` backend end to end: cross-backend equivalence
(hypothesis, including empty documents, run-heavy inputs, and >64-state
multi-plane automata), the dedicated ``first()`` path, engine batch /
parallel / streaming wiring, the frontier-miss statistic and its
watermark, and graceful degradation when numpy is missing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BackendUnavailableError, SpanRelation
from repro.engine import BACKENDS, Engine, available_backends, get_backend
from repro.regex import parse
from repro.va import evaluate_naive, regex_to_va, trim
from repro.va.vectorized import numpy_available

from ..properties.conftest import documents, sequential_formulas

_SETTINGS = settings(max_examples=40, deadline=None)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend needs numpy"
)

#: Run-heavy documents: long single-letter stretches (the doubling path).
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


@needs_numpy
class TestVectorizedMatchesOtherBackends:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_matches_naive_and_indexed(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = evaluate_naive(va, doc)
        vectorized = get_backend("vectorized").prepare(va)
        indexed = get_backend("indexed").prepare(va)
        assert SpanRelation(vectorized.enumerate(doc)) == expected
        assert list(vectorized.enumerate(doc)) == list(indexed.enumerate(doc))
        assert vectorized.is_nonempty(doc) == bool(len(expected))

    @given(sequential_formulas(), run_documents)
    @_SETTINGS
    def test_matches_indexed_on_run_heavy_documents(self, formula, doc):
        va = trim(regex_to_va(formula))
        vectorized = get_backend("vectorized").prepare(va)
        indexed = get_backend("indexed").prepare(va)
        assert list(vectorized.enumerate(doc)) == list(indexed.enumerate(doc))
        assert vectorized.is_nonempty(doc) == indexed.is_nonempty(doc)

    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_first_matches_enumeration_head(self, formula, doc):
        va = trim(regex_to_va(formula))
        prepared = get_backend("vectorized").prepare(va)
        full = list(prepared.enumerate(doc))
        assert prepared.run(doc).first() == (full[0] if full else None)

    @given(sequential_formulas(), documents, st.integers(min_value=0, max_value=4))
    @_SETTINGS
    def test_limit_is_an_enumeration_prefix(self, formula, doc, limit):
        va = trim(regex_to_va(formula))
        engine = Engine(backend="vectorized")
        full = list(engine.enumerate(va, doc))
        assert list(engine.enumerate(va, doc, limit=limit)) == full[:limit]

    def test_empty_document_and_empty_result(self):
        va = trim(regex_to_va(parse("x{a+}")))
        engine = Engine(backend="vectorized")
        reference = Engine(backend="indexed")
        for doc in ("", "b", "aa"):
            assert list(engine.enumerate(va, doc)) == list(
                reference.enumerate(va, doc)
            )
            assert engine.first(va, doc) == reference.first(va, doc)


@needs_numpy
class TestMultiPlaneEquivalence:
    """>64-state automata exercise multi-word plane arithmetic end to end."""

    @pytest.mark.parametrize(
        "doc", ["", "ab" * 13 + "aa", "ab" * 40, "a" * 120, "ab" * 13 + "ac"]
    )
    def test_matches_indexed_across_planes(self, doc):
        va = _multi_plane_va()
        vectorized = get_backend("vectorized").prepare(va)
        indexed = get_backend("indexed").prepare(va)
        assert list(vectorized.enumerate(doc)) == list(indexed.enumerate(doc))
        assert vectorized.is_nonempty(doc) == indexed.is_nonempty(doc)
        assert vectorized.run(doc).first() == indexed.run(doc).first()

    def test_gauges_match_indexed_across_planes(self):
        va = _multi_plane_va()
        doc = "ab" * 13 + "aa"
        vectorized = get_backend("vectorized").prepare(va).run(doc)
        indexed = get_backend("indexed").prepare(va).run(doc)
        assert vectorized.states_alive() == indexed.states_alive()
        assert vectorized.width() == indexed.width()


@needs_numpy
class TestEngineIntegration:
    def test_batch_parallel_and_streaming_agree_with_indexed(self):
        va = trim(regex_to_va(parse("x{[ab]+}c")))
        docs = ["abcab", "", "ababc", "zzz", "c", "abab", "abc" * 30]
        vectorized = Engine(backend="vectorized")
        indexed = Engine(backend="indexed")
        expected = indexed.evaluate_many(va, docs)
        assert vectorized.evaluate_many(va, docs) == expected
        assert vectorized.evaluate_many(va, docs, workers=2) == expected
        assert list(vectorized.enumerate_stream(va, docs)) == list(
            indexed.enumerate_stream(va, docs)
        )

    def test_prefilter_and_frontier_stats_are_attributed(self):
        va = trim(regex_to_va(parse("x{[ab]+}c")))
        engine = Engine(backend="vectorized")
        engine.evaluate_many(va, ["ababc", "zzz", "abc"])
        assert engine.stats.prefilter_rejects == 1  # "zzz"
        assert engine.stats.frontier_cache_misses > 0
        assert "frontier misses" in engine.stats.summary()

    def test_frontier_misses_stop_growing_on_repeats(self):
        va = trim(regex_to_va(parse("x{[ab]+}c")))
        engine = Engine(backend="vectorized", document_cache_size=0)
        engine.is_nonempty(va, "ababc")
        misses = engine.stats.frontier_cache_misses
        engine.is_nonempty(va, "ababc")
        assert engine.stats.frontier_cache_misses == misses

    def test_first_uses_the_dedicated_walk(self):
        va = trim(regex_to_va(parse("(a|b)*x{(a|b)+}(a|b)*")))
        vectorized = Engine(backend="vectorized")
        indexed = Engine(backend="indexed")
        doc = "ab" * 50
        assert vectorized.first(va, doc) == indexed.first(va, doc)
        # first() decides without enumerating: one mapping, counted.
        assert vectorized.stats.mappings == 1


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


class TestGracefulDegradation:
    """Requesting ``vectorized`` without numpy fails fast and clean; the
    rest of the engine is untouched."""

    def test_vectorized_always_listed_but_gated_by_availability(self):
        assert "vectorized" in BACKENDS
        if numpy_available():
            assert "vectorized" in available_backends()
        else:
            assert "vectorized" not in available_backends()

    def test_missing_numpy_raises_backend_unavailable(self, monkeypatch):
        import repro.va.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "NUMPY", None)
        assert not vectorized_module.numpy_available()
        assert "vectorized" not in available_backends()
        with pytest.raises(BackendUnavailableError, match="numpy"):
            get_backend("vectorized")
        with pytest.raises(BackendUnavailableError, match="fast"):
            vectorized_module.require_numpy()

    def test_other_backends_survive_missing_numpy(self, monkeypatch):
        import repro.va.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "NUMPY", None)
        va = trim(regex_to_va(parse("x{a+}b")))
        reference = list(Engine(backend="indexed").enumerate(va, "aab"))
        assert reference  # the query really matches
        for name in available_backends():
            assert list(Engine(backend=name).enumerate(va, "aab")) == reference

    def test_cli_reports_the_install_hint(self, monkeypatch, capsys):
        import repro.va.vectorized as vectorized_module

        from repro.cli import main

        monkeypatch.setattr(vectorized_module, "NUMPY", None)
        code = main(
            ["extract", "x{a+}b", "--text", "aab", "--backend", "vectorized"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "numpy" in err and "fast" in err
