"""The engine's batch/streaming APIs, statistics, and the Spanner batch
protocol."""

import pytest

from repro import (
    Difference,
    Engine,
    Instantiation,
    Leaf,
    RAQuery,
    compile_spanner,
    parse,
)
from repro.core import SpannerError
from repro.engine import EngineStats, available_backends, get_backend
from repro.va.vectorized import numpy_available


def _query(engine=None):
    tree = Difference(Leaf("a"), Leaf("c"))
    inst = Instantiation(
        spanners={
            "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
            "c": parse("(a|b)*x{a}(a|b)*"),
        }
    )
    return RAQuery(tree, inst, engine=engine)


DOCS = ["abab", "b", "", "bbba"]


class TestBatchApis:
    def test_evaluate_many_matches_single_evaluations(self):
        query = _query()
        assert query.evaluate_many(DOCS) == [query.evaluate(d) for d in DOCS]

    def test_enumerate_stream_tags_documents_by_index(self):
        query = _query()
        streamed = list(query.enumerate_stream(DOCS))
        for index, doc in enumerate(DOCS):
            expected = list(query.enumerate(doc))
            assert [m for i, m in streamed if i == index] == expected

    def test_enumerate_stream_is_lazy(self):
        engine = Engine()
        query = _query(engine)

        def docs():
            yield "abab"
            raise AssertionError("second document must not be pulled eagerly")

        stream = query.enumerate_stream(docs())
        first = next(stream)
        assert first[0] == 0

    def test_spanner_batch_protocol_defaults(self):
        spanner = compile_spanner("(a|b)*x{(a|b)+}")
        relations = spanner.evaluate_many(DOCS)
        assert relations == [spanner.evaluate(d) for d in DOCS]
        streamed = list(spanner.enumerate_stream(DOCS))
        assert {i for i, _ in streamed} == {
            i for i, d in enumerate(DOCS) if len(d) > 0
        }


class TestStatistics:
    def test_counters_accumulate_and_snapshot(self):
        engine = Engine()
        query = _query(engine)
        before = engine.stats.snapshot()
        assert before.documents == 0
        query.evaluate_many(DOCS)
        stats = engine.stats
        assert stats.documents == len(DOCS)
        assert stats.mappings == sum(len(r) for r in query.evaluate_many(DOCS))
        assert stats.compile_seconds > 0
        assert stats.states_explored > 0
        delta = stats.delta(before)
        assert delta.documents == stats.documents
        # The snapshot is independent of later activity.
        assert before.documents == 0

    def test_summary_and_dict_round_trip(self):
        stats = EngineStats(documents=3, mappings=7, plan_hits=1)
        text = stats.summary()
        assert "documents" in text and "7" in text
        assert stats.as_dict()["plan_hits"] == 1


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SpannerError):
            Engine(backend="nonexistent")
        with pytest.raises(SpannerError):
            get_backend("nonexistent")

    @pytest.mark.parametrize("name", ["indexed-plain", "matchgraph"])
    def test_retired_backends_are_rejected(self, name):
        # The indexed backend picks its letter walk per document, and the
        # frozenset match graph is a test oracle.
        with pytest.raises(SpannerError):
            Engine(backend=name)
        assert name not in available_backends()

    def test_available_backends(self):
        expected = ["indexed", "vectorized"] if numpy_available() else ["indexed"]
        assert available_backends() == expected

    def test_backend_instance_passthrough(self):
        backend = get_backend("indexed")
        assert get_backend(backend) is backend
        assert Engine(backend=backend).backend is backend

    def test_engine_rejects_unsupported_query_type(self):
        with pytest.raises(TypeError):
            Engine().evaluate(42, "ab")

    def test_ra_tree_without_instantiation_rejected(self):
        with pytest.raises(SpannerError):
            Engine().prepare(Leaf("a"))
