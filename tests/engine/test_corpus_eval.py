"""Index-driven batch evaluation over a :class:`CorpusStore`: byte-identical
to the list-walk path on every backend (prefilter on and off), stats parity,
and warm-store hydration that never recomputes document artifacts."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.document as document_module
from repro import Engine
from repro.corpus import CorpusStore
from repro.regex import parse
from repro.va import regex_to_va, trim

from ..properties.conftest import sequential_formulas
from .conftest import BACKEND_LEGS

#: Mixed corpus: matches, prefilter rejects (no ``c``), a foreign letter.
DOCS = ["abc", "aabb", "cc", "b", "", "zebra", "ccc", "bcb"]

FORMULA = "(a|b)*x{c+}(a|b)*"


def _va(formula: str = FORMULA):
    return trim(regex_to_va(parse(formula)))


@pytest.fixture
def store(tmp_path):
    with CorpusStore(tmp_path / "store.sqlite") as handle:
        handle.add_many(DOCS)
        yield handle


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_index_path_matches_list_walk(self, store, backend, prefilter):
        va = _va()
        walk = Engine(backend=backend, prefilter=prefilter)
        index = Engine(backend=backend, prefilter=prefilter)
        expected = walk.evaluate_many(va, DOCS)
        assert index.evaluate_many(va, store) == expected

    def test_limit_applies_on_both_paths(self, store):
        va = _va()
        walk = Engine().evaluate_many(va, DOCS, limit=1)
        index = Engine().evaluate_many(va, store, limit=1)
        assert index == walk

    @given(
        sequential_formulas(),
        st.lists(
            st.text(alphabet="abcz", min_size=0, max_size=6),
            min_size=0,
            max_size=6,
            unique=True,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_randomized_corpora_agree(self, formula, texts):
        va = trim(regex_to_va(formula))
        expected = Engine().evaluate_many(va, texts)
        with tempfile.TemporaryDirectory() as tmp:
            with CorpusStore(Path(tmp) / "store.sqlite") as store:
                store.add_many(texts)
                assert Engine().evaluate_many(va, store) == expected


class TestStats:
    def test_index_counters_and_reject_parity(self, store):
        va = _va()
        walk = Engine()
        index = Engine()
        walk.evaluate_many(va, DOCS)
        index.evaluate_many(va, store)
        assert index.stats.index_hits == 1
        assert index.stats.prefilter_rejects == walk.stats.prefilter_rejects
        assert index.stats.documents == walk.stats.documents
        survivors = len(DOCS) - index.stats.prefilter_rejects
        assert index.stats.hydrations == survivors
        assert index.stats.index_candidates >= survivors

    def test_prefilter_off_hydrates_everything(self, store):
        engine = Engine(prefilter=False)
        engine.evaluate_many(_va(), store)
        assert engine.stats.index_hits == 0
        assert engine.stats.hydrations == len(DOCS)


class TestWarmStore:
    def test_warm_query_never_recomputes_artifacts(self, tmp_path, monkeypatch):
        """The acceptance bar: queries against an ingested store never re-run
        ``Document.runs()`` / ``letter_counts()`` from scratch — hydration
        serves both from the persisted artifacts."""
        path = tmp_path / "store.sqlite"
        va = _va()
        expected = Engine().evaluate_many(va, [*DOCS, "abcc"])
        with CorpusStore(path) as store:
            store.add_many(DOCS)  # artifacts computed once, here
            store.append(store.add("ab"), "cc")  # and extended once, here

        def boom(*_args, **_kwargs):
            raise AssertionError("artifact recomputation on the store path")

        monkeypatch.setattr(document_module, "Counter", boom)
        monkeypatch.setattr(document_module, "_RUN", SimpleNamespace(finditer=boom))
        with CorpusStore(path) as warm:
            engine = Engine()
            assert engine.evaluate_many(va, warm) == expected
            assert engine.stats.hydrations > 0

    def test_repeat_query_reuses_cached_documents(self, store):
        engine = Engine()
        va = _va()
        first = engine.evaluate_many(va, store)
        hydrations = engine.stats.hydrations
        assert engine.evaluate_many(va, store) == first
        assert engine.stats.hydrations == 2 * hydrations
        # The store handle served the repeats from its LRU document cache.
        assert store.hydrations == 2 * hydrations
        assert len(store._doc_cache) == hydrations


class TestSelections:
    def test_selection_preserves_order_and_duplicates(self, store):
        va = _va()
        ids = store.doc_ids()
        chosen = [ids[2], ids[0], ids[2], ids[5]]
        expected = Engine().evaluate_many(
            va, [store.text(i) for i in chosen]
        )
        got = Engine().evaluate_many(va, store.select(chosen))
        assert got == expected

    def test_duplicate_ids_hydrate_and_evaluate_once(self, store):
        va = _va()
        ids = store.doc_ids()
        chosen = [ids[2], ids[0], ids[2], ids[5]]
        engine = Engine()
        got = engine.evaluate_many(va, store.select(chosen))
        # One answer per listed id, in order: "cc", "abc", "cc", "zebra".
        assert got == [
            Engine().evaluate(va, store.text(doc_id)) for doc_id in chosen
        ]
        assert got[0] == got[2] and len(got[0]) == 1 and len(got[3]) == 0
        # "cc" is hydrated and evaluated once, and "zebra" is pruned.
        assert engine.stats.hydrations == 2
        assert engine.stats.documents == 3
        assert engine.stats.prefilter_rejects == 1

    def test_selection_restricts_the_index_plan(self, store):
        prefilter = _va().prefilter()
        subset = store.doc_ids()[:3]
        plan = store.candidates(prefilter, within=subset)
        assert set(plan.doc_ids) <= set(subset)


class TestNonemptyMany:
    def test_store_path_matches_iterable_path(self, store):
        va = _va()
        expected = Engine().is_nonempty_many(va, DOCS)
        assert Engine().is_nonempty_many(va, store) == expected
        assert expected == [bool(r) for r in Engine().evaluate_many(va, DOCS)]

    def test_pruned_documents_count_as_checks(self, store):
        engine = Engine()
        engine.is_nonempty_many(_va(), store)
        assert engine.stats.nonempty_checks == len(DOCS)
        assert engine.stats.documents == 0  # no full evaluations happened

    def test_duplicate_ids_answered_once(self, store):
        engine = Engine()
        ids = store.doc_ids()
        selection = store.select([ids[0], ids[0], ids[2]])
        answers = engine.is_nonempty_many(_va(), selection)
        assert answers[0] == answers[1]

    def test_duplicate_ids_hydrate_and_check_once(self, store):
        engine = Engine()
        ids = store.doc_ids()
        # "abc" listed twice around "aabb", which the index prunes.
        selection = store.select([ids[0], ids[1], ids[0]])
        answers = engine.is_nonempty_many(_va(), selection)
        assert answers == [True, False, True]
        assert engine.stats.hydrations == 1
        assert engine.stats.nonempty_checks == 2  # one decided, one pruned
        assert engine.stats.prefilter_rejects == 1
        assert engine.stats.documents == 0


class TestEnumerateStream:
    def test_stream_yields_doc_ids_in_selection_order(self, store):
        va = _va()
        engine = Engine()
        streamed = list(engine.enumerate_stream(va, store))
        ids = store.doc_ids()
        by_id = {}
        for doc_id, mapping in streamed:
            by_id.setdefault(doc_id, []).append(mapping)
        reference = Engine()
        for doc_id in ids:
            expected = [
                m for _i, m in reference.enumerate_stream(
                    va, [store.text(doc_id)]
                )
            ]
            assert by_id.get(doc_id, []) == expected
        # Stream order follows ascending doc-id (the store's order).
        seen = [doc_id for doc_id, _ in streamed]
        assert seen == sorted(seen)

    def test_pruned_documents_never_hydrate(self, store):
        engine = Engine()
        list(engine.enumerate_stream(_va(), store))
        assert engine.stats.hydrations < len(DOCS)


class TestWorkers:
    def test_parallel_corpus_evaluation_matches_sequential(self, store):
        va = _va()
        expected = Engine().evaluate_many(va, store)
        engine = Engine()
        got = engine.evaluate_many(va, store, workers=2)
        assert got == expected
        assert engine.stats.parallel_shards == 2
