"""The persistent corpus store: ingest/dedup/update/remove semantics,
round-trip persistence across handles, posting-list maintenance, the index
planner's superset guarantee, and the sorted-array helpers."""

import sqlite3
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusError, CorpusStore, content_hash, plan_candidates
from repro.corpus import index as corpus_index
from repro.corpus.index import (
    filter_min_count,
    id_array,
    intersect_sorted,
    pack_ids,
    subtract_sorted,
    unpack_ids,
)
from repro.corpus.store import OPEN_COUNT
from repro.regex import parse
from repro.va import evaluate_naive, regex_to_va, trim

from ..properties.conftest import sequential_formulas

DOCS = ["abc", "aabb", "cc", "b", "", "zebra", "ccc"]


def _prefilter(formula: str):
    return trim(regex_to_va(parse(formula))).prefilter()


def _store(tmp_path: Path, texts=DOCS) -> CorpusStore:
    store = CorpusStore(tmp_path / "store.sqlite")
    store.add_many(texts)
    return store


class TestIngest:
    def test_add_assigns_ascending_ids(self, tmp_path):
        with _store(tmp_path) as store:
            assert len(store) == len(DOCS)
            ids = store.doc_ids()
            assert ids == sorted(ids)
            assert [store.text(i) for i in ids] == DOCS

    def test_content_hash_dedup_returns_existing_id(self, tmp_path):
        with _store(tmp_path) as store:
            first = store.contains_text("abc")
            assert first is not None
            assert store.add("abc") == first
            assert store.dedup_hits == 1
            assert len(store) == len(DOCS)

    def test_add_many_dedups_within_one_batch(self, tmp_path):
        with CorpusStore(tmp_path / "store.sqlite") as store:
            ids = store.add_many(["x", "y", "x"])
            assert ids[0] == ids[2]
            assert len(store) == 2
            assert store.dedup_hits == 1

    def test_directory_path_gets_a_default_filename(self, tmp_path):
        with CorpusStore(tmp_path) as store:
            store.add("abc")
            assert store.path == tmp_path / "corpus.sqlite"
            assert store.path.exists()

    def test_membership_and_iteration(self, tmp_path):
        with _store(tmp_path) as store:
            ids = store.doc_ids()
            assert list(store) == ids
            assert ids[0] in store
            assert max(ids) + 1 not in store
            assert "abc" not in store  # only ids are members
            assert store.contains_text("not ingested") is None

    def test_accepts_document_objects(self, tmp_path):
        from repro.core import Document

        with CorpusStore(tmp_path / "store.sqlite") as store:
            doc_id = store.add(Document("abc"))
            assert store.text(doc_id) == "abc"
            assert store.contains_text(Document("abc")) == doc_id


class TestPersistence:
    def test_reopen_preserves_documents_and_postings(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with CorpusStore(path) as store:
            ids = store.add_many(DOCS)
            letters = store.letters()
            posting_c = store.posting("c")
            assert posting_c is not None
        with CorpusStore(path) as reopened:
            assert reopened.doc_ids() == sorted(set(ids))
            assert reopened.letters() == letters
            ids_again, counts_again = reopened.posting("c")
            assert list(ids_again) == list(posting_c[0])
            assert list(counts_again) == list(posting_c[1])
            assert [reopened.text(i) for i in ids[: len(DOCS)]] == DOCS

    def test_reopen_gives_identical_query_results(self, tmp_path):
        from repro import Engine

        path = tmp_path / "store.sqlite"
        query = trim(regex_to_va(parse("(a|b)*x{c+}(a|b)*")))
        with CorpusStore(path) as store:
            store.add_many(DOCS)
            before = Engine().evaluate_many(query, store)
        with CorpusStore(path) as reopened:
            after = Engine().evaluate_many(query, reopened)
        assert after == before

    def test_schema_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "store.sqlite"
        CorpusStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
        with pytest.raises(CorpusError, match="schema version"):
            CorpusStore(path)


class TestMaintenance:
    def test_remove_scrubs_postings(self, tmp_path):
        with _store(tmp_path) as store:
            zebra = store.contains_text("zebra")
            store.remove(zebra)
            assert zebra not in store
            assert store.posting("z") is None  # zebra was the only z document
            assert "z" not in store.letters()
            ids, _counts = store.posting("b")
            assert zebra not in set(ids)
            assert store.verify() == []

    def test_remove_unknown_id_raises(self, tmp_path):
        with _store(tmp_path) as store:
            with pytest.raises(CorpusError, match="no document"):
                store.remove(10_000)

    def test_update_rewrites_artifacts_and_postings(self, tmp_path):
        with _store(tmp_path) as store:
            doc_id = store.contains_text("abc")
            store.update(doc_id, "dddd")
            assert store.text(doc_id) == "dddd"
            assert store.contains_text("abc") is None
            assert store.contains_text("dddd") == doc_id
            ids, counts = store.posting("d")
            assert dict(zip(ids, counts))[doc_id] == 4
            for letter in "abc":
                posting = store.posting(letter)
                if posting is not None:
                    assert doc_id not in set(posting[0])
            assert store.verify() == []

    def test_update_to_same_content_is_a_noop(self, tmp_path):
        with _store(tmp_path) as store:
            doc_id = store.contains_text("abc")
            store.update(doc_id, "abc")
            assert store.text(doc_id) == "abc"
            assert store.verify() == []

    def test_update_that_duplicates_another_document_raises(self, tmp_path):
        with _store(tmp_path) as store:
            doc_id = store.contains_text("abc")
            with pytest.raises(CorpusError, match="duplicate"):
                store.update(doc_id, "cc")
            assert store.text(doc_id) == "abc"  # unchanged

    def test_update_unknown_id_raises(self, tmp_path):
        with _store(tmp_path) as store:
            with pytest.raises(CorpusError, match="no document"):
                store.update(10_000, "x")

    def test_verify_clean_store(self, tmp_path):
        with _store(tmp_path) as store:
            assert store.verify() == []

    def test_verify_reports_and_rebuild_repairs_corruption(self, tmp_path):
        with _store(tmp_path) as store:
            doc_id = store.contains_text("aabb")
            with store._conn:
                store._conn.execute(
                    "UPDATE documents SET histogram = '{}', length = 99 "
                    "WHERE doc_id = ?",
                    (doc_id,),
                )
            issues = store.verify()
            assert any("stale histogram" in issue for issue in issues)
            assert any("length" in issue for issue in issues)
            summary = store.rebuild(verify=True)
            assert summary["documents"] == len(DOCS)
            assert summary["verified"] is True
            assert summary["issues"] == issues
            assert store.verify() == []

    def test_rebuild_clean_store_changes_nothing(self, tmp_path):
        with _store(tmp_path) as store:
            before = {
                letter: (list(store.posting(letter)[0]),
                         list(store.posting(letter)[1]))
                for letter in sorted(store.letters())
            }
            summary = store.rebuild()
            assert summary == {
                "documents": len(DOCS),
                "letters": len(before),
                "verified": False,
                "issues": [],
            }
            after = {
                letter: (list(store.posting(letter)[0]),
                         list(store.posting(letter)[1]))
                for letter in sorted(store.letters())
            }
            assert after == before

    def test_content_hash_is_stable(self):
        assert content_hash("abc") == content_hash("abc")
        assert content_hash("abc") != content_hash("abd")


def _postings(store: CorpusStore) -> dict[str, tuple[list, list]]:
    return {
        letter: tuple(list(array) for array in store.posting(letter))
        for letter in sorted(store.letters())
    }


def _traced(store: CorpusStore, call) -> list[str]:
    """The sqlite statements ``call()`` runs on ``store``'s connection."""
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        store._conn.set_trace_callback(None)
    return statements


class TestIncrementalAppend:
    def test_append_matches_fresh_ingest(self, tmp_path):
        with _store(tmp_path, ["abc", "zz"]) as store:
            grown = store.append(1, "cba")
            assert grown.text == "abccba"
            assert store.text(1) == "abccba"
            assert store.verify() == []
            with _store(tmp_path / "other", ["abccba", "zz"]) as oracle:
                assert store.letters() == oracle.letters()
                # The same ids; the appended document's counts are open,
                # the other document's exact.
                got = _postings(store)
                for letter, (ids, counts) in _postings(oracle).items():
                    assert got[letter][0] == ids, letter
                    assert got[letter][1] == [
                        OPEN_COUNT if doc_id == 1 else count
                        for doc_id, count in zip(ids, counts)
                    ], letter
                store.rebuild()
                assert _postings(store) == _postings(oracle)

    def test_steady_append_writes_only_its_row(self, tmp_path):
        with _store(tmp_path, ["abc", "zz"]) as store:
            # The first append opens every letter, c included.
            first = _traced(store, lambda: store.append(1, "ab"))
            assert sum("INTO postings" in sql for sql in first) == 3
            # Letters the document already holds: the dedup check and the
            # row update, no posting.
            steady = _traced(store, lambda: store.append(1, "ca"))
            assert [sql.split()[0] for sql in steady] == [
                "SELECT", "BEGIN", "UPDATE", "COMMIT"
            ]
            # Two letters new to the document: two postings, whatever
            # other documents hold them.
            new = _traced(store, lambda: store.append(1, "zqab"))
            assert sum("INTO postings" in sql for sql in new) == 2
            assert store.verify() == []
            postings = _postings(store)
            assert postings["q"] == ([1], [OPEN_COUNT])
            assert postings["z"] == ([1, 2], [OPEN_COUNT, 2])

    def test_verify_holds_open_counts_to_the_histogram(self, tmp_path):
        with _store(tmp_path, ["abc", "zz"]) as store:
            store.append(1, "cab")
            assert store.verify() == []
            # An open count for a letter the document lacks, and an
            # over-count that is not open, still diverge.
            store._posting_for_write("z").add(1, OPEN_COUNT)
            store._posting_for_write("a").add(1, 5)
            with store._conn:
                store._flush_postings(["z", "a"])
            issues = store.verify()
            assert sorted(issues) == [
                "posting 'a': diverges from document histograms",
                "posting 'z': diverges from document histograms",
            ]
            store.rebuild()
            assert store.verify() == []

    def test_append_after_update_reopens_exact_counts(self, tmp_path):
        with _store(tmp_path, ["aab", "zz"]) as store:
            store.append(1, "b")
            store.update(1, "abc")
            assert list(store.posting("a")[1]) == [1]
            store.append(1, "a")
            for letter in "abc":
                assert list(store.posting(letter)[1]) == [OPEN_COUNT], letter
            assert store.verify() == []

    def test_append_empty_text_is_a_noop(self, tmp_path):
        with _store(tmp_path, ["abc"]) as store:
            assert store.append(1, "").text == "abc"
            assert store.verify() == []

    def test_append_replaces_cached_document(self, tmp_path):
        with _store(tmp_path, ["abc"]) as store:
            store.document(1)
            grown = store.append(1, "d")
            assert store.document(1) is grown

    def test_append_duplicating_another_document_raises(self, tmp_path):
        with _store(tmp_path, ["abc", "ab"]) as store:
            with pytest.raises(CorpusError, match="duplicate"):
                store.append(2, "c")

    def test_append_accepts_document_objects(self, tmp_path):
        from repro.core import Document

        with _store(tmp_path, ["ab"]) as store:
            assert store.append(1, Document("ba")).text == "abba"


class TestReadOnlyHandles:
    def test_writable_store_runs_in_wal_mode(self, tmp_path):
        with _store(tmp_path) as store:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode == "wal"

    def test_read_only_rejects_mutations(self, tmp_path):
        path = tmp_path / "store.sqlite"
        _store(tmp_path).close()
        with CorpusStore(path, read_only=True) as reader:
            for call in (
                lambda: reader.add_many(["new"]),
                lambda: reader.remove(1),
                lambda: reader.update(1, "x"),
                lambda: reader.append(1, "x"),
                lambda: reader.rebuild(),
            ):
                with pytest.raises(CorpusError, match="read-only"):
                    call()

    def test_read_only_requires_an_existing_store(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            CorpusStore(tmp_path / "missing.sqlite", read_only=True)

    def test_reader_sees_writer_commits_after_refresh(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with _store(tmp_path, ["abc"]) as writer:
            with CorpusStore(path, read_only=True) as reader:
                assert reader.text(1) == "abc"
                writer.append(1, "def")
                reader.refresh()
                assert reader.text(1) == "abcdef"
                ids, counts = reader.posting("d")
                assert list(ids) == [1]
                assert list(counts) == [OPEN_COUNT]
                writer.rebuild()
                reader.refresh()
                with _store(tmp_path / "other", ["abcdef"]) as oracle:
                    assert _postings(reader) == _postings(oracle)


class TestPlanner:
    def test_required_letters_seed_from_postings(self, tmp_path):
        with _store(tmp_path) as store:
            plan = store.candidates(_prefilter("(a|b)*x{c+}(a|b)*"))
            kinds = [op.kind for op in plan.ops]
            assert kinds[0] == "posting-seed"
            matching = {store.contains_text(t) for t in ("abc", "cc", "ccc")}
            assert set(plan.doc_ids) == matching

    def test_count_bound_filters_postings(self, tmp_path):
        with _store(tmp_path) as store:
            plan = store.candidates(_prefilter("x{cc}c*"))
            assert set(plan.doc_ids) == {
                store.contains_text("cc"),
                store.contains_text("ccc"),
            }

    def test_posting_miss_short_circuits_to_empty(self, tmp_path):
        with _store(tmp_path) as store:
            plan = store.candidates(_prefilter("x{q}"))
            assert list(plan.doc_ids) == []
            assert [op.kind for op in plan.ops] == ["posting-miss"]

    def test_empty_language_short_circuits(self, tmp_path):
        prefilter = SimpleNamespace(empty=True)
        with _store(tmp_path) as store:
            plan = plan_candidates(store, prefilter)
            assert list(plan.doc_ids) == []
            assert [op.kind for op in plan.ops] == ["empty-query"]

    def test_length_window_seeds_without_required_letters(self, tmp_path):
        with _store(tmp_path) as store:
            # (a|b)(a|b) requires no specific letter but pins the length.
            plan = store.candidates(_prefilter("x{(a|b)(a|b)}"))
            assert plan.ops[0].kind == "length-scan"
            assert set(plan.doc_ids) == {
                doc_id for doc_id in store if len(store.text(doc_id)) == 2
            }

    def test_full_scan_subtracts_foreign_letters(self, tmp_path):
        with _store(tmp_path) as store:
            plan = store.candidates(_prefilter("x{(a|b)*}"))
            kinds = [op.kind for op in plan.ops]
            assert kinds[0] == "full-scan"
            assert "subtract" in kinds
            expected = {
                doc_id
                for doc_id in store
                if set(store.text(doc_id)) <= {"a", "b"}
            }
            assert set(plan.doc_ids) == expected

    def test_within_restricts_the_candidates(self, tmp_path):
        with _store(tmp_path) as store:
            scope = store.doc_ids()[:2]
            plan = store.candidates(
                _prefilter("(a|b)*x{c+}(a|b)*"), within=scope
            )
            assert plan.ops[-1].kind == "restrict"
            assert set(plan.doc_ids) <= set(scope)

    def test_describe_lists_every_operation(self, tmp_path):
        with _store(tmp_path) as store:
            plan = store.candidates(_prefilter("(a|b)*x{c+}(a|b)*"))
            text = plan.describe()
            assert text.startswith(f"index plan over {len(DOCS)} document(s):")
            assert "candidates" in text

    def test_survivors_match_the_walked_prefilter(self, tmp_path):
        with _store(tmp_path) as store:
            prefilter = _prefilter("(a|b)*x{c+}(a|b)*")
            _plan, kept = store.survivors(prefilter)
            walked = [
                doc_id
                for doc_id in store
                if prefilter.admits(store.text(doc_id))
            ]
            assert kept == walked


#: Short documents over a 4-letter alphabet, one letter foreign to the
#: ab-heavy formulas the generator produces.
corpus_texts = st.lists(
    st.text(alphabet="abcz", min_size=0, max_size=6),
    min_size=0,
    max_size=6,
    unique=True,
)


class TestSupersetProperty:
    @given(sequential_formulas(), corpus_texts)
    @settings(max_examples=40, deadline=None)
    def test_candidates_never_drop_a_matching_document(self, formula, texts):
        va = trim(regex_to_va(formula))
        prefilter = va.prefilter()
        with tempfile.TemporaryDirectory() as tmp:
            with CorpusStore(Path(tmp) / "store.sqlite") as store:
                ids = store.add_many(texts)
                matching = {
                    doc_id
                    for doc_id, text in zip(ids, texts)
                    if evaluate_naive(va, text)
                }
                plan = store.candidates(prefilter)
                assert matching <= set(plan.doc_ids)
                _plan, kept = store.survivors(prefilter)
                assert matching <= set(kept)


class TestSortedArrayHelpers:
    @pytest.fixture(params=["numpy", "pure-python"])
    def maybe_no_numpy(self, request, monkeypatch):
        if request.param == "pure-python":
            monkeypatch.setattr(corpus_index, "NUMPY", None)
        elif corpus_index.NUMPY is None:
            pytest.skip("numpy not installed")
        return request.param

    def test_pack_unpack_roundtrip(self):
        ids = id_array([0, 1, 7, 2**32 - 1])
        assert list(unpack_ids(pack_ids(ids))) == list(ids)
        assert unpack_ids(b"") == id_array()

    def test_intersect(self, maybe_no_numpy):
        a, b = id_array([1, 3, 5, 9]), id_array([2, 3, 4, 9, 12])
        assert list(intersect_sorted(a, b)) == [3, 9]
        assert list(intersect_sorted(a, id_array())) == []
        assert list(intersect_sorted(id_array(), b)) == []

    def test_subtract(self, maybe_no_numpy):
        a, b = id_array([1, 3, 5, 9]), id_array([3, 9, 11])
        assert list(subtract_sorted(a, b)) == [1, 5]
        assert list(subtract_sorted(a, id_array())) == list(a)

    def test_filter_min_count(self, maybe_no_numpy):
        ids, counts = id_array([1, 2, 3]), id_array([5, 1, 2])
        assert filter_min_count(ids, counts, 2) == id_array([1, 3])
        assert filter_min_count(ids, counts, 1) is ids

    @given(
        st.lists(st.integers(min_value=0, max_value=50), unique=True),
        st.lists(st.integers(min_value=0, max_value=50), unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_set_operations_match_the_set_oracle(self, left, right):
        a, b = id_array(sorted(left)), id_array(sorted(right))
        assert list(intersect_sorted(a, b)) == sorted(set(left) & set(right))
        assert list(subtract_sorted(a, b)) == sorted(set(left) - set(right))
