"""What the store persists about runs (schema version 2): every document's
exact run count, and a run-length encoding only where the document takes
the run walk (:func:`repro.va.kernel.takes_run_walk`) — so appending to a
stored log never re-encodes its runs, hydrated documents route with no
scan under any walk threshold, and a version-1 store migrates in place."""

import json
import sqlite3
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.document as document_module
from repro import Engine
from repro.core import Document
from repro.corpus import CorpusError, CorpusStore, content_hash
from repro.corpus.index import id_array, pack_ids
from repro.corpus.store import SCHEMA_VERSION
from repro.regex import parse
from repro.va import regex_to_va, trim
from repro.va.kernel import run_walk_runs, takes_run_walk
from repro.workloads.packs import server_logs

from ..engine.conftest import BACKEND_LEGS, leg_settings

#: Long single-letter runs and short text: both walks, and appends that
#: cross the run-walk rule in either direction.
FORMULA = "(a|b|c)*x{ba+}(a|b|c)*"

DOCS = ["abcabc", "b" + "a" * 40, "", "aab", "c" * 9 + "ba"]


def _va():
    return trim(regex_to_va(parse(FORMULA)))


def _rows(store: CorpusStore) -> dict[int, tuple]:
    """``doc_id → (text, length, runs, runs_letters)`` straight from sqlite."""
    return {
        row[0]: row[1:]
        for row in store._conn.execute(
            "SELECT doc_id, text, length, runs, runs_letters FROM documents"
        )
    }


def _assert_rle_rule(store: CorpusStore) -> None:
    """Every row counts its runs exactly, and holds an encoding (one letter
    per run) iff the document takes the run walk."""
    for text, length, runs, letters in _rows(store).values():
        assert runs == len(Document(text).runs())
        assert (len(letters) == runs) == takes_run_walk(length, runs)


def _assert_answers_like_the_list_walk(path: Path, texts: dict[int, str]) -> None:
    """A reopened handle answers as the list walk does on every leg, and
    every hydrated document takes the walk its exact run count calls for
    under the leg's threshold — the documents are hydrated first, under
    the default one."""
    va = _va()
    ids = sorted(texts)
    expected = Engine().evaluate_many(va, [texts[i] for i in ids])
    with CorpusStore(path) as reopened:
        hydrated = {doc_id: reopened.document(doc_id) for doc_id in ids}
        for leg in BACKEND_LEGS:
            with leg_settings(leg) as name:
                for doc_id, doc in hydrated.items():
                    runs = len(Document(texts[doc_id]).runs())
                    assert (run_walk_runs(doc) is not None) == takes_run_walk(
                        len(doc), runs
                    ), (leg, texts[doc_id])
                got = Engine(backend=name).evaluate_many(va, reopened.select(ids))
                assert got == expected, leg


class TestRunArtifacts:
    def test_text_row_holds_no_encoding_and_its_exact_run_count(self, tmp_path):
        text = server_logs.generate_log(20, seed=3)
        with CorpusStore(tmp_path / "store.sqlite") as store:
            doc_id = store.add(text)
            (_text, length, runs, letters) = _rows(store)[doc_id]
            (blob,) = store._conn.execute(
                "SELECT runs_lengths FROM documents WHERE doc_id = ?", (doc_id,)
            ).fetchone()
            assert runs == len(Document(text).runs())
            assert not takes_run_walk(length, runs)
            assert letters == "" and bytes(blob) == b""

    def test_run_walk_row_keeps_its_encoding(self, tmp_path):
        text = "b" + "a" * 64
        with CorpusStore(tmp_path / "store.sqlite") as store:
            doc_id = store.add(text)
            assert _rows(store)[doc_id][2:] == (2, "ba")
        with CorpusStore(tmp_path / "store.sqlite") as reopened:
            assert reopened.document(doc_id).runs() == Document(text).runs()

    def test_empty_document_has_no_runs_and_an_empty_encoding(self, tmp_path):
        with CorpusStore(tmp_path / "store.sqlite") as store:
            doc_id = store.add("")
            assert _rows(store)[doc_id] == ("", 0, 0, "")
            assert store.document(doc_id).runs() == ()

    def test_append_to_a_hydrated_log_builds_no_run_triples(self, tmp_path):
        log = server_logs.generate_log(145, seed=5)
        assert len(log) > 8000
        path = tmp_path / "store.sqlite"
        with CorpusStore(path) as store:
            doc_id = store.add(log)
        lines = server_logs.generate_log(4, seed=6, start_second=86_000)

        def boom(*_args, **_kwargs):
            raise AssertionError("run triples built on a text append")

        with CorpusStore(path) as store:
            store.document(doc_id)
            with patch.object(document_module, "_run_triples", boom):
                grown = store.append(doc_id, lines)
            assert grown.text == log + lines
            assert store.verify() == []
            assert _rows(store)[doc_id][2:] == (len(Document(log + lines).runs()), "")

    def test_hydrated_text_routes_on_its_count_under_any_threshold(self, tmp_path):
        text = server_logs.generate_log(10, seed=2)
        with CorpusStore(tmp_path / "store.sqlite") as store:
            doc_id = store.add(text)
        with CorpusStore(tmp_path / "store.sqlite") as store:
            doc = store.document(doc_id)
            assert run_walk_runs(doc) is None
            with patch.object(document_module, "_RUN", None):
                assert run_walk_runs(doc) is None  # no scan: the count decides
            with leg_settings("indexed-run-walk"):
                assert run_walk_runs(doc) == Document(text).runs()


#: A text mixing long single-letter runs with short text.
mixed_texts = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("ab"), st.integers(8, 30)).map(
            lambda run: run[0] * run[1]
        ),
        st.text(alphabet="abc", min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=3,
).map("".join)

write_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.just(0), mixed_texts),
        st.tuples(st.just("append"), st.integers(0, 7), mixed_texts),
        st.tuples(st.just("update"), st.integers(0, 7), mixed_texts),
        st.tuples(st.just("remove"), st.integers(0, 7), st.just("")),
    ),
    min_size=1,
    max_size=5,
)

#: Its prefilter requires ``c ≥ 2``, so the planner filters the ``c``
#: posting by count and reads the open counts appends leave.
COUNTED_PREFILTER = trim(regex_to_va(parse("(a|b|c)*x{cc}(a|b|c)*"))).prefilter()


def _assert_survivors_like_the_list_walk(store: CorpusStore, texts) -> None:
    _plan, kept = store.survivors(COUNTED_PREFILTER)
    assert kept == [
        doc_id
        for doc_id in sorted(texts)
        if COUNTED_PREFILTER.admits(Document(texts[doc_id]))
    ]


class TestWriteSequences:
    def test_the_counted_prefilter_bounds_a_count(self):
        assert ("c", 2) in COUNTED_PREFILTER.required

    @given(mixed_texts, write_steps)
    @settings(max_examples=40, deadline=None)
    def test_every_write_keeps_the_rule_and_the_answers(self, first, steps):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.sqlite"
            with CorpusStore(path) as store:
                texts = {store.add(first): first}
                for kind, pick, text in steps:
                    ids = sorted(texts)
                    if not ids:
                        kind = "add"  # every other step needs a document
                    if kind == "add":
                        texts[store.add(text)] = text
                    elif kind == "remove":
                        doc_id = ids[pick % len(ids)]
                        store.remove(doc_id)
                        del texts[doc_id]
                    else:
                        doc_id = ids[pick % len(ids)]
                        new = texts[doc_id] + text if kind == "append" else text
                        clash = next(
                            (i for i, t in texts.items() if t == new), None
                        )
                        if clash is not None and clash != doc_id:
                            with pytest.raises(CorpusError, match="duplicate"):
                                getattr(store, kind)(doc_id, text)
                        else:
                            getattr(store, kind)(doc_id, text)
                            texts[doc_id] = new
                    assert store.doc_ids() == sorted(texts)
                    assert {i: store.text(i) for i in texts} == texts
                    assert store.verify() == []
                    _assert_rle_rule(store)
                    _assert_survivors_like_the_list_walk(store, texts)
                    _assert_answers_like_the_list_walk(path, texts)


#: The version-1 layout: every document holds a run-length encoding, and
#: there is no run count column.
V1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE documents (
    doc_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    hash         TEXT NOT NULL UNIQUE,
    length       INTEGER NOT NULL,
    text         TEXT NOT NULL,
    runs_letters TEXT NOT NULL,
    runs_lengths BLOB NOT NULL,
    histogram    TEXT NOT NULL
);
CREATE INDEX documents_length ON documents(length);
CREATE TABLE postings (
    letter TEXT PRIMARY KEY,
    n      INTEGER NOT NULL,
    ids    BLOB NOT NULL,
    counts BLOB NOT NULL
);
"""


def _write_v1_store(path: Path, texts: list[str]) -> None:
    postings: dict[str, list[tuple[int, int]]] = {}
    with sqlite3.connect(path) as conn:
        conn.executescript(V1_SCHEMA)
        conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        for doc_id, text in enumerate(texts, start=1):
            doc = Document(text)
            runs = doc.runs()
            histogram = dict(doc.letter_counts())
            conn.execute(
                "INSERT INTO documents VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    doc_id,
                    content_hash(text),
                    len(text),
                    text,
                    "".join(letter for letter, _start, _length in runs),
                    pack_ids(id_array(length for _l, _s, length in runs)),
                    json.dumps(histogram, sort_keys=True, ensure_ascii=False),
                ),
            )
            for letter, count in histogram.items():
                postings.setdefault(letter, []).append((doc_id, count))
        for letter, entries in postings.items():
            conn.execute(
                "INSERT INTO postings VALUES (?, ?, ?, ?)",
                (
                    letter,
                    len(entries),
                    pack_ids(id_array(doc_id for doc_id, _count in entries)),
                    pack_ids(id_array(count for _doc_id, count in entries)),
                ),
            )
    conn.close()


class TestMigration:
    TEXTS = [*DOCS, server_logs.generate_log(12, seed=4)]

    def test_read_only_open_of_a_v1_store_asks_for_one_writable_open(self, tmp_path):
        path = tmp_path / "store.sqlite"
        _write_v1_store(path, self.TEXTS)
        with pytest.raises(CorpusError, match="open it writable once"):
            CorpusStore(path, read_only=True)

    def test_writable_open_migrates_in_place(self, tmp_path):
        path = tmp_path / "store.sqlite"
        _write_v1_store(path, self.TEXTS)
        with CorpusStore(path) as store:
            assert SCHEMA_VERSION == 2
            assert store.stats()["schema_version"] == 2
            assert store.verify() == []
            _assert_rle_rule(store)
            texts = {doc_id: store.text(doc_id) for doc_id in store}
        assert [texts[i] for i in sorted(texts)] == self.TEXTS
        _assert_answers_like_the_list_walk(path, texts)
        with CorpusStore(path, read_only=True) as reader:
            assert reader.verify() == []
