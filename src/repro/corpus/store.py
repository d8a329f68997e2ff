"""The persistent corpus store: ingest once, query many times.

Every batch API used to walk an ad-hoc document list and recompute the
per-document artifacts (letter histogram, run-length encoding, dense
encodings) from scratch on each call — the prefilter wins of the kernel
layer were paid per *call* instead of amortised per *corpus*.  A
:class:`CorpusStore` inverts that: documents are **ingested once** into a
single sqlite file that persists

* the document text plus its SHA-256 **content hash** (duplicate ingests
  dedup to the existing id),
* the derived artifacts — the letter histogram (JSON), the exact number
  of maximal letter runs, and, only for a document that takes the run
  walk (:func:`~repro.va.kernel.takes_run_walk` when the row was
  written), its run-length encoding (a letter-per-run string plus a
  packed uint32 length array; empty for text) — so hydrated documents
  never re-run :meth:`Document.letter_counts`, route to their walk with
  no scan, and a run-walk document never re-runs :meth:`Document.runs`,
* per-letter **posting lists** — sorted uint32 document-id arrays with
  parallel occurrence counts, stored as little-endian blobs and viewed as
  numpy arrays when numpy is installed (:mod:`repro.corpus.index`).
  Counts are exact after ingest and :meth:`~CorpusStore.rebuild`, and
  :meth:`~CorpusStore.update` writes exact counts for the letters whose
  count it changes; an :meth:`~CorpusStore.append` leaves open-ended
  counts (:data:`OPEN_COUNT`).

Queries then run *against the index*: the engine compiles its
:class:`~repro.va.prefilter.VAPrefilter` into posting-list intersections
and length range scans (:func:`repro.corpus.index.plan_candidates`),
applies the O(1)-per-document residual profile check straight off the
stored histograms, and hydrates only the surviving documents.  Survivor
:class:`~repro.core.document.Document` objects are LRU-cached on the open
store handle, so a warm re-query reuses their seeded artifact caches (and
per-alphabet encodings) outright.

Maintenance: :meth:`add` / :meth:`add_many` / :meth:`remove` /
:meth:`update` / :meth:`append` keep the posting lists incrementally
consistent inside one sqlite transaction per call; :meth:`rebuild`
recomputes every artifact and posting list from the raw texts
(``verify=True`` first reports any divergence between the stored
artifacts and the recomputation — the content-hash check doubles as
corruption detection).  Only run-walk documents build, pack or unpack
run triples on any of these paths, so appending a few lines to a stored
log costs O(appended) interpreter steps plus rewriting its row.

A document's first append gives each letter of the grown document the
open-ended count :data:`OPEN_COUNT`; after that an append writes a
posting only for a letter new to the document.  An over-stated count is
sound, an under-stated one would not be: the planner keeps ids whose
count reaches a bound and only ever removes ids,
:meth:`CorpusStore.survivors` re-checks every candidate against its
exact stored histogram, and an append only raises counts.  The sentinel
is the count array's maximum, so the layout is unchanged; a release
before open counts reports an appended store's open counts as divergent
in ``verify()``, and its ``rebuild()`` writes them back as exact counts.

A store written by schema version 1, which kept an encoding for every
document, migrates in place on its first writable open; a read-only
open of one raises :class:`CorpusError`.

The store is pure stdlib (``sqlite3`` + ``array``); numpy only
accelerates the set operations.  One writer at a time per store file is
assumed (sqlite's own locking protects against worse).

Transient contention (``database is locked`` / ``busy`` from a concurrent
writer) is absorbed by a bounded retry-with-backoff on every sqlite call:
statements retry in place, mutating transactions retry whole (after a
:meth:`CorpusStore.refresh`, since the in-memory postings may have been
touched before the rollback).  Retries exhausted raise
:class:`~repro.core.errors.StoreBusy`; a corrupted database file raises
:class:`~repro.core.errors.StoreCorrupt` immediately — corruption is
never retried and never misread as contention.  The :attr:`retries`
counter feeds ``EngineStats.store_retries``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from bisect import bisect_left
from collections import OrderedDict
from hashlib import sha256
from pathlib import Path
from typing import Iterable, Iterator

from ..core.document import Document
from ..core.errors import SpannerError, StoreBusy, StoreCorrupt
from ..testing import faults
from ..va.kernel import takes_run_walk
from .index import (
    IndexPlan,
    id_array,
    pack_ids,
    plan_candidates,
    unpack_ids,
)

#: Bump on any incompatible change to the sqlite layout.  Version 2 added
#: the ``runs`` column and keeps a run-length encoding only for documents
#: that take the run walk; a version-1 store migrates on its first
#: writable open (:meth:`CorpusStore._migrate_from_v1`).
SCHEMA_VERSION = 2

#: The open-ended posting count, the maximum of the uint32 count array:
#: the document holds the letter at least once, how often is not kept.
#: :meth:`CorpusStore.append` writes it; ingest, update and rebuild write
#: exact counts.
OPEN_COUNT = 2**32 - 1

#: Chunk size for ``WHERE doc_id IN (...)`` fetches (sqlite's default
#: variable limit is 999).
_IN_CHUNK = 500

#: Bounded retry policy for transient sqlite contention: up to this many
#: retries per call, sleeping ``_RETRY_BACKOFF * 2**attempt`` between them
#: (10 ms, 20 ms, 40 ms, 80 ms — ~150 ms worst case before StoreBusy).
_STORE_RETRIES = 4
_RETRY_BACKOFF = 0.01


def _classify_sqlite_error(exc: sqlite3.DatabaseError) -> str:
    """``"transient"`` (locked/busy — retryable), ``"corrupt"`` (the file
    itself is damaged — never retryable), or ``"other"`` (schema errors
    like ``no such table`` — the caller's problem, not the store's)."""
    message = str(exc).lower()
    if "locked" in message or "busy" in message:
        return "transient"
    if (
        "malformed" in message
        or "not a database" in message
        or "corrupt" in message
    ):
        return "corrupt"
    return "other"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS documents (
    doc_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    hash         TEXT NOT NULL UNIQUE,
    length       INTEGER NOT NULL,
    text         TEXT NOT NULL,
    runs         INTEGER NOT NULL,
    runs_letters TEXT NOT NULL,
    runs_lengths BLOB NOT NULL,
    histogram    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS documents_length ON documents(length);
CREATE TABLE IF NOT EXISTS postings (
    letter TEXT PRIMARY KEY,
    n      INTEGER NOT NULL,
    ids    BLOB NOT NULL,
    counts BLOB NOT NULL
);
"""


class CorpusError(SpannerError):
    """A corpus-store operation failed (unknown id, duplicate content, …)."""


class _Posting:
    """One letter's in-memory posting list (parallel sorted arrays)."""

    __slots__ = ("ids", "counts", "dirty")

    def __init__(self, ids, counts, dirty: bool = False):
        self.ids = ids
        self.counts = counts
        self.dirty = dirty

    def add(self, doc_id: int, count: int) -> None:
        position = bisect_left(self.ids, doc_id)
        if position < len(self.ids) and self.ids[position] == doc_id:
            self.counts[position] = count
        else:
            self.ids.insert(position, doc_id)
            self.counts.insert(position, count)
        self.dirty = True

    def discard(self, doc_id: int) -> None:
        position = bisect_left(self.ids, doc_id)
        if position < len(self.ids) and self.ids[position] == doc_id:
            del self.ids[position]
            del self.counts[position]
            self.dirty = True

    def count(self, doc_id: int) -> "int | None":
        position = bisect_left(self.ids, doc_id)
        if position < len(self.ids) and self.ids[position] == doc_id:
            return self.counts[position]
        return None


def content_hash(text: str) -> str:
    """The dedup key of a document: SHA-256 of its UTF-8 bytes."""
    return sha256(text.encode("utf-8")).hexdigest()


def _run_artifacts(doc: Document) -> tuple[int, str, bytes]:
    """``(runs, runs_letters, runs_lengths_blob)``: the exact run count,
    and the run-length encoding (a letter per run plus packed lengths) if
    the document takes the run walk (:func:`~repro.va.kernel.takes_run_walk`),
    else empty.  Only a run-walk document builds its runs."""
    count = doc.run_count()
    if not takes_run_walk(len(doc), count):
        return count, "", b""
    runs = doc.runs()
    letters = "".join(letter for letter, _start, _length in runs)
    lengths = pack_ids(id_array(length for _letter, _start, length in runs))
    return count, letters, lengths


def _artifacts(text: str) -> tuple[dict, int, str, bytes, str]:
    """``(histogram, runs, runs_letters, runs_lengths_blob, histogram_json)``
    recomputed from scratch — the single source of truth for ingest,
    update, rebuild, and verify."""
    doc = Document(text)
    histogram = dict(doc.letter_counts())
    blob = json.dumps(histogram, sort_keys=True, ensure_ascii=False)
    return (histogram, *_run_artifacts(doc), blob)


def _runs_from_stored(letters: str, lengths_blob: bytes) -> tuple:
    lengths = unpack_ids(lengths_blob)
    out = []
    position = 0
    for letter, length in zip(letters, lengths):
        out.append((letter, position, length))
        position += length
    return tuple(out)


class CorpusSelection:
    """A fixed-order subset of a store's documents.

    Produced by :meth:`CorpusStore.select`; accepted everywhere a
    :class:`CorpusStore` is (``evaluate_many``, ``is_nonempty_many``,
    ``enumerate_stream``).  Results align with ``doc_ids`` order.
    """

    __slots__ = ("store", "doc_ids")

    def __init__(self, store: "CorpusStore", doc_ids: Iterable[int]):
        self.store = store
        self.doc_ids = tuple(doc_ids)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:
        return f"CorpusSelection({len(self.doc_ids)} of {self.store!r})"


class CorpusStore:
    """A persistent, indexed document corpus (see module docstring).

    Args:
        path: the sqlite file backing the store (created on first open,
            parent directories included).  A directory path stores
            ``corpus.sqlite`` inside it.
        document_cache_size: LRU bound on hydrated
            :class:`~repro.core.document.Document` objects kept on this
            handle (``0`` disables caching).
        read_only: open an existing store without write access (sqlite
            ``mode=ro``).  Mutating calls raise :class:`CorpusError`;
            combined with the writer's WAL journal, a read-only handle in
            another process sees every committed write — call
            :meth:`refresh` to drop this handle's caches and pick up the
            writer's progress.

    Writable stores run in sqlite WAL mode (set on open, persistent in
    the file), so concurrent readers are never blocked by the ingesting
    writer.  Use as a context manager or call :meth:`close`; every
    mutating call commits before returning, so a store is always
    reopenable at the last completed operation.
    """

    def __init__(
        self,
        path: "str | Path",
        document_cache_size: int = 1024,
        read_only: bool = False,
    ):
        path = Path(path)
        if path.is_dir() or not path.suffix:
            path = path / "corpus.sqlite"
        self.path = path
        self.read_only = read_only
        #: Transient sqlite errors absorbed by retry-with-backoff (feeds
        #: ``EngineStats.store_retries``).
        self.retries = 0
        if read_only:
            if not path.exists():
                raise CorpusError(
                    f"cannot open {path} read-only: the store does not exist"
                )
            self._conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(str(path))
            # WAL: readers (tail sessions, other processes) proceed while
            # the writer ingests; the mode persists in the database file.
            self._execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
        self._init_meta()
        self._postings: dict[str, _Posting] = {}
        self._letters: set[str] = {
            row[0]
            for row in self._execute("SELECT letter FROM postings")
        }
        self._doc_cache: OrderedDict[int, Document] = OrderedDict()
        self._doc_cache_size = document_cache_size
        #: Ingest calls answered by an existing identical document.
        self.dedup_hits = 0
        #: Documents hydrated from this handle (cache hits included — a
        #: hydration is a fetch that *skips* artifact recomputation).
        self.hydrations = 0

    def _execute(self, sql: str, params=()) -> sqlite3.Cursor:
        """``conn.execute`` with the store's robustness policy: transient
        lock/busy errors retry with bounded exponential backoff (counted
        in :attr:`retries`, raising :class:`StoreBusy` when exhausted),
        corruption raises :class:`StoreCorrupt` immediately, and anything
        else (schema errors, programming errors) propagates untouched."""
        attempt = 0
        while True:
            try:
                if faults.ACTIVE is not None:
                    faults.sqlite_error("store")
                return self._conn.execute(sql, params)
            except sqlite3.DatabaseError as exc:
                kind = _classify_sqlite_error(exc)
                if kind == "transient":
                    if attempt < _STORE_RETRIES:
                        self.retries += 1
                        time.sleep(_RETRY_BACKOFF * (2 ** attempt))
                        attempt += 1
                        continue
                    raise StoreBusy(
                        f"store {self.path} stayed locked after "
                        f"{attempt} retries: {exc}"
                    ) from exc
                if kind == "corrupt":
                    raise StoreCorrupt(
                        f"store {self.path} appears corrupt ({exc}); "
                        f"run `corpus rebuild --verify` to inspect and "
                        f"repair it"
                    ) from exc
                raise

    def _transact(self, work):
        """Run ``work()`` inside one committed transaction, retrying the
        *whole* transaction on transient contention.  ``work`` must be
        re-entrant (build its result from scratch on each call): a failed
        attempt rolls the database back and :meth:`refresh` drops any
        in-memory posting/document state the attempt touched before the
        next try.  ``StoreBusy`` raised by an inner statement propagates
        as-is — per-statement and per-transaction retries never stack."""
        attempt = 0
        while True:
            try:
                with self._conn:
                    return work()
            except sqlite3.DatabaseError as exc:
                kind = _classify_sqlite_error(exc)
                if kind == "transient":
                    if attempt < _STORE_RETRIES:
                        self.retries += 1
                        self.refresh()
                        time.sleep(_RETRY_BACKOFF * (2 ** attempt))
                        attempt += 1
                        continue
                    raise StoreBusy(
                        f"store {self.path} stayed locked after "
                        f"{attempt} transaction retries: {exc}"
                    ) from exc
                if kind == "corrupt":
                    raise StoreCorrupt(
                        f"store {self.path} appears corrupt ({exc}); "
                        f"run `corpus rebuild --verify` to inspect and "
                        f"repair it"
                    ) from exc
                raise

    def _init_meta(self) -> None:
        try:
            row = self._execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError as exc:
            # Only reachable read-only (the writable open creates the
            # schema first), and only for schema-level errors — ``no such
            # table: meta`` means the file is not an initialised store.
            # Corruption and persistent contention have already been
            # routed to StoreCorrupt/StoreBusy by ``_execute`` (neither
            # is an OperationalError), so they are never misreported as
            # "not a corpus store".
            raise CorpusError(
                f"store {self.path} is not a corpus store: {exc}"
            ) from None
        if row is None:
            if self.read_only:
                raise CorpusError(
                    f"store {self.path} was never initialised "
                    f"(no schema version row)"
                )
            with self._conn:
                self._execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
        elif int(row[0]) == 1:
            if self.read_only:
                raise CorpusError(
                    f"store {self.path} has schema version 1, this build "
                    f"reads {SCHEMA_VERSION}: open it writable once to "
                    f"migrate it in place"
                )
            self._migrate_from_v1()
        elif int(row[0]) != SCHEMA_VERSION:
            raise CorpusError(
                f"store {self.path} has schema version {row[0]}, "
                f"this build reads {SCHEMA_VERSION}"
            )

    def _migrate_from_v1(self) -> None:
        """Migrate a version-1 store in place, in one transaction: add the
        ``runs`` column, filled from the stored run-length encodings (one
        letter per run), and blank the encoding of every document that
        does not take the run walk (:func:`~repro.va.kernel.takes_run_walk`).
        The write lock is taken first, so a writer that lost the race to
        migrate finds version 2 and does nothing."""
        self._conn.create_function(
            "takes_run_walk", 2, takes_run_walk, deterministic=True
        )
        with self._conn:
            self._execute("BEGIN IMMEDIATE")
            (version,) = self._execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if int(version) != 1:
                return
            self._execute(
                "ALTER TABLE documents "
                "ADD COLUMN runs INTEGER NOT NULL DEFAULT 0"
            )
            self._execute("UPDATE documents SET runs = length(runs_letters)")
            self._execute(
                "UPDATE documents SET runs_letters = '', runs_lengths = X'' "
                "WHERE NOT takes_run_walk(length, runs)"
            )
            self._execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()
        self._postings.clear()
        self._doc_cache.clear()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"CorpusStore({str(self.path)!r}, {len(self)} docs)"

    def refresh(self) -> None:
        """Drop this handle's caches and reload the index state from the
        database — how a (typically read-only) handle picks up commits
        made by a writer in another process.  sqlite snapshot isolation
        means a handle only advances between transactions; refreshing
        also forgets hydrated documents and in-memory postings that may
        predate the writer's changes."""
        self._postings.clear()
        self._doc_cache.clear()
        self._letters = {
            row[0]
            for row in self._execute("SELECT letter FROM postings")
        }

    def _check_writable(self) -> None:
        if self.read_only:
            raise CorpusError(
                f"store {self.path} is open read-only; "
                f"open without read_only=True to modify it"
            )

    # -- ingest / maintenance ----------------------------------------------

    def add(self, text: "str | Document") -> int:
        """Ingest one document, returning its id.

        Content-hash dedup: ingesting text identical to a stored document
        returns the existing id (counted in :attr:`dedup_hits`) — the
        store never holds two copies of the same text.
        """
        return self.add_many([text])[0]

    def add_many(self, texts: Iterable["str | Document"]) -> list[int]:
        """Ingest a batch in one transaction; returns the ids in order."""
        self._check_writable()
        items = [
            text.text if isinstance(text, Document) else text
            for text in texts
        ]

        def work() -> list[int]:
            ids: list[int] = []
            touched: set[str] = set()
            for text in items:
                ids.append(self._add_one(text, touched))
            self._flush_postings(touched)
            return ids

        return self._transact(work)

    def _add_one(self, text: str, touched: set[str]) -> int:
        digest = content_hash(text)
        row = self._execute(
            "SELECT doc_id FROM documents WHERE hash = ?", (digest,)
        ).fetchone()
        if row is not None:
            self.dedup_hits += 1
            return row[0]
        histogram, runs, letters, lengths, blob = _artifacts(text)
        cursor = self._execute(
            "INSERT INTO documents "
            "(hash, length, text, runs, runs_letters, runs_lengths, histogram) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (digest, len(text), text, runs, letters, lengths, blob),
        )
        doc_id = cursor.lastrowid
        for letter, count in histogram.items():
            self._posting_for_write(letter).add(doc_id, count)
            touched.add(letter)
        return doc_id

    def remove(self, doc_id: int) -> None:
        """Delete a document and scrub it from every posting list."""
        self._check_writable()

        def work() -> None:
            row = self._execute(
                "SELECT histogram FROM documents WHERE doc_id = ?", (doc_id,)
            ).fetchone()
            if row is None:
                raise CorpusError(f"no document with id {doc_id}")
            histogram = json.loads(row[0])
            touched = set()
            self._execute(
                "DELETE FROM documents WHERE doc_id = ?", (doc_id,)
            )
            for letter in histogram:
                self._posting_for_write(letter).discard(doc_id)
                touched.add(letter)
            self._flush_postings(touched)

        self._transact(work)
        self._doc_cache.pop(doc_id, None)

    def update(self, doc_id: int, text: "str | Document") -> None:
        """Replace a document's content in place (same id).

        Raises :class:`CorpusError` if the new content duplicates another
        stored document; updating to the current content is a no-op.
        """
        self._check_writable()
        if isinstance(text, Document):
            text = text.text
        row = self._execute(
            "SELECT hash FROM documents WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        if row is None:
            raise CorpusError(f"no document with id {doc_id}")
        digest = content_hash(text)
        if digest == row[0]:
            return
        histogram, runs, letters, lengths, blob = _artifacts(text)

        def work() -> None:
            fresh = self._execute(
                "SELECT histogram FROM documents WHERE doc_id = ?", (doc_id,)
            ).fetchone()
            if fresh is None:
                raise CorpusError(f"no document with id {doc_id}")
            clash = self._execute(
                "SELECT doc_id FROM documents WHERE hash = ?", (digest,)
            ).fetchone()
            if clash is not None and clash[0] != doc_id:
                raise CorpusError(
                    f"updating document {doc_id} would duplicate document "
                    f"{clash[0]} (identical content)"
                )
            old_histogram = json.loads(fresh[0])
            touched = set()
            self._execute(
                "UPDATE documents SET hash = ?, length = ?, text = ?, "
                "runs = ?, runs_letters = ?, runs_lengths = ?, histogram = ? "
                "WHERE doc_id = ?",
                (digest, len(text), text, runs, letters, lengths, blob, doc_id),
            )
            for letter in old_histogram.keys() - histogram.keys():
                self._posting_for_write(letter).discard(doc_id)
                touched.add(letter)
            for letter, count in histogram.items():
                if old_histogram.get(letter) != count:
                    self._posting_for_write(letter).add(doc_id, count)
                    touched.add(letter)
            self._flush_postings(touched)

        self._transact(work)
        self._doc_cache.pop(doc_id, None)

    def append(self, doc_id: int, text: "str | Document") -> Document:
        """Grow a stored document by ``text`` (same id), incrementally.

        The tailing counterpart of :meth:`update`: the new artifacts come
        from :meth:`Document.append` — the histogram and the run count
        (or, on a run-walk document, the runs) *extend* in O(len(text))
        instead of re-walking the document.  Posting counts become
        open-ended (:data:`OPEN_COUNT`): the document's first append, or
        its first since :meth:`update` wrote exact counts, opens every
        letter of the grown document, and a later append writes a posting
        only for a letter new to the document (an append never removes a
        document from a posting, so there is nothing to scrub).  A steady
        append is then the dedup check, the row update and the commit.  A
        text document's row holds no run-length encoding, so the append
        costs O(len(text)) interpreter steps plus rewriting a row the size
        of the text; only an append that makes the document take the run
        walk builds its runs.  Returns the appended
        :class:`~repro.core.document.Document`, which also replaces the
        cached hydration so a tail session keeps evaluating the same
        warm object.

        Raises :class:`CorpusError` if the grown content would duplicate
        another stored document; an empty ``text`` is a no-op.
        """
        self._check_writable()
        if isinstance(text, Document):
            text = text.text
        doc = self.document(doc_id)
        if not text:
            return doc
        new_doc = doc.append(text)
        digest = content_hash(new_doc.text)
        raised = set(text)
        histogram = dict(new_doc.letter_counts())
        runs, letters, lengths = _run_artifacts(new_doc)
        blob = json.dumps(histogram, sort_keys=True, ensure_ascii=False)

        def work() -> None:
            clash = self._execute(
                "SELECT doc_id FROM documents WHERE hash = ?", (digest,)
            ).fetchone()
            if clash is not None and clash[0] != doc_id:
                raise CorpusError(
                    f"appending to document {doc_id} would duplicate "
                    f"document {clash[0]} (identical content)"
                )
            self._execute(
                "UPDATE documents SET hash = ?, length = ?, text = ?, "
                "runs = ?, runs_letters = ?, runs_lengths = ?, histogram = ? "
                "WHERE doc_id = ?",
                (
                    digest,
                    len(new_doc),
                    new_doc.text,
                    runs,
                    letters,
                    lengths,
                    blob,
                    doc_id,
                ),
            )
            # Every letter the suffix raises must end open.  If one is not,
            # open every letter of the grown document that is not: all of
            # them on a first append, only the letters new to the document
            # once it has been appended to.
            if any(self._count(letter, doc_id) != OPEN_COUNT for letter in raised):
                touched = [
                    letter
                    for letter in histogram
                    if self._count(letter, doc_id) != OPEN_COUNT
                ]
                for letter in touched:
                    self._posting_for_write(letter).add(doc_id, OPEN_COUNT)
                self._flush_postings(touched)

        self._transact(work)
        if self._doc_cache_size > 0:
            self._doc_cache[doc_id] = new_doc
            self._doc_cache.move_to_end(doc_id)
        return new_doc

    def rebuild(self, verify: bool = False) -> dict:
        """Recompute every artifact and posting list from the raw texts.

        The maintenance path of last resort (and the migration path after
        artifact-format changes): artifacts are rederived from ``text``,
        posting lists are rebuilt from scratch, and the whole swap commits
        atomically.  With ``verify=True`` the stored rows are first
        checked against the recomputation (:meth:`verify`) and any
        divergence is reported in the returned summary — the rebuild then
        repairs it.
        """
        self._check_writable()
        issues = self.verify() if verify else []

        def work() -> int:
            postings: dict[str, _Posting] = {}
            documents = 0
            rows = self._execute(
                "SELECT doc_id, text FROM documents ORDER BY doc_id"
            ).fetchall()
            for doc_id, text in rows:
                documents += 1
                digest = content_hash(text)
                histogram, runs, letters, lengths, blob = _artifacts(text)
                self._execute(
                    "UPDATE documents SET hash = ?, length = ?, runs = ?, "
                    "runs_letters = ?, runs_lengths = ?, histogram = ? "
                    "WHERE doc_id = ?",
                    (digest, len(text), runs, letters, lengths, blob, doc_id),
                )
                for letter, count in histogram.items():
                    posting = postings.get(letter)
                    if posting is None:
                        posting = postings[letter] = _Posting(
                            id_array(), id_array(), dirty=True
                        )
                    # doc_ids arrive in ascending order: plain appends.
                    posting.ids.append(doc_id)
                    posting.counts.append(count)
            self._execute("DELETE FROM postings")
            self._postings = postings
            self._letters = set(postings)
            self._flush_postings(set(postings))
            return documents

        documents = self._transact(work)
        self._doc_cache.clear()
        return {
            "documents": documents,
            "letters": len(self._letters),
            "verified": verify,
            "issues": issues,
        }

    def verify(self) -> list[str]:
        """Cross-check stored rows against recomputation (read only).

        Returns a list of human-readable issue descriptions: content-hash
        mismatches, stale artifacts, and posting lists that diverge from
        the document histograms.  A posting list agrees when it holds
        exactly the documents whose recomputed histogram holds its
        letter, each with the exact count or :data:`OPEN_COUNT`.  A
        run-length encoding is stale when it differs from the
        recomputation, which keeps one only where the document takes the
        run walk under the current rule.  An empty list means the store is
        internally consistent.
        """
        issues: list[str] = []
        expected: dict[str, dict[int, int]] = {}
        rows = self._execute(
            "SELECT doc_id, hash, length, text, runs, runs_letters, "
            "runs_lengths, histogram FROM documents ORDER BY doc_id"
        ).fetchall()
        for doc_id, digest, length, text, runs, letters, lengths, blob in rows:
            histogram, fresh_runs, fresh_letters, fresh_lengths, fresh_blob = (
                _artifacts(text)
            )
            if digest != content_hash(text):
                issues.append(f"doc {doc_id}: stored hash does not match text")
            if length != len(text):
                issues.append(f"doc {doc_id}: stored length {length} != {len(text)}")
            if runs != fresh_runs:
                issues.append(f"doc {doc_id}: stored run count {runs} != {fresh_runs}")
            if letters != fresh_letters or bytes(lengths) != fresh_lengths:
                issues.append(f"doc {doc_id}: stale run-length encoding")
            if blob != fresh_blob:
                issues.append(f"doc {doc_id}: stale histogram")
            for letter, count in histogram.items():
                expected.setdefault(letter, {})[doc_id] = count
        stored: dict[str, dict[int, int]] = {}
        for letter, ids_blob, counts_blob in self._execute(
            "SELECT letter, ids, counts FROM postings"
        ):
            ids = unpack_ids(ids_blob)
            counts = unpack_ids(counts_blob)
            stored[letter] = dict(zip(ids, counts))
            if list(ids) != sorted(ids):
                issues.append(f"posting {letter!r}: ids not sorted")
        for letter in expected.keys() | stored.keys():
            want = expected.get(letter, {})
            got = stored.get(letter, {})
            if want.keys() != got.keys() or any(
                got[doc_id] not in (count, OPEN_COUNT)
                for doc_id, count in want.items()
            ):
                issues.append(
                    f"posting {letter!r}: diverges from document histograms"
                )
        return issues

    # -- posting-list plumbing ----------------------------------------------

    def _posting_for_write(self, letter: str) -> _Posting:
        posting = self._load_posting(letter)
        if posting is None:
            posting = self._postings[letter] = _Posting(
                id_array(), id_array(), dirty=True
            )
            self._letters.add(letter)
        return posting

    def _load_posting(self, letter: str) -> "_Posting | None":
        posting = self._postings.get(letter)
        if posting is None and letter in self._letters:
            row = self._execute(
                "SELECT ids, counts FROM postings WHERE letter = ?", (letter,)
            ).fetchone()
            if row is not None:
                posting = self._postings[letter] = _Posting(
                    unpack_ids(row[0]), unpack_ids(row[1])
                )
        return posting

    def _count(self, letter: str, doc_id: int) -> "int | None":
        """``doc_id``'s count in ``letter``'s posting, ``None`` if absent."""
        posting = self._load_posting(letter)
        return None if posting is None else posting.count(doc_id)

    def _flush_postings(self, letters: Iterable[str]) -> None:
        """Persist dirty postings (caller holds the transaction)."""
        for letter in letters:
            posting = self._postings.get(letter)
            if posting is None or not posting.dirty:
                continue
            if not posting.ids:
                self._execute(
                    "DELETE FROM postings WHERE letter = ?", (letter,)
                )
                del self._postings[letter]
                self._letters.discard(letter)
                continue
            self._execute(
                "INSERT INTO postings (letter, n, ids, counts) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(letter) DO UPDATE SET n = excluded.n, "
                "ids = excluded.ids, counts = excluded.counts",
                (
                    letter,
                    len(posting.ids),
                    pack_ids(posting.ids),
                    pack_ids(posting.counts),
                ),
            )
            posting.dirty = False

    # -- index views used by the planner ------------------------------------

    def letters(self) -> frozenset[str]:
        """Every letter occurring in at least one stored document."""
        return frozenset(self._letters)

    def posting(self, letter: str) -> "tuple | None":
        """``(ids, counts)`` sorted parallel arrays, or ``None`` when no
        stored document contains ``letter``.  A count is exact, or
        :data:`OPEN_COUNT` where an append left it: never below the
        document's true count."""
        posting = self._load_posting(letter)
        if posting is None:
            return None
        return posting.ids, posting.counts

    def all_ids(self):
        """Every document id, sorted ascending."""
        return id_array(
            row[0]
            for row in self._execute(
                "SELECT doc_id FROM documents ORDER BY doc_id"
            )
        )

    def ids_in_length_window(self, minimum: int, maximum: "int | None"):
        """Document ids with length in ``[minimum, maximum]`` (sorted) —
        a range scan of the indexed ``length`` column."""
        if maximum is None:
            rows = self._execute(
                "SELECT doc_id FROM documents WHERE length >= ? "
                "ORDER BY doc_id",
                (minimum,),
            )
        else:
            rows = self._execute(
                "SELECT doc_id FROM documents WHERE length BETWEEN ? AND ? "
                "ORDER BY doc_id",
                (minimum, maximum),
            )
        return id_array(row[0] for row in rows)

    # -- query side ----------------------------------------------------------

    def candidates(self, prefilter, within: "Iterable[int] | None" = None) -> IndexPlan:
        """The index plan for ``prefilter``: posting-list intersections,
        range scans, and the sorted candidate ids they produce — a
        superset of every document with a nonempty result."""
        return plan_candidates(self, prefilter, within)

    def survivors(
        self, prefilter, within: "Iterable[int] | None" = None
    ) -> tuple[IndexPlan, list[int]]:
        """Index candidates narrowed by the residual profile check.

        Runs :meth:`candidates`, then
        :meth:`~repro.va.prefilter.VAPrefilter.admits_profile` over the
        stored ``(length, histogram)`` rows — no document text is touched
        — returning exactly the ids the list-walk prefilter would keep.
        """
        plan = self.candidates(prefilter, within)
        kept = [
            doc_id
            for doc_id, length, histogram in self._profiles(plan.doc_ids)
            if prefilter.admits_profile(length, histogram)
        ]
        return plan, kept

    def _profiles(self, doc_ids) -> Iterator[tuple[int, int, dict]]:
        """``(doc_id, length, histogram)`` for each id, in input order."""
        for chunk_start in range(0, len(doc_ids), _IN_CHUNK):
            chunk = list(doc_ids[chunk_start : chunk_start + _IN_CHUNK])
            marks = ",".join("?" * len(chunk))
            rows = {
                row[0]: row
                for row in self._execute(
                    f"SELECT doc_id, length, histogram FROM documents "
                    f"WHERE doc_id IN ({marks})",
                    chunk,
                )
            }
            for doc_id in chunk:
                row = rows.get(doc_id)
                if row is not None:
                    yield row[0], row[1], json.loads(row[2])

    # -- document access ------------------------------------------------------

    def document(self, doc_id: int) -> Document:
        """The hydrated document: text plus pre-seeded ``letter_counts()``
        and ``run_count()`` caches, and ``runs()`` where the row holds a
        run-length encoding (a document that took the run walk when it was
        written), LRU-cached per open handle so warm re-queries reuse one
        object (and its per-alphabet encodings)."""
        cached = self._doc_cache.get(doc_id)
        if cached is not None:
            self._doc_cache.move_to_end(doc_id)
            self.hydrations += 1
            return cached
        row = self._execute(
            "SELECT text, runs, runs_letters, runs_lengths, histogram "
            "FROM documents WHERE doc_id = ?",
            (doc_id,),
        ).fetchone()
        if row is None:
            raise CorpusError(f"no document with id {doc_id}")
        text, count, letters, lengths, histogram = row
        # A stored encoding holds one letter per run; a text row holds none.
        doc = Document.from_cached(
            text,
            runs=_runs_from_stored(letters, lengths) if len(letters) == count else None,
            letter_counts=json.loads(histogram),
            run_count=count,
        )
        self.hydrations += 1
        if self._doc_cache_size > 0:
            self._doc_cache[doc_id] = doc
            while len(self._doc_cache) > self._doc_cache_size:
                self._doc_cache.popitem(last=False)
        return doc

    def text(self, doc_id: int) -> str:
        row = self._execute(
            "SELECT text FROM documents WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        if row is None:
            raise CorpusError(f"no document with id {doc_id}")
        return row[0]

    def contains_text(self, text: "str | Document") -> "int | None":
        """The id of the stored document with this exact content, if any."""
        if isinstance(text, Document):
            text = text.text
        row = self._execute(
            "SELECT doc_id FROM documents WHERE hash = ?",
            (content_hash(text),),
        ).fetchone()
        return row[0] if row is not None else None

    def doc_ids(self) -> list[int]:
        """All document ids, ascending — the store's canonical order."""
        return list(self.all_ids())

    def select(self, doc_ids: Iterable[int]) -> CorpusSelection:
        """A fixed subset/ordering of this store for the batch APIs."""
        return CorpusSelection(self, doc_ids)

    def __len__(self) -> int:
        return self._execute("SELECT COUNT(*) FROM documents").fetchone()[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self.doc_ids())

    def __contains__(self, doc_id: object) -> bool:
        if not isinstance(doc_id, int):
            return False
        row = self._execute(
            "SELECT 1 FROM documents WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        return row is not None

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """A summary for ``corpus stats``: sizes, letters, dedup counters."""
        documents, total_letters, min_len, max_len = self._execute(
            "SELECT COUNT(*), COALESCE(SUM(length), 0), MIN(length), "
            "MAX(length) FROM documents"
        ).fetchone()
        top = self._execute(
            "SELECT letter, n FROM postings ORDER BY n DESC, letter LIMIT 5"
        ).fetchall()
        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "documents": documents,
            "total_letters": total_letters,
            "min_length": min_len,
            "max_length": max_len,
            "distinct_letters": len(self._letters),
            "largest_postings": [
                {"letter": letter, "documents": n} for letter, n in top
            ],
            "dedup_hits": self.dedup_hits,
            "hydrations": self.hydrations,
            "store_bytes": self.path.stat().st_size if self.path.exists() else 0,
        }
