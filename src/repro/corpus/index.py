"""Index-side query planning: posting lists → candidate document ids.

A :class:`~repro.corpus.store.CorpusStore` keeps, per letter, a *posting
list* — the sorted array of ids of every document containing that letter,
with a parallel array of per-document occurrence counts.  A count is
never below the document's true count: it is exact, or the open-ended
:data:`~repro.corpus.store.OPEN_COUNT` (the count array's maximum) that a
stored document's append leaves.  This module compiles the necessary
document conditions a :class:`~repro.va.prefilter.VAPrefilter` derives
from a compiled automaton (alphabet closure, length window, must-occur
letter bounds) into sorted-set operations over those arrays:

* **must-occur bounds** — each required letter contributes its posting
  list, filtered down to documents with at least the required count (an
  open count passes every bound); the lists intersect smallest-first, so
  the candidate set never grows beyond the rarest required letter's
  posting list (sublinear in the corpus when any required letter is
  rare);
* **length window** — with no required letter to seed from, a range scan
  of the store's indexed ``length`` column seeds the candidates instead;
* **alphabet closure** — a full-scan seed subtracts the posting list of
  every stored letter outside the query alphabet (documents containing a
  foreign letter provably cannot match).  Posting- and length-seeded plans
  skip the subtraction: the store's residual
  :meth:`~repro.va.prefilter.VAPrefilter.admits_profile` scan over the
  (already small) candidate set finishes the job more cheaply.

Every operation only ever *removes* documents that fail a necessary
condition, and an over-stated count only keeps more, so the resulting
candidate set is a **superset** of the documents with a nonempty result —
the index never drops a match (pinned by a hypothesis property in
``tests/corpus/test_store.py``).  Candidates may still be empty-resulted;
the residual profile check plus the ordinary evaluation of survivors make
the final answers byte-identical to the list-walk path.

Id arrays are plain :class:`array.array` unsigned 32-bit arrays (the
persisted posting-blob format), with transparent numpy fast paths for the
set operations when numpy is installed — the store works unchanged, just
slower, without the ``[fast]`` extra.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..va.prefilter import VAPrefilter
    from .store import CorpusStore

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as NUMPY
except ImportError:  # pragma: no cover
    NUMPY = None

#: The array typecode of id/count arrays — unsigned, 4 bytes on every
#: CPython platform in practice (guarded below for exotic ABIs).
ID_TYPECODE = "I" if array("I").itemsize == 4 else "L"
assert array(ID_TYPECODE).itemsize == 4, "no 4-byte unsigned array type"

_LITTLE_ENDIAN = array("H", b"\x01\x00")[0] == 1


def id_array(values: Iterable[int] = ()) -> array:
    """A new id array (sorted ids are the caller's contract)."""
    return array(ID_TYPECODE, values)


def pack_ids(ids: array) -> bytes:
    """``ids`` as little-endian uint32 bytes (the posting blob format)."""
    if _LITTLE_ENDIAN:
        return ids.tobytes()
    swapped = array(ID_TYPECODE, ids)
    swapped.byteswap()
    return swapped.tobytes()


def unpack_ids(blob: bytes) -> array:
    """The inverse of :func:`pack_ids`."""
    ids = array(ID_TYPECODE)
    ids.frombytes(blob)
    if not _LITTLE_ENDIAN:
        ids.byteswap()
    return ids


def _from_numpy(values) -> array:
    """A numpy uint32 vector as an id array (native order on both sides)."""
    out = id_array()
    out.frombytes(values.astype(NUMPY.uint32, copy=False).tobytes())
    return out


def intersect_sorted(a: array, b: array) -> array:
    """The intersection of two sorted id arrays (sorted)."""
    if not a or not b:
        return id_array()
    if NUMPY is not None:
        left = NUMPY.frombuffer(a, dtype=NUMPY.uint32)
        right = NUMPY.frombuffer(b, dtype=NUMPY.uint32)
        return _from_numpy(NUMPY.intersect1d(left, right, assume_unique=True))
    if len(a) > len(b):
        a, b = b, a
    out = id_array()
    append = out.append
    position = 0
    n = len(b)
    for value in a:
        position = bisect_left(b, value, position)
        if position == n:
            break
        if b[position] == value:
            append(value)
    return out


def subtract_sorted(a: array, b: array) -> array:
    """``a`` minus ``b`` for sorted id arrays (sorted)."""
    if not a or not b:
        return a
    if NUMPY is not None:
        left = NUMPY.frombuffer(a, dtype=NUMPY.uint32)
        right = NUMPY.frombuffer(b, dtype=NUMPY.uint32)
        return _from_numpy(left[~NUMPY.isin(left, right, assume_unique=True)])
    out = id_array()
    append = out.append
    position = 0
    n = len(b)
    for value in a:
        position = bisect_left(b, value, position)
        if position == n or b[position] != value:
            append(value)
    return out


def filter_min_count(ids: array, counts: array, bound: int) -> array:
    """The ids whose parallel count is at least ``bound`` (sorted)."""
    if bound <= 1:
        return ids
    if NUMPY is not None:
        id_view = NUMPY.frombuffer(ids, dtype=NUMPY.uint32)
        count_view = NUMPY.frombuffer(counts, dtype=NUMPY.uint32)
        return _from_numpy(id_view[count_view >= bound])
    return id_array(
        doc_id for doc_id, count in zip(ids, counts) if count >= bound
    )


class IndexOp:
    """One executed index operation, for plans/explain output."""

    __slots__ = ("kind", "detail", "out_size")

    def __init__(self, kind: str, detail: str, out_size: int):
        self.kind = kind
        self.detail = detail
        self.out_size = out_size

    def __repr__(self) -> str:
        return f"IndexOp({self.kind}: {self.detail} → {self.out_size})"


class IndexPlan:
    """The executed index plan: the operations and the candidate ids.

    Attributes:
        doc_ids: the sorted candidate document ids — a superset of every
            document with a nonempty result.
        ops: the :class:`IndexOp` sequence that produced them.
        total: documents in scope before any index operation.
    """

    __slots__ = ("doc_ids", "ops", "total")

    def __init__(self, doc_ids: array, ops: list[IndexOp], total: int):
        self.doc_ids = doc_ids
        self.ops = ops
        self.total = total

    def describe(self) -> str:
        """One line per index operation, for ``corpus query --explain``."""
        lines = [f"index plan over {self.total} document(s):"]
        for op in self.ops:
            lines.append(f"  {op.kind:<13} {op.detail:<28} → {op.out_size}")
        lines.append(
            f"  candidates    {len(self.doc_ids)} of {self.total} "
            f"({_percent(len(self.doc_ids), self.total)})"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"IndexPlan({len(self.doc_ids)}/{self.total} candidates)"


def _percent(part: int, whole: int) -> str:
    if not whole:
        return "0%"
    return f"{100.0 * part / whole:.1f}%"


def plan_candidates(
    store: "CorpusStore",
    prefilter: "VAPrefilter",
    within: "Iterable[int] | None" = None,
) -> IndexPlan:
    """Compile ``prefilter`` into index operations and execute them.

    ``within`` restricts the plan to a subset of document ids (a
    :class:`~repro.corpus.store.CorpusSelection`); the final candidate set
    intersects it.
    """
    total = len(store)
    ops: list[IndexOp] = []

    def empty_plan() -> IndexPlan:
        return IndexPlan(id_array(), ops, total)

    if prefilter.empty:
        ops.append(IndexOp("empty-query", "language is empty", 0))
        return empty_plan()

    # Must-occur letters seed the candidates, rarest posting first.
    postings = []
    for letter, bound in prefilter.required:
        posting = store.posting(letter)
        if posting is None:
            ops.append(IndexOp("posting-miss", f"no document has {letter!r}", 0))
            return empty_plan()
        postings.append((len(posting[0]), letter, bound, posting))
    postings.sort(key=lambda entry: entry[0])

    candidates: "array | None" = None
    for _, letter, bound, (ids, counts) in postings:
        hits = filter_min_count(ids, counts, bound)
        detail = f"{letter!r} ≥ {bound}" if bound > 1 else f"{letter!r}"
        if candidates is None:
            candidates = hits
            ops.append(IndexOp("posting-seed", detail, len(candidates)))
        else:
            candidates = intersect_sorted(candidates, hits)
            ops.append(IndexOp("posting-join", detail, len(candidates)))
        if not candidates:
            return empty_plan()

    if candidates is None and (
        prefilter.min_length > 0 or prefilter.max_length is not None
    ):
        candidates = store.ids_in_length_window(
            prefilter.min_length, prefilter.max_length
        )
        window = (
            f"[{prefilter.min_length}, {prefilter.max_length}]"
            if prefilter.max_length is not None
            else f"≥ {prefilter.min_length}"
        )
        ops.append(IndexOp("length-scan", f"length {window}", len(candidates)))

    if candidates is None:
        # No positive condition to seed from: enforce alphabet closure by
        # subtracting every foreign letter's posting list from a full scan.
        candidates = store.all_ids()
        ops.append(IndexOp("full-scan", "no seeding condition", len(candidates)))
        closure = prefilter.alphabet.ids
        for letter in sorted(store.letters()):
            if letter in closure:
                continue
            posting = store.posting(letter)
            if posting is None:  # pragma: no cover - letters() ⊆ postings
                continue
            candidates = subtract_sorted(candidates, posting[0])
            ops.append(
                IndexOp("subtract", f"documents with foreign {letter!r}",
                        len(candidates))
            )
            if not candidates:
                return empty_plan()

    if within is not None:
        scope = id_array(sorted(set(within)))
        candidates = intersect_sorted(candidates, scope)
        ops.append(
            IndexOp("restrict", f"selection of {len(scope)}", len(candidates))
        )

    return IndexPlan(candidates, ops, total)
