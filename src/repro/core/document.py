"""Documents: finite strings over a finite alphabet (paper §2.1).

A :class:`Document` is a thin immutable wrapper around ``str`` that adds the
paper's 1-based span addressing (``d[i, j>`` denotes ``σ_i … σ_{j-1}``) plus
a few convenience queries used throughout the library.  Wrapping instead of
subclassing ``str`` keeps slicing semantics explicit: plain integer slicing
on a Document is deliberately not supported — use spans.

:class:`Alphabet` is the interned dense letter → integer-id mapping the
indexed evaluation substrate runs on: the hot forward pass indexes
precomputed per-letter tables by these ids instead of hashing one-character
strings.  :meth:`Document.encoded` caches the document's id array per
alphabet signature, so evaluating many automata sharing an alphabet (or one
automaton many times) encodes each document exactly once.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import SpanError
from .spans import Span, all_spans


class Alphabet:
    """An interned, immutable mapping of letters to dense ids ``0..k-1``.

    Construct via :meth:`Alphabet.of`, which canonicalises the letter set
    (sorted order) and interns the result: equal letter sets share one
    instance process-wide, so id assignments agree and per-document
    encodings are shared across every automaton over the same letters.

    Attributes:
        signature: the sorted tuple of letters — the interning key and the
            key documents cache their encodings under.
        ids: ``ids[letter]`` is the dense id of ``letter``.
    """

    __slots__ = ("signature", "ids")

    _interned: "dict[tuple[str, ...], Alphabet]" = {}

    def __init__(self, signature: tuple[str, ...]):
        self.signature = signature
        self.ids = {letter: index for index, letter in enumerate(signature)}

    @classmethod
    def of(cls, letters: Iterable[str]) -> "Alphabet":
        signature = tuple(sorted(set(letters)))
        found = cls._interned.get(signature)
        if found is None:
            found = cls._interned[signature] = cls(signature)
        return found

    def __len__(self) -> int:
        return len(self.signature)

    def __contains__(self, letter: str) -> bool:
        return letter in self.ids

    def id_of(self, letter: str) -> int:
        """The dense id of ``letter``, or ``-1`` if not in the alphabet."""
        return self.ids.get(letter, -1)

    def encode(self, text: str) -> tuple[int, ...]:
        """``text`` as a tuple of letter ids (``-1`` for unknown letters)."""
        get = self.ids.get
        return tuple(get(ch, -1) for ch in text)

    def __repr__(self) -> str:
        preview = "".join(self.signature[:16])
        if len(self.signature) > 16:
            preview += "…"
        return f"Alphabet({preview!r})"


#: Per-document encoding caches keep at most this many alphabets.
_ENCODING_CACHE_LIMIT = 8

#: One maximal run of a single letter (newlines included).
_RUN = re.compile(r"(.)\1*", re.S)


def _run_triples(matches, offset: int) -> tuple[tuple[str, int, int], ...]:
    """``(letter, start, length)`` triples of ``_RUN`` matches, their
    starts shifted by ``offset``."""
    return tuple([(m[1], m.start() + offset, m.end() - m.start()) for m in matches])


class Document:
    """An input document: an immutable string with span-based access."""

    __slots__ = ("_text", "_encodings", "_runs", "_run_count", "_runs_over", "_letter_counts")

    def __init__(self, text: str):
        self._text = text
        self._encodings: dict[tuple[str, ...], tuple[int, ...]] | None = None
        self._runs: tuple[tuple[str, int, int], ...] | None = None
        # The exact run count, when known without the runs themselves.
        self._run_count: int | None = None
        # The largest limit known to be exceeded by the run count (-1: none).
        self._runs_over = -1
        self._letter_counts: "Mapping[str, int] | None" = None

    @classmethod
    def from_cached(
        cls,
        text: str,
        runs: "tuple[tuple[str, int, int], ...] | None" = None,
        letter_counts: "Mapping[str, int] | None" = None,
        run_count: "int | None" = None,
    ) -> "Document":
        """A document with its derived artifacts pre-seeded.

        The hydration entry point of :class:`~repro.corpus.CorpusStore`:
        the store persists every document's letter histogram and exact
        run count, and the run-length encoding of the documents that take
        the run walk, and hands them straight to the document, so
        :meth:`letter_counts`, :meth:`run_count` and the walk router
        (:meth:`runs_within`) never walk the text again.  Callers are
        trusted to pass artifacts consistent with ``text`` — the store's
        ``verify()`` path cross-checks them.
        """
        doc = cls(text)
        if runs is not None:
            doc._runs = tuple(runs)
        if letter_counts is not None:
            doc._letter_counts = MappingProxyType(dict(letter_counts))
        doc._run_count = run_count
        return doc

    @property
    def text(self) -> str:
        """The raw underlying string."""
        return self._text

    def __len__(self) -> int:
        return len(self._text)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Document):
            return self._text == other._text
        if isinstance(other, str):
            return self._text == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Document", self._text))

    def __reduce__(self):
        # Caches are derived data (and the histogram view is an unpicklable
        # MappingProxyType): pickle the text alone, recompute on demand.
        return (self.__class__, (self._text,))

    def __repr__(self) -> str:
        preview = self._text if len(self._text) <= 40 else self._text[:37] + "..."
        return f"Document({preview!r})"

    def __iter__(self) -> Iterator[str]:
        return iter(self._text)

    def letter(self, position: int) -> str:
        """The letter ``σ_position`` (1-based), as in the paper."""
        if not 1 <= position <= len(self._text):
            raise SpanError(
                f"letter position {position} out of range 1..{len(self._text)}"
            )
        return self._text[position - 1]

    def substring(self, s: Span) -> str:
        """The substring ``d[i, j>`` covered by span ``s``."""
        if s.end > len(self._text) + 1:
            raise SpanError(f"span {s} exceeds document of length {len(self._text)}")
        return self._text[s.begin - 1 : s.end - 1]

    def full_span(self) -> Span:
        """The span ``[1, |d|+1>`` covering the whole document."""
        return Span(1, len(self._text) + 1)

    def spans(self) -> Iterator[Span]:
        """All spans of this document (``spans(d)`` in the paper)."""
        return all_spans(len(self._text))

    def alphabet(self) -> frozenset[str]:
        """The set of letters actually occurring in this document."""
        return frozenset(self._text)

    def runs(self) -> tuple[tuple[str, int, int], ...]:
        """The maximal letter runs of this document, as ``(letter, start,
        length)`` triples with 0-based ``start`` offsets.

        Computed once, by one regex scan in C, and cached — the
        run-length encoding is alphabet independent, so one RLE serves
        every automaton.  The run-compressed transition kernel
        (:mod:`repro.va.kernel`) advances each run in ``O(log length)``
        mask applications instead of ``O(length)`` per-letter steps; only
        the documents that take that walk need the runs at all, and
        :meth:`runs_within` builds them for those alone.  A corpus store
        persists them for those documents only, and hydrates them through
        :meth:`from_cached`.
        """
        return self.runs_within(len(self._text))

    def run_count(self) -> int:
        """The number of maximal runs, exactly, without building them.

        ``len(runs)`` when the runs are cached, else one regex scan in C
        that collects a letter per run and builds no triples; cached
        either way, seeded by :meth:`from_cached` and extended by
        :meth:`append`.  The corpus store persists it for every document,
        so a hydrated document routes with no scan.
        """
        if self._runs is not None:
            return len(self._runs)
        count = self._run_count
        if count is None:
            count = self._run_count = len(_RUN.findall(self._text))
        return count

    def runs_within(self, limit: int) -> "tuple[tuple[str, int, int], ...] | None":
        """:meth:`runs` if this document has at most ``limit`` maximal
        runs, else ``None``.

        A known run count (:meth:`run_count`) answers the ``None`` case
        with no scan.  Otherwise the scan stops at the ``limit + 1``-th
        run, so text (mean run length near 1) costs ``O(limit)`` and
        builds no triples.  Both outcomes are cached: the runs
        themselves, or the largest limit known to be exceeded.  The walk
        router (:func:`repro.va.kernel.run_walk_runs`) decides each
        document's walk through here.
        """
        cached = self._runs
        if cached is not None:
            return cached if len(cached) <= limit else None
        count = self._run_count
        if limit <= self._runs_over or (count is not None and count > limit):
            return None
        matches = list(islice(_RUN.finditer(self._text), limit + 1))
        if len(matches) > limit:
            self._runs_over = limit
            return None
        cached = self._runs = _run_triples(matches, 0)
        return cached

    def letter_counts(self) -> "Mapping[str, int]":
        """The letter histogram of this document (letter → occurrences).

        Computed once and cached.  The VA-derived prefilter
        (:mod:`repro.va.prefilter`) compares it against a query's
        must-occur letter bounds to reject non-matching documents in O(1)
        before any match graph is built.  The returned mapping is a
        read-only :class:`types.MappingProxyType` view of the cache — a
        caller mutating it would silently corrupt every later prefilter
        decision, so mutation raises instead.  (:meth:`runs` needs no such
        guard: it returns a tuple.)
        """
        cached = self._letter_counts
        if cached is None:
            cached = self._letter_counts = MappingProxyType(
                dict(Counter(self._text))
            )
        return cached

    def append(self, suffix: "str | Document") -> "Document":
        """A new document holding ``self.text + suffix``, with every cached
        artifact *extended* instead of recomputed.

        The incremental entry point of the tailing runtime: the letter
        histogram, every cached per-alphabet encoding and, if this
        document has them cached, the runs or else the run count of the
        result are derived from this document's caches in O(len(suffix))
        interpreter steps — the suffix's first run merges into the last
        one when the letters agree — so repeatedly tailing a growing
        document never re-walks the prefix in Python.  A document that
        knows neither passes neither on, so a tail session on text never
        counts its runs.  The text, a cached run tuple and every cached
        encoding are still copied, in C, so each append also costs
        O(document) copying; a store-hydrated text document caches only
        its histogram and run count, so it copies the text alone.
        ``self`` is untouched (documents stay immutable); an empty suffix
        returns a document sharing the caches outright.
        """
        if isinstance(suffix, Document):
            suffix = suffix._text
        doc = Document.__new__(Document)
        doc._runs_over = -1
        if not suffix:
            doc._text = self._text
            doc._encodings = dict(self._encodings) if self._encodings else None
            doc._runs = self._runs
            doc._run_count = self._run_count
            doc._letter_counts = self.letter_counts()
            return doc
        doc._text = self._text + suffix
        runs = self._runs
        count = self._run_count
        if runs is not None:
            tail = _run_triples(_RUN.finditer(suffix), len(self._text))
            if runs and runs[-1][0] == tail[0][0]:
                letter, start, length = runs[-1]
                merged = (letter, start, length + tail[0][2])
                runs = runs[:-1] + (merged,) + tail[1:]
            else:
                runs = runs + tail
            count = None
        elif count is not None:
            # The suffix's first run merges into ours when the letters agree.
            count += len(_RUN.findall(suffix)) - (self._text[-1:] == suffix[0])
        doc._runs = runs
        doc._run_count = count
        # Histogram: add the suffix's counts on top of ours.
        counts = dict(self.letter_counts())
        for letter, count in Counter(suffix).items():
            counts[letter] = counts.get(letter, 0) + count
        doc._letter_counts = MappingProxyType(counts)
        # Encodings: extend every cached per-alphabet id tuple by the
        # suffix's ids (the prefix ids are position independent).
        if self._encodings:
            doc._encodings = {
                signature: ids + Alphabet.of(signature).encode(suffix)
                for signature, ids in self._encodings.items()
            }
        else:
            doc._encodings = None
        return doc

    def encoded(self, alphabet: Alphabet) -> tuple[int, ...]:
        """This document as dense letter ids under ``alphabet``.

        Letters outside the alphabet encode as ``-1``.  The result is
        cached per alphabet signature (bounded to ``_ENCODING_CACHE_LIMIT``
        alphabets, oldest evicted first), so the indexed forward pass over
        a corpus pays the string walk once per (document, alphabet) pair.
        """
        cache = self._encodings
        if cache is None:
            cache = self._encodings = {}
        key = alphabet.signature
        ids = cache.get(key)
        if ids is None:
            ids = cache[key] = alphabet.encode(self._text)
            if len(cache) > _ENCODING_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
        return ids

    def encoded_from(self, alphabet: Alphabet, start: int) -> tuple[int, ...]:
        """The letter ids of ``text[start:]`` under ``alphabet``: a slice
        of the cached encoding when this document holds one (as
        :meth:`append` leaves it), else an encoding of that suffix alone,
        cached nowhere."""
        cache = self._encodings
        ids = cache.get(alphabet.signature) if cache else None
        if ids is not None:
            return ids[start:]
        return alphabet.encode(self._text[start:])


def as_document(value: "Document | str") -> Document:
    """Coerce a ``str`` or :class:`Document` into a :class:`Document`.

    Public API entry points accept either, so user code can pass plain
    strings everywhere.
    """
    if isinstance(value, Document):
        return value
    if isinstance(value, str):
        return Document(value)
    raise TypeError(f"expected str or Document, got {type(value).__name__}")
