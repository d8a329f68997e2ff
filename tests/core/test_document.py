"""Documents: 1-based, span-addressed strings (§2.1)."""

from unittest.mock import patch

import pytest

import repro.core.document as document_module
from repro.core import Alphabet, Document, Span, SpanError, as_document
from repro.core.document import _ENCODING_CACHE_LIMIT

#: Prefix/suffix pairs whose join merges runs, or not, the empty text
#: on either side included.
APPEND_PAIRS = [
    ("", "abc"),
    ("abc", ""),
    ("aab", "bba"),
    ("ab", "cd"),
    ("aaa", "aaa"),
    ("a", "a"),
]


class TestBasics:
    def test_length(self):
        assert len(Document("hello")) == 5
        assert len(Document("")) == 0

    def test_letter_is_one_based(self):
        doc = Document("abc")
        assert doc.letter(1) == "a"
        assert doc.letter(3) == "c"

    def test_letter_out_of_range(self):
        doc = Document("abc")
        with pytest.raises(SpanError):
            doc.letter(0)
        with pytest.raises(SpanError):
            doc.letter(4)

    def test_substring_matches_paper_convention(self):
        # d[i, j> denotes σ_i … σ_{j-1}.
        doc = Document("abcde")
        assert doc.substring(Span(2, 4)) == "bc"
        assert doc.substring(Span(1, 6)) == "abcde"
        assert doc.substring(Span(3, 3)) == ""

    def test_substring_out_of_range(self):
        with pytest.raises(SpanError):
            Document("ab").substring(Span(1, 4))

    def test_full_span(self):
        assert Document("abc").full_span() == Span(1, 4)
        assert Document("").full_span() == Span(1, 1)

    def test_alphabet(self):
        assert Document("abcabc").alphabet() == frozenset("abc")


class TestEquality:
    def test_equal_to_same_document(self):
        assert Document("ab") == Document("ab")
        assert Document("ab") != Document("ba")

    def test_equal_to_raw_string(self):
        assert Document("ab") == "ab"

    def test_hashable(self):
        assert len({Document("ab"), Document("ab")}) == 1

    def test_iteration(self):
        assert list(Document("abc")) == ["a", "b", "c"]


class TestCoercion:
    def test_as_document_passthrough(self):
        doc = Document("x")
        assert as_document(doc) is doc

    def test_as_document_from_string(self):
        assert as_document("xy") == Document("xy")

    def test_as_document_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_document(42)

    def test_spans_enumeration(self):
        doc = Document("ab")
        assert len(list(doc.spans())) == 6


class TestAlphabetInterning:
    def test_equal_letter_sets_share_one_instance(self):
        assert Alphabet.of("bca") is Alphabet.of(["a", "b", "c"])
        assert Alphabet.of("ab") is not Alphabet.of("abc")

    def test_ids_are_dense_and_sorted(self):
        alphabet = Alphabet.of("cab")
        assert alphabet.signature == ("a", "b", "c")
        assert [alphabet.id_of(ch) for ch in "abc"] == [0, 1, 2]
        assert alphabet.id_of("z") == -1
        assert "a" in alphabet and "z" not in alphabet
        assert len(alphabet) == 3

    def test_encode_marks_unknown_letters(self):
        assert Alphabet.of("ab").encode("abz") == (0, 1, -1)


class TestDocumentEncodingCache:
    def test_encoding_is_cached_per_alphabet(self):
        doc = Document("abab")
        alphabet = Alphabet.of("ab")
        first = doc.encoded(alphabet)
        assert first == (0, 1, 0, 1)
        assert doc.encoded(alphabet) is first  # served from the cache

    def test_distinct_alphabets_get_distinct_encodings(self):
        doc = Document("abc")
        small = Alphabet.of("ab")
        large = Alphabet.of("abc")
        assert doc.encoded(small) == (0, 1, -1)
        assert doc.encoded(large) == (0, 1, 2)
        # The first alphabet's entry is still intact (no cross-invalidation).
        assert doc.encoded(small) == (0, 1, -1)

    def test_cache_is_bounded(self):
        doc = Document("a")
        alphabets = [
            Alphabet.of("a" + chr(ord("b") + i)) for i in range(_ENCODING_CACHE_LIMIT + 3)
        ]
        encodings = [doc.encoded(alphabet) for alphabet in alphabets]
        assert len(doc._encodings) <= _ENCODING_CACHE_LIMIT + 1
        # Evicted entries are recomputed correctly on demand.
        assert doc.encoded(alphabets[0]) == encodings[0]

    def test_fresh_document_recomputes(self):
        alphabet = Alphabet.of("ab")
        a, b = Document("ab"), Document("ab")
        assert a.encoded(alphabet) == b.encoded(alphabet)
        assert a.encoded(alphabet) is not b.encoded(alphabet)

    def test_encoded_from_slices_a_held_encoding(self):
        alphabet = Alphabet.of("ab")
        held = Document("ab")
        held.encoded(alphabet)
        grown = held.append("bza")
        with patch.object(Alphabet, "encode", side_effect=AssertionError):
            assert grown.encoded_from(alphabet, 2) == (1, -1, 0)

    def test_encoded_from_encodes_the_suffix_alone_otherwise(self):
        alphabet = Alphabet.of("ab")
        doc = Document("abbza")
        assert doc.encoded_from(alphabet, 2) == (1, -1, 0)
        assert doc.encoded_from(alphabet, 5) == ()
        assert doc._encodings is None  # cached nowhere


class TestCachedArtifacts:
    def test_letter_counts_is_read_only(self):
        counts = Document("abca").letter_counts()
        assert dict(counts) == {"a": 2, "b": 1, "c": 1}
        with pytest.raises(TypeError):
            counts["a"] = 99
        with pytest.raises(TypeError):
            del counts["a"]

    def test_letter_counts_view_is_cached(self):
        doc = Document("abca")
        assert doc.letter_counts() is doc.letter_counts()

    def test_runs_are_immutable(self):
        runs = Document("aabcc").runs()
        assert runs == (("a", 0, 2), ("b", 2, 1), ("c", 3, 2))
        assert isinstance(runs, tuple)

    def test_from_cached_seeds_the_artifact_caches(self):
        reference = Document("aabcc")
        doc = Document.from_cached(
            "aabcc",
            runs=reference.runs(),
            letter_counts=dict(reference.letter_counts()),
        )
        assert doc.runs() == reference.runs()
        assert dict(doc.letter_counts()) == dict(reference.letter_counts())
        with pytest.raises(TypeError):
            doc.letter_counts()["a"] = 0

    def test_from_cached_without_artifacts_computes_lazily(self):
        doc = Document.from_cached("ab")
        assert doc.runs() == (("a", 0, 1), ("b", 1, 1))
        assert dict(doc.letter_counts()) == {"a": 1, "b": 1}

    def test_append_extends_text_and_merges_runs(self):
        doc = Document("aab")
        grown = doc.append("bba")
        assert grown.text == "aabbba"
        assert grown.runs() == (("a", 0, 2), ("b", 2, 3), ("a", 5, 1))
        # The original stays immutable.
        assert doc.text == "aab"
        assert doc.runs() == (("a", 0, 2), ("b", 2, 1))

    def test_append_artifacts_match_fresh_document(self):
        for prefix, suffix in APPEND_PAIRS:
            grown = Document(prefix).append(suffix)
            fresh = Document(prefix + suffix)
            assert grown.text == fresh.text
            assert grown.runs() == fresh.runs()
            assert dict(grown.letter_counts()) == dict(fresh.letter_counts())

    def test_append_extends_cached_encodings(self):
        alphabet = Alphabet.of("abc")
        doc = Document("aab")
        ids = doc.encoded(alphabet)
        grown = doc.append("bca")
        assert grown.encoded(alphabet) == ids + alphabet.encode("bca")
        assert grown.encoded(alphabet) == Document("aabbca").encoded(alphabet)

    def test_append_accepts_documents(self):
        grown = Document("ab").append(Document("ba"))
        assert grown.text == "abba"

    def test_empty_append_shares_cached_artifacts(self):
        doc = Document("aabcc")
        runs = doc.runs()
        grown = doc.append("")
        assert grown.runs() is runs

    def test_chained_appends(self):
        doc = Document("")
        for chunk in ("a", "ab", "", "bba", "c"):
            doc = doc.append(chunk)
        fresh = Document("aabbbac")
        assert doc.text == fresh.text
        assert doc.runs() == fresh.runs()
        assert dict(doc.letter_counts()) == dict(fresh.letter_counts())

    def test_run_count_counts_the_runs_with_or_without_them(self):
        for text in ("", "a", "aabcc", "abab", "a\n\nb"):
            runs = Document(text).runs()
            assert Document(text).run_count() == len(runs)
            doc = Document.from_cached(text, runs=runs)
            with patch.object(document_module, "_RUN", None):
                assert doc.run_count() == len(runs)

    def test_from_cached_run_count_answers_the_router_without_a_scan(self):
        doc = Document.from_cached("abab", run_count=4)
        with patch.object(document_module, "_RUN", None):
            assert doc.run_count() == 4
            assert doc.runs_within(3) is None
        assert doc.runs_within(4) == Document("abab").runs()

    def test_append_extends_a_known_run_count_without_building_runs(self):
        for prefix, suffix in APPEND_PAIRS:
            doc = Document.from_cached(prefix, run_count=Document(prefix).run_count())
            with patch.object(document_module, "_run_triples", None):
                grown = doc.append(suffix)
            assert grown.run_count() == len(Document(prefix + suffix).runs())

    def test_append_counts_nothing_the_prefix_does_not_know(self):
        with patch.object(document_module, "_RUN", None):
            grown = Document("abc").append("cd").append("ee")
        assert grown.run_count() == 5  # a, b, cc, d, ee

    def test_documents_pickle_by_text(self):
        import pickle

        doc = Document("abca")
        doc.letter_counts()  # seed the (unpicklable) proxy cache
        doc.runs()
        restored = pickle.loads(pickle.dumps(doc))
        assert restored == doc
        assert dict(restored.letter_counts()) == {"a": 2, "b": 1, "c": 1}
