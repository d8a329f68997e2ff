"""The run-compressed transition kernel: power doubling, predecessor
transformers, the walk router, document RLE/histogram caches, and the
shared bit helpers."""

import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document
from repro.utils import apply_masks, iter_bits
from repro.va import TransitionKernel, regex_to_va, trim
from repro.va import kernel as kernel_module
from repro.va.kernel import run_walk_runs, takes_run_walk
from repro.workloads import random_sequential_formula

from ..properties.conftest import sequential_formulas

_SETTINGS = settings(max_examples=60, deadline=None)

#: Documents biased toward long single-letter runs (the kernel's target).
run_documents = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=9)),
    min_size=0,
    max_size=5,
).map(lambda runs: "".join(letter * length for letter, length in runs))


#: Small-alphabet text mixing short and long runs, the empty text included.
mixed_run_texts = st.lists(
    st.tuples(st.sampled_from("ab\n"), st.integers(min_value=1, max_value=12)),
    max_size=8,
).map(lambda runs: "".join(letter * length for letter, length in runs))

#: The default threshold and the two the pinned test legs set.
THRESHOLDS = (kernel_module.RUN_WALK_THRESHOLD, 0, 1 << 20)


@st.composite
def routed_documents(draw):
    """A document of mixed runs as the engine meets one: fresh, hydrated
    with seeded runs, or grown by a chain of appends whose prefixes were
    scanned under some run limit (or not) on the way, so their caches
    carry over."""
    text = draw(mixed_run_texts)
    kind = draw(st.sampled_from(("fresh", "cached", "appended")))
    if kind == "fresh":
        return Document(text)
    if kind == "cached":
        return Document.from_cached(text, runs=Document(text).runs())
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)))
    pieces = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    doc = Document(pieces[0])
    for piece in pieces[1:]:
        if draw(st.booleans()):
            doc.runs_within(draw(st.integers(0, len(doc) + 1)))
        doc = doc.append(piece)
    return doc


def _kernel_for(formula):
    return trim(regex_to_va(formula)).indexed().kernel()


class TestBitHelpers:
    @given(st.integers(min_value=0, max_value=2**70 - 1))
    def test_iter_bits_matches_binary_expansion(self, mask):
        expected = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        assert list(iter_bits(mask)) == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=8, max_size=8),
        st.integers(min_value=0, max_value=255),
    )
    def test_apply_masks_is_the_union_over_set_bits(self, rows, mask):
        expected = 0
        for bit in iter_bits(mask):
            expected |= rows[bit]
        assert apply_masks(rows, mask) == expected


class TestTransitionKernel:
    @given(sequential_formulas(), st.data())
    @_SETTINGS
    def test_advance_equals_per_letter_stepping(self, formula, data):
        indexed = trim(regex_to_va(formula)).indexed()
        kernel = TransitionKernel(indexed)
        if not len(indexed.alphabet):
            return
        lid = data.draw(
            st.integers(min_value=0, max_value=len(indexed.alphabet) - 1)
        )
        length = data.draw(st.integers(min_value=0, max_value=40))
        mask = data.draw(
            st.integers(min_value=0, max_value=(1 << indexed.n_states) - 1)
        )
        expected = mask
        for _ in range(length):
            expected = kernel.step(lid, expected)
        assert kernel.advance(lid, mask, length) == expected

    def test_powers_are_memoized_per_letter_and_exponent(self):
        kernel = _kernel_for(random_sequential_formula(1, random.Random(7)))
        lid = 0
        p3 = kernel.power(lid, 3)
        assert kernel.power(lid, 3) is p3  # same object: memoized
        assert kernel.power(lid, 1) is kernel._powers[lid][1]

    @given(sequential_formulas(), st.data())
    @_SETTINGS
    def test_pred_row_is_the_transpose_of_the_successor_relation(
        self, formula, data
    ):
        indexed = trim(regex_to_va(formula)).indexed()
        kernel = TransitionKernel(indexed)
        if not len(indexed.alphabet):
            return
        lid = data.draw(
            st.integers(min_value=0, max_value=len(indexed.alphabet) - 1)
        )
        pred = kernel.pred_row(lid)
        succ = indexed.successor_masks[lid]
        for source in range(indexed.n_states):
            for target in range(indexed.n_states):
                forward = bool((succ[source] >> target) & 1)
                backward = bool((pred[target] >> source) & 1)
                assert forward == backward

    def test_run_hits_counts_compressed_runs_only(self):
        kernel = _kernel_for(random_sequential_formula(1, random.Random(3)))
        before = kernel.run_hits
        kernel.advance(0, 1, 1)  # single letter: not a compressed run
        assert kernel.run_hits == before
        kernel.advance(0, 1, 12)
        assert kernel.run_hits == before + 1


class TestRunWalkRouting:
    @given(routed_documents(), st.permutations(THRESHOLDS))
    @_SETTINGS
    def test_router_decides_the_rule_on_a_fresh_copy(self, doc, thresholds):
        # The reference counts the runs of a separate copy; the router
        # answers from one cached scan per document, whatever order the
        # thresholds come in.
        reference = Document(doc.text).runs()
        for threshold in thresholds:
            with patch.object(kernel_module, "RUN_WALK_THRESHOLD", threshold):
                runs = run_walk_runs(doc)
                assert (runs is not None) == takes_run_walk(len(doc), len(reference))
            if runs is not None:
                assert runs == reference

    @given(routed_documents(), st.data())
    @_SETTINGS
    def test_runs_within_answers_every_limit(self, doc, data):
        reference = Document(doc.text).runs()
        for limit in data.draw(st.permutations(range(len(doc) + 2))):
            expected = reference if len(reference) <= limit else None
            assert doc.runs_within(limit) == expected


class TestDocumentRunCaches:
    @given(st.text(alphabet="abc", max_size=30))
    def test_runs_reassemble_the_document(self, text):
        doc = Document(text)
        runs = doc.runs()
        assert "".join(letter * length for letter, _, length in runs) == text
        # Starts are consistent and runs are maximal.
        position = 0
        for index, (letter, start, length) in enumerate(runs):
            assert start == position and length >= 1
            if index:
                assert runs[index - 1][0] != letter
            position += length
        assert doc.runs() is runs  # cached

    @given(st.text(alphabet="abc", max_size=30))
    def test_letter_counts_match_the_text(self, text):
        doc = Document(text)
        counts = doc.letter_counts()
        assert counts == {ch: text.count(ch) for ch in set(text)}
        assert doc.letter_counts() is counts  # cached
