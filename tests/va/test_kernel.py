"""The transition kernel: power doubling and predecessor transformers
(the run walk), interned frontier nodes and the graphs built on them (the
letter walk), the walk router, document RLE/histogram caches, and the
shared bit helpers."""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document, SpanRelation
from repro.regex import parse
from repro.utils import apply_masks, iter_bits
from repro.va import (
    IndexedMatchGraph,
    IndexedVA,
    TransitionKernel,
    evaluate_naive,
    indexed_nonempty,
    regex_to_va,
    trim,
)
from repro.va import kernel as kernel_module
from repro.va.kernel import run_walk_runs, takes_run_walk
from repro.workloads import random_sequential_formula

from ..engine.test_quiet_skip import quiet_layers, skip_targets
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


def _small_indexed():
    return trim(regex_to_va(parse("(a|b)*x{a+b}(a|b)*"))).indexed()


def _wide_indexed():
    """An automaton with more than 64 dense states, so every frontier
    spans several machine words."""
    indexed = trim(regex_to_va(parse("(a|b)*x{" + "ab" * 12 + "a+}(a|b)*"))).indexed()
    assert indexed.n_states > 64
    return indexed


def _fold(indexed, text: str, mask: int) -> int:
    """The frontier after ``text`` by per-letter ``step``s (``0`` at a
    letter outside the alphabet)."""
    kernel = TransitionKernel(indexed)
    ids = indexed.alphabet.ids
    for letter in text:
        lid = ids.get(letter, -1)
        mask = 0 if lid < 0 else kernel.step(lid, mask)
    return mask


class TestFrontierNodes:
    """The letter walk's interned frontier nodes against per-letter
    mask stepping."""

    @given(sequential_formulas(), st.data())
    @_SETTINGS
    def test_extend_equals_step(self, formula, data):
        indexed = trim(regex_to_va(formula)).indexed()
        if not len(indexed.alphabet):
            return
        kernel = TransitionKernel(indexed)
        lid = data.draw(st.integers(min_value=0, max_value=len(indexed.alphabet) - 1))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << indexed.n_states) - 1))
        node = kernel.extend(kernel.node(mask), lid)
        assert node[kernel._mask_slot] == kernel.step(lid, mask)

    @given(sequential_formulas(), st.data())
    @_SETTINGS
    def test_pred_extend_equals_pred_row(self, formula, data):
        indexed = trim(regex_to_va(formula)).indexed()
        if not len(indexed.alphabet):
            return
        kernel = TransitionKernel(indexed)
        lid = data.draw(st.integers(min_value=0, max_value=len(indexed.alphabet) - 1))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << indexed.n_states) - 1))
        node = kernel.pred_extend(kernel.pred_node(mask), lid)
        assert node[kernel._mask_slot] == apply_masks(kernel.pred_row(lid), mask)

    @given(sequential_formulas(), st.one_of(run_documents, st.text("abc", max_size=12)))
    @_SETTINGS
    def test_frontier_and_walk_equal_a_step_fold(self, formula, text):
        indexed = trim(regex_to_va(formula)).indexed()
        kernel = TransitionKernel(indexed)
        mask = 1 << indexed.initial_id
        ids = indexed.alphabet.encode(text)
        assert kernel.frontier(ids, mask) == _fold(indexed, text, mask)
        layers = []
        last = kernel.walk(ids, mask, layers)
        assert last == _fold(indexed, text, mask)
        # One layer per letter up to the first unknown one.
        known = ids.index(-1) if -1 in ids else len(ids)
        assert layers == [_fold(indexed, text[: i + 1], mask) for i in range(known)]

    def test_unknown_letters_stop_both_walks(self):
        indexed = _small_indexed()
        kernel = TransitionKernel(indexed)
        mask = 1 << indexed.initial_id
        texts = ("Z" * 40 + "a", "aZab", "abZ")
        for text in texts:
            assert kernel.frontier(indexed.alphabet.encode(text), mask) == 0
        assert kernel.step_misses == 0  # rejected before the walk
        for text in texts:
            layers = []
            assert kernel.walk(indexed.alphabet.encode(text), mask, layers) == 0
            assert layers == [
                _fold(indexed, text[: i + 1], mask) for i in range(text.index("Z"))
            ]

    def test_empty_ids_return_the_start_mask(self):
        kernel = TransitionKernel(_small_indexed())
        assert kernel.frontier((), 0b11) == 0b11
        assert kernel.frontier((0, 1), 0) == 0

    def test_step_misses_stop_growing_on_revisits(self):
        indexed = _small_indexed()
        kernel = TransitionKernel(indexed)
        ids = indexed.alphabet.encode("ab" * 20)
        mask = 1 << indexed.initial_id
        kernel.frontier(ids, mask)
        misses = kernel.step_misses
        assert misses > 0
        kernel.frontier(ids, mask)  # every frontier already interned
        assert kernel.step_misses == misses

    def test_wide_frontiers_equal_a_step_fold(self):
        indexed = _wide_indexed()
        kernel = TransitionKernel(indexed)
        mask = 1 << indexed.initial_id
        for text in ("ab" * 40, "a" * 100 + "b", "b" * 3, ""):
            ids = indexed.alphabet.encode(text)
            assert kernel.frontier(ids, mask) == _fold(indexed, text, mask)
        # Every state with an a-successor precedes some state.
        full = (1 << indexed.n_states) - 1
        pred_all = kernel.pred_extend(kernel.pred_node(full), 0)[kernel._mask_slot]
        expected = 0
        for source, targets in enumerate(indexed.successor_masks[0]):
            if targets:
                expected |= 1 << source
        assert pred_all == expected

    def test_cache_bound_degrades_to_transient_nodes(self):
        class TinyCache(TransitionKernel):
            STEP_CACHE_LIMIT = 2

        indexed = IndexedVA(trim(regex_to_va(parse("(a|b)*x{a+b}(a|b)*"))))
        kernel = indexed._kernel = TinyCache(indexed)
        text = "abab" * 8
        mask = 1 << indexed.initial_id
        assert kernel.frontier(indexed.alphabet.encode(text), mask) == _fold(
            indexed, text, mask
        )
        # Graphs on the tiny kernel: the forward and co-reachability walks
        # and the memoized first() on transient nodes.
        for doc in (text, "ba" * 9 + "b", "bbbb"):
            graph = IndexedMatchGraph(indexed, doc)
            assert SpanRelation(graph.enumerate()) == evaluate_naive(indexed.va, doc)
            expected = next(IndexedMatchGraph(indexed, doc).enumerate(), None)
            assert IndexedMatchGraph(indexed, doc).first() == expected
        assert kernel._cached_steps <= TinyCache.STEP_CACHE_LIMIT
        assert len(kernel._nodes) + len(kernel._pred_nodes) <= 2

    def test_first_memo_stops_filling_at_its_bound(self):
        class TinyMemo(TransitionKernel):
            FIRST_CACHE_LIMIT = 3

        indexed = IndexedVA(trim(regex_to_va(parse("(a|b)*x{ab}(a|b)*"))))
        kernel = indexed._kernel = TinyMemo(indexed)
        for doc in ("ab" * 6, "ba" * 7, "aabb" * 3, "bbab"):
            expected = next(IndexedMatchGraph(indexed, doc).enumerate(), None)
            assert IndexedMatchGraph(indexed, doc).first() == expected
        assert len(kernel.first_memo) == TinyMemo.FIRST_CACHE_LIMIT

    def test_cache_bytes_gauge_stops_growing_at_the_bounds(self):
        class SmallCaches(TransitionKernel):
            STEP_CACHE_LIMIT = 8
            FIRST_CACHE_LIMIT = 4

        indexed = IndexedVA(trim(regex_to_va(parse("(a|b)*x{ab}(a|b)*"))))
        kernel = indexed._kernel = SmallCaches(indexed)
        assert kernel.cache_bytes_estimate() == 0
        gauges = []
        for doc in ("abab", "ba" * 7, "aabb" * 3, "bbab" * 4, "ab" * 9 + "b"):
            IndexedMatchGraph(indexed, doc).first()
            gauges.append(kernel.cache_bytes_estimate())
        assert 0 < gauges[0] and gauges == sorted(gauges)
        # Both caches are full: the gauge is at its ceiling and stays there.
        ceiling = 8 * 8 * (len(indexed.alphabet) + 2) + 96 * 4
        assert gauges[-1] == ceiling
        IndexedMatchGraph(indexed, "baab" * 5).first()
        assert kernel.cache_bytes_estimate() == ceiling


class TestLetterWalkGraph:
    @given(sequential_formulas(), st.text(alphabet="abc", max_size=8))
    @_SETTINGS
    def test_letter_walk_equals_the_run_walk_and_naive(self, formula, text):
        va = trim(regex_to_va(formula))
        indexed = va.indexed()
        doc = Document(text)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", 1 << 20):
            letters = IndexedMatchGraph(indexed, doc)
            first = IndexedMatchGraph(indexed, doc).first()
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", 0):
            runs = IndexedMatchGraph(indexed, doc)
        assert (letters._runs is None) == bool(text)
        assert runs._runs is not None
        mappings = list(letters.enumerate())
        assert letters.is_empty == runs.is_empty
        assert letters.forward == runs.forward
        assert letters.alive == runs.alive
        assert letters.states_alive() == runs.states_alive()
        assert letters.width() == runs.width()
        assert mappings == list(runs.enumerate())
        assert first == runs.first() == (mappings[0] if mappings else None)
        assert SpanRelation(mappings) == evaluate_naive(va, doc)
        # The quiet states per layer and the skip targets they give.
        layers = list(range(len(doc)))
        assert quiet_layers(letters) == quiet_layers(runs)
        assert skip_targets(letters, layers) == skip_targets(runs, layers)

    @given(sequential_formulas(), st.text(alphabet="abc", max_size=8))
    @_SETTINGS
    def test_bounded_caches_change_no_answer(self, formula, text):
        class TinyCaches(TransitionKernel):
            STEP_CACHE_LIMIT = FIRST_CACHE_LIMIT = 2

        va = trim(regex_to_va(formula))
        bounded = IndexedVA(va)
        bounded._kernel = TinyCaches(bounded)
        doc = Document(text)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", 1 << 20):
            reference = IndexedMatchGraph(va.indexed(), doc)
            mappings = list(reference.enumerate())
            # The second pass starts from what the first left cached.
            for _ in range(2):
                assert IndexedMatchGraph(bounded, doc).first() == reference.first()
                graph = IndexedMatchGraph(bounded, doc)
                assert graph.forward == reference.forward
                assert graph.alive == reference.alive
                assert list(graph.enumerate()) == mappings
                assert indexed_nonempty(bounded, doc) == bool(mappings)
        assert bounded._kernel._cached_steps <= 2
        assert len(bounded._kernel.first_memo) <= 2

    @given(
        sequential_formulas(),
        st.text(alphabet="abc", max_size=6),
        st.one_of(run_documents, st.text(alphabet="abc", max_size=6)),
        st.sampled_from(THRESHOLDS),
        st.booleans(),
    )
    @_SETTINGS
    def test_extension_equals_a_fresh_graph(self, formula, prefix, suffix, threshold, built):
        indexed = trim(regex_to_va(formula)).indexed()
        whole = Document(prefix + suffix)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", threshold):
            graph = IndexedMatchGraph(indexed, Document(prefix))
            if built:
                graph.forward  # carried over into the extension
            fresh = IndexedMatchGraph(indexed, whole)
            # The extension keeps the prefix's walk, whatever the whole
            # document's run profile.
            assert graph.extended(whole).first() == fresh.first()
            extended = graph.extended(whole)
        assert (extended._runs is None) == (graph._runs is None)
        assert extended.checkpoint() == fresh.checkpoint()
        assert extended.final_mask == fresh.final_mask
        assert extended.forward == fresh.forward
        assert extended.alive == fresh.alive
        assert list(extended.enumerate()) == list(fresh.enumerate())

    @pytest.mark.parametrize(
        "text", ["", "ab" * 13 + "aa", "ab" * 40, "a" * 120, "ab" * 13 + "ac"]
    )
    def test_wide_automaton_letter_walk_equals_the_run_walk(self, text):
        indexed = _wide_indexed()
        doc = Document(text)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", 1 << 20):
            letters = IndexedMatchGraph(indexed, doc)
            first = IndexedMatchGraph(indexed, doc).first()
            nonempty = indexed_nonempty(indexed, doc)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", 0):
            runs = IndexedMatchGraph(indexed, doc)
            assert indexed_nonempty(indexed, doc) == nonempty
        assert nonempty == (not runs.is_empty) == (not letters.is_empty)
        assert letters.forward == runs.forward
        assert letters.alive == runs.alive
        assert letters.states_alive() == runs.states_alive()
        assert letters.width() == runs.width()
        assert first == runs.first()
        assert list(letters.enumerate()) == list(runs.enumerate())


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
