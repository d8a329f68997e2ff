"""The numpy state-plane substrate: plane packing round-trips, the
frontier-node kernel against the scalar :class:`TransitionKernel`, the
cache bound, and the node-walk document sweep."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document
from repro.utils.bits import apply_masks
from repro.va import TransitionKernel, regex_to_va, trim
from repro.va.vectorized import numpy_available

from ..engine.test_quiet_skip import quiet_layers, skip_targets
from ..properties.conftest import sequential_formulas

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized substrate needs numpy"
)

_SETTINGS = settings(max_examples=60, deadline=None)

#: Masks wide enough to need three uint64 planes.
wide_masks = st.integers(min_value=0, max_value=2**170 - 1)

#: Documents biased toward long single-letter runs.
run_documents = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=9)),
    min_size=0,
    max_size=5,
).map(lambda runs: "".join(letter * length for letter, length in runs))


def _vectorized_for(formula):
    return trim(regex_to_va(formula)).vectorized()


def _small_va():
    from repro.regex import parse

    return trim(regex_to_va(parse("(a|b)*x{a+b}(a|b)*")))


def _small_vva():
    return _small_va().vectorized()


class TestPlanePacking:
    """Plane packing as the plane tables (``pred_table``) pack and the
    cache-miss gather (``_gather``) unpacks: ``_planes_from_masks`` rows
    read back through ``planes_to_mask``."""

    @given(wide_masks)
    def test_mask_round_trips_through_planes(self, mask):
        from repro.va.vectorized import _planes_from_masks, planes_to_mask

        (planes,) = _planes_from_masks([mask], 3)
        assert planes.shape == (3,)
        assert planes_to_mask(planes) == mask

    @given(st.lists(wide_masks, min_size=1, max_size=8))
    def test_mask_lists_round_trip_through_plane_arrays(self, masks):
        from repro.va.vectorized import _planes_from_masks, planes_to_mask

        planes = _planes_from_masks(masks, 3)
        assert planes.shape == (len(masks), 3)
        assert [planes_to_mask(row) for row in planes] == masks

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1))
    def test_single_plane_fast_path_round_trips(self, masks):
        from repro.va.vectorized import _planes_from_masks, planes_to_mask

        planes = _planes_from_masks(masks, 1)
        assert [planes_to_mask(row) for row in planes] == masks

    def test_plane_word_layout_is_little_endian(self):
        from repro.va.vectorized import _planes_from_masks

        # State 64 lives in bit 0 of word 1.
        planes = _planes_from_masks([1 << 64], 2)
        assert planes.tolist() == [[0, 1]]


def _extended_mask(kernel, mask: int, lid: int) -> int:
    """One forward step of ``mask`` computed by a plane gather."""
    return kernel.extend(kernel.node(mask), lid)[kernel._mask_slot]


def _pred_extended_mask(kernel, mask: int, lid: int) -> int:
    """One backward step of ``mask`` computed by a plane gather."""
    return kernel.pred_extend(kernel.pred_node(mask), lid)[kernel._mask_slot]


class TestVectorizedKernel:
    @given(sequential_formulas(), st.data())
    @_SETTINGS
    def test_extend_matches_the_scalar_kernel(self, formula, data):
        vva = _vectorized_for(formula)
        indexed = vva.indexed
        if not len(indexed.alphabet):
            return
        scalar = TransitionKernel(indexed)
        kernel = vva.kernel()
        lid = data.draw(
            st.integers(min_value=0, max_value=len(indexed.alphabet) - 1)
        )
        mask = data.draw(
            st.integers(min_value=0, max_value=(1 << indexed.n_states) - 1)
        )
        assert _extended_mask(kernel, mask, lid) == scalar.step(lid, mask)

    @given(sequential_formulas(), st.data())
    @_SETTINGS
    def test_pred_extend_matches_the_scalar_pred_row(self, formula, data):
        vva = _vectorized_for(formula)
        indexed = vva.indexed
        if not len(indexed.alphabet):
            return
        scalar = TransitionKernel(indexed)
        kernel = vva.kernel()
        lid = data.draw(
            st.integers(min_value=0, max_value=len(indexed.alphabet) - 1)
        )
        mask = data.draw(
            st.integers(min_value=0, max_value=(1 << indexed.n_states) - 1)
        )
        assert _pred_extended_mask(kernel, mask, lid) == apply_masks(
            scalar.pred_row(lid), mask
        )

    @given(sequential_formulas(), st.one_of(run_documents, st.text("abc", max_size=12)))
    @_SETTINGS
    def test_frontier_matches_per_letter_fold(self, formula, text):
        vva = _vectorized_for(formula)
        indexed = vva.indexed
        scalar = TransitionKernel(indexed)
        mask = 1 << indexed.initial_id
        expected = mask
        ids = indexed.alphabet.ids
        for letter in text:
            lid = ids.get(letter, -1)
            expected = 0 if lid < 0 else scalar.step(lid, expected)
            if not expected:
                break
        assert vva.kernel().frontier(Document(text), mask) == expected

    def test_frontier_rejects_unknown_letters_on_both_paths(self):
        vva = _small_vva()
        kernel = vva.kernel()
        letter = vva.alphabet.signature[0]
        mask = 1 << vva.indexed.initial_id
        assert kernel.frontier(Document("Z" * 40 + letter), mask) == 0
        assert kernel.frontier(Document("Z" + letter + "Z" + letter), mask) == 0

    def test_empty_document_returns_the_start_mask(self):
        vva = _small_vva()
        assert vva.kernel().frontier(Document(""), 0b11) == 0b11
        assert vva.kernel().frontier(Document("abc"), 0) == 0

    def test_step_misses_stop_growing_on_revisits(self):
        vva = _small_vva()
        kernel = vva.kernel()
        doc = Document("ab" * 20)
        mask = 1 << vva.indexed.initial_id
        kernel.frontier(doc, mask)
        misses = kernel.step_misses
        kernel.frontier(doc, mask)  # every frontier already interned
        assert kernel.step_misses == misses

    def test_cache_bound_degrades_gracefully(self):
        from repro.va.vectorized import VectorizedKernel

        class TinyCache(VectorizedKernel):
            STEP_CACHE_LIMIT = 2

        vva = _small_vva()
        scalar = TransitionKernel(vva.indexed)
        kernel = TinyCache(vva)
        mask = 1 << vva.indexed.initial_id
        text = "abab" * 8
        expected = mask
        for ch in text:
            expected = scalar.step(vva.alphabet.ids[ch], expected)
        assert kernel.frontier(Document(text), mask) == expected
        assert kernel._cached_steps <= TinyCache.STEP_CACHE_LIMIT


class TestVectorizedVA:
    def test_accessor_caches_on_the_automaton(self):
        va = _small_va()
        assert va.vectorized() is va.vectorized()
        assert va.vectorized().kernel() is va.vectorized().kernel()

    def test_succ_planes_encode_the_successor_masks(self):
        from repro.va.vectorized import planes_to_mask

        vva = _small_vva()
        indexed = vva.indexed
        assert vva.succ_planes.shape == (
            len(indexed.alphabet),
            indexed.n_states,
            vva.n_planes,
        )
        for lid, per_letter in enumerate(indexed.successor_masks):
            for sid, mask in enumerate(per_letter):
                assert planes_to_mask(vva.succ_planes[lid, sid]) == mask

    def test_multi_plane_automaton_has_multiple_planes(self):
        va = _multi_plane_va()
        vva = va.vectorized()
        assert vva.n_states > 64
        assert vva.n_planes >= 2


class TestMultiPlaneKernel:
    """>64-state automata: every plane operation spans several words."""

    def test_frontier_matches_scalar_kernel_across_planes(self):
        va = _multi_plane_va()
        vva = va.vectorized()
        scalar = TransitionKernel(vva.indexed)
        kernel = vva.kernel()
        ids = vva.alphabet.ids
        mask = 1 << vva.indexed.initial_id
        for text in ("ab" * 40, "a" * 100 + "b", "b" * 3, ""):
            expected = mask
            for ch in text:
                expected = scalar.step(ids[ch], expected)
            assert kernel.frontier(Document(text), mask) == expected

    def test_pred_extend_transpose_across_planes(self):
        va = _multi_plane_va()
        vva = va.vectorized()
        kernel = vva.kernel()
        succ = vva.indexed.successor_masks[0]
        full = (1 << vva.n_states) - 1
        pred_all = _pred_extended_mask(kernel, full, 0)
        expected = 0
        for source, targets in enumerate(succ):
            if targets:
                expected |= 1 << source
        assert pred_all == expected


def _multi_plane_va():
    """A sequential VA with more than 64 dense states (≥ 2 planes)."""
    from repro.regex import parse

    formula = parse("(a|b)*x{" + "ab" * 12 + "a+}(a|b)*")
    va = trim(regex_to_va(formula))
    assert va.indexed().n_states > 64
    return va


class TestFrontierAgainstForwardLayers:
    @given(sequential_formulas(), st.text(alphabet="ab", max_size=6))
    @_SETTINGS
    def test_graph_forward_layers_match_indexed(self, formula, text):
        from repro.va import IndexedMatchGraph, VectorizedMatchGraph

        va = trim(regex_to_va(formula))
        doc = Document(text)
        indexed_graph = IndexedMatchGraph(va.indexed(), doc)
        vectorized_graph = VectorizedMatchGraph(va.vectorized(), doc)
        assert vectorized_graph.forward == indexed_graph.forward
        assert vectorized_graph.alive == indexed_graph.alive
        # The quiet states per layer and the skip targets they give.
        layers = list(range(len(doc)))
        assert quiet_layers(vectorized_graph) == quiet_layers(indexed_graph)
        assert skip_targets(vectorized_graph, layers) == skip_targets(indexed_graph, layers)
        assert vectorized_graph.is_empty == indexed_graph.is_empty
        assert vectorized_graph.states_alive() == indexed_graph.states_alive()
        assert vectorized_graph.width() == indexed_graph.width()
