"""The quiet-stretch and forced-stretch skips of the enumeration walks.

A state is *quiet* at a layer when its only live option there is its
empty-opset self-loop; a DFS frame (or a ``first()`` step) whose profile
is all quiet jumps to the first later layer where one of its states stops
being quiet.  A DFS frame is *forced* when its profile holds only star
states and its one live option is the empty operation set; the first
path through a forced stretch indexes its end, and later paths hop there.
These tests pin both skips' targets against per-layer definitions, their
exactness on named shapes on both pinned walks, and the output-linear
cost they buy on CSV exports and on stars over unions of letters.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document
from repro.engine import Engine
from repro.engine.guards import ExecutionGuard
from repro.regex import parse
from repro.regex.builder import chars, concat, star, sym, union
from repro.utils.bits import iter_bits
from repro.va import (
    VA,
    IndexedMatchGraph,
    IndexedVA,
    enumerate_mappings,
    regex_to_va,
    trim,
)
from repro.va import kernel as kernel_module
from repro.va.automaton import VarOp
from repro.workloads.packs import csv_records

from ..properties.conftest import documents, sequential_formulas
from .conftest import BOUNDED_CACHES, PINNED_WALKS, leg_settings
from .test_kernel_prefilter import run_documents

_SETTINGS = settings(max_examples=50, deadline=None)

#: The DFS legs: the indexed backend on each pinned walk, and the letter
#: walk on bounded caches.
LEGS = [*PINNED_WALKS, *BOUNDED_CACHES]


@pytest.fixture(params=LEGS)
def engine(request):
    with leg_settings(request.param) as name:
        yield Engine(backend=name)


def _va(text: str):
    return trim(regex_to_va(parse(text)))


def is_quiet(graph, sid: int, layer: int) -> bool:
    """The definition: the state's only live option at the layer is the
    empty operation set back into itself."""
    empty = graph.indexed.empty_opset_id
    return graph.edge_row(layer, sid) == [(empty, 1 << sid)]


def reference_end(graph, profile: int, layer: int) -> int:
    """The first layer after ``layer`` where some state of ``profile``
    is not quiet, or the last layer, by stepping layer by layer."""
    end = layer + 1
    n = len(graph.document)
    while end < n and all(is_quiet(graph, sid, end) for sid in iter_bits(profile)):
        end += 1
    return end


def quiet_layers(graph) -> "list[int]":
    """Per layer, the mask of live states that are quiet there."""
    alive = graph.alive
    return [
        sum(1 << sid for sid in iter_bits(alive[layer]) if is_quiet(graph, sid, layer))
        for layer in range(len(graph.document))
    ]


def skip_targets(graph, layers: "list[int]") -> "dict[tuple[int, int], int]":
    """``_quiet_end`` of every quiet state at every layer, queried in the
    order ``layers`` gives, so later queries land on memoized stretches."""
    quiet = quiet_layers(graph)
    return {
        (layer, sid): graph._quiet_end(1 << sid, layer)
        for layer in layers
        for sid in iter_bits(quiet[layer])
    }


def forced_target(graph, layer: int, profile: int) -> int:
    """The definition: the frame is forced when its profile holds only
    star states and its one live option is the empty operation set; the
    option's target, or 0 when the frame is not forced."""
    indexed = graph.indexed
    if profile & ~indexed.star_mask:
        return 0
    options: dict[int, int] = {}
    for sid in iter_bits(profile):
        for oid, target in graph.edge_row(layer, sid):
            options[oid] = options.get(oid, 0) | target
    if list(options) != [indexed.empty_opset_id]:
        return 0
    return options[indexed.empty_opset_id]


def reference_forced_end(graph, layer: int, profile: int) -> "tuple[int, int]":
    """The first frame from ``(layer, profile)`` on that is not forced, or
    the leaf, by stepping frame by frame."""
    n = len(graph.document)
    while layer < n:
        target = forced_target(graph, layer, profile)
        if not target:
            break
        layer, profile = layer + 1, target
    return layer, profile


def hop_targets(graph, frames) -> "tuple[dict, dict]":
    """``_forced_end`` of every forced frame of ``frames``, queried in that
    order against one index, so later queries join indexed stretches; and
    the index they leave."""
    index: dict = {}
    ends = {}
    for layer, profile in frames:
        target = forced_target(graph, layer, profile)
        if target:
            ends[layer, profile] = graph._forced_end(layer, profile, target, index)
    return ends, index


class CountingGuard(ExecutionGuard):
    """A guard with no limits that counts its ticks."""

    def __init__(self):
        super().__init__()
        self.ticks = 0

    def tick(self):
        self.ticks += 1


class TestSkipTargets:
    @given(
        sequential_formulas(),
        st.booleans(),
        st.one_of(run_documents, documents),
        st.sampled_from(sorted(PINNED_WALKS)),
    )
    @_SETTINGS
    def test_quiet_end_matches_the_definition(self, formula, wrap, text, walk):
        if wrap:
            # A class star on both sides: the shape text queries take.
            skip = star(chars("abc"))
            formula = concat(skip, formula, skip)
        indexed = trim(regex_to_va(formula)).indexed()
        doc = Document(text)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
            forward, backward = IndexedMatchGraph(indexed, doc), IndexedMatchGraph(indexed, doc)
        n = len(doc)
        quiet = quiet_layers(forward)
        expected = {
            (layer, sid): reference_end(forward, 1 << sid, layer)
            for layer in range(n)
            for sid in iter_bits(quiet[layer])
        }
        assert skip_targets(forward, list(range(n))) == expected
        assert skip_targets(backward, list(range(n - 1, -1, -1))) == expected
        for layer in range(n):
            if quiet[layer]:
                # A profile jumps to the earliest end among its states.
                assert forward._quiet_end(quiet[layer], layer) == min(
                    expected[layer, sid] for sid in iter_bits(quiet[layer])
                )


#: Named shapes, each checked against the oracle in canonical order.
CASES = {
    # After x, the profile holds the [bc]* and the [bd]* states; the first
    # stops being quiet at the `d`, the second only at the `e`.
    "two-state-profile": (
        "x{a}([bc]*y{d}[a-e]*|[bd]*z{e}[a-e]*)",
        "a" + "b" * 6 + "d" + "b" * 4 + "e" + "bb",
    ),
    # The trailing class star stays quiet through the last layer.
    "quiet-to-the-end": ("[ab]*x{a}[ab]*", "bbabbbbbbabbbbbb"),
    "empty-document": ("[ab]*x{[ab]*}[ab]*", ""),
    # A star over a union compiles to one state per letter and keeps the
    # walk; the class star compiles to one state and skips.
    "union-star": ("(a|b)*x{a}(a|b)*", "abbabaabbbababba"),
    "class-star": ("[ab]*x{a}[ab]*", "abbabaabbbababba"),
}


class TestHopTargets:
    @given(
        sequential_formulas(),
        st.booleans(),
        st.one_of(run_documents, documents),
        st.sampled_from(sorted(PINNED_WALKS)),
    )
    @_SETTINGS
    def test_every_hop_lands_where_stepping_lands(self, formula, wrap, text, walk):
        if wrap:
            # A union star on both sides: the shape of E16's matrix query.
            skip = star(union(sym("a"), sym("b"), sym("c")))
            formula = concat(skip, formula, skip)
        indexed = trim(regex_to_va(formula)).indexed()
        doc = Document(text)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
            forward, backward = IndexedMatchGraph(indexed, doc), IndexedMatchGraph(indexed, doc)
        n = len(doc)
        alive = forward.alive
        # Every single live state, and every whole live layer.
        frames = [
            (layer, profile)
            for layer in range(n)
            for profile in [*(1 << sid for sid in iter_bits(alive[layer])), alive[layer]]
            if profile
        ]
        for graph, order in ((forward, frames), (backward, frames[::-1])):
            ends, index = hop_targets(graph, order)
            for frame, end in [*ends.items(), *index.items()]:
                assert end == reference_forced_end(forward, *frame), frame
                assert end[0] > frame[0]

    def test_union_star_stretch_is_walked_once_then_joined(self):
        # Alternating letters: no state is quiet at two layers in a row,
        # so only the forced-stretch index crosses the trailing union star.
        formula, text = CASES["union-star"][0], "ab" * 8
        guard = CountingGuard()
        graph = IndexedMatchGraph(_va(formula).indexed(), text, guard=guard)
        n = len(text)
        # x captures the first `a` and closes as the next letter is read,
        # into the trailing (a|b)* state of that letter, which is forced
        # through to the leaf.
        layer = 2
        (profile,) = [
            1 << sid
            for sid in iter_bits(graph.alive[layer])
            if reference_forced_end(graph, layer, 1 << sid)[0] == n
        ]
        target = forced_target(graph, layer, profile)
        index: dict = {}
        guard.ticks = 0
        end = graph._forced_end(layer, profile, target, index)
        assert end == reference_forced_end(graph, layer, profile)
        assert guard.ticks == n - layer - 1  # one per frame after this one
        assert len(index) == n - layer and index[layer, profile] == end
        # A query one frame into the stretch joins it at its next frame.
        later = (layer + 1, target)
        guard.ticks = 0
        assert graph._forced_end(*later, forced_target(graph, *later), index) == end
        assert guard.ticks == 1


class TestExactness:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_matches_the_oracle(self, engine, case):
        formula, text = CASES[case]
        va = _va(formula)
        expected = list(enumerate_mappings(va, text))
        assert expected, case
        order = list(engine.enumerate(va, text))
        assert order == expected
        assert engine.first(va, text) == expected[0]

    def test_two_state_profile_stops_at_the_first_break(self):
        formula, text = CASES["two-state-profile"]
        graph = IndexedMatchGraph(_va(formula).indexed(), text)
        profile = graph.alive[2]  # the [bc]* and [bd]* states
        assert profile.bit_count() == 2
        ends = sorted(graph._quiet_end(1 << sid, 2) for sid in iter_bits(profile))
        assert ends == [text.index("d"), text.index("e")]
        assert graph._quiet_end(profile, 2) == text.index("d")

    def test_quiet_stretch_to_the_last_layer(self):
        formula, text = CASES["quiet-to-the-end"]
        graph = IndexedMatchGraph(_va(formula).indexed(), text)
        # x closes as the letter after its `a` is read, into the trailing
        # class star's state.
        layer = text.rindex("a") + 2
        (sid,) = iter_bits(graph.alive[layer])
        assert is_quiet(graph, sid, layer)
        assert graph._quiet_end(1 << sid, layer) == len(text)

    def test_union_star_and_class_star_ticks_per_mapping_stay_flat(self, engine):
        union_formula, text = CASES["union-star"]
        class_formula, same_text = CASES["class-star"]
        assert text == same_text
        union_va, class_va = _va(union_formula), _va(class_formula)
        assert (union_va.indexed().n_states, class_va.indexed().n_states) == (22, 14)
        for name, va in (("union", union_va), ("class", class_va)):
            prepared = engine.backend.prepare(va)
            per_mapping = []
            for copies in (1, 8):
                guard = CountingGuard()
                graph = prepared.run(text * copies, guard=guard)
                graph.alive
                guard.ticks = 0
                mappings = list(graph.enumerate())
                assert mappings == list(enumerate_mappings(va, text * copies))
                per_mapping.append(guard.ticks / len(mappings))
            # A mapping's path hops the stretch after its `a` (the union
            # star's forced stretch, the class star's quiet one) in one
            # frame, where stepping would cross it one frame per layer.
            assert per_mapping[1] <= 1.5 * per_mapping[0], (name, per_mapping)

    def test_loud_self_loop_is_never_quiet(self):
        # A self-loop that performs operations repeats them when pumped,
        # so no sequential automaton has one; build one by hand.  State 0
        # loops on `a` both with no operation and through x⊢.
        open_x, close_x = VarOp("x", True), VarOp("x", False)
        va = VA(
            initial=0,
            accepting=[2],
            transitions=[(0, "a", 0), (0, open_x, 1), (1, "a", 0), (0, close_x, 2)],
        )
        indexed = IndexedVA(va)
        letter = indexed.alphabet.ids["a"]
        assert indexed.successor_masks[letter][indexed.initial_id] & 1
        assert not indexed.quiet_masks[letter] & 1

    def test_automaton_without_an_empty_opset(self, engine):
        # An accepting state accepts with the empty operation set, so only
        # an automaton that accepts nothing has none.
        va = trim(VA(initial=0, accepting=[], transitions=[(0, "a", 0)]))
        indexed = va.indexed()
        assert indexed.empty_opset_id == -1
        assert not any(indexed.quiet_masks)
        assert list(engine.enumerate(va, "aa")) == list(enumerate_mappings(va, "aa")) == []
        assert engine.first(va, "aa") is None


class TestOutputLinearCost:
    @pytest.mark.parametrize(
        "formula", [csv_records.record_formula(), csv_records.field_formula()],
        ids=["record", "field"],
    )
    def test_ticks_per_mapping_stay_flat_as_the_export_doubles(self, formula):
        # Guard ticks after the backward pass: one per DFS frame and one
        # per layer a quiet-stretch scan crosses.  Without the skip they
        # grow with the export (about n/2 per mapping).
        indexed = trim(regex_to_va(formula)).indexed()
        per_mapping = []
        for k in (50, 100, 200, 400):
            text = csv_records.generate_csv(k, seed=7, noise_rate=0.05)
            guard = CountingGuard()
            graph = IndexedMatchGraph(indexed, text, guard=guard)
            graph.alive
            guard.ticks = 0
            count = sum(1 for _ in graph.enumerate())
            assert count > k // 2
            per_mapping.append(guard.ticks / count)
        assert max(per_mapping) <= 1.1 * min(per_mapping), per_mapping
