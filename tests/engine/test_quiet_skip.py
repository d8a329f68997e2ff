"""The quiet-stretch skip of the indexed enumeration walks.

A state is *quiet* at a layer when its only live option there is its
empty-opset self-loop; a DFS frame (or a ``first()`` step) whose profile
is all quiet jumps to the first later layer where one of its states stops
being quiet.  These tests pin the skip's targets against a per-layer
definition, its exactness on named shapes on both pinned indexed walks
and on the vectorized backend's scalar DFS, and the output-linear cost it
buys on CSV exports.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document
from repro.engine import Engine
from repro.engine.guards import ExecutionGuard
from repro.regex import parse
from repro.regex.builder import chars, concat, star
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
from repro.va.vectorized import numpy_available
from repro.workloads.packs import csv_records

from ..properties.conftest import documents, sequential_formulas
from .conftest import PINNED_WALKS
from .test_kernel_prefilter import run_documents

_SETTINGS = settings(max_examples=50, deadline=None)

#: The scalar DFS legs: the indexed backend on each pinned walk, and the
#: vectorized backend with its batched DFS off, which inherits the walk.
LEGS = [*PINNED_WALKS, "vectorized-scalar"]


@pytest.fixture(params=LEGS)
def engine(request, monkeypatch):
    leg = request.param
    if leg in PINNED_WALKS:
        monkeypatch.setattr(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[leg])
        return Engine(backend="indexed")
    if not numpy_available():
        pytest.skip("numpy is not installed")
    return Engine(backend="vectorized", enumeration_block_size=0)


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

    def test_union_star_keeps_the_walk_and_class_star_skips(self):
        union_formula, text = CASES["union-star"]
        class_formula, same_text = CASES["class-star"]
        assert text == same_text
        union_va, class_va = _va(union_formula), _va(class_formula)
        assert (union_va.indexed().n_states, class_va.indexed().n_states) == (22, 14)
        growth = {}
        for name, va in (("union", union_va), ("class", class_va)):
            per_mapping = []
            for copies in (1, 8):
                guard = CountingGuard()
                graph = IndexedMatchGraph(va.indexed(), text * copies, guard=guard)
                graph.alive
                guard.ticks = 0
                mappings = list(graph.enumerate())
                assert mappings == list(enumerate_mappings(va, text * copies))
                per_mapping.append(guard.ticks / len(mappings))
            growth[name] = per_mapping[1] / per_mapping[0]
        # A mapping's path crosses every layer after its `a` one frame at
        # a time on the union star, and in one frame on the class star.
        assert growth["union"] > 4
        assert growth["class"] < 1.5

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
