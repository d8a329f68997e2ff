"""The shortcuts of the enumeration walks across layers that capture
nothing.

A state is *quiet* at a layer when its only live option there is its
empty-opset self-loop; a DFS frame (or a ``first()`` step) whose profile
is all quiet jumps to the first later layer where one of its states stops
being quiet.  A state is *done* when no run from it performs an
operation, and *clean* when no run reaches it through one: a DFS frame
whose profile is all done is a leaf with one mapping, and a tail walk's
branch that has chosen an operation yields at the first profile that is
all clean.  These tests pin the quiet skip's targets against per-layer
definitions, both masks against reachability over the automaton's
tables, exactness on named shapes on both pinned walks, and the
output-linear cost the shortcuts buy on CSV exports and on stars over
unions of letters.
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


def reachable(indexed, sid: int) -> int:
    """The states reachable from ``sid``, itself included, by a depth-first
    search over the macro transitions of ``indexed.tables``."""
    seen = {sid}
    pending = [sid]
    while pending:
        source = pending.pop()
        for table in indexed.tables:
            for _, target_mask in table[source]:
                for target in iter_bits(target_mask):
                    if target not in seen:
                        seen.add(target)
                        pending.append(target)
    return sum(1 << state for state in seen)


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


class TestStaticMasks:
    @given(sequential_formulas(), st.booleans())
    @_SETTINGS
    def test_masks_match_reachability_over_the_tables(self, formula, wrap):
        if wrap:
            # A union star on both sides: the shape of E16's matrix query.
            skip = star(union(sym("a"), sym("b"), sym("c")))
            formula = concat(skip, formula, skip)
        indexed = trim(regex_to_va(formula)).indexed()
        opsets = indexed.opsets
        operating = {
            sid
            for sid in range(indexed.n_states)
            if any(opsets[oid] for oid in indexed.accept[sid])
            or any(opsets[oid] for table in indexed.tables for oid, _ in table[sid])
        }
        entered = {
            target
            for table in indexed.tables
            for row in table
            for oid, target_mask in row
            if opsets[oid]
            for target in iter_bits(target_mask)
        }
        reached_through_ops = 0
        for sid in entered:
            reached_through_ops |= reachable(indexed, sid)
        for sid in range(indexed.n_states):
            done = not any(state in operating for state in iter_bits(reachable(indexed, sid)))
            clean = not reached_through_ops >> sid & 1
            assert bool(indexed.done_mask >> sid & 1) == done, sid
            assert bool(indexed.clean_mask >> sid & 1) == clean, sid


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
            # A mapping's path ends where its profile leaves the capture
            # for the trailing star, whose states are all done, where
            # stepping would cross the rest of the document one frame per
            # layer.
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

    @pytest.mark.parametrize(
        "formula", [csv_records.record_formula(), csv_records.field_formula()],
        ids=["record", "field"],
    )
    def test_tail_walk_ticks_per_mapping_stay_flat_as_the_export_doubles(self, formula):
        # Guard ticks of the tail session's backward walk, one per frame,
        # after the forward layers it reads.  A branch that has captured
        # stops where its profile is all clean, before the record it
        # captured in; a walk on to layer 0 would grow with the export
        # (about n/2 per mapping).
        indexed = trim(regex_to_va(formula)).indexed()
        per_mapping = []
        for k in (50, 100, 200, 400):
            text = csv_records.generate_csv(k, seed=7, noise_rate=0.05)
            guard = CountingGuard()
            graph = IndexedMatchGraph(indexed, text, guard=guard)
            graph.forward
            guard.ticks = 0
            mappings = list(graph.enumerate_since(-1))
            per_mapping.append(guard.ticks / len(mappings))
            assert len(mappings) > k // 2
            assert sorted(mappings, key=repr) == sorted(graph.enumerate(), key=repr)
        assert max(per_mapping) <= 1.1 * min(per_mapping), per_mapping
