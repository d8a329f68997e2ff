"""The shortcuts of the enumeration walks across layers that capture
nothing.

A DFS frame (or a ``first()`` step) whose profile has no live option that
performs operations is forced, and so is the path on to the first layer
where the image of its states under the transitions that perform no
operation holds a state with a live operating option: the walk *jumps*
there, or to the last layer.  A state is *done* when no run from it
performs an operation, and *clean* when no run reaches it through one: a
DFS frame whose profile is all done is a leaf with one mapping, and a
tail walk's branch that has chosen an operation yields at the first
profile that is all clean.  These tests pin the jump's targets against
their per-layer definition on both pinned walks and on Theorem 4.8's
per-document forms, the guard inside a long jump, both masks against
reachability over the automaton's tables, exactness on named shapes on
both pinned walks, and the output-linear cost the shortcuts buy on CSV
exports and on stars over unions of letters.
"""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.sync_difference import PreparedSyncDifference
from repro.core import DeadlineExceeded, Document
from repro.engine import Engine, PreparedIndexedVA
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
from repro.va.indexed import LayeredIndexedVA
from repro.workloads.packs import csv_records

from ..properties.conftest import documents, sequential_formulas
from .conftest import BOUNDED_CACHES, PINNED_WALKS, leg_settings
from .test_kernel_prefilter import run_documents

_SETTINGS = settings(max_examples=50, deadline=None)

#: The DFS legs: the indexed backend on each pinned walk, and the letter
#: walk on bounded caches.
LEGS = [*PINNED_WALKS, *BOUNDED_CACHES]

#: The skip stars a formula is wrapped in: a class star compiles to one
#: state, a star over a union of letters to one state per letter.
WRAPS = {
    "class-star": star(chars("abc")),
    "union-star": star(union(sym("a"), sym("b"), sym("c"))),
}


@pytest.fixture(params=LEGS)
def engine(request):
    with leg_settings(request.param) as name:
        yield Engine(backend=name)


def _va(text: str):
    return trim(regex_to_va(parse(text)))


def reference_jump(graph, profile: int, layer: int) -> "tuple[int, int]":
    """The jump by its definition, stepped layer by layer over the edge
    rows: the first layer from ``layer`` on at which the profile's image
    under the empty operation set is all done or holds a state with a live
    operating option, or the last layer, and the image there."""
    opsets, done = graph.indexed.opsets, graph.indexed.done_mask
    n = len(graph.document)
    while layer < n and profile & ~done:
        options = [
            option for sid in iter_bits(profile) for option in graph.edge_row(layer, sid)
        ]
        if any(opsets[oid] for oid, _ in options):
            break
        profile = 0
        for _, target_mask in options:
            profile |= target_mask
        layer += 1
    return layer, profile


def live_profiles(graph) -> "list[tuple[int, int]]":
    """``(layer, profile)`` for every layer before the last: each live
    state alone, and all of them."""
    return [
        (layer, profile)
        for layer, mask in enumerate(graph.alive[: len(graph.document)])
        if mask
        for profile in (*(1 << sid for sid in iter_bits(mask)), mask)
    ]


def jump_targets(graph, reference=None) -> "dict[tuple[int, int], tuple[int, int]]":
    """``graph``'s jump from every live profile of ``reference`` (``graph``
    itself by default)."""
    profiles = live_profiles(reference or graph)
    jump = graph._jumper() if profiles else None  # an empty graph has none
    return {(layer, profile): jump(profile, layer) for layer, profile in profiles}


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


class StridelessGuard(ExecutionGuard):
    """A guard whose frame ticks never read the clock: only its full
    checks do."""

    TICK_STRIDE = 1 << 30


class ReadCounter(tuple):
    """Letter ids that count the reads by index."""

    count = 0

    def __getitem__(self, index):
        self.count += 1
        return super().__getitem__(index)


class TestJumpTargets:
    @given(
        sequential_formulas(),
        st.sampled_from([None, *WRAPS]),
        st.one_of(run_documents, documents),
        st.sampled_from(sorted(PINNED_WALKS)),
    )
    # The live layers alternate inside the run, so a fixpoint profile
    # may cross only stable ones.
    @example(parse("a*x{a(aa)*}"), None, "a" * 9, "indexed-run-walk")
    # The image holds states that are not co-reachable where it stops.
    @example(parse("[ab]*(x{b}|b)|b"), None, "bbbb", "indexed-letter-walk")
    # After x and the b, the state is not done, as its `c` branch captures
    # y, but its image on the next letter is the done trailing star.
    @example(parse("x{a}b([c]y{a})?"), "class-star", "abababab", "indexed-letter-walk")
    @example(parse("x{a}b([c]y{a})?"), "union-star", "abababab", "indexed-run-walk")
    # The image's node holds across the last `a` of the `aa`, where its
    # state that is not done stops being co-reachable.
    @example(
        parse("x{a}b([ab]*(a|[c]y{a}))?[ab]*"), None, "abbababaabbbbbb", "indexed-letter-walk"
    )
    @_SETTINGS
    def test_jump_matches_the_definition(self, formula, wrap, text, walk):
        if wrap:
            formula = concat(WRAPS[wrap], formula, WRAPS[wrap])
        indexed = trim(regex_to_va(formula)).indexed()
        doc = Document(text)
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
            jumper, reference = IndexedMatchGraph(indexed, doc), IndexedMatchGraph(indexed, doc)
        expected = {
            (layer, profile): reference_jump(reference, profile, layer)
            for layer, profile in live_profiles(reference)
        }
        # A graph of its own, so the jump reads no edge row the
        # reference built.
        assert jump_targets(jumper, reference) == expected

    @given(st.sampled_from(sorted(WRAPS)), st.text(alphabet="abc", max_size=12))
    @_SETTINGS
    def test_layered_jump_matches_the_definition(self, wrap, text):
        # Theorem 4.8's per-document product: its tables are per layer,
        # and it has no kernel and no done states.
        skip = WRAPS[wrap]
        minuend = concat(skip, parse("x{[ab]+}"), skip)
        subtrahend = concat(skip, parse("x{a}"), skip)
        prepared = PreparedSyncDifference(trim(regex_to_va(minuend)), trim(regex_to_va(subtrahend)))
        form = prepared.compile_layered(text)
        if not isinstance(form, LayeredIndexedVA):
            return  # the subtrahend extracts nothing: no product
        jumper, reference = IndexedMatchGraph(form, text), IndexedMatchGraph(form, text)
        expected = {
            (layer, profile): reference_jump(reference, profile, layer)
            for layer, profile in live_profiles(reference)
        }
        assert jump_targets(jumper, reference) == expected

    @pytest.mark.parametrize("walk", sorted(PINNED_WALKS))
    def test_a_stretch_many_paths_enter_is_crossed_once(self, walk):
        # Each x path jumps from its capture across one [ab]* stretch to the
        # y at the end, entering it at a layer of its own.  A jump that
        # starts in, or walks into, the stretch an earlier path held takes
        # that path's stop, so the letters the DFS and its jumps read per
        # mapping stay flat as the text grows; crossing the stretch anew on
        # every path reads about n/2 per mapping.
        indexed = _va("[ab]*x{a}[ab]*y{b}").indexed()
        per_mapping = []
        for copies in (25, 100):
            text = ("a" * 5 + "b" * 5) * copies
            with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
                graph = IndexedMatchGraph(indexed, text)
            graph.alive  # the passes, which read the letters too
            graph._letter_ids = reads = ReadCounter(graph.letter_ids)
            mappings = list(graph.enumerate())
            assert len(mappings) == 5 * copies
            per_mapping.append(reads.count / len(mappings))
        assert per_mapping[1] <= 1.2 * per_mapping[0], per_mapping

    @pytest.mark.parametrize("leg", sorted(PINNED_WALKS))
    @pytest.mark.parametrize("on_budget", ["raise", "partial"])
    def test_deadline_trips_inside_one_forced_stretch(self, leg, on_budget):
        # Two mappings, each with a forced stretch of 100k letters of its
        # own between its first capture and its last; on the pinned run
        # walk the runs are single letters, so no stretch is crossed in
        # one step.
        va = _va("x{a}[ab]*z{b}|y{a}[ab]*w{b}")
        text = "a" + "ba" * 50_000 + "b"
        now = [0.0]
        guard = StridelessGuard(deadline=60.0, on_budget=on_budget, clock=lambda: now[0])
        with leg_settings(leg) as name:
            unguarded = list(Engine(backend=name).enumerate(va, text))
            mappings = Engine(backend=name).enumerate(va, text, guard=guard)
            prefix = [next(mappings)]
            now[0] = 120.0  # past the deadline
            if on_budget == "raise":
                with pytest.raises(DeadlineExceeded) as trip:
                    next(mappings)
                assert any(entry.name == "jump" for entry in trip.traceback)
            else:
                prefix.extend(mappings)
        assert guard.tripped == "deadline"
        assert len(unguarded) == 2 and prefix == unguarded[:1]


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

    @pytest.mark.parametrize("walk", sorted(PINNED_WALKS))
    def test_two_state_profile_stops_at_the_first_break(self, walk):
        formula, text = CASES["two-state-profile"]
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
            graph = IndexedMatchGraph(_va(formula).indexed(), text)
        profile = graph.alive[2]  # the [bc]* and the [bd]* states
        assert profile.bit_count() == 2
        jump = graph._jumper()
        ends = sorted(jump(1 << sid, 2) for sid in iter_bits(profile))
        assert [layer for layer, _ in ends] == [text.index("d"), text.index("e")]
        assert jump(profile, 2) == (text.index("d"), profile)

    @pytest.mark.parametrize("walk", sorted(PINNED_WALKS))
    def test_quiet_stretch_to_the_last_layer(self, walk):
        text = CASES["quiet-to-the-end"][1]
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
            graph = IndexedMatchGraph(_va("[ab]*x{a}[ab]*([c]y{a})?").indexed(), text)
        # x closes as the letter after its `a` is read, into the trailing
        # class star's state.  Its `c` branch captures y, so it is not
        # done, but no `c` follows: the path is forced to the last layer.
        layer = text.rindex("a") + 2
        (sid,) = iter_bits(graph.alive[layer])
        assert not graph.indexed.done_mask >> sid & 1
        assert graph._jumper()(1 << sid, layer) == (len(text), 1 << sid)

    def test_union_star_and_class_star_ticks_per_mapping_stay_flat(self, engine):
        union_formula, text = CASES["union-star"]
        class_formula, same_text = CASES["class-star"]
        assert text == same_text
        union_va, class_va = _va(union_formula), _va(class_formula)
        assert (union_va.indexed().n_states, class_va.indexed().n_states) == (22, 14)
        for name, va in (("union", union_va), ("class", class_va)):
            prepared = PreparedIndexedVA(va)
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
        # loops on `a` both with no operation and through x⊢, so every
        # layer offers it a live operating option and the jump stays put.
        open_x, close_x = VarOp("x", True), VarOp("x", False)
        va = VA(
            initial=0,
            accepting=[2],
            transitions=[(0, "a", 0), (0, open_x, 1), (1, "a", 0), (0, close_x, 2)],
        )
        indexed = IndexedVA(va)
        letter = indexed.alphabet.ids["a"]
        assert indexed.successor_masks[letter][indexed.initial_id] & 1
        for walk in sorted(PINNED_WALKS):
            with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
                graph = IndexedMatchGraph(indexed, "aaaa")
            jump = graph._jumper()
            assert [jump(1, layer) for layer in range(4)] == [(layer, 1) for layer in range(4)]

    def test_automaton_without_an_empty_opset(self, engine):
        # An accepting state accepts with the empty operation set, so only
        # an automaton that accepts nothing has none.
        va = trim(VA(initial=0, accepting=[], transitions=[(0, "a", 0)]))
        indexed = va.indexed()
        assert indexed.empty_opset_id == -1
        assert list(engine.enumerate(va, "aa")) == list(enumerate_mappings(va, "aa")) == []
        assert engine.first(va, "aa") is None


class TestOutputLinearCost:
    @pytest.mark.parametrize("walk", sorted(PINNED_WALKS))
    @pytest.mark.parametrize(
        "formula", ["[ab]*x{a}b([c]y{a})?[ab]*", "(a|b)*x{a}b([c]y{a})?(a|b)*"],
        ids=["class-star", "union-star"],
    )
    def test_letter_reads_per_mapping_stay_flat_where_the_image_turns_done(self, walk, formula):
        # After each x and its b, the state is not done, as its `c` branch
        # captures y, but its image on the next letter is the trailing
        # star, all done: the path ends there.  A jump on to the last layer
        # reads about n/2 letters per mapping.
        indexed = _va(formula).indexed()
        per_mapping = []
        for copies in (250, 1000):
            with patch.object(kernel_module, "RUN_WALK_THRESHOLD", PINNED_WALKS[walk]):
                graph = IndexedMatchGraph(indexed, "ab" * copies)
            graph.alive  # the passes, which read the letters too
            graph._letter_ids = reads = ReadCounter(graph.letter_ids)
            assert sum(1 for _ in graph.enumerate()) == copies
            per_mapping.append(reads.count / copies)
        assert per_mapping[1] <= 1.2 * per_mapping[0], per_mapping

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
