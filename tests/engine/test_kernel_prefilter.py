"""The run walk and the letter walk, and the VA-derived prefilter at the
engine level: the two walks agree with each other and with the oracles,
the walk choice shows in the statistics, the letter walk's frontier
nodes through the engine, the prefilter wiring in single-document /
batch / parallel paths, the new statistics counters, and the CLI escape
hatches."""

import pickle
import re
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document, SpanRelation
from repro.engine import Engine, EngineStats, available_backends, get_backend
from repro.va import (
    IndexedMatchGraph,
    enumerate_mappings,
    enumerate_naive,
    evaluate_naive,
    indexed_nonempty,
    regex_to_va,
    trim,
)
from repro.va import kernel as kernel_module
from repro.va.kernel import takes_run_walk

from ..properties.conftest import documents, sequential_formulas
from .conftest import BOUNDED_CACHES, PINNED_WALKS, leg_settings

_SETTINGS = settings(max_examples=50, deadline=None)

ALL_BACKENDS = available_backends()

#: Documents biased toward long single-letter runs — the regime the
#: run-compressed kernel and the DFS quiet-stretch skip target.  Includes
#: the degenerate shapes: empty, and single-letter documents of every
#: length.
run_documents = st.one_of(
    st.just(""),
    st.builds(
        lambda letter, length: letter * length,
        st.sampled_from("ab"),
        st.integers(min_value=1, max_value=12),
    ),
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=7)),
        min_size=1,
        max_size=4,
    ).map(lambda runs: "".join(letter * length for letter, length in runs)),
)


def _va(text: str):
    from repro.regex import parse

    return trim(regex_to_va(parse(text)))


#: Thresholds forcing each walk, shared with the engine tests' pinned
#: legs; the empty document has no runs and always takes the run walk.
RUN_WALK = PINNED_WALKS["indexed-run-walk"]
LETTER_WALK = PINNED_WALKS["indexed-letter-walk"]


class TestKernelEquivalence:
    @given(sequential_formulas(), run_documents)
    @_SETTINGS
    def test_every_backend_matches_naive_in_oracle_order(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = SpanRelation(enumerate_naive(va, doc))
        oracle = list(enumerate_mappings(va, doc))
        for name in ALL_BACKENDS:
            engine = Engine(backend=name)
            order = list(engine.enumerate(va, doc))
            # Same relation as the naive baseline, in the canonical
            # enumeration order of the match-graph oracle.
            assert SpanRelation(order) == expected, name
            assert order == oracle, name
            assert engine.is_nonempty(va, doc) == bool(len(expected)), name

    @given(sequential_formulas(), st.one_of(run_documents, documents), st.data())
    @_SETTINGS
    def test_run_walk_and_letter_walk_agree(self, formula, text, data):
        # Hypothesis rejects function-scoped fixtures, so the walk is
        # forced by patching the shared threshold inside the test body.
        indexed = trim(regex_to_va(formula)).indexed()
        split = data.draw(st.integers(min_value=0, max_value=len(text)))
        prefix = Document(text[:split])
        doc = prefix.append(text[split:])
        seen = []
        for threshold in (RUN_WALK, LETTER_WALK):
            with patch.object(kernel_module, "RUN_WALK_THRESHOLD", threshold):
                graph = IndexedMatchGraph(indexed, doc)
                nonempty = indexed_nonempty(indexed, doc)
                extended = IndexedMatchGraph(indexed, prefix).extended(doc)
            assert (graph._runs is not None) == (threshold == RUN_WALK or not text)
            # An extension keeps the walk of the graph it extends.
            assert (extended._runs is not None) == (
                threshold == RUN_WALK or not prefix.text
            )
            assert nonempty != graph.is_empty
            seen.append(
                (
                    graph.forward,
                    graph.alive,
                    graph.states_alive(),
                    list(graph.enumerate()),
                    IndexedMatchGraph(indexed, doc).first(),
                    nonempty,
                    list(extended.enumerate_since(split)),
                )
            )
        by_runs, by_letters = seen
        assert by_runs == by_letters

    @given(sequential_formulas(), run_documents)
    @_SETTINGS
    def test_limit_prefixes_survive_run_skipping(self, formula, doc):
        indexed = trim(regex_to_va(formula)).indexed()
        full = list(IndexedMatchGraph(indexed, doc).enumerate())
        for k in (0, 1, 3):
            graph = IndexedMatchGraph(indexed, doc)
            assert list(graph.enumerate(limit=k)) == full[:k]

    def test_kernel_run_hits_are_counted(self):
        # The walk is chosen per document: a run-heavy one advances its
        # runs through the kernel, text takes the letter walk.
        va = _va("(a|b)*x{c+}(a|b)*")
        engine = Engine()
        assert engine.is_nonempty(va, "a" * 50 + "c" + "b" * 50)
        assert engine.evaluate(va, "a" * 50 + "cc" + "b" * 50)
        assert engine.stats.kernel_run_hits > 0
        text = Engine()
        assert text.is_nonempty(va, "ab" * 25 + "c" + "ba" * 25)
        assert text.evaluate(va, "ab" * 25 + "cc" + "ba" * 25)
        assert text.stats.kernel_run_hits == 0

    @pytest.mark.parametrize("quiet_backend", ALL_BACKENDS)
    @pytest.mark.parametrize("busy_backend", ALL_BACKENDS)
    def test_run_hits_stay_with_the_engine_that_advanced_the_runs(
        self, busy_backend, quiet_backend
    ):
        # Every engine on the automaton shares its kernel: one engine's
        # run walk must not show up in another engine's statistics.
        va = _va("a*x{b}a*")
        quiet, busy = Engine(backend=quiet_backend), Engine(backend=busy_backend)
        assert len(quiet.evaluate(va, "ab")) == 1  # the letter walk
        assert len(busy.evaluate(va, "a" * 64 + "b" + "a" * 64)) == 1
        assert len(quiet.evaluate(va, "ab")) == 1
        assert quiet.stats.kernel_run_hits == 0
        assert busy.stats.kernel_run_hits == 2  # the two long a-runs

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_text_takes_the_letter_walk_without_building_runs(self, backend):
        # Routing stops scanning once the document has too many runs for
        # the run walk, so a text document never gets its run-length
        # encoding built.
        va = _va("(a|b)*x{ab}(a|b)*")
        engine = Engine(backend=backend)
        doc = Document("ba" * 40)
        assert len(engine.evaluate(va, doc)) == 39
        assert engine.is_nonempty(va, doc)
        assert engine.first(va, doc) is not None
        assert doc._runs is None
        assert engine.stats.kernel_run_hits == 0


class TestFrontierNodes:
    """The letter walk's interned frontier nodes through the engine: the
    misses it counts per engine call, the documents that step none, and
    the memoized ``first()``."""

    def test_frontier_misses_are_counted_and_stop_growing_on_repeats(self):
        va = _va("x{[ab]+}c")
        engine = Engine(document_cache_size=0)
        engine.evaluate_many(va, ["ababc", "zzz", "abc"])
        assert engine.stats.prefilter_rejects == 1  # "zzz"
        assert engine.stats.frontier_cache_misses > 0
        assert "frontier misses" in engine.stats.summary()
        engine.is_nonempty(va, "abababc")
        misses = engine.stats.frontier_cache_misses
        engine.is_nonempty(va, "abababc")  # every frontier already interned
        assert engine.stats.frontier_cache_misses == misses

    @given(
        sequential_formulas(),
        st.one_of(run_documents, st.text(alphabet="ab", max_size=24)),
    )
    @_SETTINGS
    def test_run_walk_documents_step_no_nodes(self, formula, text):
        va = trim(regex_to_va(formula))
        prepared = get_backend("indexed").prepare(va)
        kernel = va.indexed().kernel()
        # The reference counts a copy's runs, so the backend routes a
        # document with nothing cached.
        document = Document(text)
        run_walk = takes_run_walk(len(text), len(Document(text).runs()))
        misses = kernel.step_misses
        run = prepared.run(document)
        assert (run._runs is not None) == run_walk
        list(run.enumerate())
        prepared.run(document).first()
        prepared.is_nonempty(document)
        if run_walk:
            assert kernel.step_misses == misses

    def test_first_on_text_never_builds_the_live_layers(self):
        va = _va("(a|b)*x{(a|b)+}(a|b)*")
        prepared = get_backend("indexed").prepare(va)
        for doc, letter_walk in (("ab" * 50, True), ("a" * 50 + "b" * 50, False)):
            run = prepared.run(doc)
            assert run.first() == next(prepared.run(doc).enumerate())
            # The letter walk prunes against co-reachability nodes; the run
            # walk reads the live layers.
            assert (run._alive is None) == letter_walk
        engine = Engine()
        assert engine.first(va, "ab" * 50) is not None
        assert engine.stats.mappings == 1

    @pytest.mark.parametrize("name", ["indexed", "vectorized"])
    def test_unknown_letters_are_found_without_the_histogram(self, name):
        # The letter walk finds a letter outside the automaton's alphabet
        # in the letter ids it reads, so deciding emptiness builds no
        # letter histogram ("vectorized" is the retired backend's alias).
        va = _va("(a|b)*x{ab}(a|b)*")
        doc = Document("ab" * 20 + "z" + "ab" * 20)
        assert not get_backend(name).prepare(va).is_nonempty(doc)
        assert doc._runs is None  # the letter walk
        assert doc._letter_counts is None

    def test_workers_receive_the_automaton_without_its_nodes(self):
        # A capture of 600 letters walks a chain of 600 interned nodes,
        # deeper than pickle's recursion limit: the automaton a worker
        # receives must leave them behind.
        va = _va("(a|b)*x{" + "ab" * 300 + "}(a|b)*")
        engine = Engine()
        docs = ["ab" * 400, "ba" * 350]
        serial = engine.evaluate_many(va, docs)
        assert len(va.indexed().kernel()._nodes) > 600
        copy = pickle.loads(pickle.dumps(va))
        assert copy.indexed()._kernel is None
        assert engine.evaluate_many(va, docs, workers=2) == serial
        assert engine.stats.parallel_shards == 2

    def test_bounded_leg_walks_transient_nodes(self):
        # The engine legs' bounded caches really push the letter walk
        # onto nodes it computes per use and never links.
        (leg,) = BOUNDED_CACHES
        va = _va("(a|b)*x{ab}(a|b)*")
        text = "abba" * 10
        with leg_settings(leg) as name:
            engine = Engine(backend=name)
            assert engine.first(va, text) == next(enumerate_mappings(va, text))
            assert engine.evaluate(va, text) == evaluate_naive(va, text)
        kernel = va.indexed().kernel()
        assert kernel._cached_steps == BOUNDED_CACHES[leg]
        # The forward walk filled the cache, so every co-reachability node
        # is transient, and first() stores no choice under one.
        assert not kernel.first_memo
        assert kernel.step_misses > 4 * len(text)  # every walk recomputes
        assert engine.stats.frontier_cache_misses == kernel.step_misses

    def test_interleaved_consumers_attribute_growth_exactly_once(self):
        # The kernel is shared and its counters cumulative, so the engine
        # adds only the growth across each of its own calls: interleaved
        # enumerations and tail re-evaluations attribute each increment
        # exactly once.
        va = _va("(a|b)*x{ab}(a|b)*")
        engine = Engine(document_cache_size=0)
        session = engine.tail(va)
        gen = engine.enumerate(va, "ab" * 15)
        next(gen)  # leave the first enumeration suspended mid-flight
        session.reevaluate("ab" * 10)  # a tail pass touches the kernel
        list(gen)  # now finish the suspended enumeration
        session.reevaluate("ba" * 6)
        engine.evaluate(va, "abab")
        engine.evaluate(va, "a" * 40 + "b" * 40)  # the run walk
        engine.is_nonempty(va, "ab")
        kernel = va.indexed().kernel()
        assert engine.stats.kernel_run_hits == kernel.run_hits > 0
        assert engine.stats.frontier_cache_misses == kernel.step_misses > 0


class TestPrefilterWiring:
    @given(sequential_formulas(), run_documents)
    @_SETTINGS
    def test_engine_with_prefilter_equals_engine_without(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = evaluate_naive(va, doc)
        assert Engine().evaluate(va, doc) == expected
        assert Engine(prefilter=False).evaluate(va, doc) == expected

    def test_rejects_are_counted_and_cost_no_document_misses(self):
        va = _va("(a|b)*x{c+}(a|b)*")
        engine = Engine()
        corpus = ["ab", "ba", "aacaa", "bb", ""]
        relations = engine.evaluate_many(va, corpus)
        assert [len(r) for r in relations] == [0, 0, 1, 0, 0]
        assert engine.stats.prefilter_rejects == 4
        assert engine.stats.documents == len(corpus)
        # Only the surviving document ever prepared a graph.
        assert engine.stats.mappings == 1

    def test_prefilter_false_is_a_real_escape_hatch(self):
        va = _va("(a|b)*x{c+}(a|b)*")
        engine = Engine(prefilter=False)
        relations = engine.evaluate_many(va, ["ab", "aacaa"])
        assert [len(r) for r in relations] == [0, 1]
        assert engine.stats.prefilter_rejects == 0

    def test_is_nonempty_short_circuits_through_the_prefilter(self):
        va = _va("(a|b)*x{c+}(a|b)*")
        engine = Engine()
        assert not engine.is_nonempty(va, "ababab")
        assert engine.stats.prefilter_rejects == 1
        assert engine.stats.nonempty_checks == 1

    def test_batch_with_workers_only_ships_survivors(self):
        va = _va("(a|b)*x{c+}(a|b)*")
        corpus = ["ab", "aacaa", "bb", "caa", "ba", "b"]
        serial = Engine().evaluate_many(va, corpus)
        engine = Engine()
        parallel = engine.evaluate_many(va, corpus, workers=2)
        assert parallel == serial
        assert engine.stats.prefilter_rejects == 4
        assert engine.stats.parallel_shards == 2
        assert engine.stats.documents == len(corpus)

    def test_enumerate_stream_skips_rejected_documents(self):
        va = _va("(a|b)*x{c+}(a|b)*")
        engine = Engine()
        pairs = list(engine.enumerate_stream(va, ["ab", "aca", "bb", "c"]))
        assert sorted({index for index, _ in pairs}) == [1, 3]
        assert engine.stats.prefilter_rejects == 2

    def test_adhoc_plans_do_not_prefilter(self):
        from repro.algebra import Instantiation, RAQuery
        from repro.algebra.ra_tree import Difference, Leaf
        from repro.regex import parse

        tree = Difference(Leaf("f"), Leaf("g"))
        inst = Instantiation(
            spanners={
                "f": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "g": parse("(a|b)*x{a}(a|b)*"),
            }
        )
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        context = engine.prepare(query)
        assert context.prefilter() is None
        assert engine.stats.prefilter_rejects == 0

    def test_explain_surfaces_the_prefilter_decision_surface(self):
        engine = Engine()
        text = engine.explain(_va("(a|b)*x{c+}(a|b)*"))
        assert "prefilter:" in text
        assert "requires c" in text


class TestStatsCounters:
    def test_merge_and_delta_cover_the_new_counters(self):
        a = EngineStats(prefilter_rejects=2, kernel_run_hits=5)
        b = EngineStats(prefilter_rejects=1, kernel_run_hits=7, rule_fires={"r": 1})
        a.merge(b)
        assert a.prefilter_rejects == 3
        assert a.kernel_run_hits == 12
        assert a.rule_fires == {"r": 1}
        delta = a.delta(EngineStats(prefilter_rejects=1, kernel_run_hits=2))
        assert delta.prefilter_rejects == 2
        assert delta.kernel_run_hits == 10
        assert delta.rule_fires == {"r": 1}

    def test_summary_renders_the_new_counters(self):
        text = EngineStats(prefilter_rejects=3, kernel_run_hits=4).summary()
        assert "prefilter rejects  3" in text
        assert "kernel run hits    4" in text


class TestCliEscapeHatches:
    def test_batch_no_prefilter_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        docs = tmp_path / "docs.txt"
        docs.write_text("ab\naacaa\nbb\n")
        assert main(
            ["batch", "(a|b)*x{c+}(a|b)*", "--file", str(docs), "--stats"]
        ) == 0
        err = capsys.readouterr().err
        assert "prefilter rejects  2" in err
        assert main(
            [
                "batch",
                "(a|b)*x{c+}(a|b)*",
                "--file",
                str(docs),
                "--stats",
                "--no-prefilter",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "prefilter rejects  0" in err

    def test_extract_stats_show_the_walk_of_the_document(self, capsys):
        from repro.cli import main

        for text, hits, misses in (
            ("abacaba", "0", "[1-9][0-9]*"),
            ("a" * 20 + "c" + "b" * 20, "2", "0"),
        ):
            assert main(
                ["extract", "(a|b)*x{c+}(a|b)*", "--text", text, "--stats"]
            ) == 0
            captured = capsys.readouterr()
            assert "1 mapping(s)" in captured.out
            assert f"kernel run hits    {hits}\n" in captured.err
            assert re.search(f"^frontier misses +{misses}$", captured.err, re.M)


def test_batch_prefilter_preserves_relations():
    va = _va("(a|b)*x{(ab)+}(a|b)*")
    corpus = ["", "abab", "ba", "aabb", "b" * 30, "ab" * 15]
    expected = [evaluate_naive(va, doc) for doc in corpus]
    for prefilter in (True, False):
        engine = Engine(prefilter=prefilter)
        assert engine.evaluate_many(va, corpus) == [
            SpanRelation(rel) for rel in expected
        ]
