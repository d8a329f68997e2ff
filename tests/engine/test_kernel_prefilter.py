"""The run walk and the letter walk, and the VA-derived prefilter at the
engine level: the two walks agree with each other and with the oracles,
the walk choice shows in the statistics, the prefilter wiring in
single-document / batch / parallel paths, the new statistics counters,
and the CLI escape hatches."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document, SpanRelation
from repro.engine import Engine, EngineStats, available_backends
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

from ..properties.conftest import documents, sequential_formulas
from .conftest import PINNED_WALKS

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

        for text, hits in (("abacaba", "0"), ("a" * 20 + "c" + "b" * 20, "2")):
            assert main(
                ["extract", "(a|b)*x{c+}(a|b)*", "--text", text, "--stats"]
            ) == 0
            captured = capsys.readouterr()
            assert "1 mapping(s)" in captured.out
            assert f"kernel run hits    {hits}\n" in captured.err


def test_batch_prefilter_preserves_relations():
    va = _va("(a|b)*x{(ab)+}(a|b)*")
    corpus = ["", "abab", "ba", "aabb", "b" * 30, "ab" * 15]
    expected = [evaluate_naive(va, doc) for doc in corpus]
    for prefilter in (True, False):
        engine = Engine(prefilter=prefilter)
        assert engine.evaluate_many(va, corpus) == [
            SpanRelation(rel) for rel in expected
        ]
