"""The tail session: incremental re-evaluation of a growing document
reuses the layered match graph instead of rebuilding it."""

from unittest.mock import patch

import pytest

from repro.core import Alphabet, Document, Span, SpanRelation
from repro.core.errors import SpannerError
from repro.engine import Engine, PreparedIndexedVA, TailSession
from repro.regex import parse
from repro.va import regex_to_va, trim

from .conftest import BACKEND_LEGS


def compile_va(text):
    return trim(regex_to_va(parse(text)))


def union_of(emissions):
    return SpanRelation(m for batch in emissions for m in batch)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_union_over_time_matches_stepwise_full_evaluations(self, backend):
        engine = Engine(backend=backend)
        va = compile_va("(a|b)*x{a}b*")
        session = engine.tail(va)
        oracle = Engine(backend=backend)
        seen = SpanRelation(())
        text = ""
        for chunk in ("a", "b", "", "ba", "bb", "a"):
            fresh = session.reevaluate(chunk)
            text += chunk
            full = oracle.evaluate(va, text)
            expected = [m for m in full if m not in seen]
            assert SpanRelation(fresh) == SpanRelation(expected), (backend, text)
            seen = SpanRelation(list(seen) + expected)
        assert union_of([list(seen)]) == seen
        assert session.total_matches == len(seen)

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_old_region_captures_surface_on_completion(self, backend):
        # The append completes a match whose capture lies entirely in the
        # old region — a span-based "new matches" filter would miss it.
        engine = Engine(backend=backend)
        va = compile_va("x{a}bb")
        session = engine.tail(va, "ab")
        assert session.reevaluate() == []
        (mapping,) = session.reevaluate("b")
        ((var, span),) = mapping.items()
        assert (span.begin, span.end) == (1, 2)

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_seeded_document_and_empty_appends(self, backend):
        engine = Engine(backend=backend)
        va = compile_va("(a|b)*x{ab}(a|b)*")
        session = engine.tail(va, "abab")
        first = session.reevaluate()
        assert SpanRelation(first) == engine.evaluate(va, "abab")
        # Re-evaluating without growth yields nothing new.
        assert session.reevaluate() == []
        assert session.reevaluate("") == []

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_append_without_reevaluate_accumulates(self, backend):
        engine = Engine(backend=backend)
        va = compile_va("x{a}b*")
        session = engine.tail(va)
        session.append("a")
        session.append("bb")
        assert len(session) == 3
        (mapping,) = session.reevaluate()
        ((_, span),) = mapping.items()
        assert (span.begin, span.end) == (1, 2)


class TestLayerReuse:
    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_extension_reuses_prefix_layers(self, backend):
        engine = Engine(backend=backend)
        session = engine.tail(compile_va("(a|b)*x{a}"), "ab" * 8)
        session.reevaluate()
        stats = engine.stats
        assert stats.tail_recomputed_layers == 16
        session.reevaluate("ab")
        assert stats.tail_reused_layers == 16
        assert stats.tail_recomputed_layers == 18
        assert stats.tail_reevaluations == 2

    def test_kernel_powers_are_reused_across_extensions(self):
        # A long quiet run advances through memoized transformer powers;
        # extending by more of the same letter must not regrow the cache.
        engine = Engine(backend="indexed")
        va = compile_va("a*x{b}a*")
        session = engine.tail(va, "b" + "a" * 64)
        session.reevaluate()
        kernel = session._prepared.indexed.kernel()
        cached = kernel.cached_power_count()
        assert cached > 0
        for _ in range(4):
            session.reevaluate("a" * 64)
        assert kernel.cached_power_count() == cached

    def test_quiet_extensions_advance_through_kernel_powers(self):
        # Until the document first matches its forward layers stay
        # unexpanded, and extensions advance the checkpoint through the
        # kernel's memoized powers instead of filling layers.
        engine = Engine(backend="indexed")
        session = engine.tail(compile_va("(a|b)*x{b}a*b"), "bb" + "a" * 64)
        assert session.reevaluate() == []
        kernel = session._prepared.indexed.kernel()
        cached = kernel.cached_power_count()
        hits = kernel.run_hits
        for _ in range(4):
            assert session.reevaluate("a" * 64) == []
        assert session._run._forward is None
        assert kernel.run_hits > hits
        assert kernel.cached_power_count() == cached
        assert len(session.reevaluate("b")) == 1

    def test_letter_walk_extensions_step_nodes_from_the_checkpoint(self):
        # Until the document first matches its forward layers stay
        # unbuilt, and an extension steps the kernel's frontier nodes over
        # the appended letters alone; once enumerate_since has built them,
        # extensions carry them over.
        engine = Engine(backend="indexed")
        va = compile_va("(a|b)*x{abb}(a|b)*")
        session = engine.tail(va, "ab" * 8)
        assert session.reevaluate() == []
        assert session._run._runs is None  # the letter walk
        assert session.reevaluate("aaaab") == []
        assert session._run._forward is None
        (mapping,) = session.reevaluate("b")
        assert dict(mapping.items())["x"] == Span(20, 23)
        assert session._run._forward is not None
        fresh = session.reevaluate("ab")
        assert session._run._forward is not None
        assert engine.stats.tail_reused_layers == 16 + 21 + 22
        assert SpanRelation([mapping] + fresh) == engine.evaluate(va, session.document)
        assert fresh == []

    def test_letter_walk_encodes_each_append_once(self):
        # Document.append extends the session document's cached encoding,
        # and the resumed run slices it: one encode per append, before
        # the first match and after it.
        engine = Engine(backend="indexed")
        va = compile_va("(a|b)*x{abb}(a|b)*")
        session = engine.tail(va, "ab" * 8)
        assert session.reevaluate() == []
        assert session._run._runs is None  # the letter walk
        encode = Alphabet.encode
        encoded = []

        def counting(alphabet, text):
            encoded.append(text)
            return encode(alphabet, text)

        chunks = ("aab", "aa", "bb", "ab")
        with patch.object(Alphabet, "encode", counting):
            fresh = [session.reevaluate(chunk) for chunk in chunks]
        assert encoded == list(chunks)
        assert [len(batch) for batch in fresh] == [0, 0, 1, 0]
        assert SpanRelation(m for batch in fresh for m in batch) == engine.evaluate(
            va, session.document
        )

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_prefilter_reject_keeps_checkpoint_across_gaps(self, backend):
        engine = Engine(backend=backend)
        va = compile_va("(a|b)*x{b}(a|b)*")
        session = engine.tail(va, "a" * 6)
        # 'b' never occurs: the histogram prefilter answers without a graph.
        assert session.reevaluate() == []
        assert session.reevaluate("aa") == []
        stats = engine.stats
        assert stats.prefilter_rejects >= 2
        assert stats.tail_recomputed_layers == 0
        # Once admitted, the session evaluates the full document correctly.
        fresh = session.reevaluate("b")
        assert SpanRelation(fresh) == engine.evaluate(va, "a" * 8 + "b")


class _RecordingLayers(list):
    """Forward layers that record which layers were read."""

    def __init__(self, layers):
        super().__init__(layers)
        self.read = set()

    def __getitem__(self, index):
        self.read.add(index)
        return super().__getitem__(index)


def assert_backward_layers_unbuilt(run):
    assert run._alive is None
    assert all(rows is None for rows in run._edges)
    assert run._cnodes is None


class TestOutputSensitiveReevaluation:
    """A re-evaluation of an extended run walks back from the final layer
    over the carried forward layers and stops at the checkpoint."""

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_quiet_append_after_a_match_builds_no_backward_layers(self, backend):
        engine = Engine(backend=backend)
        session = engine.tail(compile_va("(a|b)*x{ab}(a|b)*"))
        assert len(session.reevaluate("aab")) == 1
        assert session.reevaluate("bbb") == []
        assert engine.stats.tail_reused_layers == 3
        assert_backward_layers_unbuilt(session._run)
        (mapping,) = session.reevaluate("ab")
        assert dict(mapping.items())["x"] == Span(7, 9)

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_quiet_append_walks_only_the_appended_layers(self, backend):
        prepared = PreparedIndexedVA(compile_va("(a|b)*x{ab}(a|b)*"))
        doc = Document("ab" + "b" * 60)
        prior = prepared.run(doc)
        prior.forward  # expand once; extensions carry the layers over
        run = prepared.run_extended(prior, doc.append("bbbb"))
        run._forward = layers = _RecordingLayers(run._forward)
        assert list(run.enumerate_since(len(doc))) == []
        assert min(layers.read) == len(doc)
        assert_backward_layers_unbuilt(run)
        # With no new letters the walk does not start at all.
        layers.read.clear()
        assert list(run.enumerate_since(len(doc) + 4)) == []
        assert not layers.read

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    @pytest.mark.parametrize(
        "formula, seed, expected",
        [("x{a}bb", "ab", Span(1, 2)), ("(a|b)*x{a}bb(a|b)*", "abbab", Span(4, 5))],
    )
    def test_append_completing_an_old_region_match_returns_it(
        self, backend, formula, seed, expected
    ):
        session = Engine(backend=backend).tail(compile_va(formula), seed)
        session.reevaluate()
        (mapping,) = session.reevaluate("b")
        assert dict(mapping.items())["x"] == expected

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    @pytest.mark.parametrize(
        "formula, text, y",
        [
            # y's operations two layers above the checkpoint, an empty
            # operation set between them and it.
            ("x{a}(bb(y{b}))?", "bbb", Span(4, 5)),
            # y's operations in the final operation set alone.
            ("x{a}(b(y{b*}))?", "b", Span(3, 3)),
        ],
    )
    def test_operations_above_the_checkpoint_keep_accepting_states(
        self, backend, formula, text, y
    ):
        # At the checkpoint layer the x-capturing state accepts with the
        # operation set chosen there, but the branch captures y later: a
        # new mapping, which only a branch with no operations above the
        # checkpoint may drop.
        session = Engine(backend=backend).tail(compile_va(formula), "a")
        assert len(session.reevaluate()) == 1
        (mapping,) = session.reevaluate(text)
        assert dict(mapping.items()) == {"x": Span(1, 2), "y": y}

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_reevaluation_without_new_text_returns_nothing(self, backend):
        session = Engine(backend=backend).tail(compile_va("(a|b)*x{a}(a|b)*"))
        assert len(session.reevaluate("aba")) == 2
        # A fresh run's re-evaluation walks back over its forward layers
        # alone (on text, the co-reachability nodes stay unbuilt too).
        assert_backward_layers_unbuilt(session._run)
        assert session.reevaluate() == []
        assert session.reevaluate("") == []
        assert_backward_layers_unbuilt(session._run)


class TestGraphExtensionErrors:
    def test_extended_rejects_shrinking_documents(self):
        from repro.va.indexed import IndexedMatchGraph

        va = compile_va("(a|b)*x{a}")
        graph = IndexedMatchGraph(va.indexed(), "abab")
        with pytest.raises(SpannerError):
            graph.extended("ab")

    def test_checkpoint_is_exposed(self):
        from repro.va.indexed import IndexedMatchGraph

        va = compile_va("(a|b)*x{a}")
        graph = IndexedMatchGraph(va.indexed(), "ab")
        assert isinstance(graph.checkpoint(), int)
        assert graph.checkpoint() > 0


class TestSessionSurface:
    def test_engine_tail_returns_session(self):
        session = Engine().tail(compile_va("x{a}"))
        assert isinstance(session, TailSession)
        assert len(session) == 0
        assert "TailSession" in repr(session)

    def test_sessions_share_engine_stats(self):
        engine = Engine()
        session = engine.tail(compile_va("x{a}"))
        session.reevaluate("a")
        assert engine.stats.tail_reevaluations == 1
        assert engine.stats.mappings == 1
