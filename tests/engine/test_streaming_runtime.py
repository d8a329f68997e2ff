"""The streaming runtime: lazy graph construction, ``limit=k`` prefix
semantics, Boolean emptiness wiring, and parallel batch evaluation."""

from unittest.mock import patch

from hypothesis import given, settings

from repro.core import RelationSpanner, SpanRelation
from repro.engine import Engine, PreparedIndexedVA
from repro.va import (
    IndexedMatchGraph,
    boolean_nonempty,
    FactorizedVA,
    enumerate_naive,
    indexed_nonempty,
    is_nonempty,
    regex_to_va,
    trim,
)
from repro.va import kernel as kernel_module

from ..properties.conftest import documents, sequential_formulas

_SETTINGS = settings(max_examples=40, deadline=None)


class TestLazyVsEagerGraphs:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_first_matches_enumeration_head(self, formula, doc):
        indexed = trim(regex_to_va(formula)).indexed()
        full = list(IndexedMatchGraph(indexed, doc).enumerate())
        first = IndexedMatchGraph(indexed, doc).first()
        assert first == (full[0] if full else None)

    def test_lazy_graph_builds_no_edges_for_emptiness(self):
        indexed = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*")).indexed()
        graph = IndexedMatchGraph(indexed, "abab")
        assert not graph.is_empty
        # Emptiness came from the Boolean pass: neither the backward layers
        # nor any edge row has been materialised yet.
        assert graph._alive is None
        assert all(layer is None for layer in graph._edges)

    def test_first_touches_only_walked_edge_rows(self):
        indexed = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*")).indexed()
        # The run walk's first() reads the live layers and the edge rows
        # along its path.
        with patch.object(kernel_module, "RUN_WALK_THRESHOLD", 0):
            graph = IndexedMatchGraph(indexed, "abab")
        graph.first()
        touched = sum(len(layer) for layer in graph._edges if layer is not None)
        # An eager build makes one edge row per live state of every layer
        # that has a successor layer.
        total = sum(mask.bit_count() for mask in graph.alive[: len(graph._edges)])
        assert 0 < touched < total
        # The letter walk's first() prunes against co-reachability nodes,
        # and builds neither.
        graph = IndexedMatchGraph(indexed, "abab")
        assert graph._runs is None
        assert graph.first() is not None
        assert graph._alive is None
        assert all(layer is None for layer in graph._edges)


class TestLimitSemantics:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_limit_is_a_prefix_of_full_enumeration_on_every_backend(
        self, formula, doc
    ):
        va = trim(regex_to_va(formula))
        engine = Engine()
        full = list(engine.enumerate(va, doc))
        for k in (0, 1, 2, 5):
            assert list(engine.enumerate(va, doc, limit=k)) == full[:k]

    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_graph_limit_matches_enumeration_prefix(self, formula, doc):
        indexed = trim(regex_to_va(formula)).indexed()
        full = list(IndexedMatchGraph(indexed, doc).enumerate())
        for k in (0, 1, 3):
            assert list(IndexedMatchGraph(indexed, doc).enumerate(limit=k)) == full[:k]

    def test_engine_first_and_evaluate_many_limit(self):
        va = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*"))
        engine = Engine()
        full = list(engine.enumerate(va, "abab"))
        assert engine.first(va, "abab") == full[0]
        assert engine.first(va, "") is None
        relations = engine.evaluate_many(va, ["abab", "", "ba"], limit=2)
        assert all(len(relation) <= 2 for relation in relations)
        assert relations[0] == SpanRelation(full[:2])
        assert relations[1] == SpanRelation(())


class TestBooleanEmptiness:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_boolean_passes_agree_with_naive(self, formula, doc):
        va = trim(regex_to_va(formula))
        expected = bool(list(enumerate_naive(va, doc)))
        assert is_nonempty(va, doc) == expected
        assert indexed_nonempty(va.indexed(), doc) == expected
        assert boolean_nonempty(FactorizedVA(va), doc) == expected
        assert PreparedIndexedVA(va).is_nonempty(doc) == expected
        assert Engine().is_nonempty(va, doc) == expected

    def test_engine_nonempty_counts_checks_not_mappings(self):
        va = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*"))
        engine = Engine()
        assert engine.is_nonempty(va, "ab")
        assert not engine.is_nonempty(va, "")
        assert engine.stats.nonempty_checks == 2
        assert engine.stats.mappings == 0


class TestParallelEvaluation:
    DOCS = ["abab", "b", "", "bbba", "aab", "abba", "a"]

    def test_workers_match_sequential_results_and_order(self):
        va = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*"))
        serial = Engine().evaluate_many(va, self.DOCS)
        # The empty document is provably non-matching: the prefilter keeps
        # it away from the workers entirely (see test below for the
        # prefilter-off behaviour).
        survivors = [doc for doc in self.DOCS if doc]
        for workers in (2, 3, len(self.DOCS) + 5):
            engine = Engine()
            assert engine.evaluate_many(va, self.DOCS, workers=workers) == serial
            assert engine.stats.parallel_shards == min(workers, len(survivors))
            assert engine.stats.prefilter_rejects == len(self.DOCS) - len(survivors)
            # Shard statistics are merged back into the parent engine.
            assert engine.stats.documents == len(self.DOCS)

    def test_workers_without_prefilter_ship_every_document(self):
        va = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*"))
        serial = Engine().evaluate_many(va, self.DOCS)
        for workers in (2, len(self.DOCS) + 5):
            engine = Engine(prefilter=False)
            assert engine.evaluate_many(va, self.DOCS, workers=workers) == serial
            assert engine.stats.parallel_shards == min(workers, len(self.DOCS))
            assert engine.stats.prefilter_rejects == 0
            assert engine.stats.documents == len(self.DOCS)

    def test_workers_respect_limit(self):
        va = trim(regex_to_va_text("(a|b)*x{(a|b)+}(a|b)*"))
        engine = Engine()
        limited = engine.evaluate_many(va, self.DOCS, limit=1, workers=2)
        assert all(len(relation) <= 1 for relation in limited)

    def test_unpicklable_query_falls_back_to_sequential(self):
        from repro.algebra import Instantiation, RAQuery
        from repro.algebra.ra_tree import Difference, Leaf
        from repro.regex import parse

        tree = Difference(Leaf("a"), Leaf("c"))
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "c": RelationSpanner(lambda doc: [], {"x"}),
            }
        )
        query = RAQuery(tree, inst)
        serial = query.evaluate_many(self.DOCS)
        parallel = RAQuery(tree, inst).evaluate_many(self.DOCS, workers=2)
        assert parallel == serial
        assert query.engine.stats.parallel_shards == 0

    def test_ra_query_parallel_matches_sequential(self):
        from repro.algebra import Instantiation, RAQuery
        from repro.algebra.ra_tree import Difference, Leaf
        from repro.regex import parse

        tree = Difference(Leaf("a"), Leaf("c"))
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "c": parse("(a|b)*x{a}(a|b)*"),
            }
        )
        serial = RAQuery(tree, inst).evaluate_many(self.DOCS)
        engine = Engine()
        parallel = RAQuery(tree, inst, engine=engine).evaluate_many(
            self.DOCS, workers=2
        )
        assert parallel == serial
        assert engine.stats.parallel_shards == 2

    def test_regex_formulas_pickle_roundtrip(self):
        import pickle

        from repro.regex import parse

        formula = parse("(a|b)*x{(a|b)+}y{a}")
        clone = pickle.loads(pickle.dumps(formula))
        assert clone == formula
        assert clone.to_text() == formula.to_text()


def regex_to_va_text(text: str):
    from repro.regex import parse

    return regex_to_va(parse(text))
