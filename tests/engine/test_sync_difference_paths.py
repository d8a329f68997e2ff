"""Theorem 4.8's per-document products on every engine path.

The engine runs a synchronized difference as the dense per-document form
its sweep emits (:class:`~repro.va.indexed.LayeredIndexedVA`), projects
it as a form, and builds its VA view only for a parent that composes
automata.  Every path must answer as the Lemma 4.2 route
(``Engine(optimize=False)``) does, on every backend leg."""

import pytest

from repro import Difference, Engine, Instantiation, Join, Leaf, Project, RAQuery, UnionNode, parse
from repro.core import Document, Mapping, NotSequentialError, Span, SpannerError
from repro.engine.backends import PreparedIndexedVA
from repro.engine.plan import (
    DifferencePlanNode,
    JoinPlanNode,
    ProjectNode,
    SyncDifferencePlanNode,
    UnionPlanNode,
)
from repro.va import close_op, open_op
from repro.va.indexed import IndexedMatchGraph, LayeredIndexedVA

from .conftest import BACKEND_LEGS

SPANNERS = {
    "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
    "xy": parse("(a|b)*x{(a|b)+}y{(a|b)*}(a|b)*"),
    # Runs use x or not: two used-set components under one root.
    "x|y": parse("(a|b)*(x{(a|b)+}|y{b})(a|b)*"),
    # Synchronized for x: the optimizer lowers differences by it to
    # Theorem 4.8.
    "c": parse("(a|b)*x{a}(a|b)*"),
    "b": parse("(a|b)*x{b}(a|b)*"),
    "e": parse("(a|b)*x{b(a|b)*}(a|b)*"),
    # Two placements of x: not synchronized, so a difference by it stays
    # on Lemma 4.2.
    "u": parse("(a|b)*(x{b}|b x{a})(a|b)*"),
}

SYNC = Difference(Leaf("a"), Leaf("c"))

#: ``name: (tree, the plan root's type)``.
QUERIES = {
    "difference": (SYNC, SyncDifferencePlanNode),
    "two components": (Difference(Leaf("x|y"), Leaf("c")), SyncDifferencePlanNode),
    "projection": (Project(Difference(Leaf("xy"), Leaf("c")), frozenset({"y"})), ProjectNode),
    "union": (UnionNode(SYNC, Leaf("b")), UnionPlanNode),
    "join": (Join(SYNC, Leaf("e")), JoinPlanNode),
    "lemma-4.2": (Difference(SYNC, Leaf("u")), DifferencePlanNode),
}

#: Without an ``a`` the subtrahend extracts nothing, and the difference
#: answers with its minuend; ``c`` is a letter no operand reads.
DOCUMENTS = ("", "b", "a", "ab", "abab", "bab", "bbb", "aabb", "abc", "abab", "ba")


def _query(name: str) -> RAQuery:
    return RAQuery(QUERIES[name][0], Instantiation(spanners=SPANNERS))


class TestEveryPathMatchesLemma42:
    @pytest.mark.parametrize("name", QUERIES)
    def test_plan_shape(self, name):
        root = Engine().prepare(_query(name)).plan.root
        assert type(root) is QUERIES[name][1]
        assert any(isinstance(node, SyncDifferencePlanNode) for node in root.walk())
        if name == "lemma-4.2":
            assert isinstance(root.left, SyncDifferencePlanNode)

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    @pytest.mark.parametrize("name", QUERIES)
    def test_evaluate_first_and_emptiness(self, backend, name):
        query = _query(name)
        engine = Engine(backend=backend)
        lemma_4_2 = Engine(optimize=False)
        for doc in DOCUMENTS:
            expected = list(lemma_4_2.enumerate(query, doc))
            assert list(engine.enumerate(query, doc)) == expected, (name, doc)
            assert engine.first(query, doc) == (expected[0] if expected else None), (name, doc)
            assert engine.is_nonempty(query, doc) == bool(expected), (name, doc)


class TestTailOverSyncDifference:
    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    @pytest.mark.parametrize("name", ["difference", "two components", "projection"])
    def test_each_reevaluation_is_the_prefix_minus_emitted(self, backend, name):
        # "b" and "bb" take the difference's early answer, the minuend,
        # whose prepared form the engine keeps, so the second re-evaluation
        # extends the first's run; every later prefix holds an "a" and
        # runs its own per-document form.
        query = _query(name)
        engine = Engine(backend=backend)
        session = engine.tail(query)
        lemma_4_2 = Engine(optimize=False)
        emitted: set = set()
        text = ""
        for chunk in ("b", "b", "a", "", "ba", "b", "ab"):
            fresh = session.reevaluate(chunk)
            text += chunk
            expected = [m for m in lemma_4_2.enumerate(query, text) if m not in emitted]
            assert fresh == expected, (name, text)
            emitted.update(fresh)
            if "a" in text:
                assert isinstance(session._prepared.indexed, LayeredIndexedVA)
        assert engine.stats.tail_reused_layers == 1  # "bb" extended "b"
        assert session.total_matches == len(emitted) > 0


class TestLayeredForm:
    @staticmethod
    def _form(accept_ops) -> LayeredIndexedVA:
        """A form over "a" with one node per layer: the root opens x and
        reads the letter, and the last layer's node accepts performing
        ``accept_ops``."""
        opsets = [frozenset({open_op("x")}), frozenset(accept_ops)]
        return LayeredIndexedVA(Document("a"), opsets, [[((0, 1),)]], [(1,)])

    def test_sequentiality_is_checked_on_the_form(self):
        closed = self._form({close_op("x")})
        assert closed.is_sequential()
        assert list(IndexedMatchGraph(closed, "a").enumerate()) == [
            Mapping({"x": Span(1, 2)})
        ]
        for bad in (set(), {open_op("x"), close_op("x")}):
            form = self._form(bad)  # left open, or opened twice
            assert not form.is_sequential()
            with pytest.raises(NotSequentialError):
                PreparedIndexedVA(form)

    def test_runs_on_its_own_document_only(self):
        form = self._form({close_op("x")})
        with pytest.raises(SpannerError):
            IndexedMatchGraph(form, "b")

    def test_va_view_is_equivalent(self):
        form = self._form({close_op("x")})
        graph = IndexedMatchGraph(form, "a")
        assert form.va.variables == {"x"}
        assert list(Engine().enumerate(form.va, "a")) == list(graph.enumerate())
