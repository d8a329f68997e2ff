"""The compiled-plan cache: static prefixes compile once, ad-hoc suffixes
per document, and the engine's statistics expose which happened."""

import random

import pytest

from repro import (
    Difference,
    Engine,
    Instantiation,
    Join,
    Leaf,
    PlannerConfig,
    Project,
    RAQuery,
    UnionNode,
    parse,
)
from repro.algebra import sync_difference
from repro.core import Mapping, NotSequentialError, SpanRelation, SpannerError
from repro.core.spanner import RelationSpanner
from repro.algebra import fpt_join, synchronized_difference
from repro.algebra.planner import compile_static_atom, evaluate_ra
from repro.engine.plan import (
    BlackboxNode,
    DifferencePlanNode,
    StaticNode,
    SyncDifferencePlanNode,
    build_plan,
)
from repro.va import VA, evaluate_va, is_sequential, open_op
from repro.workloads.students import (
    STUDENTS_DOCUMENT,
    alpha_info,
    alpha_recommendation,
    alpha_student_mail,
    alpha_student_phone,
    alpha_uk_mail,
    generate_students,
)

from .conftest import BACKEND_LEGS


def _static_query():
    tree = Project(Join(Leaf("a"), Leaf("b")), frozenset({"x"}))
    inst = Instantiation(
        spanners={
            "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
            "b": parse("(a|b)*x{(a|b)+}y{(a|b)*}"),
        }
    )
    return tree, inst


def _adhoc_query():
    tree = Difference(Leaf("a"), Leaf("c"))
    inst = Instantiation(
        spanners={
            "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
            "c": parse("(a|b)*x{a}(a|b)*"),
        }
    )
    return tree, inst


@pytest.fixture
def sync_builds(monkeypatch):
    """Records the minuend of every Theorem 4.8 prepared-form build: each
    build splits its minuend into used-set components exactly once."""
    minuends = []
    split = sync_difference.used_set_components

    def counting(va, shared):
        minuends.append(va)
        return split(va, shared)

    monkeypatch.setattr(sync_difference, "used_set_components", counting)
    return minuends


class TestPlanStructure:
    def test_fully_static_tree_collapses_to_one_node(self):
        tree, inst = _static_query()
        plan = build_plan(tree, inst)
        assert plan.is_fully_static
        assert isinstance(plan.root, StaticNode)
        assert plan.n_static == 1 and plan.n_adhoc == 0

    def test_difference_keeps_static_children_fused(self):
        tree, inst = _adhoc_query()
        plan = build_plan(tree, inst)
        assert not plan.is_fully_static
        assert isinstance(plan.root, DifferencePlanNode)
        assert isinstance(plan.root.left, StaticNode)
        assert isinstance(plan.root.right, StaticNode)
        assert plan.n_static == 2 and plan.n_adhoc == 1

    def test_blackbox_leaf_is_adhoc(self):
        blackbox = RelationSpanner(
            lambda doc: [Mapping({"b": doc.full_span()})], {"b"}
        )
        tree = UnionNode(Leaf("a"), Leaf("bb"))
        inst = Instantiation(
            spanners={"a": parse("x{a*}"), "bb": blackbox}
        )
        plan = build_plan(tree, inst)
        assert not plan.is_fully_static
        assert isinstance(plan.root.right, BlackboxNode)
        # The regex half of the union is still fused statically.
        assert isinstance(plan.root.left, StaticNode)
        assert build_plan(Leaf("a"), inst).is_fully_static

    def test_static_join_bound_checked_at_build_time(self):
        tree, inst = _static_query()
        with pytest.raises(SpannerError):
            build_plan(tree, inst, PlannerConfig(max_shared=0))


class TestPlanCacheBehaviour:
    def test_static_plan_compiles_once_across_documents(self):
        tree, inst = _static_query()
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        query.evaluate("abab")
        query.evaluate("ba")
        query.evaluate("abab")
        stats = engine.stats
        assert stats.plan_misses == 1
        assert stats.plan_hits == 2
        assert stats.adhoc_compiles == 0
        assert stats.document_misses == 1  # prepared once, ever
        assert stats.document_hits == 2

    def test_adhoc_suffix_recompiles_per_document(self):
        tree, inst = _adhoc_query()
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        query.evaluate("abab")
        query.evaluate("ba")
        stats = engine.stats
        assert stats.plan_misses == 1 and stats.plan_hits == 1
        # One DifferencePlanNode compiled per document; its two static
        # children are served from the plan both times.
        assert stats.adhoc_compiles == 2
        assert stats.static_reuses == 4
        assert stats.document_misses == 2 and stats.document_hits == 0

    def test_sync_difference_prepared_once_for_static_children(self, sync_builds):
        tree, inst = _adhoc_query()
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        assert isinstance(engine.prepare(query).plan.root, SyncDifferencePlanNode)
        for doc in ("abab", "ba", "aab"):
            query.evaluate(doc)
        # Theorem 4.8's document-independent half is built on the first
        # document and kept; the node still compiles once per document.
        assert len(sync_builds) == 1
        assert engine.stats.adhoc_compiles == 3
        assert engine.stats.static_reuses == 6

    def test_sync_difference_over_adhoc_minuend_prepares_per_document(
        self, sync_builds
    ):
        tree = Difference(Difference(Leaf("a"), Leaf("c")), Leaf("d"))
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "c": parse("(a|b)*x{a}(a|b)*"),
                "d": parse("(a|b)*x{b}(a|b)*"),
            }
        )
        engine = Engine()
        query = RAQuery(tree, inst, engine=engine)
        root = engine.prepare(query).plan.root
        assert isinstance(root, SyncDifferencePlanNode)
        assert isinstance(root.left, SyncDifferencePlanNode)
        for count, doc in enumerate(("abab", "bab", "aabb"), start=1):
            assert query.evaluate(doc)
            # The inner node built its half once; the outer node, whose
            # minuend is the inner node's per-document automaton, builds
            # one per document.
            assert len(sync_builds) == 1 + count

    def test_failed_sync_difference_build_raises_on_every_evaluation(self):
        # The minuend opens x and never closes it.  The optimizer checks
        # only the subtrahend, so the plan builds; the Theorem 4.8 build
        # raises at evaluation, and since a failed build is not kept, it
        # raises again on the next call.
        unclosed = VA(0, (2,), [(0, open_op("x"), 1), (1, "a", 2)])
        inst = Instantiation(spanners={"a": unclosed, "c": parse("x{a}")})
        engine = Engine()
        query = RAQuery(Difference(Leaf("a"), Leaf("c")), inst, engine=engine)
        assert isinstance(engine.prepare(query).plan.root, SyncDifferencePlanNode)
        for _ in range(2):
            with pytest.raises(NotSequentialError):
                engine.evaluate(query, "a")

    def test_document_cache_serves_repeated_documents(self):
        tree, inst = _adhoc_query()
        engine = Engine(document_cache_size=4)
        query = RAQuery(tree, inst, engine=engine)
        for doc in ("abab", "ba", "abab", "abab"):
            query.evaluate(doc)
        stats = engine.stats
        assert stats.document_misses == 2
        assert stats.document_hits == 2
        assert stats.adhoc_compiles == 2  # only the two distinct documents

    def test_document_cache_evicts_lru(self):
        tree, inst = _adhoc_query()
        engine = Engine(document_cache_size=1)
        query = RAQuery(tree, inst, engine=engine)
        query.evaluate("abab")
        query.evaluate("ba")    # evicts "abab"
        query.evaluate("abab")  # miss again
        assert engine.stats.document_misses == 3
        assert engine.stats.document_hits == 0

    def test_plan_cache_lru_eviction(self):
        engine = Engine(plan_cache_size=1)
        tree_a, inst_a = _static_query()
        tree_b, inst_b = _adhoc_query()
        engine.evaluate(RAQuery(tree_a, inst_a), "ab")
        engine.evaluate(RAQuery(tree_b, inst_b), "ab")
        engine.evaluate(RAQuery(tree_a, inst_a), "ab")  # was evicted
        assert engine.stats.plan_misses == 3
        assert engine.stats.plan_hits == 0

    def test_equal_queries_share_one_plan(self):
        tree, inst = _static_query()
        engine = Engine()
        engine.evaluate(RAQuery(tree, inst), "ab")
        engine.evaluate(RAQuery(tree, inst), "ba")  # distinct RAQuery object
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1

    def test_bare_va_queries_are_cached_by_identity(self):
        from repro.va import regex_to_va, trim

        va = trim(regex_to_va(parse("x{a*}b")))
        engine = Engine()
        assert engine.evaluate(va, "aab") == engine.evaluate(va, "aab")
        assert engine.stats.plan_misses == 1
        assert engine.stats.plan_hits == 1


class TestEngineMatchesPlanner:
    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_mixed_tree_matches_one_shot_planner(self, backend):
        tree = Project(
            Difference(Join(Leaf("a"), Leaf("b")), Leaf("c")), frozenset({"x"})
        )
        inst = Instantiation(
            spanners={
                "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
                "b": parse("(a|b)*x{(a|b)+}y{(a|b)*}"),
                "c": parse("(a|b)*x{a}(a|b)*"),
            }
        )
        config = PlannerConfig(max_shared=2)
        engine = Engine(backend=backend)
        for doc in ("abab", "", "b", "aabba"):
            assert engine.evaluate(
                RAQuery(tree, inst, config), doc
            ) == evaluate_ra(tree, inst, doc, config)

    def test_blackbox_query_matches_one_shot_planner(self):
        blackbox = RelationSpanner(
            lambda doc: [Mapping({"b": doc.full_span()})], {"b"}
        )
        tree = UnionNode(Leaf("a"), Leaf("bb"))
        inst = Instantiation(spanners={"a": parse("x{a*}"), "bb": blackbox})
        engine = Engine()
        for doc in ("ab", "", "ba"):
            assert engine.evaluate(RAQuery(tree, inst), doc) == evaluate_ra(
                tree, inst, doc
            )


def _student_queries() -> dict:
    """Figure 2's π_xstdnt((αsm ⋈ αsp) ∖ αnr) and Example 2.4's
    αinfo ∖ αUKm; the optimizer lowers both differences to Theorem 4.8."""
    return {
        "figure2": RAQuery(
            Project(Difference(Join(Leaf("sm"), Leaf("sp")), Leaf("nr")), "keep"),
            Instantiation(
                spanners={
                    "sm": alpha_student_mail(),
                    "sp": alpha_student_phone(),
                    "nr": alpha_recommendation(),
                },
                projections={"keep": frozenset({"xstdnt"})},
            ),
            PlannerConfig(max_shared=2),
        ),
        "example2.4": RAQuery(
            Difference(Leaf("info"), Leaf("uk")),
            Instantiation(spanners={"info": alpha_info(), "uk": alpha_uk_mail()}),
        ),
    }


class TestSyncDifferenceAcrossDocuments:
    """One engine keeps each query's Theorem 4.8 prepared form across
    interleaved documents; every answer must be the one a fresh engine and
    the Lemma 4.2 route (``optimize=False``) give."""

    #: Student lists that both subtrahends match and both queries survive.
    LISTED = tuple(
        generate_students(6, random.Random(seed), with_recommendation=0.3).text
        for seed in (1, 8)
    )
    #: Neither a recommendation nor a UK mail: both subtrahends extract
    #: nothing, so the compilation returns the minuend.
    UNMATCHED = "Rodion Raskolnikov rr@edu.ru\nZosimov 6222345 mov@edu.ru\n"
    #: Letters outside Example 2.1's alphabet.
    FOREIGN = "Åsa Ørsted 6222345 ao@edu.uk\n"
    DOCUMENTS = (
        LISTED[0],
        "",
        UNMATCHED,
        STUDENTS_DOCUMENT.text,
        FOREIGN,
        LISTED[1],
        LISTED[0],
        "",
        STUDENTS_DOCUMENT.text,
        UNMATCHED,
        LISTED[1],
    )

    def test_documents_cover_both_subtrahend_outcomes(self):
        engine = Engine()
        subtrahends = {"nr": alpha_recommendation(), "uk": alpha_uk_mail()}
        for name, formula in subtrahends.items():
            alone = RAQuery(Leaf(name), Instantiation(spanners={name: formula}))
            for listed in self.LISTED:
                assert engine.evaluate(alone, listed), name
            assert not engine.evaluate(alone, self.UNMATCHED), name
        for query in _student_queries().values():
            for listed in self.LISTED:
                assert engine.evaluate(query, listed)

    def test_shared_engine_matches_fresh_and_lemma_4_2(self, sync_builds):
        queries = _student_queries()
        shared = Engine()
        for query in queries.values():
            plan = shared.prepare(query).plan
            assert any(isinstance(n, SyncDifferencePlanNode) for n in plan.root.walk())
        answers = [
            (name, doc, list(shared.enumerate(query, doc)))
            for doc in self.DOCUMENTS
            for name, query in queries.items()
        ]
        assert len(sync_builds) == len(queries)  # one build per plan
        lemma_4_2 = Engine(optimize=False)
        for name, doc, got in answers:
            query = queries[name]
            assert got == list(Engine().enumerate(query, doc)), (name, doc)
            assert SpanRelation(got) == lemma_4_2.evaluate(query, doc), (name, doc)

    def test_public_apis_return_sequential_vas(self):
        # The engine runs the product's dense per-document form; the APIs
        # that return a VA build its VA view, which must agree with the
        # engine on every document, the early answers included.
        queries = _student_queries()
        atom = compile_static_atom
        figure2 = queries["figure2"]
        operands = {
            "figure2": (
                fpt_join(atom(alpha_student_mail()), atom(alpha_student_phone())),
                atom(alpha_recommendation()),
            ),
            "example2.4": (atom(alpha_info()), atom(alpha_uk_mail())),
        }
        differences = {
            "figure2": RAQuery(figure2.tree.child, figure2.instantiation, figure2.config),
            "example2.4": queries["example2.4"],
        }
        engine = Engine()
        for doc in dict.fromkeys(self.DOCUMENTS):
            for name, query in queries.items():
                expected = engine.evaluate(query, doc)
                for compiled in (engine.compile(query, doc), query.compile(doc)):
                    assert isinstance(compiled, VA) and is_sequential(compiled), name
                    assert evaluate_va(compiled, doc) == expected, (name, doc)
                compiled = synchronized_difference(*operands[name], doc)
                assert isinstance(compiled, VA) and is_sequential(compiled), name
                assert evaluate_va(compiled, doc) == engine.evaluate(
                    differences[name], doc
                ), (name, doc)
