"""Execution guards: deadlines, cancellation, budgets, degradation modes.

The acceptance workload is the Prop. 4.10 reduction's γ1 on ``(bab)^n`` —
2^n mappings from an O(n) query, the worst case the paper's lower bounds
promise — pinned to trip a 100 ms deadline on every backend at the first
clock read past it, at most one tick stride after the read before, with
exactly the mappings the walk emits before that read as its partial.
"""

import time

import pytest

from repro import Instantiation, Leaf, RAQuery, regex_to_va, trim
from repro.core import (
    BudgetExceeded,
    DeadlineExceeded,
    ExecutionCancelled,
    Mapping,
    RelationSpanner,
    SpannerError,
)
from repro.engine import (
    Budget,
    CancelToken,
    Engine,
    ExecutionGuard,
)
from repro.engine.guards import exception_for
from repro.regex import parse
from repro.reductions.sat import CNF
from repro.reductions.tovey import build_tovey_instance
from repro.testing import FaultPlan, injected

from .conftest import BACKEND_LEGS

#: One document per walk of the indexed backend: text takes the letter
#: walk, a document of long runs the run walk.
WALK_DOCUMENTS = pytest.mark.parametrize("doc", ["abab", "aaaabbbb"])


def _va(formula: str):
    return trim(regex_to_va(parse(formula)))


def tovey_workload(n: int = 16):
    """γ1 on (bab)^n — 2^n mappings; the adversarial guard workload."""
    cnf = CNF(n, tuple((i, i % n + 1) for i in range(1, n)))
    instance = build_tovey_instance(cnf)
    return trim(regex_to_va(instance.gamma1)), instance.document


class TestBudgetParsing:
    def test_spec_string_with_suffixes(self):
        budget = Budget.parse("mappings=10k,cache-bytes=64m")
        assert budget.mappings == 10_000
        assert budget.cache_bytes == 64_000_000
        assert budget.states is None and budget.edge_rows is None

    def test_underscore_and_hyphen_keys_agree(self):
        assert Budget.parse("edge_rows=5") == Budget.parse("edge-rows=5")

    def test_g_suffix_and_underscored_digits(self):
        assert Budget.parse("states=1g").states == 1_000_000_000
        assert Budget.parse("mappings=1_000").mappings == 1_000

    def test_bad_key_rejected(self):
        with pytest.raises(SpannerError, match="bad budget entry"):
            Budget.parse("rows=10")

    def test_bad_amount_rejected(self):
        with pytest.raises(SpannerError, match="not an integer"):
            Budget.parse("mappings=lots")

    def test_empty_spec_rejected(self):
        with pytest.raises(SpannerError, match="sets no limits"):
            Budget.parse(" , ")

    def test_coerce_accepts_dict_budget_and_none(self):
        assert Budget.coerce(None) is None
        budget = Budget(mappings=3)
        assert Budget.coerce(budget) is budget
        assert Budget.coerce({"mappings": 3}) == budget
        assert Budget.coerce("mappings=3") == budget
        with pytest.raises(SpannerError, match="cannot read a budget"):
            Budget.coerce(3.5)


class TestCancelToken:
    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("user hit ^C")
        token.cancel("second reason")
        assert token.cancelled
        assert token.reason == "user hit ^C"

    @WALK_DOCUMENTS
    def test_cancelled_token_trips_every_entry_point(self, doc):
        va = _va("[ab]*x{[ab]+}[ab]*")
        token = CancelToken()
        token.cancel()
        engine = Engine()
        with pytest.raises(ExecutionCancelled):
            engine.evaluate(va, doc, cancel=token)
        with pytest.raises(ExecutionCancelled):
            engine.first(va, doc, cancel=token)
        with pytest.raises(ExecutionCancelled):
            engine.is_nonempty(va, doc, cancel=token)

    def test_exception_for_maps_reasons_to_taxonomy(self):
        assert exception_for("deadline") is DeadlineExceeded
        assert exception_for("cancelled") is ExecutionCancelled
        assert exception_for("budget:mappings") is BudgetExceeded


class TestBudgetEnforcement:
    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_raise_mode_carries_exact_prefix_and_stats(self, backend):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine(backend=backend)
        full = list(engine.enumerate(va, "abab"))
        assert len(full) > 3
        with pytest.raises(BudgetExceeded) as info:
            engine.evaluate(va, "abab", budget="mappings=3")
        exc = info.value
        assert exc.reason == "budget:mappings"
        # SpanRelation canonicalises order; prefix-ness is a set property
        # against the enumeration-order prefix.
        assert set(exc.partial) == set(full[:3])
        assert exc.stats is not None and exc.stats.budget_hits >= 1

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_partial_mode_returns_truncated_prefix(self, backend):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine(backend=backend)
        full = list(engine.enumerate(va, "abab"))
        relation = engine.evaluate(
            va, "abab", budget="mappings=3", on_budget="partial"
        )
        assert relation.truncated
        assert set(relation) == set(full[:3])

    def test_budget_larger_than_result_never_trips(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        full = engine.evaluate(va, "abab")
        guarded = engine.evaluate(va, "abab", budget="mappings=1000")
        assert guarded == full
        assert not guarded.truncated

    def test_cache_bytes_budget_trips_letter_walk_construction(self):
        # The kernel's letter-walk caches are gauged once per guarded
        # letter-walk construction; the run walk builds no nodes.
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        full = engine.evaluate(va, "abab")
        with pytest.raises(BudgetExceeded, match="cache-bytes") as info:
            engine.evaluate(va, "abab", budget="cache-bytes=1")
        assert info.value.reason == "budget:cache-bytes"
        assert len(info.value.partial) == 0  # tripped before the DFS
        relation = engine.evaluate(
            va, "abab", budget="cache-bytes=1", on_budget="partial"
        )
        assert relation.truncated and len(relation) == 0
        assert engine.evaluate(va, "abab", budget="cache-bytes=64m") == full
        runs = "aaaabbbb"
        assert engine.evaluate(va, runs, budget="cache-bytes=1") == engine.evaluate(
            va, runs
        )

    def test_guards_without_a_cache_budget_never_gauge_one(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        full = engine.evaluate(va, "abab")
        assert va.indexed().kernel().cache_bytes_estimate() > 1
        for budget in ("mappings=1000", "states=1m,edge-rows=1m"):
            assert engine.evaluate(va, "abab", budget=budget) == full
        assert engine.evaluate(va, "abab", guard=ExecutionGuard(deadline=60.0)) == full

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_edge_row_budget_trips_enumeration(self, backend):
        va, doc = tovey_workload(10)
        engine = Engine(backend=backend)
        with pytest.raises(BudgetExceeded, match="edge-rows"):
            engine.evaluate(va, doc, budget="edge-rows=5")

    def test_states_budget_trips_alive_materialisation(self):
        va, doc = tovey_workload(10)
        engine = Engine(backend="indexed")
        with pytest.raises(BudgetExceeded, match="states"):
            engine.evaluate(va, doc, budget="states=4")

    def test_decision_calls_raise_even_in_partial_mode(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        token = CancelToken()
        token.cancel()
        guard = ExecutionGuard(cancel=token, on_budget="partial")
        with pytest.raises(ExecutionCancelled):
            engine.first(va, "abab", guard=guard)
        guard = ExecutionGuard(cancel=token, on_budget="partial")
        with pytest.raises(ExecutionCancelled):
            engine.is_nonempty(va, "abab", guard=guard)

    def test_guard_counters_flow_into_stats_summary(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        relation = engine.evaluate(
            va, "abab", budget="mappings=2", on_budget="partial"
        )
        assert relation.truncated
        assert engine.stats.guard_checks > 0
        assert engine.stats.budget_hits >= 1
        assert "guard checks" in engine.stats.summary()


class TestDeadlines:
    @WALK_DOCUMENTS
    def test_clock_skew_fault_trips_immediately(self, doc):
        # Arm the guard first, then skew the clock: the deadline
        # arithmetic observes a 1-hour jump without any sleeping.
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        guard = ExecutionGuard(deadline=60.0)
        with injected(FaultPlan(clock_skew=3600.0)):
            with pytest.raises(DeadlineExceeded) as info:
                engine.evaluate(va, doc, guard=guard)
        assert info.value.reason == "deadline"
        assert info.value.stats is not None

    @WALK_DOCUMENTS
    def test_partial_mode_absorbs_deadline(self, doc):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        guard = ExecutionGuard(deadline=60.0, on_budget="partial")
        with injected(FaultPlan(clock_skew=3600.0)):
            relation = engine.evaluate(va, doc, guard=guard)
        assert relation.truncated

    @pytest.mark.parametrize("backend", BACKEND_LEGS, indirect=True)
    def test_adversarial_deadline_acceptance(self, backend):
        """γ1 on (bab)^16 (65536 mappings), 100 ms deadline, warm plan:
        DeadlineExceeded at the first clock read past the deadline, at
        most ``TICK_STRIDE`` ticks after the read before it, carrying
        exactly the mappings the same walk emits before that read.

        Both bounds are in guard units, not wall-clock time: a host pause
        (a debug allocator, a garbage collection) stretches the time
        between reads but adds no ticks.  A pause may trip the deadline
        before the first mapping, and then the partial is empty."""
        reads: list[tuple[int, float]] = []  # (ticks so far, clock value)
        ticks = 0
        tripped_at: list[int] = []  # index into `reads` of the tripping read

        class CountingGuard(ExecutionGuard):
            def tick(self):
                nonlocal ticks
                ticks += 1
                super().tick()

            def check(self):
                try:
                    super().check()
                except DeadlineExceeded:
                    tripped_at.append(len(reads) - 1)
                    raise

        def clock():
            now = time.monotonic()
            reads.append((ticks, now))
            return now

        va, doc = tovey_workload(16)
        engine = Engine(backend=backend)
        engine.prepare(va)  # warm: measure evaluation, not compilation
        guard = CountingGuard(deadline=0.1, clock=clock)
        with pytest.raises(DeadlineExceeded) as info:
            engine.evaluate(va, doc, guard=guard)
        deadline_at = reads[0][1] + 0.1  # the guard reads the clock when armed
        first_past = next(
            i for i, (_, now) in enumerate(reads) if now > deadline_at
        )
        assert tripped_at == [first_past], (backend, tripped_at, first_past)
        ticks_since_last_read = reads[first_past][0] - reads[first_past - 1][0]
        assert ticks_since_last_read <= ExecutionGuard.TICK_STRIDE, backend
        # The same warm walk under a guard with no limits ticks the same
        # way; a mapping it emits after t ticks precedes the tripping
        # read exactly when t is below that read's tick count.
        tripped_ticks = reads[first_past][0]
        ticks = 0
        prefix = []
        for mapping in engine.enumerate(va, doc, guard=CountingGuard()):
            if ticks >= tripped_ticks:
                break
            prefix.append(mapping)
        assert len(prefix) < 65536
        assert set(info.value.partial) == set(prefix), backend


class TestBatchGuards:
    def test_shared_budget_truncates_batch_in_partial_mode(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        docs = ["abab", "abab", "abab"]
        full = engine.evaluate_many(va, docs)
        relations = engine.evaluate_many(
            va, docs, budget="mappings=12", on_budget="partial"
        )
        assert len(relations) == 3
        assert relations[0] == full[0]  # 10 mappings, under budget
        assert relations[1].truncated
        assert len(relations[1]) == 2  # 10 + 2 hits the shared ceiling
        assert relations[2].truncated and len(relations[2]) == 0

    def test_shared_budget_raises_with_completed_relations(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        docs = ["abab", "abab"]
        with pytest.raises(BudgetExceeded) as info:
            engine.evaluate_many(va, docs, budget="mappings=12")
        assert len(info.value.partial) == 1  # doc 0 completed before trip

    def test_enumerate_stream_respects_budget(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        pairs = list(
            engine.enumerate_stream(
                va, ["abab", "abab"], budget="mappings=3",
                on_budget="partial",
            )
        )
        assert len(pairs) == 3
        assert all(index == 0 for index, _mapping in pairs)

    def test_is_nonempty_many_always_raises_on_trip(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        token = CancelToken()
        token.cancel()
        with pytest.raises(ExecutionCancelled):
            engine.is_nonempty_many(va, ["abab", "bb"], cancel=token)


class TestParallelGuards:
    def test_deadline_propagates_to_shards(self):
        va, doc = tovey_workload(14)
        engine = Engine()
        docs = [doc.text, doc.text]
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as info:
            engine.evaluate_many(va, docs, workers=2, deadline=0.1)
        elapsed = time.perf_counter() - start
        assert info.value.reason == "deadline"
        # Worker spawn dominates; the bar is "bounded", not "instant".
        assert elapsed < 30.0
        assert engine.stats.parallel_shards == 2

    def test_partial_mode_merges_truncated_shards(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        engine = Engine()
        docs = ["abab"] * 4
        relations = engine.evaluate_many(
            va, docs, workers=2, budget="mappings=3", on_budget="partial"
        )
        assert len(relations) == 4
        assert any(r.truncated for r in relations)

    def test_pickle_fallback_reason_is_recorded(self):
        # A black-box atom over a lambda cannot be shipped to a worker, so
        # the batch is answered in-process and says why.
        blackbox = RelationSpanner(
            lambda doc: [Mapping({"x": doc.full_span()})], {"x"}
        )
        query = RAQuery(Leaf("a"), Instantiation(spanners={"a": blackbox}))
        engine = Engine()
        relations = engine.evaluate_many(query, ["a", "ab"], workers=2)
        assert [len(r) for r in relations] == [1, 1]
        assert engine.stats.parallel_shards == 0
        # The error pickle raises for a local lambda varies by version.
        (reason,) = engine.stats.parallel_fallbacks
        assert reason.startswith("pickle: ")
        assert engine.stats.parallel_fallbacks[reason] == 1
        assert "serial fallbacks" in engine.stats.summary()
