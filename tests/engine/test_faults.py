"""The fault-injection harness and the degradation paths it exercises:
sqlite contention retries, store-corruption classification, and worker
shard crashes reaped by the parallel path."""

import sqlite3

import pytest

from repro import regex_to_va, trim
from repro.core import SpannerError, StoreBusy, StoreCorrupt
from repro.corpus import CorpusError, CorpusStore
from repro.corpus.store import OPEN_COUNT
from repro.engine import Engine
from repro.regex import parse
from repro.testing import (
    FaultPlan,
    activate,
    active_plan,
    deactivate,
    injected,
    plan_from_env,
)
from repro.testing.faults import CI_PROFILE, clock, sqlite_error


def _va(formula: str):
    return trim(regex_to_va(parse(formula)))


@pytest.fixture(autouse=True)
def _pristine_faults():
    """These tests pin exact fault counts, so run them from a clean slate
    even when the suite-wide REPRO_FAULTS plan is active; restore the
    ambient plan afterwards."""
    ambient = active_plan()
    deactivate()
    yield
    deactivate()
    if ambient is not None:
        activate(ambient)


class TestFaultPlan:
    def test_deterministic_per_site_streams(self):
        a = FaultPlan(seed=7, sqlite_error_rate=0.5)
        b = FaultPlan(seed=7, sqlite_error_rate=0.5)
        pattern_a = [a.should_fire("s", 0.5) for _ in range(32)]
        pattern_b = [b.should_fire("s", 0.5) for _ in range(32)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_sites_draw_independent_streams(self):
        plan = FaultPlan(seed=7)
        first = [plan.should_fire("one", 0.5) for _ in range(16)]
        second = [plan.should_fire("two", 0.5) for _ in range(16)]
        assert first != second  # astronomically unlikely to collide

    def test_max_faults_per_site_caps_firing(self):
        plan = FaultPlan(seed=0, max_faults_per_site=2)
        fired = sum(plan.should_fire("s", 1.0) for _ in range(10))
        assert fired == 2
        assert plan.fired("s") == 2

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=0)
        assert not any(plan.should_fire("s", 0.0) for _ in range(10))

    def test_injected_scopes_activation(self):
        assert active_plan() is None
        with injected(FaultPlan(seed=1)) as plan:
            assert active_plan() is plan
        assert active_plan() is None

    def test_activate_deactivate(self):
        plan = activate(FaultPlan(seed=2))
        try:
            assert active_plan() is plan
        finally:
            deactivate()
        assert active_plan() is None

    def test_plan_from_env_values(self):
        assert plan_from_env("") is None
        assert plan_from_env("off") is None
        ci = plan_from_env("ci")
        assert ci is not None and ci.seed == CI_PROFILE["seed"]
        seeded = plan_from_env("123")
        assert seeded is not None and seeded.seed == 123
        assert seeded.sqlite_error_rate == CI_PROFILE["sqlite_error_rate"]
        with pytest.raises(ValueError, match="REPRO_FAULTS"):
            plan_from_env("banana")

    def test_clock_skew_shifts_monotonic(self):
        base = clock()
        with injected(FaultPlan(clock_skew=1000.0)):
            assert clock() >= base + 999.0
        assert clock() < base + 999.0

    def test_sqlite_site_raises_operational_error(self):
        import sqlite3

        with injected(FaultPlan(sqlite_error_rate=1.0)):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                sqlite_error("anywhere")
        sqlite_error("anywhere")  # no plan: never raises


class TestStoreRetries:
    def test_capped_busy_faults_are_absorbed(self, tmp_path):
        # Rate 1.0 capped at 2: the first two store statements fail, the
        # bounded retry rides through, and the operation still succeeds.
        with injected(
            FaultPlan(seed=0, sqlite_error_rate=1.0, max_faults_per_site=2)
        ):
            with CorpusStore(tmp_path / "corpus.sqlite") as store:
                ids = store.add_many(["abc", "abd"])
                assert len(ids) == 2
                assert store.retries >= 2

    def test_capped_busy_faults_are_absorbed_by_an_append(self, tmp_path):
        with CorpusStore(tmp_path / "corpus.sqlite") as store:
            doc_id = store.add("abc")
            with injected(
                FaultPlan(seed=0, sqlite_error_rate=1.0, max_faults_per_site=2)
            ):
                grown = store.append(doc_id, "cab")
            assert grown.text == "abccab"
            assert store.retries >= 2
            assert store.verify() == []
            assert list(store.posting("a")[1]) == [OPEN_COUNT]

    def test_retried_append_reloads_the_postings_it_opened(self, tmp_path):
        # The first attempt opens the counts in memory, then fails before
        # they are written: the retry must find them exact again.
        with CorpusStore(tmp_path / "corpus.sqlite") as store:
            doc_id = store.add("abc")
            flush = store._flush_postings
            failures = []

            def flaky_flush(letters):
                if not failures:
                    failures.append(letters)
                    raise sqlite3.OperationalError("database is locked")
                flush(letters)

            store._flush_postings = flaky_flush
            store.append(doc_id, "cab")
            assert failures and store.retries == 1
            assert store.verify() == []
            assert list(store.posting("a")[1]) == [OPEN_COUNT]

    def test_uncapped_busy_exhausts_into_store_busy(self, tmp_path):
        with CorpusStore(tmp_path / "corpus.sqlite") as store:
            store.add("abc")
            with injected(FaultPlan(seed=0, sqlite_error_rate=1.0)):
                with pytest.raises(StoreBusy, match="stayed locked"):
                    store.text(1)

    def test_store_busy_is_a_spanner_error(self):
        assert issubclass(StoreBusy, SpannerError)
        assert issubclass(StoreCorrupt, SpannerError)

    def test_corrupt_file_raises_store_corrupt_with_hint(self, tmp_path):
        path = tmp_path / "corpus.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.raises(StoreCorrupt, match="rebuild --verify"):
            CorpusStore(path, read_only=True)

    def test_empty_file_still_reports_not_a_store(self, tmp_path):
        # An empty file is a valid (empty) sqlite database with no schema:
        # that is a missing-schema error, not corruption.
        path = tmp_path / "corpus.sqlite"
        path.write_bytes(b"")
        with pytest.raises(CorpusError, match="not a corpus store"):
            CorpusStore(path, read_only=True)

    def test_engine_surfaces_store_retries_in_stats(self, tmp_path):
        with CorpusStore(tmp_path / "corpus.sqlite") as store:
            store.add_many(["abab", "bb"])
            # Build the selection outside the fault window so the first
            # injected failure lands inside the engine's evaluation.
            selection = store.select(store.doc_ids())
            engine = Engine()
            with injected(
                FaultPlan(seed=0, sqlite_error_rate=1.0, max_faults_per_site=1)
            ):
                relations = engine.evaluate_many(
                    _va("[ab]*x{a}[ab]*"), selection
                )
        assert sum(len(r) for r in relations) > 0
        assert engine.stats.store_retries >= 1
        assert "store retries" in engine.stats.summary()


class TestShardCrashReaping:
    def test_crashed_shards_are_recomputed_serially(self):
        # Rate 1.0: every worker process hard-exits on entry, the pool
        # breaks, and every shard is recomputed in-parent (where the
        # crash site is disabled) — results identical, retries counted.
        va = _va("[ab]*x{[ab]+}[ab]*")
        docs = ["abab", "abba", "bbaa", "ab"]
        baseline = Engine().evaluate_many(va, docs)
        engine = Engine()
        with injected(FaultPlan(seed=0, shard_crash_rate=1.0)):
            relations = engine.evaluate_many(va, docs, workers=2)
        assert relations == baseline
        assert engine.stats.shard_retries == 2
        assert "shard retries" in engine.stats.summary()

    def test_capped_crashes_still_produce_full_results(self):
        va = _va("[ab]*x{[ab]+}[ab]*")
        docs = ["abab", "abba", "bbaa", "ab"]
        baseline = Engine().evaluate_many(va, docs)
        engine = Engine()
        with injected(
            FaultPlan(seed=3, shard_crash_rate=0.5, max_faults_per_site=1)
        ):
            relations = engine.evaluate_many(va, docs, workers=2)
        assert relations == baseline
