"""The engine's batch/streaming APIs, statistics, backend selection, the
Spanner batch protocol, and evaluation without numpy."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import (
    Difference,
    Engine,
    Instantiation,
    Leaf,
    RAQuery,
    compile_spanner,
    parse,
)
from repro.core import SpannerError
from repro.engine import EngineStats


def _query(engine=None):
    tree = Difference(Leaf("a"), Leaf("c"))
    inst = Instantiation(
        spanners={
            "a": parse("(a|b)*x{(a|b)+}(a|b)*"),
            "c": parse("(a|b)*x{a}(a|b)*"),
        }
    )
    return RAQuery(tree, inst, engine=engine)


DOCS = ["abab", "b", "", "bbba"]


class TestBatchApis:
    def test_evaluate_many_matches_single_evaluations(self):
        query = _query()
        assert query.evaluate_many(DOCS) == [query.evaluate(d) for d in DOCS]

    def test_enumerate_stream_tags_documents_by_index(self):
        query = _query()
        streamed = list(query.enumerate_stream(DOCS))
        for index, doc in enumerate(DOCS):
            expected = list(query.enumerate(doc))
            assert [m for i, m in streamed if i == index] == expected

    def test_enumerate_stream_is_lazy(self):
        engine = Engine()
        query = _query(engine)

        def docs():
            yield "abab"
            raise AssertionError("second document must not be pulled eagerly")

        stream = query.enumerate_stream(docs())
        first = next(stream)
        assert first[0] == 0

    def test_spanner_batch_protocol_defaults(self):
        spanner = compile_spanner("(a|b)*x{(a|b)+}")
        relations = spanner.evaluate_many(DOCS)
        assert relations == [spanner.evaluate(d) for d in DOCS]
        streamed = list(spanner.enumerate_stream(DOCS))
        assert {i for i, _ in streamed} == {
            i for i, d in enumerate(DOCS) if len(d) > 0
        }


class TestStatistics:
    def test_counters_accumulate_and_snapshot(self):
        engine = Engine()
        query = _query(engine)
        before = engine.stats.snapshot()
        assert before.documents == 0
        query.evaluate_many(DOCS)
        stats = engine.stats
        assert stats.documents == len(DOCS)
        assert stats.mappings == sum(len(r) for r in query.evaluate_many(DOCS))
        assert stats.compile_seconds > 0
        assert stats.states_explored > 0
        delta = stats.delta(before)
        assert delta.documents == stats.documents
        # The snapshot is independent of later activity.
        assert before.documents == 0

    def test_summary_and_dict_round_trip(self):
        stats = EngineStats(documents=3, mappings=7, plan_hits=1)
        text = stats.summary()
        assert "documents" in text and "7" in text
        assert stats.as_dict()["plan_hits"] == 1


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SpannerError):
            Engine(backend="nonexistent")

    @pytest.mark.parametrize("name", ["indexed-plain", "matchgraph"])
    def test_retired_backends_are_rejected(self, name):
        # The indexed backend picks its letter walk per document, and the
        # frozenset match graph is a test oracle.
        with pytest.raises(SpannerError):
            Engine(backend=name)

    def test_backend_names(self):
        # The one backend by default or by name, and the retired name of
        # the backend whose letter walk it took over; nothing else, and
        # no backend object, is accepted.
        va = compile_spanner("(a|b)*x{ab}(a|b)*").va
        for name in (None, "indexed", "vectorized"):
            assert len(Engine(backend=name).evaluate(va, "abab")) == 2, name
        for other in ("", "Indexed", "indexed ", object(), Engine()):
            with pytest.raises(SpannerError):
                Engine(backend=other)

    def test_engine_rejects_unsupported_query_type(self):
        with pytest.raises(TypeError):
            Engine().evaluate(42, "ab")

    def test_ra_tree_without_instantiation_rejected(self):
        with pytest.raises(SpannerError):
            Engine().prepare(Leaf("a"))


#: Prepended to a child interpreter's script: every later ``import numpy``
#: raises ImportError, as on an install without the ``[fast]`` extra.
_BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"


def _run_without_numpy(script: str, *args: str) -> "subprocess.CompletedProcess[str]":
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", _BLOCK_NUMPY + textwrap.dedent(script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestWithoutNumpy:
    """numpy serves only the corpus index: both walks, every backend name
    and the CLI run in an interpreter that cannot import it."""

    def test_engine_walks_text_and_runs_without_numpy(self):
        result = _run_without_numpy(
            """
            from repro import Engine, parse, regex_to_va, trim

            for name in ("indexed", "vectorized"):
                va = trim(regex_to_va(parse("(a|b)*x{ab}(a|b)*")))
                engine = Engine(backend=name)
                assert len(engine.evaluate(va, "ab" * 20)) == 20
                assert engine.stats.frontier_cache_misses > 0  # the letter walk
                assert len(engine.evaluate(va, "a" * 40 + "b" * 40)) == 1
                assert engine.stats.kernel_run_hits > 0  # the run walk
            assert sys.modules["numpy"] is None
            """
        )
        assert result.returncode == 0, result.stderr

    def test_cli_reports_frontier_misses_without_numpy(self):
        result = _run_without_numpy(
            "from repro.cli import main\nsys.exit(main(sys.argv[1:]))\n",
            "extract",
            "(a|b)*x{b}(a|b)*",
            "--text",
            "abababab",
            "--stats",
        )
        assert result.returncode == 0, result.stderr
        output = result.stdout + result.stderr
        assert "4 mapping(s)" in output.splitlines()
        assert re.search(r"^frontier misses +[1-9][0-9]*$", output, re.M), output
