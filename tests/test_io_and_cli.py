"""Interchange (JSON / DOT) and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import Mapping, Span, SpanRelation, SpannerError
from repro.cli import main
from repro.io import (
    dumps_relation,
    dumps_va,
    loads_relation,
    loads_va,
    match_graph_to_dot,
    va_to_dot,
)
from repro.regex import parse
from repro.va import FactorizedVA, MatchGraph, evaluate_va, regex_to_va, trim


def m(**kwargs) -> Mapping:
    return Mapping({k: Span(*v) for k, v in kwargs.items()})


def _cli_process(args: "list[str]", **kwargs) -> subprocess.Popen:
    """``python -m repro.cli`` with ``args``, on this checkout's sources,
    with stdout block-buffered into a pipe, as in a shell pipeline."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, "-m", "repro.cli", *args], env=env, **kwargs)


def sample_va():
    return trim(regex_to_va(parse("x{a*}b|c")))


class TestVASerialisation:
    def test_roundtrip_preserves_semantics(self):
        va = sample_va()
        restored = loads_va(dumps_va(va))
        for doc in ("b", "ab", "aab", "c", "a"):
            assert evaluate_va(restored, doc) == evaluate_va(va, doc), doc

    def test_json_is_valid_and_versioned(self):
        payload = json.loads(dumps_va(sample_va()))
        assert payload["format"] == "repro-va"
        assert payload["version"] == 1
        assert isinstance(payload["transitions"], list)

    def test_wrong_format_rejected(self):
        with pytest.raises(SpannerError):
            loads_va(json.dumps({"format": "something-else", "version": 1}))

    def test_wrong_version_rejected(self):
        with pytest.raises(SpannerError):
            loads_va(json.dumps({"format": "repro-va", "version": 99}))

    def test_bad_label_rejected(self):
        doc = {
            "format": "repro-va",
            "version": 1,
            "initial": 0,
            "accepting": [1],
            "transitions": [[0, {"zap": "x"}, 1]],
        }
        with pytest.raises(SpannerError):
            loads_va(json.dumps(doc))


class TestRelationSerialisation:
    def test_roundtrip(self):
        relation = SpanRelation([m(x=(1, 2), y=(3, 3)), Mapping()])
        assert loads_relation(dumps_relation(relation)) == relation

    def test_empty_relation(self):
        assert loads_relation(dumps_relation(SpanRelation())) == SpanRelation()


class TestDot:
    def test_va_dot_mentions_everything(self):
        dot = va_to_dot(sample_va())
        assert dot.startswith("digraph")
        assert "x⊢" in dot and "⊣x" in dot
        assert "doublecircle" in dot  # accepting states

    def test_match_graph_dot(self):
        graph = MatchGraph(FactorizedVA(sample_va()), "ab")
        dot = match_graph_to_dot(graph)
        assert dot.startswith("digraph") and "·a" in dot


class TestCli:
    def test_extract_table(self, capsys):
        assert main(["extract", "x{[a-z]+}@y{[a-z]+}", "--text", "ab@cd"]) == 0
        out = capsys.readouterr().out
        assert "1 mapping(s)" in out and "[1, 3>" in out

    def test_extract_json(self, capsys):
        assert main(["extract", "x{a}b", "--text", "ab", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mappings"] == [{"x": [1, 2]}]

    def test_extract_from_file(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("ab@cd")
        assert main(["extract", "x{[a-z]+}@y{[a-z]+}", "--file", str(path)]) == 0
        assert "1 mapping(s)" in capsys.readouterr().out

    def test_classify(self, capsys):
        assert main(["classify", "x{a}(y{b}|ε)"]) == 0
        out = capsys.readouterr().out
        assert "sequential:" in out and "functional:" in out

    def test_dot_output(self, capsys):
        assert main(["dot", "x{a}b"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_syntax_error_reported(self, capsys):
        assert main(["extract", "x{a", "--text", "a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_closed_pipe_ends_quietly(self):
        # A reader that stops after one line (`extract ... | head -1`)
        # closes the pipe while the CLI still writes: it exits 0 and prints
        # nothing to stderr.  The output outgrows the pipe's buffer.
        text = "ab" * 20_000
        with _cli_process(
            ["extract", "(a|b)*x{a}(a|b)*", "--text", text],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as process:
            assert process.stdout.readline()
            process.stdout.close()
            stderr = process.stderr.read()
            assert process.wait(timeout=120) == 0
        assert stderr == b""

    def test_pipe_closed_before_any_output_ends_quietly(self):
        # The reader is gone before the CLI writes (`extract ... | true`),
        # and the output is small enough to wait in stdout's buffer for
        # the last flush: it exits 0 and prints nothing to stderr.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with _cli_process(
                ["extract", "x{a+}b", "--text", "aab"],
                stdout=write_end,
                stderr=subprocess.PIPE,
            ) as process:
                stderr = process.stderr.read()
                assert process.wait(timeout=120) == 0
            # With the stats on stderr into the same pipe (`--stats 2>&1
            # | grep -q ...`), stderr breaks first: it exits 0 too.
            with _cli_process(
                ["extract", "x{a+}b", "--text", "aab", "--stats"],
                stdout=write_end,
                stderr=write_end,
            ) as process:
                assert process.wait(timeout=120) == 0
        finally:
            os.close(write_end)
        assert stderr == b""

    def test_show_content(self, capsys):
        assert main(
            ["extract", "x{[a-z]+}", "--text", "abc", "--show-content"]
        ) == 0
        assert "'abc'" in capsys.readouterr().out


class TestTailCli:
    def test_tail_reports_existing_content_once(self, tmp_path, capsys):
        path = tmp_path / "log.txt"
        path.write_text("ab")
        assert main(
            ["tail", "x{a}b", "--file", str(path),
             "--max-polls", "2", "--interval", "0"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1  # the second (no-growth) poll emits nothing
        assert "1" in out[0]

    def test_tail_json_lines(self, tmp_path, capsys):
        path = tmp_path / "log.txt"
        path.write_text("ab")
        assert main(
            ["tail", "x{a}b", "--file", str(path),
             "--max-polls", "1", "--interval", "0", "--json"]
        ) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line) == {"x": [1, 2]}

    def test_tail_picks_up_appends(self, tmp_path, capsys):
        import threading

        path = tmp_path / "log.txt"
        path.write_text("ab")

        def grow():
            with open(path, "a") as handle:
                handle.write("b")

        # The first poll sees "ab" (no match for x{a}bb); the append lands
        # during the interval sleep and a later poll completes the match.
        timer = threading.Timer(0.15, grow)
        timer.start()
        try:
            assert main(
                ["tail", "x{a}bb", "--file", str(path),
                 "--max-polls", "8", "--interval", "0.1"]
            ) == 0
        finally:
            timer.cancel()
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "1" in out[0]

    def test_tail_missing_file_reports_an_error(self, tmp_path, capsys):
        assert main(
            ["tail", "x{a}", "--file", str(tmp_path / "missing.log"),
             "--max-polls", "1"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_tail_from_end_skips_existing_matches(self, tmp_path, capsys):
        path = tmp_path / "log.txt"
        path.write_text("ab")
        assert main(
            ["tail", "x{a}b", "--file", str(path),
             "--max-polls", "2", "--interval", "0", "--from-end"]
        ) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_tail_deleted_mid_run_exits_cleanly(self, tmp_path, capsys):
        import threading

        path = tmp_path / "log.txt"
        path.write_text("ab")
        timer = threading.Timer(0.15, path.unlink)
        timer.start()
        try:
            # Poll 1 sees the file; the deletion lands during the sleep;
            # the remaining polls find it missing and --max-polls expires.
            assert main(
                ["tail", "x{a}b", "--file", str(path),
                 "--max-polls", "4", "--interval", "0.1"]
            ) == 2
        finally:
            timer.cancel()
        err = capsys.readouterr().err
        assert "error:" in err and "missing" in err
        assert "Traceback" not in err

    def test_tail_survives_rotation_to_shorter_file(self, tmp_path, capsys):
        import threading

        path = tmp_path / "log.txt"
        path.write_text("abab")

        def rotate():
            path.write_text("ab")  # truncate-in-place to shorter content

        timer = threading.Timer(0.15, rotate)
        timer.start()
        try:
            assert main(
                ["tail", "[ab]*x{a}b[ab]*", "--file", str(path),
                 "--max-polls", "4", "--interval", "0.1"]
            ) == 0
        finally:
            timer.cancel()
        out = capsys.readouterr().out.strip().splitlines()
        # 2 matches from the original content, then the session restarts
        # on the shorter file and re-emits its single match.
        assert len(out) == 3


class TestGuardCli:
    def test_extract_partial_budget_truncates_with_note(self, capsys):
        assert main(
            ["extract", "[ab]*x{[ab]+}[ab]*", "--text", "abab",
             "--budget", "mappings=1", "--on-budget", "partial"]
        ) == 0
        captured = capsys.readouterr()
        assert "1 mapping(s)" in captured.out
        assert "truncated" in captured.err

    def test_extract_budget_error_mode_exits_2(self, capsys):
        assert main(
            ["extract", "[ab]*x{[ab]+}[ab]*", "--text", "abab",
             "--budget", "mappings=1"]
        ) == 2
        assert "budget" in capsys.readouterr().err

    def test_extract_bad_budget_spec_is_a_clean_error(self, capsys):
        assert main(
            ["extract", "x{a}", "--text", "a", "--budget", "rows=10"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_extract_generous_deadline_is_a_no_op(self, capsys):
        assert main(
            ["extract", "x{a}b", "--text", "ab", "--deadline", "60"]
        ) == 0
        assert "1 mapping(s)" in capsys.readouterr().out

    def test_batch_partial_budget_notes_truncation(self, tmp_path, capsys):
        docs = tmp_path / "docs.txt"
        docs.write_text("abab\nabab\n")
        assert main(
            ["batch", "[ab]*x{[ab]+}[ab]*", "--file", str(docs),
             "--budget", "mappings=12", "--on-budget", "partial"]
        ) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert "2 document(s)" in captured.out


class TestCorpusCli:
    @pytest.fixture
    def store_path(self, tmp_path, capsys):
        docs = tmp_path / "docs.txt"
        docs.write_text("abc\naabb\ncc\nb\nzebra\nccc\nabc\n")
        path = tmp_path / "corpus.sqlite"
        assert main(
            ["corpus", "ingest", "--store", str(path), "--file", str(docs)]
        ) == 0
        out = capsys.readouterr().out
        assert "7 line(s) → 6 new document(s), 1 deduplicated" in out
        return path

    def test_stats(self, store_path, capsys):
        assert main(["corpus", "stats", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "documents         6" in out

    def test_stats_json(self, store_path, capsys):
        assert main(
            ["corpus", "stats", "--store", str(store_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["documents"] == 6
        assert payload["schema_version"] == 2

    def test_query_with_explain(self, store_path, capsys):
        assert main(
            [
                "corpus", "query", "(a|b)*x{c+}(a|b)*",
                "--store", str(store_path), "--explain",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "index plan over 6 document(s):" in out
        assert "posting-seed" in out
        assert "3 matching" in out

    def test_query_json_lines(self, store_path, capsys):
        assert main(
            [
                "corpus", "query", "(a|b)*x{c+}(a|b)*",
                "--store", str(store_path), "--json",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert len(payloads) == 3
        assert all("doc_id" in p and "relation" in p for p in payloads)

    def test_rebuild_verify(self, store_path, capsys):
        assert main(
            ["corpus", "rebuild", "--store", str(store_path), "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "rebuilt 6 document(s)" in out
        assert "0 issue(s) repaired (verified)" in out
