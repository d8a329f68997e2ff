"""The server-logs workload pack: golden oracles ≡ spanner output."""

from repro.engine import Engine
from repro.va import regex_to_va, trim
from repro.workloads import TEXT_ALPHABET, log_line_formula, packs
from repro.workloads.packs import (
    error_timestamp_formula,
    generate_lines,
    generate_log,
    golden_error_timestamps,
    golden_fields,
)


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_log(30, seed=7) == generate_log(30, seed=7)
        assert generate_log(30, seed=7) != generate_log(30, seed=8)

    def test_lines_stay_inside_the_text_alphabet(self):
        for line in generate_lines(50, seed=2, error_rate=0.3):
            assert all(ch in TEXT_ALPHABET for ch in line)
            assert "\n" not in line

    def test_error_rate_extremes(self):
        all_errors = generate_lines(20, seed=0, error_rate=1.0)
        assert all(" ERROR " in line for line in all_errors)
        quiet = generate_lines(20, seed=0, error_rate=0.0)
        assert not any(" ERROR " in line for line in quiet)

    def test_start_second_continues_a_stream(self):
        head = generate_lines(5, seed=1)
        tail = generate_lines(5, seed=1, start_second=12_000)
        assert head != tail

    def test_package_reexports(self):
        assert packs.generate_log is generate_log


class TestGoldenFields:
    def test_every_generated_line_parses(self):
        for line in generate_lines(40, seed=3, error_rate=0.2):
            fields = golden_fields(line)
            assert fields is not None
            assert line == "{ts} {level} {msg}".format(**fields)

    def test_malformed_lines_are_rejected(self):
        assert golden_fields("") is None
        assert golden_fields("12:00:01 TRACE msg") is None
        assert golden_fields("noon ERROR msg") is None
        assert golden_fields("12:00:01 ERROR") is None

    def test_golden_fields_match_the_log_line_spanner(self):
        engine = Engine()
        va = trim(regex_to_va(log_line_formula()))
        for line in generate_lines(25, seed=4, error_rate=0.3):
            (mapping,) = engine.evaluate(va, line)
            extracted = {
                str(var).lstrip("?"): line[span.begin - 1 : span.end - 1]
                for var, span in mapping.items()
            }
            assert extracted == golden_fields(line)


class TestErrorTimestamps:
    def test_golden_matches_the_spanner_on_every_backend(self):
        va = trim(regex_to_va(error_timestamp_formula()))
        text = generate_log(80, seed=5, error_rate=0.25)
        want = golden_error_timestamps(text)
        assert want  # the seed produces at least one ERROR line
        mappings = Engine().evaluate(va, text)
        got = sorted(
            (span.begin, text[span.begin - 1 : span.end - 1])
            for m in mappings
            for _var, span in m.items()
        )
        assert [ts for _pos, ts in got] == want

    def test_quiet_stream_has_no_matches(self):
        va = trim(regex_to_va(error_timestamp_formula()))
        text = generate_log(120, seed=6, error_rate=0.0)
        assert golden_error_timestamps(text) == []
        assert list(Engine().evaluate(va, text)) == []

    def test_tail_session_streams_the_golden_answers(self):
        # The pack's reason to exist: tailing a growing log emits exactly
        # the golden timestamps of each appended batch.
        va = trim(regex_to_va(error_timestamp_formula()))
        session = Engine().tail(va)
        text = ""
        emitted = []
        start = 0
        for batch in range(4):
            chunk = generate_log(
                15, seed=batch, error_rate=0.3, start_second=start
            )
            start += 15 * 3
            text += chunk
            emitted.extend(session.reevaluate(chunk))
        got = sorted(
            (span.begin, text[span.begin - 1 : span.end - 1])
            for m in emitted
            for _var, span in m.items()
        )
        assert [ts for _pos, ts in got] == golden_error_timestamps(text)
