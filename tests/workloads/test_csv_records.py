"""The CSV-records workload pack: golden oracles ≡ spanner output."""

from repro.engine import Engine
from repro.va import regex_to_va, trim
from repro.workloads import TEXT_ALPHABET, packs
from repro.workloads.packs import (
    field_formula,
    generate_csv,
    generate_records,
    golden_interior_fields,
    golden_record,
    golden_records,
    record_formula,
)


def _extract(mapping, text):
    return {
        str(var).lstrip("?"): text[span.begin - 1 : span.end - 1]
        for var, span in mapping.items()
    }


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_csv(30, seed=7) == generate_csv(30, seed=7)
        assert generate_csv(30, seed=7) != generate_csv(30, seed=8)
        assert generate_csv(30, seed=7) != generate_csv(30, seed=7, noise_rate=0.5)

    def test_lines_stay_inside_the_text_alphabet(self):
        for line in generate_records(50, seed=2, noise_rate=0.3):
            assert all(ch in TEXT_ALPHABET for ch in line)
            assert "\n" not in line

    def test_record_ids_ascend(self):
        ids = [
            int(line.split(",", 1)[0])
            for line in generate_records(40, seed=3)
        ]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_noise_rate_extremes(self):
        notes = generate_records(20, seed=0, noise_rate=1.0)
        assert all(golden_record(line) is None for line in notes)
        clean = generate_records(20, seed=0, noise_rate=0.0)
        assert all(golden_record(line) is not None for line in clean)

    def test_package_reexports(self):
        assert packs.generate_csv is generate_csv


class TestGoldenOracles:
    def test_every_generated_record_parses(self):
        for line in generate_records(40, seed=3):
            fields = golden_record(line)
            assert fields is not None
            assert line == "{id},{email},{city},{amount}".format(**fields)

    def test_malformed_lines_are_rejected(self):
        assert golden_record("") is None
        assert golden_record("id,email,city,amount") is None  # the header
        assert golden_record("12,a@b.com,london") is None  # three fields
        assert golden_record("12,a@b.com,london,3.5") is None  # one cent digit
        assert golden_record("12,ab.com,london,3.50") is None  # no @
        assert golden_record("x2,a@b.com,london,3.50") is None  # non-digit id
        assert golden_record("12,a@b.com,London,3.50") is None  # uppercase city

    def test_golden_records_skip_header_and_unterminated_tail(self):
        body = generate_csv(10, seed=4)
        assert len(golden_records(body)) == 10
        # Chop the final newline: the last record loses its right anchor.
        assert len(golden_records(body[:-1])) == 9
        # The header only parses as a record when newline-delimited — and
        # then still fails the field validators.
        assert golden_records("id,email,city,amount\n" + body) == golden_records(body)

    def test_interior_fields_of_a_record_are_email_and_city(self):
        (line,) = generate_records(1, seed=5)
        fields = golden_record(line)
        assert golden_interior_fields(line + "\n") == [
            fields["email"],
            fields["city"],
        ]


class TestEngineEquivalence:
    def test_record_formula_matches_golden_on_every_backend(self):
        va = trim(regex_to_va(record_formula()))
        text = generate_csv(40, seed=6, noise_rate=0.2)
        want = golden_records(text)
        assert want  # the seed produces well-formed records
        mappings = Engine().evaluate(va, text)
        got = sorted(
            (min(span.begin for _var, span in m.items()), _extract(m, text))
            for m in mappings
        )
        assert [fields for _pos, fields in got] == want

    def test_field_formula_matches_golden_on_every_backend(self):
        va = trim(regex_to_va(field_formula()))
        text = generate_csv(25, seed=8, noise_rate=0.3)
        want = golden_interior_fields(text)
        assert want
        mappings = Engine().evaluate(va, text)
        got = sorted(
            (span.begin, text[span.begin - 1 : span.end - 1])
            for m in mappings
            for _var, span in m.items()
        )
        assert [field for _pos, field in got] == want

    def test_all_noise_still_yields_no_records(self):
        va = trim(regex_to_va(record_formula()))
        text = generate_csv(30, seed=9, noise_rate=1.0)
        assert golden_records(text) == []
        assert list(Engine().evaluate(va, text)) == []

    def test_tail_session_streams_the_golden_records(self):
        va = trim(regex_to_va(record_formula()))
        session = Engine().tail(va)
        text = ""
        emitted = []
        for batch in range(4):
            chunk_lines = generate_records(8, seed=batch, noise_rate=0.25)
            chunk = "".join(line + "\n" for line in chunk_lines)
            if not text:
                chunk = "id,email,city,amount\n" + chunk
            text += chunk
            emitted.extend(session.reevaluate(chunk))
        got = sorted(
            (min(span.begin for _var, span in m.items()), _extract(m, text))
            for m in emitted
        )
        assert [fields for _pos, fields in got] == golden_records(text)
