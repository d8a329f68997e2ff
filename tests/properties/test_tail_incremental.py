"""The tail-session correctness property: incremental re-evaluation of a
growing document is indistinguishable from fresh full evaluations at
every step, on every backend (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document, SpanRelation
from repro.engine import Engine, available_backends, get_backend
from repro.va import enumerate_mappings, evaluate_va, regex_to_va, trim

from .conftest import sequential_formulas

_SETTINGS = settings(max_examples=30, deadline=None)

ALL_BACKENDS = available_backends()

#: Append chunks over the property alphabet — empty chunks included, so
#: no-growth re-evaluations and multi-append gaps are exercised too.
chunks = st.lists(st.text(alphabet="ab", max_size=4), min_size=1, max_size=5)

#: Session steps: re-evaluate after appending a chunk, append without
#: re-evaluating (a gap the next re-evaluation spans), or restart the
#: session on a new document.
steps = st.lists(
    st.tuples(
        st.sampled_from(("reevaluate", "reevaluate", "append", "reset")),
        st.text(alphabet="ab", max_size=4),
    ),
    min_size=1,
    max_size=6,
)


class TestTailMatchesFullEvaluation:
    @given(sequential_formulas(), steps)
    @_SETTINGS
    def test_stepwise_fresh_mappings_match_oracle(self, formula, steps):
        # Each re-evaluation returns, as an ordered list, the canonical
        # enumeration of the accumulated document minus everything
        # emitted since the last reset.
        va = trim(regex_to_va(formula))
        sessions = {name: Engine(backend=name).tail(va) for name in ALL_BACKENDS}
        text = ""
        seen = set()
        for action, chunk in steps + [("reevaluate", "")]:
            if action == "reset":
                text, seen = chunk, set()
                for session in sessions.values():
                    session.reset(chunk)
                continue
            text += chunk
            if action == "append":
                for session in sessions.values():
                    session.append(chunk)
                continue
            expected = [m for m in enumerate_mappings(va, text) if m not in seen]
            for name, session in sessions.items():
                assert session.reevaluate(chunk) == expected, (name, text)
            seen.update(expected)

    @given(
        sequential_formulas(),
        st.text(alphabet="ab", max_size=6),
        st.text(alphabet="ab", max_size=4),
        st.booleans(),
    )
    @_SETTINGS
    def test_enumerate_since_covers_the_new_mappings_once(
        self, formula, prefix, suffix, expand
    ):
        # An extended run yields every mapping its prefix lacks, only
        # mappings of the document, and none twice — whether or not the
        # prior run's forward layers were expanded before the extension.
        va = trim(regex_to_va(formula))
        doc = Document(prefix).append(suffix)
        full = evaluate_va(va, doc)
        new = set(full) - set(evaluate_va(va, prefix))
        for name in ALL_BACKENDS:
            prepared = get_backend(name).prepare(va)
            prior = prepared.run(prefix)
            if expand and hasattr(prior, "forward"):
                prior.forward
            run = prepared.run_extended(prior, doc)
            got = list(run.enumerate_since(len(prefix)))
            assert len(got) == len(set(got)), name
            assert new <= set(got) <= set(full), name
            assert SpanRelation(run.enumerate_since(-1)) == full, name

    @given(sequential_formulas(max_vars=2), chunks)
    @_SETTINGS
    def test_union_of_emissions_is_union_of_prefix_spanners(self, formula, parts):
        va = trim(regex_to_va(formula))
        session = Engine().tail(va)
        emitted = []
        text = ""
        expected = set()
        for chunk in parts:
            emitted.extend(session.reevaluate(chunk))
            text += chunk
            expected.update(evaluate_va(va, text))
        assert set(emitted) == expected
        assert len(emitted) == len(expected)  # no duplicates ever emitted
        assert session.total_matches == len(expected)

    @given(sequential_formulas(max_vars=2), st.text(alphabet="ab", max_size=6))
    @_SETTINGS
    def test_single_shot_session_equals_plain_evaluation(self, formula, doc):
        va = trim(regex_to_va(formula))
        for name in ALL_BACKENDS:
            session = Engine(backend=name).tail(va, doc)
            assert SpanRelation(session.reevaluate()) == evaluate_va(va, doc), name
