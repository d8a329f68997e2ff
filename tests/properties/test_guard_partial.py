"""Degradation soundness (hypothesis): a partial result under
``on_budget="partial"`` is exactly the unguarded enumeration's prefix —
never a different subset, never reordered, never an extra mapping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.va import regex_to_va, trim

from .conftest import documents, sequential_formulas

_SETTINGS = settings(max_examples=25, deadline=None)


class TestPartialPrefix:
    @given(
        sequential_formulas(max_vars=2),
        documents,
        st.integers(min_value=1, max_value=6),
    )
    @_SETTINGS
    def test_partial_is_prefix_of_unguarded_enumeration(self, formula, doc, k):
        va = trim(regex_to_va(formula))
        engine = Engine()
        unguarded = list(engine.enumerate(va, doc))
        partial = list(
            engine.enumerate(
                va, doc, budget={"mappings": k}, on_budget="partial"
            )
        )
        assert partial == unguarded[: min(k, len(unguarded))]

    @given(
        sequential_formulas(max_vars=2),
        documents,
        st.integers(min_value=1, max_value=6),
    )
    @_SETTINGS
    def test_truncation_flag_tracks_whether_anything_was_cut(
        self, formula, doc, k
    ):
        va = trim(regex_to_va(formula))
        engine = Engine()
        total = len(engine.evaluate(va, doc))
        relation = engine.evaluate(
            va, doc, budget={"mappings": k}, on_budget="partial"
        )
        assert relation.truncated == (total > k)
        assert len(relation) == min(k, total)
