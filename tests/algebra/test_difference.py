"""Ad-hoc difference compilation (Lemma 4.2 / Theorem 4.3)."""

import random

import pytest

from repro.core import Mapping, NotSequentialError, Span, SpannerError
from repro.regex import parse
from repro.va import VA, evaluate_naive, evaluate_va, is_sequential, open_op, regex_to_va, trim
from repro.algebra import adhoc_difference, semantic_difference
from repro.workloads import random_sequential_formula


def compile_formula(text: str) -> VA:
    return trim(regex_to_va(parse(text)))


def check_difference(text1: str, text2: str, doc: str) -> None:
    a1, a2 = compile_formula(text1), compile_formula(text2)
    compiled = adhoc_difference(a1, a2, doc)
    assert is_sequential(compiled)
    expected = semantic_difference(evaluate_va(a1, doc), evaluate_va(a2, doc))
    assert evaluate_va(compiled, doc) == expected, (text1, text2, doc)


class TestBasicCases:
    def test_same_variable_disagreeing_spans(self):
        check_difference("x{a}[ab]*", "x{[ab][ab]}[ab]*", "aab")

    def test_equal_spanners_empty_difference(self):
        check_difference("x{a}b", "x{a}b", "ab")

    def test_disjoint_variable_subtrahend_kills_all(self):
        # A2's mappings (over y only) are compatible with every A1 mapping.
        a1, a2 = compile_formula("x{a}b"), compile_formula("a·y{b}")
        compiled = adhoc_difference(a1, a2, "ab")
        assert evaluate_va(compiled, "ab").is_empty

    def test_empty_mapping_in_subtrahend_empties_difference(self):
        # Regression pinning the Appendix-B.1 subtlety: the subtrahend
        # produces the empty mapping, which is compatible with everything,
        # so the difference must be empty — while the literal complement of
        # the subtrahend's marked extensions, which removes only mappings
        # equal to one of them, would keep every minuend mapping.
        a1 = compile_formula("x{a}[ab]*")
        a2 = compile_formula("(y{a}|ε)[ab]*")  # produces µ = {} among others
        compiled = adhoc_difference(a1, a2, "ab")
        assert evaluate_va(compiled, "ab").is_empty

    def test_optional_shared_variable(self):
        check_difference("(x{a}|ε)[ab]*y{[ab]}", "x{a}[ab]*", "ab")

    def test_subtrahend_empty_on_document(self):
        a1, a2 = compile_formula("x{a}b"), compile_formula("x{b}a")
        compiled = adhoc_difference(a1, a2, "ab")
        assert evaluate_va(compiled, "ab") == evaluate_va(a1, "ab")

    def test_minuend_empty(self):
        check_difference("x{b}a", "x{a}b", "ab")


class TestEdgeCases:
    def test_empty_document_nonempty_subtrahend(self):
        # On ε all mappings are compatible (every span is [1,1>).
        a1 = compile_formula("x{a*}")
        a2 = compile_formula("y{a*}")
        compiled = adhoc_difference(a1, a2, "")
        assert evaluate_va(compiled, "").is_empty

    def test_empty_document_empty_subtrahend(self):
        a1 = compile_formula("x{a*}")
        a2 = compile_formula("y{a}")  # needs a letter: empty on ε
        compiled = adhoc_difference(a1, a2, "")
        assert evaluate_va(compiled, "") == {Mapping({"x": Span(1, 1)})}

    def test_boolean_operands(self):
        check_difference("a[ab]*", "[ab]*b", "ab")
        check_difference("a[ab]*", "[ab]*b", "aa")

    def test_max_shared_guard(self):
        a1 = compile_formula("x{a}y{b}")
        a2 = compile_formula("x{a}y{b}")
        with pytest.raises(SpannerError):
            adhoc_difference(a1, a2, "ab", max_shared=1)

    def test_non_sequential_rejected(self):
        bad = VA(0, (1,), [(0, open_op("x"), 1)])
        with pytest.raises(NotSequentialError):
            adhoc_difference(bad, compile_formula("a"), "a")

    def test_result_is_adhoc_only(self):
        # The compiled automaton is only promised correct for its document.
        a1 = compile_formula("x{a}[ab]*")
        a2 = compile_formula("x{aa}[ab]*")
        compiled = adhoc_difference(a1, a2, "ab")
        expected = semantic_difference(evaluate_va(a1, "ab"), evaluate_va(a2, "ab"))
        assert evaluate_va(compiled, "ab") == expected


class TestRandomized:
    def test_against_semantic_difference(self):
        rng = random.Random(21)
        for _ in range(20):
            f1 = random_sequential_formula(rng.randint(0, 2), rng, depth=2)
            f2 = random_sequential_formula(rng.randint(0, 2), rng, depth=2)
            a1, a2 = trim(regex_to_va(f1)), trim(regex_to_va(f2))
            doc = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            compiled = adhoc_difference(a1, a2, doc)
            expected = semantic_difference(
                evaluate_naive(a1, doc), evaluate_naive(a2, doc)
            )
            assert evaluate_va(compiled, doc) == expected, (
                f1.to_text(),
                f2.to_text(),
                doc,
            )

    def test_nested_difference(self):
        # (A1 \ A2) \ A3 via two ad-hoc compilations.
        a1 = compile_formula("x{[ab]}[ab]*")
        a2 = compile_formula("x{b}[ab]*")
        a3 = compile_formula("[ab]x{[ab]}[ab]*")
        doc = "aba"
        once = adhoc_difference(a1, a2, doc)
        twice = adhoc_difference(once, a3, doc)
        expected = semantic_difference(
            semantic_difference(evaluate_va(a1, doc), evaluate_va(a2, doc)),
            evaluate_va(a3, doc),
        )
        assert evaluate_va(twice, doc) == expected
