"""The VA-derived document prefilter: soundness (never rejects a matching
document), exactness (the derived bounds equal an exhaustive search's) and
the individual necessary conditions."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.core import Document
from repro.regex import parse
from repro.utils.bits import apply_masks, iter_bits
from repro.va import VAPrefilter, evaluate_naive, regex_to_va, trim
from repro.va import prefilter as prefilter_module
from repro.workloads.regexes import TEXT_ALPHABET

from ..properties.conftest import sequential_formulas

_SETTINGS = settings(max_examples=60, deadline=None)

#: Short documents, including letters outside the ab formulas' alphabet.
documents = st.text(alphabet="abc", min_size=0, max_size=5)

#: Run-heavy documents exercising the histogram bounds harder.
run_documents = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=6)),
    min_size=0,
    max_size=4,
).map(lambda runs: "".join(letter * length for letter, length in runs))


def _prefilter(text: str) -> VAPrefilter:
    return trim(regex_to_va(parse(text))).prefilter()


class TestSoundness:
    @given(sequential_formulas(), documents)
    @_SETTINGS
    def test_never_rejects_a_document_with_a_nonempty_result(self, formula, doc):
        va = trim(regex_to_va(formula))
        if evaluate_naive(va, doc):
            assert va.prefilter().admits(doc)

    @given(sequential_formulas(), run_documents)
    @_SETTINGS
    def test_never_rejects_on_run_heavy_documents(self, formula, doc):
        va = trim(regex_to_va(formula))
        if evaluate_naive(va, doc):
            assert va.prefilter().admits(doc)

    @given(sequential_formulas())
    @_SETTINGS
    def test_degenerate_documents(self, formula):
        va = trim(regex_to_va(formula))
        prefilter = va.prefilter()
        for doc in ("", "a", "aaaaaa"):
            if evaluate_naive(va, doc):
                assert prefilter.admits(doc)


class TestNecessaryConditions:
    def test_alphabet_closure(self):
        prefilter = _prefilter("x{(a|b)+}")
        assert prefilter.admits("ab")
        assert not prefilter.admits("abz")  # z outside the alphabet

    def test_required_letter_and_multiplicity(self):
        prefilter = _prefilter("(a|b)*x{c}(a|b)*c(a|b)*")
        assert ("c", 2) in prefilter.required
        assert not prefilter.admits("abcab")  # only one c
        assert prefilter.admits("abcacb")

    def test_optional_letters_are_not_required(self):
        prefilter = _prefilter("a(b|ε)x{a}")
        assert dict(prefilter.required) == {"a": 2}
        assert prefilter.admits("aa")

    def test_length_window(self):
        prefilter = _prefilter("(ab)x{a(b|ε)}")
        assert prefilter.min_length == 3
        assert prefilter.max_length == 4
        assert not prefilter.admits("ab")
        assert not prefilter.admits("ababa")
        assert prefilter.admits("aba")

    def test_unbounded_length_has_no_maximum(self):
        prefilter = _prefilter("x{a+}")
        assert prefilter.max_length is None
        assert prefilter.admits("a" * 500)

    def test_empty_language_rejects_everything(self):
        from repro.va import empty_va

        prefilter = trim(empty_va()).prefilter()
        assert prefilter.empty
        assert not prefilter.admits("")
        assert not prefilter.admits("a")

    def test_empty_document_admitted_when_language_has_it(self):
        prefilter = _prefilter("x{a*}")
        assert prefilter.min_length == 0
        assert prefilter.admits("")

    def test_describe_mentions_the_conditions(self):
        text = _prefilter("(a|b)*x{c}(a|b)*c(a|b)*").describe()
        assert "c×2" in text
        assert "length" in text

    def test_admits_accepts_documents_and_strings(self):
        prefilter = _prefilter("x{a+}")
        assert prefilter.admits(Document("aaa")) == prefilter.admits("aaa")


def _reference(formula) -> tuple:
    """``(empty, min_length, max_length, required)`` by exhaustive search
    over the dense letter × state tables: a frontier BFS for the minimum
    length, Kahn's order for the maximum, and a 0-1 BFS for *every* letter
    of the alphabet."""
    indexed = trim(regex_to_va(formula)).indexed()
    succ, n_states = indexed.successor_masks, indexed.n_states
    initial, accept_mask = indexed.initial_id, indexed.accept_mask

    frontier = seen = 1 << initial
    min_length = 0
    while not frontier & accept_mask:
        frontier = 0
        for row in succ:
            frontier |= apply_masks(row, seen)
        frontier &= ~seen
        if not frontier:
            return (True, 0, 0, ())
        seen |= frontier
        min_length += 1

    out_masks = [0] * n_states
    for row in succ:
        for state in range(n_states):
            out_masks[state] |= row[state]
    indegree = [0] * n_states
    for mask in out_masks:
        for target in iter_bits(mask):
            indegree[target] += 1
    queue = deque(s for s in range(n_states) if not indegree[s])
    topo = []
    while queue:
        state = queue.popleft()
        topo.append(state)
        for target in iter_bits(out_masks[state]):
            indegree[target] -= 1
            if not indegree[target]:
                queue.append(target)
    max_length = None
    if len(topo) == n_states:
        longest = [-1] * n_states
        longest[initial] = 0
        for state in topo:
            if longest[state] < 0:
                continue
            if (accept_mask >> state) & 1:
                max_length = max(max_length or 0, longest[state])
            for target in iter_bits(out_masks[state]):
                longest[target] = max(longest[target], longest[state] + 1)

    required = []
    for letter_id, letter in enumerate(indexed.alphabet.signature):
        dist = [float("inf")] * n_states
        dist[initial] = 0
        queue = deque((initial,))
        while queue:
            state = queue.popleft()
            for lid, row in enumerate(succ):
                weight = 1 if lid == letter_id else 0
                for target in iter_bits(row[state]):
                    if dist[state] + weight < dist[target]:
                        dist[target] = dist[state] + weight
                        if weight:
                            queue.append(target)
                        else:
                            queue.appendleft(target)
        bound = min(dist[state] for state in iter_bits(accept_mask))
        if bound > 0:
            required.append((letter, int(bound)))
    return (False, min_length, max_length, tuple(required))


def _fields(prefilter: VAPrefilter) -> tuple:
    return (prefilter.empty, prefilter.min_length, prefilter.max_length, prefilter.required)


class TestExactness:
    """The derivation searches only one shortest accepting path's letters;
    the bounds must still equal a search over every letter."""

    @given(sequential_formulas())
    @_SETTINGS
    def test_equals_the_search_over_every_letter(self, formula):
        prefilter = trim(regex_to_va(formula)).prefilter()
        assert _fields(prefilter) == _reference(formula)

    @pytest.mark.parametrize(
        "text, required",
        [
            ("[ab]c", {"c": 1}),  # whichever of a/b the path reads, only c stays
            ("(ab|ba)", {"a": 1, "b": 1}),
            ("a(b|c)a", {"a": 2}),
            ("((a|b)c|c(a|b))", {"c": 1}),
            ("x{a*}", {}),  # the shortest path is empty: no candidates
            ("(a|b)(a|b)", {}),
        ],
    )
    def test_path_letter_choice(self, text, required):
        prefilter = _prefilter(text)
        assert dict(prefilter.required) == required
        assert _fields(prefilter) == _reference(parse(text))


#: Store queries over :data:`TEXT_ALPHABET` (66–72 letters): an error log
#: line in one ten-minute window, a CSV record of one city with a leading
#: amount digit, and a student's mail with one initial letter and TLD.
_STUDENT = r"A-Za-z0-9 .@"
_ERROR_HOUR = r".*ts{13:2[0-9]:[0-9][0-9]} ERROR .*"
_CITY_AMOUNT = (
    r".*\nid{[0-9]+},email{[a-z0-9.]+@[a-z0-9.\-]+},city{milton-keynes},"
    r"amount{4[0-9]*\.[0-9][0-9]}\n.*"
)
_MAIL_INITIAL = (
    r"(\e|[%s\n]*\n)[%s]*\sxmail{k[a-z]*@[a-z]*\.uk}\n[%s\n]*"
    % (_STUDENT, _STUDENT, _STUDENT)
)


def _text_va(text: str):
    return trim(regex_to_va(parse(text, alphabet=TEXT_ALPHABET)))


class TestStoreQueryShapes:
    @pytest.mark.parametrize(
        "text, min_length, required",
        [
            (
                _ERROR_HOUR,
                15,
                ((" ", 2), ("1", 1), ("2", 1), ("3", 1), (":", 2),
                 ("E", 1), ("O", 1), ("R", 3)),
            ),
            (
                _CITY_AMOUNT,
                26,
                (("\n", 2), (",", 3), ("-", 1), (".", 1), ("4", 1), ("@", 1),
                 ("e", 2), ("i", 1), ("k", 1), ("l", 1), ("m", 1), ("n", 2),
                 ("o", 1), ("s", 1), ("t", 1), ("y", 1)),
            ),
            (
                _MAIL_INITIAL,
                7,
                (("\n", 1), (" ", 1), (".", 1), ("@", 1), ("k", 2), ("u", 1)),
            ),
        ],
        ids=["error-hour", "city-amount", "mail-initial"],
    )
    def test_searches_at_most_min_length_letters(
        self, monkeypatch, text, min_length, required
    ):
        searched = []
        search = prefilter_module._min_letter_count

        def counting(adjacency, initial, accept_mask, letter_id):
            searched.append(letter_id)
            return search(adjacency, initial, accept_mask, letter_id)

        monkeypatch.setattr(prefilter_module, "_min_letter_count", counting)
        indexed = _text_va(text).indexed()
        prefilter = VAPrefilter(indexed)
        assert len(indexed.alphabet) >= 66
        assert 0 < len(searched) <= prefilter.min_length
        assert prefilter.min_length == min_length
        assert prefilter.max_length is None
        assert prefilter.required == required

    def test_explain_prints_one_prefilter_line(self):
        va = _text_va(_CITY_AMOUNT)
        text = Engine().explain(va)
        lines = [line for line in text.splitlines() if line.startswith("prefilter:")]
        assert lines == [f"prefilter: {va.prefilter().describe()}"]
        assert "'\\n'×2, ','×3" in lines[0]
        assert "letters ⊆ {'\\n'' '()','-./0" in lines[0]
