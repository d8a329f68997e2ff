"""Pure-string oracles for the benchmark's student-list queries, and the
normal forms that engine results and oracle answers are compared in.

The log and CSV queries are checked against the workload packs' own
goldens (``golden_error_timestamps``, ``golden_records``,
``golden_interior_fields``).  The student queries — Figure 2's
π_xstdnt((αsm ⋈ αsp) ∖ αnr), Example 2.4's αinfo ∖ αUKm and the αUKm
mail family — have no golden in the library, so they are written here
from the formulas in ``repro.workloads.students`` by splitting lines
into space-separated tokens.  Nothing here imports the spanner runtime.

Spans are 1-based and end-exclusive, as in the library.
"""

from __future__ import annotations

import string

LOWER = frozenset(string.ascii_lowercase)
UPPER = frozenset(string.ascii_uppercase)
DIGITS = frozenset(string.digits)
#: Γ ∪ Δ of Example 2.1 — a student formula reads nothing else.
STUDENT_ALPHABET = frozenset(string.ascii_letters + string.digits + " .@\n")


def _lines(text: str):
    """``(offset, line)`` for every newline-terminated line; the student
    formulas all end a record with a newline."""
    offset = 0
    for line in text.split("\n")[:-1]:
        yield offset, line
        offset += len(line) + 1


def _tokens(offset: int, line: str):
    """``(begin, end, token)`` spans of a line's space-separated tokens."""
    out = []
    position = offset
    for token in line.split(" "):
        out.append((position + 1, position + 1 + len(token), token))
        position += len(token) + 1
    return out


def _is_name(token: str) -> bool:
    """δ = [A-Z][a-z]* of Example 2.2."""
    return bool(token) and token[0] in UPPER and all(c in LOWER for c in token[1:])


def _is_phone(token: str) -> bool:
    return bool(token) and all(c in DIGITS for c in token)


def _is_mail(token: str, tld: "str | None" = None) -> bool:
    """γ@γ.γ with γ = [a-z]* (Example 2.2); ``tld`` pins the last γ."""
    local, at, host = token.partition("@")
    if not at or any(c not in LOWER for c in local):
        return False
    domain, dot, last = host.partition(".")
    if not dot or any(c not in LOWER for c in domain + last):
        return False
    return tld is None or last == tld


def student_mails(text: str, tld: str, initial: str = "") -> list[tuple]:
    """The αUKm family: the last token of a student line when it is a
    mail ending in ``.tld`` (and starting with ``initial``).  Returns
    ``(("xmail", begin, end),)`` per match."""
    if not set(text) <= STUDENT_ALPHABET:
        return []
    out = []
    for offset, line in _lines(text):
        tokens = _tokens(offset, line)
        if len(tokens) < 2:
            continue
        begin, end, token = tokens[-1]
        if token.startswith(initial) and _is_mail(token, tld):
            out.append((("xmail", begin, end),))
    return out


def info_minus_uk(text: str) -> list[tuple]:
    """Example 2.4, ⟦αinfo ∖ αUKm⟧: every ``[First ]Last [phone ]mail``
    line whose mail does not end in ``.uk``.  A compatible αUKm mapping
    shares ``xmail``, so the difference drops exactly the UK lines."""
    if not set(text) <= STUDENT_ALPHABET:
        return []
    out = []
    for offset, line in _lines(text):
        tokens = _tokens(offset, line)
        kinds = [
            "name" if _is_name(t) else "phone" if _is_phone(t) else
            "mail" if _is_mail(t) else None
            for _b, _e, t in tokens
        ]
        layouts = {
            ("name", "mail"): ("xlast", "xmail"),
            ("name", "name", "mail"): ("xfirst", "xlast", "xmail"),
            ("name", "phone", "mail"): ("xlast", "xphone", "xmail"),
            ("name", "name", "phone", "mail"): ("xfirst", "xlast", "xphone", "xmail"),
        }
        variables = layouts.get(tuple(kinds))
        if variables is None or _is_mail(tokens[-1][2], "uk"):
            continue
        out.append(
            tuple(sorted((var, b, e) for var, (b, e, _t) in zip(variables, tokens)))
        )
    return out


def _has_recommendation(line: str, name_length: int) -> bool:
    """αnr on one line: ``rec.`` after the first space, followed by a
    dot-free rest of line."""
    start = line.find("rec.", name_length + 1)
    while start != -1:
        if "." not in line[start + 4:]:
            return True
        start = line.find("rec.", start + 1)
    return False


def figure2_students(text: str) -> list[tuple]:
    """Figure 2, ⟦π_xstdnt((αsm ⋈ αsp) ∖ αnr)⟧: the leading name of each
    line that also holds a mail token and a phone token but no
    recommendation.  The three atoms share ``xstdnt``, the leading name,
    so join and difference both pair mappings of one line."""
    if not set(text) <= STUDENT_ALPHABET:
        return []
    out = []
    for offset, line in _lines(text):
        tokens = _tokens(offset, line)
        begin, end, name = tokens[0]
        rest = [token for _b, _e, token in tokens[1:]]
        if (
            _is_name(name)
            and any(_is_mail(t) for t in rest)
            and any(_is_phone(t) for t in rest)
            and not _has_recommendation(line, len(name))
        ):
            out.append((("xstdnt", begin, end),))
    return out


def as_spans(mapping) -> tuple:
    """A mapping as sorted ``(variable, begin, end)`` triples."""
    return tuple(sorted((var, mapping[var].begin, mapping[var].end) for var in mapping))


def as_strings(mapping, text: str, variables: tuple) -> tuple:
    """A mapping as the substrings of ``variables``, in that order — the
    shape of the packs' string goldens."""
    return tuple(
        text[mapping[var].begin - 1 : mapping[var].end - 1] for var in variables
    )
