"""VA-derived corpus prefilters: reject non-matching documents in O(1).

Evaluating a spanner on a document that cannot match still costs a full
Boolean forward pass.  For corpus workloads where most documents do not
match, that linear scan per document dominates.  This module derives, once
per compiled automaton, a set of *necessary conditions* on documents —
facts true of **every** document with a nonempty result — and checks them
against per-document statistics the :class:`~repro.core.document.Document`
caches (its letter histogram and length), so the engine can reject a
non-matching document in O(distinct letters) ≈ O(1) without building any
graph, encoding the document, or even touching its text beyond the cached
histogram.

Derived conditions (all on the Boolean letter structure of the trimmed
automaton, i.e. the macro-transition graph of the indexed form):

* **alphabet closure** — a VA consumes the whole document, so any letter
  outside its alphabet makes the result empty;
* **length window** — the minimum number of letters on any accepting path
  (BFS), and, when the letter graph is acyclic, the maximum (longest-path
  DP); documents outside the window cannot match;
* **must-occur letter bounds** — for each letter, the minimum number of
  times it is read on *any* accepting path; a document with fewer
  occurrences cannot match.  The bounds form the must-occur letter
  multiset lower bound: a letter with a positive bound is *required* on
  every accepting path.  A letter read on every accepting path is read on
  any one of them, so only the letters of one shortest accepting path
  (found by the same BFS as the minimum length, with parent pointers) can
  have a positive bound.  Each of those at most ``min_length`` letters
  gets a 0–1 BFS (edges of the letter weigh 1, every other letter 0); the
  rest of the alphabet is never searched.

Cost, once per automaton: O(|Σ|·|Q|) to gather the per-state letter
adjacency from the dense letter × state tables, then O(T) per search over
the T (state, letter, target) edges — one BFS, the longest-path DP, and at
most ``min_length`` 0–1 BFSs, however large Σ is.

Soundness (the prefilter never rejects a document with a nonempty result)
is checked by hypothesis properties in ``tests/va/test_prefilter.py``
against the naive enumerator.  Completeness is not promised — admitted
documents may still turn out empty; they simply proceed to the kernel.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..core.document import Document, as_document
from ..utils.bits import iter_bits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .indexed import IndexedVA

#: Effectively-infinite distance for the 0-1 BFS.
_INF = float("inf")

#: Printable letters :meth:`VAPrefilter.describe` still quotes: the list
#: separator and the characters a quoted letter is written with.
_QUOTED = ",'\\"


class VAPrefilter:
    """Necessary document conditions of one automaton (document free).

    Derived once per automaton from its letter graph: one BFS with parent
    pointers gives ``min_length`` and a shortest accepting path; the
    longest-path DP gives ``max_length``; and a 0–1 BFS per letter of that
    path gives ``required``.  A letter off the path has bound 0, because a
    letter read on every accepting path is read on this one.  So at most
    ``min_length`` letters are searched, whatever the alphabet's size.

    Attributes:
        alphabet: the automaton's interned letter alphabet.
        empty: the automaton's language is empty — every document rejects.
        min_length: minimum letters on any accepting path.
        max_length: maximum letters on any accepting path, or ``None``
            when the letter graph has a cycle (unbounded).
        required: canonically ordered ``(letter, min_count)`` pairs for
            letters with a positive must-occur bound.
    """

    __slots__ = ("alphabet", "empty", "min_length", "max_length", "required")

    def __init__(self, indexed: "IndexedVA"):
        self.alphabet = indexed.alphabet
        initial = indexed.initial_id
        accept_mask = indexed.accept_mask
        adjacency = _letter_adjacency(indexed.successor_masks, indexed.n_states)
        path = _shortest_accepting_path(adjacency, initial, accept_mask)
        self.empty = path is None
        if self.empty:
            self.min_length = 0
            self.max_length = 0
            self.required = ()
            return
        self.min_length = len(path)
        self.max_length = _max_path_length(adjacency, initial, accept_mask)
        signature = self.alphabet.signature
        required = []
        for lid in sorted(set(path)):
            bound = _min_letter_count(adjacency, initial, accept_mask, lid)
            if bound > 0:
                required.append((signature[lid], bound))
        self.required = tuple(required)

    def admits(self, document: Document | str) -> bool:
        """Whether ``document`` passes every necessary condition.

        ``False`` proves the result is empty; ``True`` decides nothing.
        O(distinct letters of the document) after the document's cached
        histogram exists.
        """
        doc = as_document(document)
        return self.admits_profile(len(doc), doc.letter_counts())

    def admits_profile(self, length: int, counts) -> bool:
        """:meth:`admits` on a bare ``(length, letter histogram)`` profile.

        The document-free form: a :class:`~repro.corpus.CorpusStore` keeps
        exactly this profile per document, so its residual filter runs the
        check straight off the persisted rows, hydrating only the
        survivors.  ``counts`` is any mapping letter → occurrences.
        """
        if self.empty:
            return False
        if length < self.min_length:
            return False
        if self.max_length is not None and length > self.max_length:
            return False
        ids = self.alphabet.ids
        if len(counts) > len(ids):
            return False  # pigeonhole: some letter is outside the alphabet
        for letter in counts:
            if letter not in ids:
                return False
        for letter, bound in self.required:
            if counts.get(letter, 0) < bound:
                return False
        return True

    def describe(self) -> str:
        """One line for ``CompiledPlan.explain()``: letters that would
        break the line or read ambiguously are quoted (see :func:`_show`)."""
        if self.empty:
            return "empty language (rejects every document)"
        letters = "".join(map(_show, self.alphabet.signature))
        window = f"length ≥ {self.min_length}"
        if self.max_length is not None:
            window = f"length in [{self.min_length}, {self.max_length}]"
        parts = [f"letters ⊆ {{{letters}}}", window]
        if self.required:
            bounds = ", ".join(
                f"{_show(letter)}×{bound}" if bound > 1 else _show(letter)
                for letter, bound in self.required
            )
            parts.append(f"requires {bounds}")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"VAPrefilter({self.describe()})"


def _show(letter: str) -> str:
    """``letter`` bare, or as its ``repr`` when it is non-printable,
    whitespace or in :data:`_QUOTED`."""
    if letter.isprintable() and not letter.isspace() and letter not in _QUOTED:
        return letter
    return repr(letter)


def _letter_adjacency(
    succ: "list[list[int]]", n_states: int
) -> "list[list[tuple[int, int]]]":
    """``adjacency[state]``: the ``(letter id, target mask)`` pairs of the
    letters ``state`` has an edge on, letter ids ascending."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]
    for lid, row in enumerate(succ):
        for state, targets in enumerate(row):
            if targets:
                adjacency[state].append((lid, targets))
    return adjacency


def _shortest_accepting_path(
    adjacency: "list[list[tuple[int, int]]]", initial: int, accept_mask: int
) -> "list[int] | None":
    """The letter ids of one shortest path from ``initial`` to an accepting
    state (BFS with parent pointers), or ``None`` when no accepting state
    is reachable (empty language)."""
    if (accept_mask >> initial) & 1:
        return []
    parent: "list[tuple[int, int] | None]" = [None] * len(adjacency)
    seen = 1 << initial
    queue: deque[int] = deque((initial,))
    while queue:
        state = queue.popleft()
        for lid, targets in adjacency[state]:
            fresh = targets & ~seen
            if not fresh:
                continue
            seen |= fresh
            for target in iter_bits(fresh):
                parent[target] = (state, lid)
                if (accept_mask >> target) & 1:
                    # BFS discovers states in depth order: this one is nearest.
                    path = []
                    while target != initial:
                        target, letter = parent[target]
                        path.append(letter)
                    path.reverse()
                    return path
                queue.append(target)
    return None


def _max_path_length(
    adjacency: "list[list[tuple[int, int]]]", initial: int, accept_mask: int
) -> "int | None":
    """Longest letter path from ``initial`` to an accepting state, or
    ``None`` when the letter graph is cyclic (unbounded documents)."""
    n_states = len(adjacency)
    out_masks = [0] * n_states
    for state, edges in enumerate(adjacency):
        for _, targets in edges:
            out_masks[state] |= targets
    # Kahn's algorithm over the reachable subgraph: cycle ⇒ unbounded.
    indegree = [0] * n_states
    for state in range(n_states):
        for target in iter_bits(out_masks[state]):
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
    if len(topo) < n_states:
        return None  # a cycle somewhere in the (trimmed) graph
    longest = [-1] * n_states
    longest[initial] = 0
    best = None
    for state in topo:
        here = longest[state]
        if here < 0:
            continue
        if (accept_mask >> state) & 1 and (best is None or here > best):
            best = here
        for target in iter_bits(out_masks[state]):
            if here + 1 > longest[target]:
                longest[target] = here + 1
    return best


def _min_letter_count(
    adjacency: "list[list[tuple[int, int]]]",
    initial: int,
    accept_mask: int,
    letter_id: int,
) -> int:
    """Minimum number of ``letter_id`` edges on any accepting path (0-1
    BFS: edges of the letter weigh 1, every other letter weighs 0; each
    state's edges are merged into one mask per weight)."""
    dist: list[float] = [_INF] * len(adjacency)
    dist[initial] = 0
    queue: deque[int] = deque((initial,))
    while queue:
        state = queue.popleft()
        here = dist[state]
        free = counted = 0
        for lid, targets in adjacency[state]:
            if lid == letter_id:
                counted = targets
            else:
                free |= targets
        for target in iter_bits(free):
            if here < dist[target]:
                dist[target] = here
                queue.appendleft(target)
        here += 1
        for target in iter_bits(counted):
            if here < dist[target]:
                dist[target] = here
                queue.append(target)
    best = min((dist[state] for state in iter_bits(accept_mask)), default=_INF)
    return 0 if best is _INF else int(best)
