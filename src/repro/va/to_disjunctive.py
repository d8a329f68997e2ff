"""Sequential VA → disjunctive functional VA (Prop. 3.9(2), §3.2).

A *disjunctive functional* VA is a disjoint union of functional VAs behind
one fresh ε-initial state.  Every sequential VA has an equivalent one, but
the translation may square the state count per variable — a ``2^|Vars|``
blow-up overall, and Proposition 3.11 shows this is unavoidable.  The E4
bench traces exactly that curve.

Construction: semi-functionalise for all variables (making the used-set of
every accepting state definite), then for each used-set ``V`` realised by
some accepting state, carve out the sub-automaton of runs ending in those
states.  Each carved automaton is functional for ``V`` (the paper's
Appendix A.2): its accepting runs end in states whose used-set is ``V``,
so each run closes exactly the variables of ``V``, and a valid run closes
every variable it opens, so it operates on ``V`` and nothing else.  Every
accepting run of the input ends in exactly one accepting state, hence in
exactly one carved automaton, so their union is equivalent to the input.
"""

from __future__ import annotations

from ..core.errors import NotSequentialError, SpannerError
from ..core.mapping import Variable
from .automaton import VA
from .configurations import accepting_used_sets
from .normalization import dedup_transitions
from .operations import project_va, trim, union_all
from .properties import is_sequential
from .semi_functional import make_semi_functional


def functional_components(
    va: VA, max_components: int | None = None
) -> dict[frozenset[Variable], VA]:
    """Split a sequential VA into functional VAs, one per realised
    used-variable set.

    Args:
        va: a sequential VA.
        max_components: optional guard — raise :class:`SpannerError` when
            the number of realised used-sets exceeds it (the blow-up is
            exponential in the worst case; callers probing Prop. 3.11 use
            this to fail fast).

    Returns:
        A dict mapping each used-set ``V`` to a trimmed functional VA whose
        accepting runs use exactly ``V``.
    """
    if not is_sequential(va):
        raise NotSequentialError("disjunctive-functional translation requires a sequential VA")
    # Trim the semi-functional form before splitting: states that cannot
    # reach acceptance would otherwise be copied into every component.
    prepared = trim(make_semi_functional(trim(va), va.variables))
    used_sets = accepting_used_sets(prepared, va.variables)
    groups: dict[frozenset[Variable], list] = {}
    for state, used in used_sets.items():
        groups.setdefault(used, []).append(state)
    if max_components is not None and len(groups) > max_components:
        raise SpannerError(
            f"disjunctive-functional translation needs {len(groups)} components, "
            f"exceeding the limit of {max_components}"
        )
    components: dict[frozenset[Variable], VA] = {}
    for used, accepting in groups.items():
        component = trim(prepared.with_accepting(accepting))
        # Transitions mentioning unused variables cannot survive trimming
        # (they lead only to accepting states of other used-sets), but the
        # projection is a harmless belt-and-braces normalisation.  The
        # projection can leave parallel ε-duplicates of formerly distinct
        # operation edges; dedup + trim keeps the carved automata minimal.
        component = trim(dedup_transitions(project_va(component, used)))
        components[used] = component.relabelled()
    return components


def to_disjunctive_functional_va(va: VA, max_components: int | None = None) -> VA:
    """An equivalent disjunctive functional VA (Prop. 3.9(2)).

    The result is a fresh initial state with ε-edges into pairwise-disjoint
    functional components.
    """
    components = functional_components(va, max_components=max_components)
    if not components:
        return trim(va)  # the empty spanner
    ordered = [components[key] for key in sorted(components, key=sorted)]
    if len(ordered) == 1:
        return ordered[0]
    return trim(dedup_transitions(union_all(ordered))).relabelled()


def count_functional_components(va: VA) -> int:
    """Number of functional components the translation produces — the
    measurement reported by the E4 (Prop. 3.11) bench."""
    return len(functional_components(va))
