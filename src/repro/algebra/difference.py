"""Ad-hoc (document-dependent) difference compilation (Lemma 4.2 / Thm 4.3).

Static compilation of ``A1 \\ A2`` into a VA is impossible without an
exponential blow-up — already for Boolean spanners it subsumes NFA
complementation [17].  The paper's way out is an *ad-hoc* automaton built
for the specific input document:

1. project the subtrahend onto the common variables ``V`` (only they can
   affect compatibility) and materialise ``R2 = ⟦π_V A2⟧(d)``;
2. materialise ``R1V = ⟦π_V A1⟧(d)`` and keep ``Good`` — the V-mappings
   incompatible with **every** member of R2 (for fixed ``|V| ≤ k`` both
   relations have polynomially many mappings, ≤ (1+|spans(d)|)^k);
3. split ``A1`` by the subset ``Y ⊆ V`` of common variables its runs use
   (semi-functionalisation, Lemma 3.6) and join each component with the
   straight-line automata of the ``Good`` mappings with domain exactly
   ``Y``.

Step 3's per-used-set pairing subsumes the paper's dummy "marker variable"
device (Appendix B.1): the markers exist to force the join to match
mappings with equal V-domains, which pairing components with equal-domain
paths achieves directly.  Note also that ``Good`` is defined through the
true SPARQL compatibility relation, not as Appendix B.1's literal set
complement of the marked extensions of R2.  The complement removes a
minuend V-mapping only when some member of R2 *equals* it, domain
included, while compatibility only asks the two to agree on their common
domain.  So a subtrahend mapping whose domain differs from the minuend's
would remove nothing: the empty mapping in R2, compatible with every
mapping, must empty the whole difference, and the complement would keep
it intact.  The regression test
``test_empty_mapping_in_subtrahend_empties_difference`` pins this.
"""

from __future__ import annotations

from ..core.document import Document, as_document
from ..core.errors import NotSequentialError, SpannerError
from ..core.mapping import Mapping
from ..core.relation import SpanRelation
from ..va.automaton import VA
from ..va.evaluation import evaluate_va, is_nonempty
from ..va.operations import empty_va, project_va, relation_va, trim, union_all
from ..va.properties import is_sequential
from .join import factorized_product, used_set_components


def adhoc_difference(
    first: VA,
    second: VA,
    document: Document | str,
    max_shared: int | None = None,
) -> VA:
    """A sequential VA ``Ad`` with ``⟦Ad⟧(d) = ⟦A1 \\ A2⟧(d)`` for the
    given document ``d`` (Lemma 4.2).

    Polynomial time for any fixed bound on ``|Vars(A1) ∩ Vars(A2)|``; the
    exponent grows with that bound (and must, by Theorem 4.4's
    W[1]-hardness).

    Args:
        first: the minuend ``A1`` (sequential).
        second: the subtrahend ``A2`` (sequential).
        document: the document the result is valid for.
        max_shared: optional guard on ``|Vars(A1) ∩ Vars(A2)|``; raises
            :class:`SpannerError` when exceeded (used by the planner to
            enforce Theorem 5.2's precondition).

    Returns:
        An ad-hoc sequential VA — valid **only** for ``document``.
    """
    if not is_sequential(first) or not is_sequential(second):
        raise NotSequentialError("adhoc_difference requires sequential operands")
    doc = as_document(document)
    shared = first.variables & second.variables
    if max_shared is not None and len(shared) > max_shared:
        raise SpannerError(
            f"difference shares {len(shared)} variables, exceeding the bound "
            f"{max_shared} required for tractability (Theorem 4.3)"
        )
    first = trim(first)
    second = trim(second)

    # The subtrahend matters only through its projection onto the common
    # variables: compatibility constrains dom(µ1) ∩ dom(µ2) ⊆ V, and
    # restricting µ2 to V preserves exactly the compatible pairs.
    projected_second = trim(project_va(second, shared))
    if not is_nonempty(projected_second, doc):
        return first  # nothing to subtract
    if len(doc) == 0:
        # On the empty document every span is [1,1>, so any two mappings
        # are compatible; a nonempty subtrahend empties the difference.
        return empty_va()
    subtrahend_relation = evaluate_va(projected_second, doc)
    if Mapping() in subtrahend_relation:
        # The empty mapping is compatible with everything.
        return empty_va()

    # Minuend mappings survive based only on their V-restriction.
    projected_first = trim(project_va(first, shared))
    minuend_relation = evaluate_va(projected_first, doc)
    good = survivors(minuend_relation, subtrahend_relation)
    if not good:
        return empty_va()

    # Pair each used-set component of A1 with the straight-line automata
    # of the good mappings with exactly that domain.
    components = used_set_components(first, shared)
    by_domain: dict[frozenset, list[Mapping]] = {}
    for mapping in good:
        by_domain.setdefault(mapping.domain, []).append(mapping)
    pieces: list[VA] = []
    for used, component in components.items():
        mappings = by_domain.get(used)
        if not mappings:
            continue
        checker = relation_va(mappings, doc)
        product = factorized_product(component, checker, used)
        if product.accepting:
            pieces.append(product)
    if not pieces:
        return empty_va()
    if len(pieces) == 1:
        return pieces[0]
    return union_all(pieces).relabelled()


def survivors(minuend: SpanRelation, subtrahend: SpanRelation) -> SpanRelation:
    """The mappings of ``minuend`` compatible with no mapping of
    ``subtrahend`` (the semantic difference, exposed for reuse)."""
    return minuend.difference(subtrahend)
