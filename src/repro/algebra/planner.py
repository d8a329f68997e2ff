"""The extraction-complexity evaluator (Theorem 5.2, Corollary 5.3).

Evaluates an instantiated RA tree on a document with polynomial delay,
provided every join and difference node shares at most ``max_shared``
variables between its subtrees (Theorem 5.2's precondition — checked, not
assumed).

The module is structured around the paper's two compilation modes:

* **static** (document independent): positive operators and joins compile
  once per query (``union_va``, ``project_va``, ``fpt_join``) — see
  :func:`compile_static_atom`, :func:`apply_project`, :func:`apply_union`
  and :func:`apply_join`;
* **ad hoc** (per document): differences compile for the document at hand
  (:func:`~repro.algebra.difference.adhoc_difference`) — Section 4 shows
  no static compilation can work — and black-box leaves (tractable,
  degree-bounded :class:`Spanner` objects) are materialised per document
  and folded in as straight-line automata (Corollary 5.3); see
  :func:`materialise_blackbox` and :func:`apply_difference`.

:func:`compile_ra` runs both modes bottom-up for a single document.  The
:mod:`repro.engine` subsystem reuses the same helpers but caches the
static prefix across documents (:class:`~repro.engine.plan.CompiledPlan`);
:class:`RAQuery` delegates its evaluation there, so repeated evaluations
of one query share all document-independent work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..core.document import Document, as_document
from ..core.errors import SpannerError
from ..core.mapping import Mapping, Variable
from ..core.relation import SpanRelation
from ..core.spanner import Spanner
from ..regex.ast import RegexFormula
from ..va.automaton import VA
from ..va.compile_regex import regex_to_va
from ..va.evaluation import enumerate_mappings
from ..va.indexed import LayeredIndexedVA
from ..va.normalization import normalize
from ..va.operations import project_va, relation_va, union_va
from .difference import adhoc_difference
from .join import fpt_join
from .sync_difference import PreparedSyncDifference
from .ra_tree import (
    Difference,
    Instantiation,
    Join,
    Leaf,
    Project,
    RANode,
    UnionNode,
)

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports algebra
    from ..engine.core import Engine

#: Default cap on black-box spanner degree (Corollary 5.3 asks for *some*
#: constant; 4 covers all shipped black boxes with room to spare).
DEFAULT_DEGREE_BOUND = 4


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the RA-tree evaluator.

    Attributes:
        max_shared: Theorem 5.2's bound ``k`` on common variables across
            every join/difference node; ``None`` disables the check (the
            evaluation stays correct but forfeits the delay guarantee).
        degree_bound: Corollary 5.3's bound on black-box degrees.
    """

    max_shared: int | None = None
    degree_bound: int = DEFAULT_DEGREE_BOUND


# -- compilation primitives (shared with repro.engine.plan) -----------------


def compile_static_atom(atom) -> VA | None:
    """The document-independent VA of an atomic spanner, or ``None`` when
    the atom is a black box that must be materialised per document."""
    if isinstance(atom, RegexFormula):
        return normalize(regex_to_va(atom))
    if isinstance(atom, VA):
        return normalize(atom)
    if isinstance(atom, Spanner):
        return None
    raise TypeError(f"cannot instantiate a placeholder with {type(atom).__name__}")


def materialise_blackbox(atom: Spanner, doc: Document, config: PlannerConfig) -> VA:
    """Fold a degree-bounded black box into a straight-line automaton for
    one document (Corollary 5.3)."""
    degree = atom.degree()
    if degree > config.degree_bound:
        raise SpannerError(
            f"black-box spanner {atom!r} has degree {degree} > bound "
            f"{config.degree_bound}; Corollary 5.3 requires degree-bounded "
            "black boxes (raise PlannerConfig.degree_bound if intentional)"
        )
    return relation_va(atom.evaluate(doc), doc)


def resolve_projection(node: Project, inst: Instantiation) -> frozenset[Variable]:
    """The concrete variable set of a projection node."""
    if isinstance(node.projection, str):
        return inst.projection(node.projection)
    return node.projection


def apply_project(child: VA, keep: frozenset[Variable]) -> VA:
    """``π_keep`` over a compiled child (normalized post-pass)."""
    return normalize(project_va(child, keep))


def apply_union(left: VA, right: VA) -> VA:
    """``∪`` over compiled children (normalized post-pass: the fresh
    ε-initial is inlined and dead structure dropped before anything is
    built on top)."""
    return normalize(union_va(left, right))


def apply_join(left: VA, right: VA, config: PlannerConfig) -> VA:
    """``⋈`` over compiled children (static FPT compilation, Lemma 3.2;
    normalized post-pass)."""
    check_shared(left, right, config, "join")
    return normalize(fpt_join(left, right))


def apply_difference(
    left: VA, right: VA, doc: Document, config: PlannerConfig
) -> VA:
    """``\\`` over compiled children — always ad hoc (Lemma 4.2)."""
    check_shared(left, right, config, "difference")
    return normalize(adhoc_difference(left, right, doc))


def apply_sync_difference(
    prepared: PreparedSyncDifference, doc: Document
) -> "LayeredIndexedVA | VA":
    """``\\`` through the synchronized compilation (Theorem 4.8): the
    per-document half of an already prepared difference, as the dense form
    the engine runs (:meth:`PreparedSyncDifference.compile_layered`), or
    the automaton the prepared difference keeps for its early answers.
    Unlike every other ``apply_*``, no normalization pass runs: the form
    is already what the enumeration backends index.

    Used by plans whose optimizer proved the subtrahend synchronized for
    the common variables; tractable for *unboundedly many* shared
    variables, so no ``max_shared`` check applies here.
    """
    return prepared.compile_layered(doc)


def check_shared(left: VA, right: VA, config: PlannerConfig, what: str) -> None:
    """Enforce Theorem 5.2's shared-variable bound at a binary node."""
    if config.max_shared is None:
        return
    shared = left.variables & right.variables
    if len(shared) > config.max_shared:
        raise SpannerError(
            f"{what} node shares {len(shared)} variables {sorted(shared)}, "
            f"exceeding the configured bound {config.max_shared} (Theorem 5.2)"
        )


# -- one-shot compilation (no cross-document caching) -----------------------


def compile_ra(
    tree: RANode,
    instantiation: Instantiation,
    document: Document | str,
    config: PlannerConfig | None = None,
) -> VA:
    """Compile an instantiated RA tree into one ad-hoc sequential VA for
    ``document``."""
    config = config or PlannerConfig()
    doc = as_document(document)
    instantiation.validate(tree)
    return _compile(tree, instantiation, doc, config)


def _compile(
    node: RANode, inst: Instantiation, doc: Document, config: PlannerConfig
) -> VA:
    if isinstance(node, Leaf):
        atom = inst.spanner(node.name)
        static = compile_static_atom(atom)
        return static if static is not None else materialise_blackbox(atom, doc, config)
    if isinstance(node, Project):
        return apply_project(
            _compile(node.child, inst, doc, config), resolve_projection(node, inst)
        )
    if isinstance(node, UnionNode):
        return apply_union(
            _compile(node.left, inst, doc, config),
            _compile(node.right, inst, doc, config),
        )
    if isinstance(node, Join):
        return apply_join(
            _compile(node.left, inst, doc, config),
            _compile(node.right, inst, doc, config),
            config,
        )
    if isinstance(node, Difference):
        return apply_difference(
            _compile(node.left, inst, doc, config),
            _compile(node.right, inst, doc, config),
            doc,
            config,
        )
    raise TypeError(f"unknown RA node type {type(node).__name__}")


def enumerate_ra(
    tree: RANode,
    instantiation: Instantiation,
    document: Document | str,
    config: PlannerConfig | None = None,
) -> Iterator[Mapping]:
    """Enumerate ``⟦I[τ]⟧(d)`` with polynomial delay (Theorem 5.2)."""
    doc = as_document(document)
    compiled = compile_ra(tree, instantiation, doc, config)
    return enumerate_mappings(compiled, doc)


def evaluate_ra(
    tree: RANode,
    instantiation: Instantiation,
    document: Document | str,
    config: PlannerConfig | None = None,
) -> SpanRelation:
    """Materialise ``⟦I[τ]⟧(d)``."""
    return SpanRelation(enumerate_ra(tree, instantiation, document, config))


class RAQuery:
    """A fixed RA tree bundled with an instantiation — the unit whose
    *extraction complexity* §5 studies.

    Evaluation delegates to a (lazily created, per-query)
    :class:`repro.engine.core.Engine`, so the static prefix of the tree is
    compiled once and shared across every document this query touches.
    Pass ``engine=`` to share one engine (and its caches/statistics)
    between queries.

    Usage::

        query = RAQuery(tree, instantiation, PlannerConfig(max_shared=2))
        for mapping in query.enumerate(document):
            ...
        relations = query.evaluate_many(["doc one", "doc two"])
    """

    def __init__(
        self,
        tree: RANode,
        instantiation: Instantiation,
        config: PlannerConfig | None = None,
        engine: "Engine | None" = None,
    ):
        instantiation.validate(tree)
        self.tree = tree
        self.instantiation = instantiation
        self.config = config or PlannerConfig()
        self._engine = engine

    @property
    def engine(self) -> "Engine":
        """The engine evaluating this query (created on first use)."""
        if self._engine is None:
            from ..engine.core import Engine

            self._engine = Engine()
        return self._engine

    def compile(self, document: Document | str) -> VA:
        """The ad-hoc VA for one document (static prefix served from the
        engine's plan cache)."""
        return self.engine.compile(self, document)

    def explain(self) -> str:
        """The compiled plan, pretty-printed — physical tree, optimized
        logical plan, and the optimizer's rule-fire summary."""
        return self.engine.explain(self)

    def enumerate(self, document: Document | str) -> Iterator[Mapping]:
        return self.engine.enumerate(self, document)

    def evaluate(self, document: Document | str) -> SpanRelation:
        return self.engine.evaluate(self, document)

    def first(self, document: Document | str) -> "Mapping | None":
        """The first mapping in canonical order, or ``None`` if empty."""
        return self.engine.first(self, document)

    def is_nonempty(self, document: Document | str) -> bool:
        """Decide ``⟦q⟧(d) ≠ ∅`` via the engine's Boolean bitmask pass."""
        return self.engine.is_nonempty(self, document)

    def evaluate_many(
        self, documents, limit: int | None = None, workers: int | None = None
    ) -> list[SpanRelation]:
        """Evaluate a batch of documents, sharing all static compilation.

        ``workers=N`` shards the batch across processes; ``limit`` caps the
        mappings materialised per document."""
        return self.engine.evaluate_many(self, documents, limit=limit, workers=workers)

    def enumerate_stream(
        self, documents, limit: int | None = None
    ) -> Iterator[tuple[int, Mapping]]:
        """Stream ``(document_index, mapping)`` pairs over many documents."""
        return self.engine.enumerate_stream(self, documents, limit=limit)

    def __repr__(self) -> str:
        return f"RAQuery({self.tree})"
