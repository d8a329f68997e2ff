"""Compiled query plans: logical IR → optimizer → physical plan.

The paper separates RA-tree compilation into a *static* part that is
document independent — regex/VA leaves, projections, unions, and FPT joins
(Sections 3 and 5) — and an *ad-hoc* part that must be rebuilt per
document — differences (Section 4 proves static compilation blows up) and
black-box leaves (Corollary 5.3 materialises them on the document).

:func:`build_plan` runs the full pipeline:

1. resolve the instantiated RA tree into the logical IR
   (:func:`repro.algebra.logical.from_ra`);
2. optimize it with the rewrite-rule engine
   (:func:`repro.engine.optimizer.optimize`) — skipped with
   ``optimize=False``;
3. **lower** the logical plan, fusing every maximal static subtree
   bottom-up into a single pre-compiled :class:`StaticNode` and leaving
   only the ad-hoc suffix as live plan nodes.  Lowering memoizes physical
   nodes by logical fingerprint, so duplicate subtrees share one compiled
   node (plan-level CSE); an engine-supplied ``static_cache`` extends the
   sharing across queries.

Evaluating the plan on a document then recompiles *only* the ad-hoc
suffix; a query with no difference and no black box collapses to one
:class:`StaticNode` and is compiled exactly once, ever.  A synchronized
difference (Theorem 4.8) over static children splits further: its
document-independent half — the operand checks, the subtrahend analysis
and the minuend's indexed used-set components — is built on the first
document and kept in the :class:`SyncDifferencePlanNode`; only the match
graphs and the product sweep run per document.

A node compiles to a :class:`VA`, or, for a synchronized difference, to
the dense per-document form the sweep emits
(:class:`~repro.va.indexed.LayeredIndexedVA`), which the engine runs with
no VA in between; a projection over one projects the form.  A node that
composes automata (union, join, either difference) takes its children's
VAs (:func:`as_va`), building a form's VA view only then.

The compilation primitives themselves live in
:mod:`repro.algebra.planner` — this module only decides *when* each one
runs.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import Iterator, MutableMapping

from ..algebra.logical import (
    BlackboxAtom,
    LDifference,
    LJoin,
    LProject,
    LSyncDifference,
    LUnion,
    LogicalNode,
    StaticAtom,
    from_ra,
)
from ..algebra.planner import (
    PlannerConfig,
    apply_difference,
    apply_join,
    apply_project,
    apply_sync_difference,
    apply_union,
    materialise_blackbox,
)
from ..algebra.ra_tree import Instantiation, RANode
from ..algebra.sync_difference import PreparedSyncDifference
from ..core.document import Document
from ..core.errors import SpannerError
from ..core.mapping import Variable
from ..core.spanner import Spanner
from ..va.automaton import VA
from ..va.indexed import LayeredIndexedVA
from .optimizer import OptimizerReport, optimize
from .stats import EngineStats


def as_va(compiled: "VA | LayeredIndexedVA") -> VA:
    """A plan node's per-document result as a VA: a dense form's VA view
    is built on demand."""
    return compiled if isinstance(compiled, VA) else compiled.va


class PlanNode(abc.ABC):
    """A node of a compiled plan.  Static nodes carry their VA; ad-hoc
    nodes compile per document on demand."""

    is_static: bool = False

    @abc.abstractmethod
    def compile_for(self, doc: Document, stats: EngineStats) -> "VA | LayeredIndexedVA":
        """The node's VA for one document, or the dense form of a
        per-document product."""

    def walk(self) -> Iterator["PlanNode"]:
        stack: list[PlanNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def describe(self) -> str:
        """One line for :meth:`CompiledPlan.explain`."""
        return type(self).__name__


class StaticNode(PlanNode):
    """A maximal document-independent subtree, compiled once at plan-build
    time."""

    is_static = True
    __slots__ = ("va",)

    def __init__(self, va: VA):
        self.va = va

    def compile_for(self, doc: Document, stats: EngineStats) -> VA:
        stats.static_reuses += 1
        return self.va

    def describe(self) -> str:
        return f"static {self.va!r}"

    def __repr__(self) -> str:
        return f"StaticNode({self.va!r})"


class BlackboxNode(PlanNode):
    """A black-box leaf, materialised per document (Corollary 5.3)."""

    __slots__ = ("atom", "config")

    def __init__(self, atom: Spanner, config: PlannerConfig):
        self.atom = atom
        self.config = config

    def compile_for(self, doc: Document, stats: EngineStats) -> VA:
        stats.adhoc_compiles += 1
        return materialise_blackbox(self.atom, doc, self.config)

    def describe(self) -> str:
        return f"blackbox {self.atom!r} [per document]"

    def __repr__(self) -> str:
        return f"BlackboxNode({self.atom!r})"


class ProjectNode(PlanNode):
    """Projection over an ad-hoc child.

    A dense per-document form is projected as a form, by re-interning its
    opset ids.  A VA child is projected through the normalization
    pipeline; when the child hands back the same VA as last time (a
    synchronized difference's early answer), so does the projection, and
    its prepared form is reused with it."""

    __slots__ = ("child", "keep", "_last")

    def __init__(self, child: PlanNode, keep: frozenset[Variable]):
        self.child = child
        self.keep = keep
        self._last: "tuple[VA, VA] | None" = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def compile_for(self, doc: Document, stats: EngineStats) -> "VA | LayeredIndexedVA":
        stats.adhoc_compiles += 1
        child = self.child.compile_for(doc, stats)
        if isinstance(child, LayeredIndexedVA):
            return child.projected(self.keep)
        last = self._last
        if last is None or last[0] is not child:
            last = self._last = (child, apply_project(child, self.keep))
        return last[1]

    def describe(self) -> str:
        keep = ",".join(sorted(map(str, self.keep)))
        return f"π[{keep}] [ad hoc]"


class UnionPlanNode(PlanNode):
    """Union with at least one ad-hoc side."""

    __slots__ = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def compile_for(self, doc: Document, stats: EngineStats) -> VA:
        stats.adhoc_compiles += 1
        return apply_union(
            as_va(self.left.compile_for(doc, stats)),
            as_va(self.right.compile_for(doc, stats)),
        )

    def describe(self) -> str:
        return "∪ [ad hoc]"


class JoinPlanNode(PlanNode):
    """FPT join with at least one ad-hoc side."""

    __slots__ = ("left", "right", "config")

    def __init__(self, left: PlanNode, right: PlanNode, config: PlannerConfig):
        self.left = left
        self.right = right
        self.config = config

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def compile_for(self, doc: Document, stats: EngineStats) -> VA:
        stats.adhoc_compiles += 1
        return apply_join(
            as_va(self.left.compile_for(doc, stats)),
            as_va(self.right.compile_for(doc, stats)),
            self.config,
        )

    def describe(self) -> str:
        return "⋈ [ad hoc]"


class DifferencePlanNode(PlanNode):
    """Difference — always ad hoc (Section 4)."""

    __slots__ = ("left", "right", "config")

    def __init__(self, left: PlanNode, right: PlanNode, config: PlannerConfig):
        self.left = left
        self.right = right
        self.config = config

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def compile_for(self, doc: Document, stats: EngineStats) -> VA:
        stats.adhoc_compiles += 1
        return apply_difference(
            as_va(self.left.compile_for(doc, stats)),
            as_va(self.right.compile_for(doc, stats)),
            doc,
            self.config,
        )

    def describe(self) -> str:
        return "∖ [ad hoc]"


class SyncDifferencePlanNode(DifferencePlanNode):
    """Difference lowered by the optimizer to the synchronized compilation
    (Theorem 4.8): the subtrahend was statically proven synchronized for
    the common variables, so the per-document build is polynomial without
    Theorem 5.2's ``max_shared`` bound — which is therefore deliberately
    *not* enforced on this path.

    Theorem 4.8's document-independent half (the
    :class:`~repro.algebra.sync_difference.PreparedSyncDifference`: the
    operand checks, the subtrahend analysis, the minuend's used-set
    components and their indexed forms) is built on the first document
    and kept when both children are static, so later documents run only
    the per-document half (match graphs and product sweep), which yields
    the dense form the engine runs.  Its early answers (the minuend, the
    empty spanner) are then one kept automaton each, for every document.
    With an ad-hoc child the half is built per document, over the child's
    VA.  A build that raises is not kept, so the error repeats on every
    evaluation."""

    __slots__ = ("_prepared",)

    def __init__(self, left: PlanNode, right: PlanNode, config: PlannerConfig):
        super().__init__(left, right, config)
        self._prepared: PreparedSyncDifference | None = None

    def compile_for(self, doc: Document, stats: EngineStats) -> "VA | LayeredIndexedVA":
        stats.adhoc_compiles += 1
        # A static child hands back its compiled VA and counts the reuse.
        left = as_va(self.left.compile_for(doc, stats))
        right = as_va(self.right.compile_for(doc, stats))
        prepared = self._prepared
        if prepared is None:
            prepared = PreparedSyncDifference(left, right)
            if self.left.is_static and self.right.is_static:
                self._prepared = prepared
        return apply_sync_difference(prepared, doc)

    def describe(self) -> str:
        return "∖ synchronized (Thm 4.8) [ad hoc]"


class CompiledPlan:
    """The compiled form of one instantiated RA tree.

    Attributes:
        root: the plan's root node.
        logical: the (optimized) logical plan the physical one was lowered
            from, or ``None`` for bare-VA plans.
        report: the :class:`OptimizerReport`, or ``None`` when the
            optimizer was disabled.
        config: the planner configuration baked into the plan.
        n_static: distinct plan nodes compiled once at build time (each may
            cover a whole fused subtree of the original RA tree).
        n_adhoc: distinct plan nodes recompiled for every document.
    """

    __slots__ = (
        "root",
        "tree",
        "instantiation",
        "config",
        "logical",
        "report",
        "n_static",
        "n_adhoc",
    )

    def __init__(
        self,
        root: PlanNode,
        tree: "RANode | None",
        instantiation: "Instantiation | None",
        config: PlannerConfig,
        logical: "LogicalNode | None" = None,
        report: "OptimizerReport | None" = None,
    ):
        self.root = root
        self.tree = tree
        self.instantiation = instantiation
        self.config = config
        self.logical = logical
        self.report = report
        # CSE can make the plan a DAG; count each shared node once.
        nodes = {id(node): node for node in root.walk()}
        self.n_static = sum(1 for node in nodes.values() if node.is_static)
        self.n_adhoc = len(nodes) - self.n_static

    @property
    def is_fully_static(self) -> bool:
        """Whether one VA serves every document (no ad-hoc suffix)."""
        return self.root.is_static

    def va_for(self, doc: Document, stats: EngineStats) -> "VA | LayeredIndexedVA":
        """The (possibly ad-hoc) automaton evaluating the query on
        ``doc``: a VA, or the dense form of a per-document product, which
        the engine runs as is (:func:`as_va` gives its VA view).  Both
        carry ``n_states``."""
        return self.root.compile_for(doc, stats)

    def static_states(self) -> int:
        """Total states across the distinct pre-compiled static nodes —
        the size the optimizer tries to shrink."""
        nodes = {id(node): node for node in self.root.walk()}
        return sum(
            node.va.n_states for node in nodes.values() if isinstance(node, StaticNode)
        )

    def explain(self) -> str:
        """A multi-line rendering of the plan: the physical tree (shared
        CSE nodes marked), the optimized logical plan, and the optimizer's
        rule-fire summary."""
        uses: dict[int, int] = {}
        for node in self.root.walk():
            uses[id(node)] = uses.get(id(node), 0) + 1
        lines = [repr(self)]
        lines.append("physical:")

        def render(node: PlanNode, depth: int) -> None:
            shared = f" [shared ×{uses[id(node)]}]" if uses[id(node)] > 1 else ""
            lines.append("  " * (depth + 1) + node.describe() + shared)
            for child in node.children():
                render(child, depth + 1)

        render(self.root, 0)
        root = self.root
        if isinstance(root, StaticNode):
            from ..va.properties import is_sequential

            if is_sequential(root.va):
                lines.append(f"prefilter: {root.va.prefilter().describe()}")
            else:
                lines.append("prefilter: n/a (non-sequential automaton)")
        else:
            lines.append("prefilter: n/a (ad-hoc plan suffix)")
        if self.logical is not None:
            label = "logical (optimized):" if self.report is not None else "logical:"
            lines.append(label)
            for line in self.logical.pretty().splitlines():
                lines.append("  " + line)
        if self.report is not None:
            lines.append(f"optimizer: {self.report.summary()}")
        else:
            lines.append("optimizer: disabled")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(static={self.n_static}, adhoc={self.n_adhoc}, "
            f"fully_static={self.is_fully_static})"
        )


def check_join_bounds(node: LogicalNode, config: PlannerConfig) -> None:
    """Enforce Theorem 5.2's shared-variable bound on the query's joins
    *as written*.

    The optimizer flattens and reorders join folds, so the lowering's
    pairwise check would otherwise be evaluated against a different
    association than the user wrote — and a valid query could start
    failing (or an invalid one passing) depending on what the rules did.
    Checking here, on the pre-rewrite logical tree, keeps the bound's
    behaviour independent of the optimizer.  Differences keep their check
    at compile time (matching the per-document materialisation of
    black-box operands) — except the synchronized path, which needs no
    bound (Theorem 4.8).
    """
    if config.max_shared is None:
        return
    for current in node.walk():
        if not isinstance(current, LJoin):
            continue
        operands = current.operands
        for i in range(len(operands)):
            for j in range(i + 1, len(operands)):
                shared = operands[i].variables & operands[j].variables
                if len(shared) > config.max_shared:
                    raise SpannerError(
                        f"join node shares {len(shared)} variables "
                        f"{sorted(shared)}, exceeding the configured bound "
                        f"{config.max_shared} (Theorem 5.2)"
                    )


def resolve_logical(
    tree: RANode,
    instantiation: Instantiation,
    config: PlannerConfig,
    optimize_plan: bool,
    stats: "EngineStats | None" = None,
) -> "tuple[LogicalNode, OptimizerReport | None]":
    """The front half of plan compilation, shared by :func:`build_plan`
    and the engine: validate, resolve the logical IR, enforce the join
    bound on the as-written shape, run the rewrite rules, and fold the
    per-rule counters into ``stats``."""
    instantiation.validate(tree)
    logical = from_ra(tree, instantiation, config)
    report: OptimizerReport | None = None
    if optimize_plan:
        check_join_bounds(logical, config)
        logical, report = optimize(logical)
        if stats is not None:
            stats.rules_fired += report.total_fired
            for name, count in report.fired.items():
                stats.rule_fires[name] = stats.rule_fires.get(name, 0) + count
    return logical, report


def build_plan(
    tree: RANode,
    instantiation: Instantiation,
    config: PlannerConfig | None = None,
    *,
    optimize_plan: bool = True,
    stats: "EngineStats | None" = None,
    static_cache: "MutableMapping[object, StaticNode] | None" = None,
) -> CompiledPlan:
    """Compile an instantiated RA tree: logical IR → optimizer → lowering.

    Args:
        optimize_plan: run the rewrite-rule optimizer (default); ``False``
            lowers the raw logical tree — the escape hatch the engine's
            ``optimize=False`` exposes.
        stats: optional :class:`EngineStats` receiving rule-fire and CSE
            counters.
        static_cache: optional fingerprint-keyed cache of
            :class:`StaticNode` shared across plans (supplied by the
            engine).
    """
    config = config or PlannerConfig()
    logical, report = resolve_logical(tree, instantiation, config, optimize_plan, stats)
    return plan_from_logical(
        logical,
        tree,
        instantiation,
        config,
        report=report,
        stats=stats,
        static_cache=static_cache,
        join_bound_checked=optimize_plan,
    )


def plan_from_logical(
    logical: LogicalNode,
    tree: "RANode | None",
    instantiation: "Instantiation | None",
    config: PlannerConfig,
    report: "OptimizerReport | None" = None,
    stats: "EngineStats | None" = None,
    static_cache: "MutableMapping[object, StaticNode] | None" = None,
    join_bound_checked: bool = False,
) -> CompiledPlan:
    """Lower an already-built (and possibly optimized) logical plan.

    ``join_bound_checked=True`` records that :func:`check_join_bounds`
    already ran on the pre-rewrite tree, so lowering skips the pairwise
    join check (whose pairs the optimizer may have reassociated).
    """
    root = lower_logical(
        logical,
        config,
        stats=stats,
        static_cache=static_cache,
        join_bound_checked=join_bound_checked,
    )
    return CompiledPlan(root, tree, instantiation, config, logical, report)


def lower_logical(
    node: LogicalNode,
    config: PlannerConfig,
    *,
    stats: "EngineStats | None" = None,
    static_cache: "MutableMapping[object, StaticNode] | None" = None,
    join_bound_checked: bool = False,
    _memo: "dict[str, PlanNode] | None" = None,
) -> PlanNode:
    """Lower a logical plan to physical nodes with static fusion and CSE.

    Duplicate logical subtrees (by fingerprint) lower to the *same*
    physical node, so their static prefixes compile once and their
    prepared forms (``VA.indexed()``) are shared.  ``static_cache``
    extends the same sharing across plans: any fully static subtree is
    looked up by fingerprint (plus the join bound its compilation is
    subject to, so a lax-config plan can never satisfy a strict-config
    query from cache) before being compiled.
    """
    memo: dict[str, PlanNode] = {} if _memo is None else _memo
    # When the bound was already enforced on the as-written tree, the
    # (possibly reassociated) join folds must not re-check different pairs.
    join_config = (
        replace(config, max_shared=None) if join_bound_checked else config
    )

    def intern_static(fingerprint: str, build) -> StaticNode:
        key = (fingerprint, join_config.max_shared)
        if static_cache is not None:
            cached = static_cache.get(key)
            if cached is not None:
                if stats is not None:
                    stats.cse_hits += 1
                return cached
        built = StaticNode(build())
        if static_cache is not None:
            static_cache[key] = built
        return built

    def fold_static(nodes: list[StaticNode], combine) -> StaticNode:
        va = nodes[0].va
        for other in nodes[1:]:
            va = combine(va, other.va)
        return StaticNode(va)

    def lower(node: LogicalNode) -> PlanNode:
        hit = memo.get(node.fingerprint)
        if hit is not None:
            if stats is not None:
                stats.cse_hits += 1
            return hit
        out = _lower(node)
        memo[node.fingerprint] = out
        return out

    def _lower(node: LogicalNode) -> PlanNode:
        if isinstance(node, StaticAtom):
            return intern_static(node.fingerprint, lambda: node.va)
        if isinstance(node, BlackboxAtom):
            return BlackboxNode(node.atom, config)
        if isinstance(node, LProject):
            child = lower(node.child)
            if child.is_static:
                return intern_static(
                    node.fingerprint, lambda: apply_project(child.va, node.keep)
                )
            return ProjectNode(child, node.keep)
        if isinstance(node, (LUnion, LJoin)):
            lowered = [lower(child) for child in node.operands]
            statics = [n for n in lowered if n.is_static]
            adhoc = [n for n in lowered if not n.is_static]
            if isinstance(node, LUnion):
                combine = apply_union
                binary = UnionPlanNode
            else:
                combine = lambda a, b: apply_join(a, b, join_config)  # noqa: E731
                binary = lambda left, right: JoinPlanNode(left, right, join_config)  # noqa: E731
            if statics and not adhoc:
                return intern_static(
                    node.fingerprint, lambda: fold_static(statics, combine).va
                )
            pieces: list[PlanNode] = (
                [fold_static(statics, combine)] if statics else []
            ) + adhoc
            result = pieces[0]
            for piece in pieces[1:]:
                result = binary(result, piece)
            return result
        if isinstance(node, LSyncDifference):
            return SyncDifferencePlanNode(lower(node.left), lower(node.right), config)
        if isinstance(node, LDifference):
            return DifferencePlanNode(lower(node.left), lower(node.right), config)
        raise TypeError(f"cannot lower {type(node).__name__}")

    return lower(node)
