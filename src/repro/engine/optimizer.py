"""The rule-based logical-plan optimizer.

The paper's complexity map is uneven: projections and unions are free
(§3.1), joins are FPT in the product of the operands (Lemma 3.2),
differences are exponential unless restricted (§4).  The optimizer reshapes
a logical plan (:mod:`repro.algebra.logical`) toward the cheap fragments
*before* any automaton product is built:

========================  ====================================================
rule                      effect
========================  ====================================================
``prune-empty``           drop statically-empty operands: ``∅ ∪ A → A``,
                          ``∅ ⋈ A → ∅``, ``A ∖ ∅ → A``, ``π(∅) → ∅``,
                          ``∅ ∖ A → ∅``
``flatten-union``         ``(A ∪ B) ∪ C → ∪(A, B, C)`` (n-ary splice)
``flatten-join``          the same for ``⋈`` (associative & commutative
                          under the schemaless semantics, §2.4)
``dedup-union``           ``A ∪ A → A`` by structural fingerprint (*not*
                          applied to joins — schemaless ``⋈`` is not
                          idempotent: differing-domain mappings combine)
``project-project``       ``π_Y(π_Z(A)) → π_{Y∩Z}(A)``
``project-identity``      ``π_Y(A) → A`` when ``Vars(A) ⊆ Y``
``push-project-union``    ``π_Y(∪ Aᵢ) → ∪ π_Y(Aᵢ)``
``push-project-join``     ``π_Y(⋈ Aᵢ) → π_Y(⋈ π_{(Y∪S)∩Vars(Aᵢ)}(Aᵢ))``
                          where ``S`` is the set of variables shared by ≥2
                          operands — compatibility only constrains ``S``,
                          so keeping ``Y ∪ S`` in each operand preserves
                          the join exactly while shrinking every product
``fold-static-project``   materialise ``π`` over a static atom (normalized)
``order-operands``        sort n-ary operand lists by estimated state
                          count — the lowering left-folds in list order, so
                          products grow from the smallest operands, and the
                          canonical order makes commutative variants share
                          one fingerprint (plan-cache / CSE hits)
``sync-difference``       lower ``A ∖ B`` to the synchronized-difference
                          compilation (Theorem 4.8) when ``B`` is static
                          and synchronized for the common variables —
                          tractable **without** Theorem 5.2's bound on the
                          number of shared variables, so the planner's
                          ``max_shared`` check is deliberately skipped on
                          this path
========================  ====================================================

:func:`optimize` drives the rules to a fixpoint (bottom-up, memoized by
structural fingerprint — identical subtrees are rewritten once and come
back as the *same* object, which is what plan-level CSE keys on) and
returns an :class:`OptimizerReport` with per-rule fired counters that the
engine folds into :class:`~repro.engine.stats.EngineStats`.

All rules are semantics-preserving on every document; the hypothesis suite
(`tests/properties/test_optimizer_equivalence.py`) checks optimized plans
against both the unoptimized plans and the naive run-semantics evaluator
on both enumeration backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..algebra.logical import (
    BlackboxAtom,
    LDifference,
    LJoin,
    LProject,
    LSyncDifference,
    LUnion,
    LogicalNode,
    StaticAtom,
)
from ..algebra.planner import apply_project
from ..algebra.sync_difference import synchronized_subtrahend
from ..core.errors import NotSynchronizedError
from ..va.properties import is_sequential

#: Safety valve on per-node rule application (rules are designed to be
#: terminating; the cap turns a regression into a missed rewrite instead of
#: a hang).
MAX_LOCAL_REWRITES = 32

#: Safety valve on whole-tree passes.
MAX_PASSES = 8


@dataclass
class OptimizerReport:
    """What one :func:`optimize` run did."""

    fired: dict[str, int] = field(default_factory=dict)
    passes: int = 0
    estimate_before: int = 0
    estimate_after: int = 0

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())

    def record(self, rule_name: str) -> None:
        self.fired[rule_name] = self.fired.get(rule_name, 0) + 1

    def summary(self) -> str:
        if not self.fired:
            return "no rewrites"
        parts = ", ".join(
            f"{name} ×{count}" for name, count in sorted(self.fired.items())
        )
        return f"{self.total_fired} rewrite(s): {parts}"


class RewriteRule(abc.ABC):
    """One local, semantics-preserving plan rewrite."""

    #: Stable identifier used in reports and :class:`EngineStats`.
    name: str = "?"

    @abc.abstractmethod
    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        """The rewritten node, or ``None`` when the rule does not apply.

        Must return a *different* plan (by fingerprint) or ``None`` —
        the driver treats a same-fingerprint result as "did not fire".
        """

    def __repr__(self) -> str:
        return f"<rule {self.name}>"


def _is_empty_atom(node: LogicalNode) -> bool:
    return isinstance(node, StaticAtom) and node.is_empty


class PruneEmpty(RewriteRule):
    """Empty/identity pruning around statically-empty operands."""

    name = "prune-empty"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if isinstance(node, LUnion):
            alive = [c for c in node.operands if not _is_empty_atom(c)]
            if len(alive) == len(node.operands):
                return None
            if not alive:
                return node.operands[0]  # everything is empty
            if len(alive) == 1:
                return alive[0]
            return LUnion(alive)
        if isinstance(node, LJoin):
            for child in node.operands:
                if _is_empty_atom(child):
                    return child  # ∅ ⋈ … = ∅
            return None
        if isinstance(node, LProject):
            if _is_empty_atom(node.child):
                return node.child
            return None
        if isinstance(node, LDifference):  # includes LSyncDifference
            if _is_empty_atom(node.left):
                return node.left
            if _is_empty_atom(node.right):
                return node.left  # A ∖ ∅ = A
            return None
        return None


class FlattenNary(RewriteRule):
    """Splice same-type n-ary children into their parent (and unwrap
    single-operand nodes); both ``∪`` and ``⋈`` are associative, the
    latter under the schemaless semantics of §2.4."""

    def __init__(self, node_type: type, name: str):
        self.node_type = node_type
        self.name = name

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if type(node) is not self.node_type:
            return None
        if len(node.operands) == 1:
            return node.operands[0]
        if not any(type(c) is self.node_type for c in node.operands):
            return None
        spliced: list[LogicalNode] = []
        for child in node.operands:
            if type(child) is self.node_type:
                spliced.extend(child.operands)
            else:
                spliced.append(child)
        return self.node_type(spliced)


class DedupUnion(RewriteRule):
    """``A ∪ A → A`` (set semantics; sound because equal fingerprints mean
    structurally identical automata)."""

    name = "dedup-union"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if not isinstance(node, LUnion):
            return None
        seen: set[str] = set()
        unique: list[LogicalNode] = []
        for child in node.operands:
            if child.fingerprint not in seen:
                seen.add(child.fingerprint)
                unique.append(child)
        if len(unique) == len(node.operands):
            return None
        if len(unique) == 1:
            return unique[0]
        return LUnion(unique)


class ProjectProject(RewriteRule):
    name = "project-project"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if isinstance(node, LProject) and isinstance(node.child, LProject):
            return LProject(node.child.child, node.keep & node.child.keep)
        return None


class ProjectIdentity(RewriteRule):
    name = "project-identity"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if isinstance(node, LProject) and node.child.variables <= node.keep:
            return node.child
        return None


class PushProjectThroughUnion(RewriteRule):
    name = "push-project-union"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if not (isinstance(node, LProject) and isinstance(node.child, LUnion)):
            return None
        return LUnion([LProject(c, node.keep) for c in node.child.operands])


class PushProjectThroughJoin(RewriteRule):
    """``π_Y(⋈ Aᵢ)``: project each operand down to ``(Y ∪ S) ∩ Vars(Aᵢ)``.

    ``S`` (variables in ≥2 operands) is everything join compatibility can
    see — mapping overlaps satisfy ``dom(μᵢ) ∩ dom(μⱼ) ⊆ S`` — so keeping
    all of ``S`` preserves exactly the compatible pairs, and restricting
    the combined result to ``Y`` commutes with restricting the inputs to
    ``Y ∪ S`` first.  Fires only when some operand actually shrinks.
    """

    name = "push-project-join"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if not (isinstance(node, LProject) and isinstance(node.child, LJoin)):
            return None
        join = node.child
        retain = node.keep | join.shared_variables()
        if all(c.variables <= retain for c in join.operands):
            return None
        pushed = [
            LProject(c, retain & c.variables) if not c.variables <= retain else c
            for c in join.operands
        ]
        return LProject(LJoin(pushed), node.keep)


class FoldStaticProject(RewriteRule):
    """Materialise a projection over a static atom (the result is
    normalized by :func:`~repro.algebra.planner.apply_project`, so folding
    early also shrinks the atom for everything built above)."""

    name = "fold-static-project"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if not (isinstance(node, LProject) and isinstance(node.child, StaticAtom)):
            return None
        if node.child.variables <= node.keep:
            return node.child
        return StaticAtom(
            apply_project(node.child.va, node.keep), origin=node.child.origin
        )


class OrderOperands(RewriteRule):
    """Canonicalise n-ary operand order: smallest estimated state count
    first (ties broken by fingerprint).  The lowering left-folds in list
    order, so join products grow from the small operands; the canonical
    order also makes commutative variants fingerprint-equal."""

    name = "order-operands"

    @staticmethod
    def _key(node: LogicalNode) -> tuple[int, str]:
        return (node.estimated_states, node.fingerprint)

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if not isinstance(node, (LUnion, LJoin)) or len(node.operands) < 2:
            return None
        ordered = sorted(node.operands, key=self._key)
        if list(node.operands) == ordered:
            return None
        return LUnion(ordered) if isinstance(node, LUnion) else LJoin(ordered)


class LowerSyncDifference(RewriteRule):
    """Mark a difference as eligible for the Theorem-4.8 compilation.

    Eligibility is :func:`repro.algebra.sync_difference.synchronized_subtrahend`,
    the same analysis the compilation runs, checked statically on the
    subtrahend: project it onto the common variables, drop the never-used
    ones, and require the result to be synchronized and functional for the
    effective common set.  The check is sound for per-document minuends
    too: at evaluation time the runtime common set can only shrink, and
    synchronizedness is preserved under projection to subsets.
    """

    name = "sync-difference"

    def apply(self, node: LogicalNode) -> "LogicalNode | None":
        if not isinstance(node, LDifference) or isinstance(node, LSyncDifference):
            return None
        right = node.right
        if not isinstance(right, StaticAtom) or right.is_empty:
            return None
        if not is_sequential(right.va):
            return None
        try:
            analysis = synchronized_subtrahend(
                right.va, node.left.variables & right.variables
            )
        except NotSynchronizedError:
            return None
        if analysis is None:
            return None
        return LSyncDifference(node.left, right)


#: The default rule set, in application order (first applicable rule fires,
#: then the node is re-examined until no rule applies).
DEFAULT_RULES: tuple[RewriteRule, ...] = (
    PruneEmpty(),
    FlattenNary(LUnion, "flatten-union"),
    FlattenNary(LJoin, "flatten-join"),
    DedupUnion(),
    ProjectProject(),
    ProjectIdentity(),
    PushProjectThroughUnion(),
    PushProjectThroughJoin(),
    FoldStaticProject(),
    OrderOperands(),
    LowerSyncDifference(),
)


def _with_children(
    node: LogicalNode, children: tuple[LogicalNode, ...]
) -> LogicalNode:
    """A copy of ``node`` over new children (atoms are returned as-is)."""
    if isinstance(node, LProject):
        return LProject(children[0], node.keep)
    if isinstance(node, LUnion):
        return LUnion(children)
    if isinstance(node, LJoin):
        return LJoin(children)
    if isinstance(node, LSyncDifference):
        return LSyncDifference(children[0], children[1])
    if isinstance(node, LDifference):
        return LDifference(children[0], children[1])
    return node


def optimize(
    root: LogicalNode,
    rules: "tuple[RewriteRule, ...] | None" = None,
    max_passes: int = MAX_PASSES,
) -> tuple[LogicalNode, OptimizerReport]:
    """Rewrite a logical plan to a fixpoint of the rule set.

    Returns the optimized plan and the :class:`OptimizerReport`.  The
    returned plan is a DAG: structurally identical subtrees are the same
    object (the lowering's CSE relies on this).
    """
    active = DEFAULT_RULES if rules is None else rules
    report = OptimizerReport(estimate_before=root.estimated_states)
    current = root
    for _ in range(max_passes):
        memo: dict[str, LogicalNode] = {}
        before = current.fingerprint
        current = _rewrite(current, active, memo, report)
        report.passes += 1
        if current.fingerprint == before:
            break
    report.estimate_after = current.estimated_states
    return current, report


def _rewrite(
    node: LogicalNode,
    rules: tuple[RewriteRule, ...],
    memo: dict[str, LogicalNode],
    report: OptimizerReport,
) -> LogicalNode:
    """Bottom-up rewrite with per-fingerprint memoization (= logical CSE)."""
    done = memo.get(node.fingerprint)
    if done is not None:
        return done
    original_fingerprint = node.fingerprint
    children = node.children()
    rewritten = tuple(_rewrite(child, rules, memo, report) for child in children)
    current = node
    if any(a is not b for a, b in zip(rewritten, children)):
        current = _with_children(node, rewritten)
    for _ in range(MAX_LOCAL_REWRITES):
        fired = False
        for rule in rules:
            out = rule.apply(current)
            if out is None or out.fingerprint == current.fingerprint:
                continue
            report.record(rule.name)
            out_children = out.children()
            out_rewritten = tuple(
                _rewrite(child, rules, memo, report) for child in out_children
            )
            if any(a is not b for a, b in zip(out_rewritten, out_children)):
                out = _with_children(out, out_rewritten)
            current = out
            fired = True
            break
        if not fired:
            break
    memo[original_fingerprint] = current
    memo[current.fingerprint] = current
    return current
