"""The staged execution engine: plan caching, the prepared automaton,
batch evaluation.

Layering: ``core`` → ``regex``/``va`` → ``algebra`` → **engine**.  The
engine sits on top of the algebra and owns everything that amortises work
across documents:

* :class:`Engine` / :class:`ExecutionContext` — the compiled-plan cache
  (keyed both structurally and by logical-plan fingerprint) and the
  batch/streaming entry points;
* :mod:`repro.engine.optimizer` — the rewrite-rule optimizer reshaping
  logical plans (:mod:`repro.algebra.logical`) toward the paper's cheap
  fragments before compilation;
* :mod:`repro.engine.plan` — lowering to the static-prefix /
  ad-hoc-suffix split of every RA query (the paper's Sections 3–5
  compilation modes), with plan-level CSE;
* :mod:`repro.engine.backends` — :class:`PreparedIndexedVA`, the one
  enumeration path, which picks the run walk or the letter walk per
  document; the frozenset :class:`~repro.va.matchgraph.MatchGraph` walk
  and the naive enumerator stay in :mod:`repro.va` as reference oracles;
* :mod:`repro.engine.guards` — execution guards: wall-clock deadlines,
  cooperative cancellation (:class:`CancelToken`), and resource budgets
  (:class:`Budget`) enforced cooperatively along every evaluation path;
* :class:`EngineStats` — cache, optimizer, compile-time and
  enumeration-work statistics.
"""

from .backends import PreparedIndexedVA
from .core import Engine, ExecutionContext
from .guards import Budget, CancelToken, ExecutionGuard
from .optimizer import (
    DEFAULT_RULES,
    OptimizerReport,
    RewriteRule,
    optimize,
)
from .plan import (
    CompiledPlan,
    PlanNode,
    StaticNode,
    SyncDifferencePlanNode,
    build_plan,
    lower_logical,
    plan_from_logical,
)
from .stats import EngineStats
from .tail import TailSession

__all__ = [
    "Budget",
    "CancelToken",
    "CompiledPlan",
    "DEFAULT_RULES",
    "Engine",
    "EngineStats",
    "ExecutionContext",
    "ExecutionGuard",
    "OptimizerReport",
    "PlanNode",
    "PreparedIndexedVA",
    "RewriteRule",
    "StaticNode",
    "SyncDifferencePlanNode",
    "TailSession",
    "build_plan",
    "lower_logical",
    "optimize",
    "plan_from_logical",
]
