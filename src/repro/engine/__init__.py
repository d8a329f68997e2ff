"""The staged execution engine: plan caching, pluggable backends, batch
evaluation.

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
* :mod:`repro.engine.backends` — interchangeable enumeration backends
  (``indexed``, which picks the run walk or the letter walk per document,
  and the numpy-backed ``vectorized``); the frozenset
  :class:`~repro.va.matchgraph.MatchGraph` walk and the naive enumerator
  stay in :mod:`repro.va` as reference oracles, not backends;
* :mod:`repro.engine.guards` — execution guards: wall-clock deadlines,
  cooperative cancellation (:class:`CancelToken`), and resource budgets
  (:class:`Budget`) enforced cooperatively along every evaluation path;
* :class:`EngineStats` — cache, optimizer, compile-time and graph-size
  statistics.
"""

from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    EnumerationBackend,
    IndexedBackend,
    PreparedVA,
    VectorizedBackend,
    available_backends,
    get_backend,
)
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
    "BACKENDS",
    "Budget",
    "CancelToken",
    "CompiledPlan",
    "DEFAULT_BACKEND",
    "DEFAULT_RULES",
    "Engine",
    "EngineStats",
    "EnumerationBackend",
    "ExecutionContext",
    "ExecutionGuard",
    "IndexedBackend",
    "OptimizerReport",
    "PlanNode",
    "PreparedVA",
    "RewriteRule",
    "StaticNode",
    "SyncDifferencePlanNode",
    "TailSession",
    "VectorizedBackend",
    "available_backends",
    "build_plan",
    "get_backend",
    "lower_logical",
    "optimize",
    "plan_from_logical",
]
