"""Execution guards: deadlines, cooperative cancellation, resource budgets.

Every evaluation entry point of the engine accepts an
:class:`ExecutionGuard` (or the ``deadline=`` / ``budget=`` shorthands
that build one).  The guard is consulted *cooperatively* by the layers
underneath — match-graph construction checks it at **run boundaries** (so
guard overhead is O(runs), not O(positions)), the enumeration DFS ticks
it per stack frame through a strided counter (one clock read every
:data:`ExecutionGuard.TICK_STRIDE` frames), and the engine charges each
emitted mapping against the budget — and trips by raising the structured
:class:`~repro.core.errors.DeadlineExceeded` /
:class:`~repro.core.errors.BudgetExceeded` /
:class:`~repro.core.errors.ExecutionCancelled` taxonomy.

Two degradation modes (``on_budget``):

* ``"raise"`` (default) — the trip propagates to the caller; the engine
  attaches the partial prefix materialised so far plus an
  :class:`~repro.engine.stats.EngineStats` snapshot to the exception.
* ``"partial"`` — the engine absorbs the trip and returns the prefix
  enumerated so far; :attr:`ExecutionGuard.truncated` (and, for
  materialised results, ``SpanRelation.truncated``) records the reason.

The *unguarded* hot path pays only ``guard is None`` tests: no clock
reads, no counter arithmetic — the ≤ 5 % overhead bar of the committed
kernel benches.  Guards are engine-agnostic (no engine import) and safe
to share across a document batch: budgets are cumulative over the
guard's lifetime, which is exactly the "at most N mappings for this whole
request" semantics a query service needs.

Budgets can be written as a spec string (the CLI's ``--budget``)::

    mappings=10000,states=2m,edge-rows=500k,cache-bytes=64m

Cancellation is a shared :class:`CancelToken`: hand the same token to a
guard per request and flip it from any thread — every guarded loop exits
at its next checkpoint with :class:`ExecutionCancelled`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    ExecutionCancelled,
    ExecutionInterrupted,
    SpannerError,
)
from ..testing import faults


def exception_for(reason: str) -> "type[ExecutionInterrupted]":
    """The taxonomy class of a trip reason string — how the parent of a
    worker shard re-raises a trip that happened across the process
    boundary (only the reason travels back, not the exception)."""
    if reason == "deadline":
        return DeadlineExceeded
    if reason == "cancelled":
        return ExecutionCancelled
    if reason.startswith("budget"):
        return BudgetExceeded
    return ExecutionInterrupted


class CancelToken:
    """A shared, thread-safe cooperative cancellation flag.

    ``cancel()`` is a single attribute write (atomic under the GIL);
    guarded loops observe it at their next checkpoint.  One token may be
    shared by any number of guards — cancelling aborts them all.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; the first reason wins)."""
        if not self._cancelled:
            self.reason = reason
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self._cancelled else "armed"
        return f"CancelToken({state})"


_SUFFIXES = {"k": 1_000, "m": 1_000_000, "g": 1_000_000_000}


def _parse_amount(text: str) -> int:
    text = text.strip().lower().replace("_", "")
    scale = 1
    if text and text[-1] in _SUFFIXES:
        scale = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise SpannerError(f"budget amount {text!r} is not an integer") from None
    return value * scale


@dataclass(frozen=True)
class Budget:
    """Resource ceilings for one guard (``None`` = unlimited).

    Attributes:
        mappings: maximum mappings emitted to the caller.
        states: maximum live match-graph states materialised (summed over
            every graph whose backward pass runs under the guard).
        edge_rows: maximum enumeration edge rows materialised (one per
            live ``(layer, state)`` pair the DFS expands).
        cache_bytes: ceiling on the (estimated) bytes held by the
            transition kernel's cross-document letter-walk caches
            (interned frontier nodes, the ``first()`` memo) — a gauge of
            their current size, checked once per guarded letter-walk
            graph construction (text; documents that take the run walk
            and Theorem 4.8's per-document forms build no nodes), not a
            cumulative charge.
    """

    mappings: "int | None" = None
    states: "int | None" = None
    edge_rows: "int | None" = None
    cache_bytes: "int | None" = None

    _FIELDS = {
        "mappings": "mappings",
        "states": "states",
        "edge-rows": "edge_rows",
        "edge_rows": "edge_rows",
        "cache-bytes": "cache_bytes",
        "cache_bytes": "cache_bytes",
    }

    @classmethod
    def parse(cls, spec: str) -> "Budget":
        """Parse a ``key=value,key=value`` spec (``k``/``m``/``g``
        suffixes allowed), e.g. ``"mappings=10k,cache-bytes=64m"``."""
        values: dict[str, int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, amount = part.partition("=")
            field_name = cls._FIELDS.get(key.strip().lower())
            if not sep or field_name is None:
                raise SpannerError(
                    f"bad budget entry {part!r}; expected "
                    f"key=value with key in {sorted(set(cls._FIELDS))}"
                )
            values[field_name] = _parse_amount(amount)
        if not values:
            raise SpannerError(f"budget spec {spec!r} sets no limits")
        return cls(**values)

    @classmethod
    def coerce(cls, value: "Budget | dict | str | None") -> "Budget | None":
        """Accept a :class:`Budget`, a kwargs dict, a spec string, or
        ``None`` (the engine entry points funnel through this)."""
        if value is None or isinstance(value, Budget):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls(**value)
        raise SpannerError(f"cannot read a budget from {type(value).__name__}")


class ExecutionGuard:
    """One evaluation's deadline, cancellation token, and budgets.

    Args:
        deadline: wall-clock seconds from guard *creation*; arm the guard
            right before the work it bounds.
        budget: a :class:`Budget` (or spec string / dict).
        cancel: a shared :class:`CancelToken`.
        on_budget: ``"raise"`` (trips propagate, carrying the partial
            prefix) or ``"partial"`` (the engine absorbs the trip and
            returns the prefix with a truncation flag).
        clock: monotonic-clock override (tests, fault-injected skew); the
            default consults :func:`repro.testing.faults.clock`, which is
            ``time.monotonic`` unless a fault plan skews it.

    The charge/tick methods are deliberately tiny: ``tick()`` touches the
    clock once every :data:`TICK_STRIDE` calls, ``check()`` always reads
    it, and the ``charge_*`` family is integer arithmetic plus one
    comparison.  Callers on unguarded paths never call any of them — they
    test ``guard is not None`` once.
    """

    #: Frames between real clock reads in :meth:`tick` — per-frame DFS
    #: loops stay integer-only between strides.
    TICK_STRIDE = 64

    __slots__ = (
        "deadline",
        "budget",
        "cancel",
        "on_budget",
        "_clock",
        "_deadline_at",
        "tripped",
        "truncated",
        "checks",
        "deadline_hits",
        "budget_hits",
        "spent_mappings",
        "spent_states",
        "spent_edge_rows",
        "_tick_count",
        "_drained",
    )

    def __init__(
        self,
        deadline: "float | None" = None,
        budget: "Budget | dict | str | None" = None,
        cancel: "CancelToken | None" = None,
        on_budget: str = "raise",
        clock: "Callable[[], float] | None" = None,
    ):
        if on_budget not in ("raise", "partial"):
            raise SpannerError(
                f"on_budget must be 'raise' or 'partial', not {on_budget!r}"
            )
        self.deadline = deadline
        self.budget = Budget.coerce(budget)
        self.cancel = cancel
        self.on_budget = on_budget
        self._clock = clock if clock is not None else faults.clock
        self._deadline_at = (
            None if deadline is None else self._clock() + deadline
        )
        #: The reason of the first trip (``None`` while healthy).
        self.tripped: "str | None" = None
        #: Set by the engine when a trip was absorbed in partial mode.
        self.truncated: "str | None" = None
        self.checks = 0
        self.deadline_hits = 0
        self.budget_hits = 0
        self.spent_mappings = 0
        self.spent_states = 0
        self.spent_edge_rows = 0
        self._tick_count = 0
        self._drained = (0, 0, 0)

    # -- properties ---------------------------------------------------------

    @property
    def degrade(self) -> bool:
        """Whether trips should be absorbed into a truncated prefix."""
        return self.on_budget == "partial"

    def remaining(self) -> "float | None":
        """Seconds left on the deadline (``None`` = no deadline; clamped
        at ``0.0``) — what the parallel path forwards to shards."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    # -- checkpoints --------------------------------------------------------

    def check(self) -> None:
        """The full checkpoint: cancellation, then the deadline.  Run
        this at run boundaries and call entries — anywhere O(1) clock
        reads are affordable."""
        self.checks += 1
        if faults.ACTIVE is not None:
            faults.slow_step("guard.check")
        cancel = self.cancel
        if cancel is not None and cancel.cancelled:
            self._trip(
                ExecutionCancelled,
                "cancelled",
                f"evaluation cancelled ({cancel.reason})",
            )
        at = self._deadline_at
        if at is not None and self._clock() > at:
            self.deadline_hits += 1
            self._trip(
                DeadlineExceeded,
                "deadline",
                f"evaluation exceeded its {self.deadline:g}s deadline",
                counted=True,
            )

    def tick(self) -> None:
        """The strided checkpoint for per-frame loops: integer-only for
        :data:`TICK_STRIDE` - 1 calls out of every :data:`TICK_STRIDE`."""
        self._tick_count += 1
        if self._tick_count >= self.TICK_STRIDE:
            self._tick_count = 0
            self.check()

    # -- budget charges -----------------------------------------------------

    def charge_mappings(self, count: int = 1) -> None:
        """Charge emitted mappings (cumulative over the guard's life)."""
        self.spent_mappings += count
        budget = self.budget
        if (
            budget is not None
            and budget.mappings is not None
            and self.spent_mappings > budget.mappings
        ):
            self._budget_trip("mappings", budget.mappings)

    def charge_states(self, count: int) -> None:
        """Charge materialised live match-graph states."""
        self.spent_states += count
        budget = self.budget
        if (
            budget is not None
            and budget.states is not None
            and self.spent_states > budget.states
        ):
            self._budget_trip("states", budget.states)

    def charge_edge_rows(self, count: int = 1) -> None:
        """Charge materialised enumeration edge rows."""
        self.spent_edge_rows += count
        budget = self.budget
        if (
            budget is not None
            and budget.edge_rows is not None
            and self.spent_edge_rows > budget.edge_rows
        ):
            self._budget_trip("edge-rows", budget.edge_rows)

    def gauge_cache_bytes(self, total: int) -> None:
        """Check the (estimated) kernel cache footprint against the
        ``cache_bytes`` ceiling — a gauge of current size, not a
        cumulative charge."""
        budget = self.budget
        if (
            budget is not None
            and budget.cache_bytes is not None
            and total > budget.cache_bytes
        ):
            self._budget_trip("cache-bytes", budget.cache_bytes)

    # -- tripping -----------------------------------------------------------

    def _budget_trip(self, which: str, ceiling: int) -> None:
        self.budget_hits += 1
        self._trip(
            BudgetExceeded,
            f"budget:{which}",
            f"evaluation exceeded its {which} budget ({ceiling})",
            counted=True,
        )

    def _trip(
        self, exc_cls, reason: str, message: str, counted: bool = False
    ) -> None:
        if self.tripped is None:
            self.tripped = reason
        raise exc_cls(message, reason=reason)

    # -- stats attribution --------------------------------------------------

    def drain_into(self, stats) -> None:
        """Attribute this guard's counter growth since the last drain to
        an :class:`~repro.engine.stats.EngineStats` (exactly once — the
        same guard may span many engine calls)."""
        checks, deadline_hits, budget_hits = self._drained
        stats.guard_checks += self.checks - checks
        stats.deadline_hits += self.deadline_hits - deadline_hits
        stats.budget_hits += self.budget_hits - budget_hits
        self._drained = (self.checks, self.deadline_hits, self.budget_hits)

    def __repr__(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}s")
        if self.budget is not None:
            parts.append(f"budget={self.budget}")
        if self.cancel is not None:
            parts.append(f"cancel={self.cancel!r}")
        if self.tripped:
            parts.append(f"tripped={self.tripped!r}")
        return f"ExecutionGuard({', '.join(parts) or 'unbounded'})"
