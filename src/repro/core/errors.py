"""Exception hierarchy for the spanner library.

Every error raised by this package derives from :class:`SpannerError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the individual failure modes.
"""

from __future__ import annotations


class SpannerError(Exception):
    """Base class for all errors raised by this library."""


class SpanError(SpannerError, ValueError):
    """An ill-formed span, e.g. ``[i, j>`` with ``j < i`` or ``i < 1``."""


class MappingError(SpannerError, ValueError):
    """An ill-formed mapping, e.g. merging incompatible mappings."""


class RegexSyntaxError(SpannerError, ValueError):
    """The textual regex-formula syntax could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotSequentialError(SpannerError, ValueError):
    """An algorithm requiring a sequential regex formula / VA got a
    non-sequential one.

    Most upper-bound constructions in the paper (Theorem 2.5, Lemma 3.2,
    Lemma 4.2, Theorem 4.8) are only correct — and only tractable — for
    sequential inputs, so we refuse loudly instead of producing garbage.
    """


class NotFunctionalError(SpannerError, ValueError):
    """An algorithm requiring a functional regex formula / VA got a
    non-functional one."""


class NotSynchronizedError(SpannerError, ValueError):
    """Theorem 4.8 requires the subtrahend to be synchronized for the
    common variables; this error reports a violation."""


class ArityError(SpannerError, ValueError):
    """An RA-tree instantiation does not match the tree's placeholders."""


class EvaluationError(SpannerError, RuntimeError):
    """An internal invariant of an evaluation algorithm was violated."""


class ExecutionInterrupted(SpannerError, RuntimeError):
    """An evaluation was stopped by an
    :class:`~repro.engine.guards.ExecutionGuard` before completing.

    Structured: :attr:`reason` names what tripped (``"deadline"``,
    ``"budget:mappings"``, ``"cancelled"``, …), :attr:`partial` carries
    whatever prefix of the result the tripped call had already produced
    (``None`` when the call materialises nothing), and :attr:`stats` is an
    :class:`~repro.engine.stats.EngineStats` snapshot taken at the trip
    (``None`` when the guard ran outside an engine).  With
    ``on_budget="partial"`` the engine absorbs this exception and returns
    the prefix with a truncation flag instead.
    """

    def __init__(
        self,
        message: str,
        reason: str = "interrupted",
        partial=None,
        stats=None,
    ):
        super().__init__(message)
        self.reason = reason
        self.partial = partial
        self.stats = stats


class DeadlineExceeded(ExecutionInterrupted):
    """The guard's wall-clock deadline passed mid-evaluation."""


class BudgetExceeded(ExecutionInterrupted):
    """A guard resource budget (mappings, states, edge rows, cache bytes)
    was exhausted mid-evaluation."""


class ExecutionCancelled(ExecutionInterrupted):
    """The guard's shared :class:`~repro.engine.guards.CancelToken` was
    cancelled by another thread."""


class StoreBusy(SpannerError, RuntimeError):
    """A corpus-store sqlite call stayed locked/busy through every retry
    of the store's bounded backoff policy.  Transient by nature — another
    writer holds the file — so retrying the whole operation later is
    legitimate; the store never half-applies a transaction."""


class StoreCorrupt(SpannerError, RuntimeError):
    """A corpus-store file is damaged (malformed database, failed
    integrity check) — *not* a transient lock, so it is never retried.
    The message carries the ``corpus rebuild --verify`` hint when the
    derived state (artifacts, posting lists) may still be repairable."""


class VariableError(SpannerError, ValueError):
    """An invalid variable usage, e.g. re-opening an already open variable
    in a context that forbids it."""
