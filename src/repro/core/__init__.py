"""Core substrate: documents, spans, mappings, relations, spanner ABC."""

from .document import Alphabet, Document, as_document
from .errors import (
    ArityError,
    BudgetExceeded,
    DeadlineExceeded,
    EvaluationError,
    ExecutionCancelled,
    ExecutionInterrupted,
    MappingError,
    NotFunctionalError,
    NotSequentialError,
    NotSynchronizedError,
    RegexSyntaxError,
    SpanError,
    SpannerError,
    StoreBusy,
    StoreCorrupt,
    VariableError,
)
from .mapping import EMPTY_MAPPING, Mapping, Variable, compatible, merge
from .relation import EMPTY_RELATION, SpanRelation
from .spanner import ConstantSpanner, RelationSpanner, Spanner
from .spans import Span, all_spans, count_spans, span

__all__ = [
    "Alphabet",
    "ArityError",
    "BudgetExceeded",
    "ConstantSpanner",
    "DeadlineExceeded",
    "Document",
    "EMPTY_MAPPING",
    "EMPTY_RELATION",
    "EvaluationError",
    "ExecutionCancelled",
    "ExecutionInterrupted",
    "Mapping",
    "MappingError",
    "NotFunctionalError",
    "NotSequentialError",
    "NotSynchronizedError",
    "RegexSyntaxError",
    "RelationSpanner",
    "Span",
    "SpanError",
    "SpanRelation",
    "Spanner",
    "SpannerError",
    "StoreBusy",
    "StoreCorrupt",
    "Variable",
    "VariableError",
    "all_spans",
    "as_document",
    "compatible",
    "count_spans",
    "merge",
    "span",
]
