"""The traced run: spans around the library's public entry points.

:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records one span per call — name, start, end, parent span
and op id — in memory.  Iterators returned by the enumeration entry
points are wrapped too, with one span per ``next()``: lazy backends do
their work there, after the call has returned.  Entry points are looked
up when the tracer is installed; one that a refactor removed is reported
in :attr:`Tracer.absent` and the run goes on without it.

A span's self time is its duration minus that of its direct children, and
a layer's time is the self time of its entry points.  The harness opens
one root span per op (and one around set-up), so the root spans' own self
time is what no entry point accounts for; ``trace.coverage`` is the rest
as a share of summed op time.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``(module, class or None, attribute, layer)``.  Subclasses follow their
#: base classes so an inherited method is wrapped once, on the base.
ENTRY_POINTS = (
    ("repro", None, "parse", "va.compile_s"),
    ("repro", None, "regex_to_va", "va.compile_s"),
    ("repro", None, "trim", "va.compile_s"),
    ("repro.engine.core", "Engine", "prepare", "engine.plan.self_s"),
    ("repro.engine.core", "Engine", "evaluate", "engine.core.self_s"),
    ("repro.engine.core", "Engine", "evaluate_many", "engine.core.self_s"),
    ("repro.engine.core", "Engine", "is_nonempty_many", "engine.core.self_s"),
    ("repro.engine.plan", "CompiledPlan", "va_for", "algebra.adhoc_s"),
    ("repro.va.automaton", "VA", "prefilter", "va.prefilter.self_s"),
    ("repro.va.prefilter", "VAPrefilter", "admits", "va.prefilter.self_s"),
    ("repro.va.automaton", "VA", "indexed", "engine.backends.prepare_s"),
    ("repro.va.automaton", "VA", "vectorized", "engine.backends.prepare_s"),
    ("repro.engine.backends", "MatchGraphBackend", "prepare", "engine.backends.prepare_s"),
    ("repro.engine.backends", "IndexedBackend", "prepare", "engine.backends.prepare_s"),
    ("repro.engine.backends", "VectorizedBackend", "prepare", "engine.backends.prepare_s"),
    ("repro.engine.backends", "PreparedMatchGraphVA", "run", "va.forward_s"),
    ("repro.engine.backends", "PreparedMatchGraphVA", "is_nonempty", "va.forward_s"),
    ("repro.engine.backends", "PreparedIndexedVA", "run", "va.forward_s"),
    ("repro.engine.backends", "PreparedIndexedVA", "run_extended", "va.forward_s"),
    ("repro.engine.backends", "PreparedIndexedVA", "is_nonempty", "va.forward_s"),
    ("repro.engine.backends", "PreparedVectorizedVA", "run", "va.forward_s"),
    ("repro.engine.backends", "PreparedVectorizedVA", "run_extended", "va.forward_s"),
    ("repro.engine.backends", "PreparedVectorizedVA", "is_nonempty", "va.forward_s"),
    ("repro.engine.backends", "_MatchGraphRun", "enumerate", "va.enumerate_s"),
    ("repro.engine.backends", "_MatchGraphRun", "first", "va.enumerate_s"),
    ("repro.engine.backends", "_MatchGraphRun", "states_alive", "va.enumerate_s"),
    ("repro.va.indexed", "IndexedMatchGraph", "enumerate", "va.enumerate_s"),
    ("repro.va.indexed", "IndexedMatchGraph", "first", "va.enumerate_s"),
    ("repro.va.indexed", "IndexedMatchGraph", "states_alive", "va.enumerate_s"),
    ("repro.va.vectorized", "VectorizedMatchGraph", "enumerate", "va.enumerate_s"),
    ("repro.va.vectorized", "VectorizedMatchGraph", "first", "va.enumerate_s"),
    ("repro.va.vectorized", "VectorizedMatchGraph", "states_alive", "va.enumerate_s"),
    ("repro.corpus.store", "CorpusStore", "add_many", "corpus.store.ingest_s"),
    ("repro.corpus.store", "CorpusStore", "append", "corpus.store.append_s"),
    ("repro.corpus.store", "CorpusStore", "survivors", "corpus.index.self_s"),
    ("repro.corpus.store", "CorpusStore", "document", "corpus.store.hydrate_s"),
    ("repro.engine.tail", "TailSession", "reevaluate", "engine.tail.self_s"),
    ("repro.core.document", "Document", "runs", "core.document.encode_s"),
    ("repro.core.document", "Document", "encoded", "core.document.encode_s"),
    ("repro.core.document", "Document", "letter_counts", "core.document.encode_s"),
)

#: Every layer of :data:`ENTRY_POINTS`, in report order.
LAYERS = tuple(dict.fromkeys(layer for *_rest, layer in ENTRY_POINTS))

#: Entry points whose iterator results get one span per ``next()``.
_ITERATING = frozenset({"enumerate"})

#: Per-call measurements kept in the span's ``value`` slot.
_MEASURES = {
    "CompiledPlan.va_for": lambda va: va.n_states,
    "TailSession.reevaluate": len,
}

ROOT_OP = "op"
ROOT_SETUP = "setup"

# Span record slots.
NAME, START, END, PARENT, OP, VALUE = range(6)


class Tracer:
    """Installs the span wrappers and keeps the spans of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self._installed: list[tuple] = []
        self._layer_of: dict[str, str] = {}

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for module_name, class_name, attribute, layer in ENTRY_POINTS:
            name = f"{class_name or module_name}.{attribute}"
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            if getattr(original, "_perfbench_traced", False):
                continue  # inherited from a base class wrapped already
            own = class_name is None or attribute in vars(owner)
            setattr(owner, attribute, self._wrap(original, name))
            self._installed.append((owner, attribute, original, own))
            self._layer_of[name] = layer

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._installed):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._installed.clear()

    def _wrap(self, function, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self
        iterating = name.rsplit(".", 1)[1] in _ITERATING
        measure = _MEASURES.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if measure is not None:
                record[VALUE] = measure(result)
            if iterating and hasattr(result, "__next__"):
                return _TracedIterator(result, name, tracer)
            return result

        wrapper._perfbench_traced = True
        return wrapper

    # -- root spans -------------------------------------------------------------

    def open_root(self, name: str, op: int) -> list:
        self.op = op
        record = [name, time.perf_counter(), 0.0, -1, op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close_root(self, record: list) -> None:
        record[END] = time.perf_counter()
        self.stack.pop()
        self.op = -1

    # -- analysis ------------------------------------------------------------------

    def summary(self) -> dict:
        """Self seconds per layer for set-up and for the timed ops, span
        counts per entry point, coverage, and the measured values."""
        spans = self.spans
        children = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                children[record[PARENT]] += record[END] - record[START]
        ops_layers = dict.fromkeys(LAYERS, 0.0)
        setup_layers = dict.fromkeys(LAYERS, 0.0)
        calls: dict[str, int] = {}
        in_tail = [False] * len(spans)
        rooted = [False] * len(spans)
        op_time = op_self = setup_time = setup_self = 0.0
        adhoc_states = tail_fresh = tail_enumerated = 0
        for index, record in enumerate(spans):
            name = record[NAME]
            own = record[END] - record[START] - children[index]
            parent = record[PARENT]
            in_tail[index] = name == "TailSession.reevaluate" or (
                parent >= 0 and in_tail[parent]
            )
            rooted[index] = name in (ROOT_OP, ROOT_SETUP) or (parent >= 0 and rooted[parent])
            if not rooted[index]:
                continue  # harness work outside set-up and the ops
            if name == ROOT_OP:
                op_time += record[END] - record[START]
                op_self += own
                continue
            if name == ROOT_SETUP:
                setup_time += record[END] - record[START]
                setup_self += own
                continue
            calls[name] = calls.get(name, 0) + 1
            layer = self._layer_of[name]
            timed = record[OP] >= 0
            (ops_layers if timed else setup_layers)[layer] += own
            if timed:
                if name == "CompiledPlan.va_for":
                    adhoc_states += record[VALUE]
                elif name == "TailSession.reevaluate":
                    tail_fresh += record[VALUE]
                elif name.endswith(".enumerate") and record[VALUE] and in_tail[index]:
                    tail_enumerated += 1
        return {
            "ops_layers_s": ops_layers,
            "setup_layers_s": setup_layers,
            "ops_s": op_time,
            "ops_unattributed_s": op_self,
            "setup_s": setup_time,
            "setup_unattributed_s": setup_self,
            "coverage": (op_time - op_self) / op_time if op_time else 0.0,
            "calls": calls,
            "spans": len(spans),
            "absent": list(self.absent),
            "adhoc_states": adhoc_states,
            "tail_fresh": tail_fresh,
            "tail_enumerated": tail_enumerated,
        }


class _TracedIterator:
    """One span per ``next()``; ``value`` 1 marks a produced item."""

    __slots__ = ("_iterator", "_name", "_tracer")

    def __init__(self, iterator, name: str, tracer: Tracer):
        self._iterator = iterator
        self._name = name
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack, spans = tracer.stack, tracer.spans
        record = [
            self._name, time.perf_counter(), 0.0,
            stack[-1] if stack else -1, tracer.op, 0,
        ]
        stack.append(len(spans))
        spans.append(record)
        try:
            item = next(self._iterator)
        finally:
            stack.pop()
            record[END] = time.perf_counter()
        record[VALUE] = 1
        return item

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()
