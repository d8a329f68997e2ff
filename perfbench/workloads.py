"""The benchmark's four closed-loop workloads.

Each workload turns a seed into a fixed op list with every op's oracle
answer (``inputs``), builds the program state (``setup``) and runs one op
(``run``).  The harness times ``setup`` and each ``run``.  Between ops,
outside the timing, ``answer`` reduces a result to its normal form's
digest so that no result stays alive to slow the garbage collector;
after the last op, ``check`` compares the digests with the oracles'.

Why these four (see ``perfbench/README.md`` for sizes):

* ``store-query`` — an analyst querying a standing corpus: the only
  workload through query compile, the plan cache, prefilter derivation,
  the corpus index and hydration.
* ``csv-extract`` — a bulk extraction job: one warm automaton per
  formula, so enumeration and encoding dominate.
* ``log-tail`` — a monitor persisting and watching a live log: the only
  workload through ``engine/tail.py`` and the store's append path.
* ``adhoc-difference`` — the paper's own difference queries, compiled
  per document (Lemma 4.2 / Theorem 4.8): the only workload through
  ``algebra/``.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import repro
from repro.workloads import (
    alpha_info,
    alpha_recommendation,
    alpha_student_mail,
    alpha_student_phone,
    alpha_uk_mail,
    generate_students,
)
from repro.workloads.packs import csv_records, server_logs
from repro.workloads.regexes import TEXT_ALPHABET

import oracles


def _compile(source):
    """Text or AST to a trimmed VA, through the package-level calls the
    ``corpus query`` CLI makes (and the tracer wraps)."""
    if isinstance(source, str):
        source = repro.parse(source, alphabet=TEXT_ALPHABET)
    return repro.trim(repro.regex_to_va(source))


def _subseed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def digest(value) -> str:
    """A short stable digest of a normal form (nested lists and tuples of
    strings, ints and bools)."""
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


class Workload:
    """One workload: a nominal op rate sizes the fixed op list."""

    name = ""
    #: Ops per requested second.  A constant, never a measurement, so the
    #: op list depends only on ``(seed, seconds)``.
    ops_per_second = 10.0

    def op_count(self, seconds: float) -> int:
        return max(1, math.ceil(self.ops_per_second * seconds))

    def inputs(self, seed: int, n_ops: int) -> dict:
        """``{"warmup": [op], "ops": [op]}``; each op has a ``kind`` and
        the ``expected`` digest of its oracle answer."""
        raise NotImplementedError

    def setup(self, inputs: dict, workdir: Path, step):
        """Build the program state; call ``step()`` between its parts
        (the harness times each part and calibrates between them)."""
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def answer(self, state, op, result) -> dict:
        """The result's ``digest`` and the ``mappings`` it returned."""
        raise NotImplementedError

    def check(self, state, op, answer: dict) -> "str | None":
        """``None`` when the answer matches the oracle, else why not."""
        if answer["digest"] != op["expected"]:
            return f"{op['kind']}: the result differs from the oracle"
        return None

    def counters(self, state) -> dict:
        """Exact counters: the engine's integer stats plus the store's."""
        out = {
            key: value
            for key, value in state["engine"].stats.as_dict().items()
            if isinstance(value, int)
        }
        store = state.get("store")
        out["store_retries"] = store.retries if store is not None else 0
        return out

    def close(self, state) -> None:
        store = state.get("store")
        if store is not None:
            store.close()


# -- store-query ---------------------------------------------------------------

_STUDENT = r"A-Za-z0-9 .@"
_TLDS = ("uk", "ru", "de")
_RECORD = ("id", "email", "city", "amount")


def _q_errors() -> str:
    return r".*ts{[0-9][0-9]:[0-9][0-9]:[0-9][0-9]} ERROR .*"


def _q_error_hour(hour: int, minute_tens: int) -> str:
    return rf".*ts{{{hour:02d}:{minute_tens}[0-9]:[0-9][0-9]}} ERROR .*"


def _q_city(city: str, leading: str = "") -> str:
    amount = leading + "[0-9]*" if leading else "[0-9]+"
    return (
        r".*\nid{[0-9]+},email{[a-z0-9.]+@[a-z0-9.\-]+},city{%s},"
        r"amount{%s\.[0-9][0-9]}\n.*" % (city, amount)
    )


def _q_mail(tld: str, initial: str = "") -> str:
    """The αUKm shape of Example 2.4 with the TLD (and the user's first
    letter) as parameters."""
    return (
        r"(\e|[%s\n]*\n)[%s]*\sxmail{%s[a-z]*@[a-z]*\.%s}\n[%s\n]*"
        % (_STUDENT, _STUDENT, initial, tld, _STUDENT)
    )


def _log_hits(text: str, prefix: str) -> list:
    return sorted(
        (ts,) for ts in server_logs.golden_error_timestamps(text) if ts.startswith(prefix)
    )


def _city_hits(text: str, city: str, leading: str = "") -> list:
    return sorted(
        tuple(r[field] for field in _RECORD)
        for r in csv_records.golden_records(text)
        if r["city"] == city and r["amount"].startswith(leading)
    )


def _mail_hits(text: str, tld: str, initial: str = "") -> list:
    return sorted(oracles.student_mails(text, tld, initial))


#: ``family: [(formula, oracle, variables)]``.  Extraction families have
#: few variants and many mappings; warm-up runs each variant once, so
#: their plans are built during set-up.
_EXTRACT = {
    "errors": [(_q_errors(), lambda t: _log_hits(t, ""), ("ts",))],
    "city": [
        (_q_city(c), lambda t, c=c: _city_hits(t, c), _RECORD)
        for c in csv_records._CITIES
    ],
    "mail": [
        (_q_mail(tld), lambda t, tld=tld: _mail_hits(t, tld), None)
        for tld in _TLDS
    ],
}

#: Search families have many variants, so each op is a query the engine
#: has not seen: a plan miss with its own prefilter derivation.
_SEARCH = {
    "error-hour": [
        (_q_error_hour(h, m), lambda t, h=h, m=m: _log_hits(t, f"{h:02d}:{m}"), None)
        for h in range(24) for m in range(6)
    ],
    "city-amount": [
        (_q_city(c, d), lambda t, c=c, d=d: _city_hits(t, c, d), None)
        for c in csv_records._CITIES for d in "123456789"
    ],
    "mail-initial": [
        (_q_mail(tld, x), lambda t, tld=tld, x=x: _mail_hits(t, tld, x), None)
        for tld in _TLDS for x in "abcdefghijklmnopqrstuvwxyz"
    ],
}


class StoreQuery(Workload):
    """Compile a query, answer it over a 150-document selection of a
    3000-document store — ``corpus query``'s ``evaluate_many``, with
    ``is_nonempty_many`` searches mixed in."""

    name = "store-query"
    ops_per_second = 14.0
    documents = 3000
    selection = 150
    warmup_searches = 3

    def _corpus(self, rng: random.Random) -> tuple[list[str], dict]:
        """The store's texts, and the positions of each kind of text."""
        kinds = ["log", "csv", "students"] * (self.documents // 3)
        rng.shuffle(kinds)
        texts = []
        for kind in kinds:
            lines = rng.randint(3, 12)
            if kind == "log":
                texts.append(server_logs.generate_log(
                    lines, seed=_subseed(rng), error_rate=0.05,
                    start_second=rng.randrange(86400),
                ))
            elif kind == "csv":
                texts.append(csv_records.generate_csv(
                    lines, seed=_subseed(rng), noise_rate=0.05
                ))
            else:
                texts.append(generate_students(
                    lines, random.Random(_subseed(rng)), with_recommendation=0.2
                ).text)
        by_kind: dict = {}
        for position, kind in enumerate(kinds):
            by_kind.setdefault(kind, []).append(position)
        return texts, by_kind

    def inputs(self, seed: int, n_ops: int) -> dict:
        rng = random.Random(f"store-query/{seed}")
        texts, by_kind = self._corpus(rng)
        families = {**_EXTRACT, **_SEARCH}
        pools = {family: [] for family in families}

        def make(kind: str, family: str) -> dict:
            # Each family's variants come in a seeded order, and a variant
            # comes back only after all the others: extraction variants
            # cycle, search variants are not reused within a run.
            pool = pools[family]
            if not pool:
                pool.extend(rng.sample(families[family], len(families[family])))
            formula, oracle, variables = pool.pop()
            # A third of the selection from each kind of text.
            positions = sorted(
                position
                for group in by_kind.values()
                for position in rng.sample(group, self.selection // 3)
            )
            answers = [oracle(texts[p]) for p in positions]
            if kind == "search":
                answers = [bool(a) for a in answers]
            return {
                "kind": f"{kind}:{family}",
                "formula": formula,
                "positions": positions,
                "variables": variables,
                "expected": digest(answers),
            }

        warmup = [
            make("extract", family)
            for family, variants in _EXTRACT.items() for _ in variants
        ]
        warmup += [
            make("search", list(_SEARCH)[i % 3]) for i in range(self.warmup_searches)
        ]
        kinds = [("extract", family) for family in _EXTRACT for _ in range(n_ops // 6)]
        kinds += [("search", family) for family in _SEARCH for _ in range(n_ops // 6)]
        kinds += [("search", list(_SEARCH)[i % 3]) for i in range(n_ops - len(kinds))]
        rng.shuffle(kinds)
        return {
            "texts": texts,
            "warmup": warmup,
            "ops": [make(kind, family) for kind, family in kinds],
        }

    def setup(self, inputs: dict, workdir: Path, step):
        path = workdir / "corpus.sqlite"
        writer = repro.CorpusStore(path)
        ids = writer.add_many(inputs["texts"])
        writer.close()
        step()
        store = repro.CorpusStore(path)
        state = {"engine": repro.Engine(), "store": store, "ids": ids, "texts": inputs["texts"]}
        for op in inputs["warmup"]:
            step()
            self.run(state, op)
        return state

    def run(self, state, op):
        va = _compile(op["formula"])
        ids = state["ids"]
        selection = state["store"].select([ids[p] for p in op["positions"]])
        if op["kind"].startswith("search"):
            return state["engine"].is_nonempty_many(va, selection)
        return state["engine"].evaluate_many(va, selection)

    def answer(self, state, op, result) -> dict:
        if op["kind"].startswith("search"):
            answers, mappings = [bool(a) for a in result], 0
        else:
            texts = state["texts"]
            answers = [
                sorted(
                    oracles.as_spans(m) if op["variables"] is None
                    else oracles.as_strings(m, texts[position], op["variables"])
                    for m in relation
                )
                for position, relation in zip(op["positions"], result)
            ]
            mappings = sum(len(relation) for relation in result)
        return {
            "digest": digest(answers),
            "mappings": mappings,
            "nonempty": sum(1 for a in answers if a),
        }


# -- csv-extract ------------------------------------------------------------------


class CsvExtract(Workload):
    """Fully evaluate one ~200-record CSV export per op on the vectorized
    backend, alternating the pack's record and field formulas."""

    name = "csv-extract"
    ops_per_second = 10.5
    records = 200
    warmup_documents = 12
    variables = {"record": _RECORD, "field": ("field",)}

    def inputs(self, seed: int, n_ops: int) -> dict:
        rng = random.Random(f"csv-extract/{seed}")

        def make(formula: str) -> dict:
            text = csv_records.generate_csv(
                self.records, seed=_subseed(rng), noise_rate=0.05
            )
            if formula == "record":
                golden = [tuple(r[f] for f in _RECORD) for r in csv_records.golden_records(text)]
            else:
                golden = [(field,) for field in csv_records.golden_interior_fields(text)]
            return {"kind": formula, "text": text, "expected": digest(sorted(golden))}

        warmup = [make(("record", "field")[i % 2]) for i in range(self.warmup_documents)]
        kinds = ["record", "field"] * (n_ops // 2) + ["record"] * (n_ops % 2)
        rng.shuffle(kinds)
        return {"warmup": warmup, "ops": [make(kind) for kind in kinds]}

    def setup(self, inputs: dict, workdir: Path, step):
        engine = repro.Engine(backend="vectorized")
        vas = {
            "record": _compile(csv_records.record_formula()),
            "field": _compile(csv_records.field_formula()),
        }
        for va in vas.values():
            engine.prepare(va)
        state = {"engine": engine, "vas": vas}
        for op in inputs["warmup"]:
            step()
            self.run(state, op)
        return state

    def run(self, state, op):
        return state["engine"].evaluate(state["vas"][op["kind"]], op["text"])

    def answer(self, state, op, result) -> dict:
        variables = self.variables[op["kind"]]
        got = sorted(oracles.as_strings(m, op["text"], variables) for m in result)
        return {"digest": digest(got), "mappings": len(result)}


# -- log-tail -----------------------------------------------------------------------


class LogTail(Workload):
    """Append a few log lines per op to a stored document and to a tail
    session watching for ERROR lines; rotate the log every few appends.

    Each rotated log opens with a backlog holding one ERROR line, so every
    re-evaluation re-enumerates its whole document.  Every window has the
    same line count and its ERROR lines (2%) at the same places, so a
    window costs the same whatever the seed: re-enumeration grows with
    the ERROR lines seen so far, and the seed only picks the content."""

    name = "log-tail"
    ops_per_second = 21.0
    backlog_lines = 50
    appends = 25
    lines_per_append = 4
    #: Line numbers of the ERROR lines in the backlog and in the appended
    #: stream of every window.
    backlog_errors = (24,)
    append_errors = (33, 66)

    def _lines(self, rng, n: int, errors, second: int) -> tuple[str, int]:
        lines = server_logs.generate_lines(
            n, seed=_subseed(rng), error_rate=0.0, start_second=second
        )
        for index in errors:
            timestamp, _level, message = lines[index].split(" ", 2)
            lines[index] = f"{timestamp} ERROR {message}"
        last = lines[-1][:8]
        second = int(last[:2]) * 3600 + int(last[3:5]) * 60 + int(last[6:8])
        return "".join(line + "\n" for line in lines), second

    def _window(self, rng, window: int) -> list[dict]:
        second = rng.randrange(86400)
        backlog, second = self._lines(rng, self.backlog_lines, self.backlog_errors, second)
        ops = [{"kind": "rotate", "text": backlog}]
        for i in range(self.appends):
            start = i * self.lines_per_append
            errors = [
                line - start for line in self.append_errors
                if start <= line < start + self.lines_per_append
            ]
            chunk, second = self._lines(rng, self.lines_per_append, errors, second)
            ops.append({"kind": "append", "text": chunk})
        log = digest("".join(op["text"] for op in ops))
        for op in ops:
            op["window"] = window
            op["log"] = log
            op["expected"] = digest(sorted(
                (ts,) for ts in server_logs.golden_error_timestamps(op["text"])
            ))
        return ops

    def inputs(self, seed: int, n_ops: int) -> dict:
        rng = random.Random(f"log-tail/{seed}")
        windows = max(1, round(n_ops / (self.appends + 1)))
        warmup = self._window(random.Random(f"log-tail/{seed}/warmup"), -1)
        ops = [op for window in range(windows) for op in self._window(rng, window)]
        return {"warmup": warmup, "ops": ops}

    def setup(self, inputs: dict, workdir: Path, step):
        engine = repro.Engine()
        store = repro.CorpusStore(workdir / "tail.sqlite")
        session = engine.tail(_compile(server_logs.error_timestamp_formula()))
        state = {"engine": engine, "store": store, "session": session, "doc_id": None}
        for op in inputs["warmup"]:
            step()
            self.run(state, op)
        return state

    def run(self, state, op):
        store, session = state["store"], state["session"]
        if op["kind"] == "rotate":
            state["doc_id"] = store.add(op["text"])
            session.reset(op["text"])
            return session.reevaluate()
        store.append(state["doc_id"], op["text"])
        return session.reevaluate(op["text"])

    def answer(self, state, op, result) -> dict:
        text = state["session"].document.text
        got = sorted(oracles.as_strings(m, text, ("ts",)) for m in result)
        return {"digest": digest(got), "mappings": len(result), "doc_id": state["doc_id"]}

    def check(self, state, op, answer: dict) -> "str | None":
        problem = super().check(state, op, answer)
        if problem is None and op["kind"] == "rotate":
            if digest(state["store"].text(answer["doc_id"])) != op["log"]:
                problem = f"window {op['window']}: the stored log differs from the lines written"
        return problem


# -- adhoc-difference ---------------------------------------------------------------


class AdhocDifference(Workload):
    """Figure 2's π_xstdnt((αsm ⋈ αsp) ∖ αnr) and Example 2.4's
    αinfo ∖ αUKm, one fixed-size student list per op.  The optimizer
    lowers both to the synchronized difference, compiled per document.

    Each query's lists have a fixed size and answer size (lists are drawn
    until the oracle returns that many mappings), so a seed changes the
    names, numbers and mails but neither the mapping total nor much of the
    cost.  List sizes differ per query so that both take about as long."""

    name = "adhoc-difference"
    ops_per_second = 11.0
    #: ``query: (students per list, mappings per list)``.
    shape = {"figure2": (7, 3), "example2.4": (9, 4)}
    warmup_documents = 12

    def inputs(self, seed: int, n_ops: int) -> dict:
        rng = random.Random(f"adhoc-difference/{seed}")
        oracle = {
            "figure2": oracles.figure2_students,
            "example2.4": oracles.info_minus_uk,
        }

        def make(kind: str) -> dict:
            students, mappings = self.shape[kind]
            while True:
                text = generate_students(
                    students, random.Random(_subseed(rng)), with_recommendation=0.3
                ).text
                answer = oracle[kind](text)
                if len(answer) == mappings:
                    return {"kind": kind, "text": text, "expected": digest(sorted(answer))}

        warmup = [make(("figure2", "example2.4")[i % 2]) for i in range(self.warmup_documents)]
        kinds = ["figure2", "example2.4"] * (n_ops // 2) + ["figure2"] * (n_ops % 2)
        rng.shuffle(kinds)
        return {"warmup": warmup, "ops": [make(kind) for kind in kinds]}

    def setup(self, inputs: dict, workdir: Path, step):
        from repro.algebra import (
            Difference, Instantiation, Join, Leaf, PlannerConfig, Project, RAQuery,
        )

        engine = repro.Engine()
        queries = {
            "figure2": RAQuery(
                Project(Difference(Join(Leaf("sm"), Leaf("sp")), Leaf("nr")), "keep"),
                Instantiation(
                    spanners={
                        "sm": alpha_student_mail(),
                        "sp": alpha_student_phone(),
                        "nr": alpha_recommendation(),
                    },
                    projections={"keep": frozenset({"xstdnt"})},
                ),
                PlannerConfig(max_shared=2),
                engine=engine,
            ),
            "example2.4": RAQuery(
                Difference(Leaf("info"), Leaf("uk")),
                Instantiation(spanners={"info": alpha_info(), "uk": alpha_uk_mail()}),
                engine=engine,
            ),
        }
        for query in queries.values():
            engine.prepare(query)
        state = {"engine": engine, "queries": queries}
        for op in inputs["warmup"]:
            step()
            self.run(state, op)
        return state

    def run(self, state, op):
        return state["engine"].evaluate(state["queries"][op["kind"]], op["text"])

    def answer(self, state, op, result) -> dict:
        got = sorted(oracles.as_spans(m) for m in result)
        return {"digest": digest(got), "mappings": len(result)}


WORKLOADS = {
    workload.name: workload
    for workload in (StoreQuery(), CsvExtract(), LogTail(), AdhocDifference())
}
