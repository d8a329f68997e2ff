"""Command-line interface: extract spans from documents with regex
formulas.

Usage::

    python -m repro.cli extract 'x{[a-z]+}@y{[a-z.]+}' --text 'ab@cd.e'
    python -m repro.cli extract "$(cat formula.rgx)" --file corpus.txt --json
    python -m repro.cli batch 'x{[ab]+}' --file docs.txt --stats
    python -m repro.cli classify 'x{a}(y{b}|ε)'
    python -m repro.cli explain 'x{(a|b)+}' --union 'x{a+}' --project x
    python -m repro.cli dot 'x{a*}b' > automaton.dot

Subcommands:

* ``extract``  — evaluate a formula on a document (table or JSON output);
* ``batch``    — evaluate a formula on many documents (one per line)
  through the execution engine, sharing all compiled state;
* ``tail``     — follow a growing file (``tail -f`` style) and stream
  *new* matches as appends complete them, through the incremental
  :class:`~repro.engine.tail.TailSession` runtime (each poll costs
  O(appended bytes), not O(file)); ``--interval`` sets the poll period,
  ``--from-end`` suppresses matches already present at startup,
  ``--max-polls`` bounds the run (handy in scripts), and truncation
  (logrotate) restarts the session cleanly;
* ``corpus``   — the persistent corpus store: ``corpus ingest`` loads
  documents (one per line) into a content-hash-deduped sqlite store with
  cached artifacts and posting lists, ``corpus query`` evaluates a formula
  against the store through the index (``--explain`` prints the posting
  ops), ``corpus stats`` reports sizes, and ``corpus rebuild [--verify]``
  recomputes every artifact from the raw texts;
* ``explain``  — build an RA query from formulas (``--union``/``--join``/
  ``--difference`` fold further formulas onto the first; ``--project``
  wraps the result) and print the compiled plan: the physical tree, the
  optimized logical plan, and which rewrite rules fired;
* ``classify`` — report the formula's syntactic classes (§2.2/§3.2/§4.2);
* ``dot``      — compile to a vset-automaton and emit Graphviz DOT.

``extract`` and ``batch`` run through :class:`repro.engine.Engine`, which
takes the run walk or the letter walk per document; ``--limit K`` stops
after K mappings per document (short-circuiting the lazy graph
construction), ``--no-optimize`` disables the logical-plan optimizer, ``--no-prefilter``
disables the VA-derived document prefilter (by default provably
non-matching documents are rejected in O(1) from their letter histogram),
``batch --workers N`` shards the surviving corpus across N worker
processes, and ``--stats`` prints the engine's cache/compile/enumerate
statistics to stderr (including ``prefilter rejects``, the transition
kernel's ``kernel run hits`` on the run walk, and its ``frontier misses``
on the letter walk).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra.planner import RAQuery
from .algebra.ra_tree import Difference, Instantiation, Join, Leaf, Project, UnionNode
from .core.document import Document
from .core.errors import SpannerError
from .core.relation import SpanRelation
from .engine import Engine
from .io.dot import va_to_dot
from .io.serialize import dumps_relation
from .regex.parser import parse
from .regex.properties import classify
from .va.compile_regex import regex_to_va
from .va.operations import trim


def _read_document(args: argparse.Namespace) -> Document:
    if args.text is not None:
        return Document(args.text)
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return Document(handle.read())
    return Document(sys.stdin.read())


def _compile(args: argparse.Namespace):
    return trim(regex_to_va(parse(args.formula, alphabet=args.alphabet)))


def _print_stats(engine: Engine) -> None:
    print("── engine statistics ──", file=sys.stderr)
    print(engine.stats.summary(), file=sys.stderr)


def _make_guard(args: argparse.Namespace):
    """The :class:`~repro.engine.ExecutionGuard` requested by
    ``--deadline``/``--budget``, or ``None`` when neither is set."""
    if args.deadline is None and args.budget is None:
        return None
    from .engine import ExecutionGuard

    return ExecutionGuard(
        deadline=args.deadline,
        budget=args.budget,
        on_budget="partial" if args.on_budget == "partial" else "raise",
    )


def _note_truncation(guard) -> None:
    """In ``--on-budget partial`` mode, tell stderr what was cut short."""
    if guard is not None and guard.truncated is not None:
        print(
            f"note: result truncated ({guard.truncated}); "
            f"shown mappings are a consistent prefix",
            file=sys.stderr,
        )


def _cmd_extract(args: argparse.Namespace) -> int:
    document = _read_document(args)
    engine = Engine(
        optimize=not args.no_optimize,
        prefilter=not args.no_prefilter,
    )
    guard = _make_guard(args)
    relation = SpanRelation(
        engine.enumerate(_compile(args), document, limit=args.limit, guard=guard)
    )
    if guard is not None and guard.truncated is not None:
        relation = SpanRelation(relation, truncated=True)
    _note_truncation(guard)
    if args.json:
        print(dumps_relation(relation, indent=2))
    else:
        print(relation.to_table(document if args.show_content else None))
        print(f"\n{len(relation)} mapping(s)")
    if args.stats:
        _print_stats(engine)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    engine = Engine(
        document_cache_size=args.cache_documents,
        optimize=not args.no_optimize,
        prefilter=not args.no_prefilter,
    )
    va = _compile(args)
    guard = _make_guard(args)
    relations = engine.evaluate_many(
        va, lines, limit=args.limit, workers=args.workers, guard=guard
    )
    _note_truncation(guard)
    if args.json:
        for relation in relations:
            print(dumps_relation(relation))
    else:
        total = 0
        for index, (line, relation) in enumerate(zip(lines, relations)):
            total += len(relation)
            preview = line if len(line) <= 32 else line[:29] + "..."
            print(f"doc {index:4d}  {len(relation):6d} mapping(s)  {preview}")
        print(f"\n{len(lines)} document(s), {total} mapping(s)")
    if args.stats:
        _print_stats(engine)
    return 0


def _read_corpus_lines(args: argparse.Namespace) -> list[str]:
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return handle.read().splitlines()
    return sys.stdin.read().splitlines()


def _open_store(args: argparse.Namespace):
    from .corpus import CorpusStore

    return CorpusStore(args.store)


def _cmd_corpus_ingest(args: argparse.Namespace) -> int:
    lines = _read_corpus_lines(args)
    with _open_store(args) as store:
        before = len(store)
        store.add_many(lines)
        added = len(store) - before
        print(
            f"{len(lines)} line(s) → {added} new document(s), "
            f"{store.dedup_hits} deduplicated"
        )
        print(f"store: {store.path} ({len(store)} document(s))")
    return 0


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"store             {stats['path']}")
    print(f"documents         {stats['documents']}")
    print(f"total letters     {stats['total_letters']}")
    if stats["documents"]:
        print(
            f"length range      [{stats['min_length']}, {stats['max_length']}]"
        )
    print(f"distinct letters  {stats['distinct_letters']}")
    for entry in stats["largest_postings"]:
        print(
            f"posting           {entry['letter']!r} in "
            f"{entry['documents']} document(s)"
        )
    print(f"store bytes       {stats['store_bytes']}")
    return 0


def _cmd_corpus_query(args: argparse.Namespace) -> int:
    engine = Engine(
        optimize=not args.no_optimize,
        prefilter=not args.no_prefilter,
    )
    va = _compile(args)
    with _open_store(args) as store:
        if args.explain:
            prefilter = engine.prepare(va).prefilter()
            if prefilter is None:
                print("index plan: none (prefilter disabled or unavailable)")
            else:
                print(store.candidates(prefilter).describe())
            print()
        doc_ids = store.doc_ids()
        guard = _make_guard(args)
        relations = engine.evaluate_many(
            va, store, limit=args.limit, workers=args.workers, guard=guard
        )
        _note_truncation(guard)
        total = 0
        matching = 0
        for doc_id, relation in zip(doc_ids, relations):
            if not len(relation):
                continue
            matching += 1
            total += len(relation)
            if args.json:
                print(
                    json.dumps(
                        {
                            "doc_id": doc_id,
                            "relation": json.loads(dumps_relation(relation)),
                        },
                        sort_keys=True,
                    )
                )
            else:
                text = store.text(doc_id)
                preview = text if len(text) <= 32 else text[:29] + "..."
                print(f"doc {doc_id:4d}  {len(relation):6d} mapping(s)  {preview}")
        if not args.json:
            print(
                f"\n{len(doc_ids)} document(s), {matching} matching, "
                f"{total} mapping(s)"
            )
    if args.stats:
        _print_stats(engine)
    return 0


def _cmd_corpus_rebuild(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        report = store.rebuild(verify=args.verify)
    for issue in report["issues"]:
        print(f"issue: {issue}", file=sys.stderr)
    verified = " (verified)" if report["verified"] else ""
    print(
        f"rebuilt {report['documents']} document(s), "
        f"{report['letters']} posting list(s), "
        f"{len(report['issues'])} issue(s) repaired{verified}"
    )
    return 0


#: Bound on consecutive session restarts caused by undecodable bytes
#: before ``tail`` gives up — a persistently non-UTF-8 file should be a
#: clear error, not an infinite restart loop.
_TAIL_DECODE_RESTARTS = 8


def _cmd_tail(args: argparse.Namespace) -> int:
    """Follow a growing file, streaming new mappings with bounded delay.

    The incremental runtime end to end: one
    :class:`~repro.engine.tail.TailSession` accumulates the file's bytes
    and re-evaluates only over the appended region, so each poll costs
    O(appended) — tailing a large log never re-walks it.  Partial UTF-8
    sequences at the read boundary are held back by an incremental
    decoder.

    Degradation modes (the file is reopened on every poll, so none of
    them need the original handle to survive):

    * **Truncation / rotation to a shorter file** — the session resets
      and re-reads the new content from position 0;
    * **Replacement** (new inode at the same path, even same-length) —
      detected via ``fstat`` and treated as a truncation;
    * **Deletion** — polls keep counting while the path is missing; the
      session resumes if the file reappears, and if ``--max-polls``
      expires first the command exits 2 with a clear message (no
      traceback);
    * **Undecodable bytes** — the session restarts from position 0, at
      most ``_TAIL_DECODE_RESTARTS`` consecutive times before exiting 2.
    """
    import codecs
    import os
    import time as _time

    engine = Engine(
        optimize=not args.no_optimize,
        prefilter=not args.no_prefilter,
    )
    va = _compile(args)

    def emit(mappings) -> None:
        for mapping in mappings:
            if args.json:
                print(
                    json.dumps(
                        {str(var): [span.begin, span.end] for var, span in mapping.items()},
                        sort_keys=True,
                    ),
                    flush=True,
                )
            else:
                print(mapping, flush=True)

    session = engine.tail(va)
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    polls = 0
    missing_polls = 0
    decode_restarts = 0
    inode: "int | None" = None
    seeded = not args.from_end

    def restart() -> None:
        nonlocal offset, decoder
        offset = 0
        session.reset()
        decoder = codecs.getincrementaldecoder("utf-8")()

    try:
        while args.max_polls is None or polls < args.max_polls:
            try:
                handle = open(args.file, "rb")
            except FileNotFoundError:
                missing_polls += 1
                polls += 1
                if args.max_polls is not None and polls >= args.max_polls:
                    raise SpannerError(
                        f"tail: {args.file} is missing (deleted or rotated "
                        f"away) and --max-polls expired after "
                        f"{missing_polls} poll(s) without it"
                    ) from None
                _time.sleep(args.interval)
                continue
            with handle:
                stat = os.fstat(handle.fileno())
                if inode is not None and stat.st_ino != inode:
                    # Replaced at the same path: the accumulated document
                    # describes the old file, so restart on the new one.
                    restart()
                inode = stat.st_ino
                missing_polls = 0
                size = handle.seek(0, 2)
                if size < offset:
                    # Truncated (logrotate copytruncate): restart over
                    # the new, shorter content.
                    restart()
                handle.seek(offset)
                chunk = handle.read()
            offset += len(chunk)
            try:
                text = decoder.decode(chunk)
            except UnicodeDecodeError as error:
                decode_restarts += 1
                if decode_restarts >= _TAIL_DECODE_RESTARTS:
                    raise SpannerError(
                        f"tail: {args.file} is not valid UTF-8 ({error}); "
                        f"gave up after {decode_restarts} session restarts"
                    ) from None
                restart()
                polls += 1
                if args.max_polls is None or polls < args.max_polls:
                    _time.sleep(args.interval)
                continue
            decode_restarts = 0
            if not seeded:
                # Seed silently: existing content is evaluated so its
                # matches are marked seen, but nothing is printed for it.
                seeded = True
                session.reevaluate(text)
            elif text or session.reevaluations == 0:
                emit(session.reevaluate(text))
            polls += 1
            if args.max_polls is None or polls < args.max_polls:
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if args.stats:
        _print_stats(engine)
    return 0


def _build_ra_query(args: argparse.Namespace) -> RAQuery:
    """Fold the ``--union``/``--join``/``--difference`` formulas onto the
    positional one (in that group order), then wrap ``--project``."""
    spanners = {"f0": parse(args.formula, alphabet=args.alphabet)}
    tree = Leaf("f0")

    def fold(formulas, combine):
        nonlocal tree
        for text in formulas or ():
            name = f"f{len(spanners)}"
            spanners[name] = parse(text, alphabet=args.alphabet)
            tree = combine(tree, Leaf(name))

    fold(args.union, UnionNode)
    fold(args.join, Join)
    fold(args.difference, Difference)
    if args.project is not None:
        keep = frozenset(v.strip() for v in args.project.split(",") if v.strip())
        tree = Project(tree, keep)
    engine = Engine(optimize=not args.no_optimize)
    return RAQuery(tree, Instantiation(spanners=spanners), engine=engine)


def _cmd_explain(args: argparse.Namespace) -> int:
    query = _build_ra_query(args)
    print(f"query: {query.tree}")
    print(query.explain())
    if args.stats:
        _print_stats(query.engine)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    formula = parse(args.formula, alphabet=args.alphabet)
    print(f"formula:    {formula.to_text()}")
    print(f"variables:  {', '.join(sorted(formula.variables)) or '(none)'}")
    print(f"size:       {formula.size()} nodes")
    for name, value in classify(formula).items():
        print(f"{name + ':':24s}{'yes' if value else 'no'}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    formula = parse(args.formula, alphabet=args.alphabet)
    print(va_to_dot(trim(regex_to_va(formula))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Document-spanner extraction (PODS 2019 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("formula", help="regex formula, e.g. 'x{[a-z]+}@y{[a-z.]+}'")
        p.add_argument("--alphabet", help="explicit alphabet enabling '.'", default=None)

    def add_engine(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--stats", action="store_true", help="print engine statistics to stderr"
        )
        p.add_argument(
            "--limit",
            type=int,
            default=None,
            metavar="K",
            help="stop after K mappings per document (short-circuits the "
            "lazy graph construction)",
        )
        p.add_argument(
            "--no-optimize",
            action="store_true",
            help="disable the logical-plan optimizer (compile the query "
            "exactly as written)",
        )
        p.add_argument(
            "--no-prefilter",
            action="store_true",
            help="disable the VA-derived document prefilter (run the full "
            "Boolean pass on every document)",
        )

    def add_guard(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock deadline for the whole evaluation; on expiry "
            "the command fails (or truncates, with --on-budget partial)",
        )
        p.add_argument(
            "--budget",
            default=None,
            metavar="SPEC",
            help="resource budget spec, e.g. "
            "'mappings=10k,states=1m,edge-rows=500k,cache-bytes=64m' "
            "(k/m/g suffixes; any subset of the four ceilings)",
        )
        p.add_argument(
            "--on-budget",
            choices=("error", "partial"),
            default="error",
            help="on a tripped deadline/budget: 'error' exits 2, "
            "'partial' prints the consistent prefix computed so far and "
            "notes the truncation on stderr (default: %(default)s)",
        )

    extract = sub.add_parser("extract", help="evaluate a formula on a document")
    add_common(extract)
    source = extract.add_mutually_exclusive_group()
    source.add_argument("--text", help="document given inline")
    source.add_argument("--file", help="document read from a file")
    extract.add_argument("--json", action="store_true", help="JSON output")
    extract.add_argument(
        "--show-content", action="store_true", help="show span contents in the table"
    )
    add_engine(extract)
    add_guard(extract)
    extract.set_defaults(func=_cmd_extract)

    batch = sub.add_parser(
        "batch", help="evaluate a formula on many documents (one per line)"
    )
    add_common(batch)
    batch.add_argument("--file", help="documents file, one per line (default: stdin)")
    batch.add_argument("--json", action="store_true", help="JSON-lines output")
    batch.add_argument(
        "--cache-documents",
        type=int,
        default=64,
        metavar="N",
        help="LRU size for repeated documents (default: %(default)s)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the batch across N worker processes (default: in-process)",
    )
    add_engine(batch)
    add_guard(batch)
    batch.set_defaults(func=_cmd_batch)

    tail = sub.add_parser(
        "tail",
        help="follow a growing file, streaming new matches incrementally",
    )
    add_common(tail)
    tail.add_argument(
        "--file", required=True, help="the file to follow (a growing log)"
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval (default: %(default)s)",
    )
    tail.add_argument(
        "--max-polls",
        type=int,
        default=None,
        metavar="N",
        help="stop after N polls (default: follow until interrupted)",
    )
    tail.add_argument(
        "--from-end",
        action="store_true",
        help="seed on the existing content silently and report only "
        "matches completed by later appends",
    )
    tail.add_argument(
        "--json", action="store_true", help="JSON-lines output (one mapping per line)"
    )
    add_engine(tail)
    tail.set_defaults(func=_cmd_tail)

    corpus = sub.add_parser(
        "corpus", help="persistent corpus store: ingest once, query the index"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            required=True,
            metavar="PATH",
            help="store location (a sqlite file, or a directory that will "
            "hold corpus.sqlite)",
        )

    ingest = corpus_sub.add_parser(
        "ingest",
        help="load documents (one per line) into the store, deduplicating "
        "by content hash",
    )
    add_store(ingest)
    ingest.add_argument(
        "--file", help="documents file, one per line (default: stdin)"
    )
    ingest.set_defaults(func=_cmd_corpus_ingest)

    corpus_stats = corpus_sub.add_parser(
        "stats", help="report store sizes, letters, and posting lists"
    )
    add_store(corpus_stats)
    corpus_stats.add_argument("--json", action="store_true", help="JSON output")
    corpus_stats.set_defaults(func=_cmd_corpus_stats)

    corpus_query = corpus_sub.add_parser(
        "query",
        help="evaluate a formula against the store through the posting-list "
        "index",
    )
    add_common(corpus_query)
    add_store(corpus_query)
    corpus_query.add_argument(
        "--json", action="store_true", help="JSON-lines output (matching docs)"
    )
    corpus_query.add_argument(
        "--explain",
        action="store_true",
        help="print the index plan (posting ops and candidate counts) first",
    )
    corpus_query.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard surviving documents across N worker processes",
    )
    add_engine(corpus_query)
    add_guard(corpus_query)
    corpus_query.set_defaults(func=_cmd_corpus_query)

    corpus_rebuild = corpus_sub.add_parser(
        "rebuild",
        help="recompute artifacts and posting lists from the raw texts",
    )
    add_store(corpus_rebuild)
    corpus_rebuild.add_argument(
        "--verify",
        action="store_true",
        help="first cross-check stored rows against the recomputation and "
        "report divergences",
    )
    corpus_rebuild.set_defaults(func=_cmd_corpus_rebuild)

    explain = sub.add_parser(
        "explain", help="print the compiled (and optimized) plan of an RA query"
    )
    add_common(explain)
    explain.add_argument(
        "--union",
        action="append",
        metavar="FORMULA",
        help="union a further formula onto the query (repeatable)",
    )
    explain.add_argument(
        "--join",
        action="append",
        metavar="FORMULA",
        help="join a further formula onto the query (repeatable)",
    )
    explain.add_argument(
        "--difference",
        action="append",
        metavar="FORMULA",
        help="subtract a further formula from the query (repeatable)",
    )
    explain.add_argument(
        "--project",
        metavar="VARS",
        default=None,
        help="project the result onto a comma-separated variable list",
    )
    explain.add_argument(
        "--no-optimize",
        action="store_true",
        help="show the unoptimized plan instead",
    )
    explain.add_argument(
        "--stats", action="store_true", help="print engine statistics to stderr"
    )
    explain.set_defaults(func=_cmd_explain)

    classify_cmd = sub.add_parser("classify", help="report the formula's classes")
    add_common(classify_cmd)
    classify_cmd.set_defaults(func=_cmd_classify)

    dot = sub.add_parser("dot", help="emit the compiled automaton as Graphviz DOT")
    add_common(dot)
    dot.set_defaults(func=_cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # Flush here, so a reader that closed early meets the handler
        # below, not the interpreter's final flush.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe early (`... | head -1`, or `2>&1 |
        # grep -q` on the stats): stop quietly, with stdout and stderr
        # pointed at devnull so the interpreter's final flush of either
        # does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        return 0
    except (SpannerError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
