"""Workload builders and result writers shared by the experiment benches."""

from __future__ import annotations

import gc
import json
import pathlib
import random
import subprocess

from repro.regex import capture, concat, eps, parse, sigma_star, sym, union
from repro.regex.ast import RegexFormula
from repro.va import VA, regex_to_va, trim

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def git_sha() -> str:
    """The repository HEAD commit, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def paused(func):
    """``func()`` with the garbage collector paused, as ``timeit`` does."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return func()
    finally:
        if collecting:
            gc.enable()


def write_json_report(name: str, payload: dict, at_root: bool = False) -> pathlib.Path:
    """Write a machine-readable JSON result and return its path.

    Results land in ``benchmarks/results/`` by default; ``at_root=True``
    writes to the repository root instead — used for the trajectory-seeding
    files (``BENCH_*.json``) that CI uploads as artifacts and later PRs
    compare against.  Every report is stamped with the git SHA it was
    measured at (under ``git_sha``), so baselines stay attributable.
    """
    directory = REPO_ROOT if at_root else RESULTS_DIR
    directory.mkdir(exist_ok=True)
    path = directory / name
    payload = dict(payload)
    payload.setdefault("git_sha", git_sha())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def compile_formula(formula: "RegexFormula | str") -> VA:
    if isinstance(formula, str):
        formula = parse(formula)
    return trim(regex_to_va(formula))


def shared_block_pair(
    shared: int, private: int, alphabet: str = "ab", separator: str = "c"
) -> tuple[VA, VA]:
    """A pair of sequential VAs sharing exactly ``shared`` variables, each
    with ``private`` extra variables; every variable is optional, so the
    FPT join must reason about used-sets (the hard part of Lemma 3.2)."""

    def build(prefix: str) -> RegexFormula:
        sigma = sigma_star(alphabet)
        parts = []
        for i in range(1, shared + 1):
            if parts:
                parts.append(sym(separator))
            parts.append(union(capture(f"s{i}", sigma), eps()))
        for i in range(1, private + 1):
            if parts:
                parts.append(sym(separator))
            parts.append(union(capture(f"{prefix}{i}", sigma), eps()))
        return concat(*parts) if len(parts) > 1 else parts[0]

    return compile_formula(build("l")), compile_formula(build("r"))


def dfunc_va(disjuncts: int, alphabet: str = "ab") -> VA:
    """A disjunctive functional VA with the given number of functional
    components, each over its own variable."""
    sigma = sigma_star(alphabet)
    parts = [
        concat(capture(f"d{i}", sigma), sigma)
        for i in range(1, disjuncts + 1)
    ]
    return compile_formula(union(*parts) if len(parts) > 1 else parts[0])


def block_document(
    blocks: int,
    chunk_length: int = 3,
    alphabet: str = "ab",
    separator: str = "c",
    rng=None,
) -> str:
    """A document of exactly ``blocks`` separator-delimited chunks of
    ``chunk_length`` letters — match the block count to the formula's
    block count or nothing will match."""
    rng = rng or random.Random(0)
    chunks = [
        "".join(rng.choice(alphabet) for _ in range(chunk_length))
        for _ in range(blocks)
    ]
    return separator.join(chunks)
