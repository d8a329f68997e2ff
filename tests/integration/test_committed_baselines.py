"""The committed ``BENCH_*.json`` baselines are full-size and stamped.

A bench run in tiny mode (``BENCH_E1x_TINY=1``, the smoke pass) rewrites
the baselines at the repository root, and every committed-baseline gate
in ``test_perf_budgets.py`` then skips itself.  This check fails instead,
naming the file, so a tiny run cannot be committed by accident.
"""

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_no_committed_baseline_is_tiny_or_unstamped():
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json baseline at the repository root"
    problems = []
    for path in paths:
        data = json.loads(path.read_text())
        if data.get("tiny"):
            problems.append(f"{path.name} was written in tiny mode")
        if data.get("git_sha") in (None, "", "unknown"):
            problems.append(f"{path.name} has no git_sha")
    assert not problems, (
        "; ".join(problems)
        + " (restore the committed baselines: git checkout -- BENCH_*.json)"
    )
