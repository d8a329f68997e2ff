"""Shared legs for engine tests that run once per backend.

The indexed backend picks its walk per document
(:func:`repro.va.kernel.takes_run_walk`), so a test on short text alone
never reaches the run walk and one on long runs never reaches the letter
walk.  ``BACKEND_LEGS`` adds the indexed backend pinned to each walk;
parametrize the ``backend`` fixture over it with ``indirect=True``.
"""

import pytest

from repro.engine import available_backends
from repro.va import kernel

#: Thresholds that pin the walk: every document has ``len ≥ 0 · runs``,
#: and only the empty one, with no runs, has ``len ≥ 2**20 · runs``.
PINNED_WALKS = {"indexed-run-walk": 0, "indexed-letter-walk": 1 << 20}

#: Every backend as deployed, then the indexed backend on each walk.
BACKEND_LEGS = [*available_backends(), *PINNED_WALKS]


@pytest.fixture
def backend(request, monkeypatch):
    """The backend name for one of ``BACKEND_LEGS``; a pinned leg patches
    the walk threshold for the test's duration."""
    leg = request.param
    if leg in PINNED_WALKS:
        monkeypatch.setattr(kernel, "RUN_WALK_THRESHOLD", PINNED_WALKS[leg])
        return "indexed"
    return leg
