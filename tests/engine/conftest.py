"""Shared legs for engine tests that run once per backend.

The indexed backend picks its walk per document
(:func:`repro.va.kernel.takes_run_walk`), so a test on short text alone
never reaches the run walk and one on long runs never reaches the letter
walk.  ``BACKEND_LEGS`` adds the indexed backend pinned to each walk, and
the letter walk on bounded caches; parametrize the ``backend`` fixture
over it with ``indirect=True``, or enter :func:`leg_settings` around the
code under test.
"""

from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import pytest

from repro.va import kernel

#: Thresholds that pin the walk: every document has ``len ≥ 0 · runs``,
#: and only the empty one, with no runs, has ``len ≥ 2**20 · runs``.
PINNED_WALKS = {"indexed-run-walk": 0, "indexed-letter-walk": 1 << 20}

#: The letter walk with the kernel's node cache and ``first()`` memo
#: bounded at this many entries: past the first two, frontier nodes are
#: transient (computed per use, never linked) and the memo stops filling,
#: the path of an automaton whose subset construction outgrows
#: ``TransitionKernel.STEP_CACHE_LIMIT``.
BOUNDED_CACHES = {"indexed-bounded-caches": 2}

#: The indexed backend as deployed, then pinned to each walk, then the
#: letter walk on bounded caches.
BACKEND_LEGS = ["indexed", *PINNED_WALKS, *BOUNDED_CACHES]


@contextmanager
def leg_settings(leg: str):
    """Apply the kernel settings of one of ``BACKEND_LEGS`` for the
    duration of the block, and yield the backend name to build the engine
    with."""
    with ExitStack() as stack:
        threshold = PINNED_WALKS.get(leg)
        if leg in BOUNDED_CACHES:
            threshold = PINNED_WALKS["indexed-letter-walk"]
            for limit in ("STEP_CACHE_LIMIT", "FIRST_CACHE_LIMIT"):
                stack.enter_context(
                    patch.object(kernel.TransitionKernel, limit, BOUNDED_CACHES[leg])
                )
        if threshold is not None:
            stack.enter_context(patch.object(kernel, "RUN_WALK_THRESHOLD", threshold))
            leg = "indexed"
        yield leg


@pytest.fixture
def backend(request):
    """The backend name for one of ``BACKEND_LEGS``; a pinned or bounded
    leg patches the kernel for the test's duration."""
    with leg_settings(request.param) as name:
        yield name
