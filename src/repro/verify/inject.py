"""Deliberate estimator perturbation, for testing the tester.

A verification harness that has never caught anything proves nothing.
:func:`perturbed_standard_cell` injects a controlled fault — scaling
the *direct* standard-cell path's result while leaving the compiled
plans untouched — so a verify run under injection must fail its
``plan_vs_direct`` invariant (and, for large factors, the accuracy
envelope), shrink the counterexample, and emit a replayable seed
record.  The self-test lives in ``tests/test_verify_runner.py`` and
can be reproduced from the CLI with ``mae verify --inject 1.2``.

The patch point is the module-global
``repro.core.standard_cell.estimate_standard_cell_from_stats`` lookup,
which both the facade and the stats-reusing callers resolve at call
time; restoring it is exception-safe.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

from repro.errors import VerificationError


@contextmanager
def perturbed_standard_cell(scale: float = 1.2) -> Iterator[None]:
    """Scale the direct standard-cell estimator's area by ``scale``
    (tracks too, so the fault looks like a real model regression) for
    the duration of the block."""
    if scale <= 0:
        raise VerificationError(f"scale must be positive, got {scale}")
    import repro.core.standard_cell as standard_cell

    original = standard_cell.estimate_standard_cell_from_stats

    def perturbed(stats, process, config=None):
        estimate = original(stats, process, config)
        return dataclasses.replace(
            estimate,
            tracks=max(estimate.tracks, round(estimate.tracks * scale)),
            area=estimate.area * scale,
            wiring_area=estimate.wiring_area * scale,
        )

    standard_cell.estimate_standard_cell_from_stats = perturbed
    try:
        yield
    finally:
        standard_cell.estimate_standard_cell_from_stats = original


@contextmanager
def perturbed_backend(
    scale: float = 1.2, name: str = "numpy"
) -> Iterator[None]:
    """Scale the named backend's track kernel outputs for the duration
    of the block, so ``backend_equivalence`` must trip.

    The patch point is the registered backend *instance* (the same
    object every plan resolves per evaluation), emulating a numerical
    fault in the vectorized kernels while the exact reference stays
    honest.  The plan cache is cleared on entry and on exit, so an
    estimate memoized on either side of the block can never hide (or
    outlive) the injected fault.  A no-op when the backend's dependency
    is missing — there is nothing to perturb and the gate is trivially
    satisfied anyway.
    """
    if scale <= 0:
        raise VerificationError(f"scale must be positive, got {scale}")
    from repro.perf.backends import get_backend
    from repro.perf.plan import clear_plan_cache
    from repro.errors import BackendUnavailableError

    try:
        backend = get_backend(name)
    except BackendUnavailableError:
        yield
        return
    if scale == 1.0:
        # Identity perturbation: nothing to inject (the +1 floor below
        # exists to make *real* scales trip even on one-track nets).
        yield
        return

    original_single = backend.tracks_for_histogram
    original_rows = backend.tracks_for_histogram_rows

    def bump(per_size):
        return tuple(
            tracks if tracks == 0 else max(tracks + 1,
                                           round(tracks * scale))
            for tracks in per_size
        )

    def perturbed_single(histogram, rows, mode):
        return bump(original_single(histogram, rows, mode))

    def perturbed_rows(histogram, row_counts, mode):
        return tuple(
            bump(per_size)
            for per_size in original_rows(histogram, row_counts, mode)
        )

    clear_plan_cache()
    backend.tracks_for_histogram = perturbed_single
    backend.tracks_for_histogram_rows = perturbed_rows
    try:
        yield
    finally:
        backend.tracks_for_histogram = original_single
        backend.tracks_for_histogram_rows = original_rows
        clear_plan_cache()
