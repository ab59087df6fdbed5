"""Deliberate estimator perturbation, for testing the tester.

A verification harness that has never caught anything proves nothing.
:func:`perturbed_standard_cell` injects a controlled fault into the one
Eq. 12 assembly every standard-cell estimate runs
(``EstimationPlan._assemble``), so a verify run under injection must
fail its ``plan_vs_direct`` check — the per-net Eq. 2-11 derivation of
:func:`repro.obs.explain.explain_standard_cell` no longer re-assembles
into the estimate — shrink the counterexample, and emit a replayable
seed record.  :func:`perturbed_backend` faults the ``numpy`` kernels,
so ``backend_equivalence`` must trip.  The self-test lives in
``tests/test_verify_runner.py`` and can be reproduced from the CLI
with ``mae verify --inject 1.2``.

Both patches are exception-safe.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

from repro.errors import VerificationError


@contextmanager
def perturbed_standard_cell(scale: float = 1.2) -> Iterator[None]:
    """Scale every standard-cell estimate's area by ``scale`` (tracks
    too, so the fault looks like a real model regression) for the
    duration of the block.  The plan cache is cleared on entry and on
    exit, so an estimate memoized on either side of the block can never
    hide (or outlive) the fault."""
    if scale <= 0:
        raise VerificationError(f"scale must be positive, got {scale}")
    from repro.perf.plan import EstimationPlan, clear_plan_cache

    original = EstimationPlan._assemble

    def perturbed(self, *args, **kwargs):
        estimate = original(self, *args, **kwargs)
        return dataclasses.replace(
            estimate,
            tracks=max(estimate.tracks, round(estimate.tracks * scale)),
            area=estimate.area * scale,
            wiring_area=estimate.wiring_area * scale,
        )

    clear_plan_cache()
    EstimationPlan._assemble = perturbed
    try:
        yield
    finally:
        EstimationPlan._assemble = original
        clear_plan_cache()


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
