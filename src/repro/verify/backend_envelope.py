"""Float-backend error measurement: ``numpy`` vs ``exact``, raw.

The numpy backend's integer outputs are forced onto the exact
backend's values by its near-integer guard band — but that guarantee
only holds while the *raw* float64 error stays far inside the band.
This module measures that raw error (the pre-rounding Eq. 3
expectations and Eq. 10 feed-through means, the quantities the guard
band rounds); ``backend_equivalence`` gates it per corpus case against
the committed ``backend`` envelope bounds, so a numerical regression
in the vectorized kernels is caught long before it could flip an
integer.

The points that check measures are persisted as
``VERIFY_backend_envelope.json`` (``mae verify --backend-report``):
drift in the vectorized arithmetic shows up as a reviewable diff, not
a silent shift.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.netlist.stats import ModuleStatistics

#: Row counts every case is probed at: the small-row regime where the
#: PMFs are short (and rounding is most consequential) plus a tail into
#: the paper's typical Table 2 range.
DEFAULT_PROBE_ROWS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8, 12)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def measure_backend_errors(
    stats: ModuleStatistics,
    rows_set: Sequence[int] = DEFAULT_PROBE_ROWS,
    mode: str = "paper",
) -> Tuple[float, float]:
    """Worst relative (spread, feed-through-mean) error of the numpy
    backend against exact over ``rows_set``, on the raw pre-rounding
    quantities.  Both errors are relative with an absolute floor of 1
    (the quantities are expectations ``>= 0``; means can be 0 exactly).
    Requires NumPy."""
    from repro.perf.backends import get_backend

    exact = get_backend("exact")
    vectorized = get_backend("numpy")
    histogram = stats.multi_component_nets
    spread_error = 0.0
    mean_error = 0.0
    for rows in rows_set:
        reference = exact.spread_expectations(histogram, rows, mode)
        measured = vectorized.spread_expectations(histogram, rows, mode)
        for expected, observed in zip(reference, measured):
            spread_error = max(spread_error, _relative(observed, expected))
        mean_error = max(
            mean_error,
            _relative(
                vectorized.feedthrough_mean_for_histogram(
                    histogram, rows, "general"
                ),
                exact.feedthrough_mean_for_histogram(
                    histogram, rows, "general"
                ),
            ),
        )
    return spread_error, mean_error


def backend_provenance() -> dict:
    """What a ``backend`` record was measured with: the float backend,
    its probe rows, and the guard band its rounding relies on."""
    from repro.perf.backends.numpy64 import (
        NEAR_INTEGER_GUARD,
        ROUND_EPSILON,
    )

    return {
        "name": "numpy",
        "probe_rows": list(DEFAULT_PROBE_ROWS),
        "guard_band": {
            "round_epsilon": ROUND_EPSILON,
            "window": NEAR_INTEGER_GUARD,
        },
    }
