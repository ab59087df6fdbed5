"""Standard-cell module area estimation (Section 4.1, Eqs. 1-12).

The estimate proceeds exactly as the paper's derivation:

1. Scan the schematic for N, H, the width histogram (W_i, X_i) and the
   net-size histogram (D, y_D); compute W_avg (Eq. 1).
2. Choose the number of rows n — either fixed by the caller or by the
   Section 5 port-fitting algorithm.
3. Expected total track count: for every net size D, the expected row
   spread E(i) (Eqs. 2-3) rounded up, times y_D nets of that size.
4. Expected feed-throughs in a row: each net straddles the central row
   with probability P (Eq. 9, or Eq. 8 for the general model); the
   count over H nets is binomial with mean H*P (Eqs. 10-11), rounded
   up.  Every row is assumed to carry this (worst-case central-row)
   feed-through load.
5. Module area (Eq. 12)::

       area = (n * row_height + tracks * track_pitch)
            * (W_avg * N / n + E(M) * feedthrough_width)

The result is an upper bound: "each routing track only contains one
signal net" ignores track sharing, which the paper identifies as the
source of its 42-70 % Table 2 overestimates.  ``track_sharing_factor``
in the config scales the track count for the A1 ablation.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Tuple

from repro.core.config import EstimatorConfig, scan_for
from repro.obs.trace import current_tracer
from repro.core.results import StandardCellEstimate
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import ModuleStatistics
from repro.technology.process import ProcessDatabase


def estimate_standard_cell(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> StandardCellEstimate:
    """Estimate standard-cell layout area for a module."""
    config = config or EstimatorConfig()
    return estimate_standard_cell_from_stats(
        scan_for(module, process, config), process, config
    )


def estimate_standard_cell_from_stats(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> StandardCellEstimate:
    """Estimate from pre-computed statistics (workload sweeps reuse the
    scan across row counts).

    Steps 2-5 run in a freshly compiled
    :class:`~repro.perf.plan.EstimationPlan`, the one Eq. 12 assembly
    every standard-cell estimate takes."""
    config = config or EstimatorConfig()
    return _plans().compile_plan(stats, process, config).evaluate(
        config.rows
    )


@functools.lru_cache(maxsize=None)
def _plans():
    """:mod:`repro.perf.plan`, imported on first use because it imports
    :func:`choose_initial_rows` from this module.  Cached: an import
    statement costs about a microsecond per call, a tenth of a one-shot
    estimate."""
    from repro.perf import plan

    return plan


def sweep_rows(
    module: Module,
    process: ProcessDatabase,
    row_counts: Tuple[int, ...],
    config: Optional[EstimatorConfig] = None,
    backend: Optional[str] = None,
) -> List[StandardCellEstimate]:
    """Estimates at several row counts (the paper shows 2-3 per module
    in Table 2; "the area estimate decreased as the number of rows
    increased").

    Results are in ``row_counts`` order.  ``backend`` selects the
    kernel evaluation backend (``None``: the process default) — under
    ``numpy`` the whole sweep is one 2-D (rows x net-size) kernel
    evaluation.
    """
    # Deferred: repro.perf.batch imports this module.
    from repro.perf.batch import estimate_batch

    config = config or EstimatorConfig()
    results = estimate_batch(
        [module],
        process,
        [config.with_rows(rows) for rows in row_counts],
        methodologies=("standard-cell",),
        backend=backend,
    )
    return [result.estimate for result in results]


def choose_initial_rows(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> int:
    """The Section 5 initial-row algorithm.

    Starting from i = 2::

        n = ceil( sqrt(active_cell_area) / (i * row_height) )
        row_length = active_cell_area / (n * row_height)

    accept n once all module ports fit within ``row_length`` (ports fit
    along one of the longer edges), otherwise increment i — fewer,
    longer rows.  n = 1 is always accepted: rows cannot get any longer.
    """
    config = config or EstimatorConfig()
    area = stats.total_device_area
    if area <= 0:
        raise EstimationError(
            f"module {stats.module_name!r}: active cell area must be positive"
        )
    row_height = process.row_height
    port_length = stats.total_port_width

    tracer = current_tracer()
    with tracer.span("sc.choose_rows") as span:
        divisor = 2
        iterations = 0
        while True:
            rows = math.ceil(math.sqrt(area) / (divisor * row_height))
            rows = max(1, min(rows, config.max_rows))
            row_length = area / (rows * row_height)
            if rows == 1 or port_length <= row_length:
                if tracer.enabled:
                    span.set("rows", rows)
                    span.set("iterations", iterations)
                    tracer.metrics.incr("sc.row_iterations", iterations)
                return rows
            divisor += 1
            iterations += 1
            if iterations > 10_000:  # unreachable: rows -> 1 as divisor grows
                raise EstimationError(
                    f"module {stats.module_name!r}: row selection did not "
                    "converge"
                )
