"""Router-backed congestion accuracy envelope, committed.

The congestion model (:mod:`repro.congestion`) predicts *where* a
module's Eq. 2-3 track demand lands: an expected track count per
routing channel.  This module gates those predictions against the
in-repo routers — every corpus case is placed and channel-routed by
:func:`repro.layout.standard_cell_flow.layout_standard_cell` (the
global router assigns trunks to channels, the left-edge channel router
packs them into tracks), and the predicted per-channel demand is
compared against the routed per-channel track usage on two axes:

* **total error** — ``predicted_total / routed_total - 1``, the same
  relative-error convention as the area envelope.  The estimator's
  one-net-per-track model is an upper bound, so this sits mostly
  above zero.
* **shape error** — the total-variation distance between the
  *normalised* predicted and routed per-channel distributions, in
  [0, 1]: 0 means the model puts demand in exactly the channels the
  router fills, 1 means the distributions are disjoint.  This is the
  metric that catches a model that predicts the right total in the
  wrong channels.

``mae verify --check congestion_oracle`` runs this over the corpus and
gates each case against the committed ``congestion`` envelope bounds
(:data:`repro.verify.envelope.CONGESTION_BOUNDS`); the points it
measures are committed as ``VERIFY_congestion_envelope.json``
(``--congestion-report``), so drift in either the model or the routers
shows up as a reviewable diff.  docs/ORACLES.md records the
calibration run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import EstimatorConfig, scan_for
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.congestion.model import (
    congestion_distribution,
    resolve_channel_capacity,
)
from repro.errors import VerificationError
from repro.layout.annealing import AnnealingSchedule
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.netlist.model import Module
from repro.technology.process import ProcessDatabase
from repro.verify.corpus import CaseSpec


def shape_distance(
    predicted: Sequence[float], routed: Sequence[float]
) -> float:
    """Total-variation distance between two demand profiles.

    Each profile is normalised to a distribution over channels first;
    an all-zero profile is treated as matching anything (distance 0),
    so trivially-unrouted modules cannot fail the shape gate.
    """
    if len(predicted) != len(routed):
        raise VerificationError(
            f"profile lengths differ: {len(predicted)} != {len(routed)}"
        )
    predicted_total = float(sum(predicted))
    routed_total = float(sum(routed))
    if predicted_total <= 0.0 or routed_total <= 0.0:
        return 0.0
    distance = 0.0
    for expected, observed in zip(predicted, routed):
        distance += abs(
            expected / predicted_total - observed / routed_total
        )
    return distance / 2.0


def measure_congestion_case(
    spec: CaseSpec,
    module: Module,
    process: ProcessDatabase,
    schedule: Optional[AnnealingSchedule] = None,
    config: Optional[EstimatorConfig] = None,
    capacity: Optional[int] = None,
) -> dict:
    """Predict and route one case; the ``congestion`` point (unjudged).

    The oracle runs at the estimator's own Section 5 row choice
    (clamped to the device count, exactly like the area envelope), so
    prediction and routing describe the same channel structure.
    Standard-cell cases only — the full-custom flow has no channels.
    """
    if spec.methodology != "standard-cell":
        raise VerificationError(
            f"case {spec.label}: congestion oracle needs a standard-cell "
            f"case, got {spec.methodology}"
        )
    from repro.verify.envelope import verification_schedule

    schedule = schedule or verification_schedule()
    config = config or EstimatorConfig()
    stats = scan_for(module, process, config)
    estimate = estimate_standard_cell_from_stats(stats, process, config)
    rows = min(estimate.rows, module.device_count)
    resolved_capacity, _ = resolve_channel_capacity(process, capacity)
    distribution = congestion_distribution(
        stats.multi_component_nets,
        rows,
        resolved_capacity,
        mode=config.row_spread_mode,
    )
    oracle = layout_standard_cell(
        module, process, rows=rows, seed=spec.seed, schedule=schedule,
        config=config,
    )
    routed = [
        oracle.channel_tracks.get(channel, 0)
        for channel in range(rows + 1)
    ]
    predicted_total = distribution.total_demand
    routed_total = sum(routed)
    return {
        "label": spec.label,
        "methodology": spec.methodology,
        "family": spec.family,
        "devices": module.device_count,
        "rows": rows,
        "capacity": resolved_capacity,
        "predicted_total": predicted_total,      # sum of demand means
        "routed_total": routed_total,            # sum of routed tracks
        "total_error": predicted_total / max(1, routed_total) - 1.0,
        "shape_error": shape_distance(distribution.demand_means, routed),
        "routability": distribution.routability,  # P(no overflow)
    }
