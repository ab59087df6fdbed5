"""Size-scaling study: overestimation grows with design size.

"We believe that these overestimates occur because the estimator
ignores track sharing in routing channels, which is especially
significant in larger designs."  This experiment quantifies that
sentence: one circuit family, swept in size, estimated and routed at
each point; the overestimate should grow with the cell count — and the
analytic sharing model (Section 7 future work) should stay flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import EstimatorConfig, scan_for
from repro.layout.annealing import timberwolf_1988_schedule
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.perf.plan import compile_plan
from repro.reporting import format_percent, render_table
from repro.technology.libraries import nmos_process
from repro.technology.process import ProcessDatabase
from repro.workloads.generators import random_gate_module

#: Cell mix matching the Table 2 control-logic experiment.
_MIX = (
    ("DFF", 3.0),
    ("FADD", 2.0),
    ("MUX2", 2.0),
    ("DFFR", 1.5),
    ("NAND4", 1.0),
    ("XOR2", 1.0),
    ("AOI22", 1.0),
)


@dataclass(frozen=True)
class ScalingPoint:
    """One design size in the sweep."""

    gates: int
    rows: int
    est_area: float
    est_area_shared: float
    real_area: float
    est_tracks: int
    shared_tracks: int
    real_tracks: int

    @property
    def overestimate(self) -> float:
        return self.est_area / self.real_area - 1.0

    @property
    def overestimate_shared(self) -> float:
        return self.est_area_shared / self.real_area - 1.0


def run_scaling_experiment(
    sizes: Sequence[int] = (15, 30, 60, 120),
    process: Optional[ProcessDatabase] = None,
    seed: int = 500,
    locality: float = 0.25,
) -> List[ScalingPoint]:
    """Sweep the design size; same family, same seed base."""
    process = process or nmos_process()
    schedule = timberwolf_1988_schedule()
    points: List[ScalingPoint] = []
    for gates in sizes:
        module = random_gate_module(
            f"scale_{gates}", gates=gates,
            inputs=max(4, gates // 6), outputs=max(2, gates // 10),
            seed=seed + gates, cell_mix=_MIX, locality=locality,
        )
        # Scan once; both the upper-bound and shared-model estimates
        # come from compiled plans over the same statistics.
        stats = scan_for(module, process)
        upper = compile_plan(stats, process, EstimatorConfig()).evaluate()
        rows = upper.rows
        shared = compile_plan(
            stats, process,
            EstimatorConfig(rows=rows, track_model="shared"),
        ).evaluate(rows)
        real = layout_standard_cell(
            module, process, rows=rows, seed=seed, schedule=schedule,
            constrained_routing=True,
        )
        points.append(
            ScalingPoint(
                gates=gates,
                rows=rows,
                est_area=upper.area,
                est_area_shared=shared.area,
                real_area=real.area,
                est_tracks=upper.tracks,
                shared_tracks=shared.tracks,
                real_tracks=real.tracks,
            )
        )
    return points


def format_scaling(points: List[ScalingPoint]) -> str:
    headers = ("Gates", "Rows", "Trk est", "Trk shared", "Trk real",
               "Over (paper model)", "Over (shared model)")
    body = [
        (
            p.gates,
            p.rows,
            p.est_tracks,
            p.shared_tracks,
            p.real_tracks,
            format_percent(p.overestimate),
            format_percent(p.overestimate_shared),
        )
        for p in points
    ]
    table = render_table(
        headers, body,
        title="Scaling: overestimation vs design size "
              "(track sharing 'especially significant in larger designs')",
    )
    return table
