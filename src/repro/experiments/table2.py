"""Table 2 — Standard-Cell Module Layout Area Estimates.

For each suite module and each tabulated row count: estimated module
height/width, estimated vs routed track counts, estimated vs real area,
and both aspect ratios — the paper's Table 2 columns.  The "real"
column comes from the place-and-route oracle running at the 1988-grade
annealing budget (see :func:`repro.layout.annealing.timberwolf_1988_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import EstimatorConfig
from repro.layout.annealing import AnnealingSchedule, timberwolf_1988_schedule
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.perf.batch import estimate_batch
from repro.reporting import format_percent, render_table
from repro.technology.libraries import nmos_process
from repro.technology.process import ProcessDatabase
from repro.workloads.suites import Table2Case, table2_suite


@dataclass(frozen=True)
class Table2Row:
    """One (experiment, row count) measurement."""

    experiment: int
    module_name: str
    rows: int
    devices: int
    ports: int
    est_height: float
    est_width: float
    est_tracks: int
    real_tracks: int
    est_area: float
    real_area: float
    est_aspect: float
    real_aspect: float
    est_feedthroughs: int
    real_feedthroughs: int

    @property
    def overestimate(self) -> float:
        return self.est_area / self.real_area - 1.0


def run_table2(
    process: Optional[ProcessDatabase] = None,
    cases: Optional[List[Table2Case]] = None,
    config: Optional[EstimatorConfig] = None,
    oracle_schedule: Optional[AnnealingSchedule] = None,
    constrained_routing: bool = True,
) -> List[Table2Row]:
    """Run the Table 2 experiment and return its rows.

    The (module x row count) estimates come from one
    :func:`estimate_batch` call; the place-and-route oracle runs per
    row.
    """
    process = process or nmos_process()
    cases = cases if cases is not None else table2_suite()
    config = config or EstimatorConfig()
    oracle_schedule = oracle_schedule or timberwolf_1988_schedule()

    batch = iter(estimate_batch(
        [case.module for case in cases],
        process,
        [[config.with_rows(row_count) for row_count in case.row_counts]
         for case in cases],
        methodologies=("standard-cell",),
    ))

    rows: List[Table2Row] = []
    for case in cases:
        module = case.module
        for row_count in case.row_counts:
            estimate = next(batch).estimate
            real = layout_standard_cell(
                module,
                process,
                rows=row_count,
                seed=case.seed,
                schedule=oracle_schedule,
                config=config,
                constrained_routing=constrained_routing,
            )
            rows.append(
                Table2Row(
                    experiment=case.experiment,
                    module_name=module.name,
                    rows=row_count,
                    devices=module.device_count,
                    ports=module.port_count,
                    est_height=estimate.height,
                    est_width=estimate.width,
                    est_tracks=estimate.tracks,
                    real_tracks=real.tracks,
                    est_area=estimate.area,
                    real_area=real.area,
                    est_aspect=estimate.normalized_aspect,
                    real_aspect=real.normalized_aspect,
                    est_feedthroughs=estimate.feedthroughs,
                    real_feedthroughs=real.feedthroughs,
                )
            )
    return rows


def format_table2(rows: List[Table2Row]) -> str:
    """Render the rows as the paper lays Table 2 out."""
    headers = (
        "Exp", "Rows", "Devs", "Ports", "Est H", "Est W",
        "Trk est", "Trk real", "Est area", "Real area",
        "Over", "AR est", "AR real",
    )
    body = [
        (
            row.experiment,
            row.rows,
            row.devices,
            row.ports,
            round(row.est_height),
            round(row.est_width),
            row.est_tracks,
            row.real_tracks,
            round(row.est_area),
            round(row.real_area),
            format_percent(row.overestimate),
            f"{row.est_aspect:.2f}",
            f"{row.real_aspect:.2f}",
        )
        for row in rows
    ]
    table = render_table(
        headers, body,
        title="Table 2: Standard-Cell Module Layout Area Estimates "
              "(dimensions in lambda, areas in lambda^2)",
    )
    overs = [row.overestimate for row in rows]
    summary = (
        f"overestimate range: {format_percent(min(overs))} .. "
        f"{format_percent(max(overs))} (paper: +42% .. +70%); every "
        "entry overestimates (upper bound), and larger row counts give "
        "smaller estimates within each experiment."
    )
    return table + "\n" + summary
