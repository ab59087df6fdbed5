"""Table 1 — Full-Custom Module Layout Area Estimates.

For each of the five suite modules: device/net/port counts, device
area, estimated wire area and total area under both device-area modes
(exact and average), the oracle's "real" area, and the aspect ratios —
the same row layout as the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import EstimatorConfig
from repro.layout.full_custom_flow import layout_full_custom
from repro.perf.batch import estimate_batch
from repro.reporting import format_percent, render_table
from repro.technology.libraries import nmos_process
from repro.technology.process import ProcessDatabase
from repro.workloads.suites import Table1Case, table1_suite


@dataclass(frozen=True)
class Table1Row:
    """One experiment's measurements."""

    experiment: int
    module_name: str
    devices: int
    nets: int
    ports: int
    device_area: float
    wire_area_exact: float
    wire_area_average: float
    total_exact: float
    total_average: float
    real_area: float
    aspect_exact: float
    aspect_average: float
    aspect_real: float
    note: str = ""

    @property
    def error_exact(self) -> float:
        return self.total_exact / self.real_area - 1.0

    @property
    def error_average(self) -> float:
        return self.total_average / self.real_area - 1.0


def run_table1(
    process: Optional[ProcessDatabase] = None,
    cases: Optional[List[Table1Case]] = None,
    config: Optional[EstimatorConfig] = None,
) -> List[Table1Row]:
    """Run the Table 1 experiment and return its rows.

    Both estimate columns (exact and average device areas) for all
    modules come from one :func:`estimate_batch` call; the layout
    oracle runs per module.
    """
    process = process or nmos_process()
    cases = cases if cases is not None else table1_suite()
    config = config or EstimatorConfig()

    batch = estimate_batch(
        [case.module for case in cases],
        process,
        [config.with_(device_area_mode="exact"),
         config.with_(device_area_mode="average")],
        methodologies=("full-custom",),
    )

    rows: List[Table1Row] = []
    for index, case in enumerate(cases):
        module = case.module
        exact = batch[2 * index].estimate
        average = batch[2 * index + 1].estimate
        real = layout_full_custom(module, process, seed=case.seed,
                                  config=config)
        rows.append(
            Table1Row(
                experiment=case.experiment,
                module_name=module.name,
                devices=module.device_count,
                nets=module.net_count,
                ports=module.port_count,
                device_area=exact.device_area,
                wire_area_exact=exact.wire_area,
                wire_area_average=average.wire_area,
                total_exact=exact.area,
                total_average=average.area,
                real_area=real.area,
                aspect_exact=exact.normalized_aspect,
                aspect_average=average.normalized_aspect,
                aspect_real=real.normalized_aspect,
                note=case.note,
            )
        )
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """Render the rows as the paper lays Table 1 out."""
    headers = (
        "Exp", "Module", "Devs", "Nets", "Ports", "Dev area",
        "Wire est(ex)", "Wire est(av)", "Total est(ex)", "Total est(av)",
        "Real area", "Err(ex)", "Err(av)", "AR est", "AR real",
    )
    body = [
        (
            row.experiment,
            row.module_name,
            row.devices,
            row.nets,
            row.ports,
            round(row.device_area),
            round(row.wire_area_exact),
            round(row.wire_area_average),
            round(row.total_exact),
            round(row.total_average),
            round(row.real_area),
            format_percent(row.error_exact),
            format_percent(row.error_average),
            f"{row.aspect_exact:.2f}",
            f"{row.aspect_real:.2f}",
        )
        for row in rows
    ]
    table = render_table(
        headers, body,
        title="Table 1: Full-Custom Module Layout Area Estimates "
              "(areas in lambda^2)",
    )
    errors = [abs(row.error_exact) for row in rows]
    summary = (
        f"error range: {format_percent(min(r.error_exact for r in rows))} "
        f".. {format_percent(max(r.error_exact for r in rows))}; "
        f"mean |error| = {sum(errors) / len(errors):.1%} "
        f"(paper: -17% .. +26%, mean 12%)"
    )
    return table + "\n" + summary
