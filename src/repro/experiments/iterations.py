"""C2 — floor-planning iteration reduction (the paper's contribution 2).

"More accurate module aspect ratio estimates will significantly reduce
the number of floor planning iterations."  The experiment builds a
small chip of modules, runs the estimate -> plan -> layout -> re-plan
loop twice — once seeded with the paper's estimator, once with a naive
cell-area-times-fudge estimator — and compares iteration counts.

True module shapes come from the standard-cell layout oracle, so both
estimators are judged against the same ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import EstimatorConfig
from repro.errors import FloorplanError
from repro.floorplan.iteration import (
    IterationOutcome,
    naive_estimator,
    run_iteration_loop,
)
from repro.floorplan.shapes import Shape, ShapeList
from repro.layout.annealing import AnnealingSchedule, timberwolf_1988_schedule
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.netlist.model import Module
from repro.perf.batch import estimate_batch
from repro.perf.plan import EstimationPlan
from repro.reporting import render_table
from repro.technology.libraries import nmos_process
from repro.technology.process import ProcessDatabase
from repro.workloads.generators import (
    counter_module,
    decoder_module,
    mux_tree_module,
    random_gate_module,
    register_file_module,
)


@dataclass
class IterationComparison:
    """Iteration loop outcomes for both estimators."""

    module_names: Tuple[str, ...]
    with_estimator: IterationOutcome
    with_naive: IterationOutcome

    @property
    def iteration_reduction(self) -> int:
        return self.with_naive.iterations - self.with_estimator.iterations


class PlannedEstimateProvider:
    """The floor-planning loop's estimate source, backed by compiled
    plans.

    The loop queries shapes by module name on every pass; this provider
    holds one :class:`~repro.perf.plan.EstimationPlan` per module and
    evaluates lazily, caching the resulting single-shape
    :class:`~repro.floorplan.shapes.ShapeList` — re-planning never
    re-scans a schematic or recompiles a plan.
    """

    def __init__(
        self,
        plans: Dict[str, EstimationPlan],
        rows: Optional[int] = None,
    ):
        self._plans = plans
        self._rows = rows
        self._shapes: Dict[str, ShapeList] = {}

    def __call__(self, name: str) -> ShapeList:
        shapes = self._shapes.get(name)
        if shapes is None:
            estimate = self._plans[name].evaluate(self._rows)
            shapes = ShapeList.from_dimensions(
                [(estimate.width, estimate.height)]
            )
            self._shapes[name] = shapes
        return shapes


def default_chip_modules() -> List[Module]:
    """A small chip: five heterogeneous modules."""
    return [
        counter_module("chip_counter", bits=8),
        decoder_module("chip_decoder", address_bits=3),
        mux_tree_module("chip_mux", select_bits=3),
        register_file_module("chip_regs", words=4, bits=4),
        random_gate_module("chip_ctl", gates=40, inputs=8, outputs=6,
                           seed=77, locality=0.5),
    ]


def run_iteration_experiment(
    modules: Optional[Sequence[Module]] = None,
    process: Optional[ProcessDatabase] = None,
    config: Optional[EstimatorConfig] = None,
    oracle_schedule: Optional[AnnealingSchedule] = None,
    tolerance: float = 0.05,
    seed: int = 0,
) -> IterationComparison:
    """Run the loop with both estimate providers.

    One :func:`~repro.perf.batch.estimate_batch` call scans each module
    once and compiles its plan; the layout oracle runs at each
    estimate's row count, and the same plans back the paper-estimator
    side through :class:`PlannedEstimateProvider`.
    """
    process = process or nmos_process()
    modules = list(modules) if modules is not None else default_chip_modules()
    config = config or EstimatorConfig()
    oracle_schedule = oracle_schedule or timberwolf_1988_schedule()
    if len({m.name for m in modules}) != len(modules):
        raise FloorplanError("module names must be unique")

    # Ground truth: one real layout per module at its estimator-chosen
    # row count.
    truths: Dict[str, Shape] = {}
    plans: Dict[str, EstimationPlan] = {}
    cell_areas: Dict[str, float] = {}
    for module, result in zip(
        modules, estimate_batch(modules, process, config)
    ):
        estimate = result.estimate
        plans[module.name] = result.plan
        cell_areas[module.name] = estimate.cell_area
        layout = layout_standard_cell(
            module, process, rows=estimate.rows, seed=seed,
            schedule=oracle_schedule, config=config,
        )
        truths[module.name] = Shape(layout.width, layout.height)

    names = tuple(sorted(plans))
    with_estimator = run_iteration_loop(
        names,
        estimates=PlannedEstimateProvider(plans, rows=config.rows),
        truths=lambda name: truths[name],
        tolerance=tolerance,
        seed=seed,
    )
    with_naive = run_iteration_loop(
        names,
        estimates=naive_estimator(cell_areas),
        truths=lambda name: truths[name],
        tolerance=tolerance,
        seed=seed,
    )
    return IterationComparison(
        module_names=names,
        with_estimator=with_estimator,
        with_naive=with_naive,
    )


def format_iterations(comparison: IterationComparison) -> str:
    """Render the C2 comparison."""
    headers = ("Estimator", "Iterations", "Converged", "Final chip area",
               "Dead space")
    body = [
        (
            "module area estimator (paper)",
            comparison.with_estimator.iterations,
            comparison.with_estimator.converged,
            round(comparison.with_estimator.final_area),
            f"{comparison.with_estimator.final_floorplan.dead_space_fraction:.1%}",
        ),
        (
            "naive (cell area x 1.15, square)",
            comparison.with_naive.iterations,
            comparison.with_naive.converged,
            round(comparison.with_naive.final_area),
            f"{comparison.with_naive.final_floorplan.dead_space_fraction:.1%}",
        ),
    ]
    table = render_table(
        headers, body,
        title="C2: floor-planning iterations, estimator vs naive "
              f"({len(comparison.module_names)} modules)",
    )
    summary = (
        f"iteration reduction: {comparison.iteration_reduction} "
        "(positive means the paper's estimator converges in fewer "
        "floor-planning passes)"
    )
    return table + "\n" + summary
