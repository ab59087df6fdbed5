"""Batch front door for the estimators.

The floor-planning regime (PAPERS.md: running an area estimator inside
floorplan iteration over thousands of candidate configurations) calls
the per-module estimators in large, regular patterns:
(module x row-count x methodology).  Calling
:func:`~repro.core.standard_cell.estimate_standard_cell` once per
triple repeats two kinds of work — the schematic scan (once per call
instead of once per module) and the probability kernels (now shared
process-wide via :mod:`repro.perf.kernels`).

:func:`estimate_batch` removes both: each module is scanned **once**
per distinct scan signature (process, port width, power-net list) and
the scan is reused across every row count and methodology.  A later
call over the same module reuses that scan too, as long as the module
is unedited (its :attr:`~repro.netlist.model.Module.revision` and name
are unchanged) and the signature matches; the rule that switches
this off is :func:`repro.perf.plan.reuse_generation`.  The batch runs
serially in this process, bit-identical to per-call estimation.

Standard-cell tasks evaluate through compiled
:class:`~repro.perf.plan.EstimationPlan` objects (one compilation per
module per distinct config family, then one array-at-once evaluation
per row count).  The plans are held beside the module's scan
(:class:`~repro.perf.plan.HeldScan`), so a later call over the unedited
module gets the same plan and its memos, and they die with the module.
Each result hands back the plan that produced it, so a caller that
keeps estimating an unedited module (the floorplan race, the C2 loop)
reuses that one object instead of scanning again.  While reuse is off
a call compiles the plans it needs and keeps none.

The sweep helpers (``sweep_rows``, Table 1/2 drivers, the ablations,
the floorplan prefill) all route through here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig, scan_for
from repro.core.full_custom import estimate_full_custom
from repro.core.results import FullCustomEstimate, StandardCellEstimate
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.obs.trace import current_tracer
from repro.perf.backends import resolve_backend_name
from repro.perf.plan import (
    HELD_SCANS,
    EstimationPlan,
    HeldScan,
    compile_plan,
    note_plan_hit,
    note_scan_reuse,
    reuse_generation,
)
from repro.technology.process import ProcessDatabase

#: Methodologies the batch executor understands.
BATCH_METHODOLOGIES = ("standard-cell", "full-custom")

Estimate = Union[StandardCellEstimate, FullCustomEstimate]


@dataclass(frozen=True)
class BatchTask:
    """One (module, methodology, config) estimation triple."""

    module_index: int
    module_name: str
    methodology: str
    config: EstimatorConfig


@dataclass(frozen=True)
class BatchResult:
    """A task together with its estimate.

    ``plan`` is the compiled plan a standard-cell estimate came from
    (``None`` for full-custom); it takes no part in equality, so
    results still compare by task and estimate.
    """

    task: BatchTask
    estimate: Estimate
    plan: Optional[EstimationPlan] = field(default=None, compare=False)


def estimate_batch(
    modules: Sequence[Module],
    process: ProcessDatabase,
    configs: Union[
        EstimatorConfig,
        Sequence[EstimatorConfig],
        Sequence[Sequence[EstimatorConfig]],
    ],
    methodologies: Iterable[str] = ("standard-cell",),
    backend: Optional[str] = None,
) -> List[BatchResult]:
    """Estimate every (module x methodology x config) combination.

    Parameters
    ----------
    modules:
        The modules to estimate.  Each is scanned once per distinct
        scan signature, no matter how many configs it is estimated at.
    configs:
        A single :class:`EstimatorConfig` (applied to every module), a
        flat sequence of configs (cross product with every module), or
        a per-module sequence of config sequences (``len(configs) ==
        len(modules)`` — row-count sweeps where the tabulated counts
        differ per module).
    methodologies:
        Subset of ``("standard-cell", "full-custom")``.
    backend:
        Kernel evaluation backend name (``None``: the process default,
        see :mod:`repro.perf.backends`), resolved once up front.

    Returns
    -------
    One :class:`BatchResult` per triple, ordered by module, then
    methodology (in the order given), then config (in the order given).
    """
    methodologies = tuple(methodologies)
    if not methodologies:
        raise EstimationError("at least one methodology is required")
    unknown = set(methodologies) - set(BATCH_METHODOLOGIES)
    if unknown:
        raise EstimationError(
            f"unknown methodologies {sorted(unknown)}; expected a subset "
            f"of {BATCH_METHODOLOGIES}"
        )

    modules = list(modules)
    per_module_configs = _normalise_configs(modules, configs)
    backend_name = resolve_backend_name(backend)
    tracer = current_tracer()
    results: List[BatchResult] = []
    with tracer.span("batch.estimate") as batch_span:
        for module_index, (module, module_configs) in enumerate(
            zip(modules, per_module_configs)
        ):
            cursor = iter(_run_group(
                module, process, methodologies, module_configs, backend_name
            ))
            for methodology in methodologies:
                for config in module_configs:
                    estimate, plan = next(cursor)
                    results.append(
                        BatchResult(
                            task=BatchTask(
                                module_index=module_index,
                                module_name=module.name,
                                methodology=methodology,
                                config=config,
                            ),
                            estimate=estimate,
                            plan=plan,
                        )
                    )
        if tracer.enabled:
            batch_span.set("groups", len(modules))
            batch_span.set("tasks", len(results))
            metrics = tracer.metrics
            metrics.incr("batch.calls")
            metrics.incr("batch.groups", len(modules))
            metrics.incr("batch.tasks", len(results))
    return results


def _run_group(
    module: Module,
    process: ProcessDatabase,
    methodologies: Tuple[str, ...],
    configs: Tuple[EstimatorConfig, ...],
    backend_name: str,
) -> List[Tuple[Estimate, Optional[EstimationPlan]]]:
    """All (methodology x config) estimates for one module, each with
    the plan that produced it, sharing one schematic scan per scan
    signature and one plan per (scan, config family)."""
    held: dict = {}

    def held_for(config: EstimatorConfig) -> HeldScan:
        key = (config.port_pitch_override, config.power_nets)
        if key not in held:
            held[key] = _held_scan(module, process, config)
        return held[key]

    def plan_for(config: EstimatorConfig) -> EstimationPlan:
        scan = held_for(config)
        key = (config.with_rows(None), backend_name)
        plan = scan.plans.get(key)
        if plan is None:
            plan = scan.plans[key] = compile_plan(
                scan.stats, process, config, backend_name
            )
        else:
            note_plan_hit()
        return plan

    estimates: List[Tuple[Estimate, Optional[EstimationPlan]]] = []
    for methodology in methodologies:
        if methodology != "standard-cell":
            for config in configs:
                estimates.append((
                    estimate_full_custom(
                        module, process, config,
                        stats=held_for(config).stats,
                    ),
                    None,
                ))
            continue
        # Compiled-plan path: one plan per (scan, config family), and
        # consecutive configs that differ only in their explicit row
        # count — the row-sweep shape — collapse into one batched
        # plan.evaluate_rows() call (the numpy backend's 2-D
        # kernel; a plain loop under exact).
        index = 0
        while index < len(configs):
            config = configs[index]
            plan = plan_for(config)
            run = [config]
            if config.rows is not None:
                family = config.with_rows(None)
                while index + len(run) < len(configs):
                    nxt = configs[index + len(run)]
                    if nxt.rows is None or nxt.with_rows(None) != family:
                        break
                    run.append(nxt)
            if len(run) > 1:
                estimates.extend(
                    (estimate, plan)
                    for estimate in plan.evaluate_rows([c.rows for c in run])
                )
            else:
                estimates.append((plan.evaluate(config.rows), plan))
            index += len(run)
    return estimates


def _held_scan(
    module: Module,
    process: ProcessDatabase,
    config: EstimatorConfig,
) -> HeldScan:
    """:func:`~repro.core.config.scan_for` under ``config``'s scan
    signature, with the plans compiled from it: an earlier call's while
    the module is unedited, else a fresh scan, filed for later calls
    while reuse is on."""
    port_width = config.port_pitch_override or process.port_pitch
    power_nets = config.power_nets
    reuse = reuse_generation(current_tracer()) is not None
    if reuse:
        held = HELD_SCANS.get(module)
        if (
            held is not None
            and held.revision == module.revision
            and held.process is process
            and held.port_width == port_width
            and held.power_nets == power_nets
            and held.stats.module_name == module.name
        ):
            note_scan_reuse()
            return held
    held = HeldScan(
        module.revision, process, port_width, power_nets,
        scan_for(module, process, config), {},
    )
    if reuse:
        HELD_SCANS[module] = held
    return held


def _normalise_configs(
    modules: Sequence[Module],
    configs,
) -> List[Tuple[EstimatorConfig, ...]]:
    """Expand the three accepted ``configs`` shapes to one tuple of
    configs per module."""
    if isinstance(configs, EstimatorConfig):
        return [(configs,) for _ in modules]
    configs = list(configs)
    if not configs:
        raise EstimationError("at least one config is required")
    if all(isinstance(c, EstimatorConfig) for c in configs):
        shared = tuple(configs)
        return [shared for _ in modules]
    # Per-module nesting: a sequence of config sequences.
    if len(configs) != len(modules):
        raise EstimationError(
            f"per-module configs: expected {len(modules)} groups, "
            f"got {len(configs)}"
        )
    per_module: List[Tuple[EstimatorConfig, ...]] = []
    for index, group in enumerate(configs):
        group = tuple(group)
        if not group or not all(
            isinstance(c, EstimatorConfig) for c in group
        ):
            raise EstimationError(
                f"per-module configs for module {index} must be a "
                "non-empty sequence of EstimatorConfig"
            )
        per_module.append(group)
    return per_module
