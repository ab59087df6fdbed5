"""Compiled estimation plans: the one Eq. 12 assembly.

Every standard-cell estimate is evaluated by an :class:`EstimationPlan`:
:func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
compiles a fresh one per call, and the callers that re-estimate a
module at many row counts (the floorplan race, served sessions,
:func:`~repro.perf.batch.estimate_batch`) keep one.

A plan is compiled from one (module statistics, process,
config-sans-rows) triple: the (D, y_D) histogram is frozen into dense
parallel tuples, the Eq. 12 process constants are pre-resolved, and
:meth:`EstimationPlan.evaluate` produces a
:class:`~repro.core.results.StandardCellEstimate` for any row count via
the whole-histogram kernels of :mod:`repro.perf.kernels` — one kernel
call for all track demands, one for the feed-through mean.  The
``plan_vs_direct`` check of ``mae verify`` and a Hypothesis property
test hold the assembly to the per-net Eq. 2-11 derivation of
:func:`repro.obs.explain.explain_standard_cell`.

A plan lives with its owner; no process-wide cache keeps one.
``estimate_batch`` files the plans it compiles beside the module's held
scan (:data:`HELD_SCANS`, weakly keyed by the module), so a later call
over the unedited module gets the same plan object and its memos, and a
dropped module takes its plans with it; an
:class:`~repro.incremental.IncrementalEstimator` keeps the plan of its
current snapshot; one-shot callers call :func:`compile_plan`.
Compilation statistics live in :func:`plan_cache_stats` (cache-stats
space, like the kernel caches) — deliberately *not* in the additive
tracer counter space, because held-plan hits depend on process
history, not on the workload.

A plan also memoizes its estimates per requested row count, so a
caller that asks an unedited module the same question twice (the
floorplan race, a served session) evaluates once, and it keeps the
floorplan race's prices of its module
(:meth:`EstimationPlan.memoized_price`), so a later race over the
unedited module prices nothing again.  Those memos, and the held scans
and plans of :func:`repro.perf.batch.estimate_batch`, follow one rule
(:func:`reuse_generation`): they are off under
:func:`~repro.perf.kernels.caches_disabled` and while the tracer
collects, and :func:`clear_plan_cache` forgets them all.  Their hits
are counted in :func:`plan_cache_stats`.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.config import ROW_COUNT_LIMIT, EstimatorConfig
from repro.core.probability import expected_feedthroughs
from repro.core.results import StandardCellEstimate
from repro.core.standard_cell import choose_initial_rows
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import ModuleStatistics
from repro.obs.trace import current_tracer
from repro.perf.backends import get_backend, resolve_backend_name
from repro.perf.kernels import cache_enabled, central_feedthrough_probability
from repro.technology.process import ProcessDatabase
from repro.units import round_up


def _check_rows(rows) -> None:
    if rows is None or not 1 <= rows <= ROW_COUNT_LIMIT:
        raise EstimationError(
            f"row count must be in 1..{ROW_COUNT_LIMIT}, got {rows}"
        )


class EstimationPlan:
    """One module's standard-cell estimator, compiled for re-evaluation.

    Construct via :func:`compile_plan` (validates).  ``evaluate(rows)``
    is the Eq. 12 estimate at ``rows``; ``evaluate(None)`` runs the
    Section 5 initial-row algorithm first.  Repeated row counts are
    served from the plan's memo, except while the tracer collects: a
    traced call always evaluates, so traced row-iteration counters
    stay workload-derived.
    """

    __slots__ = (
        "stats", "process", "config", "histogram", "net_sizes",
        "net_counts", "routed_net_count", "device_count", "average_width",
        "cell_area", "row_height", "track_pitch", "feedthrough_unit_width",
        "backend_name", "_estimates", "_prices", "_generation",
    )

    def __init__(
        self,
        stats: ModuleStatistics,
        process: ProcessDatabase,
        config: EstimatorConfig,
        backend: Optional[str] = None,
    ):
        self.stats = stats
        self.process = process
        #: Plans store the *name* of their kernel backend (resolved at
        #: compile time — ``None`` means the process default) and look
        #: the instance up per evaluation.
        self.backend_name = resolve_backend_name(backend)
        #: The config compiled from.  Its row count is ignored: rows
        #: are an evaluate()-time argument, never plan state.
        self.config = config
        #: The (D, y_D) histogram, frozen once (the property rebuilds
        #: its tuple per access).
        self.histogram: Tuple[Tuple[int, int], ...] = (
            stats.multi_component_nets
        )
        #: Its D and y_D columns as parallel tuples.
        self.net_sizes, self.net_counts = (
            tuple(zip(*self.histogram)) if self.histogram else ((), ())
        )
        self.routed_net_count = sum(self.net_counts)
        self.device_count = stats.device_count
        self.average_width = stats.average_width
        self.cell_area = stats.total_device_area
        self.row_height = process.row_height
        self.track_pitch = process.track_pitch
        self.feedthrough_unit_width = process.feedthrough_width
        #: requested rows -> estimate, valid for one reuse generation.
        self._estimates: Dict[Optional[int], StandardCellEstimate] = {}
        #: (rows, capacity, weight) -> the floorplan race's price, valid
        #: for the same generation; allocated on the first price, so a
        #: plan nobody prices (``mae serve``'s) carries no dict.
        self._prices: Optional[Dict[tuple, tuple]] = None
        self._generation = -1

    def _memo(
        self, tracer
    ) -> Optional[Dict[Optional[int], StandardCellEstimate]]:
        """The estimates memo, or ``None`` while reuse is off.  A new
        reuse generation starts both memos empty."""
        generation = reuse_generation(tracer)
        if generation is None:
            return None
        if self._generation != generation:
            self._estimates = {}
            self._prices = None
            self._generation = generation
        return self._estimates

    def memoized_price(self, key: tuple) -> Optional[tuple]:
        """The price memoized under ``key``, or ``None``.

        The floorplan race
        (:class:`repro.floorplan.portfolio.CompiledEstimateServer`)
        keys its prices of this plan's module by ``(rows, channel
        capacity, routability weight)``: the plan fixes everything else
        a price depends on (the scan, the process constants, the config
        apart from rows, the backend).  ``None`` means a miss, or that
        reuse is off (:func:`reuse_generation`).
        """
        if self._memo(current_tracer()) is None or self._prices is None:
            return None
        price = self._prices.get(key)
        if price is not None:
            _PLAN_COUNTERS["price_memo_hits"] += 1
        return price

    def memoize_price(self, key: tuple, price: tuple) -> None:
        """File ``price`` under ``key`` (a no-op while reuse is off)."""
        if self._memo(current_tracer()) is None:
            return
        if self._prices is None:
            self._prices = {}
        self._prices[key] = price

    def evaluate(self, rows: Optional[int] = None) -> StandardCellEstimate:
        """The Eq. 12 estimate at ``rows`` (``None``: Section 5 rows)."""
        tracer = current_tracer()
        memo = self._memo(tracer)
        estimate = None if memo is None else memo.get(rows)
        if estimate is None:
            estimate = self._evaluate(rows, tracer)
            if memo is not None:
                memo[rows] = estimate
        else:
            _PLAN_COUNTERS["estimate_memo_hits"] += 1
        _note_evaluation()
        return estimate

    def _evaluate(self, rows: Optional[int], tracer) -> StandardCellEstimate:
        config = self.config
        with tracer.span("plan.evaluate") as span:
            if rows is None:
                rows = choose_initial_rows(self.stats, self.process, config)
            _check_rows(rows)

            per_size = get_backend(self.backend_name).tracks_for_histogram(
                self.histogram, rows, config.row_spread_mode
            )
            return self._assemble(rows, per_size, None, tracer, span)

    def evaluate_rows(
        self, row_counts
    ) -> Tuple[StandardCellEstimate, ...]:
        """The Eq. 12 estimates at every row count, in one batched pass.

        Under the ``exact`` backend this is a plain loop over
        :meth:`evaluate` (bit-identity is trivial); under ``numpy`` the
        track demands for *all* candidate row counts come from one 2-D
        (rows x net-size) kernel evaluation and the feed-through means
        from one batched call, with only the scalar Eq. 12 assembly per
        row — the kernel that makes ``sweep_rows`` and the C2 iteration
        loop one array pass instead of a per-row scalar walk.  Row
        counts already in the estimates memo are served from it; only
        the rest are evaluated.
        """
        row_counts = tuple(row_counts)
        if not row_counts:
            return ()
        backend = get_backend(self.backend_name)
        if backend.name == "exact":
            return tuple(self.evaluate(rows) for rows in row_counts)
        config = self.config
        for rows in row_counts:
            _check_rows(rows)
        tracer = current_tracer()
        memo = self._memo(tracer)
        todo = row_counts if memo is None else tuple(
            rows for rows in dict.fromkeys(row_counts) if rows not in memo
        )
        estimates = []
        if todo:
            per_size_rows = backend.tracks_for_histogram_rows(
                self.histogram, todo, config.row_spread_mode
            )
            if config.feedthrough_model == "two-component":
                means = None
            else:
                means = backend.feedthrough_means_for_rows(
                    self.histogram, todo, "general"
                )
            for index, rows in enumerate(todo):
                with tracer.span("plan.evaluate") as span:
                    estimate = self._assemble(
                        rows,
                        per_size_rows[index],
                        None if means is None else means[index],
                        tracer,
                        span,
                    )
                estimates.append(estimate)
        _note_evaluation(len(row_counts))
        if memo is None:
            return tuple(estimates)
        _PLAN_COUNTERS["estimate_memo_hits"] += len(row_counts) - len(todo)
        memo.update(zip(todo, estimates))
        return tuple(memo[rows] for rows in row_counts)

    def evaluate_congestion(self, rows: int, capacity: Optional[int] = None):
        """The per-channel congestion distribution at ``rows``.

        ``capacity = None`` resolves through the plan's process
        (:func:`repro.congestion.model.resolve_channel_capacity`), so a
        plan prices routability against the same routing budget every
        other consumer of the process sees.  The arithmetic runs on the
        plan's own backend, so serial and compiled portfolio servers
        stay bit-identical.  Nothing is kept: the floorplan race prices
        each pair once and keeps the price
        (:meth:`memoize_price`), under the one reuse rule.
        """
        from repro.congestion.model import (
            congestion_distribution,
            resolve_channel_capacity,
        )

        _check_rows(rows)
        resolved, _ = resolve_channel_capacity(self.process, capacity)
        return congestion_distribution(
            self.histogram,
            rows,
            resolved,
            mode=self.config.row_spread_mode,
            backend=self.backend_name,
        )

    def _assemble(
        self,
        rows: int,
        per_size: Tuple[int, ...],
        feedthrough_mean: Optional[float],
        tracer,
        span,
    ) -> StandardCellEstimate:
        """Scalar Eq. 12 assembly from precomputed per-net-size tracks
        (and, on the batched path, a precomputed feed-through mean)."""
        config = self.config
        total = 0
        for tracks_per_net, count in zip(per_size, self.net_counts):
            total += tracks_per_net * count
        if config.track_model == "shared":
            from repro.core.sharing import estimate_shared_tracks

            shared = estimate_shared_tracks(
                self.histogram,
                rows,
                config.congestion_margin,
                config.row_spread_mode,
            ).total_tracks
            # The upper bound stays an upper bound.
            shared = min(shared, total)
        else:
            shared = math.ceil(total * config.track_sharing_factor)
        tracks = shared

        feedthroughs = self._feedthroughs(rows, tracer, feedthrough_mean)

        cell_width_per_row = (
            self.average_width * self.device_count / rows
        )
        feedthrough_width = feedthroughs * self.feedthrough_unit_width
        width = cell_width_per_row + feedthrough_width
        height = rows * self.row_height + tracks * self.track_pitch
        area = width * height
        cell_area = self.cell_area

        if tracer.enabled:
            span.set("module", self.stats.module_name)
            span.set("rows", rows)
            span.set("tracks", tracks)
            span.set("feedthroughs", feedthroughs)
            metrics = tracer.metrics
            metrics.incr("sc.estimates")
            metrics.incr("sc.nets_routed", self.routed_net_count)
            metrics.incr("sc.tracks_total", tracks)
            metrics.incr("sc.feedthroughs_total", feedthroughs)
            metrics.incr("sc.track_nets", self.routed_net_count)

        return StandardCellEstimate(
            module_name=self.stats.module_name,
            rows=rows,
            cell_width_per_row=cell_width_per_row,
            feedthroughs=feedthroughs,
            feedthrough_width=feedthrough_width,
            tracks=tracks,
            tracks_by_net_size=tuple(zip(self.net_sizes, per_size)),
            width=width,
            height=height,
            cell_area=cell_area,
            wiring_area=max(0.0, area - cell_area),
            area=area,
        )

    def _feedthroughs(
        self, rows: int, tracer, mean: Optional[float] = None
    ) -> int:
        config = self.config
        if rows < 3:
            # No interior row exists; nothing can straddle a row.
            return 0
        if config.feedthrough_model == "two-component":
            probability = central_feedthrough_probability(rows)
            return expected_feedthroughs(self.routed_net_count, probability)
        if mean is None:
            mean = get_backend(
                self.backend_name
            ).feedthrough_mean_for_histogram(self.histogram, rows, "general")
        if tracer.enabled:
            tracer.metrics.incr("feedthrough.mean_sum", mean)
        return round_up(mean)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EstimationPlan({self.stats.module_name!r}, "
            f"{len(self.histogram)} net sizes)"
        )


def compile_plan(
    stats: ModuleStatistics,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    backend: Optional[str] = None,
) -> EstimationPlan:
    """Compile a fresh plan; an empty module is rejected with
    :class:`~repro.errors.EstimationError`."""
    config = config or EstimatorConfig()
    if stats.device_count == 0:
        raise EstimationError(
            f"module {stats.module_name!r}: cannot estimate an empty module"
        )
    _PLAN_COUNTERS["compilations"] += 1
    return EstimationPlan(stats, process, config, backend)


# ----------------------------------------------------------------------
# where plans are held, and the one reuse rule
# ----------------------------------------------------------------------
class HeldScan(NamedTuple):
    """A module's last :func:`~repro.perf.batch.estimate_batch` scan,
    everything it was taken under, and the plans compiled from its
    statistics, keyed by (config without rows, resolved backend name)."""

    revision: int
    process: ProcessDatabase
    port_width: float
    power_nets: Tuple[str, ...]
    stats: ModuleStatistics
    plans: Dict[tuple, EstimationPlan]


#: Module -> its :class:`HeldScan`, filed by ``estimate_batch`` while
#: reuse is on.  Weakly keyed: a dropped module takes its scan and its
#: plans with it, in one dict operation on whichever thread drops it,
#: so the one thread at a time that fills the store (in ``mae serve``,
#: the holder of the engine lock) needs no lock.
HELD_SCANS: "weakref.WeakKeyDictionary[Module, HeldScan]" = (
    weakref.WeakKeyDictionary()
)
_PLAN_COUNTERS = {
    "hits": 0, "compilations": 0, "evaluations": 0,
    "estimate_memo_hits": 0, "price_memo_hits": 0, "scans_reused": 0,
}
#: A plan's estimate and price memos are valid within one generation;
#: :func:`clear_plan_cache` starts the next.
_REUSE = {"generation": 0}


def reuse_generation(tracer) -> Optional[int]:
    """The generation cross-call reuse is filed under, or ``None``
    while reuse is off: under :func:`~repro.perf.kernels.caches_disabled`
    (baseline runs recompute) and while ``tracer``, the current tracer,
    collects (spans and counters stay workload-derived)."""
    if tracer.enabled or not cache_enabled():
        return None
    return _REUSE["generation"]


def _note_evaluation(count: int = 1) -> None:
    _PLAN_COUNTERS["evaluations"] += count


def note_scan_reuse() -> None:
    """Count one ``estimate_batch`` scan served from an earlier call."""
    _PLAN_COUNTERS["scans_reused"] += 1


def note_plan_hit() -> None:
    """Count one held plan served instead of compiled."""
    _PLAN_COUNTERS["hits"] += 1


def plan_cache_stats() -> Dict[str, int]:
    """Per-process plan statistics: ``hits`` (held plans served instead
    of compiled, by an ``estimate_batch`` held scan or an incremental
    engine), ``compilations`` (:func:`compile_plan` calls), ``entries``
    (plans held beside live held scans), total ``evaluations``
    (memoized or not), and the hits of each cross-call reuse layer:
    ``estimate_memo_hits`` (estimates served from a plan's memo),
    ``price_memo_hits`` (floorplan prices served from a plan's memo)
    and ``scans_reused`` (``estimate_batch`` scans served from an
    earlier call)."""
    # One C-level copy of the store's values: a /metrics read never
    # iterates while the engine-lock holder files a scan.
    held = tuple(HELD_SCANS.data.values())
    return {
        "hits": _PLAN_COUNTERS["hits"],
        "compilations": _PLAN_COUNTERS["compilations"],
        "entries": sum(len(scan.plans) for scan in held),
        "evaluations": _PLAN_COUNTERS["evaluations"],
        "estimate_memo_hits": _PLAN_COUNTERS["estimate_memo_hits"],
        "price_memo_hits": _PLAN_COUNTERS["price_memo_hits"],
        "scans_reused": _PLAN_COUNTERS["scans_reused"],
    }


def clear_plan_cache() -> None:
    """Start a new reuse generation: forget every held scan with its
    plans and every plan's memos, and reset the counters."""
    HELD_SCANS.clear()
    _REUSE["generation"] += 1
    for name in _PLAN_COUNTERS:
        _PLAN_COUNTERS[name] = 0
