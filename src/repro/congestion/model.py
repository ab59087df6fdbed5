"""Per-channel congestion distributions and routability scoring.

The paper's Eq. 2-3 machinery collapses routing demand into one
per-module track count.  The same per-net span probabilities predict
*where* those tracks land: for a module placed in ``n`` rows the
router (:mod:`repro.layout.routing.global_route`) has ``n + 1``
channels, and a D-component net uses channel k with the closed-form
probability of :func:`repro.perf.kernels.channel_crossing_probability`.
From that grid this module derives, per channel:

* **crossing mean** — the expected number of nets placing a trunk in
  the channel (the upper-bound track view: the paper's "each routing
  track only contains one signal net");
* **demand mean** — the module's total Eq. 2-3 track count
  redistributed over channels by normalised crossing weights, so the
  per-channel means sum back to the estimator's own total exactly (in
  rational arithmetic — :mod:`repro.congestion.reference` proves it);
* **exceedance** — P(more nets cross than the channel has capacity
  for), the Poisson-binomial overflow mass over the independent
  per-net Bernoulli crossings.

``routability`` is the product of the per-channel survival
probabilities ``1 - exceedance``: the probability that *no* channel
overflows under the independence model.  It is consumed three ways:
``mae explain --congestion`` renders the distribution as a heatmap,
``mae verify --check congestion_oracle`` gates the demand means
against routed track usage, and the portfolio floorplan race prices
``--routability-weight`` into its candidate costs through each leaf's
plan (:meth:`repro.perf.plan.EstimationPlan.evaluate_congestion`).

Backend contract: the probability grid comes from the selected
backend (:mod:`repro.perf.backends`); everything downstream —
allocation, the exceedance DP, the products — is shared Python
accumulation in this module, so the numpy path is bit-identical to
the exact path whenever the grids are (which they are by
construction; see ``binary_float_power``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.config import EstimatorConfig, scan_for
from repro.core.standard_cell import choose_initial_rows
from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.perf.backends import get_backend, resolve_backend_name
from repro.perf.kernels import tracks_for_histogram
from repro.technology.process import ProcessDatabase

#: Fallback channel capacity (tracks) when neither the caller nor the
#: process database states one.  Sized to the verify corpus: the
#: densest routed channels the standard-cell oracle produces on
#: corpus-scale modules sit in the low tens of tracks.
DEFAULT_CHANNEL_CAPACITY = 20

#: Where a resolved capacity can come from, strongest first.
CAPACITY_SOURCES = ("override", "process", "default")


def resolve_channel_capacity(
    process: Optional[ProcessDatabase] = None,
    override: Optional[int] = None,
) -> Tuple[int, str]:
    """Resolve the per-channel track capacity and say where it came from.

    The chain, strongest first: an explicit ``override`` (CLI flag or
    API argument), the loaded process database's ``channel_capacity``
    (the technology's routing budget), then
    :data:`DEFAULT_CHANNEL_CAPACITY`.  Returns ``(capacity, source)``
    with ``source`` one of :data:`CAPACITY_SOURCES` — explain output
    reports the source so a silently-defaulted capacity is visible.
    """
    if override is not None:
        if override < 1:
            raise EstimationError(
                f"channel capacity must be >= 1, got {override}"
            )
        return int(override), "override"
    if process is not None and process.channel_capacity is not None:
        return int(process.channel_capacity), "process"
    return DEFAULT_CHANNEL_CAPACITY, "default"


@dataclass(frozen=True)
class CongestionDistribution:
    """Per-channel congestion for one (histogram, rows, capacity).

    All tuples are indexed by channel 0..rows (router numbering;
    channel 0 is never used and carries zeros throughout).
    """

    rows: int
    capacity: int
    crossing_means: Tuple[float, ...]
    demand_means: Tuple[float, ...]
    exceedances: Tuple[float, ...]

    @property
    def channel_count(self) -> int:
        return len(self.demand_means)

    @property
    def total_demand(self) -> float:
        """Sum of the per-channel demand means — equals the module's
        Eq. 2-3 track total up to float accumulation (exactly, in the
        reference arithmetic)."""
        total = 0.0
        for mean in self.demand_means:
            total += mean
        return total

    @property
    def routability(self) -> float:
        """P(no channel exceeds capacity) under independence: the
        product of per-channel survival probabilities, in [0, 1]."""
        score = 1.0
        for exceedance in self.exceedances:
            score *= 1.0 - exceedance
        return score

    @property
    def worst_channel(self) -> int:
        """The channel with the highest exceedance probability."""
        worst = 0
        for channel, exceedance in enumerate(self.exceedances):
            if exceedance > self.exceedances[worst]:
                worst = channel
        return worst


def _exceedance(
    probabilities: Sequence[float],
    counts: Sequence[int],
    capacity: int,
) -> float:
    """P(more than ``capacity`` nets cross one channel).

    Poisson-binomial overflow mass by direct DP with an absorbing
    overflow state: the pmf over 0..capacity crossings is convolved
    with one Bernoulli per net, mass walking past ``capacity`` is
    accumulated and never returns.  O(nets * capacity), plain Python
    floats in histogram order — backend-independent, so bit-identical
    grids give bit-identical exceedances.
    """
    active = [
        (probability, count)
        for probability, count in zip(probabilities, counts)
        if probability > 0.0
    ]
    if sum(count for _, count in active) <= capacity:
        # Fewer candidate nets than tracks: overflow mass is exactly
        # zero, matching what the DP would accumulate.
        return 0.0
    # Entries past the processed-trial count are exactly zero and the
    # convolution maps zeros to zeros, so clamping the update window to
    # the trial count is bit-identical to the fixed-width DP.
    pmf = [0.0] * (capacity + 1)
    pmf[0] = 1.0
    overflow = 0.0
    done = 0
    for probability, count in active:
        keep = 1.0 - probability
        for _ in range(count):
            if done >= capacity:
                overflow += pmf[capacity] * probability
            for c in range(min(done + 1, capacity), 0, -1):
                pmf[c] = pmf[c] * keep + pmf[c - 1] * probability
            pmf[0] = pmf[0] * keep
            done += 1
    return min(1.0, max(0.0, overflow))


def congestion_distribution(
    net_size_histogram: Sequence[Tuple[int, int]],
    rows: int,
    capacity: int,
    mode: str = "paper",
    backend: Optional[str] = None,
) -> CongestionDistribution:
    """The per-channel congestion distribution for a (D, y_D) histogram.

    ``mode`` is the row-spread mode the Eq. 2-3 track counts use, so a
    congestion distribution always redistributes exactly the demand
    the matching estimate charged.  ``backend`` resolves like every
    planning API (None = process default).
    """
    if rows < 1:
        raise EstimationError(f"rows must be >= 1, got {rows}")
    if capacity < 1:
        raise EstimationError(f"capacity must be >= 1, got {capacity}")
    histogram = tuple(
        (components, count)
        for components, count in net_size_histogram
        if components >= 2
    )
    engine = get_backend(backend)
    grid = engine.crossing_probabilities(histogram, rows)
    tracks = tracks_for_histogram(histogram, rows, mode)
    counts = tuple(count for _, count in histogram)
    # Per-entry normalisers: expected channels used, >= 1 for D >= 2.
    weight_sums = []
    for j in range(len(histogram)):
        total = 0.0
        for channel in range(rows + 1):
            total += grid[channel][j]
        weight_sums.append(total)
    crossing_means = [0.0] * (rows + 1)
    demand_means = [0.0] * (rows + 1)
    exceedances = [0.0] * (rows + 1)
    for channel in range(rows + 1):
        mirror = rows - channel
        if 1 <= mirror < channel <= rows - 1:
            # The crossing kernels order their subtraction so the grid
            # is bitwise symmetric under k <-> rows - k (channel 0 and
            # channel rows excluded); channels in the upper half share
            # every per-channel number with their mirror exactly.
            crossing_means[channel] = crossing_means[mirror]
            demand_means[channel] = demand_means[mirror]
            exceedances[channel] = exceedances[mirror]
            continue
        probabilities = grid[channel]
        crossing = 0.0
        demand = 0.0
        for j, count in enumerate(counts):
            crossing += count * probabilities[j]
            demand += (
                count * tracks[j] * (probabilities[j] / weight_sums[j])
            )
        crossing_means[channel] = crossing
        demand_means[channel] = demand
        exceedances[channel] = _exceedance(probabilities, counts, capacity)
    return CongestionDistribution(
        rows=rows,
        capacity=capacity,
        crossing_means=tuple(crossing_means),
        demand_means=tuple(demand_means),
        exceedances=tuple(exceedances),
    )


@dataclass(frozen=True)
class CongestionReport:
    """A module-level congestion report (the ``mae explain
    --congestion`` payload)."""

    module_name: str
    rows: int
    capacity: int
    capacity_source: str
    backend: str
    distribution: CongestionDistribution

    @property
    def routability(self) -> float:
        return self.distribution.routability

    @property
    def total_demand(self) -> float:
        return self.distribution.total_demand

    @property
    def worst_channel(self) -> int:
        return self.distribution.worst_channel


def congestion_report(
    module: Module,
    process: ProcessDatabase,
    rows: Optional[int] = None,
    config: Optional[EstimatorConfig] = None,
    capacity: Optional[int] = None,
    backend: Optional[str] = None,
) -> CongestionReport:
    """Scan ``module`` once and build its congestion report.

    ``rows = None`` falls back to ``config.rows`` and then to the
    Section 5 row choice (:func:`choose_initial_rows`), so the report
    describes the same floorplan the estimator would pick.  Capacity
    resolves through :func:`resolve_channel_capacity`.
    """
    config = config or EstimatorConfig()
    stats = scan_for(module, process, config)
    if rows is None:
        rows = config.rows
    if rows is None:
        if stats.device_count == 0:
            raise EstimationError(
                f"module {module.name!r}: cannot estimate an empty module"
            )
        rows = choose_initial_rows(stats, process, config)
    if rows < 1:
        raise EstimationError(f"rows must be >= 1, got {rows}")
    resolved_capacity, source = resolve_channel_capacity(process, capacity)
    resolved_backend = resolve_backend_name(backend)
    distribution = congestion_distribution(
        stats.net_size_histogram,
        rows,
        resolved_capacity,
        mode=config.row_spread_mode,
        backend=resolved_backend,
    )
    return CongestionReport(
        module_name=module.name,
        rows=rows,
        capacity=resolved_capacity,
        capacity_source=source,
        backend=resolved_backend,
        distribution=distribution,
    )


def routability_score(
    module: Module,
    rows: Optional[int],
    process: ProcessDatabase,
    capacity: Optional[int] = None,
    config: Optional[EstimatorConfig] = None,
    backend: Optional[str] = None,
) -> float:
    """P(no channel of ``module`` at ``rows`` exceeds capacity).

    The scalar the portfolio race trades against area; 1.0 means every
    channel is comfortably under budget, values near 0 mean overflow
    is near-certain somewhere.
    """
    return congestion_report(
        module,
        process,
        rows=rows,
        config=config,
        capacity=capacity,
        backend=backend,
    ).routability


__all__ = [
    "CAPACITY_SOURCES",
    "CongestionDistribution",
    "CongestionReport",
    "DEFAULT_CHANNEL_CAPACITY",
    "congestion_distribution",
    "congestion_report",
    "resolve_channel_capacity",
    "routability_score",
]
