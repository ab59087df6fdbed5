"""Result records produced by the estimators.

These are the rows of the paper's Tables 1 and 2: estimated wire area,
total area, dimensions, track counts, feed-through counts, and aspect
ratios, with enough detail retained for the benchmark harness to print
the tables and for the floor planner to consume the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.netlist.stats import ModuleStatistics
from repro.units import normalized_aspect


@dataclass(frozen=True)
class StandardCellEstimate:
    """Standard-cell estimate for one module at one row count (Eq. 12)."""

    module_name: str
    rows: int
    cell_width_per_row: float       # W_avg * N / n (lambda)
    feedthroughs: int               # E(M), rounded up
    feedthrough_width: float        # E(M) * f_w (lambda)
    tracks: int                     # expectation of total track count
    tracks_by_net_size: Tuple[Tuple[int, int], ...]  # (D, tracks per net)
    width: float                    # row length incl. feed-throughs (lambda)
    height: float                   # n rows + all tracks (lambda)
    cell_area: float                # active-cell area (lambda^2)
    wiring_area: float              # area - cell portion (lambda^2)
    area: float                     # total module area (lambda^2)

    @property
    def aspect_ratio(self) -> float:
        """Width / height (Eq. 14)."""
        return self.width / self.height

    @property
    def normalized_aspect(self) -> float:
        return normalized_aspect(self.width, self.height)


@dataclass(frozen=True)
class FullCustomEstimate:
    """Full-custom estimate for one module (Eq. 13)."""

    module_name: str
    device_area_mode: str           # "exact" or "average"
    device_area: float              # active device area (lambda^2)
    wire_area: float                # sum of per-net interconnection areas
    area: float                     # total (lambda^2)
    width: float                    # from the aspect algorithm (lambda)
    height: float
    net_areas: Tuple[Tuple[str, float], ...] = ()

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height

    @property
    def normalized_aspect(self) -> float:
        return normalized_aspect(self.width, self.height)


@dataclass(frozen=True)
class ModuleEstimate:
    """Fig. 1 output record: both methodologies for one module.

    This is what the estimator's output interface writes to the
    database that "is input to the floor planner".
    """

    module_name: str
    statistics: ModuleStatistics
    process_name: str
    standard_cell: Optional[StandardCellEstimate]
    full_custom: Optional[FullCustomEstimate]
    full_custom_average: Optional[FullCustomEstimate] = None
    cpu_seconds: float = 0.0

    def best_methodology(self) -> str:
        """Methodology with the smaller estimated area.

        The paper's motivation: "The designer can then intelligently
        choose the most appropriate methodology."
        """
        candidates: Dict[str, float] = {}
        if self.standard_cell is not None:
            candidates["standard-cell"] = self.standard_cell.area
        if self.full_custom is not None:
            candidates["full-custom"] = self.full_custom.area
        if not candidates:
            return "none"
        return min(candidates, key=candidates.get)
