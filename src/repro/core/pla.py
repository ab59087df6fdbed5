"""PLA area model (extension).

The paper's introduction cites Gerveshi's DAC-1986 result: "for PLAs,
the module area has a simple linear relationship to the number of basic
logic functions and the number of devices in the chip."  This module
provides that third estimator so a floor planner can mix PLA modules
with standard-cell and full-custom ones.

A programmed-logic-array with ``inputs`` I, ``product terms`` P and
``outputs`` O has a well-known structural area:

* AND plane: 2I columns x P rows,
* OR plane: O columns x P rows,
* plus per-row/column overhead (input buffers, output drivers,
  pull-ups).

With a fixed grid pitch g (lambda), area = g^2 * P * (2I + O) plus
linear overhead terms — linear in both the function count (P) and the
device count (grid crosspoints programmed), which is exactly Gerveshi's
relation.  :func:`fit_linear_model` recovers the linear coefficients
from sampled (functions, devices, area) observations, reproducing the
P1 benchmark's linearity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import EstimationError


@dataclass(frozen=True)
class PlaSpec:
    """Structural description of a PLA module."""

    name: str
    inputs: int
    outputs: int
    product_terms: int
    programmed_points: int  # devices: transistors at programmed crosspoints

    def __post_init__(self) -> None:
        for label, value in (
            ("inputs", self.inputs),
            ("outputs", self.outputs),
            ("product_terms", self.product_terms),
        ):
            if value < 1:
                raise EstimationError(f"{label} must be >= 1, got {value}")
        maximum = self.product_terms * (2 * self.inputs + self.outputs)
        if not 0 <= self.programmed_points <= maximum:
            raise EstimationError(
                f"programmed_points must be in [0, {maximum}], "
                f"got {self.programmed_points}"
            )


@dataclass(frozen=True)
class PlaEstimate:
    """Estimated PLA geometry (lambda / lambda^2)."""

    name: str
    width: float
    height: float
    area: float

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height


def estimate_pla(
    spec: PlaSpec,
    grid_pitch: float = 8.0,
    row_overhead: float = 20.0,
    column_overhead: float = 30.0,
) -> PlaEstimate:
    """Structural PLA area.

    ``grid_pitch`` is the crosspoint pitch; ``row_overhead`` the width
    of the input-buffer / pull-up column stack added to each row;
    ``column_overhead`` the height of drivers added to each column.
    """
    if grid_pitch <= 0:
        raise EstimationError(f"grid_pitch must be positive, got {grid_pitch}")
    columns = 2 * spec.inputs + spec.outputs
    width = columns * grid_pitch + row_overhead
    height = spec.product_terms * grid_pitch + column_overhead
    return PlaEstimate(spec.name, width, height, width * height)


def fit_linear_model(
    observations: Sequence[Tuple[float, float, float]],
) -> Tuple[float, float, float]:
    """Least-squares fit  area ~ a*functions + b*devices + c.

    ``observations`` are (functions, devices, area) triples.  Returns
    (a, b, c).  Implemented with plain normal equations (3x3) to avoid
    a numpy dependency in the core package.
    """
    if len(observations) < 3:
        raise EstimationError(
            f"need at least 3 observations to fit, got {len(observations)}"
        )
    # Normal equations: X^T X beta = X^T y with X rows (f, d, 1).
    sxx = [[0.0] * 3 for _ in range(3)]
    sxy = [0.0] * 3
    for functions, devices, area in observations:
        row = (functions, devices, 1.0)
        for i in range(3):
            for j in range(3):
                sxx[i][j] += row[i] * row[j]
            sxy[i] += row[i] * area
    beta = _solve3(sxx, sxy)
    return beta[0], beta[1], beta[2]


def linearity_r_squared(
    observations: Sequence[Tuple[float, float, float]],
) -> float:
    """Coefficient of determination of the linear fit — the P1 metric.

    Gerveshi's claim predicts R^2 very close to 1 for structural PLA
    areas.
    """
    a, b, c = fit_linear_model(observations)
    areas = [area for _, _, area in observations]
    mean = sum(areas) / len(areas)
    ss_total = sum((area - mean) ** 2 for area in areas)
    ss_residual = sum(
        (area - (a * functions + b * devices + c)) ** 2
        for functions, devices, area in observations
    )
    if ss_total == 0:
        return 1.0
    return 1.0 - ss_residual / ss_total


def _solve3(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting for a 3x3 system."""
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    size = 3
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            raise EstimationError(
                "singular system: observations are collinear; vary the "
                "PLA sizes"
            )
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, size):
            factor = a[row][col] / a[col][col]
            for k in range(col, size + 1):
                a[row][k] -= factor * a[col][k]
    solution = [0.0] * size
    for row in range(size - 1, -1, -1):
        residual = a[row][size] - sum(
            a[row][k] * solution[k] for k in range(row + 1, size)
        )
        solution[row] = residual / a[row][row]
    return solution
