"""P1 — Gerveshi's PLA linear-area relation (extension).

Section 1 cites Gerveshi: "for PLAs, the module area has a simple
linear relationship to the number of basic logic functions and the
number of devices in the chip."  The experiment samples a family of
random PLA specifications, fits area ~ a*functions + b*devices + c, and
reports the coefficient of determination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.pla import (
    PlaSpec,
    estimate_pla,
    fit_linear_model,
    linearity_r_squared,
)
from repro.reporting import render_table


@dataclass(frozen=True)
class PlaObservation:
    spec: PlaSpec
    area: float


def sample_pla_family(
    count: int = 24,
    seed: int = 1986,
) -> List[PlaObservation]:
    """Random PLA specs across a wide size range."""
    rng = random.Random(seed)
    observations: List[PlaObservation] = []
    for index in range(count):
        inputs = rng.randint(4, 24)
        outputs = rng.randint(2, 16)
        product_terms = rng.randint(6, 64)
        crosspoints = product_terms * (2 * inputs + outputs)
        programmed = rng.randint(crosspoints // 5, crosspoints // 2)
        spec = PlaSpec(
            name=f"pla{index}",
            inputs=inputs,
            outputs=outputs,
            product_terms=product_terms,
            programmed_points=programmed,
        )
        observations.append(
            PlaObservation(spec=spec, area=estimate_pla(spec).area)
        )
    return observations


def run_pla_linearity(
    count: int = 24, seed: int = 1986
) -> Tuple[List[PlaObservation], Tuple[float, float, float], float]:
    """Fit the linear model; returns (observations, (a, b, c), R^2).

    "Functions" is the product-term count; "devices" the programmed
    crosspoints.
    """
    observations = sample_pla_family(count, seed)
    triples = [
        (o.spec.product_terms, float(o.spec.programmed_points), o.area)
        for o in observations
    ]
    coefficients = fit_linear_model(triples)
    r_squared = linearity_r_squared(triples)
    return observations, coefficients, r_squared


def format_pla_linearity(
    observations: List[PlaObservation],
    coefficients: Tuple[float, float, float],
    r_squared: float,
) -> str:
    headers = ("PLA", "Inputs", "Outputs", "Terms", "Devices", "Area")
    body = [
        (
            o.spec.name,
            o.spec.inputs,
            o.spec.outputs,
            o.spec.product_terms,
            o.spec.programmed_points,
            round(o.area),
        )
        for o in observations[:10]
    ]
    table = render_table(
        headers, body,
        title=f"P1: PLA family sample ({len(observations)} specs, "
              "first 10 shown)",
    )
    a, b, c = coefficients
    summary = (
        f"linear fit: area = {a:.1f} * functions + {b:.3f} * devices + "
        f"{c:.0f}; R^2 = {r_squared:.4f} (Gerveshi's relation predicts "
        "R^2 near 1)"
    )
    return table + "\n" + summary
