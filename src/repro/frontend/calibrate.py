"""Per-library calibration of the estimator against Liberty areas.

The estimator predicts module area in square lambda from the paper's
Eq. 12 model; a synthesis flow reports chip area in the Liberty
library's own square-micron ``area`` units (``yosys stat -liberty``:
the sum of instance cell areas).  The two live on different scales
and count different things — Eq. 12 includes routing tracks and
feed-throughs, the Liberty sum is active cell area only — so a single
per-library *correction factor* relates them, exactly the
``YosysAreaCalculator`` pattern of multiplying a raw cell-area sum by
a fitted overhead (its ``pdn_margin``, a power-grid allowance, is the
configurable ``--pdn-margin`` here).

``mae calibrate`` fits the factor by least squares over the committed
golden corpus (``tests/fixtures/frontend/``): minimise
``sum((ref - f * est)^2)`` giving ``f = sum(est*ref) / sum(est^2)``,
then records the per-design residual band as the *stated accuracy* of
the calibrated frontend.  The result is committed as the ``frontend``
envelope record (:class:`repro.verify.envelope.Envelope`,
``VERIFY_frontend_envelope.json``) and gated by
``mae verify --check frontend_accuracy``: if parser, estimator, or
fixtures drift so that the refitted factor moves or a residual leaves
the committed band, the gate fails with a reviewable diff.

Everything here is hermetic — the reference areas come from the
committed toy ``.lib``, not from a ``yosys`` binary; the nightly CI
job swaps in real synthesis output for the same pipeline.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.errors import FrontendError
from repro.netlist.model import Module
from repro.technology.process import ProcessDatabase

if TYPE_CHECKING:
    from repro.verify.envelope import Bounds, Envelope

#: Default power-grid / overhead allowance multiplied onto the Liberty
#: cell-area sum before fitting (the SNIPPETS ``pdn_margin``).
DEFAULT_PDN_MARGIN = 1.4

#: Absolute residual slack added around the measured band when the
#: envelope is committed, so the gate tolerates new fixtures of the
#: same character without refitting.
DEFAULT_SLACK = 0.05

#: Environment override for the fixture directory.
FIXTURES_ENV = "MAE_FRONTEND_FIXTURES"


def fixtures_root() -> Path:
    """The golden-fixture directory (``$MAE_FRONTEND_FIXTURES`` wins,
    else the committed ``tests/fixtures/frontend/``)."""
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "fixtures" / (
        "frontend"
    )


def default_envelope_path() -> Path:
    """Where the committed accuracy artifact lives (repo root)."""
    return Path(__file__).resolve().parents[3] / (
        "VERIFY_frontend_envelope.json"
    )


def fixture_blifs(root: Optional[Union[str, Path]] = None) -> List[Path]:
    """The committed golden BLIF designs, sorted by name."""
    root = Path(root) if root is not None else fixtures_root()
    if not root.is_dir():
        raise FrontendError(
            f"frontend fixture directory {root} does not exist "
            f"(set ${FIXTURES_ENV} to relocate it)"
        )
    paths = sorted(root.glob("*.blif"))
    if not paths:
        raise FrontendError(f"no .blif fixtures under {root}")
    return paths


def fixture_liberty(root: Optional[Union[str, Path]] = None) -> Path:
    """The committed toy Liberty library next to the BLIF fixtures."""
    root = Path(root) if root is not None else fixtures_root()
    paths = sorted(root.glob("*.lib"))
    if len(paths) != 1:
        raise FrontendError(
            f"expected exactly one .lib under {root}, found {len(paths)}"
        )
    return paths[0]


def reference_area(
    module: Module, library, pdn_margin: float = DEFAULT_PDN_MARGIN
) -> float:
    """Ground-truth area: Liberty cell-area sum times the PDN margin
    (identical to ``yosys stat -liberty`` chip area times the margin,
    but computable without a binary)."""
    if pdn_margin <= 0:
        raise FrontendError(
            f"pdn margin must be positive, got {pdn_margin}"
        )
    return library.module_area(module) * pdn_margin


def estimated_area(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> float:
    """The estimator's standard-cell area (square lambda) through the
    canonical facade path."""
    from repro.core.estimator import ModuleAreaEstimator

    record = ModuleAreaEstimator(process, config).estimate(
        module, ("standard-cell",)
    )
    return record.standard_cell.area


def fit_correction_factor(
    pairs: Iterable[Tuple[float, float]]
) -> float:
    """Least-squares scalar fit of reference = f * estimate.

    Minimises ``sum((ref - f*est)^2)`` over (estimate, reference)
    pairs: ``f = sum(est*ref) / sum(est^2)``.
    """
    num = 0.0
    den = 0.0
    count = 0
    for estimate, reference in pairs:
        num += estimate * reference
        den += estimate * estimate
        count += 1
    if count == 0 or den <= 0.0:
        raise FrontendError(
            "cannot fit a correction factor: no cases with a positive "
            "estimated area"
        )
    return num / den


def measure_frontend_envelope(
    root: Optional[Union[str, Path]] = None,
    process: Optional[ProcessDatabase] = None,
    pdn_margin: float = DEFAULT_PDN_MARGIN,
    slack: float = DEFAULT_SLACK,
    bounds: Optional[Bounds] = None,
) -> Envelope:
    """Fit the correction factor over the golden corpus and build the
    ``frontend`` envelope record.

    With ``bounds`` (the committed record's bounds), each case is gated
    against them; without, the residual band is *derived* from the
    measured residuals widened by ``slack`` — the calibration mode that
    produces the artifact to commit.
    """
    from repro.frontend.blif import parse_blif
    from repro.frontend.liberty import read_liberty
    from repro.verify.envelope import Envelope

    if process is None:
        from repro.technology.libraries import cmos_process

        process = cmos_process()
    if slack < 0:
        raise FrontendError(f"slack must be >= 0, got {slack}")
    library = read_liberty(fixture_liberty(root))
    cases: List[Tuple[str, Module, float, float]] = []
    for path in fixture_blifs(root):
        module = parse_blif(path.read_text(), str(path))
        cases.append((
            path.stem,
            module,
            estimated_area(module, process),
            reference_area(module, library, pdn_margin),
        ))
    factor = fit_correction_factor(
        (estimate, reference) for _, _, estimate, reference in cases
    )
    points = [
        {
            "label": design,
            "methodology": "standard-cell",
            "devices": module.device_count,
            "estimated": estimate,       # estimator area (square lambda)
            "reference": reference,      # Liberty sum * pdn_margin (um^2)
            "residual": factor * estimate / reference - 1.0,
        }
        for design, module, estimate, reference in cases
    ]
    if bounds is None:
        residuals = [point["residual"] for point in points]
        bounds = {"standard-cell": {
            "residual": (min(residuals) - slack, max(residuals) + slack),
        }}
    return Envelope.build(
        "frontend", bounds, points,
        {
            "fixtures": [design for design, _, _, _ in cases],
            "library": library.name,
            "processes": {"standard-cell": process.name},
            "pdn_margin": pdn_margin,
            "slack": slack,
        },
        factor=factor,
    )
