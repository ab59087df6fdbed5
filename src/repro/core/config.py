"""Estimator configuration.

Every modelling choice the paper leaves implicit — and every deliberate
deviation documented in DESIGN.md §3 — is a field here, defaulting to
the paper's published behaviour.  :func:`scan_for` is the schematic
scan under a config's scan signature: every estimator scans through it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import EstimationError
from repro.netlist.model import Module
from repro.netlist.stats import DEFAULT_POWER_NETS, ModuleStatistics, scan_module
from repro.obs.trace import current_tracer
from repro.technology.process import ProcessDatabase

#: Net-span modes for the full-custom per-net area (Eq. 13):
#: "span" matches Table 1's footnote (two-component nets contribute no
#: wire area); "literal" implements the sentence of Section 4.2.
NET_SPAN_MODES = ("span", "literal")

#: Device-area modes for full-custom estimation: "exact" per-device
#: areas, "average" uses N * W_avg * h_avg (both columns of Table 1).
DEVICE_AREA_MODES = ("exact", "average")

FEEDTHROUGH_MODELS = ("two-component", "general")

#: Track models: "upper-bound" is the paper's one-net-per-track count
#: (optionally scaled by track_sharing_factor); "shared" is the
#: analytic expected-density model of repro.core.sharing, implementing
#: the paper's Section 7 future work.
TRACK_MODELS = ("upper-bound", "shared")

#: Largest row count an estimate takes.  No layout comes near it, and
#: it bounds the numpy backend's log-factorial table (one float per
#: row) and keeps every row count within float range.
ROW_COUNT_LIMIT = 10_000


#: The numeric fields of :class:`EstimatorConfig` and their kinds, and
#: those of them that may be ``None``.
_NUMERIC_FIELDS = (
    ("rows", numbers.Integral), ("max_rows", numbers.Integral),
    ("track_sharing_factor", numbers.Real),
    ("congestion_margin", numbers.Real),
    ("port_pitch_override", numbers.Real), ("max_aspect", numbers.Real),
)
_OPTIONAL_FIELDS = ("rows", "port_pitch_override")


def _require_number(name: str, value, kind) -> None:
    """:class:`EstimationError` unless ``value`` is a finite number of
    ``kind`` (``numbers.Integral`` or ``numbers.Real``); a ``bool`` is
    not a number here, a NumPy scalar is."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, kind)
              and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        noun = "integer" if kind is numbers.Integral else "number"
        raise EstimationError(
            f"{name} must be a finite {noun}, got {value!r}"
        )


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for both estimators.

    Attributes
    ----------
    rows:
        Standard-cell row count.  ``None`` (default) runs the Section 5
        initial-row algorithm driven by the port-length criterion.
    max_rows:
        Safety bound for the row-selection loop.
    row_spread_mode:
        ``"paper"`` (Eq. 2 with exponent k = min(n, D), renormalised) or
        ``"exact"`` (true multinomial).
    feedthrough_model:
        ``"two-component"`` uses Eq. 9's P = (n-1)^2/(2n^2) for every
        net (the paper's simplification); ``"general"`` evaluates Eq. 8
        per net size D.
    track_sharing_factor:
        Multiplier (0 < f <= 1) applied to the expected track count.
        1.0 reproduces the paper's "each routing track only contains
        one signal net" upper bound; the A1 ablation lowers it to model
        the track sharing the paper names as its overestimation cause.
    track_model:
        ``"upper-bound"`` (the paper) or ``"shared"`` — the analytic
        expected-density model of :mod:`repro.core.sharing`
        (Section 7 future work).  ``track_sharing_factor`` applies only
        to the upper-bound model.
    congestion_margin:
        Peak-over-mean channel density ratio for the shared model.
    net_span_mode / device_area_mode:
        Full-custom modelling choices, see module constants.
    port_pitch_override:
        Edge length per port in lambda; ``None`` uses the process value.
    power_nets:
        Net names excluded from routing statistics.
    max_aspect:
        The paper notes estimates are chosen "in the range from 1:1 to
        1:2"; the full-custom aspect algorithm widens beyond this only
        when ports demand it.
    """

    rows: Optional[int] = None
    max_rows: int = 64
    row_spread_mode: str = "paper"
    feedthrough_model: str = "two-component"
    track_sharing_factor: float = 1.0
    track_model: str = "upper-bound"
    congestion_margin: float = 1.25
    net_span_mode: str = "span"
    device_area_mode: str = "exact"
    port_pitch_override: Optional[float] = None
    power_nets: Tuple[str, ...] = DEFAULT_POWER_NETS
    max_aspect: float = 2.0

    def __post_init__(self) -> None:
        # Types first, so the range checks below compare numbers (a
        # JSON body may carry 2.5, true, NaN or Infinity anywhere).
        for name, kind in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is not None or name not in _OPTIONAL_FIELDS:
                _require_number(name, value, kind)
        for name in ("rows", "max_rows"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= ROW_COUNT_LIMIT:
                raise EstimationError(
                    f"{name} must be in 1..{ROW_COUNT_LIMIT}, got {value}"
                )
        if self.row_spread_mode not in ("paper", "exact"):
            raise EstimationError(
                f"unknown row_spread_mode {self.row_spread_mode!r}"
            )
        if self.feedthrough_model not in FEEDTHROUGH_MODELS:
            raise EstimationError(
                f"unknown feedthrough_model {self.feedthrough_model!r}"
            )
        if not 0.0 < self.track_sharing_factor <= 1.0:
            raise EstimationError(
                "track_sharing_factor must be in (0, 1], got "
                f"{self.track_sharing_factor}"
            )
        if self.track_model not in TRACK_MODELS:
            raise EstimationError(
                f"unknown track_model {self.track_model!r} "
                f"(expected one of {TRACK_MODELS})"
            )
        if self.congestion_margin < 1.0:
            raise EstimationError(
                f"congestion_margin must be >= 1, got "
                f"{self.congestion_margin}"
            )
        if self.net_span_mode not in NET_SPAN_MODES:
            raise EstimationError(
                f"unknown net_span_mode {self.net_span_mode!r}"
            )
        if self.device_area_mode not in DEVICE_AREA_MODES:
            raise EstimationError(
                f"unknown device_area_mode {self.device_area_mode!r}"
            )
        if self.port_pitch_override is not None and self.port_pitch_override <= 0:
            raise EstimationError(
                "port_pitch_override must be positive, got "
                f"{self.port_pitch_override}"
            )
        if self.max_aspect < 1.0:
            raise EstimationError(
                f"max_aspect must be >= 1, got {self.max_aspect}"
            )

    def with_rows(self, rows: Optional[int]) -> "EstimatorConfig":
        """Copy with a fixed row count (row-sweep studies); ``self``
        when the row count is already ``rows`` (configs are frozen, and
        ``estimate_batch`` keys its held plans by ``with_rows(None)``)."""
        if rows == self.rows:
            return self
        return replace(self, rows=rows)

    def with_(self, **changes) -> "EstimatorConfig":
        """General copy-with-changes helper."""
        return replace(self, **changes)


def scan_for(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> ModuleStatistics:
    """The schematic scan under ``config``'s scan signature: the
    process's device geometry, ``port_pitch_override`` (else the
    process port pitch) and ``power_nets``.

    Every estimator scans through here, so the signature is written
    once, and a traced scan records one ``scan`` span (``module``,
    ``devices``, ``nets``) and counts ``scan.modules``.
    """
    config = config or EstimatorConfig()
    tracer = current_tracer()
    with tracer.span("scan") as span:
        stats = scan_module(
            module,
            device_width=process.device_width,
            device_height=process.device_height,
            port_width=config.port_pitch_override or process.port_pitch,
            power_nets=config.power_nets,
        )
        if tracer.enabled:
            span.set("module", stats.module_name)
            span.set("devices", stats.device_count)
            span.set("nets", stats.net_count)
            tracer.metrics.incr("scan.modules")
    return stats
