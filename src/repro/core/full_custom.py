"""Full-custom module area estimation (Section 4.2, Eq. 13).

"We calculate the minimum interconnection area for each net, instead of
each wire, because we cannot compute exact wire lengths."  Each net is
modelled as a two-row arrangement of its components with a one-track
routing channel between the rows:

* channel *width* (height) = one routing-track pitch,
* channel *length* = the span of ceil(D/2) components placed in a row.

Table 1's footnote — "All nets in this module were two-component nets,
and therefore contributed nothing to wire area" — pins down the length
convention: two facing components abut across the channel and the wire
between them has zero length, i.e. the span is ``(ceil(D/2) - 1)`` cell
pitches (``net_span_mode="span"``, the default).  The literal sentence
of Section 4.2 ("the module length is half of the device row length")
gives ``ceil(D/2)`` pitches and is available as
``net_span_mode="literal"``.

Total area (Eq. 13)::

    area = device_area + sum_j A_j

where ``device_area`` uses exact per-device footprints
(``device_area_mode="exact"``) or the average-device approximation
``N * W_avg * h_avg`` (``"average"``) — the two estimate columns of
Table 1.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.aspect import full_custom_dimensions
from repro.core.config import EstimatorConfig, scan_for
from repro.core.results import FullCustomEstimate
from repro.errors import EstimationError
from repro.netlist.model import Module, Net
from repro.netlist.stats import ModuleStatistics
from repro.obs.trace import current_tracer
from repro.technology.process import ProcessDatabase


def estimate_full_custom(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    stats: Optional["ModuleStatistics"] = None,
) -> FullCustomEstimate:
    """Estimate full-custom layout area for a module.

    ``stats`` lets batch callers reuse one schematic scan across
    several configurations; when omitted the module is scanned here.
    """
    config = config or EstimatorConfig()
    if module.device_count == 0:
        raise EstimationError(
            f"module {module.name!r}: cannot estimate an empty module"
        )
    if stats is None:
        stats = scan_for(module, process, config)

    tracer = current_tracer()
    with tracer.span("fc.estimate") as span:
        if config.device_area_mode == "exact":
            device_area = stats.total_device_area
        else:
            device_area = (
                stats.device_count * stats.average_width * stats.average_height
            )

        net_areas: List[Tuple[str, float]] = []
        wire_area = 0.0
        net_count = 0
        with tracer.span("fc.net_areas"):
            for net in module.iter_signal_nets(config.power_nets):
                net_count += 1
                area = net_interconnection_area(net, module, process, config,
                                                stats.average_width)
                if area > 0.0:
                    net_areas.append((net.name, area))
                    wire_area += area

        total_area = device_area + wire_area
        width, height = full_custom_dimensions(
            total_area, stats.total_port_width, config.max_aspect
        )
        if tracer.enabled:
            span.set("module", stats.module_name)
            span.set("wire_area", wire_area)
            metrics = tracer.metrics
            metrics.incr("fc.estimates")
            metrics.incr("fc.nets", net_count)
            metrics.incr("fc.wire_area", wire_area)
    return FullCustomEstimate(
        module_name=module.name,
        device_area_mode=config.device_area_mode,
        device_area=device_area,
        wire_area=wire_area,
        area=total_area,
        width=width,
        height=height,
        net_areas=tuple(net_areas),
    )


def estimate_full_custom_both(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    stats: Optional[ModuleStatistics] = None,
) -> Tuple[FullCustomEstimate, FullCustomEstimate]:
    """Both Table 1 estimate columns: (exact areas, average areas).

    "This minimum area estimation is first performed using exact device
    areas and again performed using the average device area."  Both
    share one scan (``stats``, or one taken here).
    """
    config = config or EstimatorConfig()
    if stats is None:
        stats = scan_for(module, process, config)
    exact = estimate_full_custom(
        module, process, config.with_(device_area_mode="exact"), stats
    )
    average = estimate_full_custom(
        module, process, config.with_(device_area_mode="average"), stats
    )
    return exact, average


def net_interconnection_area(
    net: Net,
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    average_width: Optional[float] = None,
) -> float:
    """Minimum interconnection area A_j for one net (Section 4.2).

    Components are split between two facing rows; the channel between
    them is one track tall and spans the longer row.  The cell pitch is
    the mean width of the net's own components in "exact" mode, or the
    module-wide W_avg in "average" mode.
    """
    config = config or EstimatorConfig()
    components = net.component_count
    if components <= 1:
        return 0.0

    half = math.ceil(components / 2)
    if config.net_span_mode == "span":
        span_cells = half - 1
    else:
        span_cells = half
    if span_cells <= 0:
        return 0.0

    if config.device_area_mode == "exact" or average_width is None:
        widths = [
            process.device_width(module.device(name))
            for name in net.devices()
        ]
        pitch = sum(widths) / len(widths)
    else:
        pitch = average_width

    return process.track_pitch * span_cells * pitch
