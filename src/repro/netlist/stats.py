"""The schematic scan: extract the estimator's inputs from a module.

Section 4 of the paper: "The inputs to the estimation task are N (the
number of devices), W_i (individual device widths), and H (the number of
nets).  A scan of the circuit schematic ... will produce these values."

:func:`scan_module` performs that scan.  Geometry (device widths and
heights) lives in the technology database, so the scan accepts resolver
callables; this keeps :mod:`repro.netlist` free of a dependency on
:mod:`repro.technology` (the estimator facade wires the two together).

The resulting :class:`ModuleStatistics` carries every symbol used by the
paper's equations:

* ``device_count`` — N
* ``net_count`` — H (signal nets only; power rails excluded)
* ``width_histogram`` — (W_i, X_i) pairs: distinct widths and their
  instance counts
* ``average_width`` — W_avg of Eq. 1
* ``net_size_histogram`` — (D, y_D) pairs: net component counts and the
  number of nets of each size
* ``total_device_area`` / ``average_device_height`` — the active-cell
  area terms of Eqs. 12/13.

Canonical aggregation
---------------------

Every float aggregate is computed by :func:`weighted_total` — a sum
over the **sorted** value histogram, never over devices in netlist
order.  Sorting makes the summation order a function of the histogram
*content* alone, so any two code paths that agree on the histograms
produce bit-identical floats.  That property is what lets the
incremental engine (:mod:`repro.incremental`) maintain the histograms
under netlist edits in O(affected nets) and still guarantee results
field-for-field equal to a from-scratch rescan:
:func:`build_statistics` is the single constructor both paths call.

Statistics are immutable snapshots compared by content: two snapshots
with equal fields are interchangeable, whichever path or netlist
revision produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import EstimationError
from repro.netlist.model import Device, Module

#: Resolves one device to a physical dimension in lambda.
DimensionResolver = Callable[[Device], float]

#: Net names treated as power/ground and excluded from routing statistics.
DEFAULT_POWER_NETS: Tuple[str, ...] = ("vdd", "vss", "gnd", "vcc", "vbb")


@dataclass(frozen=True)
class ModuleStatistics:
    """Aggregate quantities the area-estimation equations consume."""

    module_name: str
    device_count: int
    net_count: int
    port_count: int
    width_histogram: Tuple[Tuple[float, int], ...]
    net_size_histogram: Tuple[Tuple[int, int], ...]
    average_width: float
    average_height: float
    total_device_area: float
    total_port_width: float
    max_net_size: int

    @property
    def distinct_width_count(self) -> int:
        """The paper's k: number of distinct device widths."""
        return len(self.width_histogram)

    @property
    def multi_component_nets(self) -> Tuple[Tuple[int, int], ...]:
        """Net-size histogram restricted to nets with >= 2 components.

        Single-component nets need no inter-row routing and contribute
        neither tracks nor feed-throughs.
        """
        return tuple((d, y) for d, y in self.net_size_histogram if d >= 2)

    @property
    def routed_net_count(self) -> int:
        """Number of nets that can demand routing resources."""
        return sum(y for _, y in self.multi_component_nets)

    def describe(self) -> str:
        """One-paragraph human-readable summary for reports."""
        sizes = ", ".join(f"{y} nets of D={d}" for d, y in self.net_size_histogram)
        return (
            f"module {self.module_name}: N={self.device_count} devices, "
            f"H={self.net_count} nets, {self.port_count} ports; "
            f"W_avg={self.average_width:.2f} lambda, "
            f"device area={self.total_device_area:.0f} lambda^2; "
            f"net sizes: {sizes or 'none'}"
        )


def weighted_total(histogram: Mapping[float, int]) -> float:
    """The canonical order-independent weighted sum of a histogram.

    ``sum(value * count)`` over entries **sorted by value**.  Every
    float aggregate in :class:`ModuleStatistics` is computed this way,
    so the result depends only on the histogram content — never on the
    order devices appear in the netlist.  The incremental engine relies
    on this: maintaining the histogram and re-running this sum
    reproduces a from-scratch scan bit for bit.
    """
    return sum(value * count for value, count in sorted(histogram.items()))


def resolve_dimensions(
    device: Device,
    device_width: Optional[DimensionResolver] = None,
    device_height: Optional[DimensionResolver] = None,
) -> Tuple[float, float]:
    """(width, height) of one device in lambda, honouring per-device
    overrides first, then the resolvers (exactly the scan's rules)."""
    width = _resolve(device, device.width_lambda, device_width, "width")
    height = _resolve(device, device.height_lambda, device_height, "height")
    return width, height


def effective_port_width(port, default: float) -> float:
    """A port's edge length: its own width when declared, else the
    technology default pitch."""
    return port.width_lambda if port.width_lambda > 0 else default


def build_statistics(
    module_name: str,
    device_count: int,
    port_count: int,
    width_histogram: Mapping[float, int],
    height_histogram: Mapping[float, int],
    area_histogram: Mapping[float, int],
    net_size_histogram: Mapping[int, int],
    port_width_histogram: Mapping[float, int],
) -> ModuleStatistics:
    """Assemble a :class:`ModuleStatistics` from value histograms.

    This is the single constructor behind both :func:`scan_module` and
    the incremental engine; every derived float goes through
    :func:`weighted_total`, so two callers that agree on the histograms
    get bit-identical statistics.
    """
    if device_count:
        average_width = weighted_total(width_histogram) / device_count
        average_height = weighted_total(height_histogram) / device_count
    else:
        average_width = 0.0
        average_height = 0.0
    sizes = {size: count for size, count in net_size_histogram.items() if count}
    return ModuleStatistics(
        module_name=module_name,
        device_count=device_count,
        net_count=sum(sizes.values()),
        port_count=port_count,
        width_histogram=tuple(sorted(
            (w, x) for w, x in width_histogram.items() if x
        )),
        net_size_histogram=tuple(sorted(sizes.items())),
        average_width=average_width,
        average_height=average_height,
        total_device_area=weighted_total(area_histogram),
        total_port_width=weighted_total(port_width_histogram),
        max_net_size=max(sizes) if sizes else 0,
    )


def scan_module(
    module: Module,
    device_width: Optional[DimensionResolver] = None,
    device_height: Optional[DimensionResolver] = None,
    port_width: float = 8.0,
    power_nets: Iterable[str] = DEFAULT_POWER_NETS,
) -> ModuleStatistics:
    """Scan a module and compute the estimation inputs.

    ``device_width`` / ``device_height`` resolve library geometry; when
    omitted, every device must carry explicit ``width_lambda`` /
    ``height_lambda`` overrides.  ``port_width`` (lambda) is used for
    ports that do not declare their own width.
    """
    widths: Dict[float, int] = {}
    heights: Dict[float, int] = {}
    areas: Dict[float, int] = {}
    for device in module.devices:
        width, height = resolve_dimensions(device, device_width, device_height)
        widths[width] = widths.get(width, 0) + 1
        heights[height] = heights.get(height, 0) + 1
        area = width * height
        areas[area] = areas.get(area, 0) + 1

    net_sizes: Dict[int, int] = {}
    for net in module.iter_signal_nets(power_nets):
        size = net.component_count
        if size == 0:
            # Port-only net: no devices to place, nothing to route.
            continue
        net_sizes[size] = net_sizes.get(size, 0) + 1

    port_widths: Dict[float, int] = {}
    for port in module.ports:
        width = effective_port_width(port, port_width)
        port_widths[width] = port_widths.get(width, 0) + 1

    return build_statistics(
        module_name=module.name,
        device_count=module.device_count,
        port_count=module.port_count,
        width_histogram=widths,
        height_histogram=heights,
        area_histogram=areas,
        net_size_histogram=net_sizes,
        port_width_histogram=port_widths,
    )


def net_size_counts(module: Module,
                    power_nets: Iterable[str] = DEFAULT_POWER_NETS) -> Mapping[int, int]:
    """Convenience: the (D -> y_D) mapping alone."""
    stats = scan_module(
        module,
        device_width=lambda d: d.width_lambda or 1.0,
        device_height=lambda d: d.height_lambda or 1.0,
        power_nets=power_nets,
    )
    return dict(stats.net_size_histogram)


def _resolve(
    device: Device,
    override: Optional[float],
    resolver: Optional[DimensionResolver],
    kind: str,
) -> float:
    if override is not None:
        return override
    if resolver is not None:
        value = resolver(device)
        if value <= 0:
            raise EstimationError(
                f"device {device.name!r} ({device.cell}): resolver returned "
                f"non-positive {kind} {value}"
            )
        return value
    raise EstimationError(
        f"device {device.name!r} ({device.cell}) has no {kind}: supply a "
        f"device_{kind} resolver or per-device {kind}_lambda"
    )
