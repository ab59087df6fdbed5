"""End-to-end standard-cell layout flow — the TimberWolf stand-in.

place -> insert feed-throughs -> global route -> channel route -> area.

The resulting :class:`StandardCellLayout` supplies the "Real" columns
of Table 2: the routed track count (*with* track sharing), module
height/width, total area, and aspect ratio, for direct comparison with
:func:`repro.core.standard_cell.estimate_standard_cell`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import EstimatorConfig
from repro.errors import LayoutError
from repro.layout.annealing import AnnealingSchedule
from repro.layout.placement.row_placer import Placement, place_module
from repro.layout.routing.channel import ChannelResult, route_channel
from repro.layout.routing.feedthrough import insert_feedthroughs
from repro.layout.routing.global_route import global_route
from repro.netlist.model import Module
from repro.technology.process import ProcessDatabase
from repro.units import normalized_aspect


@dataclass
class StandardCellLayout:
    """A routed standard-cell module layout."""

    module_name: str
    rows: int
    width: float                 # longest row incl. feed-throughs (lambda)
    height: float                # rows + routed channels (lambda)
    area: float                  # lambda^2
    tracks: int                  # total routed tracks over all channels
    total_density: int           # sum of channel densities (lower bound)
    feedthroughs: int            # total feed-through cells inserted
    feedthroughs_by_row: Dict[int, int] = field(default_factory=dict)
    channel_tracks: Dict[int, int] = field(default_factory=dict)
    wirelength: float = 0.0
    placement: Optional[Placement] = None

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height

    @property
    def normalized_aspect(self) -> float:
        return normalized_aspect(self.width, self.height)


def layout_standard_cell(
    module: Module,
    process: ProcessDatabase,
    rows: int,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    config: Optional[EstimatorConfig] = None,
    constrained_routing: bool = False,
    route_ports: bool = True,
    keep_placement: bool = False,
) -> StandardCellLayout:
    """Produce a real (placed and routed) standard-cell layout.

    ``constrained_routing`` enables vertical-constraint-aware channel
    routing; the default left-edge mode yields density-optimal channels
    and therefore the smallest defensible "real" area.  ``route_ports``
    extends external nets to the module boundary (real flows route I/O
    to the edge; disable for a pure internal-routing comparison).
    """
    if rows < 1:
        raise LayoutError(f"rows must be >= 1, got {rows}")
    rng = random.Random(seed)
    placement, anneal_result = place_module(
        module, process, rows, rng, schedule, config
    )
    routed, feedthrough_counts = insert_feedthroughs(placement, process)
    external = (
        {
            net.name
            for net in module.iter_signal_nets(
                (config or EstimatorConfig()).power_nets
            )
            if net.is_external and net.name in routed.nets
        }
        if route_ports
        else set()
    )
    assignment = global_route(routed, external)

    channel_tracks: Dict[int, int] = {}
    total_tracks = 0
    total_density = 0
    for channel in range(rows + 1):
        nets = assignment.channel_nets(channel)
        result: ChannelResult = route_channel(nets, constrained_routing)
        channel_tracks[channel] = result.tracks
        total_tracks += result.tracks
        total_density += result.density

    width = routed.width
    height = rows * process.row_height + total_tracks * process.track_pitch
    return StandardCellLayout(
        module_name=module.name,
        rows=rows,
        width=width,
        height=height,
        area=width * height,
        tracks=total_tracks,
        total_density=total_density,
        feedthroughs=sum(feedthrough_counts.values()),
        feedthroughs_by_row=feedthrough_counts,
        channel_tracks=channel_tracks,
        wirelength=anneal_result.best_energy,
        placement=routed if keep_placement else None,
    )
