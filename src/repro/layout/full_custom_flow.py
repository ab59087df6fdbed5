"""Full-custom layout simulator — the manual-layout stand-in.

Table 1 compares estimates against layouts hand-crafted from Newkirk &
Mathews' library.  Those layouts are unavailable, so this flow plays
the experienced designer:

1. **Connectivity ordering** — breadth-first traversal of the device
   adjacency (devices sharing a net are neighbours), so strongly
   connected devices end up physically adjacent, as a human would draw
   them.
2. **Shelf packing** — devices are packed left-to-right into shelves of
   a near-square target width (skyline simplified to shelves, which
   matches the row-of-transistors style of Mead-Conway-era manual
   layouts).
3. **Annealed improvement** — optional simulated-annealing pass over
   the ordering, minimising net half-perimeter wirelength.
4. **Wiring area** — each multi-device net charges its half-perimeter
   wirelength times the routing pitch; the packed bounding box is
   inflated uniformly to absorb the total wiring area, because a
   manual layout interleaves wires with devices rather than appending
   a routing region.

The output is deterministic for a given seed and produced by machinery
entirely independent of the estimator's equations — the property that
makes the Table 1 comparison meaningful.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import EstimatorConfig
from repro.errors import LayoutError
from repro.layout.annealing import AnnealingSchedule, anneal
from repro.layout.geometry import Rect, bounding_box, half_perimeter
from repro.netlist.model import Module
from repro.technology.process import ProcessDatabase
from repro.units import normalized_aspect


@dataclass
class FullCustomLayout:
    """A packed full-custom module layout."""

    module_name: str
    width: float               # final (wiring-inflated) dimensions, lambda
    height: float
    area: float                # lambda^2
    device_area: float         # sum of device footprints
    packed_area: float         # shelf-packing bounding box
    wire_area: float           # sum over nets of hpwl * pitch
    wirelength: float          # total net half-perimeter (lambda)
    device_rects: Dict[str, Rect] = field(default_factory=dict)

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height

    @property
    def normalized_aspect(self) -> float:
        return normalized_aspect(self.width, self.height)

    @property
    def packing_efficiency(self) -> float:
        """Device area over packed bounding-box area."""
        if self.packed_area == 0:
            return 0.0
        return self.device_area / self.packed_area

    def validate(self) -> "FullCustomLayout":
        """No two devices may overlap (packing invariant)."""
        rects = list(self.device_rects.items())
        for index, (name_a, rect_a) in enumerate(rects):
            for name_b, rect_b in rects[index + 1:]:
                if rect_a.overlaps(rect_b):
                    raise LayoutError(
                        f"layout {self.module_name!r}: devices {name_a!r} "
                        f"and {name_b!r} overlap"
                    )
        return self


def layout_full_custom(
    module: Module,
    process: ProcessDatabase,
    seed: int = 0,
    anneal_ordering: bool = True,
    schedule: Optional[AnnealingSchedule] = None,
    config: Optional[EstimatorConfig] = None,
    wire_over_active_fraction: float = 0.7,
) -> FullCustomLayout:
    """Produce a "manual-quality" full-custom layout of a module.

    ``wire_over_active_fraction`` calibrates the oracle's wiring model:
    the fraction of total wirelength routed *over* active devices
    (diffusion, poly, and metal all cross transistors in nMOS
    Mead-Conway layouts) and therefore consuming no extra area.  Only
    the remainder inflates the packed bounding box.
    """
    config = config or EstimatorConfig()
    if not 0.0 <= wire_over_active_fraction < 1.0:
        raise LayoutError(
            "wire_over_active_fraction must be in [0, 1), got "
            f"{wire_over_active_fraction}"
        )
    if module.device_count == 0:
        raise LayoutError(f"module {module.name!r} has no devices")

    names = [device.name for device in module.devices]
    sizes = {
        device.name: (
            process.device_width(device),
            process.device_height(device),
        )
        for device in module.devices
    }
    nets = [
        tuple(net.devices())
        for net in module.iter_signal_nets(config.power_nets)
        if net.component_count >= 2
    ]

    order = _connectivity_order(names, nets)
    device_area = sum(w * h for w, h in sizes.values())
    target_width = _target_width(sizes.values(), device_area)

    if anneal_ordering and len(order) >= 3:
        state = _OrderingState(order, sizes, nets, target_width)
        if schedule is None:
            moves = max(60, 6 * len(order))
            schedule = AnnealingSchedule(moves_per_stage=moves, stages=40,
                                         cooling=0.88)
        anneal(state, schedule, random.Random(seed))
        order = list(state.order)

    # A careful designer avoids ragged rows: re-pack the annealed
    # ordering at several candidate widths and keep the smallest result.
    best: Optional[Tuple[float, Dict[str, Rect], Rect, float, float]] = None
    for width in _candidate_widths(sizes.values(), target_width):
        rects = _shelf_pack(order, sizes, width)
        box = bounding_box(rects.values())
        wirelength = 0.0
        for net in nets:
            wirelength += half_perimeter(rects[name].center for name in net)
        wire_area = (
            wirelength
            * process.track_pitch
            * (1.0 - wire_over_active_fraction)
        )
        total_area = box.area + wire_area
        if best is None or total_area < best[0]:
            best = (total_area, rects, box, wire_area, wirelength)

    total_area, rects, box, wire_area, wirelength = best
    packed_area = box.area
    inflation = math.sqrt(total_area / packed_area) if packed_area else 1.0
    return FullCustomLayout(
        module_name=module.name,
        width=box.width * inflation,
        height=box.height * inflation,
        area=total_area,
        device_area=device_area,
        packed_area=packed_area,
        wire_area=wire_area,
        wirelength=wirelength,
        device_rects=rects,
    ).validate()


def _candidate_widths(sizes, target_width: float) -> List[float]:
    """Packing widths to try: the target plus nearby whole-row splits."""
    total_width = sum(width for width, _ in sizes)
    widest = max(width for width, _ in sizes)
    candidates = {target_width}
    base_rows = max(1, round(total_width / target_width))
    for rows in (base_rows - 1, base_rows, base_rows + 1, base_rows + 2):
        if rows >= 1:
            # Tiny slack absorbs floating error so exactly-full rows fit.
            candidates.add(max(total_width / rows * 1.001, widest))
    return sorted(candidates)


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
def _connectivity_order(
    names: Sequence[str], nets: Sequence[Tuple[str, ...]]
) -> List[str]:
    """BFS over the device adjacency graph, highest-degree seed first."""
    adjacency: Dict[str, set] = {name: set() for name in names}
    for net in nets:
        for a in net:
            for b in net:
                if a != b:
                    adjacency[a].add(b)

    remaining = set(names)
    order: List[str] = []
    while remaining:
        seed = max(remaining, key=lambda name: (len(adjacency[name]), name))
        queue = deque([seed])
        remaining.discard(seed)
        while queue:
            current = queue.popleft()
            order.append(current)
            neighbours = sorted(
                adjacency[current] & remaining,
                key=lambda name: (-len(adjacency[name]), name),
            )
            for neighbour in neighbours:
                remaining.discard(neighbour)
                queue.append(neighbour)
    return order


# ----------------------------------------------------------------------
# shelf packing
# ----------------------------------------------------------------------
def _target_width(
    sizes, device_area: float, slack: float = 1.08
) -> float:
    """Near-square target: sqrt of the padded device area, at least as
    wide as the widest device."""
    widest = max(width for width, _ in sizes)
    return max(math.sqrt(device_area * slack), widest)


def _shelf_pack(
    order: Sequence[str],
    sizes: Dict[str, Tuple[float, float]],
    target_width: float,
) -> Dict[str, Rect]:
    """Pack devices in order into shelves of the target width."""
    rects: Dict[str, Rect] = {}
    x = 0.0
    y = 0.0
    shelf_height = 0.0
    for name in order:
        width, height = sizes[name]
        if x > 0 and x + width > target_width:
            y += shelf_height
            x = 0.0
            shelf_height = 0.0
        rects[name] = Rect(x, y, width, height)
        x += width
        shelf_height = max(shelf_height, height)
    return rects


# ----------------------------------------------------------------------
# ordering annealer
# ----------------------------------------------------------------------
class _OrderingState:
    """Annealing state over the packing order; energy = total HPWL."""

    def __init__(
        self,
        order: Sequence[str],
        sizes: Dict[str, Tuple[float, float]],
        nets: Sequence[Tuple[str, ...]],
        target_width: float,
    ):
        self.order = list(order)
        self.sizes = sizes
        self.nets = nets
        self.target_width = target_width
        self._energy = self._compute_energy()

    def energy(self) -> float:
        return self._energy

    def propose(self, rng: random.Random) -> Tuple[int, int, float]:
        i, j = rng.sample(range(len(self.order)), 2)
        self.order[i], self.order[j] = self.order[j], self.order[i]
        previous = self._energy
        self._energy = self._compute_energy()
        return (i, j, previous)

    def undo(self, token: Tuple[int, int, float]) -> None:
        i, j, previous = token
        self.order[i], self.order[j] = self.order[j], self.order[i]
        self._energy = previous

    def snapshot(self) -> List[str]:
        return list(self.order)

    def restore(self, snap: List[str]) -> None:
        self.order = list(snap)
        self._energy = self._compute_energy()

    def _compute_energy(self) -> float:
        rects = _shelf_pack(self.order, self.sizes, self.target_width)
        total = 0.0
        for net in self.nets:
            total += half_perimeter(rects[name].center for name in net)
        return total
