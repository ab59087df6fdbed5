"""Channel routing by the left-edge algorithm.

Input: one trunk interval per net, plus the pin columns on the top and
bottom channel walls.  Output: a track for every net.

Two modes:

* **Unconstrained** (default) — the classic Hashimoto-Stevens left-edge
  algorithm: sort by left edge, first-fit into tracks.  For interval
  graphs this is optimal, producing exactly *density* tracks.  This is
  the mode the standard-cell flow uses for area: it gives the best
  (smallest) achievable channel height, making the reproduced Table 2
  overestimates conservative.
* **Constrained** — respects the vertical constraint graph (VCG): when
  a top pin and a bottom pin of different nets share a column, the top
  net's trunk must lie above the bottom net's.  Tracks are filled
  top-down; a net is eligible once all its VCG predecessors are placed.
  VCG *cycles* (which real routers break with doglegs) are resolved by
  granting the blocked net a fresh track and counting a
  ``constraint_violations`` — the area effect of a dogleg without the
  wire split.

:func:`route_channel_dogleg` additionally implements the classic
Deutsch full-dogleg transformation: every multi-pin net is split at
its internal pin columns into two-pin segments before constrained
routing, which breaks VCG cycles structurally and usually lowers the
track count on constrained channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import LayoutError
from repro.layout.geometry import Interval, interval_density


@dataclass(frozen=True)
class ChannelNet:
    """One net's appearance in one channel."""

    name: str
    interval: Interval
    top_columns: Tuple[float, ...] = ()
    bottom_columns: Tuple[float, ...] = ()


@dataclass
class ChannelResult:
    """Track assignment for one channel."""

    tracks: int
    density: int
    assignment: Dict[str, int] = field(default_factory=dict)  # net -> track
    constraint_violations: int = 0

    def validate(self, nets: Sequence[ChannelNet]) -> "ChannelResult":
        """Assert no two nets on one track overlap (router invariant)."""
        by_track: Dict[int, List[ChannelNet]] = {}
        for net in nets:
            track = self.assignment[net.name]
            by_track.setdefault(track, []).append(net)
        for track, members in by_track.items():
            members.sort(key=lambda net: net.interval.left)
            for left, right in zip(members, members[1:]):
                if left.interval.overlaps(right.interval):
                    raise LayoutError(
                        f"track {track}: nets {left.name!r} and "
                        f"{right.name!r} overlap"
                    )
        return self


def route_channel(
    nets: Sequence[ChannelNet],
    constrained: bool = False,
    column_tolerance: float = 1e-6,
) -> ChannelResult:
    """Route one channel; see module docstring for the two modes."""
    _check_unique(nets)
    if not nets:
        return ChannelResult(tracks=0, density=0)
    density = interval_density(net.interval for net in nets)
    if constrained:
        result = _route_constrained(nets, column_tolerance)
    else:
        result = _route_left_edge(nets)
    result.density = density
    return result.validate(nets)


# ----------------------------------------------------------------------
# unconstrained left-edge
# ----------------------------------------------------------------------
def _route_left_edge(nets: Sequence[ChannelNet]) -> ChannelResult:
    ordered = sorted(nets, key=lambda net: (net.interval.left,
                                            net.interval.right))
    track_rightmost: List[float] = []
    assignment: Dict[str, int] = {}
    for net in ordered:
        placed = False
        for track, rightmost in enumerate(track_rightmost):
            if net.interval.left > rightmost:
                track_rightmost[track] = net.interval.right
                assignment[net.name] = track
                placed = True
                break
        if not placed:
            track_rightmost.append(net.interval.right)
            assignment[net.name] = len(track_rightmost) - 1
    return ChannelResult(tracks=len(track_rightmost), density=0,
                         assignment=assignment)


# ----------------------------------------------------------------------
# constrained left-edge with VCG
# ----------------------------------------------------------------------
def _route_constrained(
    nets: Sequence[ChannelNet], tolerance: float
) -> ChannelResult:
    predecessors = _vertical_constraints(nets, tolerance)
    unplaced: Dict[str, ChannelNet] = {net.name: net for net in nets}
    assignment: Dict[str, int] = {}
    violations = 0
    track = 0
    while unplaced:
        eligible = [
            net for name, net in unplaced.items()
            if not (predecessors[name] & set(unplaced))
        ]
        if not eligible:
            # VCG cycle: free the net with the fewest live predecessors
            # (a dogleg would split it; we charge a dedicated track).
            victim_name = min(
                unplaced,
                key=lambda name: (len(predecessors[name] & set(unplaced)),
                                  name),
            )
            assignment[victim_name] = track
            del unplaced[victim_name]
            violations += 1
            track += 1
            continue
        eligible.sort(key=lambda net: (net.interval.left,
                                       net.interval.right))
        rightmost = float("-inf")
        for net in eligible:
            if net.interval.left > rightmost:
                assignment[net.name] = track
                rightmost = net.interval.right
                del unplaced[net.name]
        track += 1
    return ChannelResult(tracks=track, density=0, assignment=assignment,
                         constraint_violations=violations)


def _vertical_constraints(
    nets: Sequence[ChannelNet], tolerance: float
) -> Dict[str, Set[str]]:
    """predecessors[b] = nets that must be placed above net b."""
    predecessors: Dict[str, Set[str]] = {net.name: set() for net in nets}
    columns: List[Tuple[float, str, str]] = []  # (x, side, net)
    for net in nets:
        for x in net.top_columns:
            columns.append((x, "top", net.name))
        for x in net.bottom_columns:
            columns.append((x, "bottom", net.name))
    columns.sort(key=lambda item: item[0])
    index = 0
    while index < len(columns):
        # Group pins sharing (within tolerance) one column.
        x = columns[index][0]
        group = [columns[index]]
        index += 1
        while index < len(columns) and columns[index][0] - x <= tolerance:
            group.append(columns[index])
            index += 1
        tops = {name for _, side, name in group if side == "top"}
        bottoms = {name for _, side, name in group if side == "bottom"}
        for top_net in tops:
            for bottom_net in bottoms:
                if top_net != bottom_net:
                    predecessors[bottom_net].add(top_net)
    return predecessors


@dataclass
class DoglegResult:
    """Track assignment after Deutsch full-dogleg splitting."""

    tracks: int
    density: int
    #: net -> ordered (segment interval, track) pairs
    segments: Dict[str, List[Tuple[Interval, int]]] = field(
        default_factory=dict
    )
    constraint_violations: int = 0

    def tracks_of(self, net: str) -> Tuple[int, ...]:
        return tuple(track for _, track in self.segments.get(net, []))


def route_channel_dogleg(
    nets: Sequence[ChannelNet],
    column_tolerance: float = 1e-6,
) -> DoglegResult:
    """Constrained routing with Deutsch full-dogleg splitting.

    Each net is cut at every internal pin column into consecutive
    segments; the segments are routed as independent constrained nets.
    Adjacent segments share their cut column, where the vertical jog
    (the dogleg) connects them.
    """
    _check_unique(nets)
    if not nets:
        return DoglegResult(tracks=0, density=0)

    pieces: List[ChannelNet] = []
    piece_owner: Dict[str, Tuple[str, int]] = {}
    for net in nets:
        for index, piece in enumerate(_split_at_pins(net)):
            piece_owner[piece.name] = (net.name, index)
            pieces.append(piece)

    routed = _route_constrained(pieces, column_tolerance)
    segments: Dict[str, List[Tuple[Interval, int]]] = {}
    by_piece = {piece.name: piece for piece in pieces}
    for piece_name, track in routed.assignment.items():
        owner, index = piece_owner[piece_name]
        segments.setdefault(owner, []).append(
            (by_piece[piece_name].interval, track)
        )
    for owner in segments:
        segments[owner].sort(key=lambda item: item[0].left)

    result = DoglegResult(
        tracks=routed.tracks,
        density=interval_density(net.interval for net in nets),
        segments=segments,
        constraint_violations=routed.constraint_violations,
    )
    _validate_dogleg(result)
    return result


def _split_at_pins(net: ChannelNet) -> List[ChannelNet]:
    """Cut a net's trunk at its internal pin columns."""
    columns = sorted(set(net.top_columns) | set(net.bottom_columns))
    interior = [
        x for x in columns
        if net.interval.left < x < net.interval.right
    ]
    boundaries = (
        [net.interval.left] + interior + [net.interval.right]
    )
    if len(boundaries) < 2:
        boundaries = [net.interval.left, net.interval.right]
    pieces: List[ChannelNet] = []
    last = len(boundaries) - 2
    for index in range(len(boundaries) - 1):
        left, right = boundaries[index], boundaries[index + 1]
        # Half-open pin ownership [left, right): each pin belongs to
        # exactly one segment, so a constraint at a cut column binds
        # only the segment actually carrying the pin — this is what
        # dissolves VCG cycles.  The last segment owns its right end.
        def owns(x: float, is_last: bool = index == last) -> bool:
            return left <= x < right or (is_last and x == right)

        tops = tuple(x for x in net.top_columns if owns(x))
        bottoms = tuple(x for x in net.bottom_columns if owns(x))
        pieces.append(
            ChannelNet(
                name=f"{net.name}#{index}",
                interval=Interval(left, right),
                top_columns=tops,
                bottom_columns=bottoms,
            )
        )
    return pieces


def _validate_dogleg(result: DoglegResult) -> None:
    """No two segments on one track may overlap in their interiors.

    Consecutive segments of one net share their cut column by
    construction, so the overlap test here uses open intervals.
    """
    by_track: Dict[int, List[Tuple[str, Interval]]] = {}
    for net, entries in result.segments.items():
        for interval, track in entries:
            by_track.setdefault(track, []).append((net, interval))
    for track, members in by_track.items():
        members.sort(key=lambda item: item[1].left)
        for (name_a, a), (name_b, b) in zip(members, members[1:]):
            if a.right > b.left + 1e-12 and name_a != name_b:
                raise LayoutError(
                    f"dogleg track {track}: segments of {name_a!r} and "
                    f"{name_b!r} overlap"
                )


def _check_unique(nets: Sequence[ChannelNet]) -> None:
    seen: Set[str] = set()
    for net in nets:
        if net.name in seen:
            raise LayoutError(
                f"net {net.name!r} appears twice in one channel; merge its "
                "intervals first"
            )
        seen.add(net.name)
