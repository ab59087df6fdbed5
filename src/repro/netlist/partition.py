"""Kernighan-Lin netlist bipartitioning.

Floor planning starts with partitioning: "the chip is partitioned into
large modules which are laid out independently" (Section 1).  This
module provides the classic Kernighan-Lin (KL) min-cut bipartitioner
over the device/net graph, used by

* :mod:`repro.netlist.metrics` to estimate a module's Rent exponent
  (recursive bisection, counting cut nets per level), and
* users who need to split an oversized module before estimating it
  ("the estimator works well for small and moderate-sized modules, but
  is not intended for area estimation of entire chips").

The implementation is the standard O(passes * V^2)-ish KL with
hyperedge cut counting: a net is cut iff it touches both sides.
Deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.errors import NetlistError
from repro.netlist.model import Module
from repro.netlist.stats import DEFAULT_POWER_NETS


@dataclass(frozen=True)
class Bipartition:
    """Result of one bisection."""

    left: FrozenSet[str]
    right: FrozenSet[str]
    cut_nets: Tuple[str, ...]

    @property
    def cut_size(self) -> int:
        return len(self.cut_nets)

    @property
    def balance(self) -> float:
        """|left| / total — 0.5 is perfectly balanced."""
        total = len(self.left) + len(self.right)
        return len(self.left) / total if total else 0.0


def bipartition(
    module: Module,
    seed: int = 0,
    passes: int = 8,
    power_nets: Sequence[str] = DEFAULT_POWER_NETS,
) -> Bipartition:
    """Split a module's devices into two balanced halves minimising the
    number of cut nets (Kernighan-Lin with hyperedge gains)."""
    devices = [d.name for d in module.devices]
    if len(devices) < 2:
        raise NetlistError(
            f"module {module.name!r}: need at least 2 devices to partition"
        )
    nets: List[Tuple[str, Tuple[str, ...]]] = [
        (net.name, net.devices())
        for net in module.iter_signal_nets(power_nets)
        if net.component_count >= 2
    ]
    device_nets: Dict[str, List[int]] = {name: [] for name in devices}
    for index, (_, members) in enumerate(nets):
        for name in members:
            device_nets[name].append(index)

    rng = random.Random(seed)
    order = list(devices)
    rng.shuffle(order)
    half = len(order) // 2
    side: Dict[str, int] = {}
    for index, name in enumerate(order):
        side[name] = 0 if index < half else 1

    for _ in range(passes):
        if not _kl_pass(order, side, nets, device_nets):
            break

    left = frozenset(name for name in devices if side[name] == 0)
    right = frozenset(name for name in devices if side[name] == 1)
    cut = tuple(
        name for name, members in nets
        if _is_cut(members, side)
    )
    return Bipartition(left=left, right=right, cut_nets=cut)


def cut_size(module: Module, left: Set[str],
             power_nets: Sequence[str] = DEFAULT_POWER_NETS) -> int:
    """Number of signal nets crossing the given device split."""
    count = 0
    for net in module.iter_signal_nets(power_nets):
        members = net.devices()
        if len(members) < 2:
            continue
        sides = {name in left for name in members}
        if len(sides) == 2:
            count += 1
    return count


# ----------------------------------------------------------------------
# KL machinery
# ----------------------------------------------------------------------
def _is_cut(members: Tuple[str, ...], side: Dict[str, int]) -> bool:
    first = side[members[0]]
    return any(side[name] != first for name in members[1:])


def _move_gain(
    name: str,
    side: Dict[str, int],
    nets: List[Tuple[str, Tuple[str, ...]]],
    device_nets: Dict[str, List[int]],
) -> int:
    """Cut-size reduction if ``name`` switches sides."""
    gain = 0
    my_side = side[name]
    for net_index in device_nets[name]:
        members = nets[net_index][1]
        same = sum(1 for m in members if side[m] == my_side)
        other = len(members) - same
        if other == 0:
            gain -= 1          # net becomes cut
        elif same == 1:
            gain += 1          # this device was the only one here
    return gain


def _kl_pass(
    devices: List[str],
    side: Dict[str, int],
    nets: List[Tuple[str, Tuple[str, ...]]],
    device_nets: Dict[str, List[int]],
) -> bool:
    """One KL improvement pass: greedy swap sequence, keep best prefix.

    Returns True if the pass improved the cut.
    """
    locked: Set[str] = set()
    sequence: List[Tuple[str, str]] = []
    gains: List[int] = []

    working = dict(side)
    for _ in range(len(devices) // 2):
        left_pool = [d for d in devices
                     if working[d] == 0 and d not in locked]
        right_pool = [d for d in devices
                      if working[d] == 1 and d not in locked]
        if not left_pool or not right_pool:
            break
        best_left = max(
            left_pool,
            key=lambda d: _move_gain(d, working, nets, device_nets),
        )
        working[best_left] = 1
        best_right = max(
            right_pool,
            key=lambda d: _move_gain(d, working, nets, device_nets),
        )
        working[best_right] = 0

        # Cumulative gain of the swap sequence so far, measured exactly
        # as the cut-size delta against the pass's starting partition.
        sequence.append((best_left, best_right))
        locked.update((best_left, best_right))
        gains.append(_cut_of(nets, side) - _cut_of(nets, working))

    if not gains:
        return False
    best_prefix = max(range(len(gains)), key=lambda i: gains[i])
    if gains[best_prefix] <= 0:
        return False
    for left_name, right_name in sequence[: best_prefix + 1]:
        side[left_name] = 1
        side[right_name] = 0
    return True


def _cut_of(nets: List[Tuple[str, Tuple[str, ...]]],
            side: Dict[str, int]) -> int:
    return sum(1 for _, members in nets if _is_cut(members, side))
