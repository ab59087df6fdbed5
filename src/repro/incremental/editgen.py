"""Random ECO edit sequences for testing and benchmarking.

:func:`random_mutation` inspects the live module and draws one *valid*
edit — it only names devices, pins, and nets that exist, so applying
the result never raises.  :func:`generate_edit_sequence` chains draws
into a replayable sequence by applying each edit to a private clone as
it goes (later edits may reference nets earlier edits created).

Determinism: both functions are pure in (module structure, seed) —
fresh device/net names are drawn from counters, not from entropy — so
a recorded seed replays the identical sequence.  New devices reuse
cell types already instantiated in the module, which keeps every edit
resolvable against whatever technology the module was built for.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from repro.errors import NetlistError
from repro.incremental.mutations import (
    AddDevice,
    ConnectTerminal,
    DisconnectTerminal,
    MergeNets,
    Mutation,
    RemoveDevice,
    SplitNet,
)
from repro.netlist.model import Module, Net
from repro.netlist.stats import DEFAULT_POWER_NETS

#: Draw weights: connectivity edits dominate (the common ECO), with
#: structural adds/removes and net surgery mixed in.
EDIT_KINDS = (
    "add_device", "add_device",
    "remove_device",
    "connect", "connect",
    "disconnect", "disconnect",
    "merge_nets",
    "split_net",
)

#: Keep at least this many devices so a sequence never empties the
#: module (empty modules are rejected by the estimator by design).
MIN_DEVICES = 2


def random_mutation(
    module: Module,
    rng: random.Random,
    power_nets: Iterable[str] = DEFAULT_POWER_NETS,
) -> Mutation:
    """One valid random edit against the module's current state.

    Kinds that are inapplicable right now (e.g. ``merge_nets`` with a
    single signal net) are redrawn; ``add_device`` is always possible,
    so the draw terminates.
    """
    power = {p.lower() for p in power_nets}
    for _ in range(16):
        kind = rng.choice(EDIT_KINDS)
        mutation = _DRAWERS[kind](module, rng, power)
        if mutation is not None:
            return mutation
    return _draw_add(module, rng, power)


def generate_edit_sequence(
    module: Module,
    count: int,
    seed: int = 0,
    power_nets: Iterable[str] = DEFAULT_POWER_NETS,
) -> List[Mutation]:
    """A replayable sequence of ``count`` valid edits.

    The input module is not modified; each edit is validated by
    applying it to an internal clone so the next draw sees the evolved
    netlist.
    """
    if count < 0:
        raise NetlistError(f"edit count must be >= 0, got {count}")
    rng = random.Random(seed)
    scratch = module.copy()
    sequence: List[Mutation] = []
    for _ in range(count):
        mutation = random_mutation(scratch, rng, power_nets)
        mutation.apply(scratch)
        sequence.append(mutation)
    return sequence


# ----------------------------------------------------------------------
# per-kind drawers: return None when the kind is inapplicable
# ----------------------------------------------------------------------
def _draw_add(module: Module, rng: random.Random, power) -> AddDevice:
    cells = sorted(module.cell_usage()) or ["INV"]
    cell = rng.choice(cells)
    pins = {}
    for index in range(rng.randint(2, 3)):
        pins[f"p{index}"] = _pick_net_name(module, rng, power)
    return AddDevice.make(_fresh_device_name(module), cell, pins)


def _draw_remove(module: Module, rng: random.Random,
                 power) -> Optional[RemoveDevice]:
    if module.device_count <= MIN_DEVICES:
        return None
    names = sorted(device.name for device in module.devices)
    return RemoveDevice(rng.choice(names))


def _draw_connect(module: Module, rng: random.Random,
                  power) -> Optional[ConnectTerminal]:
    if module.device_count == 0:
        return None
    names = sorted(device.name for device in module.devices)
    device = module.device(rng.choice(names))
    pin = _fresh_pin_name(device.pins)
    return ConnectTerminal(device.name, pin,
                           _pick_net_name(module, rng, power))


def _draw_disconnect(module: Module, rng: random.Random,
                     power) -> Optional[DisconnectTerminal]:
    candidates = sorted(
        (device.name, pin)
        for device in module.devices
        for pin in device.pins
    )
    if not candidates:
        return None
    device_name, pin = rng.choice(candidates)
    return DisconnectTerminal(device_name, pin)


def _draw_merge(module: Module, rng: random.Random,
                power) -> Optional[MergeNets]:
    names = _signal_net_names(module, power)
    if len(names) < 2:
        return None
    keep, absorb = rng.sample(names, 2)
    return MergeNets(keep, absorb)


def _draw_split(module: Module, rng: random.Random,
                power) -> Optional[SplitNet]:
    splittable = [
        net for net in module.nets
        if net.name.lower() not in power and len(net.connections) >= 2
    ]
    if not splittable:
        return None
    net: Net = rng.choice(sorted(splittable, key=lambda n: n.name))
    endpoints = sorted((conn.device, conn.pin) for conn in net.connections)
    move_count = rng.randint(1, len(endpoints) - 1)
    moving = rng.sample(endpoints, move_count)
    return SplitNet(net.name, _fresh_net_name(module), tuple(sorted(moving)))


_DRAWERS = {
    "add_device": _draw_add,
    "remove_device": _draw_remove,
    "connect": _draw_connect,
    "disconnect": _draw_disconnect,
    "merge_nets": _draw_merge,
    "split_net": _draw_split,
}


def _signal_net_names(module: Module, power) -> List[str]:
    return sorted(
        net.name for net in module.nets if net.name.lower() not in power
    )


def _pick_net_name(module: Module, rng: random.Random, power) -> str:
    """An existing signal net usually; occasionally a brand-new one."""
    names = _signal_net_names(module, power)
    if not names or rng.random() < 0.2:
        return _fresh_net_name(module)
    return rng.choice(names)


def _fresh_device_name(module: Module) -> str:
    index = module.device_count
    while module.has_device(f"eco_d{index}"):
        index += 1
    return f"eco_d{index}"


def _fresh_net_name(module: Module) -> str:
    index = module.net_count
    while module.has_net(f"eco_n{index}"):
        index += 1
    return f"eco_n{index}"


def _fresh_pin_name(pins) -> str:
    index = len(pins)
    while f"p{index}" in pins:
        index += 1
    return f"p{index}"
