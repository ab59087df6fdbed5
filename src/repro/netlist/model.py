"""In-memory circuit representation.

A :class:`Module` is the unit the estimator works on: the paper estimates
area "of small to moderate-sized modules" which are later composed by a
chip floor planner.  A module owns:

* :class:`Port` objects — its external connections (the paper's
  "input and output ports", which drive aspect-ratio estimation),
* :class:`Device` objects — instances of library cells or transistors,
* :class:`Net` objects — the electrical nodes connecting device pins and
  ports.

The model is deliberately flat (no hierarchy): the paper's estimator runs
per-module, and hierarchical designs are handled by estimating each leaf
module and handing the results to the floor planner.
"""

from __future__ import annotations

import enum
import numbers
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import NetlistError


class PortDirection(enum.Enum):
    """Direction of a module port."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


@dataclass(frozen=True)
class Port:
    """An external connection point of a module.

    ``width_lambda`` is the length of layout edge the port's wire stub
    consumes; the aspect-ratio control criterion of Section 5 requires
    that all ports fit along one module edge.  When zero, the technology
    default port pitch is used at estimation time.
    """

    name: str
    direction: PortDirection = PortDirection.INPUT
    net: str = ""
    width_lambda: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("port name must be non-empty")
        if self.width_lambda < 0:
            raise NetlistError(
                f"port {self.name!r}: width_lambda must be >= 0, "
                f"got {self.width_lambda}"
            )


@dataclass(frozen=True)
class PinConnection:
    """One (device, pin) endpoint of a net."""

    device: str
    pin: str


#: Largest device dimension accepted: the largest float, so every
#: dimension converts to a finite float.
_MAX_DIMENSION = sys.float_info.max


@dataclass(frozen=True)
class Device:
    """An instance of a library cell or a transistor.

    ``cell`` names a device type in the technology database (e.g.
    ``"NAND2"`` for standard cells, ``"nmos_enh"`` for transistors).
    ``pins`` maps pin names to net names.  ``width_lambda`` /
    ``height_lambda`` optionally override the library dimensions, which
    full-custom transistor sizing needs.

    Devices are frozen, so a device's cell and size cannot change
    behind its module's :attr:`Module.revision`; the owning
    :class:`Module` alone edits ``pins``, through its mutators.
    """

    name: str
    cell: str
    pins: Dict[str, str] = field(default_factory=dict)
    width_lambda: Optional[float] = None
    height_lambda: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("device name must be non-empty")
        if not self.cell:
            raise NetlistError(f"device {self.name!r}: cell type must be non-empty")
        for dim_name, dim in (("width_lambda", self.width_lambda),
                              ("height_lambda", self.height_lambda)):
            if dim is not None and (
                isinstance(dim, bool) or not isinstance(dim, numbers.Real)
                or not 0 < dim <= _MAX_DIMENSION
            ):
                raise NetlistError(
                    f"device {self.name!r}: {dim_name} must be positive "
                    f"and finite, got {dim!r}"
                )

    @property
    def nets(self) -> Tuple[str, ...]:
        """Net names this device touches, in pin order."""
        return tuple(self.pins.values())


@dataclass
class Net:
    """An electrical node.

    ``connections`` are (device, pin) endpoints; ``ports`` are names of
    module ports on the net.  The paper's parameter *D* — "the number of
    components in a net" — is :attr:`component_count`: the number of
    distinct devices attached (ports do not occupy row positions).
    """

    name: str
    connections: List[PinConnection] = field(default_factory=list)
    ports: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("net name must be non-empty")

    @property
    def component_count(self) -> int:
        """The paper's D: number of distinct devices on the net."""
        return len({conn.device for conn in self.connections})

    @property
    def pin_count(self) -> int:
        """Total pin endpoints, counting multiple pins of one device."""
        return len(self.connections)

    @property
    def is_external(self) -> bool:
        """Whether the net reaches a module port."""
        return bool(self.ports)

    def devices(self) -> Tuple[str, ...]:
        """Distinct device names on the net, in first-seen order."""
        seen: Dict[str, None] = {}
        for conn in self.connections:
            seen.setdefault(conn.device, None)
        return tuple(seen)


class Module:
    """A flat circuit module: ports, devices, and nets.

    Mutation goes through :meth:`add_port`, :meth:`add_device`,
    :meth:`connect` and the ECO edits below, which maintain the
    net-connection indices and bump :attr:`revision`; direct
    dictionary manipulation is not supported.
    """

    def __init__(self, name: str):
        if not name:
            raise NetlistError("module name must be non-empty")
        self.name = name
        self._ports: Dict[str, Port] = {}
        self._devices: Dict[str, Device] = {}
        self._nets: Dict[str, Net] = {}
        #: Edit counter: +1 per successful mutator call, so a cache can
        #: tell an unedited module from an edited one without rescanning.
        self.revision = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(self, port: Port) -> Port:
        """Add an external port, creating/joining its net."""
        if port.name in self._ports:
            raise NetlistError(f"module {self.name!r}: duplicate port {port.name!r}")
        net_name = port.net or port.name
        port = Port(port.name, port.direction, net_name, port.width_lambda)
        self._ports[port.name] = port
        net = self._nets.setdefault(net_name, Net(net_name))
        net.ports.append(port.name)
        self.revision += 1
        return port

    def add_device(self, device: Device) -> Device:
        """Add a device instance and register its pin connections."""
        if device.name in self._devices:
            raise NetlistError(
                f"module {self.name!r}: duplicate device {device.name!r}"
            )
        self._devices[device.name] = device
        for pin, net_name in device.pins.items():
            net = self._nets.setdefault(net_name, Net(net_name))
            net.connections.append(PinConnection(device.name, pin))
        self.revision += 1
        return device

    def connect(self, device_name: str, pin: str, net_name: str) -> None:
        """Attach one more pin of an existing device to a net."""
        device = self._devices.get(device_name)
        if device is None:
            raise NetlistError(
                f"module {self.name!r}: unknown device {device_name!r}"
            )
        if pin in device.pins:
            raise NetlistError(
                f"module {self.name!r}: device {device_name!r} pin {pin!r} "
                "is already connected"
            )
        device.pins[pin] = net_name
        net = self._nets.setdefault(net_name, Net(net_name))
        net.connections.append(PinConnection(device_name, pin))
        self.revision += 1

    # ------------------------------------------------------------------
    # mutation (ECO-style edits; see repro.incremental)
    # ------------------------------------------------------------------
    def remove_device(self, name: str) -> Device:
        """Remove a device and all of its pin connections.

        Nets left with neither connections nor ports are dropped, so a
        fresh scan of the mutated module never sees orphaned nets.
        Returns the removed device (its pins still name the nets it was
        attached to, which incremental bookkeeping needs).
        """
        device = self._devices.pop(name, None)
        if device is None:
            raise NetlistError(
                f"module {self.name!r}: unknown device {name!r}"
            )
        for net_name in set(device.pins.values()):
            net = self._nets[net_name]
            net.connections = [
                conn for conn in net.connections if conn.device != name
            ]
            self._drop_net_if_empty(net_name)
        self.revision += 1
        return device

    def disconnect(self, device_name: str, pin: str) -> str:
        """Detach one pin of a device from its net; returns the net name."""
        device = self.device(device_name)
        net_name = device.pins.pop(pin, None)
        if net_name is None:
            raise NetlistError(
                f"module {self.name!r}: device {device_name!r} has no "
                f"pin {pin!r}"
            )
        net = self._nets[net_name]
        net.connections = [
            conn for conn in net.connections
            if not (conn.device == device_name and conn.pin == pin)
        ]
        self._drop_net_if_empty(net_name)
        self.revision += 1
        return net_name

    def merge_nets(self, keep: str, absorb: str) -> Net:
        """Merge net ``absorb`` into net ``keep`` (short them together).

        Every pin and port of ``absorb`` is re-attached to ``keep`` and
        ``absorb`` disappears.  Returns the surviving net.
        """
        if keep == absorb:
            raise NetlistError(
                f"module {self.name!r}: cannot merge net {keep!r} with itself"
            )
        keep_net = self.net(keep)
        absorb_net = self.net(absorb)
        for conn in absorb_net.connections:
            self._devices[conn.device].pins[conn.pin] = keep
            keep_net.connections.append(conn)
        for port_name in absorb_net.ports:
            port = self._ports[port_name]
            self._ports[port_name] = Port(
                port.name, port.direction, keep, port.width_lambda
            )
            keep_net.ports.append(port_name)
        del self._nets[absorb]
        self.revision += 1
        return keep_net

    def split_net(
        self,
        source: str,
        new_name: str,
        endpoints: Iterable[Tuple[str, str]],
    ) -> Net:
        """Move the given (device, pin) endpoints of ``source`` onto a
        new net ``new_name`` (cut the net in two).

        ``endpoints`` must be a non-empty subset of the source net's
        connections; ports stay on the source net.  Returns the new net.
        """
        if new_name in self._nets:
            raise NetlistError(
                f"module {self.name!r}: net {new_name!r} already exists"
            )
        net = self.net(source)
        moving = set(endpoints)
        if not moving:
            raise NetlistError(
                f"module {self.name!r}: split of net {source!r} moves "
                "no endpoints"
            )
        present = {(conn.device, conn.pin) for conn in net.connections}
        missing = moving - present
        if missing:
            raise NetlistError(
                f"module {self.name!r}: net {source!r} has no endpoint(s) "
                f"{sorted(missing)}"
            )
        new_net = Net(new_name)
        remaining = []
        for conn in net.connections:
            if (conn.device, conn.pin) in moving:
                new_net.connections.append(conn)
                self._devices[conn.device].pins[conn.pin] = new_name
            else:
                remaining.append(conn)
        net.connections = remaining
        self._nets[new_name] = new_net
        self._drop_net_if_empty(source)
        self.revision += 1
        return new_net

    def copy(self) -> "Module":
        """An independent structural clone (same ports, devices, nets).

        Connection order within a net follows device insertion order in
        the clone, which is invisible to the scan statistics (net sizes
        count *distinct* devices).
        """
        clone = Module(self.name)
        for port in self._ports.values():
            clone.add_port(port)
        for device in self._devices.values():
            clone.add_device(Device(
                device.name, device.cell, dict(device.pins),
                device.width_lambda, device.height_lambda,
            ))
        return clone

    def _drop_net_if_empty(self, net_name: str) -> None:
        net = self._nets.get(net_name)
        if net is not None and not net.connections and not net.ports:
            del self._nets[net_name]

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def ports(self) -> Tuple[Port, ...]:
        return tuple(self._ports.values())

    @property
    def devices(self) -> Tuple[Device, ...]:
        return tuple(self._devices.values())

    @property
    def nets(self) -> Tuple[Net, ...]:
        return tuple(self._nets.values())

    @property
    def device_count(self) -> int:
        """The paper's N."""
        return len(self._devices)

    @property
    def net_count(self) -> int:
        """The paper's H."""
        return len(self._nets)

    @property
    def port_count(self) -> int:
        return len(self._ports)

    def port(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise NetlistError(
                f"module {self.name!r}: unknown port {name!r}"
            ) from None

    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise NetlistError(
                f"module {self.name!r}: unknown device {name!r}"
            ) from None

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(
                f"module {self.name!r}: unknown net {name!r}"
            ) from None

    def has_net(self, name: str) -> bool:
        return name in self._nets

    def has_device(self, name: str) -> bool:
        return name in self._devices

    def iter_signal_nets(
        self, power_names: Iterable[str] = ("vdd", "vss", "gnd", "vcc")
    ) -> Iterator[Net]:
        """Nets excluding power/ground rails.

        Power rails run inside standard-cell rows and do not consume
        routing tracks, so the estimator skips them.  Matching is
        case-insensitive on the whole net name.
        """
        skip = {p.lower() for p in power_names}
        for net in self._nets.values():
            if net.name.lower() not in skip:
                yield net

    def cell_usage(self) -> Dict[str, int]:
        """Map of cell type -> instance count (the paper's X_i by type)."""
        usage: Dict[str, int] = {}
        for device in self._devices.values():
            usage[device.cell] = usage.get(device.cell, 0) + 1
        return usage

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, devices={self.device_count}, "
            f"nets={self.net_count}, ports={self.port_count})"
        )
