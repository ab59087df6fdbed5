"""First-class netlist edits (ECO mutations).

An engineering change order arrives as a sequence of small edits to an
otherwise-finished netlist: add or remove a device, connect or
disconnect one terminal, short two nets together, or cut one net in
two.  Each edit is a frozen :class:`Mutation` dataclass that knows how
to apply itself to a :class:`~repro.netlist.model.Module` and how to
round-trip through JSON, so edit sequences can be saved, replayed
(``mae eco``), and shrunk when a differential check fails.

The six kinds mirror the module's mutation API one-to-one:

==================  =============================================
``add_device``      :meth:`Module.add_device`
``remove_device``   :meth:`Module.remove_device`
``connect``         :meth:`Module.connect`
``disconnect``      :meth:`Module.disconnect`
``merge_nets``      :meth:`Module.merge_nets`
``split_net``       :meth:`Module.split_net`
==================  =============================================

File format: ``{"schema_version": 1, "edits": [{"op": ..., ...}]}``.
Malformed files and edit dicts raise :class:`MutationError`.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, List, Sequence, Tuple, Type

from repro.errors import MutationError
from repro.netlist.model import Device, Module

#: Version stamp of the on-disk edits format.
EDITS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Mutation:
    """Base class for all netlist edits.

    Subclasses set :attr:`kind` (the JSON ``op`` tag) and implement
    :meth:`apply`, which performs the edit on a live module — raising
    :class:`~repro.errors.NetlistError` when the module rejects it.
    """

    kind = ""

    def apply(self, module: Module) -> None:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict with the ``op`` discriminator first."""
        record: Dict[str, Any] = {"op": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item
                         for item in value]
            record[spec.name] = value
        return record


@dataclass(frozen=True)
class AddDevice(Mutation):
    """Instantiate a new device with the given pin-to-net map."""

    name: str
    cell: str
    pins: Tuple[Tuple[str, str], ...] = ()
    width_lambda: Any = None
    height_lambda: Any = None

    kind = "add_device"

    @classmethod
    def make(cls, name: str, cell: str, pins: Dict[str, str],
             width_lambda=None, height_lambda=None) -> "AddDevice":
        """Build from a pin mapping (order preserved)."""
        return cls(name, cell, tuple(pins.items()),
                   width_lambda, height_lambda)

    def device(self) -> Device:
        return Device(self.name, self.cell, dict(self.pins),
                      self.width_lambda, self.height_lambda)

    def apply(self, module: Module) -> None:
        module.add_device(self.device())


@dataclass(frozen=True)
class RemoveDevice(Mutation):
    """Delete a device and every connection it holds."""

    name: str

    kind = "remove_device"

    def apply(self, module: Module) -> None:
        module.remove_device(self.name)


@dataclass(frozen=True)
class ConnectTerminal(Mutation):
    """Attach one more pin of an existing device to a net."""

    device: str
    pin: str
    net: str

    kind = "connect"

    def apply(self, module: Module) -> None:
        module.connect(self.device, self.pin, self.net)


@dataclass(frozen=True)
class DisconnectTerminal(Mutation):
    """Detach one pin of a device from whatever net it is on."""

    device: str
    pin: str

    kind = "disconnect"

    def apply(self, module: Module) -> None:
        module.disconnect(self.device, self.pin)


@dataclass(frozen=True)
class MergeNets(Mutation):
    """Short net ``absorb`` onto net ``keep``; ``absorb`` disappears."""

    keep: str
    absorb: str

    kind = "merge_nets"

    def apply(self, module: Module) -> None:
        module.merge_nets(self.keep, self.absorb)


@dataclass(frozen=True)
class SplitNet(Mutation):
    """Cut the given (device, pin) endpoints of ``net`` onto ``new_net``."""

    net: str
    new_net: str
    endpoints: Tuple[Tuple[str, str], ...] = ()

    kind = "split_net"

    def apply(self, module: Module) -> None:
        module.split_net(self.net, self.new_net, self.endpoints)


MUTATION_KINDS: Dict[str, Type[Mutation]] = {
    cls.kind: cls
    for cls in (AddDevice, RemoveDevice, ConnectTerminal,
                DisconnectTerminal, MergeNets, SplitNet)
}


def mutation_from_dict(record: Any) -> Mutation:
    """Decode one edit dict (as produced by :meth:`Mutation.to_dict`)."""
    if not isinstance(record, dict):
        raise MutationError(f"edit must be an object, got {type(record).__name__}")
    op = record.get("op")
    cls = MUTATION_KINDS.get(op) if isinstance(op, str) else None
    if cls is None:
        raise MutationError(
            f"unknown edit op {op!r} (expected one of "
            f"{sorted(MUTATION_KINDS)})"
        )
    kwargs: Dict[str, Any] = {}
    for spec in fields(cls):
        if spec.name not in record:
            if spec.default is not MISSING:
                continue
            raise MutationError(f"edit op {op!r}: missing field {spec.name!r}")
        value = record[spec.name]
        if spec.name in ("pins", "endpoints"):
            value = _pair_tuple(op, spec.name, value)
        elif spec.type == "str" and not isinstance(value, str):
            raise MutationError(
                f"edit op {op!r}: {spec.name} must be a string, got "
                f"{type(value).__name__}"
            )
        kwargs[spec.name] = value
    extra = set(record) - {"op"} - {spec.name for spec in fields(cls)}
    if extra:
        raise MutationError(
            f"edit op {op!r}: unexpected field(s) {sorted(extra)}"
        )
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise MutationError(f"edit op {op!r}: {exc}") from None


def mutations_to_jsonable(mutations: Sequence[Mutation]) -> Dict[str, Any]:
    """The full edits document for a mutation sequence."""
    return {
        "schema_version": EDITS_SCHEMA_VERSION,
        "edits": [mutation.to_dict() for mutation in mutations],
    }


def mutations_from_jsonable(document: Any) -> List[Mutation]:
    """Decode a full edits document (inverse of
    :func:`mutations_to_jsonable`)."""
    if not isinstance(document, dict):
        raise MutationError("edits document must be a JSON object")
    version = document.get("schema_version")
    if version != EDITS_SCHEMA_VERSION:
        raise MutationError(
            f"unsupported edits schema_version {version!r} "
            f"(expected {EDITS_SCHEMA_VERSION})"
        )
    edits = document.get("edits")
    if not isinstance(edits, list):
        raise MutationError("edits document must carry an 'edits' list")
    return [mutation_from_dict(record) for record in edits]


def save_mutations(path: str, mutations: Sequence[Mutation]) -> None:
    """Write an edit sequence to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(mutations_to_jsonable(mutations), handle, indent=2)
        handle.write("\n")


def load_mutations(path: str) -> List[Mutation]:
    """Read an edit sequence from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise MutationError(f"cannot read edits file {path!r}: {exc}") from None
    except ValueError as exc:
        raise MutationError(f"edits file {path!r} is not JSON: {exc}") from None
    return mutations_from_jsonable(document)


def _pair_tuple(op: str, name: str, value: Any) -> Tuple[Tuple[str, str], ...]:
    if isinstance(value, dict):
        # Accept a plain mapping for pins: friendlier to hand-written
        # edits files.
        return tuple((str(k), str(v)) for k, v in value.items())
    if not isinstance(value, (list, tuple)):
        raise MutationError(
            f"edit op {op!r}: {name} must be a list of [a, b] pairs"
        )
    pairs = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise MutationError(
                f"edit op {op!r}: {name} entry {item!r} is not an [a, b] pair"
            )
        pairs.append((str(item[0]), str(item[1])))
    return tuple(pairs)
