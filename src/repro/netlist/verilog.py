"""Structural-Verilog subset parser.

The paper's estimator reads "the circuit schematic expressed in a
standard hardware description language".  This parser accepts the
structural subset that gate-level schematics use:

* ``module name (port, ...); ... endmodule``
* ``input``/``output``/``inout`` declarations (scalar nets only)
* ``wire`` declarations
* cell instantiations with named connections
  (``NAND2 u1 (.a(n1), .b(n2), .y(n3));``) or positional connections
  (``INV u2 (n3, n4);`` — pins are named ``p0``, ``p1``, ...)

Behavioural constructs (``assign``, ``always``, expressions, vectors)
are out of scope: the estimator needs only the instance/net structure.
Unknown constructs raise :class:`~repro.errors.ParseError` rather than
being silently skipped, so a schematic that exceeds the subset is
reported instead of mis-estimated.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ParseError
from repro.netlist.model import Device, Module, Port, PortDirection
from repro.netlist.validate import validate_module

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
_IDENT_RE = re.compile(_IDENT)

_DIRECTIONS = {
    "input": PortDirection.INPUT,
    "output": PortDirection.OUTPUT,
    "inout": PortDirection.INOUT,
}


def parse_verilog(text: str, filename: str = "<string>") -> Module:
    """Parse structural Verilog source into a single :class:`Module`.

    Exactly one ``module`` definition is expected; use
    :func:`parse_verilog_library` for multi-module files.
    """
    modules = parse_verilog_library(text, filename)
    if len(modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(modules)}", filename
        )
    return modules[0]


def parse_verilog_library(text: str, filename: str = "<string>") -> List[Module]:
    """Parse a file containing one or more structural modules."""
    statements = list(_statements(text, filename))
    modules: List[Module] = []
    index = 0
    while index < len(statements):
        statement, line = statements[index]
        if not statement.startswith("module"):
            raise ParseError(
                f"expected 'module', got {statement.split()[0]!r}",
                filename,
                line,
            )
        module, index = _parse_module(statements, index, filename)
        validate_module(module)
        modules.append(module)
    return modules


# ----------------------------------------------------------------------
# tokenisation: strip comments, split on ';' keeping 'endmodule' separate
# ----------------------------------------------------------------------
def _statements(text: str, filename: str) -> Iterator[Tuple[str, int]]:
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group()), text,
                  flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", "", text)

    buffer: List[str] = []
    start_line = 1
    line = 1
    for char in text:
        if char == "\n":
            line += 1
        if char == ";":
            statement = "".join(buffer).strip()
            if statement:
                yield _normalise(statement), start_line
            buffer = []
            start_line = line
            continue
        buffer.append(char)
        # 'endmodule' has no terminating semicolon.  A statement can
        # only end in it as its final 'e' is appended, so only then is
        # the buffer's tail compared: joining the whole buffer at every
        # character is quadratic in the statement's length.
        if char == "e" and "".join(buffer[-9:]) == "endmodule":
            statement = "".join(buffer).strip()
            head = statement[: -len("endmodule")].strip()
            if head:
                raise ParseError(
                    f"unterminated statement before 'endmodule': {head!r}",
                    filename,
                    start_line,
                )
            yield "endmodule", start_line
            buffer = []
            start_line = line
    tail = "".join(buffer).strip()
    if tail:
        raise ParseError(f"unterminated statement: {tail!r}", filename, line)


def _normalise(statement: str) -> str:
    return re.sub(r"\s+", " ", statement).strip()


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------
def _parse_module(
    statements: List[Tuple[str, int]], index: int, filename: str
) -> Tuple[Module, int]:
    header, line = statements[index]
    match = re.match(
        rf"module\s+({_IDENT})\s*(?:\((?P<ports>[^)]*)\))?\s*$", header
    )
    if not match:
        raise ParseError(f"malformed module header: {header!r}", filename, line)
    name = match.group(1)
    header_ports = _split_names(match.group("ports") or "", filename, line)

    directions: Dict[str, PortDirection] = {}
    wires: List[str] = []
    instances: List[Device] = []

    index += 1
    while index < len(statements):
        statement, line = statements[index]
        index += 1
        if statement == "endmodule":
            return _assemble(name, header_ports, directions, wires, instances,
                             filename, line), index
        keyword = statement.split(" ", 1)[0]
        if keyword in _DIRECTIONS:
            for port_name in _split_names(statement[len(keyword):], filename, line):
                if port_name in directions:
                    raise ParseError(
                        f"port {port_name!r} declared twice", filename, line
                    )
                directions[port_name] = _DIRECTIONS[keyword]
        elif keyword == "wire":
            wires.extend(_split_names(statement[4:], filename, line))
        elif keyword == "module":
            raise ParseError("nested module definitions are not supported",
                             filename, line)
        else:
            instances.append(_parse_instance(statement, filename, line))

    raise ParseError(f"module {name!r}: missing 'endmodule'", filename, line)


def _parse_instance(statement: str, filename: str, line: int) -> Device:
    match = re.match(
        rf"({_IDENT})\s+({_IDENT})\s*\((?P<conns>.*)\)\s*$", statement
    )
    if not match:
        raise ParseError(
            f"unrecognised statement (not a declaration or instance): "
            f"{statement!r}",
            filename,
            line,
        )
    cell, instance = match.group(1), match.group(2)
    conns = match.group("conns").strip()
    pins: Dict[str, str] = {}
    if conns.startswith("."):
        for part in _split_commas(conns):
            pin_match = re.match(rf"\.({_IDENT})\s*\(\s*({_IDENT})\s*\)\s*$", part)
            if not pin_match:
                raise ParseError(
                    f"instance {instance!r}: malformed named connection "
                    f"{part!r}",
                    filename,
                    line,
                )
            pin, net = pin_match.group(1), pin_match.group(2)
            if pin in pins:
                raise ParseError(
                    f"instance {instance!r}: pin {pin!r} connected twice",
                    filename,
                    line,
                )
            pins[pin] = net
    elif conns:
        for position, part in enumerate(_split_commas(conns)):
            if not _IDENT_RE.fullmatch(part):
                raise ParseError(
                    f"instance {instance!r}: malformed positional connection "
                    f"{part!r}",
                    filename,
                    line,
                )
            pins[f"p{position}"] = part
    if not pins:
        raise ParseError(
            f"instance {instance!r} has no connections", filename, line
        )
    return Device(instance, cell, pins)


def _assemble(
    name: str,
    header_ports: List[str],
    directions: Dict[str, PortDirection],
    wires: List[str],
    instances: List[Device],
    filename: str,
    line: int,
) -> Module:
    module = Module(name)
    for port_name in header_ports:
        direction = directions.get(port_name)
        if direction is None:
            raise ParseError(
                f"module {name!r}: port {port_name!r} has no direction "
                "declaration",
                filename,
                line,
            )
        module.add_port(Port(port_name, direction))
    for port_name in directions:
        if port_name not in header_ports:
            raise ParseError(
                f"module {name!r}: {port_name!r} declared "
                f"{directions[port_name].value} but absent from the port list",
                filename,
                line,
            )
    for device in instances:
        module.add_device(device)
    # Declared-but-unused wires are legal Verilog; materialise them only
    # if an instance or port referenced them (Module.add_device already
    # created nets for referenced names).
    del wires
    return module


def _split_names(text: str, filename: str, line: int) -> List[str]:
    names: List[str] = []
    for part in _split_commas(text):
        if not _IDENT_RE.fullmatch(part):
            raise ParseError(f"malformed identifier {part!r}", filename, line)
        names.append(part)
    return names


def _split_commas(text: str) -> List[str]:
    parts = [part.strip() for part in text.split(",")]
    return [part for part in parts if part]
