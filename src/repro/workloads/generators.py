"""Parametric circuit generators.

All generators are deterministic given their seed, so the benchmark
tables are reproducible run to run.  Structured families (adders,
counters, decoders, registers) have the strong net locality of real
modules; :func:`random_gate_module` exposes a ``locality`` knob
controlling how far back in the netlist a gate draws its inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.errors import NetlistError
from repro.netlist.builder import NetlistBuilder
from repro.netlist.model import Device, Module, Port

#: Default cell mix for random logic (cell, relative weight).
DEFAULT_CELL_MIX = (
    ("NAND2", 4.0),
    ("NOR2", 3.0),
    ("INV", 3.0),
    ("NAND3", 1.5),
    ("XOR2", 1.0),
    ("AOI21", 1.0),
    ("DFF", 0.8),
)

#: Pin names by cell for the shipped libraries.
_CELL_PINS: Dict[str, Sequence[str]] = {
    "INV": ("a",),
    "BUF": ("a",),
    "NAND2": ("a", "b"),
    "NOR2": ("a", "b"),
    "AND2": ("a", "b"),
    "OR2": ("a", "b"),
    "XOR2": ("a", "b"),
    "XNOR2": ("a", "b"),
    "NAND3": ("a", "b", "c"),
    "NOR3": ("a", "b", "c"),
    "NAND4": ("a", "b", "c", "d"),
    "AOI21": ("a", "b", "c"),
    "AOI22": ("a", "b", "c", "d"),
    "OAI21": ("a", "b", "c"),
    "MUX2": ("a", "b", "s"),
    "DLATCH": ("d", "en"),
    "DFF": ("d", "ck"),
    "DFFR": ("d", "ck", "r"),
    "HADD": ("a", "b"),
    "FADD": ("a", "b", "ci"),
}


def random_gate_module(
    name: str,
    gates: int,
    inputs: int,
    outputs: int,
    seed: int = 0,
    cell_mix: Sequence = DEFAULT_CELL_MIX,
    locality: float = 0.8,
) -> Module:
    """Random combinational/sequential logic.

    ``locality`` in [0, 1]: 1.0 draws gate inputs almost exclusively
    from recently created nets (short, low-fanout nets, like a
    datapath); 0.0 draws uniformly from all live nets (long nets, high
    fanout, like random control logic).

    The result is guaranteed to contain at least one multi-terminal
    (routable) net: at tiny sizes the random draw can wire every gate
    straight to unshared input ports, which would hand the estimator a
    module with an empty multi-component histogram.  When that happens
    the second gate's first input is rewired (deterministically) to the
    first gate's output.  A single gate can never form a net with two
    distinct devices, so ``gates == 1`` is rejected with a
    :class:`~repro.errors.NetlistError`.
    """
    if gates < 2:
        raise NetlistError(
            f"gates must be >= 2, got {gates}: a 1-gate module cannot "
            "contain a multi-terminal (routable) net"
        )
    if inputs < 1 or outputs < 1:
        raise NetlistError("inputs and outputs must be >= 1")
    if not 0.0 <= locality <= 1.0:
        raise NetlistError(f"locality must be in [0, 1], got {locality}")
    if outputs > gates:
        raise NetlistError("cannot have more outputs than gates")

    rng = random.Random(seed)
    input_names = [f"i{k}" for k in range(inputs)]
    output_names = [f"o{k}" for k in range(outputs)]

    cells = [cell for cell, _ in cell_mix]
    weights = [weight for _, weight in cell_mix]
    live_nets: List[str] = list(input_names)

    def pick_net() -> str:
        if rng.random() < locality:
            window = max(4, len(live_nets) // 8)
            return rng.choice(live_nets[-window:])
        return rng.choice(live_nets)

    # Plan the gates first so connectivity can be repaired before the
    # module is built (the builder offers no rewiring after the fact).
    planned: List[tuple] = []          # (cell, name, connections, out_pin)
    for index in range(gates):
        cell = rng.choices(cells, weights)[0]
        pins = _CELL_PINS[cell]
        is_output_driver = index >= gates - outputs
        out_net = (
            output_names[gates - 1 - index]
            if is_output_driver
            else f"n{index}"
        )
        connections = {pin: pick_net() for pin in pins}
        out_pin = "q" if cell in ("DFF", "DFFR", "DLATCH") else "y"
        connections[out_pin] = out_net
        planned.append((cell, f"g{index}", connections, out_pin))
        if not is_output_driver:
            live_nets.append(out_net)

    if not _has_multi_terminal_net(planned):
        # Deterministic repair: feed gate 0's output into gate 1's
        # first input pin, giving that net two distinct devices.
        cell0, _, connections0, out_pin0 = planned[0]
        cell1, name1, connections1, out_pin1 = planned[1]
        first_input = _CELL_PINS[cell1][0]
        connections1 = dict(connections1)
        connections1[first_input] = connections0[out_pin0]
        planned[1] = (cell1, name1, connections1, out_pin1)

    builder = NetlistBuilder(name)
    builder.inputs(*input_names)
    builder.outputs(*output_names)
    for cell, gate_name, connections, _ in planned:
        builder.gate(cell, gate_name, **connections)
    return builder.build()


def _has_multi_terminal_net(planned: List[tuple]) -> bool:
    """Whether any net in the planned gate list touches two distinct
    devices (the scanner's multi-component criterion)."""
    devices_by_net: Dict[str, set] = {}
    for _, gate_name, connections, _ in planned:
        for net in connections.values():
            devices_by_net.setdefault(net, set()).add(gate_name)
    return any(len(devices) >= 2 for devices in devices_by_net.values())


def adder_module(name: str, bits: int) -> Module:
    """Ripple-carry adder from FADD cells — the classic datapath
    module with perfectly local nets."""
    if bits < 1:
        raise NetlistError(f"bits must be >= 1, got {bits}")
    builder = NetlistBuilder(name)
    builder.inputs(*[f"a{k}" for k in range(bits)],
                   *[f"b{k}" for k in range(bits)], "cin")
    builder.outputs(*[f"s{k}" for k in range(bits)], "cout")
    carry = "cin"
    for bit in range(bits):
        next_carry = "cout" if bit == bits - 1 else f"c{bit}"
        builder.gate("FADD", f"fa{bit}", a=f"a{bit}", b=f"b{bit}",
                     ci=carry, y=f"s{bit}", co=next_carry)
        carry = next_carry
    return builder.build()


def counter_module(name: str, bits: int) -> Module:
    """Synchronous binary counter: DFF per bit plus toggle logic."""
    if bits < 1:
        raise NetlistError(f"bits must be >= 1, got {bits}")
    builder = NetlistBuilder(name)
    builder.inputs("ck", "en")
    builder.outputs(*[f"q{k}" for k in range(bits)])
    carry = "en"
    for bit in range(bits):
        toggle = f"t{bit}"
        builder.gate("XOR2", f"x{bit}", a=f"q{bit}", b=carry, y=toggle)
        builder.gate("DFF", f"ff{bit}", d=toggle, ck="ck", q=f"q{bit}")
        if bit < bits - 1:
            next_carry = f"cy{bit}"
            builder.gate("AND2", f"an{bit}", a=carry, b=f"q{bit}",
                         y=next_carry)
            carry = next_carry
    return builder.build()


def decoder_module(name: str, address_bits: int) -> Module:
    """Full n-to-2^n decoder: inverters plus one AND tree per output."""
    if not 1 <= address_bits <= 6:
        raise NetlistError(
            f"address_bits must be in 1..6, got {address_bits}"
        )
    builder = NetlistBuilder(name)
    builder.inputs(*[f"a{k}" for k in range(address_bits)])
    lines = 2 ** address_bits
    builder.outputs(*[f"d{k}" for k in range(lines)])
    for bit in range(address_bits):
        builder.gate("INV", f"inv{bit}", a=f"a{bit}", y=f"an{bit}")
    for line in range(lines):
        terms = [
            f"a{bit}" if (line >> bit) & 1 else f"an{bit}"
            for bit in range(address_bits)
        ]
        # Reduce the terms pairwise with AND2 gates.
        level = 0
        while len(terms) > 2:
            reduced: List[str] = []
            for pair_index in range(0, len(terms) - 1, 2):
                out = f"t{line}_{level}_{pair_index}"
                builder.gate("AND2", f"and{line}_{level}_{pair_index}",
                             a=terms[pair_index], b=terms[pair_index + 1],
                             y=out)
                reduced.append(out)
            if len(terms) % 2:
                reduced.append(terms[-1])
            terms = reduced
            level += 1
        if len(terms) == 2:
            builder.gate("AND2", f"and{line}_final", a=terms[0], b=terms[1],
                         y=f"d{line}")
        else:
            builder.gate("BUF", f"buf{line}", a=terms[0], y=f"d{line}")
    return builder.build()


def mux_tree_module(name: str, select_bits: int) -> Module:
    """2^n-to-1 multiplexer tree of MUX2 cells."""
    if not 1 <= select_bits <= 6:
        raise NetlistError(
            f"select_bits must be in 1..6, got {select_bits}"
        )
    builder = NetlistBuilder(name)
    leaves = 2 ** select_bits
    builder.inputs(*[f"in{k}" for k in range(leaves)],
                   *[f"s{k}" for k in range(select_bits)])
    builder.outputs("out")
    current = [f"in{k}" for k in range(leaves)]
    for level in range(select_bits):
        reduced: List[str] = []
        for pair_index in range(0, len(current), 2):
            out = (
                "out"
                if len(current) == 2
                else f"m{level}_{pair_index // 2}"
            )
            builder.gate("MUX2", f"mux{level}_{pair_index // 2}",
                         a=current[pair_index], b=current[pair_index + 1],
                         s=f"s{level}", y=out)
            reduced.append(out)
        current = reduced
    return builder.build()


def lfsr_module(name: str, bits: int, taps: Optional[Sequence[int]] = None) -> Module:
    """Fibonacci LFSR: a shift register with XOR feedback taps.

    A classic test-pattern-generator module: almost entirely local
    (shift chain) with one long feedback net — a stress case for the
    feed-through model.
    """
    if bits < 2:
        raise NetlistError(f"bits must be >= 2, got {bits}")
    taps = tuple(taps) if taps is not None else (bits - 1, bits // 2)
    if any(not 0 <= t < bits for t in taps) or len(set(taps)) < 2:
        raise NetlistError(
            f"taps must be >= 2 distinct positions in 0..{bits - 1}, "
            f"got {taps}"
        )
    builder = NetlistBuilder(name)
    builder.inputs("ck")
    builder.outputs(*[f"q{k}" for k in range(bits)])

    # Feedback: XOR-reduce the tap outputs.
    tap_list = sorted(set(taps))
    feedback = f"q{tap_list[0]}"
    for index, tap in enumerate(tap_list[1:]):
        out = "fb" if index == len(tap_list) - 2 else f"fx{index}"
        builder.gate("XOR2", f"xor{index}", a=feedback, b=f"q{tap}", y=out)
        feedback = out
    if len(tap_list) == 1:  # unreachable (validated above), kept for safety
        feedback = f"q{tap_list[0]}"

    previous = "fb"
    for bit in range(bits):
        builder.gate("DFF", f"ff{bit}", d=previous, ck="ck", q=f"q{bit}")
        previous = f"q{bit}"
    return builder.build()


def alu_slice_module(name: str, bits: int) -> Module:
    """A small ALU: per-bit add/and/or/xor with a 2-bit op mux tree.

    Mixed structure: a local ripple chain plus global select nets — a
    middle ground between the datapath and control workload families.
    """
    if bits < 1:
        raise NetlistError(f"bits must be >= 1, got {bits}")
    builder = NetlistBuilder(name)
    builder.inputs(*[f"a{k}" for k in range(bits)],
                   *[f"b{k}" for k in range(bits)], "cin", "op0", "op1")
    builder.outputs(*[f"y{k}" for k in range(bits)], "cout")
    carry = "cin"
    for bit in range(bits):
        next_carry = "cout" if bit == bits - 1 else f"c{bit}"
        builder.gate("FADD", f"add{bit}", a=f"a{bit}", b=f"b{bit}",
                     ci=carry, y=f"s{bit}", co=next_carry)
        builder.gate("AND2", f"and{bit}", a=f"a{bit}", b=f"b{bit}",
                     y=f"n{bit}")
        builder.gate("OR2", f"or{bit}", a=f"a{bit}", b=f"b{bit}",
                     y=f"o{bit}")
        builder.gate("XOR2", f"xor{bit}", a=f"a{bit}", b=f"b{bit}",
                     y=f"x{bit}")
        builder.gate("MUX2", f"m0_{bit}", a=f"s{bit}", b=f"n{bit}",
                     s="op0", y=f"t{bit}")
        builder.gate("MUX2", f"m1_{bit}", a=f"o{bit}", b=f"x{bit}",
                     s="op0", y=f"u{bit}")
        builder.gate("MUX2", f"m2_{bit}", a=f"t{bit}", b=f"u{bit}",
                     s="op1", y=f"y{bit}")
        carry = next_carry
    return builder.build()


def register_file_module(name: str, words: int, bits: int) -> Module:
    """Register array: words x bits DFFs with shared clock and
    per-word write-enable gating."""
    if words < 1 or bits < 1:
        raise NetlistError("words and bits must be >= 1")
    builder = NetlistBuilder(name)
    builder.inputs("ck", *[f"we{w}" for w in range(words)],
                   *[f"d{b}" for b in range(bits)])
    builder.outputs(*[f"q{w}_{b}" for w in range(words)
                      for b in range(bits)])
    for word in range(words):
        for bit in range(bits):
            gated = f"g{word}_{bit}"
            builder.gate("AND2", f"wg{word}_{bit}", a=f"we{word}",
                         b=f"d{bit}", y=gated)
            builder.gate("DFF", f"ff{word}_{bit}", d=gated, ck="ck",
                         q=f"q{word}_{bit}")
    return builder.build()


# ----------------------------------------------------------------------
# transistor-level (full-custom) generators
# ----------------------------------------------------------------------

#: nMOS transistor expansion per gate: pull-down network shapes.
#: Each entry: (series_groups) where each group is a tuple of input pins
#: forming a series stack; groups are parallel.  Every gate also gets
#: one depletion load.
_NMOS_PULLDOWN: Dict[str, Sequence[Sequence[str]]] = {
    "INV": (("a",),),
    "BUF": (("a",),),            # expanded as two cascaded inverters
    "NAND2": (("a", "b"),),
    "NAND3": (("a", "b", "c"),),
    "NOR2": (("a",), ("b",)),
    "NOR3": (("a",), ("b",), ("c",)),
    "AND2": (("a", "b"),),       # NAND + output inverter
    "OR2": (("a",), ("b",)),     # NOR + output inverter
    "AOI21": (("a", "b"), ("c",)),
}

_NEEDS_OUTPUT_INVERTER = {"AND2", "OR2", "BUF"}


def expand_to_transistors(
    module: Module,
    name: Optional[str] = None,
    enh_cell: str = "nmos_enh",
    dep_cell: str = "nmos_dep",
) -> Module:
    """Expand a gate-level module into an nMOS transistor-level module.

    Each supported gate becomes its pull-down network of
    enhancement-mode transistors plus a depletion-mode load; AND/OR/BUF
    gain an output inverter stage.  The result exercises the
    full-custom estimator and layout flow on circuits with realistic
    local connectivity — the stand-in for Newkirk & Mathews' cells.
    """
    result = Module(name or f"{module.name}_xtor")
    for port in module.ports:
        result.add_port(Port(port.name, port.direction, port.net,
                             port.width_lambda))

    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    for device in module.devices:
        pulldown = _NMOS_PULLDOWN.get(device.cell)
        if pulldown is None:
            raise NetlistError(
                f"device {device.name!r}: no transistor expansion for "
                f"cell {device.cell!r}"
            )
        out_pin = "y"
        output = device.pins.get(out_pin)
        if output is None:
            raise NetlistError(
                f"device {device.name!r} ({device.cell}): missing output "
                f"pin {out_pin!r}"
            )
        stage_out = (
            fresh(f"{device.name}_w")
            if device.cell in _NEEDS_OUTPUT_INVERTER
            else output
        )
        _expand_stage(result, device, pulldown, stage_out, enh_cell,
                      dep_cell, fresh)
        if device.cell in _NEEDS_OUTPUT_INVERTER:
            # Output inverter: one enhancement pull-down + load.
            result.add_device(Device(
                fresh(f"{device.name}_ie"), enh_cell,
                {"g": stage_out, "d": output, "s": "gnd"},
            ))
            result.add_device(Device(
                fresh(f"{device.name}_il"), dep_cell,
                {"g": output, "d": "vdd", "s": output},
            ))
    return result


def _expand_stage(
    result: Module,
    device: Device,
    pulldown: Sequence[Sequence[str]],
    output: str,
    enh_cell: str,
    dep_cell: str,
    fresh,
) -> None:
    """One static nMOS stage: parallel series-stacks to ground plus a
    depletion load from vdd."""
    for group in pulldown:
        node_above = output
        for position, pin in enumerate(group):
            gate_net = device.pins.get(pin)
            if gate_net is None:
                raise NetlistError(
                    f"device {device.name!r} ({device.cell}): missing "
                    f"input pin {pin!r}"
                )
            is_last = position == len(group) - 1
            node_below = "gnd" if is_last else fresh(f"{device.name}_s")
            result.add_device(Device(
                fresh(f"{device.name}_e"), enh_cell,
                {"g": gate_net, "d": node_above, "s": node_below},
            ))
            node_above = node_below
    result.add_device(Device(
        fresh(f"{device.name}_l"), dep_cell,
        {"g": output, "d": "vdd", "s": output},
    ))


def expand_to_transistors_cmos(
    module: Module,
    name: Optional[str] = None,
    nmos_cell: str = "nmos",
    pmos_cell: str = "pmos",
) -> Module:
    """Expand a gate-level module into a static CMOS transistor module.

    Each supported gate becomes complementary networks: the nMOS
    pull-down of :data:`_NMOS_PULLDOWN` plus its *dual* pMOS pull-up
    (series groups become parallel branches and vice versa) — the
    standard static-CMOS construction.  AND/OR/BUF gain an inverter
    stage, as in the nMOS expansion.
    """
    result = Module(name or f"{module.name}_cmos")
    for port in module.ports:
        result.add_port(Port(port.name, port.direction, port.net,
                             port.width_lambda))

    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def build_stage(device: Device, pulldown, output: str) -> None:
        # nMOS pull-down: parallel series-stacks to ground.
        for group in pulldown:
            node_above = output
            for position, pin in enumerate(group):
                gate_net = _input_net(device, pin)
                is_last = position == len(group) - 1
                node_below = (
                    "gnd" if is_last else fresh(f"{device.name}_ns")
                )
                result.add_device(Device(
                    fresh(f"{device.name}_n"), nmos_cell,
                    {"g": gate_net, "d": node_above, "s": node_below},
                ))
                node_above = node_below
        # pMOS pull-up: the dual — series chain of parallel groups.
        node_above = "vdd"
        for index, group in enumerate(pulldown):
            is_last = index == len(pulldown) - 1
            node_below = output if is_last else fresh(f"{device.name}_ps")
            for pin in group:
                gate_net = _input_net(device, pin)
                result.add_device(Device(
                    fresh(f"{device.name}_p"), pmos_cell,
                    {"g": gate_net, "d": node_above, "s": node_below},
                ))
            node_above = node_below

    for device in module.devices:
        pulldown = _NMOS_PULLDOWN.get(device.cell)
        if pulldown is None:
            raise NetlistError(
                f"device {device.name!r}: no transistor expansion for "
                f"cell {device.cell!r}"
            )
        output = device.pins.get("y")
        if output is None:
            raise NetlistError(
                f"device {device.name!r} ({device.cell}): missing output "
                "pin 'y'"
            )
        stage_out = (
            fresh(f"{device.name}_w")
            if device.cell in _NEEDS_OUTPUT_INVERTER
            else output
        )
        build_stage(device, pulldown, stage_out)
        if device.cell in _NEEDS_OUTPUT_INVERTER:
            result.add_device(Device(
                fresh(f"{device.name}_in"), nmos_cell,
                {"g": stage_out, "d": output, "s": "gnd"},
            ))
            result.add_device(Device(
                fresh(f"{device.name}_ip"), pmos_cell,
                {"g": stage_out, "d": "vdd", "s": output},
            ))
    return result


def _input_net(device: Device, pin: str) -> str:
    gate_net = device.pins.get(pin)
    if gate_net is None:
        raise NetlistError(
            f"device {device.name!r} ({device.cell}): missing input "
            f"pin {pin!r}"
        )
    return gate_net


def pass_transistor_chain(name: str, stages: int) -> Module:
    """A chain of pass transistors — every internal net touches exactly
    two devices.

    Reproduces Table 1's footnote case: "All nets in this module were
    two-component nets, and therefore contributed nothing to wire
    area."  Gate nets are driven straight from ports (one device each).
    """
    if stages < 2:
        raise NetlistError(f"stages must be >= 2, got {stages}")
    builder = NetlistBuilder(name)
    builder.inputs("din", *[f"ctl{k}" for k in range(stages)])
    builder.outputs("dout")
    previous = "din"
    for stage in range(stages):
        nxt = "dout" if stage == stages - 1 else f"mid{stage}"
        builder.transistor("nmos_pass", f"p{stage}", gate=f"ctl{stage}",
                           drain=previous, source=nxt)
        previous = nxt
    return builder.build()
