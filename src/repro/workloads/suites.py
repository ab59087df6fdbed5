"""The fixed evaluation suites for the paper's tables.

*Table 1* used five small/moderate full-custom modules laid out by hand
from Newkirk & Mathews' library; *Table 2* used two standard-cell
circuits placed and routed by TimberWolf (three row counts for
experiment 1, two for experiment 2).  These suites recreate the shape
of those experiments with structured synthetic modules of comparable
scale (the OCR of the paper preserves the table *structure* and
aggregate error claims, not the per-cell values; see EXPERIMENTS.md).

Suite membership is frozen — benchmarks and docs refer to the cases by
experiment number — but everything is built from the public generators,
so new cases are one function call away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.netlist.builder import NetlistBuilder
from repro.netlist.model import Module
from repro.workloads.generators import (
    decoder_module,
    expand_to_transistors,
    pass_transistor_chain,
    random_gate_module,
)


@dataclass(frozen=True)
class Table1Case:
    """One Table 1 experiment: a transistor-level (full-custom) module."""

    experiment: int
    module: Module
    seed: int
    note: str = ""


@dataclass(frozen=True)
class Table2Case:
    """One Table 2 experiment: a gate-level module plus the row counts
    the paper tabulates for it."""

    experiment: int
    module: Module
    row_counts: Tuple[int, ...]
    seed: int
    note: str = ""


def table1_suite() -> List[Table1Case]:
    """Five full-custom modules, Table 1 analogues.

    Experiment 2 is the pass-transistor chain whose nets are all
    two-component — the paper's starred footnote row ("contributed
    nothing to wire area").
    """
    return [
        Table1Case(
            experiment=1,
            module=expand_to_transistors(
                _nand_full_adder("t1_full_adder"), "t1_full_adder"
            ),
            seed=101,
            note="1-bit full adder, 9 NAND2 gates expanded to nMOS",
        ),
        Table1Case(
            experiment=2,
            module=pass_transistor_chain("t1_pass_chain", stages=14),
            seed=102,
            note="pass-transistor chain; all nets two-component (paper's "
                 "starred row)",
        ),
        Table1Case(
            experiment=3,
            module=expand_to_transistors(
                decoder_module("t1_decoder", address_bits=2), "t1_decoder"
            ),
            seed=103,
            note="2-to-4 decoder expanded to nMOS",
        ),
        Table1Case(
            experiment=4,
            module=expand_to_transistors(
                _nor_latch_array("t1_latches", latches=4), "t1_latches"
            ),
            seed=104,
            note="four cross-coupled NOR latches expanded to nMOS",
        ),
        Table1Case(
            experiment=5,
            module=expand_to_transistors(
                _and_or_select("t1_selector", ways=4), "t1_selector"
            ),
            seed=105,
            note="4-way AND-OR data selector expanded to nMOS",
        ),
    ]


def table2_suite() -> List[Table2Case]:
    """Two standard-cell modules, Table 2 analogues.

    Experiment 1 is tabulated at three row counts, experiment 2 at two,
    matching the paper's layout of Table 2.
    """
    wide_mix = (
        ("DFF", 3.0),
        ("FADD", 2.0),
        ("MUX2", 2.0),
        ("DFFR", 1.5),
        ("NAND4", 1.0),
        ("XOR2", 1.0),
        ("AOI22", 1.0),
    )
    return [
        Table2Case(
            experiment=1,
            module=random_gate_module(
                "t2_control", gates=30, inputs=6, outputs=4,
                seed=211, cell_mix=wide_mix, locality=0.25,
            ),
            row_counts=(3, 4, 5),
            seed=211,
            note="random control logic, 30 cells, global connectivity",
        ),
        Table2Case(
            experiment=2,
            module=_datapath_module("t2_datapath"),
            row_counts=(4, 6),
            seed=202,
            note="structured datapath: 8-bit counter + 8-to-1 mux + "
                 "4-bit adder",
        ),
    ]


# ----------------------------------------------------------------------
# suite building blocks
# ----------------------------------------------------------------------
def _nand_full_adder(name: str) -> Module:
    """Classic 9-NAND2 full adder (gate level, expandable to nMOS)."""
    builder = NetlistBuilder(name)
    builder.inputs("a", "b", "cin")
    builder.outputs("sum", "cout")
    builder.gate("NAND2", "n1", a="a", b="b", y="w1")
    builder.gate("NAND2", "n2", a="a", b="w1", y="w2")
    builder.gate("NAND2", "n3", a="w1", b="b", y="w3")
    builder.gate("NAND2", "n4", a="w2", b="w3", y="w4")   # a xor b
    builder.gate("NAND2", "n5", a="w4", b="cin", y="w5")
    builder.gate("NAND2", "n6", a="w4", b="w5", y="w6")
    builder.gate("NAND2", "n7", a="w5", b="cin", y="w7")
    builder.gate("NAND2", "n8", a="w6", b="w7", y="sum")
    builder.gate("NAND2", "n9", a="w5", b="w1", y="cout")
    return builder.build()


def _nor_latch_array(name: str, latches: int) -> Module:
    """Array of cross-coupled NOR SR latches."""
    builder = NetlistBuilder(name)
    builder.inputs(*[f"s{k}" for k in range(latches)],
                   *[f"r{k}" for k in range(latches)])
    builder.outputs(*[f"q{k}" for k in range(latches)])
    for k in range(latches):
        builder.gate("NOR2", f"top{k}", a=f"r{k}", b=f"qb{k}", y=f"q{k}")
        builder.gate("NOR2", f"bot{k}", a=f"s{k}", b=f"q{k}", y=f"qb{k}")
    return builder.build()


def _and_or_select(name: str, ways: int) -> Module:
    """AND-OR data selector: ways AND2 gates into a NOR/INV merge."""
    builder = NetlistBuilder(name)
    builder.inputs(*[f"d{k}" for k in range(ways)],
                   *[f"e{k}" for k in range(ways)])
    builder.outputs("y")
    terms = []
    for k in range(ways):
        builder.gate("AND2", f"a{k}", a=f"d{k}", b=f"e{k}", y=f"t{k}")
        terms.append(f"t{k}")
    # Merge pairwise with NOR2/INV to a single output.
    level = 0
    while len(terms) > 1:
        merged = []
        for pair in range(0, len(terms) - 1, 2):
            out = "y" if len(terms) == 2 else f"m{level}_{pair}"
            builder.gate("NOR2", f"nor{level}_{pair}", a=terms[pair],
                         b=terms[pair + 1], y=f"nn{level}_{pair}")
            builder.gate("INV", f"inv{level}_{pair}", a=f"nn{level}_{pair}",
                         y=out)
            merged.append(out)
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
        level += 1
    return builder.build()


def _datapath_module(name: str) -> Module:
    """Structured datapath: counter + mux tree + adder, stitched."""
    builder = NetlistBuilder(name)
    builder.inputs("ck", "en", *[f"sel{k}" for k in range(3)],
                   *[f"x{k}" for k in range(8)],
                   *[f"y{k}" for k in range(4)])
    builder.outputs(*[f"s{k}" for k in range(4)], "co", "muxout")

    # 8-bit counter
    carry = "en"
    for bit in range(8):
        builder.gate("XOR2", f"cx{bit}", a=f"q{bit}", b=carry, y=f"ct{bit}")
        builder.gate("DFF", f"cf{bit}", d=f"ct{bit}", ck="ck", q=f"q{bit}")
        if bit < 7:
            builder.gate("AND2", f"ca{bit}", a=carry, b=f"q{bit}",
                         y=f"cc{bit}")
            carry = f"cc{bit}"

    # 8-to-1 mux over the external x inputs, counter-independent
    current = [f"x{k}" for k in range(8)]
    for level in range(3):
        reduced = []
        for pair in range(0, len(current), 2):
            out = "muxout" if len(current) == 2 else f"mm{level}_{pair}"
            builder.gate("MUX2", f"mx{level}_{pair}", a=current[pair],
                         b=current[pair + 1], s=f"sel{level}", y=out)
            reduced.append(out)
        current = reduced

    # 4-bit adder: counter low bits + y inputs
    carry = "muxout"
    for bit in range(4):
        nxt = "co" if bit == 3 else f"ac{bit}"
        builder.gate("FADD", f"fa{bit}", a=f"q{bit}", b=f"y{bit}",
                     ci=carry, y=f"s{bit}", co=nxt)
        carry = nxt
    return builder.build()
