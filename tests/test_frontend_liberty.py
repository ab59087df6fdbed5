"""The Liberty reader and its failure modes.

Every malformed-input case must raise a typed
:class:`~repro.errors.FrontendError` *before* any library or module
state is constructed or mutated.
"""

from __future__ import annotations

import pytest

from repro.errors import FrontendError, ReproError
from repro.frontend.blif import parse_blif
from repro.frontend.calibrate import fixture_liberty
from repro.frontend.liberty import (
    LibertyCell,
    LibertyLibrary,
    parse_liberty,
    process_from_liberty,
    read_liberty,
)
from repro.technology.libraries import cmos_process

TOY_LIB = fixture_liberty()

MINI_LIB = """
library (mini) {
  /* a block comment */
  time_unit : "1ns";
  cell (INV) {
    area : 450;
    pin (a) { direction : input; capacitance : 0.004; }
    pin (y) { direction : output; function : "!a"; }
  }
  cell (NAND2) {
    area : 720;
    pin (a) { direction : input; }
    pin (b) { direction : input; }
    pin (y) { direction : output; function : "!(a*b)"; }
  }
}
"""


class TestParse:
    def test_mini_library(self):
        library = parse_liberty(MINI_LIB, "mini.lib")
        assert library.name == "mini"
        assert [c.name for c in library.cells] == ["INV", "NAND2"]
        inv = library.cell("INV")
        assert inv.area == 450.0
        assert inv.pins == (("a", "input"), ("y", "output"))
        assert inv.input_pins == ("a",)
        assert inv.output_pins == ("y",)
        assert "NAND2" in library and "NOR9" not in library

    def test_toy_fixture_matches_cmos_cell_set(self):
        """The committed fixture must cover every CMOS standard cell
        the generators can emit, or calibration fixtures would drift
        from the corpus."""
        library = read_liberty(TOY_LIB)
        process = cmos_process()
        gate_names = {
            dt.name for dt in process.device_types
            if dt.name.isupper()
        }
        assert gate_names <= {cell.name for cell in library.cells}
        for cell in library.cells:
            assert cell.area > 0
            assert cell.output_pins, cell.name

    def test_pg_pins_and_unknown_groups_are_skipped(self):
        library = parse_liberty(
            "library (pg) {\n"
            "  operating_conditions (typ) { process : 1; }\n"
            "  cell (BUF) {\n"
            "    area : 760;\n"
            "    pg_pin (VDD) { pg_type : primary_power; }\n"
            "    leakage_power () { value : 0.1; }\n"
            "    pin (a) { direction : input; }\n"
            "    pin (y) { direction : output;\n"
            "      timing () { related_pin : \"a\"; } }\n"
            "  }\n"
            "}\n"
        )
        assert library.cell("BUF").pins == (
            ("a", "input"), ("y", "output"),
        )


class TestFailureModes:
    def test_truncated_file(self):
        text = TOY_LIB.read_text()
        with pytest.raises(FrontendError, match="truncated"):
            parse_liberty(text[: len(text) // 2], "half.lib")

    def test_duplicate_cells(self):
        with pytest.raises(FrontendError, match="duplicate cell.*INV"):
            parse_liberty(
                "library (dup) {\n"
                "  cell (INV) { area : 1; }\n"
                "  cell (INV) { area : 2; }\n"
                "}\n"
            )

    def test_missing_area(self):
        with pytest.raises(FrontendError, match="no area"):
            parse_liberty(
                "library (bad) {\n"
                "  cell (INV) { pin (a) { direction : input; } }\n"
                "}\n"
            )

    def test_all_problems_reported_at_once(self):
        """Whole-file validation: both defects appear in one error."""
        with pytest.raises(FrontendError) as excinfo:
            parse_liberty(
                "library (bad) {\n"
                "  cell (INV) { area : 1; }\n"
                "  cell (INV) { area : 2; }\n"
                "  cell (BUF) { pin (a) { direction : input; } }\n"
                "}\n"
            )
        message = str(excinfo.value)
        assert "duplicate cell" in message and "no area" in message

    def test_empty_library(self):
        with pytest.raises(FrontendError, match="no cells"):
            parse_liberty("library (empty) { }\n")

    def test_not_a_library(self):
        with pytest.raises(FrontendError, match="library"):
            parse_liberty("cell (INV) { area : 1; }\n")

    def test_malformed_area(self):
        with pytest.raises(FrontendError, match="area"):
            parse_liberty(
                "library (x) { cell (INV) { area : lots; } }\n"
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FrontendError, match="cannot read"):
            read_liberty(tmp_path / "nope.lib")

    def test_unknown_cell_from_blif_before_mutation(self):
        """A netlist using a cell the library lacks fails `bind` with
        every missing cell named, and neither object is touched."""
        library = parse_liberty(MINI_LIB)
        module = parse_blif(
            ".model top\n.inputs a b\n.outputs y\n"
            ".gate NAND2 a=a b=b y=n\n"
            ".gate FANCY3 a=n y=y\n"
            ".gate WEIRD1 a=n y=w\n"
            ".end\n"
        )
        before_devices = [(d.name, d.cell) for d in module.devices]
        before_cells = library.cells
        with pytest.raises(FrontendError, match="FANCY3, WEIRD1"):
            library.bind(module)
        with pytest.raises(FrontendError, match="FANCY3, WEIRD1"):
            library.module_area(module)
        assert [(d.name, d.cell) for d in module.devices] == \
            before_devices
        assert library.cells == before_cells

    def test_errors_are_typed(self):
        assert issubclass(FrontendError, ReproError)
        with pytest.raises(ReproError):
            parse_liberty("library (empty) { }\n")


class TestProjection:
    def test_module_area_is_sum_of_instance_areas(self):
        library = parse_liberty(MINI_LIB)
        module = parse_blif(
            ".model top\n.inputs a b\n.outputs y\n"
            ".gate NAND2 a=a b=b y=n\n.gate INV a=n y=y\n.end\n"
        )
        assert library.module_area(module) == 720.0 + 450.0

    def test_process_from_liberty_validates(self):
        library = read_liberty(TOY_LIB)
        process = process_from_liberty(library)
        template = cmos_process()
        assert process.name == f"{template.name}+{library.name}"
        assert process.row_height == template.row_height
        by_name = {dt.name: dt for dt in process.device_types}
        for cell in library.cells:
            device_type = by_name[cell.name]
            expected = cell.area / (
                template.row_height * template.lambda_um ** 2
            )
            assert device_type.width == pytest.approx(expected)
            assert device_type.pin_count == max(cell.pin_count, 2)

    def test_frozen_value_objects(self):
        cell = LibertyCell("INV", 1.0, (("a", "input"),))
        with pytest.raises(AttributeError):
            cell.area = 2.0
        library = LibertyLibrary("lib", (cell,))
        with pytest.raises(AttributeError):
            library.name = "other"
