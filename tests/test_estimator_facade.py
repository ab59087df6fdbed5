"""Tests for the ModuleAreaEstimator facade (Fig. 1)."""

import dataclasses
import hashlib

import pytest

import repro.core.config as config_module
from repro.core.estimator import ModuleAreaEstimator
from repro.errors import EstimationError
from repro.netlist.writers import write_spice, write_verilog
from repro.workloads.suites import table1_suite, table2_suite

#: Each Table 1/2 suite module's two-methodology record under nmos:
#: (sha256 prefix of every field but ``cpu_seconds``, standard-cell
#: area, full-custom exact-area area).  Computed with a facade that
#: scanned once per methodology, so they pin that sharing one scan
#: changes no field.  Re-hashed when the statistics lost their revision
#: stamp (``None`` in every record): the earlier records, hashed without
#: it, give these digests.
PINNED = {
    "t1_full_adder": ("22f80a077c07555c", 40392.0, 2435.05),
    "t1_pass_chain": ("d894ef8be4c8aefc", 12838.0, 882.0),
    "t1_decoder": ("b300b2f5650dc313", 30096.0, 2212.5),
    "t1_latches": ("90d0c0b2d24daa7d", 18432.0, 2162.0),
    "t1_selector": ("7073ad1129cfcf0f", 47642.0, 3305.75),
    "t2_control": ("0058daafadd315cd", 291942.6666666667, 58978.13333333333),
    "t2_datapath": ("33061788418f9e41", 307849.6666666666, 45604.0),
}


def _digest(record) -> str:
    fields = dataclasses.astuple(dataclasses.replace(record, cpu_seconds=0.0))
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


class TestOnePath:
    """Fig. 1 as one path: one scan per estimate, whose statistics feed
    every methodology and the record."""

    @pytest.fixture
    def scans(self, monkeypatch):
        seen = []
        original = config_module.scan_module

        def counting(module, *args, **kwargs):
            seen.append(module.name)
            return original(module, *args, **kwargs)

        monkeypatch.setattr(config_module, "scan_module", counting)
        return seen

    @pytest.mark.parametrize("methodologies", [
        ("standard-cell", "full-custom"), ("standard-cell",),
        ("full-custom",),
    ])
    def test_one_scan_per_estimate(self, scans, small_gate_module, nmos,
                                   methodologies):
        estimator = ModuleAreaEstimator(nmos)
        estimator.estimate(small_gate_module, methodologies)
        assert scans == [small_gate_module.name]
        estimator.estimate(small_gate_module, methodologies)
        assert len(scans) == 2  # nothing is kept across calls

    def test_suite_records_are_pinned(self, nmos):
        estimator = ModuleAreaEstimator(nmos)
        for case in table1_suite() + table2_suite():
            record = estimator.estimate(case.module)
            digest, sc_area, fc_area = PINNED[case.module.name]
            assert record.standard_cell.area == sc_area
            assert record.full_custom.area == fc_area
            assert _digest(record) == digest, case.module.name
            sc_only = estimator.estimate(case.module, ("standard-cell",))
            assert sc_only == dataclasses.replace(
                record, full_custom=None, full_custom_average=None,
                cpu_seconds=sc_only.cpu_seconds,
            )
            fc_only = estimator.estimate(case.module, ("full-custom",))
            assert fc_only == dataclasses.replace(
                record, standard_cell=None, cpu_seconds=fc_only.cpu_seconds,
            )


class TestEstimate:
    def test_both_methodologies_by_default(self, small_gate_module, nmos):
        record = ModuleAreaEstimator(nmos).estimate(small_gate_module)
        assert record.standard_cell is not None
        assert record.full_custom is not None
        assert record.full_custom_average is not None
        assert record.full_custom.device_area_mode == "exact"
        assert record.full_custom_average.device_area_mode == "average"

    def test_single_methodology(self, small_gate_module, nmos):
        record = ModuleAreaEstimator(nmos).estimate(
            small_gate_module, ("standard-cell",)
        )
        assert record.standard_cell is not None
        assert record.full_custom is None

    def test_unknown_methodology_rejected(self, small_gate_module, nmos):
        with pytest.raises(EstimationError, match="unknown"):
            ModuleAreaEstimator(nmos).estimate(small_gate_module, ("pla",))

    def test_empty_methodologies_rejected(self, small_gate_module, nmos):
        with pytest.raises(EstimationError, match="at least one"):
            ModuleAreaEstimator(nmos).estimate(small_gate_module, ())

    def test_cpu_seconds_recorded(self, small_gate_module, nmos):
        record = ModuleAreaEstimator(nmos).estimate(small_gate_module)
        assert record.cpu_seconds > 0.0

    def test_statistics_attached(self, small_gate_module, nmos):
        record = ModuleAreaEstimator(nmos).estimate(small_gate_module)
        assert record.statistics.device_count == (
            small_gate_module.device_count
        )
        assert record.process_name == nmos.name

    def test_best_methodology_picks_smaller(self, small_gate_module, nmos):
        record = ModuleAreaEstimator(nmos).estimate(small_gate_module)
        areas = {
            "standard-cell": record.standard_cell.area,
            "full-custom": record.full_custom.area,
        }
        assert record.best_methodology() == min(areas, key=areas.get)

    def test_estimate_all(self, small_gate_module, half_adder, nmos):
        records = ModuleAreaEstimator(nmos).estimate_all(
            [small_gate_module, half_adder]
        )
        assert [r.module_name for r in records] == [
            small_gate_module.name, half_adder.name
        ]


class TestLoadSchematic:
    def test_verilog_by_extension(self, half_adder, nmos, tmp_path):
        path = tmp_path / "ha.v"
        path.write_text(write_verilog(half_adder))
        module = ModuleAreaEstimator(nmos).load_schematic(path)
        assert module.name == "half_adder"

    def test_spice_by_extension(self, transistor_module, nmos, tmp_path):
        path = tmp_path / "x.sp"
        path.write_text(write_spice(transistor_module))
        module = ModuleAreaEstimator(nmos).load_schematic(path)
        assert module.device_count == transistor_module.device_count

    def test_hierarchical_verilog_auto_flattened(self, nmos, tmp_path):
        path = tmp_path / "hier.v"
        path.write_text("""
        module leaf (a, y);
          input a; output y;
          INV g (.a(a), .y(y));
        endmodule
        module top (x, z);
          input x; output z;
          leaf u1 (.a(x), .y(m));
          leaf u2 (.a(m), .y(z));
        endmodule
        """)
        module = ModuleAreaEstimator(nmos).load_schematic(path)
        assert module.name == "top"
        assert module.device_count == 2

    def test_unknown_extension_rejected(self, nmos, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("whatever")
        with pytest.raises(EstimationError, match="extension"):
            ModuleAreaEstimator(nmos).load_schematic(path)

    def test_end_to_end_from_file(self, half_adder, nmos, tmp_path):
        path = tmp_path / "ha.v"
        path.write_text(write_verilog(half_adder))
        estimator = ModuleAreaEstimator(nmos)
        record = estimator.estimate(estimator.load_schematic(path))
        assert record.standard_cell.area > 0
