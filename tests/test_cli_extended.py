"""Tests for the extended CLI commands (layout, flatten, candidates)."""

import json

import pytest

from repro.cli import main
from repro.netlist.writers import write_spice, write_verilog


@pytest.fixture
def verilog_file(small_gate_module, tmp_path):
    path = tmp_path / "small.v"
    path.write_text(write_verilog(small_gate_module))
    return path


@pytest.fixture
def spice_file(transistor_module, tmp_path):
    path = tmp_path / "x.sp"
    path.write_text(write_spice(transistor_module))
    return path


@pytest.fixture
def hierarchical_file(tmp_path):
    path = tmp_path / "hier.v"
    path.write_text("""
module leaf (a, y);
  input a; output y;
  INV g1 (.a(a), .y(w));
  INV g2 (.a(w), .y(y));
endmodule
module top (x, z);
  input x; output z;
  leaf u1 (.a(x), .y(m));
  leaf u2 (.a(m), .y(z));
endmodule
""")
    return path


class TestEstimateExtensions:
    def test_aspects_flag(self, verilog_file, capsys):
        assert main(["estimate", str(verilog_file), "--aspects", "4"]) == 0
        out = capsys.readouterr().out
        assert "aspect-ratio candidates" in out
        assert "sc-" in out and "fc-" in out

    def test_shared_track_model(self, verilog_file, capsys):
        assert main(
            ["estimate", str(verilog_file), "--rows", "3"]
        ) == 0
        upper = capsys.readouterr().out
        assert main(
            ["estimate", str(verilog_file), "--rows", "3",
             "--track-model", "shared"]
        ) == 0
        shared = capsys.readouterr().out

        def tracks(text):
            for line in text.splitlines():
                if "tracks" in line:
                    return int(line.split("tracks")[0].split(",")[-1])
            raise AssertionError("no track line")

        assert tracks(shared) <= tracks(upper)


class TestScanMetrics:
    def test_metrics_flag(self, tmp_path, capsys):
        from repro.netlist.writers import write_verilog
        from repro.workloads.generators import counter_module

        path = tmp_path / "counter.v"
        path.write_text(write_verilog(counter_module("c", bits=8)))
        assert main(["scan", str(path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "fanout:" in out
        assert "Rent exponent" in out

    def test_metrics_small_module_degrades_gracefully(self, verilog_file,
                                                      capsys):
        assert main(["scan", str(verilog_file), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "fanout:" in out  # Rent may be unavailable, scan still works


class TestLayoutCommand:
    def test_standard_cell_layout(self, verilog_file, capsys):
        assert main(["layout", str(verilog_file), "--rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "standard-cell layout" in out
        assert "tracks" in out

    def test_standard_cell_auto_rows(self, verilog_file, capsys):
        assert main(["layout", str(verilog_file)]) == 0
        assert "rows" in capsys.readouterr().out

    def test_full_custom_layout(self, spice_file, capsys):
        assert main(["layout", str(spice_file)]) == 0
        out = capsys.readouterr().out
        assert "full-custom layout" in out
        assert "packing efficiency" in out

    def test_svg_output(self, verilog_file, tmp_path, capsys):
        svg = tmp_path / "layout.svg"
        assert main(
            ["layout", str(verilog_file), "--rows", "2", "--svg", str(svg)]
        ) == 0
        assert svg.exists()
        assert "<svg" in svg.read_text()

    def test_full_custom_svg(self, spice_file, tmp_path, capsys):
        svg = tmp_path / "fc.svg"
        assert main(["layout", str(spice_file), "--svg", str(svg)]) == 0
        assert "<svg" in svg.read_text()


class TestCompareCommand:
    def test_all_three(self, tmp_path, capsys):
        path = tmp_path / "logic.v"
        path.write_text("""
module logic3 (a, b, y);
  input a, b;
  output y;
  NAND2 g1 (.a(a), .b(b), .y(w));
  NOR2 g2 (.a(w), .b(a), .y(x));
  INV g3 (.a(x), .y(y));
endmodule
""")
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "standard-cell" in out
        assert "gate-array" in out
        assert "full-custom" in out
        assert "smallest:" in out

    def test_dff_skips_full_custom(self, tmp_path, capsys):
        from repro.netlist.writers import write_verilog
        from repro.workloads.generators import counter_module

        path = tmp_path / "counter.v"
        path.write_text(write_verilog(counter_module("c", bits=4)))
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "full-custom skipped" in out


class TestFlattenCommand:
    def test_to_stdout(self, hierarchical_file, capsys):
        assert main(["flatten", str(hierarchical_file)]) == 0
        out = capsys.readouterr().out
        assert "module top" in out
        assert "u1__g1" in out

    def test_to_file_and_reparse(self, hierarchical_file, tmp_path,
                                 capsys):
        out_path = tmp_path / "flat.v"
        assert main(
            ["flatten", str(hierarchical_file), "--output", str(out_path)]
        ) == 0
        from repro.netlist.verilog import parse_verilog

        flat = parse_verilog(out_path.read_text())
        assert flat.device_count == 4

    def test_explicit_top(self, hierarchical_file, capsys):
        assert main(
            ["flatten", str(hierarchical_file), "--top", "leaf"]
        ) == 0
        out = capsys.readouterr().out
        assert "module leaf" in out

    def test_flat_output_estimable(self, hierarchical_file, tmp_path,
                                   capsys):
        out_path = tmp_path / "flat.v"
        main(["flatten", str(hierarchical_file), "--output", str(out_path)])
        capsys.readouterr()
        assert main(["estimate", str(out_path)]) == 0
        assert "standard-cell" in capsys.readouterr().out


class TestEcoCommand:
    def _sample(self, verilog_file, tmp_path, count=6, extra=()):
        edits = tmp_path / "edits.json"
        code = main([
            "eco", str(verilog_file), "--edits", str(edits),
            "--sample", str(count), "--seed", "7", *extra,
        ])
        return code, edits

    def test_sample_writes_edits_and_verifies(self, verilog_file,
                                              tmp_path, capsys):
        code, edits = self._sample(verilog_file, tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "6 random edit(s) written" in out
        assert "before ECO:" in out
        assert "after ECO (revision 6)" in out
        assert "area delta:" in out
        assert "bit-identical" in out
        document = json.loads(edits.read_text())
        assert document["schema_version"] == 1
        assert len(document["edits"]) == 6

    def test_replay_matches_sample_run(self, verilog_file, tmp_path,
                                       capsys):
        code, edits = self._sample(verilog_file, tmp_path)
        assert code == 0
        sampled = capsys.readouterr().out
        assert main(["eco", str(verilog_file), "--edits", str(edits)]) == 0
        replayed = capsys.readouterr().out
        # Replay skips the "written" banner but lands on the identical
        # after-ECO state.
        assert sampled.splitlines()[-3:] == replayed.splitlines()[-3:]

    def test_step_prints_per_edit_trajectory(self, verilog_file,
                                             tmp_path, capsys):
        code, _ = self._sample(verilog_file, tmp_path, count=4,
                               extra=("--step",))
        assert code == 0
        out = capsys.readouterr().out
        assert "[  1]" in out and "[  4]" in out

    def test_missing_edits_file_fails(self, verilog_file, tmp_path,
                                      capsys):
        absent = tmp_path / "absent.json"
        assert main(["eco", str(verilog_file),
                     "--edits", str(absent)]) == 1
        assert "cannot read edits file" in capsys.readouterr().err

    def test_malformed_edits_file_fails(self, verilog_file, tmp_path,
                                        capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "edits": [{"op": "warp"}]}')
        assert main(["eco", str(verilog_file), "--edits", str(bad)]) == 1
        assert "unknown edit op" in capsys.readouterr().err

    def test_mistyped_op_fails_cleanly(self, verilog_file, tmp_path,
                                       capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "edits": [{"op": []}]}')
        assert main(["eco", str(verilog_file), "--edits", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown edit op")
        assert "Traceback" not in err

    def test_fixed_rows(self, verilog_file, tmp_path, capsys):
        code, _ = self._sample(verilog_file, tmp_path, count=3,
                               extra=("--rows", "2"))
        assert code == 0
        assert "2 rows" in capsys.readouterr().out

    def test_no_verify_skips_the_gate(self, verilog_file, tmp_path,
                                      capsys):
        code, _ = self._sample(verilog_file, tmp_path,
                               extra=("--no-verify",))
        assert code == 0
        assert "bit-identical" not in capsys.readouterr().out
