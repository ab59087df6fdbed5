"""Tests for the mae command-line tool."""

import json

import pytest

from repro.cli import main
from repro.netlist.writers import write_spice, write_verilog


@pytest.fixture
def verilog_file(half_adder, tmp_path):
    path = tmp_path / "ha.v"
    path.write_text(write_verilog(half_adder))
    return path


@pytest.fixture
def spice_file(transistor_module, tmp_path):
    path = tmp_path / "x.sp"
    path.write_text(write_spice(transistor_module))
    return path


class TestEstimateCommand:
    def test_both_methodologies(self, verilog_file, capsys):
        assert main(["estimate", str(verilog_file)]) == 0
        out = capsys.readouterr().out
        assert "standard-cell:" in out
        assert "full-custom (exact areas):" in out
        assert "recommended methodology:" in out

    def test_single_methodology(self, verilog_file, capsys):
        assert main(
            ["estimate", str(verilog_file), "--methodology", "standard-cell"]
        ) == 0
        out = capsys.readouterr().out
        assert "standard-cell:" in out
        assert "full-custom" not in out

    def test_fixed_rows(self, verilog_file, capsys):
        assert main(["estimate", str(verilog_file), "--rows", "2"]) == 0
        assert "2 rows" in capsys.readouterr().out

    def test_spice_input(self, spice_file, capsys):
        assert main(
            ["estimate", str(spice_file), "--methodology", "full-custom"]
        ) == 0
        assert "full-custom" in capsys.readouterr().out

    def test_output_database(self, verilog_file, tmp_path, capsys):
        out_path = tmp_path / "db.json"
        assert main(
            ["estimate", str(verilog_file), "--output", str(out_path)]
        ) == 0
        data = json.loads(out_path.read_text())
        assert data["modules"][0]["module_name"] == "half_adder"

    def test_cmos_process(self, verilog_file, capsys):
        assert main(
            ["estimate", str(verilog_file), "--tech", "cmos"]
        ) == 0

    def test_missing_file_is_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.v"
        with pytest.raises(SystemExit):
            main(["estimate"])  # argparse: missing positional
        # runtime error path: file does not parse
        missing.write_text("garbage")
        assert main(["estimate", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


    def test_exact_backend_answers_a_high_fanout_net(self, tmp_path, capsys):
        # 400 flip-flops on one clock net: the exact row-spread kernel
        # once raised a bare OverflowError here.
        flops = 400
        lines = ["module clocked (clk, d, q);", "  input clk, d;",
                 "  output q;"]
        for i in range(flops):
            source = "d" if i == 0 else f"n{i - 1}"
            sink = "q" if i == flops - 1 else f"n{i}"
            lines.append(
                f"  DFF f{i} (.d({source}), .clk(clk), .q({sink}));"
            )
        lines.append("endmodule")
        path = tmp_path / "clocked.v"
        path.write_text("\n".join(lines) + "\n")
        assert main(["--backend", "exact", "estimate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 nets of D=400" in out
        assert "standard-cell:" in out


class TestScanCommand:
    def test_prints_statistics(self, verilog_file, capsys):
        assert main(["scan", str(verilog_file)]) == 0
        out = capsys.readouterr().out
        assert "N=2" in out
        assert "width histogram" in out


class TestProcessCommands:
    def test_list(self, capsys):
        assert main(["process", "list"]) == 0
        out = capsys.readouterr().out
        assert "nmos" in out and "cmos" in out

    def test_show(self, capsys):
        assert main(["process", "show", "--tech", "nmos"]) == 0
        out = capsys.readouterr().out
        assert "row height" in out
        assert "INV" in out

    def test_export_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "nmos.json"
        assert main(["process", "export", str(out_path)]) == 0
        from repro.technology.loader import load_process_file

        process = load_process_file(out_path)
        assert process.lambda_um == 2.5


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "commands" in capsys.readouterr().out

    def test_backend_selection_ends_with_the_command(
        self, monkeypatch, capsys
    ):
        """``$MAE_BACKEND`` / ``--backend`` hold for one command; an
        in-process caller keeps its own default afterwards."""
        pytest.importorskip("numpy")
        from repro.perf.backends import BACKEND_ENV_VAR, current_backend_name

        before = current_backend_name()
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert main(["process", "list"]) == 0
        assert current_backend_name() == before
        assert main(["--backend", "numpy", "process", "list"]) == 0
        assert current_backend_name() == before

    def test_pla_experiment_runs(self, capsys):
        assert main(["pla"]) == 0
        out = capsys.readouterr().out
        assert "R^2" in out

    def test_central_row_runs(self, capsys):
        assert main(["central-row"]) == 0
        assert "central" in capsys.readouterr().out
