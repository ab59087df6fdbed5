"""The calibration harness, the committed envelope artifact, the
``frontend_accuracy`` verify gate, and the ``mae synth`` /
``mae calibrate`` command surfaces.

Everything here is hermetic: the reference areas come from the
committed toy ``.lib`` (Liberty cell-area sum times the PDN margin),
so the suite passes with or without a ``yosys`` binary; the synthesis
paths are exercised through ``find_yosys`` fallbacks and a canned
``stat -liberty`` log.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.errors import FrontendError, VerificationError
from repro.frontend.calibrate import (
    DEFAULT_PDN_MARGIN,
    default_envelope_path,
    fit_correction_factor,
    fixture_blifs,
    fixture_liberty,
    measure_frontend_envelope,
    reference_area,
)
from repro.frontend.liberty import read_liberty
from repro.frontend.yosys import (
    SynthesisResult,
    find_yosys,
    parse_yosys_stat,
    synthesis_commands,
)
from repro.verify.checks import check_frontend_accuracy
from repro.verify.envelope import load_envelope

#: A band no fixture's residual fits inside.
NARROW = {"standard-cell": {"residual": (-1e-12, 1e-12)}}


class TestFit:
    def test_exact_proportional_data(self):
        # reference = 2.5 * estimate exactly -> factor 2.5, residual 0
        pairs = [(10.0, 25.0), (4.0, 10.0), (100.0, 250.0)]
        assert fit_correction_factor(pairs) == pytest.approx(2.5)

    def test_least_squares_not_mean_of_ratios(self):
        # Minimising sum((ref - f*est)^2) gives
        # f = sum(est*ref)/sum(est^2), which weights large designs.
        pairs = [(1.0, 2.0), (10.0, 10.0)]
        assert fit_correction_factor(pairs) == pytest.approx(102.0 / 101.0)

    def test_rejects_empty_and_degenerate(self):
        with pytest.raises(FrontendError, match="cannot fit"):
            fit_correction_factor([])
        with pytest.raises(FrontendError, match="cannot fit"):
            fit_correction_factor([(0.0, 5.0)])

    def test_reference_area_needs_positive_margin(self):
        from repro.frontend.blif import parse_blif

        library = read_liberty(fixture_liberty())
        module = parse_blif(
            ".model m\n.inputs a\n.outputs y\n.gate INV a=a y=y\n.end\n"
        )
        inv_area = library.cell("INV").area
        assert reference_area(module, library, 2.0) == \
            pytest.approx(2.0 * inv_area)
        with pytest.raises(FrontendError, match="positive"):
            reference_area(module, library, 0.0)


class TestMeasure:
    def test_calibration_mode_derives_band(self):
        record = measure_frontend_envelope(slack=0.01)
        assert record.kind == "frontend"
        summary = record.summary["standard-cell"]
        assert summary["cases"] == len(fixture_blifs())
        assert summary["violations"] == 0
        low, high = record.bounds["standard-cell"]["residual"]
        assert low == pytest.approx(summary["residual"]["min"] - 0.01)
        assert high == pytest.approx(summary["residual"]["max"] + 0.01)
        for point in record.points:
            assert point["within"]
            assert point["estimated"] > 0
            assert point["reference"] > 0

    def test_gating_mode_uses_committed_bounds(self):
        record = measure_frontend_envelope(bounds=NARROW)
        assert record.summary["standard-cell"]["violations"] > 0

    def test_margin_scales_reference_not_residuals(self):
        """Doubling the PDN margin halves the fitted factor but leaves
        the (scale-free) residual pattern untouched."""
        base = measure_frontend_envelope(pdn_margin=DEFAULT_PDN_MARGIN)
        doubled = measure_frontend_envelope(
            pdn_margin=2 * DEFAULT_PDN_MARGIN
        )
        assert doubled.summary["factor"] == \
            pytest.approx(2 * base.summary["factor"])
        for a, b in zip(base.points, doubled.points):
            assert a["residual"] == pytest.approx(b["residual"])

    def test_negative_slack_rejected(self):
        with pytest.raises(FrontendError, match="slack"):
            measure_frontend_envelope(slack=-0.1)


class TestArtifact:
    def test_round_trip(self, tmp_path):
        record = measure_frontend_envelope()
        path = record.save(tmp_path / "envelope.json")
        assert load_envelope(path, "frontend") == record
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == record.to_dict()

    def test_wrong_schema_rejected(self, tmp_path):
        data = load_envelope(default_envelope_path(), "frontend").to_dict()
        data["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(VerificationError, match="schema"):
            load_envelope(path, "frontend")


class TestFrontendAccuracyCheck:
    @staticmethod
    def committed():
        return load_envelope(default_envelope_path(), "frontend")

    def test_passes_against_committed_envelope(self):
        result = check_frontend_accuracy()
        assert result.passed, result.detail

    def test_fails_on_factor_drift(self, tmp_path):
        record = self.committed()
        drifted = dataclasses.replace(record, summary=dict(
            record.summary, factor=record.summary["factor"] * 1.01
        ))
        path = drifted.save(tmp_path / "drifted.json")
        result = check_frontend_accuracy(str(path))
        assert not result.passed
        assert "factor" in result.detail

    def test_fails_on_narrowed_band(self, tmp_path):
        narrow = dataclasses.replace(self.committed(), bounds=NARROW)
        path = narrow.save(tmp_path / "narrow.json")
        result = check_frontend_accuracy(str(path))
        assert not result.passed
        assert "accuracy band" in result.detail

    def test_fails_on_fixture_set_drift(self, tmp_path):
        record = self.committed()
        short = dataclasses.replace(record, provenance=dict(
            record.provenance, fixtures=record.provenance["fixtures"][:-1]
        ))
        path = short.save(tmp_path / "short.json")
        result = check_frontend_accuracy(str(path))
        assert not result.passed
        assert "fixture set" in result.detail

    def test_missing_artifact_is_actionable(self, tmp_path):
        result = check_frontend_accuracy(str(tmp_path / "none.json"))
        assert not result.passed
        assert "mae calibrate" in result.detail

    def test_missing_field_is_actionable(self, tmp_path):
        data = self.committed().to_dict()
        del data["provenance"]["pdn_margin"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        result = check_frontend_accuracy(str(path))
        assert not result.passed
        assert "pdn_margin" in result.detail
        assert "mae calibrate" in result.detail


class TestCalibrateCommand:
    def test_writes_report(self, tmp_path, capsys):
        report = tmp_path / "envelope.json"
        assert main(["calibrate", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "fitted correction factor" in out
        assert "stated accuracy band" in out
        assert "mae verify --skip-envelope --check frontend_accuracy" \
            in out
        record = load_envelope(report, "frontend")
        assert record.summary["standard-cell"]["violations"] == 0

    def test_custom_margin_and_slack(self, tmp_path):
        report = tmp_path / "envelope.json"
        assert main([
            "calibrate", "--report", str(report),
            "--pdn-margin", "2.0", "--slack", "0.1",
        ]) == 0
        record = load_envelope(report, "frontend")
        assert record.provenance["pdn_margin"] == 2.0
        assert record.provenance["slack"] == 0.1

    def test_bad_fixture_dir_is_typed_error(self, tmp_path, capsys):
        assert main([
            "calibrate", "--fixtures", str(tmp_path / "empty"),
            "--report", str(tmp_path / "r.json"),
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestSynthCommand:
    @pytest.fixture
    def no_yosys(self, monkeypatch):
        """Hide any yosys the host (e.g. the nightly CI job) has."""
        monkeypatch.delenv("MAE_YOSYS", raising=False)
        monkeypatch.setattr("shutil.which", lambda name: None)

    def test_skips_gracefully_without_yosys(
        self, no_yosys, tmp_path, capsys
    ):
        rtl = tmp_path / "x.v"
        rtl.write_text("module x; endmodule\n")
        assert main([
            "synth", str(rtl), "--liberty", str(fixture_liberty()),
        ]) == 0
        assert "skipping synthesis" in capsys.readouterr().out

    def test_require_fails_without_yosys(
        self, no_yosys, tmp_path, capsys
    ):
        rtl = tmp_path / "x.v"
        rtl.write_text("module x; endmodule\n")
        assert main([
            "synth", str(rtl), "--liberty", str(fixture_liberty()),
            "--require",
        ]) == 1
        assert "no yosys binary found" in capsys.readouterr().err

    def test_explicit_missing_binary_is_an_error(self, no_yosys):
        with pytest.raises(FrontendError, match="not found"):
            find_yosys("definitely-not-a-yosys-binary")
        assert find_yosys() is None

    def test_synthesis_recipe(self):
        commands = synthesis_commands(
            "design.v", "cells.lib", top="alu", blif_out="out.blif"
        )
        assert commands[0] == "read_liberty -lib cells.lib"
        assert "hierarchy -check -top alu" in commands
        assert "dfflibmap -liberty cells.lib" in commands
        assert "abc -liberty cells.lib" in commands
        assert "stat -liberty cells.lib" in commands
        assert commands[-1] == "write_blif out.blif"
        # Without a top module the recipe auto-detects.
        assert "hierarchy -check -auto-top" in synthesis_commands(
            "design.v", "cells.lib"
        )

    def test_parse_stat_log(self):
        log = (
            "=== fx_rtl_alu ===\n"
            "   Number of cells:                 23\n"
            "     12  NAND2\n"
            "      8  INV\n"
            "      3  DFF\n"
            "\n"
            "   Chip area for module '\\fx_rtl_alu': 18230.000000\n"
        )
        result = parse_yosys_stat(log, "mapped.blif")
        assert result.top == "fx_rtl_alu"
        assert result.chip_area_um2 == 18230.0
        assert dict(result.cell_counts) == {
            "NAND2": 12, "INV": 8, "DFF": 3,
        }
        assert result.blif_path == "mapped.blif"
        record = result.to_dict()
        assert record["chip_area_um2"] == 18230.0
        assert record["cell_counts"]["DFF"] == 3

    def test_parse_stat_log_without_area_fails(self):
        with pytest.raises(FrontendError, match="Chip area"):
            parse_yosys_stat("nothing useful here\n")

    def test_result_is_frozen(self):
        result = SynthesisResult(top="x", chip_area_um2=1.0)
        with pytest.raises(AttributeError):
            result.top = "y"
