"""The ``mae verify`` subcommand."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.errors import VerificationError
from repro.verify import (
    SeedRecord,
    draw_corpus,
    load_records,
    replay_records,
    save_records,
)
from repro.verify.envelope import load_envelope


class TestVerifyCommand:
    def test_smoke_sweep_passes(self, capsys):
        assert main(["verify", "--seeds", "6", "--skip-envelope"]) == 0
        out = capsys.readouterr().out
        assert "all gates passed" in out
        assert "plan_vs_direct" in out

    def test_envelope_sweep_and_report(self, tmp_path, capsys):
        report = tmp_path / "VERIFY_envelope.json"
        assert main([
            "verify", "--seeds", "6", "--report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "envelope area[standard-cell]" in out
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert len(data["envelopes"]["area"]["points"]) == 6

    def test_injection_caught_with_records(self, tmp_path, capsys):
        records = tmp_path / "seeds.json"
        assert main([
            "verify", "--seeds", "6", "--skip-envelope",
            "--inject", "1.3", "--records", str(records),
        ]) == 0
        out = capsys.readouterr().out
        assert "caught as expected" in out
        assert records.exists()
        data = json.loads(records.read_text())
        assert data["records"]
        assert any(
            entry["check"] == "plan_vs_direct"
            for entry in data["records"]
        )

    def test_uncaught_injection_is_an_error(self, capsys):
        # A perturbation of exactly 1.0 changes nothing; demanding it
        # be caught must fail loudly (the harness self-test's
        # contrapositive).
        assert main([
            "verify", "--seeds", "4", "--skip-envelope", "--inject", "1.0",
        ]) == 1
        assert "NOT caught" in capsys.readouterr().err

    def test_named_check_on_no_case_is_an_error(self, capsys):
        """The corpus draws its full-custom families first, so three
        seeds give plan_vs_direct no case: a named check that ran on
        nothing fails instead of reading as passed."""
        assert main([
            "verify", "--seeds", "3", "--skip-envelope",
            "--check", "plan_vs_direct",
        ]) == 1
        captured = capsys.readouterr()
        assert "skip plan_vs_direct: no applicable case among 3" in (
            captured.out
        )
        assert "all gates passed" not in captured.out
        assert "error: --check plan_vs_direct" in captured.err

    def test_injection_names_gates_that_ran_on_no_case(self, capsys):
        assert main([
            "verify", "--seeds", "3", "--skip-envelope", "--inject", "1.3",
        ]) == 1
        err = capsys.readouterr().err
        assert "plan_vs_direct not run: no applicable case among 3" in err
        assert "blind" not in err

    def test_injection_must_trip_plan_vs_direct(self, tmp_path, monkeypatch,
                                                capsys):
        """A blind plan_vs_direct fails the self-test even when another
        gate (backend_equivalence, on a NumPy host) catches its fault."""
        from repro.verify import checks, runner

        blind = dataclasses.replace(
            checks.check_named("plan_vs_direct"),
            run=lambda case: checks.CheckResult("plan_vs_direct", True),
        )
        monkeypatch.setattr(runner, "CHECKS", tuple(
            blind if check.name == blind.name else check
            for check in checks.CHECKS
        ))
        monkeypatch.setitem(checks._BY_NAME, blind.name, blind)
        assert main([
            "verify", "--inject", "1.3", "--seeds", "6", "--skip-envelope",
            "--records", str(tmp_path / "seeds.json"),
        ]) == 1
        assert "NOT caught by plan_vs_direct" in capsys.readouterr().err

    def test_replay_of_fixed_records(self, tmp_path, capsys):
        records = tmp_path / "seeds.json"
        assert main([
            "verify", "--seeds", "6", "--skip-envelope",
            "--inject", "1.3", "--records", str(records),
        ]) == 0
        capsys.readouterr()
        # Without the injected fault the records no longer reproduce.
        assert main(["verify", "--replay", str(records)]) == 0
        out = capsys.readouterr().out
        assert "0 still failing" in out

    def test_replay_of_still_failing_records_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        records = tmp_path / "seeds.json"
        assert main([
            "verify", "--seeds", "6", "--skip-envelope",
            "--inject", "1.3", "--records", str(records),
        ]) == 0
        capsys.readouterr()
        from repro.verify.inject import perturbed_standard_cell

        with perturbed_standard_cell(1.3):
            assert main(["verify", "--replay", str(records)]) == 1
        assert "still reproduce" in capsys.readouterr().err

    def test_replay_of_a_removed_check_names_it(self, tmp_path, capsys):
        """A record file naming a check that no longer exists replays
        to a typed error naming that check, not a KeyError."""
        records = tmp_path / "old.json"
        save_records(records, [SeedRecord(
            spec=draw_corpus(1)[0], check="batch_jobs", stage="equivalence",
        )])
        with pytest.raises(VerificationError,
                           match="unknown check 'batch_jobs'"):
            replay_records(load_records(records))
        assert main(["verify", "--replay", str(records)]) == 1
        assert "unknown check 'batch_jobs'" in capsys.readouterr().err

    def test_deterministic_base_seed(self, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main([
                "verify", "--seeds", "5", "--skip-envelope",
                "--base-seed", "11", "--report", str(path),
            ]) == 0
            reports.append(json.loads(path.read_text()))
        assert reports[0] == reports[1]

    def test_check_filter_runs_only_named_checks(self, capsys):
        assert main([
            "verify", "--seeds", "4", "--skip-envelope",
            "--check", "incremental_equivalence",
        ]) == 0
        out = capsys.readouterr().out
        assert "incremental_equivalence" in out
        assert "plan_vs_direct" not in out

    def test_check_filter_is_repeatable(self, capsys):
        assert main([
            "verify", "--seeds", "4", "--skip-envelope",
            "--check", "incremental_equivalence",
            "--check", "plan_vs_direct",
        ]) == 0
        out = capsys.readouterr().out
        assert "incremental_equivalence" in out
        assert "plan_vs_direct" in out

    def test_unknown_check_is_a_usage_error(self, capsys):
        """A misspelled gate must not pass vacuously."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "verify", "--seeds", "3", "--skip-envelope",
                "--check", "incremental_equivalnce",
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown check 'incremental_equivalnce'" in err

    def test_reports_write_the_points_the_sweep_measured(
        self, tmp_path, capsys
    ):
        pytest.importorskip("numpy")
        report = tmp_path / "report.json"
        backend = tmp_path / "backend.json"
        congestion = tmp_path / "congestion.json"
        assert main([
            "verify", "--seeds", "4", "--skip-envelope",
            "--check", "congestion_oracle",
            "--check", "backend_equivalence",
            "--report", str(report),
            "--backend-report", str(backend),
            "--congestion-report", str(congestion),
        ]) == 0
        assert "congestion envelope written" in capsys.readouterr().out
        for path, kind in ((backend, "backend"),
                           (congestion, "congestion")):
            assert load_envelope(path, kind) == load_envelope(report, kind)

    def test_report_flag_needs_its_check(self, tmp_path, capsys):
        assert main([
            "verify", "--seeds", "3", "--skip-envelope",
            "--congestion-report", str(tmp_path / "c.json"),
        ]) == 1
        assert "measured no congestion envelope points" in \
            capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()
