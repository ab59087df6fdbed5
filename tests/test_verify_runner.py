"""The verify runner end to end: sweeps, envelopes, injection, records.

The acceptance loop of ISSUE 4 in miniature: a healthy estimator passes
every gate; a deliberately perturbed one is caught, shrunk to a minimal
module, and persisted as a seed record that replays.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from repro.errors import VerificationError
from repro.obs.trace import Tracer, use_tracer
from repro.verify.checks import (
    CHECKS,
    ONCE_PER_CORPUS,
    ONCE_PER_SWEEP,
    check_named,
)
from repro.verify.corpus import draw_corpus
from repro.verify.envelope import AREA_BOUNDS, ENVELOPE_SCHEMA_VERSION
from repro.verify.inject import perturbed_standard_cell
from repro.verify.records import (
    RECORD_SCHEMA_VERSION,
    SeedRecord,
    load_records,
    save_records,
)
from repro.verify.runner import (
    VerifyOptions,
    replay_records,
    run_verify,
)

FAST = VerifyOptions(seeds=8, check_envelope=False)


class TestHealthySweep:
    def test_all_gates_pass(self):
        report = run_verify(FAST)
        assert report.passed, report.check_counts
        assert report.failures == []
        assert set(report.gates) == {
            "equivalence", "metamorphic", "envelope"
        }

    def test_envelope_sweep(self):
        report = run_verify(VerifyOptions(seeds=6))
        assert report.passed
        summary = report.envelopes["area"].summary
        cases = sum(entry["cases"] for entry in summary.values())
        assert cases == 6
        assert all(
            entry["violations"] == 0 for entry in summary.values()
        )

    def test_deterministic_in_base_seed(self):
        a = run_verify(FAST)
        b = run_verify(FAST)
        assert a.to_dict() == b.to_dict()

    def test_report_json_shape(self, tmp_path):
        report = run_verify(VerifyOptions(seeds=6))
        path = report.save(tmp_path / "VERIFY_envelope.json")
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert data["schema_version"] == ENVELOPE_SCHEMA_VERSION
        assert len(data["cases"]) == 6
        assert len(data["envelopes"]["area"]["points"]) == 6
        assert data["gates"] == {
            "equivalence": True, "metamorphic": True, "envelope": True
        }

    def test_stages_traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_verify(FAST)
        names = tracer.span_names()
        for stage in ("verify.corpus", "verify.equivalence",
                      "verify.metamorphic", "verify.shrink"):
            assert names.get(stage) == 1, names


class TestInjectionIsCaught:
    def test_caught_and_shrunk(self):
        with perturbed_standard_cell(1.25):
            report = run_verify(FAST)
        assert not report.passed
        assert not report.gates["equivalence"]
        plan_failures = [
            record for record in report.failures
            if record.check == "plan_vs_direct"
        ]
        assert plan_failures
        for record in plan_failures:
            # The greedy shrinker reaches a minimal (single-device)
            # module: the perturbation is global, so any device suffices.
            assert record.shrunk_device_count == 1
            assert record.shrunk_devices is not None

    def test_record_round_trip_and_replay(self, tmp_path):
        with perturbed_standard_cell(1.25):
            report = run_verify(VerifyOptions(seeds=4,
                                              check_envelope=False))
        assert report.failures
        path = save_records(tmp_path / "seeds.json", report.failures)
        loaded = load_records(path)
        assert loaded == report.failures

        # Under injection the failure still reproduces...
        with perturbed_standard_cell(1.25):
            replayed = replay_records(loaded)
        assert all(not result.passed for _, result in replayed)
        # ...and with the fault removed, every record is fixed.
        replayed = replay_records(loaded)
        assert all(result.passed for _, result in replayed)

    def test_tiny_envelope_violation_caught(self):
        bounds = dict(AREA_BOUNDS)
        bounds["standard-cell"] = {"error": (-0.0001, 0.0001)}
        report = run_verify(VerifyOptions(seeds=6,
                                          bounds={"area": bounds}))
        assert not report.gates["envelope"]
        assert any(
            record.check == "envelope" for record in report.failures
        )


class TestRecordValidation:
    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema_version": RECORD_SCHEMA_VERSION + 1, "records": []}
        ))
        with pytest.raises(VerificationError, match="schema_version"):
            load_records(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(VerificationError, match="not valid JSON"):
            load_records(path)

    def test_rejects_malformed_record(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema_version": RECORD_SCHEMA_VERSION,
            "records": [{"check": "plan_vs_direct"}],
        }))
        with pytest.raises(VerificationError):
            load_records(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(VerificationError, match="cannot read"):
            load_records(tmp_path / "absent.json")

    def test_record_dict_round_trip(self):
        from repro.verify.corpus import CaseSpec

        record = SeedRecord(
            spec=CaseSpec.make("adder", 3, {"bits": 4}),
            check="plan_vs_direct",
            stage="equivalence",
            detail="area: 1.0 != 2.0",
            shrunk_devices=("fa0",),
            shrunk_device_count=1,
        )
        assert SeedRecord.from_dict(record.to_dict()) == record


class TestCheckFilter:
    def test_filter_restricts_equivalence_and_metamorphic(self):
        report = run_verify(VerifyOptions(
            seeds=4, check_envelope=False,
            checks=("incremental_equivalence",),
        ))
        assert report.passed
        names = set(report.check_counts)
        assert "incremental_equivalence" in names
        assert "plan_vs_direct" not in names
        assert "shared_within_upper_bound" not in names

    def test_no_filter_runs_everything(self):
        report = run_verify(VerifyOptions(seeds=4, check_envelope=False))
        assert "incremental_equivalence" in report.check_counts
        assert "plan_vs_direct" in report.check_counts

    def test_wants_defaults_to_all(self):
        options = VerifyOptions(seeds=1)
        assert options.wants(check_named("batch_jobs"))
        assert options.wants(check_named("envelope"))
        filtered = VerifyOptions(seeds=1, checks=("plan_vs_direct",))
        assert filtered.wants(check_named("plan_vs_direct"))
        assert not filtered.wants(check_named("batch_jobs"))

    def test_skip_envelope_drops_only_envelope_checks(self):
        options = VerifyOptions(seeds=1, check_envelope=False)
        assert options.wants(check_named("plan_vs_direct"))
        assert not options.wants(check_named("envelope"))
        assert not options.wants(check_named("frontend_accuracy"))
        # A named check always runs.
        named = VerifyOptions(seeds=1, check_envelope=False,
                              checks=("frontend_accuracy",))
        assert named.wants(check_named("frontend_accuracy"))

    def test_named_envelope_check_runs_alone(self):
        """Without --skip-envelope, --check X runs only X: the area
        envelope no longer rides along."""
        report = run_verify(VerifyOptions(
            seeds=4, checks=("caches_identity",),
        ))
        assert set(report.check_counts) == {"caches_identity"}
        assert report.envelopes == {}

    def test_unknown_check_name_raises(self):
        with pytest.raises(VerificationError,
                           match="unknown check 'incremental_equivalnce'"):
            run_verify(VerifyOptions(
                seeds=3, check_envelope=False,
                checks=("incremental_equivalnce",),
            ))


class TestRegistryCalls:
    """Every call goes through the registry, so counting there counts
    every check execution of a sweep."""

    @staticmethod
    def counting(monkeypatch):
        import repro.verify.runner as runner_module

        calls = []

        def counted(check):
            def run(case):
                calls.append((check.name, case.spec.label))
                return check.run(case)

            return dataclasses.replace(check, run=run)

        monkeypatch.setattr(
            runner_module, "CHECKS", tuple(counted(c) for c in CHECKS)
        )
        return calls

    def test_each_applicable_check_runs_once_per_case(self, monkeypatch):
        calls = self.counting(monkeypatch)
        report = run_verify(VerifyOptions(seeds=8, check_envelope=False))
        assert report.passed
        assert len(calls) == len(set(calls)), Counter(calls).most_common(3)
        specs = draw_corpus(8)
        expected = {}
        for check in CHECKS:
            if check.stage == "envelope":
                continue
            if check.applies == ONCE_PER_CORPUS:
                expected[check.name] = 1
            else:
                assert check.applies != ONCE_PER_SWEEP
                expected[check.name] = sum(
                    1 for spec in specs if check.applies_to(spec)
                )
        expected = {name: n for name, n in expected.items() if n}
        assert Counter(name for name, _ in calls) == expected
        assert {
            name: counts["passed"] + counts["failed"]
            for name, counts in report.check_counts.items()
        } == expected

    def test_frontend_filter_runs_no_module_check(self, monkeypatch):
        calls = self.counting(monkeypatch)
        report = run_verify(VerifyOptions(
            seeds=8, check_envelope=False, checks=("frontend_accuracy",),
        ))
        assert report.passed
        assert [name for name, _ in calls] == ["frontend_accuracy"]
