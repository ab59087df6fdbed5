"""Equivalence/metamorphic checks and the greedy shrinker."""

from __future__ import annotations

import pytest

from repro.errors import EstimationError
from repro.verify.checks import (
    check_area_monotone_in_devices,
    check_backend_equivalence,
    check_caches_identity,
    check_incremental_equivalence,
    check_plan_vs_direct,
    check_row_sweep_sanity,
    check_shared_within_upper_bound,
    check_sharing_factor_monotone,
    check_spread_mode_agreement,
    check_trace_identity,
)
from repro.verify.checks import CHECKS, EVERY_CASE, Case
from repro.verify.corpus import CaseSpec
from repro.verify.envelope import verification_schedule
from repro.verify.inject import perturbed_backend, perturbed_standard_cell
from repro.verify.shrink import ShrinkResult, shrink_module, without_devices
from repro.workloads.generators import random_gate_module


def registered_checks(module, process, methodology):
    """Every registered per-module check that applies to
    ``methodology``, run on ``module``."""
    family = "random" if methodology == "standard-cell" else "random_nmos"
    case = Case(
        CaseSpec.make(family, 0, {}), module, process,
        verification_schedule(), {},
    )
    return [
        check.run(case) for check in CHECKS
        if check.stage != "envelope"
        and check.applies in (EVERY_CASE, (methodology,))
    ]


@pytest.fixture(scope="module")
def module():
    return random_gate_module("chk", gates=18, inputs=4, outputs=2, seed=3)


class TestEquivalenceChecks:
    def test_all_pass_on_healthy_estimator(self, module, cmos):
        for result in registered_checks(module, cmos, "standard-cell"):
            assert result.passed, f"{result.name}: {result.detail}"

    def test_full_custom_scope(self, transistor_module, nmos):
        results = registered_checks(transistor_module, nmos, "full-custom")
        names = {result.name for result in results}
        # No plan / row knobs at transistor level.
        assert "plan_vs_direct" not in names
        assert "row_sweep_sanity" not in names
        assert all(result.passed for result in results)

    def test_plan_vs_direct_catches_injection(self, module, cmos):
        with perturbed_standard_cell(1.2):
            result = check_plan_vs_direct(module, cmos)
        assert not result.passed
        assert "diverges" in result.detail

    def test_injection_restores_on_exit(self, module, cmos):
        with perturbed_standard_cell(1.2):
            pass
        assert check_plan_vs_direct(module, cmos).passed

    def test_backend_injection_trips_after_warm_plans(self, module, cmos):
        """Estimates the plans memoized before the injection can
        neither hide the fault nor outlive it."""
        pytest.importorskip("numpy")
        assert check_backend_equivalence(module, cmos).passed
        with perturbed_backend(1.3):
            result = check_backend_equivalence(module, cmos)
        assert not result.passed
        assert "diverges" in result.detail
        assert check_backend_equivalence(module, cmos).passed

    def test_incremental_equivalence_passes(self, module, cmos):
        result = check_incremental_equivalence(module, cmos)
        assert result.passed, result.detail

    def test_incremental_equivalence_excluded_at_transistor_level(
        self, transistor_module, nmos
    ):
        results = registered_checks(transistor_module, nmos, "full-custom")
        assert "incremental_equivalence" not in {
            r.name for r in results
        }

    def test_incremental_equivalence_catches_divergence(
        self, module, cmos, monkeypatch
    ):
        """Skew the from-scratch side: the check must notice the
        incremental estimate no longer matches it."""
        import dataclasses as dc

        import repro.verify.checks as checks_mod

        original = checks_mod.estimate_standard_cell_from_stats

        def skewed(stats, process, config=None):
            estimate = original(stats, process, config)
            return dc.replace(estimate, area=estimate.area * 1.5)

        monkeypatch.setattr(
            checks_mod, "estimate_standard_cell_from_stats", skewed
        )
        result = check_incremental_equivalence(module, cmos)
        assert not result.passed
        assert "step 0" in result.detail

    def test_backend_equivalence_on_numpy_less_host(
        self, module, cmos, monkeypatch
    ):
        """No float backend to diverge: the check passes with a note and
        measures no envelope point (rather than raising)."""
        monkeypatch.setattr("repro.perf.backends.numpy64._np", None)
        result = check_backend_equivalence(module, cmos)
        assert result.passed
        assert result.point is None
        assert "unavailable" in result.detail

    def test_caches_and_trace_survive_injection(self, module, cmos):
        # The injected fault perturbs *consistently*, so identity checks
        # that compare the direct path against itself still pass —
        # catching it is plan_vs_direct's job.
        with perturbed_standard_cell(1.2):
            assert check_caches_identity(module, cmos, "standard-cell").passed
            assert check_trace_identity(module, cmos, "standard-cell").passed


class TestMetamorphicChecks:
    def test_shared_within_upper_bound(self, module, cmos):
        assert check_shared_within_upper_bound(module, cmos).passed

    def test_sharing_factor_monotone(self, module, cmos):
        assert check_sharing_factor_monotone(module, cmos).passed

    def test_spread_mode_agreement(self, module, cmos):
        assert check_spread_mode_agreement(module, cmos).passed

    def test_row_sweep_sanity(self, module, cmos):
        assert check_row_sweep_sanity(module, cmos).passed

    def test_area_monotone(self, cmos):
        spec = CaseSpec.make(
            "random", 7,
            {"gates": 10, "inputs": 4, "outputs": 2, "locality": 0.8},
        )
        grown = CaseSpec.make(
            "random", 7,
            {"gates": 16, "inputs": 4, "outputs": 2, "locality": 0.8},
        )
        result = check_area_monotone_in_devices(
            spec.build(), grown.build(), cmos, "standard-cell"
        )
        assert result.passed, result.detail

    def test_area_monotone_rejects_bad_pair(self, module, cmos):
        result = check_area_monotone_in_devices(
            module, module, cmos, "standard-cell"
        )
        assert not result.passed


class TestShrink:
    def test_shrinks_to_single_culprit(self, module):
        # "Failure" = the module still contains device g3.
        result = shrink_module(
            module, lambda candidate: candidate.has_device("g3")
        )
        assert isinstance(result, ShrinkResult)
        assert result.device_count == 1
        assert result.module.devices[0].name == "g3"
        assert set(result.removed) == {
            device.name for device in module.devices
        } - {"g3"}

    def test_requires_reproducing_input(self, module):
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_module(module, lambda candidate: False)

    def test_repro_error_counts_as_not_reproducing(self, module, cmos):
        from repro.core.standard_cell import estimate_standard_cell

        def failing(candidate):
            # Estimation raises EstimationError on an empty module; the
            # shrinker must treat that as "failure gone", never crash.
            if candidate.device_count == 0:
                raise EstimationError("empty")
            return estimate_standard_cell(candidate, cmos).area > 0

        result = shrink_module(module, failing)
        assert result.device_count == 1

    def test_respects_budget(self, module):
        result = shrink_module(
            module, lambda candidate: True, max_evaluations=5
        )
        assert result.evaluations <= 5
        # Budget exhausted mid-pass: some devices may remain.
        assert result.device_count >= 1

    def test_without_devices_preserves_ports_and_pins(self, module):
        survivor = without_devices(module, [module.devices[0].name])
        assert survivor.device_count == module.device_count - 1
        assert {p.name for p in survivor.ports} == {
            p.name for p in module.ports
        }
        for device in survivor.devices:
            assert dict(device.pins) == dict(module.device(device.name).pins)
