"""Tests for the batch estimation engine (:mod:`repro.perf`).

The load-bearing guarantee: the kernel cache and the batch executor are
*transparent* — every estimate they produce is bit-identical (dataclass
equality on float-carrying results) to the per-call seed path, over the
real paper suites, with caches on or off.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.standard_cell import estimate_standard_cell
from repro.errors import BenchmarkError, EstimationError
from repro.perf import (
    caches_disabled,
    clear_kernel_caches,
    kernel_cache_stats,
)
import repro.perf.batch as batch_module
from repro.obs.trace import Tracer, use_tracer
from repro.perf.batch import BATCH_METHODOLOGIES, estimate_batch
from repro.perf.bench import (
    SCHEMA_VERSION,
    load_bench_record,
    run_bench,
    synthetic_sweep_modules,
    validate_bench_record,
    write_bench_record,
)
from repro.perf.plan import clear_plan_cache
from repro.technology.libraries import nmos_process
from repro.workloads.generators import random_gate_module
from repro.workloads.suites import table1_suite, table2_suite


@pytest.fixture(scope="module")
def nmos():
    return nmos_process()


class TestBatchEquivalence:
    """estimate_batch must reproduce the per-call estimators exactly."""

    def test_table2_suite_bit_identical(self, nmos):
        cases = table2_suite()
        batch = estimate_batch(
            [case.module for case in cases],
            nmos,
            [[EstimatorConfig(rows=rc) for rc in case.row_counts]
             for case in cases],
            methodologies=("standard-cell",),
        )
        cursor = iter(batch)
        for case in cases:
            for row_count in case.row_counts:
                expected = estimate_standard_cell(
                    case.module, nmos, EstimatorConfig(rows=row_count)
                )
                assert next(cursor).estimate == expected
        with pytest.raises(StopIteration):
            next(cursor)

    def test_table1_suite_bit_identical(self, nmos):
        cases = table1_suite()
        configs = [
            EstimatorConfig().with_(device_area_mode="exact"),
            EstimatorConfig().with_(device_area_mode="average"),
        ]
        batch = estimate_batch(
            [case.module for case in cases],
            nmos,
            configs,
            methodologies=("full-custom",),
        )
        cursor = iter(batch)
        for case in cases:
            for config in configs:
                expected = estimate_full_custom(case.module, nmos, config)
                assert next(cursor).estimate == expected

    def test_cache_on_off_identical(self, nmos):
        module = table2_suite()[0].module
        config = EstimatorConfig(rows=4)
        clear_kernel_caches()
        cached = estimate_standard_cell(module, nmos, config)
        with caches_disabled():
            uncached = estimate_standard_cell(module, nmos, config)
        assert cached == uncached



class TestBatchShape:
    def test_result_ordering_and_task_metadata(self, nmos):
        modules = synthetic_sweep_modules(2)
        configs = [EstimatorConfig(rows=2), EstimatorConfig(rows=3)]
        results = estimate_batch(
            modules, nmos, configs, methodologies=BATCH_METHODOLOGIES
        )
        # module -> methodology -> config, all cross products present.
        triples = [
            (r.task.module_index, r.task.methodology, r.task.config.rows)
            for r in results
        ]
        assert triples == [
            (m, meth, rows)
            for m in (0, 1)
            for meth in BATCH_METHODOLOGIES
            for rows in (2, 3)
        ]
        assert results[0].task.module_name == modules[0].name

    def test_results_carry_their_plan(self, nmos):
        """A standard-cell result carries the plan that produced it; a
        full-custom result carries none; the plan is not compared."""
        modules = synthetic_sweep_modules(2)
        configs = [EstimatorConfig(rows=2), EstimatorConfig(rows=3)]
        results = estimate_batch(
            modules, nmos, configs, methodologies=BATCH_METHODOLOGIES
        )
        for result in results:
            if result.task.methodology == "full-custom":
                assert result.plan is None
            else:
                assert (result.plan.evaluate(result.estimate.rows)
                        == result.estimate)
            assert dataclasses.replace(result, plan=None) == result
        # Row-only configs run through one plan per module.
        for index in (0, 1):
            plans = {
                id(r.plan) for r in results
                if r.task.module_index == index
                and r.task.methodology == "standard-cell"
            }
            assert len(plans) == 1

    def test_single_config_broadcast(self, nmos):
        modules = synthetic_sweep_modules(2)
        results = estimate_batch(modules, nmos, EstimatorConfig(rows=3))
        assert len(results) == 2
        assert all(r.estimate.rows == 3 for r in results)

    def test_rejects_unknown_methodology(self, nmos):
        with pytest.raises(EstimationError):
            estimate_batch(
                synthetic_sweep_modules(1), nmos, EstimatorConfig(),
                methodologies=("gate-array",),
            )

    def test_rejects_mismatched_per_module_configs(self, nmos):
        with pytest.raises(EstimationError):
            estimate_batch(
                synthetic_sweep_modules(2), nmos,
                [[EstimatorConfig(rows=2)]],  # one group, two modules
            )

    def test_rejects_empty_configs(self, nmos):
        with pytest.raises(EstimationError):
            estimate_batch(synthetic_sweep_modules(1), nmos, [])


class TestKernelCache:
    def test_stats_populate_and_clear(self, nmos):
        clear_kernel_caches()
        estimate_batch(
            synthetic_sweep_modules(3), nmos,
            [EstimatorConfig(rows=rows) for rows in (2, 3, 4)],
        )
        stats = kernel_cache_stats()
        assert stats["tracks_for_net"].hits > 0
        assert stats["tracks_for_net"].entries > 0
        clear_kernel_caches()
        stats = kernel_cache_stats()
        assert all(
            s.hits == 0 and s.misses == 0 and s.entries == 0
            for s in stats.values()
        )

    def test_caches_disabled_records_bypasses_not_misses(self, nmos):
        """A disabled-cache call is a *bypass*: it is not a miss (the
        cache was never consulted) and must not drag down hit_rate."""
        clear_kernel_caches()
        module = synthetic_sweep_modules(1)[0]
        with caches_disabled():
            estimate_standard_cell(module, nmos, EstimatorConfig(rows=3))
            stats = kernel_cache_stats()
            assert all(s.hits == 0 and s.misses == 0 and s.entries == 0
                       for s in stats.values())
            assert any(s.bypasses > 0 for s in stats.values())
            assert all(s.hit_rate == 0.0 for s in stats.values())
        # Re-enabled: the same call is a miss again, and the bypass
        # count is excluded from the hit-rate denominator.
        estimate_standard_cell(module, nmos, EstimatorConfig(rows=3))
        stats = kernel_cache_stats()
        assert any(s.misses > 0 for s in stats.values())
        bypassed = [s for s in stats.values() if s.bypasses > 0]
        assert bypassed
        for s in bypassed:
            if s.hits or s.misses:
                assert s.hit_rate == s.hits / (s.hits + s.misses)


class TestScanReuse:
    """A later call over an unedited module reuses its scan; an edit,
    another scan signature, caches_disabled(), the tracer and
    clear_plan_cache() each force a fresh one."""

    CONFIGS = [EstimatorConfig(), EstimatorConfig(rows=3),
               EstimatorConfig(rows=5)]

    @pytest.fixture
    def scans(self, monkeypatch):
        """Names of the modules ``estimate_batch`` scans, in order."""
        seen = []
        original = batch_module.scan_for

        def counting(module, *args, **kwargs):
            seen.append(module.name)
            return original(module, *args, **kwargs)

        monkeypatch.setattr(batch_module, "scan_for", counting)
        return seen

    @staticmethod
    def _modules():
        return [
            random_gate_module(f"reuse{seed}", gates=30, inputs=4,
                               outputs=2, seed=seed)
            for seed in range(3)
        ]

    @staticmethod
    def _estimates(results):
        return [result.estimate for result in results]

    def test_unedited_modules_are_not_rescanned(self, nmos, scans):
        modules = self._modules()
        first = estimate_batch(modules, nmos, self.CONFIGS)
        assert len(scans) == len(modules)
        scans.clear()
        second = estimate_batch(modules, nmos, self.CONFIGS)
        assert scans == []
        assert self._estimates(second) == self._estimates(first)

    def test_an_edit_rescans_only_that_module(self, nmos, scans):
        modules = self._modules()
        estimate_batch(modules, nmos, self.CONFIGS)
        scans.clear()
        edited = modules[1]
        edited.remove_device(edited.devices[-1].name)
        warm = estimate_batch(modules, nmos, self.CONFIGS)
        assert scans == [edited.name]
        clear_plan_cache()
        scans.clear()
        cold = estimate_batch(modules, nmos, self.CONFIGS)
        assert len(scans) == len(modules)
        assert self._estimates(warm) == self._estimates(cold)

    def _warm(self, modules, nmos, scans):
        """Scan ``modules`` once, then check a repeat call reuses it."""
        estimate_batch(modules, nmos, self.CONFIGS)
        scans.clear()
        estimate_batch(modules, nmos, self.CONFIGS)
        assert scans == []

    def test_another_signature_rescans(self, nmos, scans):
        modules = self._modules()
        self._warm(modules, nmos, scans)
        estimate_batch(modules, nmos_process(), self.CONFIGS)
        estimate_batch(modules, nmos, EstimatorConfig(port_pitch_override=5))
        estimate_batch(modules, nmos, EstimatorConfig(power_nets=("vdd",)))
        assert len(scans) == 3 * len(modules)

    def test_a_renamed_module_is_rescanned(self, nmos, scans):
        module = self._modules()[0]
        self._warm([module], nmos, scans)
        module.name = "renamed"
        result = estimate_batch([module], nmos, self.CONFIGS)
        assert scans == ["renamed"]
        assert result[0].estimate.module_name == "renamed"

    def test_caches_disabled_and_tracer_rescan(self, nmos, scans):
        modules = self._modules()
        self._warm(modules, nmos, scans)
        with caches_disabled():
            estimate_batch(modules, nmos, self.CONFIGS)
        assert len(scans) == len(modules)
        scans.clear()
        tracer = Tracer()
        with use_tracer(tracer):
            estimate_batch(modules, nmos, self.CONFIGS)
        assert len(scans) == len(modules)
        assert tracer.metrics.counters()["scan.modules"] == len(modules)


HEAD_RECORD = Path(__file__).resolve().parent.parent / "BENCH_batch_engine.json"


def test_committed_head_is_a_full_current_record():
    """The committed trajectory head is a full-size run at the current
    schema; smoke runs are for CI only."""
    record = load_bench_record(HEAD_RECORD)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["smoke"] is False


def test_mae_bench_and_mae_bench_script_share_the_gates(
    tmp_path, monkeypatch, capsys
):
    """Both entry points parse the same flags and apply the same gates
    (the bench run itself is replaced by the committed head)."""
    import repro.perf.bench as bench
    from repro.cli import main as mae

    head = load_bench_record(HEAD_RECORD)
    del head["history"]
    monkeypatch.setattr(bench, "run_bench", lambda **kwargs: dict(head))
    output = ["--output", str(tmp_path / "bench.json"), "--modules", "8"]
    for entry, prefix in ((mae, ["bench"]), (bench.main, [])):
        assert entry(prefix + output + ["--assert-plan-speedup", "1.0"]) == 0
        assert "meets the required 1.00x" in capsys.readouterr().out
        assert entry(
            prefix + output + ["--assert-congestion-overhead", "0.5"]
        ) == 1
        assert "is above the allowed 0.50x" in capsys.readouterr().err


class TestBenchRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return run_bench(smoke=True)

    def test_smoke_record_validates(self, record):
        validate_bench_record(record)
        assert record["smoke"] is True
        assert record["equivalence"]["synthetic_jobs1"] is True

    def test_scored_overheads_are_recorded(self, record):
        speedups = record["speedups"]
        assert speedups["floorplan_scored_overhead"] > 0
        assert speedups["floorplan_scored_cold_overhead"] > 0
        # Records written before the cold ratio existed still validate.
        older = dict(speedups)
        del older["floorplan_scored_cold_overhead"]
        validate_bench_record({**record, "speedups": older})

    def test_round_trip(self, record, tmp_path):
        path = write_bench_record(record, tmp_path / "bench.json")
        assert load_bench_record(path) == json.loads(path.read_text())

    def test_rejects_wrong_schema_version(self, record):
        with pytest.raises(BenchmarkError):
            validate_bench_record({**record, "schema_version": 999})

    def test_rejects_failed_equivalence(self, record):
        broken = {**record, "equivalence": {"synthetic_jobs1": False}}
        with pytest.raises(BenchmarkError, match="not.*bit-identical"):
            validate_bench_record(broken)

    def test_rejects_missing_phases(self, record):
        with pytest.raises(BenchmarkError):
            validate_bench_record({**record, "phases": []})

    def test_rejects_non_numeric_speedup(self, record):
        broken = {**record, "speedups": {"x": "fast"}}
        with pytest.raises(BenchmarkError):
            validate_bench_record(broken)

    def test_carries_incremental_phase(self, record):
        """Schema v3: the ECO phases, section, and speedup are present
        and the incremental path stayed bit-identical."""
        phases = {p["name"] for p in record["phases"]}
        assert {"eco_rebuild_per_edit", "eco_incremental"} <= phases
        assert record["equivalence"]["eco_incremental"] is True
        assert record["incremental"]["edits"] >= 1
        assert record["incremental"]["module_devices"] >= 1
        assert record["speedups"]["incremental_vs_rebuild"] > 0

    def test_rejects_missing_incremental_section(self, record):
        broken = {k: v for k, v in record.items() if k != "incremental"}
        with pytest.raises(BenchmarkError, match="incremental"):
            validate_bench_record(broken)

    def test_rejects_missing_incremental_speedup(self, record):
        speedups = {k: v for k, v in record["speedups"].items()
                    if k != "incremental_vs_rebuild"}
        with pytest.raises(BenchmarkError, match="incremental_vs_rebuild"):
            validate_bench_record({**record, "speedups": speedups})

    def test_spread_kernels_exercise_the_shared_cache(self, record):
        """Schema v4: the row-spread PMF and expectation kernels must
        show real cache traffic in the recorded stats — previously both
        sat at a 0% hit rate because ``tracks_for_net``'s memo absorbed
        every repeat before the deeper kernels were consulted."""
        kernels = record["cache"]["kernels"]
        assert kernels["row_spread_pmf"]["hits"] > 0
        assert kernels["expected_row_spread"]["hits"] > 0
        assert record["equivalence"]["spread_mode_collapse"] is True

    def test_carries_backend_phases(self, record):
        """Schema v4: the exact-vs-numpy backend phases, section, and
        speedups are present and both backends agreed bit-for-bit."""
        numpy = pytest.importorskip("numpy")
        del numpy
        phases = {p["name"] for p in record["phases"]}
        assert {
            "backend_exact_single", "backend_numpy_single",
            "backend_exact_sweep", "backend_numpy_sweep",
            "backend_exact_eco", "backend_numpy_eco",
        } <= phases
        assert record["backend"]["available"] is True
        assert record["backend"]["histograms"] >= 1
        assert record["equivalence"]["backend_single"] is True
        assert record["equivalence"]["backend_sweep"] is True
        assert record["equivalence"]["backend_eco"] is True
        for key in ("backend_numpy_vs_exact_single",
                    "backend_numpy_vs_exact_sweep",
                    "backend_numpy_vs_exact_eco"):
            assert record["speedups"][key] > 0

    def test_rejects_missing_backend_section(self, record):
        broken = {k: v for k, v in record.items() if k != "backend"}
        with pytest.raises(BenchmarkError, match="backend"):
            validate_bench_record(broken)

    def test_carries_serve_phase(self, record):
        """Schema v5: the serve-load phase and section are present, the
        served estimates stayed bit-identical, and the service shut
        down cleanly."""
        phases = {p["name"] for p in record["phases"]}
        assert "serve_load" in phases
        serve = record["serve"]
        assert serve["sessions"] >= 1
        assert serve["estimates"] >= 1
        assert serve["verified"] >= 1
        assert serve["mismatches"] == 0
        assert serve["errors"] == 0
        assert serve["estimates_per_sec"] > 0
        assert serve["p99_ms"] >= serve["p50_ms"] >= 0
        assert serve["clean_shutdown"] is True
        assert record["equivalence"]["serve"] is True

    def test_rejects_missing_serve_section(self, record):
        broken = {k: v for k, v in record.items() if k != "serve"}
        with pytest.raises(BenchmarkError, match="serve"):
            validate_bench_record(broken)

    def test_rejects_unclean_serve_shutdown(self, record):
        broken = {**record, "serve": {**record["serve"],
                                      "clean_shutdown": False}}
        with pytest.raises(BenchmarkError, match="clean"):
            validate_bench_record(broken)

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(BenchmarkError):
            load_bench_record(path)

    def test_carries_floorplan_phase(self, record):
        """Schema v6: the portfolio floorplan race is present, both
        engines walked bit-identical trajectories, and the resume
        replay matched the uninterrupted run."""
        phases = {p["name"] for p in record["phases"]}
        assert {"floorplan_serial", "floorplan_portfolio"} <= phases
        floorplan = record["floorplan"]
        assert floorplan["modules"] >= 2
        assert floorplan["steps"] >= 1
        assert floorplan["winner"] in floorplan["searchers"]
        assert floorplan["serial"]["modules_per_sec"] > 0
        assert floorplan["portfolio"]["modules_per_sec"] > 0
        assert record["equivalence"]["floorplan_portfolio"] is True
        assert record["equivalence"]["floorplan_resume"] is True
        assert record["speedups"]["floorplan_portfolio_vs_serial"] > 0

    def test_rejects_missing_floorplan_section(self, record):
        broken = {k: v for k, v in record.items() if k != "floorplan"}
        with pytest.raises(BenchmarkError, match="floorplan"):
            validate_bench_record(broken)

    def test_history_appends_prior_records(self, record, tmp_path):
        """Schema v6: writing over an existing record folds it into the
        new record's ``history`` list instead of overwriting it."""
        path = tmp_path / "bench.json"
        write_bench_record(record, path)
        write_bench_record(record, path)
        twice = load_bench_record(path)
        assert len(twice["history"]) == 1
        assert "history" not in twice["history"][0]
        write_bench_record(record, path)
        thrice = load_bench_record(path)
        assert len(thrice["history"]) == 2

    def test_history_refuses_corrupt_prior_file(self, record, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(BenchmarkError):
            write_bench_record(record, path)

    def test_rejects_nested_history(self, record):
        entry = {k: v for k, v in record.items() if k != "history"}
        broken = {**record, "history": [{**entry, "history": []}]}
        with pytest.raises(BenchmarkError):
            validate_bench_record(broken)

    def test_synthetic_population_is_deterministic(self):
        first = synthetic_sweep_modules(10)
        second = synthetic_sweep_modules(10)
        assert [m.name for m in first] == [m.name for m in second]
        assert [m.device_count for m in first] == [
            m.device_count for m in second
        ]
