"""MetricsRegistry semantics and the counters a traced batch records.

Counters are additive, workload-derived quantities: a traced
``estimate_batch`` counts every call, module group, task, scan and
estimate it performed.
"""

from __future__ import annotations

from repro.core.config import EstimatorConfig
from repro.obs.metrics import MetricsRegistry, get_registry, kernel_cache_snapshot
from repro.obs.trace import Tracer, use_tracer
from repro.perf.batch import estimate_batch
from repro.perf.kernels import clear_kernel_caches
from repro.workloads.suites import table2_suite


# ----------------------------------------------------------------------
# registry basics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_incr_and_counters(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.incr("a", 2)
        registry.incr("b", 0.5)
        assert registry.counters() == {"a": 3, "b": 0.5}

    def test_counters_returns_sorted_copy(self):
        registry = MetricsRegistry()
        registry.incr("z")
        registry.incr("a")
        counters = registry.counters()
        assert list(counters) == ["a", "z"]
        counters["a"] = 99
        assert registry.counters()["a"] == 1

    def test_clear(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.clear()
        assert registry.counters() == {}

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.incr("scan.modules", 2)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"scan.modules": 2}
        assert set(snapshot["kernels"]) == set(kernel_cache_snapshot())
        for stats in snapshot["kernels"].values():
            assert set(stats) == {
                "hits", "misses", "entries", "bypasses", "hit_rate"
            }
        assert set(snapshot["plans"]) == {
            "hits", "compilations", "entries", "evaluations",
            "estimate_memo_hits", "price_memo_hits", "scans_reused",
        }
        assert set(snapshot["triangle"]) == {
            "depth", "limit", "extensions", "cells"
        }

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()

    def test_kernel_snapshot_tracks_cache_use(self):
        from repro.core.probability import expected_row_spread

        clear_kernel_caches()
        expected_row_spread(4, 7)
        expected_row_spread(4, 7)
        stats = kernel_cache_snapshot()["expected_row_spread"]
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert 0.0 <= stats["hit_rate"] <= 1.0


# ----------------------------------------------------------------------
# serial vs parallel merged metrics
# ----------------------------------------------------------------------
def _suite_batch_inputs():
    cases = list(table2_suite())
    modules = [case.module for case in cases]
    configs = [
        tuple(EstimatorConfig(rows=rows) for rows in case.row_counts)
        for case in cases
    ]
    return modules, configs


def _traced_batch(nmos):
    modules, configs = _suite_batch_inputs()
    tracer = Tracer()
    with use_tracer(tracer):
        results = estimate_batch(
            modules, nmos, configs, ("standard-cell", "full-custom"),
        )
    return tracer, results


class TestBatchMetricsMerge:
    def test_counters_cover_the_whole_workload(self, nmos):
        tracer, results = _traced_batch(nmos)
        counters = tracer.metrics.counters()
        assert counters["batch.calls"] == 1
        assert counters["batch.groups"] == len(table2_suite())
        assert counters["batch.tasks"] == len(results)
        assert counters["scan.modules"] == len(table2_suite())
        sc_count = sum(
            1 for r in results if r.task.methodology == "standard-cell"
        )
        assert counters["sc.estimates"] == sc_count

    def test_untraced_batch_records_nothing(self, nmos):
        modules, configs = _suite_batch_inputs()
        tracer = Tracer()
        estimate_batch(modules, nmos, configs, ("standard-cell",))
        assert tracer.records() == []
        assert tracer.metrics.counters() == {}


# ----------------------------------------------------------------------
# bench integration
# ----------------------------------------------------------------------
def test_bench_reads_kernel_stats_from_registry(tmp_path):
    """``mae bench`` consumes cache stats via the registry snapshot."""
    from repro.perf.bench import run_bench

    record = run_bench(smoke=True)
    snapshot = record["cache"]["kernels"]
    assert set(snapshot) == set(kernel_cache_snapshot())
    for stats in snapshot.values():
        assert set(stats) == {
            "hits", "misses", "entries", "bypasses", "hit_rate"
        }
    assert record["cache"]["plans"]["compilations"] > 0
    assert record["cache"]["triangle"]["depth"] > 0
