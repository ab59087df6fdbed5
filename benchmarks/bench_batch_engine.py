"""Perf trajectory — the batch estimation engine vs the seed path.

Times the Table 1/2 suites and a large synthetic sweep under the seed
serial path (cold kernels, one scan per call) and the batch engine
(:mod:`repro.perf.batch`), asserts the batch results are bit-identical,
and prints the trajectory summary through the ``report`` fixture.  The
committed ``BENCH_batch_engine.json`` at the repo root is produced by
the same harness via ``benchmarks/run_benchmarks.py`` (or ``mae bench``).
"""

import pytest

from repro.perf.bench import (
    format_bench_record,
    run_bench,
    synthetic_sweep_modules,
    validate_bench_record,
)


@pytest.fixture(scope="module")
def bench_record(report):
    record = run_bench(module_count=16)
    report(format_bench_record(record))
    return record


def test_record_is_valid_and_bit_identical(bench_record):
    """validate_bench_record also asserts every equivalence flag."""
    validate_bench_record(bench_record)
    assert bench_record["equivalence"]["synthetic_jobs1"]


def test_batch_engine_beats_seed_path(bench_record):
    """The caching + single-scan path must win on the synthetic sweep."""
    assert bench_record["speedups"]["synthetic_batch_jobs1_vs_seed"] > 1.0


def test_kernel_caches_are_exercised(bench_record):
    kernels = bench_record["cache"]["kernels"]
    assert any(stats["hits"] > 0 for stats in kernels.values())


def test_synthetic_batch_throughput(benchmark):
    """Benchmark the batch engine on a slice of the synthetic sweep."""
    from repro.core.config import EstimatorConfig
    from repro.perf.batch import estimate_batch
    from repro.technology.libraries import nmos_process

    process = nmos_process()
    modules = synthetic_sweep_modules(8)
    configs = [EstimatorConfig(rows=rows) for rows in range(2, 10)]
    results = benchmark(estimate_batch, modules, process, configs)
    assert len(results) == len(modules) * len(configs)
