"""Performance subsystem: shared kernels, plans, batch execution, benchmarks.

The paper sells the estimator on speed ("a modest amount of computer
time": < 1.5 CPU s full-custom, < 3 CPU s standard-cell per module on a
Sun 3/50), and the floor-planning use case — re-estimating every module
of a chip at every candidate row count on every floorplan iteration —
multiplies that per-call cost by thousands.  This package keeps the
estimators' *math* untouched while removing the repeated work:

* :mod:`repro.perf.kernels` — process-wide memoization of the pure
  combinatorial kernels (Eqs. 2-3 row-spread PMFs, Eq. 3 track counts,
  Eqs. 8-9 central feed-through probabilities) backed by one shared,
  incrementally-grown Stirling triangle of surjection counts, plus
  whole-histogram batch kernels, with hit/miss/bypass statistics for
  observability.
* :mod:`repro.perf.plan` — ``EstimationPlan``: the standard-cell
  estimator compiled once per module (frozen histogram arrays,
  pre-resolved process constants) and re-evaluated per row count; the
  one Eq. 12 assembly, which the one-shot estimator compiles per call.
* :mod:`repro.perf.batch` — ``estimate_batch``: scan each module once
  and evaluate every (module x config x methodology) estimation task
  in this process, bit-identical to the per-call estimators.
* :mod:`repro.perf.backends` — pluggable kernel evaluation backends:
  ``exact`` (the memoized scalar kernels, the reference semantics) and
  ``numpy`` (whole-histogram float64 vectorization with a near-integer
  guard band and per-net exact fallback), selected by ``--backend`` /
  ``$MAE_BACKEND`` and threaded through plans, batches, and the
  incremental engine.
* :mod:`repro.perf.bench` — the perf-trajectory harness that times the
  Table 1/2 suites, a large synthetic sweep, a plan per call vs one
  plan per module, and the exact-vs-numpy backend phases, and writes
  ``BENCH_batch_engine.json`` so every future PR's speedups (or
  regressions) land in a machine-readable trajectory.
"""

from repro.perf.kernels import (
    CacheStats,
    cache_enabled,
    caches_disabled,
    clear_kernel_caches,
    kernel_cache_stats,
    set_cache_enabled,
    surjection_triangle_stats,
)

#: Symbols re-exported lazily (PEP 562): repro.perf.batch and
#: repro.perf.plan import the estimators, which import
#: repro.perf.kernels — an eager import here would be circular.
_LAZY_EXPORTS = {
    "BatchResult": "batch",
    "BatchTask": "batch",
    "estimate_batch": "batch",
    "EstimationPlan": "plan",
    "compile_plan": "plan",
    "plan_cache_stats": "plan",
    "clear_plan_cache": "plan",
    "ExactBackend": "backends",
    "NumpyBackend": "backends",
    "available_backends": "backends",
    "backend_stats": "backends",
    "current_backend": "backends",
    "current_backend_name": "backends",
    "get_backend": "backends",
    "resolve_backend_name": "backends",
    "set_default_backend": "backends",
    "use_backend": "backends",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.perf.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BatchResult",
    "BatchTask",
    "CacheStats",
    "EstimationPlan",
    "ExactBackend",
    "NumpyBackend",
    "available_backends",
    "backend_stats",
    "cache_enabled",
    "caches_disabled",
    "clear_kernel_caches",
    "clear_plan_cache",
    "compile_plan",
    "current_backend",
    "current_backend_name",
    "estimate_batch",
    "get_backend",
    "kernel_cache_stats",
    "plan_cache_stats",
    "resolve_backend_name",
    "set_cache_enabled",
    "set_default_backend",
    "surjection_triangle_stats",
    "use_backend",
]
