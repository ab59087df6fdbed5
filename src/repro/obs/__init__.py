"""repro.obs — estimation observability.

Four pieces, layered bottom-up:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: additive
  counters, plus a live view of the
  :mod:`repro.perf.kernels` cache statistics, behind one snapshot API.
* :mod:`repro.obs.trace` — :class:`Tracer` records nested wall-time
  spans from hooks inside the estimators; the default
  :class:`NullTracer` makes untraced estimation free.
* :mod:`repro.obs.jsonl` — the trace file format (JSONL: one meta
  header, one line per span, one trailing metrics snapshot) with a
  fail-fast validator.
* :mod:`repro.obs.explain` — the ``mae explain`` report: per-net
  Eq. 2-11 terms audited against the final Eq. 12/13 area.  Imported
  lazily (``from repro.obs.explain import ...``), not re-exported here,
  because it depends on :mod:`repro.core` which itself uses the tracer.

See ``docs/OBSERVABILITY.md`` for the architecture and span schema.
"""

from repro.obs.metrics import (
    LatencyTracker,
    MetricsRegistry,
    get_registry,
    kernel_cache_snapshot,
    latency_percentiles,
)
from repro.obs.trace import (
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "LatencyTracker",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "get_registry",
    "kernel_cache_snapshot",
    "latency_percentiles",
    "use_tracer",
]
