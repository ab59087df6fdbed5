"""Structured tracing for the estimation pipeline.

A :class:`Tracer` records **spans** — named, nested wall-time intervals
with small counter payloads — emitted by hooks inside the estimators
(schematic scan, track expectation, feed-through expectation, aspect
fitting, batch execution).  The design constraints, in order:

1. **Zero cost when off.**  Estimation is a hot path (tens of
   microseconds per call inside floorplan iteration), so the default
   tracer is a :class:`NullTracer` whose ``span()`` returns one shared
   no-op context manager: no span objects, no timestamps, no retained
   allocations.  The benchmark suite runs with the null tracer and must
   stay within noise of ``BENCH_batch_engine.json``.
2. **Plain-data records.**  Spans serialize to dicts (and to JSONL via
   :mod:`repro.obs.jsonl`) so they land on disk without custom
   decoders, and records from another tracer can be stitched in with
   :meth:`Tracer.absorb`.

Usage::

    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        estimate_standard_cell(module, process)     # hooks fire
    tracer.records()          # span dicts, in start order
    tracer.metrics.counters() # additive counters

Instrumentation sites follow one pattern::

    tracer = current_tracer()
    with tracer.span("sc.tracks") as span:
        ...
        if tracer.enabled:
            span.set("tracks", total)
            tracer.metrics.incr("sc.tracks_total", total)

The ``enabled`` guard keeps payload formatting and counter updates off
the untraced path entirely.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.obs.metrics import MetricsRegistry

Number = Union[int, float]

#: Version of the span-record shape (see repro.obs.jsonl for the file
#: framing that carries it).
SPAN_SCHEMA_VERSION = 1


class _NullSpan:
    """The shared do-nothing span.

    One instance serves every ``span()`` call on a :class:`NullTracer`;
    entering and exiting it allocates nothing and its mutators are
    no-ops, which is what makes untraced estimation free.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, name: str, value) -> None:
        pass

    def add(self, name: str, value: Number = 1) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: collects nothing, costs (almost) nothing."""

    __slots__ = ("metrics",)

    enabled = False

    def __init__(self) -> None:
        # Never written by hooks (they guard on ``enabled``), but present
        # so ``tracer.metrics`` is always a valid attribute.
        self.metrics = MetricsRegistry()

    def span(self, name=None, **payload) -> _NullSpan:
        return NULL_SPAN

    def records(self) -> List[dict]:
        return []

    def absorb(self, records, parent_id: Optional[int] = None) -> None:
        pass


class Span:
    """A live span: a named interval on a :class:`Tracer`'s stack.

    Use as a context manager (via :meth:`Tracer.span`); ``set`` attaches
    a payload value, ``add`` accumulates one.  The backing storage is a
    plain dict so finished spans are directly picklable/serializable.
    """

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self._tracer = tracer
        self.record = record

    def set(self, name: str, value) -> None:
        self.record["payload"][name] = value

    def add(self, name: str, value: Number = 1) -> None:
        payload = self.record["payload"]
        payload[name] = payload.get(name, 0) + value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._pop(self)
        return False


class Tracer:
    """Collecting tracer: records spans and owns a metrics registry."""

    __slots__ = ("metrics", "_records", "_stack", "_next_id", "_epoch")

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._records: List[dict] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **payload) -> Span:
        """Create a span; enter it with ``with`` to start the clock."""
        record = {
            "name": name,
            "id": -1,            # assigned on enter
            "parent": None,      # assigned on enter
            "depth": 0,          # assigned on enter
            "start_s": 0.0,
            "duration_s": 0.0,
            "payload": dict(payload),
        }
        return Span(self, record)

    def _push(self, span: Span) -> None:
        record = span.record
        record["id"] = self._next_id
        self._next_id += 1
        if self._stack:
            parent = self._stack[-1].record
            record["parent"] = parent["id"]
            record["depth"] = parent["depth"] + 1
        record["start_s"] = time.perf_counter() - self._epoch
        self._stack.append(span)
        # Record in start order so parents precede their children.
        self._records.append(record)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.record['name']!r} exited out of order"
            )
        self._stack.pop()
        record = span.record
        record["duration_s"] = (
            time.perf_counter() - self._epoch - record["start_s"]
        )

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        """Finished span records, in start order (parents first)."""
        if self._stack:
            open_names = [span.record["name"] for span in self._stack]
            raise RuntimeError(f"spans still open: {open_names}")
        return list(self._records)

    def absorb(
        self, records: List[dict], parent_id: Optional[int] = None
    ) -> None:
        """Stitch span records from another tracer in.

        Ids are remapped into this tracer's id space; the foreign trace's
        root spans are re-parented under ``parent_id`` (default: the
        currently open span).  Start times are kept as-is — they are
        relative to the *other* tracer's epoch, so only durations are
        comparable across tracers.
        """
        if not records:
            return
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].record["id"]
        base_depth = 0
        if parent_id is not None:
            for record in self._records:
                if record["id"] == parent_id:
                    base_depth = record["depth"] + 1
                    break
        offset = self._next_id
        max_id = -1
        for record in records:
            merged = dict(record)
            merged["payload"] = dict(record.get("payload", {}))
            merged["id"] = record["id"] + offset
            if record.get("parent") is None:
                merged["parent"] = parent_id
                merged["depth"] = base_depth
            else:
                merged["parent"] = record["parent"] + offset
                merged["depth"] = record["depth"] + base_depth
            max_id = max(max_id, merged["id"])
            self._records.append(merged)
        self._next_id = max_id + 1

    def span_names(self) -> Dict[str, int]:
        """Name -> occurrence count over the finished records."""
        names: Dict[str, int] = {}
        for record in self.records():
            names[record["name"]] = names.get(record["name"], 0) + 1
        return dict(sorted(names.items()))


# ----------------------------------------------------------------------
# the installed tracer
# ----------------------------------------------------------------------
_NULL_TRACER = NullTracer()
_current: List[Union[Tracer, NullTracer]] = [_NULL_TRACER]


def current_tracer() -> Union[Tracer, NullTracer]:
    """The tracer active in this process (a NullTracer by default)."""
    return _current[-1]


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[None]:
    """Install ``tracer`` as the current tracer for the block."""
    _current.append(tracer)
    try:
        yield
    finally:
        _current.pop()
