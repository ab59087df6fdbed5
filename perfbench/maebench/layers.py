"""Timers the traced run wraps around the program's per-layer entry points.

Nothing here edits the program.  :func:`install` replaces public
functions and methods with timing wrappers at run time: a method is
patched on its class, and a module-level function is patched in every
loaded ``repro`` module that holds it, because ``from x import f``
copies the reference into each importer.  The program's own tracer
stays off; each thread records into a recorder of its own and the
records are merged into one schema-1 trace per process when the run
ends.

A wrapper records one span per call.  Calls into the layer that is
already running (``evaluate_rows`` calling ``evaluate``) fold into the
outer call.  A span's self time is its duration minus the time of the
spans it encloses.  Every call updates per-layer aggregates, from which
the metrics come.  The trace file keeps every operation span (request or
race) but only the first ``span_budget`` layer spans of the
process: a race makes thousands of layer calls, and a trace of every
one of a hundred races would run to gigabytes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from maebench.common import BenchError

#: (module, attribute path, layer).  Attribute paths with a dot are
#: methods, patched on their class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.engine", "EstimationEngine.estimate", "engine.call"),
    ("repro.service.engine", "EstimationEngine.apply_edits", "engine.call"),
    ("repro.service.engine", "EstimationEngine.create_session",
     "engine.create_session"),
    ("repro.incremental.engine", "IncrementalEstimator.__init__",
     "incremental.build"),
    ("repro.incremental.engine", "IncrementalEstimator.apply",
     "incremental.apply"),
    ("repro.incremental.engine", "IncrementalEstimator.estimate",
     "incremental.estimate"),
    ("repro.incremental.engine", "IncrementalEstimator.estimate_rows",
     "incremental.estimate"),
    ("repro.perf.plan", "EstimationPlan.evaluate", "plan.evaluate"),
    ("repro.perf.plan", "EstimationPlan.evaluate_rows", "plan.evaluate"),
    ("repro.perf.plan", "EstimationPlan.evaluate_congestion",
     "congestion.price"),
    ("repro.congestion.model", "congestion_distribution",
     "congestion.distribution"),
    ("repro.perf.batch", "estimate_batch", "batch.estimate"),
    ("repro.floorplan.portfolio", "CompiledEstimateServer.estimate",
     "portfolio.server_estimate"),
    ("repro.floorplan.portfolio", "CompiledEstimateServer.routability",
     "portfolio.server_routability"),
    ("repro.netlist.stats", "scan_module", "scan"),
)



class LayerAggregate:
    """Per-thread, per-layer call statistics."""

    __slots__ = ("calls", "total", "self_total", "durations", "selfs",
                 "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = array("d")
        self.selfs = array("d")
        #: Summed numeric attributes, plus ``under.<layer>`` counts of
        #: calls made from inside another layer.
        self.extra: Dict[str, float] = {}

    def merge(self, other: "LayerAggregate") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self_total += other.self_total
        self.durations.extend(other.durations)
        self.selfs.extend(other.selfs)
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def record(self, duration: float, self_time: float,
               parent: Optional[str], attrs: Optional[dict]) -> None:
        """Fold in one call: its duration, self time, the layer it was
        made from, and its numeric attributes (a parse also adds its
        duration under ``seconds.<format>``)."""
        self.calls += 1
        self.total += duration
        self.self_total += self_time
        self.durations.append(duration)
        self.selfs.append(self_time)
        if parent is not None:
            self.add("under." + parent, 1)
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.add(key, value)
        if attrs and "format" in attrs:
            self.add("seconds." + attrs["format"], duration)

    def summary(self) -> dict:
        ordered = sorted(self.durations)
        selfs = sorted(self.selfs)
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_total,
            "p50_ms": 1000.0 * _nearest_rank(ordered, 0.5),
            "p90_ms": 1000.0 * _nearest_rank(ordered, 0.9),
            "self_p50_ms": 1000.0 * _nearest_rank(selfs, 0.5),
            "extra": dict(sorted(self.extra.items())),
        }


def _nearest_rank(ordered, q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class _Thread:
    """One thread's frame stack, aggregates, spans and events."""

    __slots__ = ("name", "stack", "layers", "spans", "events", "next_id")

    def __init__(self, name: str) -> None:
        self.name = name
        #: frames: [layer, start, child_time, span_index]
        self.stack: List[list] = []
        self.layers: Dict[str, LayerAggregate] = {}
        #: spans: [name, id, parent, depth, start, end, payload]
        self.spans: List[list] = []
        self.events: List[tuple] = []
        self.next_id = 0


class Recorder:
    """The process-wide collector behind every installed wrapper."""

    def __init__(self, span_budget: int = 20000,
                 keep_events: bool = False) -> None:
        self.span_budget = span_budget
        #: Keep every call as an event (layer, start, end, self, attrs)
        #: as well: the server process cannot tell set-up from the
        #: timed window, so the client cuts its events by time.
        self.keep_events = keep_events
        self.epoch = perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_Thread] = []
        #: id(IncrementalEstimator) -> session id, filled by the
        #: ``create_session`` wrapper so dispatcher spans find their
        #: session.
        self.sessions: Dict[int, str] = {}
        self.session_calls: Dict[str, int] = {}
        self.patched: List[str] = []

    # ------------------------------------------------------------------
    def thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _Thread(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Forget everything recorded so far (the end of set-up)."""
        with self._lock:
            for state in self._threads:
                state.layers.clear()
                state.spans.clear()
                state.events.clear()
            self.session_calls.clear()

    # ------------------------------------------------------------------
    def enter(self, state: _Thread, name: str, payload: Optional[dict],
              always_span: bool) -> list:
        start = perf_counter()
        index = -1
        if always_span or self.span_budget > 0:
            if not always_span:
                self.span_budget -= 1
            parent = state.stack[-1][3] if state.stack else -1
            parent_span = state.spans[parent] if parent >= 0 else None
            index = len(state.spans)
            state.spans.append([
                name, state.next_id,
                parent_span[1] if parent_span is not None else None,
                parent_span[3] + 1 if parent_span is not None else 0,
                start, start, payload or {},
            ])
            state.next_id += 1
        frame = [name, start, 0.0, index]
        state.stack.append(frame)
        return frame

    def leave(self, state: _Thread, frame: list,
              extra: Optional[dict] = None) -> None:
        end = perf_counter()
        state.stack.pop()
        name, start, child, index = frame
        duration = end - start
        parent = state.stack[-1][0] if state.stack else None
        if parent is not None:
            state.stack[-1][2] += duration
        if index >= 0:
            span = state.spans[index]
            span[5] = end
            if extra:
                span[6].update(extra)
        layer = state.layers.get(name)
        if layer is None:
            layer = state.layers[name] = LayerAggregate()
        layer.record(duration, duration - child, parent, extra)
        if self.keep_events:
            state.events.append((name, parent, start, end, duration - child,
                                 extra or {}))

    # ------------------------------------------------------------------
    def op(self, name: str, **payload):
        """Context manager marking one benchmark operation (a request or
        a race) as a root span, kept for every operation."""
        return _Op(self, name, payload)

    # ------------------------------------------------------------------
    def layers(self) -> Dict[str, LayerAggregate]:
        merged: Dict[str, LayerAggregate] = {}
        with self._lock:
            for state in self._threads:
                for name, layer in state.layers.items():
                    merged.setdefault(name, LayerAggregate()).merge(layer)
        return merged

    def events(self) -> List[tuple]:
        """Every kept event as (layer, thread name, parent layer, start,
        end, self, attrs), sorted by start."""
        out = []
        with self._lock:
            for state in self._threads:
                out.extend((e[0], state.name) + e[1:] for e in state.events)
        out.sort(key=lambda e: e[3])
        return out

    def write(self, path: str) -> dict:
        """Merge every thread's spans into one schema-1 trace file,
        validate it with the program's reader, return a summary."""
        from repro.obs.jsonl import read_trace, write_trace
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            records = [
                {
                    "name": name,
                    "id": span_id,
                    "parent": parent,
                    "depth": depth,
                    "start_s": max(0.0, start - self.epoch),
                    "duration_s": max(0.0, end - start),
                    "payload": dict(payload, thread=state.name),
                }
                for name, span_id, parent, depth, start, end, payload
                in state.spans
            ]
            tracer.absorb(records)
        for name, layer in sorted(self.layers().items()):
            tracer.metrics.incr(f"layer.{name}.calls", layer.calls)
            tracer.metrics.incr(f"layer.{name}.total_s", layer.total)
            tracer.metrics.incr(f"layer.{name}.self_s", layer.self_total)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_trace(tracer, path)
        trace = read_trace(path)
        return {"path": path, "spans": len(trace["spans"])}


class _Op:
    __slots__ = ("_rec", "_name", "_payload", "_state", "_frame")

    def __init__(self, recorder: Recorder, name: str, payload: dict):
        self._rec = recorder
        self._name = name
        self._payload = payload

    def __enter__(self) -> "_Op":
        state = self._state = self._rec.thread()
        self._frame = self._rec.enter(state, self._name, self._payload,
                                      always_span=True)
        return self

    def __exit__(self, *exc) -> bool:
        self._rec.leave(self._state, self._frame)
        return False


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _attrs(layer: str, recorder: Recorder, method: str, args: tuple,
           result) -> Optional[dict]:
    """Per-call attributes some layers need for their metrics."""
    if layer == "scan":
        return {"devices": args[0].device_count}
    if layer == "parse":
        # ``method`` is the format the session parser is registered under.
        return {"format": method, "bytes." + method: len(args[0].encode())}
    if layer == "engine.create_session":
        recorder.sessions[id(result.engine)] = result.session_id
        return None
    if layer in ("incremental.estimate", "incremental.apply"):
        session = recorder.sessions.get(id(args[0]))
        return {"session": session} if session is not None else None
    return None


def _engine_attrs(recorder: Recorder, method: str, args: tuple,
                  kwargs: dict) -> dict:
    session = args[1] if len(args) > 1 else kwargs.get("session_id")
    with recorder._lock:
        seq = recorder.session_calls.get(session, 0)
        recorder.session_calls[session] = seq + 1
    if method == "apply_edits":
        kind = "edit"
    else:
        rows = args[2] if len(args) > 2 else kwargs.get("rows")
        kind = "estimate" if rows is None else "multirow"
    return {"session": session, "seq": seq, "kind": kind}


def _wrap(recorder: Recorder, function: Callable, layer: str,
          method: str) -> Callable:
    def timed(*args, **kwargs):
        state = recorder.thread()
        stack = state.stack
        if stack and stack[-1][0] == layer:
            return function(*args, **kwargs)
        payload = None
        if layer == "engine.call":
            payload = _engine_attrs(recorder, method, args, kwargs)
        frame = recorder.enter(state, layer, payload, always_span=False)
        extra = None
        try:
            result = function(*args, **kwargs)
            extra = _attrs(layer, recorder, method, args, result)
            return result
        finally:
            if payload is not None:
                extra = dict(payload, **(extra or {}))
            recorder.leave(state, frame, extra)

    return functools.wraps(function)(timed)


def install(recorder: Recorder, modules: Tuple[str, ...] = ()) -> None:
    """Import ``modules`` (so every by-name importer is loaded), then
    wrap every target.  A target that no longer exists fails the run:
    its metrics would otherwise read zero."""
    for name in modules:
        importlib.import_module(name)
    for module_name, path, layer in TARGETS:
        owner_name, _, attr = path.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            raise BenchError(
                f"cannot time {module_name}:{path}: {exc}") from exc
        wrapper = _wrap(recorder, original, layer, attr)
        if owner_name:
            sites = [(owner, attr)]
        else:
            sites = [
                (loaded, key)
                for loaded in list(sys.modules.values())
                if getattr(loaded, "__name__", "").startswith("repro")
                for key, value in list(vars(loaded).items())
                if value is original
            ]
        for site, key in sites:
            setattr(site, key, wrapper)
        recorder.patched.append(f"{module_name}:{path}")


def install_session_parsers(recorder: Recorder) -> None:
    """Time, as layer ``parse``, the parsers through which
    ``POST /sessions`` reads a session's source: the server's format
    table ``repro.service.server._PARSERS``."""
    from repro.service import server

    for fmt, parser in sorted(server._PARSERS.items()):
        server._PARSERS[fmt] = _wrap(recorder, parser, "parse", fmt)
        recorder.patched.append(f"repro.service.server:_PARSERS[{fmt}]")
