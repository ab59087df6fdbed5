"""JSONL serialization of traces.

A trace file is newline-delimited JSON, one object per line, three
record kinds in a fixed order:

1. exactly one ``meta`` header line::

       {"kind": "meta", "schema_version": 1, "created_unix": ...,
        "span_count": N}

2. ``N`` ``span`` lines, in start order (parents precede children)::

       {"kind": "span", "name": "plan.evaluate", "id": 3, "parent": 2,
        "depth": 1, "start_s": 0.0012, "duration_s": 0.0003,
        "payload": {"rows": 4, "tracks": 120}}

   ``start_s``/``duration_s`` are seconds relative to the recording
   tracer's epoch; spans absorbed from another tracer keep that
   tracer's epoch, so only durations are comparable across tracers.

3. exactly one trailing ``metrics`` line carrying the tracer's
   registry snapshot (additive counters + per-process kernel-cache
   statistics)::

       {"kind": "metrics", "counters": {...}, "kernels": {...}}

:func:`read_trace` validates all of this and fails fast with
:class:`~repro.errors.ObservabilityError` on any malformed line, so a
corrupt trace never silently pollutes downstream tooling.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import ObservabilityError
from repro.obs.trace import SPAN_SCHEMA_VERSION, NullTracer, Tracer


def trace_to_lines(tracer: Union[Tracer, NullTracer]) -> List[str]:
    """Serialize a finished trace to its JSONL lines (no newlines)."""
    records = tracer.records()
    meta = {
        "kind": "meta",
        "schema_version": SPAN_SCHEMA_VERSION,
        "created_unix": time.time(),
        "span_count": len(records),
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for record in records:
        lines.append(json.dumps({"kind": "span", **record}, sort_keys=True))
    lines.append(
        json.dumps(
            {"kind": "metrics", **tracer.metrics.snapshot()}, sort_keys=True
        )
    )
    return lines


def write_trace(
    tracer: Union[Tracer, NullTracer], path: Union[str, Path]
) -> Path:
    """Write a finished trace to ``path``; returns the path."""
    path = Path(path)
    try:
        path.write_text("\n".join(trace_to_lines(tracer)) + "\n")
    except OSError as exc:
        raise ObservabilityError(f"cannot write trace {path}: {exc}") from exc
    return path


def read_trace(path: Union[str, Path]) -> dict:
    """Read and validate a trace file.

    Returns ``{"meta": {...}, "spans": [...], "metrics": {...}}``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace {path}: {exc}") from exc

    objects = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            objects.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path}:{number}: not valid JSON: {exc}"
            ) from exc
    return validate_trace(objects, source=str(path))


def validate_trace(objects: List[dict], source: str = "<trace>") -> dict:
    """Validate parsed trace records; returns the structured trace."""
    if not objects:
        raise ObservabilityError(f"{source}: trace is empty")

    meta = objects[0]
    if not isinstance(meta, dict) or meta.get("kind") != "meta":
        raise ObservabilityError(
            f"{source}: first record must be the meta header, got "
            f"{meta!r:.80}"
        )
    if meta.get("schema_version") != SPAN_SCHEMA_VERSION:
        raise ObservabilityError(
            f"{source}: unsupported schema_version "
            f"{meta.get('schema_version')!r} (expected {SPAN_SCHEMA_VERSION})"
        )

    tail = objects[-1]
    if not isinstance(tail, dict) or tail.get("kind") != "metrics":
        raise ObservabilityError(
            f"{source}: last record must be the metrics snapshot"
        )
    if not isinstance(tail.get("counters"), dict) or not isinstance(
        tail.get("kernels"), dict
    ):
        raise ObservabilityError(
            f"{source}: metrics record needs 'counters' and 'kernels' objects"
        )

    spans = objects[1:-1]
    if meta.get("span_count") != len(spans):
        raise ObservabilityError(
            f"{source}: meta declares {meta.get('span_count')} spans, "
            f"file has {len(spans)}"
        )
    seen_ids: Dict[int, dict] = {}
    for index, span in enumerate(spans):
        where = f"{source}: span {index}"
        if not isinstance(span, dict) or span.get("kind") != "span":
            raise ObservabilityError(f"{where}: not a span record")
        _require(span, "name", str, where)
        span_id = _require(span, "id", int, where)
        if span_id in seen_ids:
            raise ObservabilityError(f"{where}: duplicate id {span_id}")
        parent = span.get("parent")
        if parent is not None:
            if not isinstance(parent, int):
                raise ObservabilityError(
                    f"{where}: parent must be an int or null"
                )
            if parent not in seen_ids:
                # Start order puts parents before children; a forward
                # reference means the trace was reordered or truncated.
                raise ObservabilityError(
                    f"{where}: parent {parent} not seen before child "
                    f"{span_id}"
                )
        depth = _require(span, "depth", int, where)
        if depth < 0:
            raise ObservabilityError(f"{where}: negative depth {depth}")
        if parent is not None and depth != seen_ids[parent]["depth"] + 1:
            raise ObservabilityError(
                f"{where}: depth {depth} does not nest under parent depth "
                f"{seen_ids[parent]['depth']}"
            )
        for field in ("start_s", "duration_s"):
            value = _require(span, field, (int, float), where)
            if value < 0:
                raise ObservabilityError(
                    f"{where}: {field} must be >= 0, got {value}"
                )
        if not isinstance(span.get("payload"), dict):
            raise ObservabilityError(f"{where}: payload must be an object")
        seen_ids[span_id] = span

    return {"meta": meta, "spans": spans, "metrics": tail}


def _require(record: dict, key: str, types, where: str):
    if key not in record:
        raise ObservabilityError(f"{where}: missing required key {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ObservabilityError(
            f"{where}: {key!r} has type {type(value).__name__}"
        )
    return value
