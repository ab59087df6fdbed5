"""The estimation-engine facade: sessions, coalescing queue, lifecycle.

:class:`EstimationEngine` is the reusable core behind ``mae serve`` —
the piece a CAD-flow embedder uses directly when it wants multi-tenant
estimation without HTTP.  It owns three things:

**Sessions.**  Each :class:`Session` wraps a live
:class:`~repro.incremental.IncrementalEstimator`: the client streams
ECO edits into it (O(affected nets) bookkeeping, revision-stamped) and
estimates are served from the maintained statistics through the
session's own plan, which lives and dies with the session.  Per-session
state is guarded by a per-session lock; edits never block other
sessions.

**The coalescing request queue.**  Estimate requests from any number of
client threads enter one bounded queue (full -> :class:`QueueFullError`,
the HTTP 429 backpressure signal) and are drained by a **single
dispatcher thread**.  Each drain takes every queued request (up to
``coalesce_limit``), groups them by session, and serves each group with
*one* planning call — multi-row groups go through
:meth:`~repro.incremental.IncrementalEstimator.estimate_rows`, a single
batched kernel evaluation under the numpy backend.  Every route is
bit-identical to a direct
:func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
call — the ``serve_equivalence`` verify gate enforces it.

**The shared cache lifecycle.**  All sessions share one process-wide
kernel-cache / Stirling-triangle instance and ``estimate_batch``'s
held scans and plans.  The concurrency invariant that makes this safe
without fine-grained locks: *only the dispatcher thread evaluates
estimates*, so only the dispatcher ever touches the shared memo dicts.
Client threads touch per-session state under the session lock and
read-only snapshots.

Shutdown is graceful by default: the engine stops accepting work
(:class:`ServiceClosedError`, HTTP 503), drains every queued request,
then joins the dispatcher.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.core.results import StandardCellEstimate
from repro.errors import (
    QueueFullError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    SessionError,
)
from repro.incremental.engine import IncrementalEstimator
from repro.incremental.mutations import Mutation
from repro.netlist.model import Module
from repro.obs.metrics import LatencyTracker, get_registry
from repro.technology.process import ProcessDatabase

#: Row selector for one estimate request: ``None`` (the session
#: config's row policy), one row count, or several row counts.
RowsSpec = Union[None, int, Sequence[int]]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`EstimationEngine`.

    ``queue_limit`` bounds the number of *queued* estimate requests
    across all sessions — the backpressure point.  ``coalesce_limit``
    caps how many of them one dispatcher drain serves together.
    ``request_timeout`` is the default seconds a caller waits for its
    coalesced result before the request is abandoned (HTTP 504).
    """

    max_sessions: int = 64
    queue_limit: int = 256
    coalesce_limit: int = 32
    request_timeout: float = 30.0
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.coalesce_limit < 1:
            raise ServiceError(
                f"coalesce_limit must be >= 1, got {self.coalesce_limit}"
            )
        if self.request_timeout <= 0:
            raise ServiceError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )


class Session:
    """One client's live estimator plus its serving bookkeeping."""

    __slots__ = ("session_id", "name", "engine", "process", "lock",
                 "created", "estimates_served", "edits_applied", "closed")

    def __init__(
        self,
        session_id: str,
        name: str,
        engine: IncrementalEstimator,
        process: ProcessDatabase,
    ) -> None:
        self.session_id = session_id
        self.name = name
        self.engine = engine
        self.process = process
        #: Serializes edits against dispatch: the dispatcher holds this
        #: while evaluating, so an estimate never sees a half-applied
        #: edit sequence.
        self.lock = threading.Lock()
        self.created = time.time()
        self.estimates_served = 0
        self.edits_applied = 0
        self.closed = False

    def info(self) -> dict:
        """JSON-ready session descriptor (``GET /sessions/{id}``)."""
        module = self.engine.module
        return {
            "session": self.session_id,
            "name": self.name,
            "module": module.name,
            "devices": module.device_count,
            "nets": len(module.nets),
            "ports": module.port_count,
            "process": self.process.name,
            "backend": self.engine.backend,
            "version": self.engine.stats_version,
            "estimates_served": self.estimates_served,
            "edits_applied": self.edits_applied,
            "created_unix": self.created,
        }


class _Request:
    """One queued unit of dispatcher work.

    ``kind`` is ``"estimate"`` (session + rows spec, coalescible) or
    ``"job"`` (an arbitrary callable the caller needs run on the
    dispatcher thread — the sessionless batch endpoint uses this so
    *all* shared-cache work stays single-threaded).
    """

    __slots__ = ("kind", "session", "rows", "job", "event", "result",
                 "error", "version", "abandoned", "enqueued")

    def __init__(self, kind, session=None, rows=None, job=None):
        self.kind = kind
        self.session = session
        self.rows = rows
        self.job = job
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None
        self.version: Optional[int] = None
        self.abandoned = False
        self.enqueued = time.perf_counter()


class EstimationEngine:
    """The multi-tenant facade.  See the module docstring for the
    concurrency model; see :class:`ServiceConfig` for the knobs."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._sessions: Dict[str, Session] = {}
        self._ids = itertools.count(1)
        self._queue: deque = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._counts: Dict[str, int] = {}
        self._dispatch_latency = LatencyTracker()
        #: Test/ops hook: clearing this parks the dispatcher *before*
        #: each drain, letting callers deterministically fill the queue
        #: (backpressure and timeout tests rely on it).
        self._dispatch_gate = threading.Event()
        self._dispatch_gate.set()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="mae-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def create_session(
        self,
        module: Module,
        process: ProcessDatabase,
        config: Optional[EstimatorConfig] = None,
        name: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> Session:
        """Open a session around a parsed module.

        Scans the module once (on the calling thread — scanning touches
        no shared cache) into a live ``IncrementalEstimator``.  The
        module is copied, so the caller's instance stays untouched.
        """
        estimator = IncrementalEstimator(
            module, process, config,
            backend=backend if backend is not None else self.config.backend,
        )
        with self._cv:
            if self._closed:
                raise ServiceClosedError("engine is shut down")
            if len(self._sessions) >= self.config.max_sessions:
                raise SessionError(
                    f"session limit reached "
                    f"({self.config.max_sessions} open sessions)"
                )
            session_id = f"s{next(self._ids):06d}"
            session = Session(
                session_id, name or module.name, estimator, process
            )
            self._sessions[session_id] = session
            self._count("sessions_created")
        return session

    def close_session(self, session_id: str) -> dict:
        """Close a session; returns its final descriptor.  Requests
        already queued for it are answered with :class:`SessionError`
        when the dispatcher reaches them."""
        with self._cv:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise SessionError(f"unknown session {session_id!r}")
            session.closed = True
            self._count("sessions_closed")
        return session.info()

    def session(self, session_id: str) -> Session:
        """Look a session up; :class:`SessionError` when unknown."""
        with self._cv:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        return session

    def list_sessions(self) -> List[dict]:
        """Descriptors of every open session, oldest first."""
        with self._cv:
            sessions = sorted(
                self._sessions.values(), key=lambda s: s.session_id
            )
        return [session.info() for session in sessions]

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def estimate(
        self,
        session_id: str,
        rows: RowsSpec = None,
        timeout: Optional[float] = None,
    ):
        """Estimate a session's module as it stands now.

        ``rows=None`` follows the session config's row policy; an int
        returns one estimate; a sequence returns a tuple of estimates
        in the same order.  Blocks until the dispatcher serves the
        (possibly coalesced) request; returns ``(version, result)``
        where ``version`` is the statistics revision served.
        """
        session = self.session(session_id)
        rows_key: RowsSpec = rows
        if rows_key is not None and not isinstance(rows_key, int):
            rows_key = tuple(int(r) for r in rows_key)
        request = _Request("estimate", session=session, rows=rows_key)
        self._submit(request)
        self._wait(request, timeout)
        return request.version, request.result

    def submit_job(self, job, timeout: Optional[float] = None):
        """Run an arbitrary callable on the dispatcher thread.

        The escape hatch for work that must respect the shared-cache
        single-thread invariant but is not a session estimate — the
        server's sessionless ``POST /estimate`` routes its
        ``estimate_batch`` call through here."""
        request = _Request("job", job=job)
        self._submit(request)
        self._wait(request, timeout)
        return request.result

    def apply_edits(
        self,
        session_id: str,
        mutations: Sequence[Mutation],
        rows: RowsSpec = None,
        estimate: bool = True,
        timeout: Optional[float] = None,
    ):
        """Apply an ECO edit sequence, optionally re-estimating.

        The edits go straight into the session's delta engine under the
        session lock (O(affected nets), no queue round-trip); the
        re-estimate then rides the normal coalescing path.  Returns
        ``(version, result)`` — ``result`` is ``None`` when
        ``estimate=False``.
        """
        session = self.session(session_id)
        edits = tuple(mutations)
        with session.lock:
            if session.closed:
                raise SessionError(f"session {session_id!r} is closed")
            version = session.engine.apply(edits)
            session.edits_applied += len(edits)
        self._count("edits_applied", len(edits))
        if not estimate:
            return version, None
        return self.estimate(session_id, rows, timeout)

    # ------------------------------------------------------------------
    # metrics and shutdown
    # ------------------------------------------------------------------
    def service_stats(self) -> dict:
        """The ``service`` section of ``/metrics``: sessions, queue
        depth, request counters, and dispatch-latency quantiles."""
        with self._cv:
            counts = dict(sorted(self._counts.items()))
            open_sessions = len(self._sessions)
            depth = len(self._queue)
            closed = self._closed
        return {
            "sessions": {
                "open": open_sessions,
                "limit": self.config.max_sessions,
            },
            "queue": {
                "depth": depth,
                "limit": self.config.queue_limit,
                "coalesce_limit": self.config.coalesce_limit,
            },
            "requests": counts,
            "latency": {"dispatch": self._dispatch_latency.summary()},
            "accepting": not closed,
        }

    def metrics(self) -> dict:
        """The full ``/metrics`` payload: the :mod:`repro.obs` registry
        snapshot (counters, kernel caches, plans, triangle, backend)
        plus the ``service`` section."""
        snapshot = get_registry().snapshot()
        snapshot["service"] = self.service_stats()
        return snapshot

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and bring the dispatcher down.

        ``drain=True`` (the default) serves every already-queued
        request first; ``drain=False`` fails them with
        :class:`ServiceClosedError`.  Idempotent.
        """
        with self._cv:
            already = self._closed
            self._closed = True
            if not drain:
                while self._queue:
                    request = self._queue.popleft()
                    request.error = ServiceClosedError(
                        "engine shut down before serving this request"
                    )
                    request.event.set()
            self._cv.notify_all()
        self._dispatch_gate.set()
        self._dispatcher.join(timeout)
        if not already:
            self._count("shutdowns")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        with self._cv:
            self._counts[name] = self._counts.get(name, 0) + value

    def _submit(self, request: _Request) -> None:
        with self._cv:
            if self._closed:
                raise ServiceClosedError("engine is shutting down")
            if len(self._queue) >= self.config.queue_limit:
                self._counts["rejected"] = self._counts.get(
                    "rejected", 0
                ) + 1
                raise QueueFullError(
                    f"request queue is full "
                    f"({self.config.queue_limit} pending requests)"
                )
            self._queue.append(request)
            self._counts["submitted"] = self._counts.get("submitted", 0) + 1
            self._cv.notify()

    def _wait(self, request: _Request, timeout: Optional[float]) -> None:
        deadline = timeout if timeout is not None else (
            self.config.request_timeout
        )
        if not request.event.wait(deadline):
            request.abandoned = True
            self._count("timeouts")
            raise RequestTimeoutError(
                f"request not served within {deadline:g}s "
                "(abandoned; the queue is saturated or a dispatch "
                "is long-running)"
            )
        if request.error is not None:
            raise request.error

    def _dispatch_loop(self) -> None:
        while True:
            self._dispatch_gate.wait()
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue and self._closed:
                    return
                if not self._dispatch_gate.is_set() and not self._closed:
                    # The gate was cleared while we were parked in
                    # cv.wait(); re-park on the gate without draining so
                    # clearing it is a deterministic pause.
                    continue
                batch: List[_Request] = []
                while self._queue and len(batch) < self.config.coalesce_limit:
                    batch.append(self._queue.popleft())
            start = time.perf_counter()
            try:
                self._serve_batch(batch)
            except BaseException as exc:  # keep the dispatcher alive
                for request in batch:
                    if not request.event.is_set():
                        request.error = ServiceError(
                            f"dispatch failed: {exc}"
                        )
                        request.event.set()
            seconds = time.perf_counter() - start
            self._dispatch_latency.observe(seconds)
            self._count("dispatch_batches")

    def _serve_batch(self, batch: List[_Request]) -> None:
        """Serve one drained batch: jobs serially, estimates grouped
        by session."""
        estimates: List[_Request] = []
        for request in batch:
            if request.kind == "job":
                try:
                    request.result = request.job()
                except BaseException as exc:
                    request.error = exc
                request.event.set()
                self._count("jobs_served")
            else:
                estimates.append(request)
        if not estimates:
            return
        groups: Dict[str, Tuple[Session, List[_Request]]] = {}
        for request in estimates:
            session = request.session
            if session.closed:
                request.error = SessionError(
                    f"session {session.session_id!r} was closed before "
                    "this request was served"
                )
                request.event.set()
                continue
            groups.setdefault(
                session.session_id, (session, [])
            )[1].append(request)
        group_list = [groups[key] for key in sorted(groups)]
        if len(group_list) > 1:
            self._count("coalesced_dispatches")
            self._count(
                "coalesced_requests",
                sum(len(requests) for _, requests in group_list),
            )
        for session, requests in group_list:
            try:
                self._serve_group(session, requests)
            except BaseException as exc:
                for request in requests:
                    if not request.event.is_set():
                        request.error = exc
                        request.event.set()

    @staticmethod
    def _row_keys(requests: List[_Request]) -> List[Union[None, int]]:
        """Ordered unique single-row keys a request group needs."""
        keys: List[Union[None, int]] = []
        seen = set()
        for request in requests:
            spec = request.rows
            parts = spec if isinstance(spec, tuple) else (spec,)
            for key in parts:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        return keys

    @staticmethod
    def _finish(
        requests: List[_Request],
        served: Dict[Union[None, int], StandardCellEstimate],
        version: int,
    ) -> int:
        """Assign each request its result(s) from the served map."""
        count = 0
        for request in requests:
            if isinstance(request.rows, tuple):
                request.result = tuple(
                    served[key] for key in request.rows
                )
                count += len(request.rows)
            else:
                request.result = served[request.rows]
                count += 1
            request.version = version
            request.event.set()
        return count

    def _serve_group(self, session: Session, requests: List[_Request]) -> None:
        """One session's coalesced requests: a single planning call."""
        with session.lock:
            version = session.engine.stats_version
            keys = self._row_keys(requests)
            int_keys = [key for key in keys if key is not None]
            served: Dict[Union[None, int], StandardCellEstimate] = {}
            if int_keys:
                for key, estimate in zip(
                    int_keys, session.engine.estimate_rows(int_keys)
                ):
                    served[key] = estimate
            if None in keys:
                served[None] = session.engine.estimate()
            count = self._finish(requests, served, version)
            session.estimates_served += count
        self._count("estimates_served", count)
