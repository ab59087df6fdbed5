"""The estimation-engine facade: sessions, the engine lock, lifecycle.

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

**The engine lock.**  A request from any client thread is first
admitted: at most ``queue_limit`` requests may wait for the engine
lock at once (one more -> :class:`QueueFullError`, the HTTP 429
backpressure signal).  The thread then takes the **engine lock**
within the request's timeout (:class:`RequestTimeoutError`, HTTP 504,
when it runs out) and evaluates the request itself: ``estimate()`` for
the session config's row policy, otherwise one
:meth:`~repro.incremental.IncrementalEstimator.estimate_rows` over the
request's distinct row counts, a single batched kernel evaluation
under the numpy backend.  No thread hands work to another.  Every
route is bit-identical to a direct
:func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
call — the ``serve_equivalence`` verify gate enforces it.

**The shared cache lifecycle.**  All sessions share one process-wide
kernel-cache / Stirling-triangle instance and ``estimate_batch``'s
held scans and plans.  The concurrency invariant that makes this safe
without fine-grained locks: *only the thread holding the engine lock
evaluates*, so one thread at a time touches the shared memo dicts.
Other threads touch per-session state under the session lock and
read-only snapshots.  Locks are taken in one order: the engine lock,
then a session lock, then the bookkeeping lock — never the reverse.

Shutdown is graceful by default: the engine stops accepting work
(:class:`ServiceClosedError`, HTTP 503) and waits until every admitted
request has been served.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.config import EstimatorConfig
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

    ``queue_limit`` bounds the number of requests waiting for the
    engine lock across all sessions — the backpressure point.
    ``request_timeout`` is the default seconds a caller waits for the
    engine lock before the request is abandoned (HTTP 504).
    """

    max_sessions: int = 64
    queue_limit: int = 256
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
        #: Serializes edits against evaluation: the thread holding the
        #: engine lock holds this while evaluating, so an estimate never
        #: sees a half-applied edit sequence.
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


class EstimationEngine:
    """The multi-tenant facade.  See the module docstring for the
    concurrency model; see :class:`ServiceConfig` for the knobs."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._sessions: Dict[str, Session] = {}
        self._ids = itertools.count(1)
        #: Guards the session registry, the counters, ``_waiting`` and
        #: the shutdown flags; held only for bookkeeping.
        self._lock = threading.Lock()
        #: Held by the one thread that evaluates (see :meth:`_run`).
        self._engine_lock = threading.Lock()
        #: Signalled, once the engine is closed, when the last waiting
        #: request takes the engine lock or gives up.
        self._idle = threading.Condition(self._lock)
        #: Requests admitted but not yet holding the engine lock.
        self._waiting = 0
        self._closed = False
        #: Set by ``shutdown(drain=False)``: waiting requests fail.
        self._abandoned = False
        self._counts: Dict[str, int] = {}
        self._dispatch_latency = LatencyTracker()

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
        with self._lock:
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
            self._bump("sessions_created")
        return session

    def close_session(self, session_id: str) -> dict:
        """Close a session; returns its final descriptor.  Requests
        still waiting for it are answered with :class:`SessionError`
        when they get the engine lock."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise SessionError(f"unknown session {session_id!r}")
            session.closed = True
            self._bump("sessions_closed")
        return session.info()

    def session(self, session_id: str) -> Session:
        """Look a session up; :class:`SessionError` when unknown."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        return session

    def list_sessions(self) -> List[dict]:
        """Descriptors of every open session, oldest first."""
        with self._lock:
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
        in the same order.  Blocks until this thread has taken the
        engine lock and evaluated the request, and returns
        ``(version, result)`` where ``version`` is the statistics
        revision served.
        """
        session = self.session(session_id)
        if rows is not None and not isinstance(rows, int):
            rows = tuple(int(r) for r in rows)
        return self._run(lambda: self._serve(session, rows), timeout)

    def submit_job(self, job: Callable, timeout: Optional[float] = None):
        """Run an arbitrary callable under the engine lock, admitted
        and timed out like an estimate.

        The escape hatch for work that must respect the shared-cache
        one-thread-at-a-time invariant but is not a session estimate —
        the server's sessionless ``POST /estimate`` routes its
        ``estimate_batch`` call through here.  ``jobs_served`` counts
        every job that ran, including one that raised."""
        def counted():
            try:
                return job()
            finally:
                self._count("jobs_served")

        return self._run(counted, timeout)

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
        session lock (O(affected nets), no engine lock); the
        re-estimate then takes the engine lock like any estimate.
        Returns ``(version, result)`` — ``result`` is ``None`` when
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
        """The ``service`` section of ``/metrics``: sessions, requests
        waiting for the engine lock, request counters, and
        dispatch-latency quantiles (seconds a request held the lock)."""
        with self._lock:
            counts = dict(sorted(self._counts.items()))
            open_sessions = len(self._sessions)
            depth = self._waiting
            closed = self._closed
        return {
            "sessions": {
                "open": open_sessions,
                "limit": self.config.max_sessions,
            },
            "queue": {"depth": depth, "limit": self.config.queue_limit},
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
        """Stop accepting work and wait, within ``timeout`` seconds,
        until no request is waiting or running.

        ``drain=True`` (the default) serves every waiting request;
        ``drain=False`` fails each with :class:`ServiceClosedError` as
        it takes the engine lock.  Idempotent.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            if not self._closed:
                self._bump("shutdowns")
            self._closed = True
            self._abandoned = self._abandoned or not drain
            self._idle.wait_for(lambda: not self._waiting, timeout)
        if self._engine_lock.acquire(
            timeout=max(0.0, deadline - time.monotonic())
        ):
            self._engine_lock.release()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bump(self, name: str, value: int = 1) -> None:
        """Add to a request counter; the caller holds ``_lock``."""
        self._counts[name] = self._counts.get(name, 0) + value

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._bump(name, value)

    def _run(self, work: Callable, timeout: Optional[float]):
        """Admit a request, take the engine lock within ``timeout``
        seconds (the config's default when ``None``; a timeout that is
        not positive, NaN included, runs out at once) and run ``work``
        on this thread."""
        seconds = min(
            timeout if timeout is not None else self.config.request_timeout,
            threading.TIMEOUT_MAX,
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("engine is shutting down")
            if self._waiting >= self.config.queue_limit:
                self._bump("rejected")
                raise QueueFullError(
                    f"request queue is full "
                    f"({self.config.queue_limit} waiting requests)"
                )
            self._waiting += 1
            self._bump("submitted")
        acquired = False
        try:
            # ``acquire`` would wait forever on -1 and reject NaN.
            acquired = seconds > 0 and self._engine_lock.acquire(
                timeout=seconds
            )
        finally:
            with self._lock:
                self._waiting -= 1
                if self._closed and not self._waiting:
                    self._idle.notify_all()
                if not acquired:
                    self._bump("timeouts")
                abandoned = self._abandoned
        if not acquired:
            raise RequestTimeoutError(
                f"request not served within {seconds:g}s (abandoned; "
                "the engine is saturated or an evaluation is long-running)"
            )
        try:
            if abandoned:
                raise ServiceClosedError(
                    "engine shut down before serving this request"
                )
            start = time.perf_counter()
            try:
                return work()
            finally:
                self._dispatch_latency.observe(time.perf_counter() - start)
        finally:
            self._engine_lock.release()

    def _serve(self, session: Session, rows: RowsSpec):
        """Evaluate one estimate request; the caller holds the engine
        lock.  Returns ``(version, result)``."""
        with session.lock:
            if session.closed:
                raise SessionError(
                    f"session {session.session_id!r} was closed before "
                    "this request was served"
                )
            engine = session.engine
            version = engine.stats_version
            if rows is None:
                result = engine.estimate()
            elif isinstance(rows, int):
                result, = engine.estimate_rows((rows,))
            else:
                keys = tuple(dict.fromkeys(rows))
                served = dict(zip(keys, engine.estimate_rows(keys)))
                result = tuple(served[key] for key in rows)
            count = len(rows) if isinstance(rows, tuple) else 1
            session.estimates_served += count
        self._count("estimates_served", count)
        return version, result
