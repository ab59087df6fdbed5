"""Exception hierarchy for the module area estimator.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers embedding the estimator in a larger CAD flow can catch one base
class.  Subclasses mirror the major subsystems: netlist handling,
technology databases, estimation itself, layout generation, and floor
planning.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetlistError(ReproError):
    """A netlist is structurally invalid or refers to unknown objects."""


class ParseError(NetlistError):
    """A netlist source file could not be parsed.

    Carries the source location so CAD-flow wrappers can point the user
    at the offending line.
    """

    def __init__(self, message: str, filename: str = "<string>", line: int = 0):
        self.filename = filename
        self.line = line
        if line:
            message = f"{filename}:{line}: {message}"
        super().__init__(message)


class MutationError(NetlistError):
    """An ECO edit (``repro.incremental`` Mutation) is malformed, names
    unknown netlist objects, or an edits file could not be decoded."""


class TechnologyError(ReproError):
    """A process database is inconsistent or missing required entries."""


class EstimationError(ReproError):
    """The estimator was given inputs it cannot produce an estimate for."""


class BackendUnavailableError(EstimationError):
    """A kernel evaluation backend was requested explicitly but its
    runtime dependency (NumPy, for the ``numpy`` backend) is not
    installed.  ``auto`` never raises this — it silently falls back to
    the dependency-free ``exact`` backend."""


class LayoutError(ReproError):
    """A layout flow (placement, routing, packing) failed."""


class FloorplanError(ReproError):
    """The floorplanner could not realise the requested plan."""


class DatabaseError(ReproError):
    """The estimate interchange database is malformed."""


class BenchmarkError(ReproError):
    """A perf-trajectory record is malformed or a bench run failed."""


class CheckpointError(ReproError):
    """A portfolio-optimizer resume file is malformed, truncated, from
    an unsupported schema version, or was written for a different
    design or configuration.  Raised after validating the *whole* file
    and before any optimizer state is touched, so a failed resume never
    corrupts a live run."""


class FrontendError(ReproError):
    """A frontend input (BLIF netlist, Liberty library, synthesis
    result) is malformed, incomplete, or inconsistent with the design
    that references it.  Raised after validating the *whole* input and
    before any library or module state is mutated, so a bad ``.lib`` or
    ``.blif`` never leaves a half-ingested technology database
    behind."""


class ObservabilityError(ReproError):
    """A trace file or explain report is malformed or inconsistent."""


class VerificationError(ReproError):
    """The differential verification harness found a violated invariant,
    or a verify artifact (seed record, report) is malformed."""


class ServiceError(ReproError):
    """Base class for estimation-service failures (``repro.service``).

    The HTTP layer maps each subclass onto one status code, so a
    caller embedding the engine facade directly sees the same taxonomy
    as a client of ``mae serve``."""


class SessionError(ServiceError):
    """A service session is unknown, already closed, or the engine's
    session limit is reached (HTTP 404 / 409)."""


class QueueFullError(ServiceError):
    """The engine already has ``queue_limit`` requests waiting for its
    lock — the backpressure signal (HTTP 429).  Clients should retry
    with backoff."""


class RequestTimeoutError(ServiceError):
    """A request waited longer than its per-request timeout for the
    engine lock (HTTP 504).  The request is abandoned: it is never
    evaluated."""


class ServiceClosedError(ServiceError):
    """The engine is shutting down (or already shut down) and no longer
    accepts work (HTTP 503).  In-flight requests accepted before the
    shutdown are still drained."""
