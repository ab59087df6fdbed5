"""``mae serve``: the stdlib HTTP+JSON front of the engine facade.

One :class:`MAEServer` wraps one :class:`~repro.service.engine
.EstimationEngine` behind ``http.server.ThreadingHTTPServer`` — no
third-party dependency, matching the package's zero-dependency runtime.
Handler threads run the JSON codec, netlist parsing and edit
application under the session lock; a handler thread evaluates an
estimate only while it holds the engine's drain lock (an idle engine
serves a request on its own handler thread), preserving the
concurrency invariant documented in ``docs/ARCHITECTURE.md``.

The route table below is the server's public contract;
``docs/SERVICE.md`` documents each endpoint with examples and
``tests/test_docs_consistency.py`` keeps the two in lockstep.

Status mapping (see :mod:`repro.errors`):

* 400 — malformed JSON, unparseable netlist, bad config/edits, a
  malformed ``Content-Length``, or a body that ends before it; in the
  request head, a malformed request line or header line (no colon,
  whitespace before the colon, an obs-fold continuation) or two
  ``Content-Length`` fields that disagree
* 404 — unknown route or unknown session
* 408 — the request body did not arrive within
  :data:`BODY_READ_TIMEOUT_S`
* 409 — session limit reached
* 411 — a chunked request body (send ``Content-Length``)
* 413 — the declared body exceeds :data:`MAX_BODY_BYTES`
* 431 — a header line over :data:`MAX_HEADER_LINE` bytes, or more than
  :data:`MAX_HEADERS` header lines
* 429 — backpressure: the bounded request queue (or the in-flight
  request limiter) is full; retry with backoff
* 503 — the engine is draining for shutdown
* 504 — the per-request timeout expired before dispatch
* 505 — an HTTP version of 2.0 or above

The request line is checked as ``http.server`` checks it (a line
without a version is answered as HTTP/1.0, with a status line); the
header block is read by :func:`read_headers`, a plain line reader, not
the stdlib's ``email.feedparser`` (~30 µs a head).  Errors in the head
are answered by ``send_error`` and close the connection.

Connections persist (HTTP/1.1 keep-alive): every reply leaves in one
write on a ``TCP_NODELAY`` socket, so a kept-alive client never waits
on a delayed ACK.  The body is read before any reply, so an error
reply leaves the stream on a request boundary.  A reply sent without
reading the whole body (a malformed length, an oversized, chunked,
truncated or stalled body, or an in-flight 429) carries
``Connection: close`` and closes the connection.
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.core.config import EstimatorConfig
from repro.errors import (
    EstimationError,
    MutationError,
    NetlistError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    SessionError,
    TechnologyError,
)
from repro.incremental.mutations import mutations_from_jsonable
from repro.netlist import parse_spice, parse_verilog
from repro.obs.metrics import LatencyTracker
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.service.wire import estimate_to_jsonable
from repro.technology.libraries import builtin_processes

#: The public endpoint contract: (method, path template, summary).
#: ``docs/SERVICE.md`` must list exactly these —
#: ``tests/test_docs_consistency.py`` enforces it.
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("GET", "/health", "liveness probe"),
    ("GET", "/metrics", "repro.obs snapshot plus service/server sections"),
    ("POST", "/sessions", "create a session from a netlist source"),
    ("GET", "/sessions", "list open sessions"),
    ("GET", "/sessions/{id}", "describe one session"),
    ("DELETE", "/sessions/{id}", "close a session"),
    ("POST", "/sessions/{id}/estimate", "estimate the live module"),
    ("POST", "/sessions/{id}/edits", "apply ECO edits and re-estimate"),
    ("POST", "/estimate", "sessionless batch estimate"),
    ("POST", "/shutdown", "drain in-flight work and stop"),
)

#: EstimatorConfig fields settable over the wire (``config`` objects in
#: session-create and batch-estimate bodies).  ``power_nets`` arrives
#: as a JSON list and is tupled; everything else passes through to the
#: frozen dataclass, whose own validation rejects bad values.
CONFIG_FIELDS = (
    "rows", "max_rows", "row_spread_mode", "feedthrough_model",
    "track_sharing_factor", "track_model", "congestion_margin",
    "net_span_mode", "device_area_mode", "port_pitch_override",
    "power_nets", "max_aspect",
)

_PARSERS = {"verilog": parse_verilog, "spice": parse_spice}


class _HTTPServer(ThreadingHTTPServer):
    """Threaded server, one handler thread per connection: a deep
    accept backlog absorbs the simultaneous-connect storm of many
    one-shot clients (the stdlib default of 5 drops connections at
    ~20+ concurrent clients), and daemon handler threads never block
    interpreter exit, nor :meth:`MAEServer.stop` on an idle kept-alive
    connection."""

    daemon_threads = True
    request_queue_size = 256


class _HTTPFail(Exception):
    """Internal: unwind a handler with a specific status + message."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


def config_from_jsonable(payload: object) -> EstimatorConfig:
    """Build an :class:`EstimatorConfig` from a request's ``config``
    object, rejecting unknown fields loudly (400)."""
    if payload is None:
        return EstimatorConfig()
    if not isinstance(payload, dict):
        raise _HTTPFail(400, "'config' must be a JSON object")
    unknown = set(payload) - set(CONFIG_FIELDS)
    if unknown:
        raise _HTTPFail(
            400, f"unknown config fields {sorted(unknown)} "
                 f"(settable: {', '.join(CONFIG_FIELDS)})"
        )
    fields = dict(payload)
    if "power_nets" in fields:
        nets = fields["power_nets"]
        if not isinstance(nets, list) or not all(
            isinstance(net, str) for net in nets
        ):
            raise _HTTPFail(400, "'power_nets' must be a list of strings")
        fields["power_nets"] = tuple(nets)
    try:
        return EstimatorConfig(**fields)
    except (EstimationError, TypeError) as exc:
        raise _HTTPFail(400, f"invalid config: {exc}") from exc


def _parse_module(body: dict, field_prefix: str = ""):
    """Parse the ``source``/``format`` pair of a request body."""
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise _HTTPFail(
            400, f"'{field_prefix}source' must be a non-empty string"
        )
    fmt = body.get("format", "verilog")
    parser = _PARSERS.get(fmt)
    if parser is None:
        raise _HTTPFail(
            400, f"unknown format {fmt!r} (supported: verilog, spice)"
        )
    return parser(source)


def _rows_spec(body: dict):
    """Normalize the ``rows`` field: null, int, or list of ints."""
    rows = body.get("rows")
    if rows is None or isinstance(rows, int) and not isinstance(rows, bool):
        return rows
    if isinstance(rows, list) and rows and all(
        isinstance(r, int) and not isinstance(r, bool) for r in rows
    ):
        return tuple(rows)
    raise _HTTPFail(
        400, "'rows' must be null, an integer, or a non-empty "
             "list of integers"
    )


#: Largest request body the server reads.  A larger declared
#: ``Content-Length`` gets 413 without its body being read.  Sessions
#: cost ~52 bytes per gate as Verilog, so this admits ~300k gates.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Deadline for reading one request body once its headers are in.  A
#: body still short of its ``Content-Length`` then gets 408,
#: so a stalled client frees its ``--max-inflight`` slot.  It bounds
#: only the body: an idle kept-alive connection between requests is
#: never cut.
BODY_READ_TIMEOUT_S = 10.0

#: Request-head limits, the stdlib's (``http.client``): a longer
#: header line, or more header lines, gets 431.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

#: A header field name is an RFC 9110 token: no whitespace, no colon.
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class RequestHeaders(dict):
    """A request's header fields by lower-cased name.  ``get`` and
    ``in`` ignore case, and the first occurrence of a name wins, as in
    the stdlib's ``email.message.Message``."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name.lower())


def read_headers(rfile) -> RequestHeaders:
    """Read a request's header block, up to its blank line (or EOF).

    Raises 431 for a line over :data:`MAX_HEADER_LINE` bytes or more
    than :data:`MAX_HEADERS` header lines, and 400 for a line that is
    not ``name: value`` (no colon, whitespace before the colon, an
    obs-fold continuation) or for ``Content-Length`` fields that
    disagree: RFC 9112 has a server reject all three, since an
    intermediary that reads them otherwise would frame the body
    differently (request smuggling).
    """
    headers = RequestHeaders()
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_HEADER_LINE + 1)
        if len(line) > MAX_HEADER_LINE:
            raise _HTTPFail(431, "Line too long")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.partition(b":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise _HTTPFail(400, f"Bad header line ({line[:64]!r})")
        key = name.decode("ascii").lower()
        value = value.strip().decode("iso-8859-1")
        first = headers.setdefault(key, value)
        if key == "content-length" and first != value:
            raise _HTTPFail(400, "Conflicting Content-Length headers")
    raise _HTTPFail(431, f"Too many headers (more than {MAX_HEADERS})")


#: How often the accept loop checks for :meth:`MAEServer.stop` (the
#: stdlib default of 0.5 s makes every stop wait out up to half a
#: second; new connections wake the loop immediately either way).
POLL_INTERVAL_S = 0.05


class MAEServer:
    """One HTTP server bound to one engine.

    ``port=0`` binds an ephemeral port (tests, load tests); the bound
    address is available as :attr:`base_url` after construction.
    ``max_inflight`` bounds concurrently *handled* requests across all
    endpoints — the second backpressure layer in front of the engine's
    bounded queue (both answer 429).
    """

    def __init__(
        self,
        engine: Optional[EstimationEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 128,
    ) -> None:
        if max_inflight < 1:
            raise ServiceError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.engine = engine or EstimationEngine(ServiceConfig())
        #: One shared process database per tech name: sessions of the
        #: same technology share one instance, which keys them onto the
        #: same plans and lets multi-session drains batch together.
        self.processes = {
            name: factory() for name, factory in builtin_processes().items()
        }
        self.latency: Dict[str, LatencyTracker] = {}
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._inflight = threading.Semaphore(max_inflight)
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        self._done = threading.Event()
        handler = _make_handler(self)
        self._httpd = _HTTPServer((host, port), handler)
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has completed its drain."""
        return self._done.is_set()

    # ------------------------------------------------------------------
    def start(self) -> "MAEServer":
        """Serve on a background thread (tests, load tests)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": POLL_INTERVAL_S},
            name="mae-serve", daemon=True,
        )
        self._thread.start()
        return self

    def run_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or
        Ctrl-C in the CLI handler) — the ``mae serve`` foreground."""
        try:
            self._httpd.serve_forever(poll_interval=POLL_INTERVAL_S)
        finally:
            self.stop()

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting connections, drain the
        engine (serving every queued request), persist caches."""
        if self._stopped:
            return
        self._stopped = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self.engine.shutdown(drain=drain)
        if self._thread is not None and self._thread is not (
            threading.current_thread()
        ):
            self._thread.join(timeout=10.0)
        self._done.set()

    # ------------------------------------------------------------------
    def observe(self, endpoint: str, seconds: float, status: int) -> None:
        with self._lock:
            tracker = self.latency.get(endpoint)
            if tracker is None:
                tracker = self.latency[endpoint] = LatencyTracker()
            key = f"{endpoint}:{status}"
            self._counts[key] = self._counts.get(key, 0) + 1
        tracker.observe(seconds)

    def server_stats(self) -> dict:
        with self._lock:
            counts = dict(sorted(self._counts.items()))
            latency = {
                endpoint: tracker.summary()
                for endpoint, tracker in sorted(self.latency.items())
            }
        return {"responses": counts, "latency": latency}


def _make_handler(server: MAEServer):
    """The request-handler class, closed over its :class:`MAEServer`."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "mae-serve/1"
        protocol_version = "HTTP/1.1"
        # Error replies to a request line without a version carry a
        # status line too (an HTTP/0.9 reply would be the bare body).
        default_request_version = "HTTP/1.0"
        # TCP_NODELAY: a reply never waits for the client's delayed ACK
        # of the previous segment on a kept-alive connection.
        disable_nagle_algorithm = True

        # silence per-request stderr logging; metrics carry the signal
        def log_message(self, format, *args):  # noqa: A002
            pass

        def parse_request(self) -> bool:
            """The stdlib's ``parse_request`` with :func:`read_headers`
            for the header block: the same request-line checks (400,
            505) and ``Connection`` / ``Expect: 100-continue``
            handling.  Returns False once an error reply is sent."""
            self.command = None
            self.request_version = self.default_request_version
            self.close_connection = True
            requestline = str(self.raw_requestline, "iso-8859-1")
            requestline = requestline.rstrip("\r\n")
            self.requestline = requestline
            words = requestline.split()
            if not words:
                return False
            if len(words) >= 3:
                version = words[-1]
                try:
                    if not version.startswith("HTTP/"):
                        raise ValueError
                    base = version.split("/", 1)[1]
                    parts = base.split(".")
                    if len(parts) != 2 or not all(
                        part.isdigit() and len(part) <= 10 for part in parts
                    ):
                        raise ValueError
                    number = int(parts[0]), int(parts[1])
                except ValueError:
                    self.send_error(
                        400, f"Bad request version ({version!r})"
                    )
                    return False
                if number >= (1, 1):
                    self.close_connection = False
                if number >= (2, 0):
                    self.send_error(505, f"Invalid HTTP version ({base})")
                    return False
                self.request_version = version
            if not 2 <= len(words) <= 3:
                self.send_error(400, f"Bad request syntax ({requestline!r})")
                return False
            command, path = words[:2]
            if len(words) == 2:
                self.close_connection = True
                if command != "GET":
                    self.send_error(
                        400, f"Bad HTTP/0.9 request type ({command!r})"
                    )
                    return False
            self.command = command
            # gh-87389: '//' would read as a scheme-relative URL.
            self.path = (
                "/" + path.lstrip("/") if path.startswith("//") else path
            )
            try:
                self.headers = read_headers(self.rfile)
            except _HTTPFail as exc:
                self.send_error(exc.status, exc.message)
                return False
            connection = self.headers.get("Connection", "").lower()
            if connection == "close":
                self.close_connection = True
            elif connection == "keep-alive":
                self.close_connection = False
            if (self.headers.get("Expect", "").lower() == "100-continue"
                    and self.request_version >= "HTTP/1.1"):
                return self.handle_expect_100()
            return True

        def do_GET(self) -> None:
            self._route("GET")

        def do_POST(self) -> None:
            self._route("POST")

        def do_DELETE(self) -> None:
            self._route("DELETE")

        # --------------------------------------------------------------
        def _route(self, method: str) -> None:
            """Handle one request: the reply is recorded in ``/metrics``
            and its in-flight slot released before it is written, so a
            client that has the reply finds it counted."""
            start = time.perf_counter()
            self._body = None  # not read yet: a reply now must close
            if server._inflight.acquire(blocking=False):
                try:
                    endpoint, status, data = self._handle(method)
                finally:
                    server._inflight.release()
            else:
                endpoint, status, data = "inflight-limit", 429, _encode({
                    "error": "server is at its in-flight request limit; "
                             "retry"
                })
            server.observe(endpoint, time.perf_counter() - start, status)
            self._reply(status, data)

        def _handle(self, method: str) -> Tuple[str, int, bytes]:
            """(endpoint, status, encoded reply) for one request."""
            endpoint = "unmatched"
            try:
                # Resolve the route before running its handler so error
                # responses are attributed to the endpoint they hit, not
                # lumped under "unmatched".  Read the body before any
                # reply, a 404/405 included, so the next request on the
                # connection starts at its request line; a body error
                # supersedes a route error.
                try:
                    endpoint, status, thunk = self._dispatch(method)
                finally:
                    self._body = self._read_body()
                return endpoint, status, _encode(thunk())
            except _HTTPFail as exc:
                return endpoint, exc.status, _encode({"error": exc.message})
            except ReproError as exc:
                status, payload = _map_error(exc)
                return endpoint, status, _encode(payload)
            except Exception as exc:  # never kill the handler thread
                return endpoint, 500, _encode(
                    {"error": f"internal error: {exc}"}
                )

        def _dispatch(self, method: str) -> Tuple[str, int, object]:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["health"]:
                self._require(method, "GET", "/health")
                return "GET /health", 200, lambda: {
                    "status": "ok",
                    "accepting": server.engine.service_stats()["accepting"],
                }
            if parts == ["metrics"]:
                self._require(method, "GET", "/metrics")
                return "GET /metrics", 200, self._metrics
            if parts == ["sessions"]:
                if method == "POST":
                    return "POST /sessions", 201, self._create_session
                self._require(method, "GET", "/sessions")
                return "GET /sessions", 200, lambda: {
                    "sessions": server.engine.list_sessions()
                }
            if len(parts) == 2 and parts[0] == "sessions":
                session_id = parts[1]
                if method == "GET":
                    return "GET /sessions/{id}", 200, lambda: (
                        server.engine.session(session_id).info()
                    )
                self._require(method, "DELETE", "/sessions/{id}")
                return "DELETE /sessions/{id}", 200, lambda: {
                    "closed": server.engine.close_session(session_id)
                }
            if len(parts) == 3 and parts[0] == "sessions":
                session_id, action = parts[1], parts[2]
                if action == "estimate":
                    self._require(method, "POST",
                                  "/sessions/{id}/estimate")
                    return ("POST /sessions/{id}/estimate", 200,
                            lambda: self._estimate(session_id))
                if action == "edits":
                    self._require(method, "POST", "/sessions/{id}/edits")
                    return ("POST /sessions/{id}/edits", 200,
                            lambda: self._edits(session_id))
            if parts == ["estimate"]:
                self._require(method, "POST", "/estimate")
                return "POST /estimate", 200, self._batch_estimate
            if parts == ["shutdown"]:
                self._require(method, "POST", "/shutdown")
                return "POST /shutdown", 202, self._shutdown
            raise _HTTPFail(404, f"no route for {method} {self.path}")

        @staticmethod
        def _metrics() -> dict:
            payload = server.engine.metrics()
            payload["server"] = server.server_stats()
            return payload

        @staticmethod
        def _shutdown() -> dict:
            threading.Thread(
                target=server.stop, kwargs={"drain": True},
                name="mae-serve-shutdown", daemon=True,
            ).start()
            return {"status": "draining"}

        @staticmethod
        def _require(method: str, expected: str, route: str) -> None:
            if method != expected:
                raise _HTTPFail(
                    405, f"{route} only supports {expected}"
                )

        # --------------------------------------------------------------
        def _create_session(self) -> dict:
            body = self._json_body()
            module = _parse_module(body)
            tech = body.get("tech", "nmos")
            process = server.processes.get(tech)
            if process is None:
                raise _HTTPFail(
                    400, f"unknown tech {tech!r} "
                         f"(available: {sorted(server.processes)})"
                )
            config = config_from_jsonable(body.get("config"))
            backend = body.get("backend")
            if backend is not None and not isinstance(backend, str):
                raise _HTTPFail(400, "'backend' must be a string")
            name = body.get("name")
            if name is not None and not isinstance(name, str):
                raise _HTTPFail(400, "'name' must be a string")
            session = server.engine.create_session(
                module, process, config, name=name, backend=backend,
            )
            return session.info()

        def _estimate(self, session_id: str) -> dict:
            body = self._json_body(optional=True)
            rows = _rows_spec(body)
            version, result = server.engine.estimate(
                session_id, rows, timeout=_timeout(body)
            )
            return _estimate_payload(session_id, version, rows, result)

        def _edits(self, session_id: str) -> dict:
            body = self._json_body()
            document = body.get("edits")
            if document is None:
                raise _HTTPFail(
                    400, "'edits' must hold a mutations document "
                         "(the mae eco edits-file format)"
                )
            mutations = mutations_from_jsonable(document)
            rows = _rows_spec(body)
            want_estimate = body.get("estimate", True)
            if not isinstance(want_estimate, bool):
                raise _HTTPFail(400, "'estimate' must be a boolean")
            version, result = server.engine.apply_edits(
                session_id, mutations, rows,
                estimate=want_estimate, timeout=_timeout(body),
            )
            payload = {"applied": len(mutations)}
            if want_estimate:
                payload.update(
                    _estimate_payload(session_id, version, rows, result)
                )
            else:
                payload.update({"session": session_id, "version": version})
            return payload

        def _batch_estimate(self) -> dict:
            body = self._json_body()
            specs = body.get("modules")
            if not isinstance(specs, list) or not specs:
                raise _HTTPFail(
                    400, "'modules' must be a non-empty list of "
                         "{source, format} objects"
                )
            modules = []
            for index, spec in enumerate(specs):
                if not isinstance(spec, dict):
                    raise _HTTPFail(
                        400, f"modules[{index}] must be an object"
                    )
                modules.append(_parse_module(spec))
            tech = body.get("tech", "nmos")
            process = server.processes.get(tech)
            if process is None:
                raise _HTTPFail(
                    400, f"unknown tech {tech!r} "
                         f"(available: {sorted(server.processes)})"
                )
            methodology = body.get("methodology", "standard-cell")
            if methodology not in ("standard-cell", "full-custom"):
                raise _HTTPFail(
                    400, "'methodology' must be 'standard-cell' or "
                         "'full-custom'"
                )
            config = config_from_jsonable(body.get("config"))
            rows = _rows_spec(body)
            row_list = (
                list(rows) if isinstance(rows, tuple) else [rows]
            )
            configs = [
                config if r is None else config.with_rows(r)
                for r in row_list
            ]

            def job():
                from repro.perf.batch import estimate_batch

                return estimate_batch(
                    modules, process, configs,
                    methodologies=(methodology,),
                )

            results = server.engine.submit_job(job, timeout=_timeout(body))
            return {
                "count": len(results),
                "estimates": [
                    {
                        "module": result.task.module_name,
                        "methodology": result.task.methodology,
                        "estimate": estimate_to_jsonable(result.estimate),
                    }
                    for result in results
                ],
            }

        # --------------------------------------------------------------
        def _read_body(self) -> bytes:
            """The request body, bounded by :data:`MAX_BODY_BYTES` and
            :data:`BODY_READ_TIMEOUT_S`.  Raises 400/408/411/413 with
            the body (partly) unread."""
            if "Transfer-Encoding" in self.headers:
                raise _HTTPFail(
                    411, "send the request body with a Content-Length"
                )
            declared = (self.headers.get("Content-Length") or "0").strip()
            if not (declared.isascii() and declared.isdigit()):
                raise _HTTPFail(
                    400, "Content-Length must be a non-negative integer, "
                         f"got {declared!r}"
                )
            remaining = int(declared)
            if remaining > MAX_BODY_BYTES:
                raise _HTTPFail(
                    413, f"request body of {remaining} bytes exceeds "
                         f"the {MAX_BODY_BYTES}-byte limit"
                )
            if not remaining:
                return b""
            chunks = []
            deadline = time.monotonic() + BODY_READ_TIMEOUT_S
            try:
                while remaining:
                    budget = deadline - time.monotonic()
                    if budget <= 0:
                        raise socket.timeout
                    self.connection.settimeout(budget)
                    chunk = self.rfile.read1(remaining)
                    if not chunk:
                        raise _HTTPFail(
                            400, "request body ended before its "
                                 "Content-Length"
                        )
                    chunks.append(chunk)
                    remaining -= len(chunk)
            except socket.timeout:
                raise _HTTPFail(
                    408, "request body not received within "
                         f"{BODY_READ_TIMEOUT_S} s"
                ) from None
            finally:
                self.connection.settimeout(None)
            return b"".join(chunks)

        def _json_body(self, optional: bool = False) -> dict:
            if not self._body:
                if optional:
                    return {}
                raise _HTTPFail(400, "request body must be JSON")
            try:
                body = json.loads(self._body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HTTPFail(
                    400, f"request body is not valid JSON: {exc}"
                ) from exc
            if not isinstance(body, dict):
                raise _HTTPFail(400, "request body must be a JSON object")
            return body

        def _reply(self, status: int, data: bytes) -> None:
            """Send the status line, headers and JSON body in one write.

            A reply sent before the whole body was read closes the
            connection: the unread bytes would otherwise be parsed as
            the next request."""
            close = self._body is None
            if close:
                self.close_connection = True
            head = (
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                + ("Connection: close\r\n" if close else "")
                + "\r\n"
            )
            try:
                self.wfile.write(head.encode("latin-1") + data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing to salvage

    return Handler


def _encode(payload: dict) -> bytes:
    """A reply body: the payload as UTF-8 JSON."""
    return json.dumps(payload).encode("utf-8")


def _timeout(body: dict) -> Optional[float]:
    timeout = body.get("timeout")
    if timeout is None:
        return None
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) \
            or not 0 < timeout < math.inf:
        raise _HTTPFail(400, "'timeout' must be a positive number")
    return float(timeout)


def _estimate_payload(session_id, version, rows, result) -> dict:
    payload = {"session": session_id, "version": version}
    if isinstance(result, tuple):
        payload["estimates"] = [
            estimate_to_jsonable(estimate) for estimate in result
        ]
    else:
        payload["estimate"] = estimate_to_jsonable(result)
    return payload


def _map_error(exc: ReproError) -> Tuple[int, dict]:
    """ReproError subclass -> (status, body); the service contract."""
    if isinstance(exc, QueueFullError):
        return 429, {"error": str(exc)}
    if isinstance(exc, RequestTimeoutError):
        return 504, {"error": str(exc)}
    if isinstance(exc, ServiceClosedError):
        return 503, {"error": str(exc)}
    if isinstance(exc, SessionError):
        status = 409 if "limit" in str(exc) else 404
        return status, {"error": str(exc)}
    if isinstance(exc, (NetlistError, MutationError, EstimationError,
                        TechnologyError)):
        return 400, {"error": str(exc)}
    return 500, {"error": str(exc)}


def start_server(
    engine: Optional[EstimationEngine] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: int = 128,
) -> MAEServer:
    """Build and start a server on a background thread; returns it with
    :attr:`~MAEServer.base_url` ready.  The one-liner for tests, the
    load generator, and embedders."""
    return MAEServer(engine, host, port, max_inflight).start()
