"""Tests for the ``mae serve`` HTTP layer (:mod:`repro.service.server`).

A full client walkthrough over a live ephemeral-port server: session
lifecycle, bit-identical estimates over the wire, ECO edit streaming,
the sessionless batch endpoint, the error-status contract
(400/404/405/408/409/411/413/429/431/503/504/505), request heads down
to raw bytes, persistent connections and bounded request bodies,
metrics, and the drain-on-shutdown endpoint.  Also the direct test of
the ``serve_equivalence`` verify check.
"""

import dataclasses
import http.client
import json
import re
import socket
import statistics
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell
from repro.incremental.editgen import random_mutation
from repro.incremental.mutations import mutations_to_jsonable
from repro.netlist.writers import write_verilog
from repro.service import server as server_mod
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.service.server import MAEServer, ROUTES, start_server
from repro.service.wire import estimate_from_jsonable, estimate_to_jsonable
from repro.technology.libraries import nmos_process
from repro.verify.checks import check_serve_equivalence
from repro.workloads.generators import counter_module, decoder_module


def _fields(estimate):
    return dataclasses.astuple(estimate)


def request(base, method, path, payload=None, timeout=15):
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    req = urllib.request.Request(
        base + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def nmos():
    return nmos_process()


@pytest.fixture(scope="module")
def module():
    return counter_module("http_counter", bits=5)


@pytest.fixture()
def server():
    server = start_server(EstimationEngine(ServiceConfig(
        max_sessions=4, queue_limit=8,
    )))
    yield server
    server.stop(drain=True)


def create_session(server, module, **extra):
    payload = {"source": write_verilog(module), "format": "verilog",
               "tech": "nmos", **extra}
    status, body = request(server.base_url, "POST", "/sessions", payload)
    assert status == 201, body
    return body


class TestWalkthrough:
    def test_health(self, server):
        status, body = request(server.base_url, "GET", "/health")
        assert status == 200
        assert body == {"status": "ok", "accepting": True}

    def test_session_lifecycle(self, server, module):
        info = create_session(server, module, name="walk")
        sid = info["session"]
        assert info["name"] == "walk"
        assert info["devices"] == module.device_count
        status, body = request(server.base_url, "GET", "/sessions")
        assert status == 200
        assert [s["session"] for s in body["sessions"]] == [sid]
        status, body = request(server.base_url, "GET", f"/sessions/{sid}")
        assert status == 200 and body["session"] == sid
        status, body = request(
            server.base_url, "DELETE", f"/sessions/{sid}"
        )
        assert status == 200 and body["closed"]["session"] == sid
        status, _ = request(server.base_url, "GET", f"/sessions/{sid}")
        assert status == 404

    def test_estimate_bit_identity_over_http(self, server, module, nmos):
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate", {}
        )
        assert status == 200 and body["version"] == 0
        served = estimate_from_jsonable(body["estimate"])
        direct = estimate_standard_cell(module, nmos, EstimatorConfig())
        assert _fields(served) == _fields(direct)

    def test_rows_list_over_http(self, server, module, nmos):
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate",
            {"rows": [2, 3, 4]},
        )
        assert status == 200 and len(body["estimates"]) == 3
        for rows, payload in zip((2, 3, 4), body["estimates"]):
            served = estimate_from_jsonable(payload)
            direct = estimate_standard_cell(
                module, nmos, EstimatorConfig(rows=rows)
            )
            assert _fields(served) == _fields(direct)

    def test_edits_stream(self, server, module, nmos):
        import random

        sid = create_session(server, module)["session"]
        mirror = module.copy()
        rng = random.Random(3)
        config = EstimatorConfig()
        for step in range(4):
            mutation = random_mutation(mirror, rng, config.power_nets)
            status, body = request(
                server.base_url, "POST", f"/sessions/{sid}/edits",
                {"edits": mutations_to_jsonable([mutation])},
            )
            assert status == 200, body
            assert body["applied"] == 1
            assert body["version"] == step + 1
            mutation.apply(mirror)
            served = estimate_from_jsonable(body["estimate"])
            direct = estimate_standard_cell(mirror, nmos, config)
            assert _fields(served) == _fields(direct)

    def test_edits_without_estimate(self, server, module):
        import random

        sid = create_session(server, module)["session"]
        mutation = random_mutation(
            module.copy(), random.Random(9), EstimatorConfig().power_nets
        )
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/edits",
            {"edits": mutations_to_jsonable([mutation]),
             "estimate": False},
        )
        assert status == 200
        assert body == {"applied": 1, "session": sid, "version": 1}

    def test_batch_endpoint(self, server, nmos):
        modules = [counter_module("http_b0", bits=4),
                   decoder_module("http_b1", address_bits=3)]
        status, body = request(server.base_url, "POST", "/estimate", {
            "modules": [
                {"source": write_verilog(m), "format": "verilog"}
                for m in modules
            ],
            "tech": "nmos",
            "rows": [2, 3],
        })
        assert status == 200 and body["count"] == 4
        cursor = iter(body["estimates"])
        for module in modules:
            for rows in (2, 3):
                entry = next(cursor)
                assert entry["module"] == module.name
                served = estimate_from_jsonable(entry["estimate"])
                direct = estimate_standard_cell(
                    module, nmos, EstimatorConfig(rows=rows)
                )
                assert _fields(served) == _fields(direct)

    def test_metrics_sections(self, server, module):
        sid = create_session(server, module)["session"]
        request(server.base_url, "POST", f"/sessions/{sid}/estimate", {})
        status, body = request(server.base_url, "GET", "/metrics")
        assert status == 200
        for key in ("counters", "kernels", "plans", "triangle", "backend",
                    "service", "server"):
            assert key in body
        assert body["service"]["sessions"]["open"] == 1
        assert body["server"]["responses"]["POST /sessions:201"] == 1

    def test_config_over_the_wire(self, server, module, nmos):
        sid = create_session(
            server, module, config={"rows": 5, "track_model": "shared"}
        )["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate", {}
        )
        assert status == 200
        served = estimate_from_jsonable(body["estimate"])
        direct = estimate_standard_cell(
            module, nmos, EstimatorConfig(rows=5, track_model="shared")
        )
        assert _fields(served) == _fields(direct)


class TestErrorContract:
    def test_unknown_route_404(self, server):
        assert request(server.base_url, "GET", "/nope")[0] == 404

    def test_unknown_session_404(self, server):
        status, _ = request(
            server.base_url, "POST", "/sessions/s999999/estimate", {}
        )
        assert status == 404
        # error responses are attributed to the matched endpoint, not
        # lumped under "unmatched"
        _, body = request(server.base_url, "GET", "/metrics")
        assert body["server"]["responses"][
            "POST /sessions/{id}/estimate:404"
        ] == 1

    def test_reply_is_counted_before_it_is_written(self, monkeypatch):
        """Every reply, the in-flight 429 included, is observed in
        /metrics before its bytes go out, so a client holding a reply
        always finds it counted."""
        server = start_server(
            EstimationEngine(ServiceConfig()), max_inflight=1
        )
        events = []
        observe = server.observe
        handler = server._httpd.RequestHandlerClass
        reply = handler._reply

        def observing(endpoint, seconds, status):
            events.append(("observe", status))
            observe(endpoint, seconds, status)

        def replying(self, status, data):
            events.append(("write", status))
            reply(self, status, data)

        monkeypatch.setattr(server, "observe", observing)
        monkeypatch.setattr(handler, "_reply", replying)
        try:
            assert request(server.base_url, "GET", "/health")[0] == 200
            assert request(
                server.base_url, "POST", "/sessions/s999999/estimate", {}
            )[0] == 404
            # Take the only slot: the next request is turned away.
            assert server._inflight.acquire(timeout=5)
            try:
                assert request(server.base_url, "GET", "/health")[0] == 429
            finally:
                server._inflight.release()
        finally:
            server.stop(drain=True)
        assert events == [
            ("observe", 200), ("write", 200),
            ("observe", 404), ("write", 404),
            ("observe", 429), ("write", 429),
        ]

    def test_wrong_method_405(self, server):
        assert request(server.base_url, "DELETE", "/health")[0] == 405
        assert request(server.base_url, "GET", "/shutdown")[0] == 405

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.base_url + "/sessions", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=15)
        assert exc_info.value.code == 400

    def test_unparseable_netlist_400(self, server):
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": "module broken(", "format": "verilog",
        })
        assert status == 400 and "error" in body

    def test_unknown_tech_400(self, server, module):
        status, _ = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module), "tech": "unobtainium",
        })
        assert status == 400

    def test_unknown_config_field_400(self, server, module):
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module),
            "config": {"rowz": 4},
        })
        assert status == 400 and "rowz" in body["error"]

    def test_bad_rows_400(self, server, module):
        sid = create_session(server, module)["session"]
        for rows in ("four", [], [1.5], True):
            status, _ = request(
                server.base_url, "POST", f"/sessions/{sid}/estimate",
                {"rows": rows},
            )
            assert status == 400

    def test_session_limit_409(self, server, module):
        for _ in range(4):
            create_session(server, module)
        status, body = request(server.base_url, "POST", "/sessions", {
            "source": write_verilog(module), "tech": "nmos",
        })
        assert status == 409 and "limit" in body["error"]

    def test_queue_full_429(self, server, module):
        sid = create_session(server, module)["session"]
        engine = server.engine
        engine._dispatch_gate.clear()
        try:
            import threading

            threads = [
                threading.Thread(
                    target=request,
                    args=(server.base_url, "POST",
                          f"/sessions/{sid}/estimate",
                          {"timeout": 5}),
                    daemon=True,
                )
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            deadline = 100
            while len(engine._queue) < 8 and deadline:
                deadline -= 1
                time.sleep(0.02)
            status, body = request(
                server.base_url, "POST", f"/sessions/{sid}/estimate", {}
            )
            assert status == 429, body
        finally:
            engine._dispatch_gate.set()

    def test_request_timeout_504(self, server, module):
        sid = create_session(server, module)["session"]
        server.engine._dispatch_gate.clear()
        try:
            status, body = request(
                server.base_url, "POST", f"/sessions/{sid}/estimate",
                {"timeout": 0.05},
            )
            assert status == 504, body
        finally:
            server.engine._dispatch_gate.set()

    @pytest.mark.parametrize("timeout, expected", [
        (1e300, 200), (float("inf"), 400), (float("nan"), 400), (0, 400),
    ])
    def test_timeout_field(self, server, module, timeout, expected):
        """A huge timeout waits as long as the platform allows; a
        non-finite or non-positive one is refused."""
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate",
            {"timeout": timeout},
        )
        assert status == expected, body

    def test_inflight_limit_429(self, module):
        server = start_server(
            EstimationEngine(ServiceConfig()), max_inflight=1
        )
        try:
            # Exhaust the only permit from outside a request, then any
            # request bounces with 429.
            assert server._inflight.acquire(blocking=False)
            status, _ = request(server.base_url, "GET", "/health")
            assert status == 429
            server._inflight.release()
            status, _ = request(server.base_url, "GET", "/health")
            assert status == 200
        finally:
            server.stop(drain=True)


def exchange(conn, method, path, payload=None):
    """One request on a persistent ``http.client`` connection."""
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


def raw_exchange(server, data, shutdown_write=False):
    """Send raw request bytes on a fresh socket; return the reply's
    status, headers and JSON body, and whether the server then closed
    the connection."""
    with socket.create_connection((server.host, server.port),
                                  timeout=15) as sock:
        sock.sendall(data)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = json.loads(response.read())
        closed = sock.recv(1) == b""
        return response.status, response.headers, body, closed


def response_count(server, key):
    """``server.responses[key]`` from ``/metrics``, once it is counted
    (the handler counts a reply just after sending it)."""
    deadline = time.monotonic() + 5
    while True:
        _, body = request(server.base_url, "GET", "/metrics")
        count = body["server"]["responses"].get(key, 0)
        if count or time.monotonic() > deadline:
            return count
        time.sleep(0.02)


class TestKeepAlive:
    def test_estimates_answer_inside_the_delayed_ack_stall(
        self, server, module
    ):
        """A kept-alive client pays compute time, not the ~40 ms a
        two-write reply waits on the client's delayed ACK."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=15)
        try:
            status, info, _ = exchange(conn, "POST", "/sessions", {
                "source": write_verilog(module), "tech": "nmos",
            })
            assert status == 201, info
            path = f"/sessions/{info['session']}/estimate"
            latencies = []
            for _ in range(30):
                started = time.perf_counter()
                status, body, _ = exchange(conn, "POST", path, {})
                latencies.append(time.perf_counter() - started)
                assert status == 200, body
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_error_replies_keep_the_stream_in_sync(self, server, module):
        """404 and 405 replies consume the request body, so the next
        request on the same connection parses from its request line."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=15)
        try:
            status, info, _ = exchange(conn, "POST", "/sessions", {
                "source": write_verilog(module), "tech": "nmos",
            })
            assert status == 201, info
            sock = conn.sock
            path = f"/sessions/{info['session']}/estimate"
            for method, wrong, expected in (("POST", "/nope", 404),
                                            ("POST", "/health", 405),
                                            ("DELETE", "/health", 405)):
                status, _, _ = exchange(conn, method, wrong, {"rows": 3})
                assert status == expected
                status, body, _ = exchange(conn, "POST", path, {"rows": 3})
                assert status == 200, body
            assert conn.sock is sock  # one connection throughout
        finally:
            conn.close()

    def test_inflight_429_closes_the_connection(self, module):
        """Over its in-flight limit the server does not read the body,
        so it closes the connection rather than parse the body as the
        next request; the client reconnects and is served."""
        server = start_server(
            EstimationEngine(ServiceConfig()), max_inflight=1
        )
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=15)
        try:
            status, info, _ = exchange(conn, "POST", "/sessions", {
                "source": write_verilog(module), "tech": "nmos",
            })
            path = f"/sessions/{info['session']}/estimate"
            # The session request gives its slot back just after its
            # reply; take the only slot once it has.
            assert server._inflight.acquire(timeout=5)
            status, _, response = exchange(conn, "POST", path, {"rows": 3})
            server._inflight.release()
            assert status == 429
            assert response.getheader("Connection") == "close"
            status, body, _ = exchange(conn, "POST", path, {"rows": 3})
            assert status == 200, body
        finally:
            conn.close()
            server.stop(drain=True)


class TestBoundedBodies:
    """Hostile request bodies get a typed status and a closed
    connection, and never hold a handler or its in-flight slot."""

    ESTIMATE = "POST /sessions/{id}/estimate"

    @pytest.fixture()
    def limited(self, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_BODY_BYTES", 64 * 1024)
        monkeypatch.setattr(server_mod, "BODY_READ_TIMEOUT_S", 0.5)
        server = start_server(
            EstimationEngine(ServiceConfig()), max_inflight=2
        )
        yield server
        server.stop(drain=True)

    @staticmethod
    def head(length, session="s000001"):
        return (
            f"POST /sessions/{session}/estimate HTTP/1.1\r\nHost: mae\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()

    @pytest.mark.parametrize("length, expected", [
        ("abc", 400), ("-1", 400), ("1_0", 400), (64 * 1024 + 1, 413),
    ])
    def test_bad_declared_length(self, limited, length, expected):
        # The 413 arrives at once: the server never waits on the body
        # it refuses (a read would end in 408 instead).
        status, headers, body, closed = raw_exchange(
            limited, self.head(length)
        )
        assert status == expected and "error" in body
        assert headers["Connection"] == "close" and closed
        assert response_count(
            limited, f"{self.ESTIMATE}:{expected}"
        ) == 1

    def test_chunked_body_is_refused(self, limited):
        status, _, _, closed = raw_exchange(
            limited,
            b"POST /sessions/s000001/estimate HTTP/1.1\r\nHost: mae\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        assert status == 411 and closed

    def test_body_ending_early_is_refused(self, limited):
        status, _, _, closed = raw_exchange(
            limited, self.head(100) + b'{"rows"', shutdown_write=True
        )
        assert status == 400 and closed

    def test_truncated_body_times_out_while_others_are_served(
        self, limited, module
    ):
        sid = create_session(limited, module)["session"]
        conn = http.client.HTTPConnection(limited.host, limited.port,
                                          timeout=15)
        stalled = socket.create_connection((limited.host, limited.port),
                                           timeout=15)
        try:
            stalled.sendall(self.head(100, sid) + b'{"rows"')
            # A kept-alive client on another connection keeps getting
            # answers while that body is pending.
            for _ in range(3):
                status, body, _ = exchange(
                    conn, "POST", f"/sessions/{sid}/estimate", {}
                )
                assert status == 200, body
            response = http.client.HTTPResponse(stalled)
            response.begin()
            assert response.status == 408
            assert "error" in json.loads(response.read())
            assert stalled.recv(1) == b""
        finally:
            stalled.close()
            conn.close()
        # The stalled request gave its --max-inflight slot back.
        assert limited._inflight.acquire(timeout=5)
        assert limited._inflight.acquire(timeout=5)
        limited._inflight.release()
        limited._inflight.release()
        assert response_count(limited, f"{self.ESTIMATE}:408") == 1

    def test_idle_keepalive_outlives_the_body_timeout(self, limited):
        conn = http.client.HTTPConnection(limited.host, limited.port,
                                          timeout=15)
        try:
            assert exchange(conn, "GET", "/health")[0] == 200
            sock = conn.sock
            time.sleep(2 * server_mod.BODY_READ_TIMEOUT_S)
            assert exchange(conn, "GET", "/health")[0] == 200
            assert conn.sock is sock
        finally:
            conn.close()

    def test_stop_drains_with_a_body_pending(self, monkeypatch, module):
        monkeypatch.setattr(server_mod, "BODY_READ_TIMEOUT_S", 30.0)
        server = start_server(EstimationEngine(ServiceConfig()))
        sid = create_session(server, module)["session"]
        with socket.create_connection((server.host, server.port),
                                      timeout=15) as stalled:
            stalled.sendall(self.head(100, sid) + b'{"rows"')
            started = time.perf_counter()
            server.stop(drain=True)
            assert server.stopped
            assert time.perf_counter() - started < 5.0


#: One reply's status line and header block.
_REPLY_HEAD = re.compile(
    rb"HTTP/1\.[01] ([1-5][0-9][0-9]) [^\r\n]*\r\n((?:[^\r\n]+\r\n)*)\r\n"
)
_CONTENT_LENGTH = re.compile(rb"(?im)^content-length: *([0-9]+)\r$")


def reply_statuses(data):
    """The statuses of a byte stream of replies, each of which must be
    a well-formed status line and header block plus its
    ``Content-Length`` of body."""
    statuses = []
    while data:
        head = _REPLY_HEAD.match(data)
        assert head, f"malformed reply: {data[:120]!r}"
        length = _CONTENT_LENGTH.search(head.group(2))
        statuses.append(int(head.group(1)))
        data = data[head.end() + (int(length.group(1)) if length else 0):]
    return statuses


def replies_to(server, data, shutdown_write=False):
    """Send raw bytes on a fresh socket and read until the server
    closes it (a server that keeps it open fails the read's timeout);
    with ``shutdown_write`` the client half-closes after sending, so a
    declared body reads EOF at once."""
    with socket.create_connection((server.host, server.port),
                                  timeout=15) as sock:
        sock.sendall(data)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def raw_head(*lines, request_line=b"GET /health HTTP/1.1"):
    return b"\r\n".join((request_line,) + lines) + b"\r\n\r\n"


class TestRequestHead:
    """The request line keeps the stdlib's checks; the header block is
    read by ``read_headers``, which answers every malformed or
    oversized head with a typed status and a closed connection."""

    @pytest.fixture(scope="class")
    def head_server(self):
        server = start_server(EstimationEngine(ServiceConfig()))
        yield server
        server.stop(drain=True)

    @pytest.mark.parametrize("data, expected", [
        (b"GET\r\n\r\n", 400),
        (b"GET /health extra HTTP/1.1\r\n\r\n", 400),
        (b"GET /health HTTP/1.x\r\n\r\n", 400),
        (b"GET /health HTTP/2.0\r\n\r\n", 505),
        (raw_head(b"Host mae"), 400),
        (raw_head(b"Host : mae"), 400),
        (raw_head(b"X-Note: one", b" two"), 400),
        (raw_head(b"Content-Length: 2", b"Content-Length: 3",
                      request_line=b"POST /estimate HTTP/1.1") + b"{}", 400),
        (raw_head(b"X-Big: " + b"a" * (65537 - 9)), 431),
        (raw_head(*(b"X-%d: v" % i for i in range(101))), 431),
    ], ids=["one-word-line", "four-word-line", "bad-version",
            "http-2", "no-colon", "space-before-colon", "obs-fold",
            "conflicting-lengths", "65537-byte-line", "101-headers"])
    def test_malformed_head_gets_its_status_and_a_close(
        self, head_server, data, expected
    ):
        assert reply_statuses(replies_to(head_server, data)) == [expected]

    @pytest.mark.parametrize("data", [
        raw_head(b"X-Big: " + b"a" * (65536 - 9)),
        raw_head(*(b"X-%d: v" % i for i in range(100))),
        raw_head(b"Content-Length: 2", b"content-length:  2") + b"{}",
        raw_head(b"HOST:mae", b"X-Tab:\tv\t"),
    ], ids=["65536-byte-line", "100-headers", "agreeing-lengths",
            "case-and-whitespace"])
    def test_heads_at_the_limits_are_served(self, head_server, data):
        assert reply_statuses(
            replies_to(head_server, data, shutdown_write=True)
        ) == [200]

    def test_expect_100_continue(self, head_server, module):
        sid = create_session(head_server, module)["session"]
        with socket.create_connection(
            (head_server.host, head_server.port), timeout=15
        ) as sock:
            sock.sendall(raw_head(
                b"Host: mae", b"Expect: 100-continue", b"Content-Length: 2",
                request_line=f"POST /sessions/{sid}/estimate "
                             "HTTP/1.1".encode(),
            ))
            reader = sock.makefile("rb")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(b"{}")
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["session"] == sid

    @pytest.mark.parametrize("data, closes", [
        (b"GET /health HTTP/1.0\r\n\r\n", True),
        (raw_head(b"Connection: close"), True),
        (raw_head(b"Connection: keep-alive"), False),
        (raw_head(b"Connection: Keep-Alive",
                      request_line=b"GET /health HTTP/1.0"), False),
    ], ids=["http-1.0", "close", "keep-alive", "http-1.0-keep-alive"])
    def test_connection_header(self, head_server, data, closes):
        with socket.create_connection(
            (head_server.host, head_server.port), timeout=15
        ) as sock:
            sock.sendall(data)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            response.read()
            if closes:
                assert sock.recv(1) == b""
            else:
                sock.sendall(raw_head())
                second = http.client.HTTPResponse(sock)
                second.begin()
                assert second.status == 200

    @given(st.one_of(
        st.binary(max_size=160),
        st.builds(
            lambda line, fields, tail: b"\r\n".join([line] + fields) + tail,
            st.builds(
                b" ".join,
                st.tuples(
                    st.sampled_from([b"GET", b"POST", b"DELETE", b"PUT"]),
                    st.sampled_from([b"/health", b"/metrics", b"/sessions",
                                     b"/estimate", b"//health",
                                     b"/sessions/s000001/edits"]),
                    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0",
                                     b"HTTP/1.10", b"HTTP/01.1"]),
                ),
            ),
            st.lists(st.one_of(
                st.binary(max_size=40),
                st.sampled_from([
                    b"Content-Length: 2", b"Content-Length: 9",
                    b"Content-Length: x", b"Connection: close",
                    b"Expect: 100-continue", b"Transfer-Encoding: chunked",
                    b" folded", b"Host : mae", b"Host",
                ]),
            ), max_size=6),
            st.sampled_from([b"\r\n\r\n", b"\r\n\r\n{}", b"\n\n", b""]),
        ),
    ))
    def test_arbitrary_heads_get_a_status_or_a_close(self, head_server, data):
        """Any head bytes: every reply is a well-formed status line and
        never a 500 (or the server just closes), and the server goes on
        serving new connections."""
        statuses = reply_statuses(
            replies_to(head_server, data, shutdown_write=True)
        )
        assert 500 not in statuses
        status, body = request(head_server.base_url, "GET", "/health")
        assert status == 200 and body["status"] == "ok"


class TestShutdownEndpoint:
    def test_drain_and_stop(self, module):
        server = start_server(EstimationEngine(ServiceConfig()))
        sid = create_session(server, module)["session"]
        status, body = request(
            server.base_url, "POST", f"/sessions/{sid}/estimate", {}
        )
        assert status == 200
        status, body = request(server.base_url, "POST", "/shutdown", {})
        assert status == 202 and body == {"status": "draining"}
        deadline = time.time() + 15
        while not server.stopped and time.time() < deadline:
            time.sleep(0.05)
        assert server.stopped
        # The engine refuses new work after the drain.
        from repro.errors import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            server.engine.estimate(sid)

    def test_stop_does_not_wait_out_the_accept_poll(self):
        """Start-to-stopped is well under the stdlib's 0.5 s
        ``serve_forever`` poll (best of three, against host noise)."""
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            start_server(EstimationEngine(ServiceConfig())).stop()
            elapsed.append(time.perf_counter() - started)
        assert min(elapsed) < 0.25, elapsed


class TestWireCodec:
    def test_standard_cell_round_trip(self, module, nmos):
        estimate = estimate_standard_cell(module, nmos, EstimatorConfig())
        payload = json.loads(json.dumps(estimate_to_jsonable(estimate)))
        decoded = estimate_from_jsonable(payload)
        assert _fields(decoded) == _fields(estimate)

    def test_full_custom_round_trip(self, module, nmos):
        from repro.core.full_custom import estimate_full_custom

        estimate = estimate_full_custom(module, nmos)
        payload = json.loads(json.dumps(estimate_to_jsonable(estimate)))
        decoded = estimate_from_jsonable(payload)
        assert _fields(decoded) == _fields(estimate)

    def test_rejects_unknown_methodology(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="methodology"):
            estimate_from_jsonable({"methodology": "gate-array"})


class TestRoutesContract:
    def test_route_table_shape(self):
        assert len(ROUTES) == len({(m, p) for m, p, _ in ROUTES})
        for method, path, summary in ROUTES:
            assert method in ("GET", "POST", "DELETE")
            assert path.startswith("/")
            assert summary

    def test_every_route_is_reachable(self, server, module):
        """No route in the contract 404s (405/400 and friends are fine
        — the path exists)."""
        for method, path, _ in ROUTES:
            if path == "/shutdown":
                continue  # exercised in TestShutdownEndpoint
            concrete = path
            if "{id}" in path:
                # Fresh session per templated route: the DELETE route
                # closes whatever session it is pointed at.
                sid = create_session(server, module)["session"]
                concrete = path.replace("{id}", sid)
            status, _ = request(server.base_url, method, concrete,
                                {} if method == "POST" else None)
            assert status != 404, f"{method} {concrete} is unroutable"


class TestServeEquivalenceCheck:
    def test_passes_on_real_module(self, nmos):
        result = check_serve_equivalence(
            counter_module("serve_eq", bits=5), nmos
        )
        assert result.passed, result.detail
