"""The ``serve_keepalive`` workload: a separate ``mae serve`` and two
clients.

Each client thread owns one session and one persistent HTTP/1.1
connection, and sends its request stream over it in a closed loop.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import re
import subprocess
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from maebench import inputs
from maebench.common import (
    BenchError,
    canonical,
    delta,
    digest,
    exited,
    reap,
    spawn,
    wait_for_output,
)
from maebench.layers import Recorder

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.netlist.stats import scan_module
from repro.service.wire import estimate_from_jsonable
from repro.technology.libraries import nmos_process

#: Requests each client sends one after the other before the timed
#: window; their cache counts are part of the exact-repeat record.
WARMUP_REQUESTS = 16
#: Every this many successful requests a response is kept for checking.
SAMPLE_EVERY = 25
MAX_SAMPLES = 40
#: Request bodies hashed into the input digest, per client.
DIGEST_REQUESTS = 64

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


class Server:
    """One ``mae serve --port 0`` child process."""

    def __init__(self, traced: bool, outdir: str):
        if traced:
            args = ["perfbench/serve_launcher.py", outdir]
        else:
            args = ["-m", "repro.cli", "serve", "--port", "0"]
        self.outdir = outdir
        self.stderr = open(os.path.join(outdir, "server.stderr"), "wb")
        self.proc = spawn(args, stdout=subprocess.PIPE, stderr=self.stderr)
        try:
            match = wait_for_output(self.proc, _LISTENING, 60.0)
        except BenchError:
            self.proc.stdout.close()
            self.stderr.close()
            raise
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                timeout: float = 60.0) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=timeout)
        try:
            connection.request(method, path, body=body,
                               headers={"Connection": "close"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def json(self, method: str, path: str, body: Optional[bytes] = None
             ) -> dict:
        status, data = self.request(method, path, body)
        if status >= 300:
            raise BenchError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def stop(self) -> float:
        """Drain through ``POST /shutdown``; returns the server's peak
        RSS in MiB."""
        if not exited(self.proc):
            try:
                self.request("POST", "/shutdown", b"{}", timeout=10.0)
            except (OSError, http.client.HTTPException):
                pass  # the server may exit before its reply is read
        try:
            return reap(self.proc, 60.0)
        finally:
            self.proc.stdout.close()
            self.stderr.close()


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Outcome:
    kind: str
    seq: int
    start: float
    end: float
    status: int


class Client:
    """One session's closed loop."""

    def __init__(self, slot: int, seed: int, session: inputs.SessionInput,
                 server: Server, session_id: str,
                 recorder: Optional[Recorder]):
        self.slot = slot
        self.recorder = recorder
        self.session = session
        self.server = server
        self.session_id = session_id
        self.stream = inputs.request_stream(seed, slot, session)
        self.seq = 0
        self.outcomes: List[Outcome] = []
        self.samples: List[tuple] = []
        self.failures: Dict[str, int] = {}
        self.bodies: List[bytes] = []
        self._connection: Optional[http.client.HTTPConnection] = None
        self._successes = 0

    def send(self, request: inputs.Request) -> Tuple[int, bytes]:
        """POST one request over the client's persistent connection,
        which is reopened after a transport error."""
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=60.0)
        try:
            self._connection.request(
                "POST", f"/sessions/{self.session_id}/{request.path}",
                body=request.body,
                headers={"Content-Type": "application/json"})
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def step(self, deadline: Optional[float] = None) -> bool:
        """Send the next request; False once ``deadline`` has passed."""
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        request = next(self.stream)
        if len(self.bodies) < DIGEST_REQUESTS:
            self.bodies.append(request.body)
        op = (self.recorder.op("op.request", session=self.session_id,
                               seq=self.seq, kind=request.kind)
              if self.recorder else nullcontext())
        start = time.perf_counter()
        try:
            with op:
                status, data = self.send(request)
        except (OSError, http.client.HTTPException) as exc:
            status, data = 0, b""
            kind = type(exc).__name__
            self.failures[kind] = self.failures.get(kind, 0) + 1
        end = time.perf_counter()
        self.outcomes.append(Outcome(request.kind, self.seq, start, end,
                                     status))
        self.seq += 1
        if status and not 200 <= status < 300:
            kind = f"http_{status}"
            self.failures[kind] = self.failures.get(kind, 0) + 1
        elif status:
            self._successes += 1
            if (self._successes % SAMPLE_EVERY == 1
                    and len(self.samples) < MAX_SAMPLES):
                self.samples.append((request.state, request.rows, data))
        return True

    def run(self, deadline: float) -> None:
        while self.step(deadline):
            pass

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def check_samples(clients: List[Client]) -> Tuple[int, List[str]]:
    """Served estimates equal, field for field, a direct
    ``estimate_standard_cell_from_stats`` on the client's mirror."""
    process = nmos_process()
    config = EstimatorConfig()
    problems = []
    checked = 0
    for client in clients:
        scans = {}
        for state, rows, data in client.samples:
            if state not in scans:
                mirror = inputs.session_state(client.session, state)
                scans[state] = scan_module(
                    mirror, device_width=process.device_width,
                    device_height=process.device_height,
                    port_width=process.port_pitch,
                    power_nets=config.power_nets,
                )
            body = json.loads(data)
            served = body.get("estimates") or [body.get("estimate")]
            keys = list(rows) if rows is not None else [None]
            if len(served) != len(keys):
                problems.append(f"client {client.slot}: {len(served)} "
                                f"estimates served for rows {rows}")
                continue
            for key, payload in zip(keys, served):
                direct = estimate_standard_cell_from_stats(
                    scans[state], process,
                    config if key is None else config.with_rows(key),
                )
                if dataclasses.astuple(direct) != dataclasses.astuple(
                        estimate_from_jsonable(payload)):
                    problems.append(
                        f"client {client.slot}: served estimate at rows "
                        f"{key} differs from the direct call")
                checked += 1
    return checked, problems


def _counts(metrics: dict) -> dict:
    kernels = metrics["kernels"].values()
    requests = metrics["service"]["requests"]
    return {
        "kernel_hits": sum(k["hits"] for k in kernels),
        "kernel_misses": sum(k["misses"] for k in kernels),
        "plan_hits": metrics["plans"]["hits"],
        "plan_compilations": metrics["plans"]["compilations"],
        "submitted": requests.get("submitted", 0),
        "coalesced_requests": requests.get("coalesced_requests", 0),
    }


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, traced: bool, setup_reps: int,
        rundir: str) -> dict:
    sessions = inputs.serve_sessions(seed)
    create = [
        json.dumps({"source": s.source, "format": "verilog", "tech": "nmos",
                    "name": s.name}).encode()
        for s in sessions
    ]
    setup_times = []
    for rep in range(setup_reps):
        outdir = os.path.join(rundir, f"server{rep}")
        os.makedirs(outdir, exist_ok=True)
        start = time.perf_counter()
        server = Server(traced, outdir)
        try:
            session_ids = [server.json("POST", "/sessions", body)["session"]
                           for body in create]
        except BaseException:
            server.stop()
            raise
        setup_times.append(time.perf_counter() - start)
        if rep < setup_reps - 1:
            server.stop()

    recorder = Recorder() if traced else None
    clients = [Client(slot, seed, session, server, session_id, recorder)
               for slot, (session, session_id)
               in enumerate(zip(sessions, session_ids))]
    try:
        metrics0 = server.json("GET", "/metrics")
        for client in clients:
            for _ in range(WARMUP_REQUESTS):
                client.step()
        metrics1 = server.json("GET", "/metrics")
        warm_failures = sum(sum(c.failures.values()) for c in clients)
        marks = [len(client.outcomes) for client in clients]

        window_start = time.perf_counter()
        deadline = window_start + seconds
        threads = [threading.Thread(target=client.run, args=(deadline,),
                                    name=f"client-{client.slot}")
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_end = time.perf_counter()
        metrics2 = server.json("GET", "/metrics")
    finally:
        for client in clients:
            client.close()
        peak_rss = server.stop()

    client_trace = (recorder.write(os.path.join(rundir, "client.jsonl"))
                    if recorder else None)
    timed = [
        outcome for client, mark in zip(clients, marks)
        for outcome in client.outcomes[mark:]
    ]
    checked, problems = check_samples(clients)
    failures: Dict[str, int] = {}
    for client in clients:
        for kind, count in client.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    ok = [o for o in timed if 200 <= o.status < 300]
    if warm_failures or len(ok) < len(timed):
        problems.append(f"{warm_failures} warm-up and {len(timed) - len(ok)} "
                        f"timed requests failed: {failures}")
    elapsed = max(o.end for o in timed) - window_start if timed else seconds
    warm_counts = delta(_counts(metrics1), _counts(metrics0))
    window_counts = delta(_counts(metrics2), _counts(metrics1))
    result = {
        "setup_times": setup_times,
        "latencies": [o.end - o.start if 200 <= o.status < 300 else None
                      for o in timed],
        "elapsed": elapsed,
        "units": len(ok),
        "failures": failures,
        "peak_rss_mb": peak_rss,
        "problems": problems,
        "checked": checked,
        "window": [window_start, window_end],
        "window_counts": window_counts,
        "service": _service_metrics(metrics2),
        "repeat": {
            "warmup_requests": WARMUP_REQUESTS * len(clients),
            "warmup_counts": {k: v for k, v in warm_counts.items()
                              if k in ("kernel_misses",
                                       "plan_compilations")},
            "warmup_failures": warm_failures,
        },
        "input_digest": digest(
            [s.source.encode() for s in sessions]
            + [body for c in clients for body in c.bodies]
            + [canonical([[str(e) for e in pair] for pair in s.edits])
               for s in sessions]
        ),
        "clients": [
            {"session": c.session_id, "outcomes": [
                [o.kind, o.seq, o.start, o.end, o.status]
                for o in c.outcomes[mark:]
            ]}
            for c, mark in zip(clients, marks)
        ],
        "server_dir": server.outdir,
        "client_trace": client_trace,
    }
    return result


def _service_metrics(metrics: dict) -> dict:
    latency = metrics["server"]["latency"]
    return {
        "dispatch_p50_ms": metrics["service"]["latency"]["dispatch"]["p50_ms"],
        "estimate_endpoint_p50_ms": latency.get(
            "POST /sessions/{id}/estimate", {}).get("p50_ms", 0.0),
        "edits_endpoint_p50_ms": latency.get(
            "POST /sessions/{id}/edits", {}).get("p50_ms", 0.0),
    }
