"""Synthetic multi-session load against a live ``mae serve``.

The load generator drives the server the way the motivating use case
does — many concurrent floorplan iterations, each owning one session,
streaming ECO edits and re-estimating — using the **verify corpus
generators** (:mod:`repro.verify.corpus`) as the module population, so
the traffic covers the same design families the differential harness
fuzzes.

Each worker thread owns one session *and a client-side mirror* of its
module.  Edits are generated against the mirror, shipped over HTTP,
and applied to the mirror only after the server confirms — so at every
sample point the mirror equals the server's live module, and the
response can be checked **bit-identical** against a direct
:func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
call on the mirror's scan.  Those checks are deferred until the load
finishes: during the run only the thread holding the engine lock
touches the shared kernel caches (the concurrency invariant of
``docs/ARCHITECTURE.md``), so the verifier must not race it.

``python -m repro.service.loadtest`` is the CI smoke entry point: it
starts an in-process server, runs the load, asserts p99/throughput
bounds and a clean drain-on-shutdown, and exits non-zero on any
violation.  The bench serve phase (:mod:`repro.perf.bench` schema v5)
reuses :func:`run_load` for the committed p50/p99 numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import List, Optional, Tuple

from repro.core.config import EstimatorConfig, scan_for
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import ReproError, ServiceError
from repro.incremental.editgen import random_mutation
from repro.incremental.mutations import mutations_to_jsonable
from repro.netlist.model import Module
from repro.netlist.writers import write_verilog
from repro.obs.metrics import latency_percentiles
from repro.perf.backends import (
    backend_from_environment,
    current_backend_name,
    use_backend,
)
from repro.service.engine import EstimationEngine, ServiceConfig
from repro.service.server import start_server
from repro.service.wire import estimate_from_jsonable
from repro.technology.libraries import builtin_processes
from repro.verify.corpus import draw_corpus

#: Row lists the multi-row requests cycle through.
ROW_MENU: Tuple[Tuple[int, ...], ...] = ((2, 3, 4), (3, 5), (4, 6, 8))

#: Per-worker cap on deferred bit-identity samples, bounding the
#: post-run verification cost at large session counts.
MAX_SAMPLES_PER_WORKER = 25


def corpus_modules(count: int, base_seed: int = 0) -> List[Module]:
    """``count`` standard-cell modules drawn from the verify corpus."""
    specs = [
        spec for spec in draw_corpus(2 * count + 8, base_seed)
        if spec.methodology == "standard-cell"
    ]
    if len(specs) < count:
        raise ServiceError(
            f"corpus draw produced only {len(specs)} standard-cell "
            f"specs for {count} sessions"
        )
    return [spec.build() for spec in specs[:count]]


def _request(
    base_url: str, method: str, path: str,
    payload: Optional[dict] = None, timeout: float = 30.0,
) -> Tuple[int, dict]:
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        base_url + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read())
        except Exception:
            body = {"error": exc.reason}
        return exc.code, body


class _Worker:
    """One session: mixed estimate/edit traffic plus deferred samples."""

    def __init__(self, index: int, base_url: str, module: Module,
                 tech: str, seed: int, deadline: float,
                 verify_every: int):
        self.index = index
        self.base_url = base_url
        self.module = module
        self.tech = tech
        self.rng = random.Random(seed * 7919 + index)
        self.deadline = deadline
        self.verify_every = verify_every
        self.config = EstimatorConfig()
        self.latencies: List[float] = []
        self.estimates = 0
        self.edits = 0
        self.requests = 0
        self.rejected = 0
        self.errors: List[str] = []
        #: Deferred bit-identity samples: (stats, rows key or None,
        #: estimate payload dict).
        self.samples: List[tuple] = []
        self.session_id: Optional[str] = None

    def run(self) -> None:
        try:
            self._run()
        except Exception as exc:  # surface, don't kill the thread pool
            self.errors.append(f"worker {self.index}: {exc}")

    def _run(self) -> None:
        mirror = self.module.copy()
        status, body = self._timed(
            "POST", "/sessions",
            {"source": write_verilog(self.module), "format": "verilog",
             "tech": self.tech, "name": f"load-{self.index}"},
        )
        if status != 201:
            self.errors.append(
                f"worker {self.index}: session create -> {status} "
                f"{body.get('error')}"
            )
            return
        self.session_id = body["session"]
        turn = 0
        while time.perf_counter() < self.deadline:
            turn += 1
            draw = self.rng.random()
            if draw < 0.5:
                self._estimate(mirror, rows=None, sample=turn)
            elif draw < 0.75:
                rows = ROW_MENU[turn % len(ROW_MENU)]
                self._estimate(mirror, rows=list(rows), sample=turn)
            else:
                self._edit(mirror)
        self._timed("DELETE", f"/sessions/{self.session_id}", None)

    def _estimate(self, mirror: Module, rows, sample: int) -> None:
        status, body = self._timed(
            "POST", f"/sessions/{self.session_id}/estimate",
            {"rows": rows} if rows is not None else {},
        )
        if status == 429:
            self.rejected += 1
            time.sleep(0.002)
            return
        if status != 200:
            self.errors.append(
                f"worker {self.index}: estimate -> {status} "
                f"{body.get('error')}"
            )
            return
        served = body.get("estimates", None)
        if served is None:
            served = [body["estimate"]]
            keys = [None]
        else:
            keys = list(rows)
        self.estimates += len(served)
        if (sample % self.verify_every == 0
                and len(self.samples) < MAX_SAMPLES_PER_WORKER):
            stats = self._scan(mirror)
            for key, payload in zip(keys, served):
                self.samples.append((stats, key, payload))

    def _edit(self, mirror: Module) -> None:
        mutation = random_mutation(
            mirror, self.rng, self.config.power_nets
        )
        status, body = self._timed(
            "POST", f"/sessions/{self.session_id}/edits",
            {"edits": mutations_to_jsonable([mutation])},
        )
        if status == 429:
            self.rejected += 1
            time.sleep(0.002)
            return
        if status != 200:
            self.errors.append(
                f"worker {self.index}: edit -> {status} "
                f"{body.get('error')}"
            )
            return
        # Confirmed applied: keep the mirror in lockstep.
        mutation.apply(mirror)
        self.edits += 1
        self.estimates += 1
        if len(self.samples) < MAX_SAMPLES_PER_WORKER:
            self.samples.append(
                (self._scan(mirror), None, body["estimate"])
            )

    def _scan(self, mirror: Module):
        return scan_for(mirror, _PROCESSES[self.tech], self.config)

    def _timed(self, method: str, path: str, payload) -> Tuple[int, dict]:
        start = time.perf_counter()
        try:
            status, body = _request(self.base_url, method, path, payload)
        except Exception as exc:
            self.errors.append(f"worker {self.index}: {method} {path}: {exc}")
            return 0, {}
        self.latencies.append(time.perf_counter() - start)
        self.requests += 1
        return status, body


#: Shared per-tech process databases for client-side verification
#: (constants equal the server's instances by construction).
_PROCESSES = {
    name: factory() for name, factory in builtin_processes().items()
}


def run_load(
    base_url: str,
    sessions: int = 10,
    duration: float = 2.0,
    seed: int = 0,
    tech: str = "nmos",
    verify_every: int = 5,
) -> dict:
    """Drive ``sessions`` concurrent workers for ``duration`` seconds.

    Returns the load report: request/estimate totals, latency
    percentiles over every HTTP call, sustained estimates/sec, and the
    deferred bit-identity verification tally (``mismatches`` must be 0;
    the CLI and the bench serve phase both fail otherwise).
    """
    if sessions < 1:
        raise ServiceError(f"sessions must be >= 1, got {sessions}")
    if duration <= 0:
        raise ServiceError(f"duration must be > 0, got {duration}")
    modules = corpus_modules(sessions, base_seed=seed)
    start = time.perf_counter()
    deadline = start + duration
    workers = [
        _Worker(index, base_url, module, tech, seed, deadline,
                verify_every)
        for index, module in enumerate(modules)
    ]
    threads = [
        threading.Thread(target=worker.run, name=f"load-{worker.index}")
        for worker in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    # Deferred bit-identity verification: the load is over, so direct
    # kernel evaluation no longer races the engine-lock holder.
    process = _PROCESSES[tech]
    config = EstimatorConfig()
    verified = 0
    mismatches: List[str] = []
    for worker in workers:
        for stats, rows_key, payload in worker.samples:
            case_config = (
                config if rows_key is None else config.with_rows(rows_key)
            )
            direct = estimate_standard_cell_from_stats(
                stats, process, case_config
            )
            served = estimate_from_jsonable(payload)
            if dataclasses.astuple(direct) != dataclasses.astuple(served):
                mismatches.append(
                    f"worker {worker.index} rows={rows_key}: served "
                    f"estimate diverges from the direct call"
                )
            verified += 1

    latencies = [
        value for worker in workers for value in worker.latencies
    ]
    quantiles = latency_percentiles(latencies, (0.50, 0.99))
    estimates = sum(worker.estimates for worker in workers)
    return {
        "sessions": sessions,
        "backend": current_backend_name(),
        "duration_s": duration,
        "elapsed_s": round(elapsed, 3),
        "requests": sum(worker.requests for worker in workers),
        "estimates": estimates,
        "edits": sum(worker.edits for worker in workers),
        "rejected": sum(worker.rejected for worker in workers),
        "errors": [
            error for worker in workers for error in worker.errors
        ],
        "verified": verified,
        "mismatches": mismatches,
        "latency": {
            "count": len(latencies),
            "p50_ms": quantiles["p50_ms"],
            "p99_ms": quantiles["p99_ms"],
            "max_ms": round(
                1000.0 * max(latencies), 3
            ) if latencies else 0.0,
        },
        "estimates_per_sec": round(estimates / elapsed, 1) if elapsed else 0.0,
    }


def format_report(report: dict) -> str:
    """Human-readable one-screen summary of a load report."""
    latency = report["latency"]
    lines = [
        f"serve load: {report['sessions']} sessions, "
        f"{report['elapsed_s']:.2f}s, backend {report['backend']}",
        f"  requests {report['requests']}  estimates "
        f"{report['estimates']}  edits {report['edits']}  "
        f"rejected(429) {report['rejected']}",
        f"  latency p50 {latency['p50_ms']:.2f}ms  p99 "
        f"{latency['p99_ms']:.2f}ms  max {latency['max_ms']:.2f}ms",
        f"  throughput {report['estimates_per_sec']:.1f} estimates/sec",
        f"  bit-identity: {report['verified']} samples verified, "
        f"{len(report['mismatches'])} mismatches",
    ]
    if report["errors"]:
        lines.append(f"  errors ({len(report['errors'])}):")
        lines.extend(f"    {error}" for error in report["errors"][:10])
    return "\n".join(lines)


def _load_and_stop(args) -> dict:
    """Run the load against an in-process server, then stop it through
    ``POST /shutdown``; the report says whether the drain was clean."""
    engine = EstimationEngine(ServiceConfig(
        max_sessions=max(args.sessions + 8, 64),
    ))
    server = start_server(engine)
    try:
        report = run_load(
            server.base_url, sessions=args.sessions,
            duration=args.duration, seed=args.seed, tech=args.tech,
        )
    finally:
        # Exercise the documented drain path, then confirm it worked.
        status, _ = _request(server.base_url, "POST", "/shutdown", {})
        deadline = time.perf_counter() + 15.0
        while not server.stopped and time.perf_counter() < deadline:
            time.sleep(0.05)
    report["clean_shutdown"] = status == 202 and server.stopped
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """CI smoke entry point: in-process server + load + assertions."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadtest",
        description="Run a synthetic multi-session load against an "
                    "in-process mae serve and assert latency, "
                    "throughput, bit-identity, and clean shutdown.",
    )
    parser.add_argument("--sessions", type=int, default=10, metavar="N",
                        help="concurrent sessions/worker threads "
                             "(default: 10)")
    parser.add_argument("--duration", type=float, default=2.0, metavar="S",
                        help="seconds of sustained load (default: 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus/traffic seed (default: 0)")
    parser.add_argument("--tech", choices=sorted(_PROCESSES),
                        default="nmos",
                        help="process database for every session "
                             "(default: nmos)")
    parser.add_argument("--assert-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="fail when p99 request latency exceeds MS")
    parser.add_argument("--assert-throughput", type=float, default=None,
                        metavar="EPS",
                        help="fail when sustained estimates/sec falls "
                             "below EPS")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the load report to FILE")
    args = parser.parse_args(argv)

    failures: List[str] = []
    try:
        # $MAE_BACKEND selects the backend, as for every mae command.
        with use_backend(backend_from_environment()):
            report = _load_and_stop(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    clean = report["clean_shutdown"]
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"load report written to {args.json}")

    if report["errors"]:
        failures.append(f"{len(report['errors'])} request errors")
    if report["mismatches"]:
        failures.append(
            f"{len(report['mismatches'])} bit-identity mismatches"
        )
    if not report["verified"]:
        failures.append("no bit-identity samples were verified")
    if not clean:
        failures.append("shutdown did not drain cleanly")
    if args.assert_p99_ms is not None and (
        report["latency"]["p99_ms"] > args.assert_p99_ms
    ):
        failures.append(
            f"p99 {report['latency']['p99_ms']:.2f}ms exceeds the "
            f"bound {args.assert_p99_ms:.2f}ms"
        )
    if args.assert_throughput is not None and (
        report["estimates_per_sec"] < args.assert_throughput
    ):
        failures.append(
            f"throughput {report['estimates_per_sec']:.1f}/s is below "
            f"the bound {args.assert_throughput:.1f}/s"
        )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
