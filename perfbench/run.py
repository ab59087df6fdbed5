"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is driven from ``src/``.
Workloads, metrics and bounds are declared in ``BENCHMARK.json`` and
described in ``perfbench/README.md``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then again with the layer timers installed, and
prints the per-layer metrics and the tracing overhead.  The last line
of standard output is always the JSON result; a failed output check
makes ``correct`` false and the exit code 1.
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from maebench.common import (
    OUT,
    ROOT,
    BenchError,
    latency_summary,
    quantile,
    reap,
    require_program,
    spawn,
    wait_for_output,
)

#: Start-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5

PROCESS_LAYOUT = {
    "serve_keepalive": "client: this process, 2 threads with one "
                       "persistent connection each; server: mae serve "
                       "--port 0, a separate process",
    "floorplan_scored": "a worker process running run_portfolio (jobs=1)",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = _benchmark_spec(args.workload)
        require_program()
        from maebench.common import host_record

        host = host_record()
        if args.trace:
            plain = _run_workload(args, traced=False, setup_reps=1)
            traced = _run_workload(args, traced=True, setup_reps=1)
            passes = [plain, traced]
            metrics = _layer_metrics(args.workload, traced)
            metrics["trace.throughput_ratio"] = (
                traced["e2e"]["throughput_per_s"]
                / plain["e2e"]["throughput_per_s"]
            )
            wanted = spec["per_layer"]
        else:
            passes = [_run_workload(args, traced=False,
                                    setup_reps=SETUP_REPS)]
            metrics = dict(passes[0]["e2e"])
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = all(not p["problems"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    _print_report(args, host, passes, metrics, wanted)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


def _benchmark_spec(workload: str) -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    return spec


# ----------------------------------------------------------------------
# one pass of a workload
# ----------------------------------------------------------------------
def _run_workload(args, traced: bool, setup_reps: int) -> dict:
    name = args.workload
    if traced:
        rundir = os.path.join(OUT, f"trace-{name}")
        shutil.rmtree(rundir, ignore_errors=True)
    else:
        rundir = os.path.join(OUT, f"run-{name}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        if name == "serve_keepalive":
            from maebench import serving

            result = serving.run(args.seed, args.seconds, traced, setup_reps,
                                 rundir)
        else:
            result = _run_worker(args, traced, setup_reps, rundir)
    finally:
        if not traced:
            shutil.rmtree(rundir, ignore_errors=True)
    latencies = result["latencies"]
    summary = latency_summary(latencies)
    attempted = len(latencies)
    failed = sum(1 for value in latencies if value is None)
    result["attempted"] = attempted
    result["failed"] = failed
    result["latency"] = summary
    result["traced"] = traced
    result["e2e"] = {
        "setup_s": statistics.median(result["setup_times"]),
        "throughput_per_s": result["units"] / result["elapsed"],
        "latency_p50_ms": summary["p50_ms"],
        "latency_p90_ms": summary["p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": failed / attempted if attempted else 1.0,
    }
    if not attempted:
        result["problems"].append("no operation completed in the window")
    return result


def _run_worker(args, traced: bool, setup_reps: int, rundir: str) -> dict:
    """``setup_reps`` worker starts; the last one also runs the timed
    window."""
    result_path = os.path.join(rundir, "result.json")
    setup_times = []
    for rep in range(setup_reps):
        last = rep == setup_reps - 1
        command = ["perfbench/worker.py", str(args.seed), repr(args.seconds),
                   "1" if traced else "0", rundir, result_path]
        if not last:
            command.append("--setup-only")
        start = time.perf_counter()
        proc = spawn(command, stdout=subprocess.PIPE)
        try:
            wait_for_output(proc, rb"READY\n", 120.0)
            setup_times.append(time.perf_counter() - start)
            reap(proc, args.seconds + 150.0)
        finally:
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(
                f"worker for {args.workload} failed (exit {proc.returncode})"
            )
    with open(result_path) as handle:
        result = json.load(handle)
    result["setup_times"] = setup_times
    return result


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(workload: str, result: dict) -> dict:
    """Every per-layer metric; a layer the workload never calls reads
    zero."""
    metrics = {}
    counts = result["window_counts"]
    metrics["plan.hit_ratio"] = _ratio(
        counts["plan_hits"], counts["plan_hits"] + counts["plan_compilations"])
    metrics["plan.compilations"] = counts["plan_compilations"]
    metrics["kernels.hit_ratio"] = _ratio(
        counts["kernel_hits"], counts["kernel_hits"] + counts["kernel_misses"])
    metrics["kernels.misses"] = counts["kernel_misses"]
    if workload == "serve_keepalive":
        layers = _serve_layers(result)
        metrics.update(_serve_metrics(result))
    else:
        layers = result["layers"]

    def layer(name: str) -> dict:
        return layers.get(name) or {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "p50_ms": 0.0,
                                    "p90_ms": 0.0, "self_p50_ms": 0.0,
                                    "extra": {}}

    metrics["incremental.apply_ms"] = layer("incremental.apply")["p50_ms"]
    metrics["incremental.estimate_ms"] = layer(
        "incremental.estimate")["p50_ms"]
    metrics["plan.evaluate_ms"] = layer("plan.evaluate")["p50_ms"]
    parse = layer("parse")["extra"]
    metrics["parse.verilog_kib_per_s"] = _ratio(
        parse.get("bytes.verilog", 0.0) / 1024.0,
        parse.get("seconds.verilog", 0.0))
    scan = layer("scan")
    metrics["scan.ms_per_kdevice"] = _ratio(
        1000.0 * scan["total_s"], scan["extra"].get("devices", 0.0) / 1000.0)
    metrics["batch.prefill_ms"] = layer("batch.estimate")["p50_ms"]
    price = layer("congestion.price")
    metrics["congestion.price_ms"] = price["p50_ms"]
    routability = layer("portfolio.server_routability")
    metrics["congestion.memo_hit_ratio"] = 1.0 - _ratio(
        price["extra"].get("under.portfolio.server_routability", 0.0),
        routability["calls"]) if routability["calls"] else 0.0
    metrics["congestion.plan_memo_hit_ratio"] = 1.0 - _ratio(
        layer("congestion.distribution")["extra"].get(
            "under.congestion.price", 0.0),
        price["calls"]) if price["calls"] else 0.0
    portfolio = result.get("portfolio") or {}
    races = portfolio.get("races", 0)
    metrics["portfolio.table_hit_ratio"] = _ratio(
        portfolio.get("table_hits", 0),
        layer("portfolio.server_estimate")["calls"])
    metrics["portfolio.evaluations"] = _ratio(
        portfolio.get("evaluations", 0), races)
    metrics["incremental.builds"] = (
        _ratio(layer("incremental.build")["calls"], races) if races else 0.0)
    metrics["portfolio.search_ms"] = layer("op.race")["self_p50_ms"]
    metrics.setdefault("service.http_ms", 0.0)
    for kind in ("estimate", "multirow", "edit"):
        metrics.setdefault(f"service.http_ms.{kind}", 0.0)
    for name in ("service.estimate_endpoint_ms", "service.edits_endpoint_ms",
                 "engine.call_ms", "engine.dispatch_ms",
                 "engine.queue_wait_ms", "engine.coalesced_share"):
        metrics.setdefault(name, 0.0)
    result["layer_summary"] = layers
    return metrics


#: Server layers timed in set-up, not in the window: ``POST /sessions``
#: parses each session's source once, when the server starts.
SETUP_LAYERS = ("parse",)


def _server_events(result: dict) -> list:
    """The server's calls in the timed window, and its set-up parses."""
    with open(os.path.join(result["server_dir"], "server-events.json")) as f:
        dump = json.load(f)
    from repro.obs.jsonl import read_trace

    read_trace(os.path.join(result["server_dir"], "server.jsonl"))
    result["server_trace"] = dump["trace"]
    start, end = result["window"]
    return [e for e in dump["events"]
            if start <= e[3] <= end or e[0] in SETUP_LAYERS]


def _serve_layers(result: dict) -> dict:
    """Per-layer summaries from the server's events in the window."""
    from maebench.layers import LayerAggregate

    result["_events"] = events = _server_events(result)
    aggregates = {}
    for layer, _thread, parent, start, end, self_time, attrs in events:
        aggregates.setdefault(layer, LayerAggregate()).record(
            end - start, self_time, parent, attrs)
    return {name: agg.summary() for name, agg in sorted(aggregates.items())}


def _serve_metrics(result: dict) -> dict:
    events = result["_events"]
    calls = {}
    applies = {}
    dispatched = {}
    for layer, thread, parent, start, end, self_time, attrs in events:
        if layer == "engine.call":
            calls[(attrs["session"], attrs["seq"])] = (start, end, thread)
        elif layer == "incremental.apply" and parent == "engine.call":
            applies.setdefault(thread, []).append((start, end))
        elif layer == "incremental.estimate" and "session" in attrs:
            dispatched.setdefault(attrs["session"], []).append((start, end))
    for spans in list(applies.values()) + list(dispatched.values()):
        spans.sort()

    def inside(spans, start, end) -> float:
        index = bisect.bisect_left(spans, (start, start))
        total = 0.0
        while index < len(spans) and spans[index][0] <= end:
            if spans[index][1] <= end:
                total += spans[index][1] - spans[index][0]
            index += 1
        return total

    waits = []
    for (session, _), (start, end, thread) in calls.items():
        waits.append(end - start - inside(applies.get(thread, []), start, end)
                     - inside(dispatched.get(session, []), start, end))
    http = {"all": [], "estimate": [], "multirow": [], "edit": []}
    for client in result["clients"]:
        for kind, seq, start, end, status in client["outcomes"]:
            call = calls.get((client["session"], seq))
            if call is None or not 200 <= status < 300:
                continue
            gap = (end - start) - (call[1] - call[0])
            http["all"].append(gap)
            http[kind].append(gap)
    service = result["service"]
    counts = result["window_counts"]
    metrics = {
        "service.http_ms": 1000.0 * quantile(http["all"], 0.5),
        "service.estimate_endpoint_ms": service["estimate_endpoint_p50_ms"],
        "service.edits_endpoint_ms": service["edits_endpoint_p50_ms"],
        "engine.call_ms": 1000.0 * quantile(
            [end - start for start, end, _ in calls.values()], 0.5),
        "engine.dispatch_ms": service["dispatch_p50_ms"],
        "engine.queue_wait_ms": 1000.0 * quantile(waits, 0.9),
        "engine.coalesced_share": _ratio(counts["coalesced_requests"],
                                         counts["submitted"]),
        "service.joined_requests": len(http["all"]),
    }
    for kind in ("estimate", "multirow", "edit"):
        metrics[f"service.http_ms.{kind}"] = 1000.0 * quantile(
            http[kind], 0.5)
    return metrics


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
_E2E_UNITS = (("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MiB"), ("error_rate", "ratio"))


def _print_report(args, host: dict, passes: list, metrics: dict,
                  wanted: list) -> None:
    for result in passes:
        label = "traced" if result["traced"] else "untraced"
        print(f"{args.workload} seed={args.seed} {label}: "
              f"{result['attempted']} operations, {result['failed']} failed, "
              f"{result['checked']} outputs checked, "
              f"{len(result['problems'])} check failures")
        for name, unit in _E2E_UNITS:
            print(f"  {name:18s} {result['e2e'][name]:14.6g} {unit}")
        for problem in result["problems"][:20]:
            print(f"  CHECK FAILED: {problem}")
    if args.trace:
        for metric in wanted:
            print(f"  {metric['name']:34s} "
                  f"{metrics.get(metric['name'], float('nan')):14.6g} "
                  f"{metric['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host,
        "process_layout": PROCESS_LAYOUT[args.workload],
        "passes": [_record(result) for result in passes],
    }
    if args.trace:
        record["layers"] = passes[-1].get("layer_summary")
        record["per_layer"] = metrics
    print("record " + json.dumps(record, sort_keys=True))


def _record(result: dict) -> dict:
    keep = ("traced", "attempted", "failed", "e2e", "latency", "failures",
            "checked", "problems", "repeat", "input_digest", "window_counts",
            "setup_times", "service", "server_trace",
            "client_trace")
    record = {key: result[key] for key in keep if key in result}
    layers = result.get("layers") or {}
    if "_trace" in layers:
        record["trace"] = layers["_trace"]
    record["fingerprint"] = _fingerprint(result)
    return record


def _fingerprint(result: dict) -> str:
    from maebench.common import canonical, digest

    return digest([result["input_digest"].encode(),
                   canonical(result["repeat"])])


if __name__ == "__main__":
    sys.exit(main())
