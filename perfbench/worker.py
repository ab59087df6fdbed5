"""Worker process of ``floorplan_scored`` (started by run.py).

    python3 perfbench/worker.py SEED SECONDS TRACE RUNDIR RESULT [--setup-only]

Prints ``READY`` once set-up is done.  With ``--setup-only`` it exits
there; otherwise it runs the timed window, notes its peak memory,
checks its outputs and writes its result as JSON to RESULT.
"""

import json
import os
import sys
import time

from maebench.common import require_program, self_peak_rss_mb


def main(argv) -> int:
    seed, seconds, trace, directory, result_path = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    require_program()

    from maebench.common import delta
    from maebench.inproc import Floorplan, cache_counts
    from maebench.layers import Recorder, install

    recorder = None
    if trace:
        recorder = Recorder()
        install(recorder, modules=("repro.floorplan.portfolio",))
    bench = Floorplan(seed)
    bench.setup()
    print("READY", flush=True)
    if setup_only:
        return 0

    if recorder is not None:
        recorder.reset()
    before = cache_counts()
    run = bench.run(time.perf_counter() + seconds, recorder)
    counts = delta(cache_counts(), before)
    rss = self_peak_rss_mb()
    layers = None
    if recorder is not None:
        layers = {name: agg.summary()
                  for name, agg in sorted(recorder.layers().items())}
        trace_info = recorder.write(os.path.join(directory, "worker.jsonl"))
        layers["_trace"] = dict(trace_info, patched=recorder.patched)
    check = bench.check(run)
    result = {
        "latencies": run["latencies"],
        "elapsed": run["elapsed"],
        "units": run["units"],
        "failures": run["failures"],
        "window_counts": counts,
        "peak_rss_mb": rss,
        "problems": check["problems"],
        "checked": check["checked"],
        "repeat": check["repeat"],
        "input_digest": bench.fingerprint(),
        "portfolio": run["portfolio"],
        "layers": layers,
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
