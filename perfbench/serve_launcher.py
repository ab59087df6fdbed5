"""``mae serve --port 0`` with the benchmark's layer timers installed.

    python3 perfbench/serve_launcher.py OUTDIR

Used by the traced run of ``serve_keepalive`` in place of
``python3 -m repro.cli serve --port 0``.  When the server has drained
after ``POST /shutdown`` it writes OUTDIR/server.jsonl (schema-1 trace,
checked with the program's reader) and OUTDIR/server-events.json (every
timed call, which the client joins with its own requests).
"""

import json
import os
import sys

from maebench.common import require_program


def main(argv) -> int:
    outdir = argv[0]
    require_program()
    from maebench.layers import Recorder, install, install_session_parsers

    recorder = Recorder(keep_events=True)
    install(recorder, modules=("repro.cli", "repro.service.server",
                               "repro.service.engine"))
    install_session_parsers(recorder)
    from repro.cli import main as mae

    code = mae(["serve", "--port", "0"])
    trace = recorder.write(os.path.join(outdir, "server.jsonl"))
    events = [
        [layer, thread, parent, start, end, self_time, attrs]
        for layer, thread, parent, start, end, self_time, attrs
        in recorder.events()
    ]
    with open(os.path.join(outdir, "server-events.json"), "w") as handle:
        json.dump({"events": events, "trace": trace,
                   "patched": recorder.patched}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
