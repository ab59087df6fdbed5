"""Shared helpers: locating the program, statistics, host record, children.

The benchmark runs from the root of a checkout and drives the program
from its sources in ``src/``; nothing is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import selectors
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, Optional, Sequence

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Scratch space for generated inputs and trace files (git-ignored).
OUT = os.path.join(ROOT, ".perfbench-out")

#: Environment variables through which the program picks non-default
#: behaviour; the benchmark always measures the defaults.
PROGRAM_ENV = ("MAE_BACKEND", "MAE_KERNEL_CACHE", "MAE_YOSYS")


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, bad args)."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program sources under {SRC}: run from the root of a "
            "checkout of the repository"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for every child process: program sources on the
    path, the program's defaults, unbuffered output."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(args: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start ``python3 <args>`` from the checkout root."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), **kwargs
    )


def wait_for_output(proc: subprocess.Popen, pattern: bytes,
                    timeout: float) -> "re.Match":
    """Read a child's standard output until ``pattern`` matches.

    A child that exits or stays silent for ``timeout`` seconds is
    killed and reaped, and the benchmark fails."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + timeout
    buffer = b""
    try:
        while time.monotonic() < deadline:
            if not selector.select(0.1):
                if exited(proc):
                    break
                continue
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            buffer += chunk
            match = re.search(pattern, buffer)
            if match:
                return match
    finally:
        selector.close()
    kill(proc)
    reap(proc, 10.0)
    raise BenchError(f"{' '.join(map(str, proc.args[1:]))} did not start "
                     f"(exit {proc.returncode})")


def exited(proc: subprocess.Popen) -> bool:
    """Whether a child has exited, without reaping it: :func:`reap`
    still needs its resource usage (``Popen.poll`` would reap it)."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    return os.waitid(os.P_PID, proc.pid, flags) is not None


def kill(proc: subprocess.Popen) -> None:
    """SIGKILL a child that is not yet reaped (``Popen.kill`` would
    reap one that has already exited)."""
    os.kill(proc.pid, signal.SIGKILL)


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for a child and return its own peak RSS in MiB.

    ``os.wait4`` reports the resource usage of exactly that child, so a
    server's or worker's peak memory is measured without touching it.
    The child is killed if it has not exited within ``timeout``.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            kill(proc)
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"child {proc.args} did not exit in {timeout}s")
        time.sleep(0.01)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the smallest value with at least a share
    ``q`` of the sample at or below it); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies: Iterable[Optional[float]]) -> dict:
    """p50/p90 in ms over every attempted operation.

    A failed operation is ``None`` and ranks slower than every success.
    """
    values = [math.inf if v is None else v for v in latencies]
    count = len(values)
    p50 = quantile(values, 0.50)
    p90 = quantile(values, 0.90)
    return {
        "count": count,
        "beyond_p90": sum(1 for v in values if v > p90),
        "p90_supported": count >= 100,
        "p50_ms": 1000.0 * p50,
        "p90_ms": 1000.0 * p90,
    }


def digest(chunks: Iterable[bytes]) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(len(chunk).to_bytes(8, "little"))
        hasher.update(chunk)
    return hasher.hexdigest()


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


def host_record() -> dict:
    from repro.perf.backends import current_backend_name

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "default_backend": current_backend_name(),
        "platform": platform.platform(),
    }
