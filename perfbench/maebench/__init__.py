"""The repository benchmark: workloads, inputs, timers and reporting.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the only entry point; see ``perfbench/README.md``.
"""
