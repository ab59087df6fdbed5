"""The in-process workload, run inside a worker process of its own.

``floorplan_scored`` races ``run_portfolio`` on one chip.  The
orchestrator (``run.py``) starts the worker several times: set-up-only
starts give ``setup_s`` samples, and the last start also runs the timed
window, records its own peak memory, checks its outputs and writes one
JSON result.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional

from maebench import inputs
from maebench.common import canonical, delta, digest
from maebench.layers import Recorder

from repro.floorplan.portfolio import PortfolioConfig, run_portfolio
from repro.perf.kernels import kernel_cache_stats
from repro.perf.plan import plan_cache_stats
from repro.technology.libraries import nmos_process

#: Congestion pricing stays on: judging routability inside the loop is
#: what makes the floorplan loop worth speeding up.
ROUTABILITY_WEIGHT = 0.8


def failure_type(exc: BaseException) -> str:
    """A failure's class: the ``ReproError`` subclass or bare type."""
    return type(exc).__name__


def cache_counts() -> Dict[str, int]:
    kernels = kernel_cache_stats().values()
    plans = plan_cache_stats()
    return {
        "kernel_hits": sum(s.hits for s in kernels),
        "kernel_misses": sum(s.misses for s in kernels),
        "plan_hits": plans["hits"],
        "plan_compilations": plans["compilations"],
    }


# ----------------------------------------------------------------------
# floorplan_scored
# ----------------------------------------------------------------------
class RaceOutcome(NamedTuple):
    """What a race must reproduce, and its exact-repeat counts."""

    trajectory_digest: str
    winner: str
    best_cost: float
    spot_checks: int
    evaluations: int
    table_hits: int

    def result(self) -> tuple:
        """The part every race must repeat."""
        return (self.trajectory_digest, self.winner, self.best_cost)


def race_outcome(result) -> RaceOutcome:
    return RaceOutcome(
        digest([canonical(sorted(dict(result.trajectory_hashes).items()))]),
        result.winner, result.best_cost, result.spot_checks,
        result.evaluations, result.table_hits,
    )


class Floorplan:
    def __init__(self, seed: int):
        self.spec = inputs.chip_spec(seed)
        self.process = nmos_process()
        self.config = PortfolioConfig(
            seed=seed, routability_weight=ROUTABILITY_WEIGHT, jobs=1,
        )
        self.design = None
        #: The set-up race's outcome, which every timed race repeats.
        self.reference: Optional[RaceOutcome] = None
        self.setup_counts: Dict[str, int] = {}

    def setup(self) -> None:
        """The chip and its first race, with cold caches."""
        self.design = inputs.build_chip(self.spec)
        before = cache_counts()
        self.reference = race_outcome(
            run_portfolio(self.design, self.process, self.config))
        self.setup_counts = delta(cache_counts(), before)

    def run(self, deadline: float, recorder: Optional[Recorder]) -> dict:
        """Race until ``deadline``.  Each race is reduced to its outcome
        at once, so memory does not grow with the number of races; a
        race that raises (a failed spot check among them) fails the
        run."""
        latencies: List[Optional[float]] = []
        failures: Dict[str, int] = {}
        raised: List[str] = []
        outcomes: Counter = Counter()
        moves = 0
        first_counts = None
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            before = cache_counts() if first_counts is None else None
            op = recorder.op("op.race") if recorder else nullcontext()
            t0 = time.perf_counter()
            try:
                with op:
                    result = run_portfolio(self.design, self.process,
                                           self.config)
            except Exception as exc:  # counted, and fails the run
                latencies.append(None)
                kind = failure_type(exc)
                failures[kind] = failures.get(kind, 0) + 1
                raised.append(f"race {len(latencies) - 1} raised "
                              f"{kind}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            if before is not None:
                first_counts = delta(cache_counts(), before)
            moves += sum(s["moves"] for s in result.searchers.values())
            outcomes[race_outcome(result)] += 1
            del result
        elapsed = time.perf_counter() - start
        races = sum(outcomes.values())
        return {
            "latencies": latencies,
            "elapsed": elapsed,
            "units": moves,
            "failures": failures,
            "raised": raised,
            "outcomes": outcomes,
            "first_counts": first_counts or {},
            "portfolio": {
                "races": races,
                "evaluations": sum(o.evaluations * n
                                   for o, n in outcomes.items()),
                "table_hits": sum(o.table_hits * n
                                  for o, n in outcomes.items()),
            },
        }

    def check(self, run: dict) -> dict:
        """Every race repeats the set-up race and ran its spot checks."""
        wanted = self.config.spot_checks
        problems = list(run["raised"])
        for outcome, count in [(self.reference, 1)] + sorted(
                run["outcomes"].items()):
            if outcome.spot_checks != wanted:
                problems.append(f"{count} races ran {outcome.spot_checks} "
                                f"spot checks, expected {wanted}")
            if outcome.result() != self.reference.result():
                problems.append(f"{count} races diverged from the set-up "
                                f"race: {outcome.result()}")
        repeat = {
            "evaluations_per_race": sorted(
                {o.evaluations for o in run["outcomes"]}),
            "table_hits_per_race": sorted(
                {o.table_hits for o in run["outcomes"]}),
            "setup_race_counts": self.setup_counts,
            "first_timed_race_counts": run["first_counts"],
        }
        return {"problems": problems,
                "checked": sum(run["outcomes"].values()),
                "repeat": repeat}

    def fingerprint(self) -> str:
        return digest([canonical(self.spec)])
