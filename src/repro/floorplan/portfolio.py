"""Portfolio floorplan optimizer over thousands of modules.

The paper's C2 flow keeps the floorplan loop honest by making every
shape query an Eq. 12 estimate; this module scales that loop from
one-module-at-a-time to whole chips (:mod:`repro.workloads.designs`)
by racing a *portfolio* of searchers over a shared estimate table:

``annealing``
    Estimator-driven simulated annealing over discrete row counts with
    a geometric temperature schedule and a scale-free Metropolis rule.
``greedy``
    Deterministic row refinement: sweep the modules in a seeded
    permutation, move each to the best row count in a window, accept
    strict improvements only.
``mixed``
    The mixed-variable move set of the floorplanning-by-MVO line of
    work: discrete row moves alternate with continuous per-module
    aspect-*target* perturbations (the shaped objective), with the
    winner still ranked under the common design-level target.

The perf story is the hot path.  The ``portfolio`` engine prefills the
table through :func:`repro.perf.batch.estimate_batch` (one scan per
module) and keeps the :class:`~repro.perf.plan.EstimationPlan` each
prefill estimate came from: the race never edits a module, so that one
plan serves every table miss and every routability price for the whole
run.  Each (module, rows) pair is priced once per race.  Across races
the reuse follows the module: a leaf unedited since the last race keeps
its scan, its plan's memoized estimates and the prices the plan keeps,
so a warm race prices nothing again and redoes only its search.  The
``serial`` engine is the before-picture: every query is a fresh
:func:`~repro.core.standard_cell.estimate_standard_cell` rescan.
Both engines produce **bit-identical trajectories** (the plan-vs-direct
and backend-equivalence invariants), which is itself a verify gate.

Determinism and resume are structural, not incidental: every move of a
randomized searcher draws from
``random.Random(f"{seed}:{searcher}:{step}")``, so the trajectory
is a pure function of ``(design, config)`` and a checkpoint needs only
per-searcher step indices plus running totals.  Checkpoints are
validated wholesale before any optimizer state is touched
(:class:`~repro.errors.CheckpointError`), and a resumed run replays the
remaining moves bit-identically — same trajectory hashes, same winner.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.congestion.model import (
    congestion_distribution,
    resolve_channel_capacity,
)
from repro.core.candidates import _spread_around
from repro.core.config import EstimatorConfig
from repro.core.results import StandardCellEstimate
from repro.core.standard_cell import estimate_standard_cell
from repro.errors import CheckpointError, FloorplanError, VerificationError
from repro.netlist import scan_module
from repro.obs import current_tracer
from repro.perf.batch import estimate_batch
from repro.perf.plan import EstimationPlan, compile_plan, plan_cache_stats
from repro.technology import ProcessDatabase
from repro.workloads.designs import HierarchicalDesign

#: Resume-file schema.  Bump on any change to the checkpoint layout.
#: Version 2 records the whole estimator config and the process name.
CHECKPOINT_VERSION = 2
CHECKPOINT_KIND = "portfolio-checkpoint"

#: The full searcher portfolio, in deterministic visit order.
SEARCHERS: Tuple[str, ...] = ("annealing", "greedy", "mixed")

_ANNEAL_T0 = 0.12
_ANNEAL_T1 = 0.002
_ASPECT_STEP = 0.35
_ASPECT_MIN = 0.4
_ASPECT_MAX = 2.5


@dataclass(frozen=True)
class PortfolioConfig:
    """Knobs of one optimizer run.

    The identity fields (everything except ``checkpoint_every``,
    ``jobs``, ``backend`` and ``spot_checks``, which only change *how*
    the same trajectory is computed — the estimator config included,
    field by field) are embedded in checkpoints, next to the process
    name; a resume against a different identity or process raises
    :class:`~repro.errors.CheckpointError`.

    ``jobs`` selects nothing: the race runs in one process, and any
    value other than 1 is rejected.  The field remains only so callers
    that pass ``jobs=1`` keep working.
    """

    steps: int = 400
    seed: int = 0
    searchers: Tuple[str, ...] = SEARCHERS
    aspect_target: float = 1.0
    aspect_weight: float = 0.25
    routability_weight: float = 0.0
    row_window: int = 2
    checkpoint_every: int = 200
    jobs: int = 1
    backend: Optional[str] = None
    spot_checks: int = 8
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise FloorplanError(f"steps must be >= 1, got {self.steps}")
        if not self.searchers:
            raise FloorplanError("at least one searcher is required")
        for name in self.searchers:
            if name not in SEARCHERS:
                raise FloorplanError(
                    f"unknown searcher {name!r}; "
                    f"choose from {', '.join(SEARCHERS)}"
                )
        if len(set(self.searchers)) != len(self.searchers):
            raise FloorplanError("searchers must be distinct")
        if self.aspect_target <= 0:
            raise FloorplanError("aspect_target must be positive")
        if self.aspect_weight < 0:
            raise FloorplanError("aspect_weight must be >= 0")
        if self.routability_weight < 0:
            raise FloorplanError("routability_weight must be >= 0")
        if self.row_window < 1:
            raise FloorplanError(f"row_window must be >= 1, got {self.row_window}")
        if self.checkpoint_every < 1:
            raise FloorplanError("checkpoint_every must be >= 1")
        if self.jobs != 1:
            raise FloorplanError(
                f"jobs must be 1 (the race runs in one process), "
                f"got {self.jobs}"
            )

    def identity(self) -> Dict[str, object]:
        """The trajectory-determining subset, JSON-able."""
        estimator = {
            item.name: getattr(self.estimator, item.name)
            for item in fields(self.estimator)
        }
        return {
            "aspect_target": self.aspect_target,
            "aspect_weight": self.aspect_weight,
            "estimator": {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in sorted(estimator.items())
            },
            "routability_weight": self.routability_weight,
            "row_window": self.row_window,
            "searchers": list(self.searchers),
            "seed": self.seed,
            "steps": self.steps,
        }


# ----------------------------------------------------------------------
# estimate servers
# ----------------------------------------------------------------------
class SerialEstimateServer:
    """The before-picture: one fresh scan-and-estimate per query.

    This is the loop the issue describes as "one module at a time" —
    no table, no plans, no incremental snapshots.  It exists so the
    bench can measure the portfolio engine against an honest baseline
    and so verification can assert both engines walk the same
    trajectory.
    """

    engine_name = "serial"

    def __init__(
        self,
        design: HierarchicalDesign,
        process: ProcessDatabase,
        config: PortfolioConfig,
    ):
        self._modules = {leaf.name: leaf for leaf in design.leaves}
        self._process = process
        self._config = config
        self._capacity, _ = resolve_channel_capacity(process)
        self._routability: Dict[Tuple[str, int], float] = {}
        self.evaluations = 0
        self.table_hits = 0

    def prefill(self) -> Dict[str, int]:
        """Initial row choice per module (Section 5), one scan each."""
        initial: Dict[str, int] = {}
        for name in self._modules:
            initial[name] = self.estimate(name, None).rows
        return initial

    def estimate(self, name: str, rows: Optional[int]) -> StandardCellEstimate:
        self.evaluations += 1
        return estimate_standard_cell(
            self._modules[name],
            self._process,
            self._config.estimator.with_rows(rows),
        )

    def price(self, name: str, rows: int) -> Tuple[float, float, float]:
        """:func:`_price` afresh on every query (the serial contract)."""
        return _price(self, name, rows, self._config.routability_weight)

    def routability(self, name: str, rows: int) -> float:
        """P(no channel overflows) for ``name`` at ``rows``, memoized.

        A fresh scan per miss (the serial contract), then the shared
        :func:`congestion_distribution` arithmetic — the same function
        the compiled server reaches through its plans, so both engines
        price routability bit-identically.
        """
        key = (name, rows)
        cached = self._routability.get(key)
        if cached is not None:
            return cached
        estimator = self._config.estimator
        stats = scan_module(
            self._modules[name],
            device_width=self._process.device_width,
            device_height=self._process.device_height,
            port_width=estimator.port_pitch_override
            or self._process.port_pitch,
            power_nets=estimator.power_nets,
        )
        value = congestion_distribution(
            stats.multi_component_nets,
            rows,
            self._capacity,
            mode=estimator.row_spread_mode,
            backend=self._config.backend,
        ).routability
        self._routability[key] = value
        return value


class CompiledEstimateServer:
    """The hot path: shared table over batch-prefilled compiled plans.

    ``prefill`` runs one default-config estimate per module through
    :func:`estimate_batch` and keeps the plan each estimate came from,
    the one object per module for the life of the run.  A table miss
    evaluates that plan at the missed row count.  :meth:`price` prices
    each (module, rows) pair once per race, and a pair an earlier race
    priced comes from the plan's price memo.

    ``evaluations`` counts the estimates the race drew from its plans
    (one per module in the prefill, then one per table miss) and
    ``table_hits`` the estimate queries its table answered.  A price
    served from the plan's memo files its estimate in the table through
    the same query, so both counters are functions of the design, the
    config and the engine, and a warm race reports what a cold race
    reports.
    """

    engine_name = "portfolio"

    def __init__(
        self,
        design: HierarchicalDesign,
        process: ProcessDatabase,
        config: PortfolioConfig,
    ):
        self._modules = {leaf.name: leaf for leaf in design.leaves}
        self._process = process
        self._config = config
        self._table: Dict[Tuple[str, int], StandardCellEstimate] = {}
        self._plans: Dict[str, EstimationPlan] = {}
        self._capacity, _ = resolve_channel_capacity(process)
        self._prices: Dict[Tuple[str, int], Tuple[float, float, float]] = {}
        self.evaluations = 0
        self.table_hits = 0

    def prefill(self) -> Dict[str, int]:
        leaves = list(self._modules.values())
        results = estimate_batch(
            leaves,
            self._process,
            self._config.estimator,
            backend=self._config.backend,
        )
        initial: Dict[str, int] = {}
        for result in results:
            estimate = result.estimate
            initial[estimate.module_name] = estimate.rows
            self._table[(estimate.module_name, estimate.rows)] = estimate
            self._plans[estimate.module_name] = result.plan
        self.evaluations += len(results)
        return initial

    def estimate(
        self,
        name: str,
        rows: Optional[int],
        known: Optional[StandardCellEstimate] = None,
    ) -> StandardCellEstimate:
        """The table's estimate at (``name``, ``rows``): a table hit, or
        one evaluation, which files ``known`` when the caller already
        holds the estimate (a memoized price's) and asks the plan
        otherwise."""
        if rows is None:
            raise FloorplanError(
                f"module {name!r}: the compiled server is queried at "
                "explicit row counts after prefill"
            )
        key = (name, rows)
        cached = self._table.get(key)
        if cached is not None:
            self.table_hits += 1
            return cached
        if known is None:
            known = self._plans[name].evaluate(rows)
        self._table[key] = known
        self.evaluations += 1
        return known

    def price(self, name: str, rows: int) -> Tuple[float, float, float]:
        """:func:`_price`, found on the race's first query of the pair
        and looked up on every later one."""
        key = (name, rows)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = self._first_price(name, rows)
        return price

    def _first_price(
        self, name: str, rows: int
    ) -> Tuple[float, float, float]:
        """The pair's price from its plan's memo, or :func:`_price`
        afresh and memoized there.  Either way the table holds the
        estimate behind the price."""
        weight = self._config.routability_weight
        plan = self._plans[name]
        key = (rows, self._capacity, weight)
        memoized = plan.memoized_price(key)
        if memoized is not None:
            price, estimate = memoized
            self.estimate(name, rows, estimate)
            return price
        price = _price(self, name, rows, weight)
        plan.memoize_price(key, (price, self._table[(name, rows)]))
        return price

    def routability(self, name: str, rows: int) -> float:
        """P(no channel overflows) for ``name`` at ``rows``.

        Served through the module's prefill plan
        (:meth:`~repro.perf.plan.EstimationPlan.evaluate_congestion`,
        memoized per plan), so the race prices congestion from the same
        histogram as the area estimates; bit-identical to the serial
        server because the plan's histogram equals a fresh rescan's and
        the downstream arithmetic is shared.
        """
        return self._plans[name].evaluate_congestion(
            rows, self._capacity
        ).routability

    def spot_check(self) -> int:
        """Recompute a deterministic sample of the race's priced pairs
        on the exact backend from a fresh scan: the estimate behind
        each price (width, height, area) and the price's own area and
        width / height.  Any drift is a verification failure.  The race
        prices the same pairs whether or not its plans' memos served
        them, so a warm race checks the sample a cold race checks."""
        keys = sorted(self._prices)
        if not keys:
            return 0
        config = self._config
        process = self._process
        rng = random.Random(f"{config.seed}:spotcheck")
        sample = rng.sample(keys, min(config.spot_checks, len(keys)))
        estimator = config.estimator
        for name, rows in sample:
            stats = scan_module(
                self._modules[name],
                device_width=process.device_width,
                device_height=process.device_height,
                port_width=estimator.port_pitch_override
                or process.port_pitch,
                power_nets=estimator.power_nets,
            )
            exact = compile_plan(
                stats, process, estimator.with_rows(rows), backend="exact"
            ).evaluate(rows)
            table = self._table[(name, rows)]
            if (exact.width, exact.height, exact.area) != (
                table.width, table.height, table.area
            ):
                raise VerificationError(
                    f"spot check failed for {name!r} at {rows} rows: "
                    f"table ({table.width}, {table.height}, {table.area})"
                    f" != exact ({exact.width}, {exact.height}, "
                    f"{exact.area})"
                )
            area, aspect, _ = self._prices[(name, rows)]
            if (area, aspect) != (exact.area, exact.width / exact.height):
                raise VerificationError(
                    f"spot check failed for {name!r} at {rows} rows: "
                    f"price (area {area}, width / height {aspect}) != "
                    f"exact (area {exact.area}, width / height "
                    f"{exact.width / exact.height})"
                )
        return len(sample)


# ----------------------------------------------------------------------
# searcher state
# ----------------------------------------------------------------------
class _SearcherState:
    """One searcher's full position: assignments, totals, best, hash."""

    def __init__(
        self,
        name: str,
        module_names: Sequence[str],
        initial_rows: Mapping[str, int],
        target: float,
    ):
        self.name = name
        self.rows: Dict[str, int] = {m: initial_rows[m] for m in module_names}
        self.targets: Dict[str, float] = {m: target for m in module_names}
        self.step = 0
        self.moves = 0
        self.accepts = 0
        self.total = 0.0          # shaped objective (searcher's targets)
        self.common_total = 0.0   # common objective (design target)
        self.best_common = math.inf
        self.best_step = -1
        self.best_rows: Dict[str, int] = dict(self.rows)
        self.hash = ""
        self.wall_time = 0.0

    def seed_totals(
        self, shaped: Mapping[str, float], common: Mapping[str, float]
    ) -> None:
        self.total = math.fsum(shaped[m] for m in sorted(shaped))
        self.common_total = math.fsum(common[m] for m in sorted(common))
        self.best_common = self.common_total
        self.best_step = 0
        self.best_rows = dict(self.rows)


def _price(
    server, name: str, rows: int, weight: float
) -> Tuple[float, float, float]:
    """The target-free part of one (module, rows) candidate's cost:
    ``(area, width / height, routability factor)``.

    With routability weight ``w`` and routability ``r`` the factor is
    ``1 + w * (1 - r)``; at ``w = 0`` it is 1.0 and the congestion
    model is never evaluated.
    """
    estimate = server.estimate(name, rows)
    factor = 1.0
    if weight > 0.0:
        factor = 1.0 + weight * (1.0 - server.routability(name, rows))
    return estimate.area, estimate.width / estimate.height, factor


def _move_cost(
    server,
    config: PortfolioConfig,
    name: str,
    rows: int,
    target: float,
) -> float:
    """The full priced cost of one (module, rows) candidate.

    Area, penalised by how far the shape sits from the target aspect
    ratio (log-symmetric, so 2:1 and 1:2 cost the same), optionally
    scaled by the routability factor of :func:`_price` — the
    ``--aspect-weight``-style multiplicative congestion penalty.  At
    ``routability_weight = 0`` the arithmetic is literally the
    pre-routability sequence, so unweighted trajectories (and their
    hashes) are unchanged.
    """
    area, aspect, factor = server.price(name, rows)
    cost = area * (1.0 + config.aspect_weight * abs(math.log(aspect / target)))
    if config.routability_weight > 0.0:
        cost *= factor
    return cost


# ----------------------------------------------------------------------
# moves
# ----------------------------------------------------------------------
def _best_row(
    server,
    state: _SearcherState,
    config: PortfolioConfig,
    name: str,
    centre: int,
    target: float,
) -> Tuple[int, float]:
    """(row count, shaped cost) minimising the cost in the window
    around ``centre``; ties break toward the lower row count."""
    best_rows, best_cost = None, math.inf
    for rows in _spread_around(
        centre, 2 * config.row_window + 1, config.estimator.max_rows
    ):
        cost = _move_cost(server, config, name, rows, target)
        if cost < best_cost:
            best_rows, best_cost = rows, cost
    return best_rows, best_cost


#: How :func:`json.dumps` spells the floats :func:`float.__repr__`
#: does not.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_literals(names) -> Dict[str, str]:
    """Each name as a JSON string literal, escaped once per name."""
    return {name: json.dumps(name) for name in names}


def _step_record(
    accepted: bool,
    module: str,
    move: str,
    rows: int,
    step: int,
    total: float,
    searcher: str,
) -> str:
    """One step's trajectory record, byte-identical to
    ``json.dumps(entry, sort_keys=True, separators=(",", ":"))`` of
    ``entry = {"a": accepted, "m": module, "o": move, "r": rows,
    "s": step, "t": total, "w": searcher}``.

    ``module``, ``move`` and ``searcher`` arrive as JSON string
    literals (:func:`_json_literals`); ``total`` prints as
    :func:`float.__repr__`, or as ``json`` spells a non-finite float.
    """
    text = float.__repr__(total)
    return (
        f'{{"a":{"true" if accepted else "false"},"m":{module},'
        f'"o":{move},"r":{rows},"s":{step},'
        f'"t":{_JSON_NON_FINITE.get(text, text)},"w":{searcher}}}'
    )


def _run_step(
    server,
    state: _SearcherState,
    config: PortfolioConfig,
    names: Sequence[str],
    permutation: Sequence[str],
    literals: Mapping[str, str],
) -> None:
    """Advance ``state`` by one move (the only place RNG is drawn).

    ``literals`` holds every module, searcher and move name as a JSON
    string literal, for the step's trajectory record.
    """
    step = state.step
    # Greedy draws nothing, so it builds no RNG.
    rng = None if state.name == "greedy" else random.Random(
        f"{config.seed}:{state.name}:{step}"
    )
    accepted = False
    move = "rows"

    if state.name == "annealing":
        name = names[rng.randrange(len(names))]
        old_rows = state.rows[name]
        delta_rows = rng.choice((-2, -1, 1, 2))
        new_rows = min(max(old_rows + delta_rows, 1), config.estimator.max_rows)
        if new_rows != old_rows:
            target = state.targets[name]
            old_cost = _move_cost(server, config, name, old_rows, target)
            new_cost = _move_cost(server, config, name, new_rows, target)
            delta = new_cost - old_cost
            span = max(abs(old_cost), 1e-12)
            fraction = (config.steps - 1) or 1
            temperature = _ANNEAL_T0 * (
                (_ANNEAL_T1 / _ANNEAL_T0) ** (step / fraction)
            )
            if delta <= 0 or rng.random() < math.exp(
                -(delta / span) / temperature
            ):
                accepted = True
                _accept_rows(server, state, config, name, new_rows)

    elif state.name == "greedy":
        name = permutation[step % len(permutation)]
        old_cost = _move_cost(
            server, config, name, state.rows[name], state.targets[name]
        )
        new_rows, new_cost = _best_row(
            server, state, config, name, state.rows[name], state.targets[name]
        )
        if new_rows != state.rows[name] and new_cost < old_cost:
            accepted = True
            _accept_rows(server, state, config, name, new_rows)

    else:  # mixed
        name = names[rng.randrange(len(names))]
        if rng.random() < 0.5:
            old_cost = _move_cost(
                server, config, name, state.rows[name], state.targets[name]
            )
            new_rows, new_cost = _best_row(
                server, state, config, name,
                state.rows[name], state.targets[name],
            )
            if new_rows != state.rows[name] and new_cost < old_cost:
                accepted = True
                _accept_rows(server, state, config, name, new_rows)
        else:
            move = "aspect"
            old_target = state.targets[name]
            new_target = min(
                max(
                    old_target * math.exp(
                        rng.uniform(-_ASPECT_STEP, _ASPECT_STEP)
                    ),
                    _ASPECT_MIN,
                ),
                _ASPECT_MAX,
            )
            old_cost = _move_cost(
                server, config, name, state.rows[name], old_target
            )
            new_rows, new_cost = _best_row(
                server, state, config, name, state.rows[name], new_target
            )
            if new_cost < old_cost:
                accepted = True
                state.targets[name] = new_target
                _accept_rows(
                    server, state, config, name, new_rows,
                    old_shaped=old_cost, new_shaped=new_cost,
                )

    state.moves += 1
    if accepted:
        state.accepts += 1
        if state.common_total < state.best_common:
            state.best_common = state.common_total
            state.best_step = step
            state.best_rows = dict(state.rows)
    payload = state.hash + _step_record(
        accepted, literals[name], literals[move], state.rows[name], step,
        state.total, literals[state.name],
    )
    state.hash = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    state.step = step + 1


def _accept_rows(
    server,
    state: _SearcherState,
    config: PortfolioConfig,
    name: str,
    new_rows: int,
    old_shaped: Optional[float] = None,
    new_shaped: Optional[float] = None,
) -> None:
    """Commit a move: update assignments and both running totals.

    The totals are maintained as ``total - old + new`` (never
    recomputed), and checkpoints carry the floats verbatim — JSON
    round-trips Python floats exactly, so a resumed run continues the
    identical arithmetic sequence.
    """
    old_rows = state.rows[name]
    target = state.targets[name]
    if old_shaped is None:
        old_shaped = _move_cost(server, config, name, old_rows, target)
    if new_shaped is None:
        new_shaped = _move_cost(server, config, name, new_rows, target)
    state.total = state.total - old_shaped + new_shaped
    state.common_total = (
        state.common_total
        - _move_cost(server, config, name, old_rows, config.aspect_target)
        + _move_cost(server, config, name, new_rows, config.aspect_target)
    )
    state.rows[name] = new_rows


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def _checkpoint_payload(
    engine_name: str,
    design: HierarchicalDesign,
    process: ProcessDatabase,
    config: PortfolioConfig,
    states: Sequence[_SearcherState],
) -> Dict[str, object]:
    return {
        "schema_version": CHECKPOINT_VERSION,
        "kind": CHECKPOINT_KIND,
        "engine": engine_name,
        "design": design.spec_dict,
        "process": process.name,
        "config": config.identity(),
        "searchers": {
            state.name: {
                "step": state.step,
                "moves": state.moves,
                "accepts": state.accepts,
                "total": state.total,
                "common_total": state.common_total,
                "best_common": state.best_common,
                "best_step": state.best_step,
                "hash": state.hash,
                "wall_time": state.wall_time,
                "rows": state.rows,
                "targets": state.targets,
                "best_rows": state.best_rows,
            }
            for state in states
        },
    }


def write_checkpoint(path: str, payload: Mapping[str, object]) -> None:
    """Atomically persist a checkpoint (write-temp-then-rename, so a
    crash mid-write never leaves a truncated resume file behind)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Dict[str, object]:
    """Read and structurally validate a resume file.

    Every failure mode — unreadable file, truncated or non-JSON
    payload, wrong kind, unsupported schema version, missing or
    mistyped fields — raises :class:`CheckpointError` *before* the
    caller touches any optimizer state.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON (truncated write?): {exc}"
        ) from exc
    _validate_checkpoint(payload, context=repr(path))
    return payload


def _validate_checkpoint(payload: object, context: str) -> None:
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {context} is not a JSON object")
    kind = payload.get("kind")
    if kind != CHECKPOINT_KIND:
        raise CheckpointError(
            f"checkpoint {context}: kind {kind!r} is not {CHECKPOINT_KIND!r}"
        )
    version = payload.get("schema_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {context}: schema version {version!r} is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    for key, types in (
        ("engine", str),
        ("design", dict),
        ("process", str),
        ("config", dict),
        ("searchers", dict),
    ):
        if not isinstance(payload.get(key), types):
            raise CheckpointError(
                f"checkpoint {context}: field {key!r} is missing or "
                f"not a {types.__name__}"
            )
    for name, entry in payload["searchers"].items():
        if not isinstance(entry, dict):
            raise CheckpointError(
                f"checkpoint {context}: searcher {name!r} entry is not "
                "an object"
            )
        for key, types in (
            ("step", int), ("moves", int), ("accepts", int),
            ("total", (int, float)), ("common_total", (int, float)),
            ("best_common", (int, float)), ("best_step", int),
            ("hash", str), ("wall_time", (int, float)),
            ("rows", dict), ("targets", dict), ("best_rows", dict),
        ):
            value = entry.get(key)
            if isinstance(value, bool) or not isinstance(value, types):
                raise CheckpointError(
                    f"checkpoint {context}: searcher {name!r} field "
                    f"{key!r} is missing or mistyped"
                )


def _checkpoint_value_ok(key: str, value: object, max_rows: int) -> bool:
    """Whether one module's checkpointed value is usable: a row count
    in ``[1, max_rows]``, or a finite positive aspect target."""
    if isinstance(value, bool):
        return False
    if key != "targets":
        return isinstance(value, int) and 1 <= value <= max_rows
    if not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:  # an int too large for a float
        return False


def _restore_states(
    payload: Mapping[str, object],
    engine_name: str,
    design: HierarchicalDesign,
    process: ProcessDatabase,
    config: PortfolioConfig,
) -> List[_SearcherState]:
    """Turn a validated checkpoint back into live searcher states,
    cross-checking it against *this* run's design, process and
    config."""
    if payload["engine"] != engine_name:
        raise CheckpointError(
            f"checkpoint was written by the {payload['engine']!r} engine, "
            f"not {engine_name!r}"
        )
    if payload["design"] != design.spec_dict:
        raise CheckpointError(
            f"checkpoint design {payload['design']!r} does not match this "
            f"design {design.spec_dict!r}"
        )
    if payload["process"] != process.name:
        raise CheckpointError(
            f"checkpoint was written under process {payload['process']!r}, "
            f"not {process.name!r}"
        )
    if payload["config"] != config.identity():
        raise CheckpointError(
            f"checkpoint config {payload['config']!r} does not match this "
            f"run's config {config.identity()!r}"
        )
    searchers: Mapping[str, Mapping[str, object]] = payload["searchers"]
    if set(searchers) != set(config.searchers):
        raise CheckpointError(
            f"checkpoint searchers {sorted(searchers)} do not match "
            f"{sorted(config.searchers)}"
        )
    names = {leaf.name for leaf in design.leaves}
    max_rows = config.estimator.max_rows
    states: List[_SearcherState] = []
    for searcher in config.searchers:
        entry = searchers[searcher]
        for key in ("rows", "targets", "best_rows"):
            if set(entry[key]) != names:
                raise CheckpointError(
                    f"checkpoint searcher {searcher!r}: {key!r} does not "
                    "cover the design's modules"
                )
            wanted = (
                "a finite number > 0" if key == "targets"
                else f"an integer in [1, {max_rows}]"
            )
            for module in sorted(entry[key]):
                value = entry[key][module]
                if not _checkpoint_value_ok(key, value, max_rows):
                    raise CheckpointError(
                        f"checkpoint searcher {searcher!r}: {key!r} value "
                        f"{value!r} for module {module!r} is not {wanted}"
                    )
        if not 0 <= entry["step"] <= config.steps:
            raise CheckpointError(
                f"checkpoint searcher {searcher!r}: step {entry['step']} "
                f"outside [0, {config.steps}]"
            )
        state = _SearcherState(searcher, sorted(names), entry["rows"], 1.0)
        state.rows = {m: int(r) for m, r in entry["rows"].items()}
        state.targets = {m: float(t) for m, t in entry["targets"].items()}
        state.best_rows = {m: int(r) for m, r in entry["best_rows"].items()}
        state.step = entry["step"]
        state.moves = entry["moves"]
        state.accepts = entry["accepts"]
        state.total = float(entry["total"])
        state.common_total = float(entry["common_total"])
        state.best_common = float(entry["best_common"])
        state.best_step = entry["best_step"]
        state.hash = entry["hash"]
        state.wall_time = float(entry["wall_time"])
        states.append(state)
    return states


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PortfolioResult:
    """Everything one optimizer run produced."""

    engine: str
    design_name: str
    module_count: int
    steps: int
    winner: str
    best_cost: float
    best_step: int
    best_rows: Mapping[str, int]
    searchers: Mapping[str, Mapping[str, object]]
    trajectory_hashes: Mapping[str, str]
    chip: Mapping[str, float]
    evaluations: int
    table_hits: int
    plan_cache: Mapping[str, int]
    spot_checks: int
    elapsed: float

    @property
    def modules_per_sec(self) -> float:
        """Throughput in module-moves per second across the race."""
        total_moves = sum(s["moves"] for s in self.searchers.values())
        return total_moves / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "design": self.design_name,
            "modules": self.module_count,
            "steps": self.steps,
            "winner": self.winner,
            "best_cost": self.best_cost,
            "best_step": self.best_step,
            "searchers": {k: dict(v) for k, v in self.searchers.items()},
            "trajectory_hashes": dict(self.trajectory_hashes),
            "chip": dict(self.chip),
            "evaluations": self.evaluations,
            "table_hits": self.table_hits,
            "plan_cache": dict(self.plan_cache),
            "spot_checks": self.spot_checks,
            "elapsed": self.elapsed,
            "modules_per_sec": self.modules_per_sec,
        }


def run_portfolio(
    design: HierarchicalDesign,
    process: ProcessDatabase,
    config: Optional[PortfolioConfig] = None,
    engine: str = "portfolio",
    resume: Optional[Mapping[str, object]] = None,
    checkpoint_path: Optional[str] = None,
    stop_after: Optional[int] = None,
) -> PortfolioResult:
    """Race the searcher portfolio over ``design``.

    ``engine`` selects the estimate server: ``"portfolio"`` (compiled
    table, the hot path) or ``"serial"`` (rescan per query, the
    baseline).  Both walk bit-identical trajectories.  ``resume`` is a
    payload from :func:`load_checkpoint`; ``checkpoint_path`` enables
    periodic atomic checkpoints every ``config.checkpoint_every`` steps
    per searcher.  ``stop_after`` halts every searcher at that step
    without touching the run's identity (a deterministic stand-in for
    an interrupted run): the final checkpoint resumes to the full
    ``config.steps`` later, bit-identically.
    """
    config = config or PortfolioConfig()
    if engine not in ("portfolio", "serial"):
        raise FloorplanError(
            f"unknown engine {engine!r}: choose 'portfolio' or 'serial'"
        )
    if resume is not None:
        _validate_checkpoint(resume, context="<resume payload>")
    tracer = current_tracer()
    started = time.perf_counter()
    server_cls = (
        CompiledEstimateServer if engine == "portfolio"
        else SerialEstimateServer
    )
    server = server_cls(design, process, config)

    with tracer.span("portfolio.run", engine=engine,
                     modules=design.module_count):
        with tracer.span("portfolio.prefill"):
            initial_rows = server.prefill()
        names = sorted(initial_rows)

        if resume is not None:
            states = _restore_states(
                resume, engine, design, process, config
            )
        else:
            states = [
                _SearcherState(s, names, initial_rows, config.aspect_target)
                for s in config.searchers
            ]
            shaped = {
                m: _move_cost(
                    server, config, m, initial_rows[m], config.aspect_target
                )
                for m in names
            }
            for state in states:
                state.seed_totals(shaped, shaped)

        permutation = list(names)
        random.Random(f"{config.seed}:permutation").shuffle(permutation)
        literals = _json_literals(
            (*names, *config.searchers, "rows", "aspect")
        )

        limit = config.steps
        if stop_after is not None:
            if stop_after < 1:
                raise FloorplanError(
                    f"stop_after must be >= 1, got {stop_after}"
                )
            limit = min(limit, stop_after)

        while any(state.step < limit for state in states):
            for state in states:
                if state.step >= limit:
                    continue
                stop_at = min(state.step + config.checkpoint_every, limit)
                chunk_started = time.perf_counter()
                with tracer.span("portfolio.searcher", searcher=state.name,
                                 from_step=state.step, to_step=stop_at):
                    while state.step < stop_at:
                        _run_step(server, state, config, names,
                                  permutation, literals)
                state.wall_time += time.perf_counter() - chunk_started
            if checkpoint_path is not None:
                write_checkpoint(
                    checkpoint_path,
                    _checkpoint_payload(
                        engine, design, process, config, states
                    ),
                )

    winner = min(states, key=lambda s: (s.best_common, s.name))
    spot_checks = 0
    if engine == "portfolio" and config.spot_checks > 0:
        spot_checks = server.spot_check()
    elapsed = time.perf_counter() - started

    if tracer.enabled:
        tracer.metrics.incr(
            "portfolio.moves", sum(s.moves for s in states)
        )
        tracer.metrics.incr(
            "portfolio.accepts", sum(s.accepts for s in states)
        )
        tracer.metrics.incr("portfolio.evaluations", server.evaluations)
        tracer.metrics.incr("portfolio.table_hits", server.table_hits)

    return PortfolioResult(
        engine=engine,
        design_name=design.name,
        module_count=design.module_count,
        steps=config.steps,
        winner=winner.name,
        best_cost=winner.best_common,
        best_step=winner.best_step,
        best_rows=dict(winner.best_rows),
        searchers={
            state.name: {
                "steps": state.step,
                "moves": state.moves,
                "accepts": state.accepts,
                "total": state.total,
                "best_cost": state.best_common,
                "best_step": state.best_step,
                "wall_time": state.wall_time,
            }
            for state in states
        },
        trajectory_hashes={state.name: state.hash for state in states},
        chip=_pack_chip(design, server, winner.best_rows),
        evaluations=server.evaluations,
        table_hits=server.table_hits,
        plan_cache=plan_cache_stats(),
        spot_checks=spot_checks,
        elapsed=elapsed,
    )


# ----------------------------------------------------------------------
# chip report
# ----------------------------------------------------------------------
def _pack_chip(
    design: HierarchicalDesign,
    server,
    rows: Mapping[str, int],
) -> Dict[str, float]:
    """Deterministic shelf packing of the winning shapes, plus an HPWL
    proxy over the design's global nets (the Fig. 1 chip picture)."""
    shapes = {
        name: server.estimate(name, rows[name]) for name in sorted(rows)
    }
    module_area = math.fsum(e.area for e in shapes.values())
    target_width = math.sqrt(module_area) if module_area > 0 else 1.0
    order = sorted(
        shapes, key=lambda n: (-shapes[n].height, n)
    )
    centers: Dict[str, Tuple[float, float]] = {}
    shelf_x = 0.0
    shelf_y = 0.0
    shelf_height = 0.0
    chip_width = 0.0
    for name in order:
        estimate = shapes[name]
        if shelf_x > 0.0 and shelf_x + estimate.width > target_width:
            shelf_y += shelf_height
            shelf_x = 0.0
            shelf_height = 0.0
        centers[name] = (
            shelf_x + estimate.width / 2.0,
            shelf_y + estimate.height / 2.0,
        )
        shelf_x += estimate.width
        shelf_height = max(shelf_height, estimate.height)
        chip_width = max(chip_width, shelf_x)
    chip_height = shelf_y + shelf_height
    chip_area = chip_width * chip_height
    hpwl = 0.0
    for _net, members in design.global_nets:
        points = [centers[m] for m in members if m in centers]
        if len(points) < 2:
            continue
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        hpwl += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return {
        "width": chip_width,
        "height": chip_height,
        "area": chip_area,
        "module_area": module_area,
        "utilization": module_area / chip_area if chip_area > 0 else 0.0,
        "hpwl": hpwl,
    }
