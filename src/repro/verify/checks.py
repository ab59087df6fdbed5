"""Equivalence invariants and metamorphic properties.

Three perf-heavy PRs left the estimator with strong claims — compiled
plans are "bit-identical" to the direct path, caches "never change
results", tracing is "zero cost *and* zero effect" — that were each
enforced by a handful of hand-written tests.  This module turns every
claim into a reusable check over an arbitrary module, so the corpus
driver can assert them across the whole randomized design population.

Two kinds of checks:

* **Equivalence invariants** compare two computations that must agree
  *bit for bit* (exact ``==`` on every result field, floats included):
  held plan vs fresh plan (after the per-net Eq. 2-11 derivation
  re-assembled the fresh one), caches on vs :func:`caches_disabled`,
  trace-on vs trace-off, incremental vs rescan, numpy vs exact, served
  vs direct.
* **Metamorphic properties** relate outputs across *related inputs*
  where no oracle exists: area is monotone in device count, the row
  sweep is not wildly non-convex, the shared track model never exceeds
  the paper's one-net-per-track upper bound, lowering the sharing
  factor never increases area, and the "paper" and "exact" row-spread
  modes agree (bit-identically when every net fits in the row count,
  else to relative tolerance — the renormalised Eq. 2 is algebraically
  the exact PMF, differing only in summation order).

Every check returns a :class:`CheckResult`; nothing raises on a
failed invariant — the runner decides what to shrink and persist.

:data:`CHECKS` is the registry ``mae verify`` reads: one
:class:`Check` declaration per gate names its stage, the cases it
applies to, the callable, whether failures shrink, and the envelope
its points feed.  The runner, ``--check`` validation, shrinking and
``--replay`` all work from that one table, so adding a gate is one
declaration.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import tempfile
import zlib
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.core.config import EstimatorConfig, scan_for
from repro.core.full_custom import estimate_full_custom
from repro.core.standard_cell import (
    estimate_standard_cell,
    estimate_standard_cell_from_stats,
)
from repro.errors import FrontendError, ObservabilityError, VerificationError
from repro.incremental.editgen import random_mutation
from repro.incremental.engine import IncrementalEstimator
from repro.layout.annealing import AnnealingSchedule
from repro.netlist.model import Module
from repro.obs.explain import explain_standard_cell
from repro.obs.trace import Tracer, use_tracer
from repro.perf.kernels import caches_disabled
from repro.perf.batch import estimate_batch
from repro.perf.plan import compile_plan
from repro.technology.process import ProcessDatabase
from repro.verify.backend_envelope import (
    DEFAULT_PROBE_ROWS,
    measure_backend_errors,
)
from repro.verify.congestion_envelope import measure_congestion_case
from repro.verify.corpus import CaseSpec
from repro.verify.envelope import KINDS, Bounds, judge, measure_case


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check on one module."""

    name: str
    passed: bool
    detail: str = ""
    #: The envelope point this result measured, for checks that feed one.
    point: Optional[Mapping[str, Any]] = None

    def __bool__(self) -> bool:
        return self.passed


def _judged(name: str, bounds: Bounds, point: Mapping[str, Any],
            failure: Optional[str] = None) -> CheckResult:
    """An envelope-feeding check's result: its point judged against
    ``bounds`` (``failure`` names a divergence found first)."""
    point, outside = judge(bounds, point)
    return CheckResult(
        name, point["within"], failure or "; ".join(outside), point
    )


def _fields(estimate) -> tuple:
    """Every result field, for exact (bit-identical) comparison."""
    return dataclasses.astuple(estimate)


def _mismatch(a, b) -> str:
    """Name the first differing field of two result dataclasses."""
    for field in dataclasses.fields(a):
        left = getattr(a, field.name)
        right = getattr(b, field.name)
        if left != right:
            return f"{field.name}: {left!r} != {right!r}"
    return "results differ"


def _estimate(module: Module, process: ProcessDatabase,
              methodology: str, config: Optional[EstimatorConfig] = None):
    if methodology == "standard-cell":
        return estimate_standard_cell(module, process, config)
    return estimate_full_custom(module, process, config)


# ----------------------------------------------------------------------
# equivalence invariants
# ----------------------------------------------------------------------
def check_plan_vs_direct(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """The one Eq. 12 assembly against an independent oracle.

    :func:`~repro.obs.explain.explain_standard_cell` derives the
    tracks, feed-throughs and Eq. 12 area net by net and refuses
    (:class:`~repro.errors.ObservabilityError`) when they do not
    re-assemble into the estimate a freshly compiled plan produced.
    Two :func:`~repro.perf.batch.estimate_batch` calls must then serve
    that estimate field for field; the second is served by the plan
    held beside the module's scan, and by its memo.
    """
    name = "plan_vs_direct"
    config = config or EstimatorConfig()
    try:
        explanation = explain_standard_cell(module, process, config)
    except ObservabilityError as exc:
        return CheckResult(
            name, False, f"plan diverges from the per-net derivation ({exc})"
        )
    direct = explanation.estimate
    for call in ("first", "second"):
        planned = estimate_batch([module], process, config)[0].estimate
        if _fields(direct) != _fields(planned):
            return CheckResult(
                name, False,
                f"the {call} estimate_batch call diverges from a fresh "
                f"plan ({_mismatch(direct, planned)})",
            )
    return CheckResult(name, True)


def check_caches_identity(
    module: Module,
    process: ProcessDatabase,
    methodology: str = "standard-cell",
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """Warm kernel caches vs :func:`caches_disabled` recomputation."""
    warm = _estimate(module, process, methodology, config)
    with caches_disabled():
        cold = _estimate(module, process, methodology, config)
    if _fields(warm) == _fields(cold):
        return CheckResult("caches_identity", True)
    return CheckResult(
        "caches_identity", False,
        f"cache hit changed the result ({_mismatch(warm, cold)})",
    )


def check_trace_identity(
    module: Module,
    process: ProcessDatabase,
    methodology: str = "standard-cell",
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """Estimating under a collecting tracer is observation, not
    perturbation: results match the untraced path bit for bit."""
    untraced = _estimate(module, process, methodology, config)
    with use_tracer(Tracer()):
        traced = _estimate(module, process, methodology, config)
    if _fields(untraced) == _fields(traced):
        return CheckResult("trace_identity", True)
    return CheckResult(
        "trace_identity", False,
        f"tracing changed the result ({_mismatch(untraced, traced)})",
    )


def check_incremental_equivalence(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    steps: int = 12,
) -> CheckResult:
    """The incremental engine stays bit-identical to a from-scratch
    rescan under a deterministic random edit sequence.

    After every edit, both the maintained statistics snapshot and the
    estimate served through the version-checked plan cache must equal
    what a full rescan of the mutated netlist produces — field for
    field, floats compared exactly.  The seed derives from the module's
    name and size, so a failing case replays from its corpus spec.
    """
    config = config or EstimatorConfig()
    seed = zlib.crc32(module.name.encode("utf-8")) ^ module.device_count
    rng = random.Random(seed)
    engine = IncrementalEstimator(module, process, config)
    for step in range(steps):
        mutation = random_mutation(engine.module, rng, config.power_nets)
        engine.apply(mutation)
        fresh = engine.rescan()
        if engine.statistics() != fresh:
            return CheckResult(
                "incremental_equivalence", False,
                f"step {step} ({mutation.kind}): maintained statistics "
                "diverge from a rescan",
            )
        incremental = engine.estimate()
        direct = estimate_standard_cell_from_stats(fresh, process, config)
        if _fields(incremental) != _fields(direct):
            return CheckResult(
                "incremental_equivalence", False,
                f"step {step} ({mutation.kind}): "
                f"{_mismatch(incremental, direct)}",
            )
    return CheckResult("incremental_equivalence", True)


# ----------------------------------------------------------------------
# metamorphic properties
# ----------------------------------------------------------------------
def check_shared_within_upper_bound(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """The Section 7 shared-track model never exceeds the paper's
    one-net-per-track upper bound."""
    config = config or EstimatorConfig()
    upper = estimate_standard_cell(
        module, process, config.with_(track_model="upper-bound")
    )
    shared = estimate_standard_cell(
        module, process,
        config.with_(track_model="shared", rows=upper.rows),
    )
    if shared.tracks <= upper.tracks:
        return CheckResult("shared_within_upper_bound", True)
    return CheckResult(
        "shared_within_upper_bound", False,
        f"shared model used {shared.tracks} tracks, upper bound is "
        f"{upper.tracks}",
    )


def check_sharing_factor_monotone(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """Lowering ``track_sharing_factor`` (the A1 ablation) never
    increases area at a fixed row count."""
    config = config or EstimatorConfig()
    full = estimate_standard_cell(
        module, process, config.with_(track_sharing_factor=1.0)
    )
    reduced = estimate_standard_cell(
        module, process,
        config.with_(track_sharing_factor=0.6, rows=full.rows),
    )
    if reduced.area <= full.area:
        return CheckResult("sharing_factor_monotone", True)
    return CheckResult(
        "sharing_factor_monotone", False,
        f"factor 0.6 area {reduced.area:.1f} exceeds factor 1.0 area "
        f"{full.area:.1f}",
    )


def check_spread_mode_agreement(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    rel_tol: float = 1e-9,
) -> CheckResult:
    """The "paper" and "exact" row-spread modes agree.

    Renormalising Eq. 2 cancels its truncated exponent, so the two modes
    are the same distribution: bit-identical whenever every net fits in
    the row count (D <= n, where the modes share a code path), and equal
    to floating-point tolerance otherwise.
    """
    config = config or EstimatorConfig()
    paper = estimate_standard_cell(
        module, process, config.with_(row_spread_mode="paper")
    )
    exact = estimate_standard_cell(
        module, process,
        config.with_(row_spread_mode="exact", rows=paper.rows),
    )
    stats = scan_for(module, process, config)
    max_net = max(
        (size for size, _ in stats.multi_component_nets), default=0
    )
    if max_net <= paper.rows:
        if _fields(paper) == _fields(exact):
            return CheckResult("spread_mode_agreement", True)
        return CheckResult(
            "spread_mode_agreement", False,
            f"modes diverge with every net inside {paper.rows} rows "
            f"({_mismatch(paper, exact)})",
        )
    if paper.tracks == exact.tracks and math.isclose(
        paper.area, exact.area, rel_tol=rel_tol
    ):
        return CheckResult("spread_mode_agreement", True)
    return CheckResult(
        "spread_mode_agreement", False,
        f"paper mode {paper.tracks} tracks / area {paper.area:.3f} vs "
        f"exact mode {exact.tracks} / {exact.area:.3f}",
    )


def check_row_sweep_sanity(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    max_rows: int = 10,
    wiggle: float = 0.08,
) -> CheckResult:
    """The area-vs-rows curve is unimodal up to rounding wiggle.

    The paper observes "the area estimate decreased as the number of
    rows increased" over its small sweeps; with feed-through cost the
    curve can turn back up, and the ceil() on tracks and feed-throughs
    puts small steps on it, but it must not oscillate beyond that: up
    to the global minimum every rise is bounded by ``wiggle`` (relative),
    and after it every drop is.

    The sweep starts at three rows: below that no interior row exists,
    the feed-through count is identically zero, and the onset of
    feed-through cost at rows = 3 is a genuine (documented) step in the
    model, not an oscillation.
    """
    config = config or EstimatorConfig()
    limit = min(max_rows, module.device_count)
    first = min(3, limit)
    areas = [
        estimate_standard_cell(
            module, process, config.with_rows(rows)
        ).area
        for rows in range(first, limit + 1)
    ]
    pivot = areas.index(min(areas))
    for i in range(len(areas) - 1):
        if i < pivot and areas[i + 1] > areas[i] * (1.0 + wiggle):
            return CheckResult(
                "row_sweep_sanity", False,
                f"area rises {areas[i]:.1f} -> {areas[i + 1]:.1f} at rows "
                f"{first + i}->{first + i + 1}, before the minimum at rows "
                f"{first + pivot}: {[round(a, 1) for a in areas]}",
            )
        if i >= pivot and areas[i + 1] < areas[i] * (1.0 - wiggle):
            return CheckResult(
                "row_sweep_sanity", False,
                f"area drops {areas[i]:.1f} -> {areas[i + 1]:.1f} at rows "
                f"{first + i}->{first + i + 1}, after the minimum at rows "
                f"{first + pivot}: {[round(a, 1) for a in areas]}",
            )
    return CheckResult("row_sweep_sanity", True)


def check_area_monotone_in_devices(
    small: Module,
    large: Module,
    process: ProcessDatabase,
    methodology: str = "standard-cell",
    config: Optional[EstimatorConfig] = None,
) -> CheckResult:
    """A module that strictly contains another (same construction, more
    devices) never gets a smaller area estimate.

    For standard cells the comparison is pinned to a common row count —
    Eq. 12 trades rows against tracks, so comparing the Section 5 row
    choices of two different modules would mix two effects.
    """
    config = config or EstimatorConfig()
    if small.device_count >= large.device_count:
        return CheckResult(
            "area_monotone_in_devices", False,
            f"bad pair: {small.device_count} !< {large.device_count} devices",
        )
    if methodology == "standard-cell":
        rows = config.rows or min(4, small.device_count)
        pinned = config.with_rows(rows)
        area_small = estimate_standard_cell(small, process, pinned).area
        area_large = estimate_standard_cell(large, process, pinned).area
    else:
        area_small = estimate_full_custom(small, process, config).area
        area_large = estimate_full_custom(large, process, config).area
    if area_large >= area_small:
        return CheckResult("area_monotone_in_devices", True)
    return CheckResult(
        "area_monotone_in_devices", False,
        f"{large.device_count} devices estimate {area_large:.1f} below "
        f"{small.device_count}-device estimate {area_small:.1f}",
    )


def check_backend_equivalence(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    bounds: Optional[Bounds] = None,
) -> CheckResult:
    """The ``numpy`` backend agrees with ``exact``: full estimates
    bit-identically (its guard band forces every integer output onto
    the exact values, and every float field derives from those), and
    the raw pre-rounding kernels within the ``backend`` envelope
    bounds.  The result carries the case's ``backend`` point.

    Trivially satisfied (with a note, and no point) on hosts without
    NumPy — there is no float backend to diverge.
    """
    from repro.perf.backends import available_backends

    name = "backend_equivalence"
    if "numpy" not in available_backends():
        return CheckResult(
            name, True, "numpy backend unavailable; exact-only host"
        )
    config = config or EstimatorConfig()
    stats = scan_for(module, process, config)
    rows_set = DEFAULT_PROBE_ROWS
    if config.rows is not None and config.rows not in rows_set:
        rows_set = rows_set + (config.rows,)
    exact_plan = compile_plan(stats, process, config, backend="exact")
    numpy_plan = compile_plan(stats, process, config, backend="numpy")
    divergence = next((
        f"numpy diverges from exact at rows={rows} "
        f"({_mismatch(reference, measured)})"
        for rows, reference, measured in zip(
            rows_set,
            exact_plan.evaluate_rows(rows_set),
            numpy_plan.evaluate_rows(rows_set),
        )
        if _fields(reference) != _fields(measured)
    ), None)
    spread_error, mean_error = measure_backend_errors(stats, rows_set)
    return _judged(name, bounds or KINDS["backend"].bounds, {
        "label": module.name,
        "methodology": "standard-cell",
        "devices": module.device_count,
        "net_sizes": len(stats.multi_component_nets),  # distinct D
        "spread_error": spread_error,    # worst relative E(i), all rows
        "mean_error": mean_error,        # worst feed-through mean
        "bit_identical": divergence is None,
    }, divergence)


def check_serve_equivalence(
    module: Module,
    process: ProcessDatabase,
    config: Optional[EstimatorConfig] = None,
    steps: int = 4,
) -> CheckResult:
    """Estimates served over live ``mae serve`` HTTP are bit-identical
    to direct calls.

    Spins an in-process server, ships the module as Verilog source
    (``POST /sessions`` — so the writer/parser round-trip is under
    test too), then compares every served estimate — the default-rows
    estimate, a multi-row request, and a re-estimate after each of
    ``steps`` seeded ECO edits — against
    :func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
    on a client-side mirror of the session's module.  Served payloads
    decode through :func:`repro.service.wire.estimate_from_jsonable`;
    comparison is exact on every field, floats included (JSON floats
    round-trip exactly).  The edit seed derives from the module, so a
    failing case replays from its corpus spec.
    """
    import json
    import urllib.request

    from repro.incremental.mutations import mutations_to_jsonable
    from repro.netlist.writers import write_verilog
    from repro.service.engine import EstimationEngine, ServiceConfig
    from repro.service.server import start_server
    from repro.service.wire import estimate_from_jsonable

    config = config or EstimatorConfig()
    name = "serve_equivalence"
    server = start_server(EstimationEngine(ServiceConfig()))
    # The session must estimate under *this* process instance, which
    # may not be a builtin tech: register it under a private name.
    server.processes["verify-process"] = process

    def post(path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            server.base_url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def served_vs_direct(payload: dict, mirror: Module,
                         case_config: EstimatorConfig, label: str):
        served = estimate_from_jsonable(payload)
        direct = estimate_standard_cell_from_stats(
            scan_for(mirror, process, case_config), process, case_config
        )
        if _fields(served) != _fields(direct):
            return CheckResult(
                name, False, f"{label}: {_mismatch(served, direct)}"
            )
        return None

    mirror = module.copy()
    probe_rows = (2, 3, 5)
    try:
        body = post("/sessions", {
            "source": write_verilog(module),
            "format": "verilog",
            "tech": "verify-process",
            "config": _config_jsonable(config),
        })
        session_id = body["session"]
        failure = served_vs_direct(
            post(f"/sessions/{session_id}/estimate", {})["estimate"],
            mirror, config, "initial estimate",
        )
        if failure is not None:
            return failure
        multi = post(
            f"/sessions/{session_id}/estimate", {"rows": list(probe_rows)}
        )["estimates"]
        for rows, payload in zip(probe_rows, multi):
            failure = served_vs_direct(
                payload, mirror, config.with_rows(rows), f"rows={rows}"
            )
            if failure is not None:
                return failure
        seed = zlib.crc32(module.name.encode("utf-8")) ^ (
            module.device_count << 1
        )
        rng = random.Random(seed)
        for step in range(steps):
            mutation = random_mutation(mirror, rng, config.power_nets)
            body = post(f"/sessions/{session_id}/edits", {
                "edits": mutations_to_jsonable([mutation]),
            })
            mutation.apply(mirror)
            failure = served_vs_direct(
                body["estimate"], mirror, config,
                f"after edit {step} ({mutation.kind})",
            )
            if failure is not None:
                return failure
    finally:
        server.stop(drain=True)
    return CheckResult(name, True)


def check_portfolio_determinism(
    spec,
    process: ProcessDatabase,
    steps: int = 40,
) -> CheckResult:
    """The portfolio optimizer is a pure function of (design, config).

    Spec-level (it needs the hierarchical *design*, not the flattened
    module): rebuilds the ``hier`` case's design from its recipe and
    asserts three identities over a short race — a same-seed rerun
    replays bit-identically, a resume from a mid-run checkpoint
    continues the identical trajectory to the identical winner, and
    the serial rescan engine walks the same path as the compiled hot
    path (trajectory hashes, winner, best cost, and best row
    assignment all compared exactly).
    """
    from repro.floorplan.portfolio import (
        PortfolioConfig,
        load_checkpoint,
        run_portfolio,
    )
    from repro.workloads.designs import generate_design

    name = "portfolio_determinism"
    design = generate_design(
        int(spec.param("modules")), seed=spec.seed, name=spec.label
    )
    config = PortfolioConfig(
        steps=steps, seed=spec.seed,
        checkpoint_every=max(1, steps // 2), spot_checks=2,
    )

    def signature(result):
        return (
            result.trajectory_hashes,
            result.winner,
            result.best_cost,
            result.best_rows,
        )

    first = run_portfolio(design, process, config)
    second = run_portfolio(design, process, config)
    if signature(first) != signature(second):
        return CheckResult(
            name, False,
            "same-seed reruns diverge: "
            f"{first.trajectory_hashes} != {second.trajectory_hashes}",
        )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "resume.json")
        run_portfolio(
            design, process, config,
            checkpoint_path=ckpt, stop_after=max(1, steps // 2),
        )
        resumed = run_portfolio(
            design, process, config, resume=load_checkpoint(ckpt)
        )
    if signature(resumed) != signature(first):
        return CheckResult(
            name, False,
            "resume-from-checkpoint diverges from the one-shot run: "
            f"{resumed.trajectory_hashes} != {first.trajectory_hashes}",
        )
    serial = run_portfolio(design, process, config, engine="serial")
    if signature(serial) != signature(first):
        return CheckResult(
            name, False,
            "serial and portfolio engines walk different trajectories: "
            f"{serial.trajectory_hashes} != {first.trajectory_hashes}",
        )
    weighted_config = dataclasses.replace(config, routability_weight=0.8)
    weighted = run_portfolio(design, process, weighted_config)
    weighted_serial = run_portfolio(
        design, process, weighted_config, engine="serial"
    )
    if signature(weighted) != signature(weighted_serial):
        return CheckResult(
            name, False,
            "routability-weighted runs diverge between engines: "
            f"{weighted.trajectory_hashes} != "
            f"{weighted_serial.trajectory_hashes}",
        )
    return CheckResult(name, True)


def _config_jsonable(config: EstimatorConfig) -> dict:
    """An :class:`EstimatorConfig` as the service's ``config`` wire
    object (the fields ``repro.service.server.CONFIG_FIELDS`` lists)."""
    from repro.service.server import CONFIG_FIELDS

    payload = {
        field: getattr(config, field) for field in CONFIG_FIELDS
    }
    payload["power_nets"] = list(payload["power_nets"])
    return payload


def check_frontend_accuracy(
    envelope_path: Optional[str] = None,
) -> CheckResult:
    """The committed frontend calibration still holds.

    Corpus-independent (it runs once per sweep): refits the
    per-library correction factor over the committed golden BLIF/Liberty
    fixtures and compares against the committed ``frontend`` record in
    ``VERIFY_frontend_envelope.json`` — the fixture set must match,
    the refitted factor must agree to float precision (the fit is
    deterministic arithmetic over committed inputs), and every
    refitted residual must sit inside the committed accuracy band.
    Any drift in parser, estimator, or fixtures fails the gate with
    the offending designs named; ``mae calibrate`` re-fits and
    rewrites the artifact when a change is intentional.
    """
    from repro.frontend.calibrate import (
        default_envelope_path,
        measure_frontend_envelope,
    )
    from repro.verify.envelope import load_envelope

    name = "frontend_accuracy"
    try:
        committed = load_envelope(
            envelope_path or default_envelope_path(), "frontend"
        )
        fresh = measure_frontend_envelope(
            pdn_margin=committed.provenance["pdn_margin"],
            bounds=committed.bounds,
        )
    except (FrontendError, VerificationError) as exc:
        return CheckResult(
            name, False,
            f"cannot evaluate the committed envelope: {exc} "
            "(run 'mae calibrate' to regenerate it)",
        )
    committed_designs = committed.provenance["fixtures"]
    fresh_designs = fresh.provenance["fixtures"]
    if committed_designs != fresh_designs:
        return CheckResult(
            name, False,
            f"fixture set drifted from the committed envelope: "
            f"committed {committed_designs}, on disk {fresh_designs}",
        )
    factor = fresh.summary["factor"]
    reference = committed.summary["factor"]
    if abs(factor - reference) > 1e-9 * max(1.0, abs(reference)):
        return CheckResult(
            name, False,
            f"refitted correction factor {factor!r} drifted from the "
            f"committed {reference!r}",
        )
    violations = [
        f"{point['label']} (residual {point['residual']:+.4f})"
        for point in fresh.points if not point["within"]
    ]
    if violations:
        return CheckResult(
            name, False,
            f"residual(s) outside the committed accuracy band "
            f"{dict(committed.bounds['standard-cell'])}: "
            + ", ".join(violations),
        )
    return CheckResult(name, True)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: ``Check.applies`` values besides methodology and family names.
EVERY_CASE = ("*",)
STANDARD_CELL = ("standard-cell",)
ONCE_PER_SWEEP = ("sweep",)        # once, independent of the corpus

#: Families whose recipes grow prefix-aligned (each planning iteration
#: consumes a fixed number of rng draws, so the smaller module is a
#: sub-construction of the larger), and the device-count increment of
#: their grown twin in the monotonicity check.
GROWABLE = ("random", "random_nmos")
GROWTH_STEP = 6


@dataclasses.dataclass(frozen=True)
class Case:
    """What one registered check runs on: a corpus case plus the
    sweep's settings."""

    spec: CaseSpec
    module: Optional[Module]             # None for ONCE_PER_SWEEP
    process: ProcessDatabase
    schedule: AnnealingSchedule          # the layout oracles' budget
    bounds: Bounds                       # the envelope the check feeds


@dataclasses.dataclass(frozen=True)
class Check:
    """One ``mae verify`` gate, declared once in :data:`CHECKS`."""

    name: str
    stage: str                           # equivalence/metamorphic/envelope
    #: Methodologies or families it runs on, :data:`EVERY_CASE` or
    #: :data:`ONCE_PER_SWEEP`.
    applies: Tuple[str, ...]
    run: Callable[[Case], CheckResult]
    #: Whether a failing module is greedily minimised (a check relating
    #: two modules or a whole design is recorded unshrunk).
    shrinks: bool = True
    #: The envelope kind (:data:`repro.verify.envelope.KINDS`) its
    #: results' points feed.
    envelope: Optional[str] = None

    def applies_to(self, spec: CaseSpec) -> bool:
        return bool({"*", spec.methodology, spec.family} & set(self.applies))


def _on_module(check: Callable[..., CheckResult]) -> Callable:
    """Register a ``check(module, process)``."""
    return lambda case: check(case.module, case.process)


def _area_monotone(case: Case) -> CheckResult:
    params = dict(case.spec.params)
    params["gates"] = int(case.spec.param("gates")) + GROWTH_STEP
    grown = CaseSpec.make(case.spec.family, case.spec.seed, params)
    return check_area_monotone_in_devices(
        case.module, grown.build(), case.process, case.spec.methodology
    )


CHECKS: Tuple[Check, ...] = (
    Check("plan_vs_direct", "equivalence", STANDARD_CELL,
          _on_module(check_plan_vs_direct)),
    Check("caches_identity", "equivalence", EVERY_CASE,
          lambda case: check_caches_identity(
              case.module, case.process, case.spec.methodology)),
    Check("trace_identity", "equivalence", EVERY_CASE,
          lambda case: check_trace_identity(
              case.module, case.process, case.spec.methodology)),
    Check("incremental_equivalence", "equivalence", STANDARD_CELL,
          _on_module(check_incremental_equivalence)),
    Check("backend_equivalence", "equivalence", STANDARD_CELL,
          lambda case: check_backend_equivalence(
              case.module, case.process, bounds=case.bounds),
          envelope="backend"),
    Check("serve_equivalence", "equivalence", STANDARD_CELL,
          _on_module(check_serve_equivalence)),
    Check("portfolio_determinism", "equivalence", ("hier",),
          lambda case: check_portfolio_determinism(case.spec, case.process),
          shrinks=False),
    # Metamorphic checks are standard-cell only (bar the monotonicity
    # twin): the full-custom estimator has no rows/tracks knobs to relate.
    Check("shared_within_upper_bound", "metamorphic", STANDARD_CELL,
          _on_module(check_shared_within_upper_bound)),
    Check("sharing_factor_monotone", "metamorphic", STANDARD_CELL,
          _on_module(check_sharing_factor_monotone)),
    Check("spread_mode_agreement", "metamorphic", STANDARD_CELL,
          _on_module(check_spread_mode_agreement)),
    Check("row_sweep_sanity", "metamorphic", STANDARD_CELL,
          _on_module(check_row_sweep_sanity)),
    Check("area_monotone_in_devices", "metamorphic", GROWABLE,
          _area_monotone, shrinks=False),
    Check("envelope", "envelope", EVERY_CASE,
          lambda case: _judged("envelope", case.bounds, measure_case(
              case.spec, case.module, case.process, case.schedule)),
          envelope="area"),
    Check("congestion_oracle", "envelope", STANDARD_CELL,
          lambda case: _judged(
              "congestion_oracle", case.bounds, measure_congestion_case(
                  case.spec, case.module, case.process, case.schedule)),
          envelope="congestion"),
    Check("frontend_accuracy", "envelope", ONCE_PER_SWEEP,
          lambda case: check_frontend_accuracy(), shrinks=False),
)

_BY_NAME = {check.name: check for check in CHECKS}


def check_named(name: str) -> Check:
    """The registered check called ``name``; an unknown name raises
    :class:`~repro.errors.VerificationError`."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise VerificationError(
            f"unknown check {name!r} (known: {', '.join(sorted(_BY_NAME))})"
        ) from None
