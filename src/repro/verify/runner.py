"""The differential verification runner.

Orchestrates one ``mae verify`` sweep end to end from the check
registry (:data:`repro.verify.checks.CHECKS`), with a tracer span per
stage (``verify.corpus`` → ``verify.equivalence`` →
``verify.metamorphic`` → ``verify.envelope`` → ``verify.shrink``):

1. **Corpus** — draw seeded :class:`~repro.verify.corpus.CaseSpec`
   recipes and build their modules (standard-cell cases estimate
   against the CMOS process, full-custom against nMOS, matching the
   paper's Table 2 / Table 1 technologies).
2. **Equivalence**, **metamorphic**, **envelope** — every wanted check
   of the stage runs exactly once per case it applies to (once per
   sweep for the checks declared so).  Envelope checks compare the
   estimator against the layout oracles and the committed frontend
   calibration; checks that feed an envelope return its points,
   collected into one :class:`~repro.verify.envelope.Envelope` per
   kind.
3. **Shrink** — every failure is greedily minimised while it still
   reproduces and persisted as a replayable seed record.

The output is a :class:`VerifyReport` whose JSON form is the
``VERIFY_envelope.json`` artifact: per-stage drift gates, per-check
counts, the envelope records, and the failure records.
``replay_records`` re-runs persisted failures through the same
registry.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.layout.annealing import AnnealingSchedule
from repro.netlist.model import Module
from repro.obs.trace import current_tracer
from repro.technology.libraries import cmos_process, nmos_process
from repro.technology.process import ProcessDatabase
from repro.verify.backend_envelope import backend_provenance
from repro.verify.checks import (
    CHECKS,
    ONCE_PER_SWEEP,
    Case,
    Check,
    CheckResult,
    check_named,
)
from repro.verify.corpus import CaseSpec, draw_corpus
from repro.verify.envelope import (
    ENVELOPE_SCHEMA_VERSION,
    KINDS,
    Bounds,
    Envelope,
    verification_schedule,
)
from repro.verify.records import SeedRecord
from repro.verify.shrink import shrink_module

#: The gated stages, in run order.
STAGES = ("equivalence", "metamorphic", "envelope")


@dataclasses.dataclass(frozen=True)
class VerifyOptions:
    """Knobs for one verification sweep."""

    seeds: int = 25
    base_seed: int = 0
    #: Envelope kind -> bounds replacing that kind's committed default
    #: (:data:`repro.verify.envelope.KINDS`).
    bounds: Mapping[str, Bounds] = dataclasses.field(default_factory=dict)
    schedule: Optional[AnnealingSchedule] = None
    #: False drops every envelope-stage check (the layout oracles and
    #: the frontend calibration) from the default set.
    check_envelope: bool = True
    shrink_budget: int = 120
    envelope_shrink_budget: int = 30
    #: When set, exactly these checks run — e.g.
    #: ``("incremental_equivalence",)`` gates one invariant without
    #: paying for the whole sweep.  A named check always runs, even an
    #: envelope check under ``check_envelope=False``.
    checks: Optional[Tuple[str, ...]] = None

    def wants(self, check: Check) -> bool:
        if self.checks is not None:
            return check.name in self.checks
        return self.check_envelope or check.stage != "envelope"


@dataclasses.dataclass
class VerifyReport:
    """Everything one sweep learned, serializable as the drift artifact."""

    seeds: int
    base_seed: int
    cases: List[dict]
    check_counts: Dict[str, Dict[str, int]]
    #: Envelope kind -> the record of the points this sweep measured.
    envelopes: Dict[str, Envelope]
    failures: List[SeedRecord]
    gates: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.gates.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "passed": self.passed,
            "gates": dict(self.gates),
            "cases": list(self.cases),
            "checks": {
                name: dict(counts)
                for name, counts in sorted(self.check_counts.items())
            },
            "envelopes": {
                kind: record.to_dict()
                for kind, record in sorted(self.envelopes.items())
            },
            "failures": [record.to_dict() for record in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path


@dataclasses.dataclass(frozen=True)
class _Sweep:
    """One run's settings: builds each check's cases and records."""

    options: VerifyOptions
    schedule: AnnealingSchedule
    processes: Mapping[str, ProcessDatabase]

    @staticmethod
    def of(options: VerifyOptions) -> "_Sweep":
        return _Sweep(
            options,
            options.schedule or verification_schedule(),
            {"standard-cell": cmos_process(), "full-custom": nmos_process()},
        )

    def bounds(self, kind: Optional[str]) -> Bounds:
        if kind is None:
            return {}
        return self.options.bounds.get(kind, KINDS[kind].bounds)

    def case(self, check: Check, spec: CaseSpec,
             module: Optional[Module]) -> Case:
        return Case(
            spec, module, self.processes[spec.methodology], self.schedule,
            self.bounds(check.envelope),
        )

    def cases(self, check: Check,
              built: Sequence[Tuple[CaseSpec, Module]]) -> Iterator[Case]:
        """Every case ``check`` runs on, once each."""
        if check.applies == ONCE_PER_SWEEP:
            # Corpus-independent; the record anchors on a blif case so
            # a failure still replays through seed records.
            spec = next(
                (spec for spec, _ in built if spec.family == "blif"),
                CaseSpec.make("blif", 0, {"fixture": 0}),
            )
            yield self.case(check, spec, None)
        else:
            for spec, module in built:
                if check.applies_to(spec):
                    yield self.case(check, spec, module)

    def record(self, check: Check, case: Case,
               result: CheckResult) -> SeedRecord:
        """A failure as a seed record, shrunk when the check allows."""
        shrunk: Optional[Module] = None
        if check.shrinks and case.module is not None:
            budget = (
                self.options.envelope_shrink_budget
                if check.stage == "envelope"
                else self.options.shrink_budget
            )

            def failing(candidate: Module) -> bool:
                return not check.run(
                    dataclasses.replace(case, module=candidate)
                ).passed

            try:
                shrunk = shrink_module(case.module, failing, budget).module
            except (ValueError, ReproError):
                pass  # keep the unshrunk record
        return SeedRecord(
            spec=case.spec,
            check=check.name,
            stage=check.stage,
            detail=result.detail,
            shrunk_devices=None if shrunk is None else tuple(
                device.name for device in shrunk.devices
            ),
            shrunk_device_count=(
                None if shrunk is None else shrunk.device_count
            ),
        )

    def provenance(self, kind: str) -> dict:
        """What rebuilds a corpus-measured ``kind`` record."""
        sources = {
            "seeds": self.options.seeds,
            "base_seed": self.options.base_seed,
            "processes": {
                methodology: self.processes[methodology].name
                for methodology in self.bounds(kind)
            },
            "schedule": dataclasses.asdict(self.schedule),
            "backend": backend_provenance(),
        }
        return {key: sources[key] for key in KINDS[kind].provenance}


def run_verify(options: Optional[VerifyOptions] = None) -> VerifyReport:
    """One full verification sweep; never raises on a failed invariant
    (the report's gates carry the verdict).  An unknown name in
    ``options.checks`` raises :class:`~repro.errors.VerificationError`
    before any work."""
    options = options or VerifyOptions()
    for name in options.checks or ():
        check_named(name)
    sweep = _Sweep.of(options)
    tracer = current_tracer()

    with tracer.span("verify.corpus") as span:
        built: List[Tuple[CaseSpec, Module]] = [
            (spec, spec.build())
            for spec in draw_corpus(options.seeds, options.base_seed)
        ]
        if tracer.enabled:
            span.set("cases", len(built))

    check_counts: Dict[str, Dict[str, int]] = {}
    points: Dict[str, List[dict]] = {}
    failed: List[Tuple[Check, Case, CheckResult]] = []
    for stage in STAGES:
        wanted = [
            check for check in CHECKS
            if check.stage == stage and options.wants(check)
        ]
        if not wanted:
            continue
        with tracer.span(f"verify.{stage}") as span:
            runs = 0
            for check in wanted:
                for case in sweep.cases(check, built):
                    result = check.run(case)
                    runs += 1
                    counts = check_counts.setdefault(
                        check.name, {"passed": 0, "failed": 0}
                    )
                    counts["passed" if result.passed else "failed"] += 1
                    if result.point is not None:
                        points.setdefault(check.envelope, []).append(
                            result.point
                        )
                    if not result.passed:
                        failed.append((check, case, result))
            if tracer.enabled:
                span.set("checks", runs)

    with tracer.span("verify.shrink") as span:
        failures = [sweep.record(*failure) for failure in failed]
        if tracer.enabled:
            span.set("failures", len(failures))

    return VerifyReport(
        seeds=options.seeds,
        base_seed=options.base_seed,
        cases=[
            {
                "label": spec.label,
                "family": spec.family,
                "methodology": spec.methodology,
                "devices": module.device_count,
            }
            for spec, module in built
        ],
        check_counts=check_counts,
        envelopes={
            kind: Envelope.build(
                kind, sweep.bounds(kind), found, sweep.provenance(kind)
            )
            for kind, found in points.items()
        },
        failures=failures,
        gates={
            stage: all(
                check_counts.get(check.name, {}).get("failed", 0) == 0
                for check in CHECKS if check.stage == stage
            )
            for stage in STAGES
        },
    )


def replay_records(
    records: Sequence[SeedRecord],
    options: Optional[VerifyOptions] = None,
) -> List[Tuple[SeedRecord, CheckResult]]:
    """Rebuild each record's module and re-run its violated check.

    Returns (record, result) pairs; a result that *fails* means the
    failure still reproduces — which is what a replay is for.
    """
    sweep = _Sweep.of(options or VerifyOptions())
    outcomes: List[Tuple[SeedRecord, CheckResult]] = []
    for record in records:
        check = check_named(record.check)
        module = (
            None if check.applies == ONCE_PER_SWEEP else record.spec.build()
        )
        case = sweep.case(check, record.spec, module)
        outcomes.append((record, check.run(case)))
    return outcomes
