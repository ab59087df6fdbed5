"""Differential verification: estimator vs oracles, at corpus scale.

The harness closes the loop the paper itself drew — analytic estimates
checked against independently produced layouts — and extends it with
the equivalence and metamorphic invariants accumulated by the perf
work.  Every gate is one declaration in :data:`~repro.verify.checks.CHECKS`;
every committed ``VERIFY_*.json`` artifact is one
:class:`~repro.verify.envelope.Envelope` record.  See
:mod:`repro.verify.runner` for the stage pipeline and ``mae verify``
for the CLI front door.
"""

from repro.verify.backend_envelope import (
    backend_provenance,
    measure_backend_errors,
)
from repro.verify.checks import (
    CHECKS,
    Case,
    Check,
    CheckResult,
    check_area_monotone_in_devices,
    check_backend_equivalence,
    check_caches_identity,
    check_frontend_accuracy,
    check_incremental_equivalence,
    check_named,
    check_portfolio_determinism,
    check_serve_equivalence,
    check_plan_vs_direct,
    check_row_sweep_sanity,
    check_shared_within_upper_bound,
    check_sharing_factor_monotone,
    check_spread_mode_agreement,
    check_trace_identity,
)
from repro.verify.congestion_envelope import (
    measure_congestion_case,
    shape_distance,
)
from repro.verify.corpus import CaseSpec, draw_corpus, family_names
from repro.verify.envelope import (
    AREA_BOUNDS,
    BACKEND_BOUNDS,
    CONGESTION_BOUNDS,
    ENVELOPE_SCHEMA_VERSION,
    KINDS,
    Envelope,
    drift,
    judge,
    load_envelope,
    measure_case,
    verification_schedule,
)
from repro.verify.inject import perturbed_backend, perturbed_standard_cell
from repro.verify.records import (
    RECORD_SCHEMA_VERSION,
    SeedRecord,
    load_records,
    save_records,
)
from repro.verify.runner import (
    VerifyOptions,
    VerifyReport,
    replay_records,
    run_verify,
)
from repro.verify.shrink import ShrinkResult, shrink_module, without_devices

__all__ = [
    "AREA_BOUNDS",
    "BACKEND_BOUNDS",
    "CHECKS",
    "CONGESTION_BOUNDS",
    "Case",
    "CaseSpec",
    "Check",
    "CheckResult",
    "ENVELOPE_SCHEMA_VERSION",
    "Envelope",
    "KINDS",
    "RECORD_SCHEMA_VERSION",
    "SeedRecord",
    "ShrinkResult",
    "VerifyOptions",
    "VerifyReport",
    "backend_provenance",
    "check_area_monotone_in_devices",
    "check_backend_equivalence",
    "check_caches_identity",
    "check_frontend_accuracy",
    "check_incremental_equivalence",
    "check_named",
    "check_portfolio_determinism",
    "check_serve_equivalence",
    "check_plan_vs_direct",
    "check_row_sweep_sanity",
    "check_shared_within_upper_bound",
    "check_sharing_factor_monotone",
    "check_spread_mode_agreement",
    "check_trace_identity",
    "draw_corpus",
    "drift",
    "family_names",
    "judge",
    "load_envelope",
    "load_records",
    "measure_backend_errors",
    "measure_case",
    "measure_congestion_case",
    "perturbed_backend",
    "perturbed_standard_cell",
    "replay_records",
    "run_verify",
    "save_records",
    "shape_distance",
    "shrink_module",
    "verification_schedule",
    "without_devices",
]
