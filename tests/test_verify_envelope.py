"""The one envelope record: writer, loader, drift comparator, and the
currency of every committed ``VERIFY_*.json`` file."""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.errors import VerificationError
from repro.frontend.calibrate import measure_frontend_envelope
from repro.verify.checks import CHECKS
from repro.verify.envelope import (
    AREA_BOUNDS,
    BACKEND_BOUNDS,
    ENVELOPE_SCHEMA_VERSION,
    Envelope,
    drift,
    judge,
    load_envelope,
)
from repro.verify.runner import VerifyOptions, run_verify

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every committed record: (file, kind).  The verify report embeds the
#: records of every envelope its sweep measured.
COMMITTED = (
    ("VERIFY_envelope.json", "area"),
    ("VERIFY_envelope.json", "congestion"),
    ("VERIFY_envelope.json", "backend"),
    ("VERIFY_congestion_envelope.json", "congestion"),
    ("VERIFY_backend_envelope.json", "backend"),
    ("VERIFY_frontend_envelope.json", "frontend"),
)


@functools.lru_cache(maxsize=None)
def _sweep_envelope(kind: str, seeds: int, base_seed: int) -> Envelope:
    check = next(check.name for check in CHECKS if check.envelope == kind)
    report = run_verify(VerifyOptions(
        seeds=seeds, base_seed=base_seed, checks=(check,),
    ))
    return report.envelopes[kind]


def rebuild(record: Envelope) -> Envelope:
    """``record`` measured afresh from its own provenance."""
    provenance = record.provenance
    if record.kind == "frontend":
        return measure_frontend_envelope(
            pdn_margin=provenance["pdn_margin"], slack=provenance["slack"]
        )
    return _sweep_envelope(
        record.kind, provenance["seeds"], provenance["base_seed"]
    )


@pytest.mark.parametrize("name, kind", COMMITTED)
def test_committed_record_reproduces(name, kind):
    """Regenerate with ``mae verify --seeds 25 --report
    VERIFY_envelope.json --backend-report VERIFY_backend_envelope.json
    --congestion-report VERIFY_congestion_envelope.json`` and
    ``mae calibrate`` when a change is intentional."""
    if kind == "backend":
        pytest.importorskip("numpy")
    committed = load_envelope(REPO_ROOT / name, kind)
    assert drift(committed, rebuild(committed)) == []


def _point(label, error, methodology="standard-cell"):
    return {"label": label, "methodology": methodology, "error": error}


def _area(*points):
    return Envelope.build("area", AREA_BOUNDS, points, {
        "seeds": 2, "base_seed": 0, "processes": {}, "schedule": {},
    })


class TestRecord:
    def test_build_judges_and_summarises(self):
        record = _area(_point("a", 0.5), _point("b", 9.0),
                       _point("c", -0.2, "full-custom"))
        assert [p["within"] for p in record.points] == [True, False, True]
        assert record.summary["standard-cell"] == {
            "cases": 2, "violations": 1,
            "error": {"min": 0.5, "max": 9.0, "mean": 4.75},
        }
        assert record.summary["full-custom"]["cases"] == 1

    def test_judge_names_the_field_outside_its_band(self):
        point, outside = judge(AREA_BOUNDS, _point("a", 9.0))
        assert not point["within"]
        assert outside == ["error 9.0 outside [-0.4, 4.0]"]
        with pytest.raises(VerificationError, match="no bounds"):
            judge({"full-custom": {}}, _point("a", 0.0))

    def test_round_trip(self, tmp_path):
        record = _area(_point("a", 0.5), _point("b", 1.5))
        path = record.save(tmp_path / "area.json")
        assert load_envelope(path, "area") == record
        assert json.loads(path.read_text())["schema_version"] == \
            ENVELOPE_SCHEMA_VERSION

    def test_report_records_load_by_kind(self, tmp_path):
        report = run_verify(VerifyOptions(seeds=3, checks=("envelope",)))
        path = report.save(tmp_path / "report.json")
        assert load_envelope(path, "area") == report.envelopes["area"]
        with pytest.raises(VerificationError, match="no 'congestion'"):
            load_envelope(path, "congestion")
        data = json.loads(path.read_text())
        data["envelopes"]["congestion"] = data["envelopes"]["area"]
        path.write_text(json.dumps(data))
        with pytest.raises(VerificationError, match="holds a 'area'"):
            load_envelope(path, "area")


def _corrupt(problem, data):
    if problem == "wrong-schema":
        data["schema_version"] = ENVELOPE_SCHEMA_VERSION - 1
    elif problem == "unknown-kind":
        data["kind"] = "timing"
    elif problem == "missing-field":
        del data["provenance"]["pdn_margin"]
    elif problem == "missing-point-field":
        del data["points"][0]["residual"]
    return data


#: Loader input problem -> what its error names.
LOADER_PROBLEMS = {
    "truncated": "not valid JSON",
    "missing-file": "cannot read",
    "wrong-schema": "schema",
    "wrong-kind": "no 'congestion' envelope",
    "unknown-kind": "unknown envelope kind",
    "missing-field": "pdn_margin",
    "missing-point-field": "residual",
}


@pytest.mark.parametrize("problem", list(LOADER_PROBLEMS))
def test_loader_rejects(problem, tmp_path):
    """Every structural problem is a typed error, never a bare
    ``OSError``/``JSONDecodeError``/``KeyError`` or half a record."""
    data = load_envelope(
        REPO_ROOT / "VERIFY_frontend_envelope.json", "frontend"
    ).to_dict()
    path = tmp_path / "envelope.json"
    text = json.dumps(_corrupt(problem, data))
    if problem == "truncated":
        text = text[: len(text) // 2]
    if problem != "missing-file":
        path.write_text(text)
    kind = "congestion" if problem == "wrong-kind" else "frontend"
    with pytest.raises(VerificationError, match=LOADER_PROBLEMS[problem]):
        load_envelope(path, kind)


class TestDrift:
    def test_identical_records_do_not_drift(self):
        record = _area(_point("a", 0.5))
        assert drift(record, _area(_point("a", 0.5))) == []

    def test_exact_kinds_flag_any_change(self):
        committed = _area(_point("a", 0.5), _point("b", 1.0))
        moved = _area(_point("a", 0.5), _point("b", 1.0 + 1e-15))
        problems = drift(committed, moved)
        assert any(problem.startswith("point b") for problem in problems)
        renamed = _area(_point("a", 0.5), _point("c", 1.0))
        assert any(
            problem.startswith("cases") for problem in drift(committed,
                                                             renamed)
        )

    def test_backend_errors_need_only_stay_in_bounds(self):
        def backend(spread, identical=True):
            return Envelope.build("backend", BACKEND_BOUNDS, [{
                "label": "a", "methodology": "standard-cell",
                "spread_error": spread, "mean_error": 0.0,
                "bit_identical": identical,
            }], {})

        committed = backend(1.2e-16)
        assert drift(committed, backend(3.4e-16)) == []
        assert drift(committed, backend(2e-9))
        assert drift(committed, backend(1.2e-16, identical=False))

    def test_provenance_is_exact(self):
        record = _area(_point("a", 0.5))
        other = dataclasses.replace(
            record, provenance=dict(record.provenance, seeds=3)
        )
        assert drift(record, other) == [
            f"provenance: committed {record.to_dict()['provenance']!r}, "
            f"now {other.to_dict()['provenance']!r}"
        ]
