"""Accuracy envelopes: one record shape for every committed artifact.

The paper's own validation is two tables of relative errors —
full-custom estimates within -17 %..+26 % of manual layouts (Table 1),
standard-cell estimates +42 %..+70 % above TimberWolf (Table 2, an
upper bound by construction).  ``mae verify`` generalises that
comparison from a handful of fixed designs to the whole randomized
corpus, and commits what it measures as envelope records:

* ``area`` — estimate vs layout oracle, ``estimate/oracle - 1``
  (:func:`measure_case`, the ``envelope`` check);
* ``congestion`` — predicted vs routed per-channel track demand
  (:mod:`repro.verify.congestion_envelope`, ``congestion_oracle``);
* ``backend`` — raw numpy-vs-exact kernel error
  (:mod:`repro.verify.backend_envelope`, ``backend_equivalence``);
* ``frontend`` — calibrated estimate vs Liberty cell area
  (:mod:`repro.frontend.calibrate`, ``mae calibrate``).

Every kind is one :class:`Envelope`: **bounds** (per methodology, a
``(low, high)`` band on named point fields), **points** (one mapping
per case, with ``label``, ``methodology`` and ``within``),
**summary** (cases, violations, and min/max/mean of every bounded
field, per methodology) and **provenance** (what rebuilds the record:
corpus seeds and base seed or fixture set, processes, and the oracle
schedule or float backend).  One writer (:meth:`Envelope.save`), one
loader that validates the whole file (:func:`load_envelope`), one
schema version and one drift comparator (:func:`drift`) serve all
four ``VERIFY_*.json`` files.

The default bounds were calibrated empirically (docs/ORACLES.md
records the runs) and then widened by a safety margin; they are
deliberately looser than the paper's table ranges because the corpus
spans smaller and stranger modules than the paper's hand-picked
designs, and the fast oracle schedule routes less tightly than
TimberWolf.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.standard_cell import estimate_standard_cell
from repro.errors import VerificationError
from repro.layout.annealing import AnnealingSchedule
from repro.layout.full_custom_flow import layout_full_custom
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.netlist.model import Module
from repro.technology.process import ProcessDatabase
from repro.verify.corpus import CaseSpec

#: Version of every VERIFY_*.json file (envelope records and the
#: verify report that embeds them); bumped on shape changes.
ENVELOPE_SCHEMA_VERSION = 2

#: Methodology -> point field -> inclusive ``(low, high)`` band.
Bounds = Mapping[str, Mapping[str, Tuple[Any, Any]]]

#: Standard-cell estimates are an upper bound, so that envelope sits
#: mostly above zero (observed 0.00..+3.30 over the calibration
#: corpus); the full-custom oracle inflates its bounding box for wiring
#: the estimator's minimum-area model ignores, so that envelope sits
#: below zero (observed -0.32..-0.14).
AREA_BOUNDS: Bounds = {
    "standard-cell": {"error": (-0.40, 4.00)},
    "full-custom": {"error": (-0.60, 0.40)},
}

#: Total error is wide and one-sided: the Eq. 2-3 demand model books
#: one track per net segment while the left-edge router packs a channel
#: down to its density lower bound, so what the gate pins down is the
#: *shape* (observed total +0.00..+6.43, shape <= 0.25).
CONGESTION_BOUNDS: Bounds = {
    "standard-cell": {
        "total_error": (-0.50, 8.00),
        "shape_error": (0.0, 0.40),
    },
}

#: Relative raw-kernel errors sit ~4 orders of magnitude above the
#: calibration corpus (~1e-13) and ~2 below the numpy backend's 1e-7
#: guard band, so a violation fires while the integer outputs are
#: still provably safe; full estimates must stay bit-identical.
BACKEND_BOUNDS: Bounds = {
    "standard-cell": {
        "spread_error": (0.0, 1e-9),
        "mean_error": (0.0, 1e-9),
        "bit_identical": (True, True),
    },
}


@dataclasses.dataclass(frozen=True)
class Kind:
    """What every record of one envelope kind carries."""

    bounds: Bounds                       # committed default bands
    provenance: Tuple[str, ...]          # keys that rebuild the record
    fitted: Tuple[str, ...] = ()         # fitted summary values
    #: Point fields whose last bits depend on the host's NumPy build;
    #: :func:`drift` only asks them to stay inside their bands.
    tolerant: Tuple[str, ...] = ()


_CORPUS = ("seeds", "base_seed", "processes")

KINDS: Dict[str, Kind] = {
    "area": Kind(AREA_BOUNDS, _CORPUS + ("schedule",)),
    "congestion": Kind(CONGESTION_BOUNDS, _CORPUS + ("schedule",)),
    "backend": Kind(
        BACKEND_BOUNDS, _CORPUS + ("backend",),
        tolerant=("spread_error", "mean_error"),
    ),
    "frontend": Kind(
        {}, ("fixtures", "library", "processes", "pdn_margin", "slack"),
        fitted=("factor",),
    ),
}


def judge(bounds: Bounds, point: Mapping[str, Any]) -> Tuple[dict, List[str]]:
    """``point`` stamped with ``within``, plus one line per bounded
    field that lies outside its band."""
    bands = bounds.get(point["methodology"])
    if bands is None:
        raise VerificationError(
            f"case {point['label']}: no bounds for "
            f"{point['methodology']} points"
        )
    outside = []
    for field, (low, high) in bands.items():
        if field not in point:
            raise VerificationError(
                f"case {point['label']}: no {field!r} measurement to bound"
            )
        if not low <= point[field] <= high:
            outside.append(
                f"{field} {point[field]!r} outside [{low!r}, {high!r}]"
            )
    return dict(point, within=not outside), outside


def _summarize(bounds: Bounds, points: Sequence[Mapping]) -> dict:
    summary: Dict[str, dict] = {}
    for methodology, bands in bounds.items():
        group = [p for p in points if p["methodology"] == methodology]
        entry: Dict[str, Any] = {
            "cases": len(group),
            "violations": sum(1 for p in group if not p["within"]),
        }
        if group:
            for field in bands:
                values = [p[field] for p in group]
                entry[field] = {
                    "min": min(values),
                    "max": max(values),
                    "mean": sum(values) / len(values),
                }
        summary[methodology] = entry
    return summary


@dataclasses.dataclass(frozen=True)
class Envelope:
    """One committed accuracy envelope (see the module docstring)."""

    kind: str
    bounds: Bounds
    points: Tuple[Mapping[str, Any], ...]
    provenance: Mapping[str, Any]
    summary: Mapping[str, Any]

    @staticmethod
    def build(kind: str, bounds: Bounds, points: Sequence[Mapping],
              provenance: Mapping[str, Any], **fitted: Any) -> "Envelope":
        """Judge ``points`` against ``bounds`` and summarise them."""
        judged = tuple(judge(bounds, point)[0] for point in points)
        return Envelope(
            kind, bounds, judged, dict(provenance),
            {**fitted, **_summarize(bounds, judged)},
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "kind": self.kind,
            "bounds": {
                methodology: {
                    field: list(band) for field, band in bands.items()
                }
                for methodology, bands in self.bounds.items()
            },
            "points": [dict(point) for point in self.points],
            "provenance": dict(self.provenance),
            "summary": dict(self.summary),
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the record (sorted keys, trailing newline — the
        committed-diff format)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @staticmethod
    def from_dict(data: Any, source: str = "envelope") -> "Envelope":
        """Validate a whole record; any problem raises
        :class:`~repro.errors.VerificationError` naming ``source``."""

        def fields(value: Any, keys: Sequence[str], where: str) -> Mapping:
            if not isinstance(value, Mapping):
                raise VerificationError(
                    f"{source}: {where} must be a JSON object"
                )
            missing = [key for key in keys if key not in value]
            if missing:
                raise VerificationError(
                    f"{source}: {where} is missing field(s) {missing}"
                )
            return value

        record = fields(data, ("schema_version", "kind", "bounds",
                               "points", "provenance", "summary"), "record")
        if record["schema_version"] != ENVELOPE_SCHEMA_VERSION:
            raise VerificationError(
                f"{source}: schema {record['schema_version']!r} != "
                f"{ENVELOPE_SCHEMA_VERSION}"
            )
        kind = KINDS.get(record["kind"])
        if kind is None:
            raise VerificationError(
                f"{source}: unknown envelope kind {record['kind']!r}"
            )
        bounds = {}
        for methodology, bands in fields(record["bounds"], (),
                                         "bounds").items():
            bounds[methodology] = {}
            for field, band in fields(bands, (),
                                      f"bounds[{methodology}]").items():
                if not isinstance(band, list) or len(band) != 2:
                    raise VerificationError(
                        f"{source}: band {methodology}.{field} must be "
                        f"[low, high], got {band!r}"
                    )
                bounds[methodology][field] = tuple(band)
        fields(record["provenance"], kind.provenance, "provenance")
        fields(record["summary"], kind.fitted, "summary")
        if not isinstance(record["points"], list):
            raise VerificationError(f"{source}: points must be a list")
        for index, point in enumerate(record["points"]):
            where = f"point {index}"
            fields(point, ("label", "methodology", "within"), where)
            if point["methodology"] not in bounds:
                raise VerificationError(
                    f"{source}: {where} has no bounds for "
                    f"{point['methodology']!r}"
                )
            fields(point, tuple(bounds[point["methodology"]]), where)
        return Envelope(
            record["kind"], bounds,
            tuple(dict(point) for point in record["points"]),
            dict(record["provenance"]), dict(record["summary"]),
        )


def load_envelope(path: Union[str, Path], kind: str) -> Envelope:
    """The ``kind`` record in ``path``: an envelope file, or a verify
    report (``mae verify --report``) whose ``envelopes`` mapping holds
    one record per kind.  The whole file is validated first; a missing,
    corrupt, or mismatched file raises
    :class:`~repro.errors.VerificationError`."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise VerificationError(
            f"cannot read envelope {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise VerificationError(
            f"envelope {path} is not valid JSON: {exc}"
        ) from exc
    if isinstance(data, Mapping) and "envelopes" in data:
        if data.get("schema_version") != ENVELOPE_SCHEMA_VERSION:
            raise VerificationError(
                f"{path}: schema {data.get('schema_version')!r} != "
                f"{ENVELOPE_SCHEMA_VERSION}"
            )
        entries = data["envelopes"]
        if not isinstance(entries, Mapping):
            raise VerificationError(f"{path}: 'envelopes' must be an object")
        records = {
            name: Envelope.from_dict(entry, f"{path} [{name}]")
            for name, entry in entries.items()
        }
        for name, record in records.items():
            if record.kind != name:
                raise VerificationError(
                    f"{path}: envelope {name!r} holds a {record.kind!r} record"
                )
    else:
        record = Envelope.from_dict(data, str(path))
        records = {record.kind: record}
    if kind not in records:
        raise VerificationError(
            f"{path} holds no {kind!r} envelope (found {sorted(records)})"
        )
    return records[kind]


def _comparable(record: Envelope) -> dict:
    view = json.loads(json.dumps(record.to_dict()))   # as the file says
    for field in KINDS[record.kind].tolerant:
        for point in view["points"]:
            low, high = view["bounds"][point["methodology"]][field]
            point[field] = low <= point[field] <= high
        for entry in view["summary"].values():
            if isinstance(entry, dict):
                entry.pop(field, None)
    return view


def drift(committed: Envelope, fresh: Envelope) -> List[str]:
    """What differs between a committed record and a fresh rebuild;
    empty when the rebuild reproduces it.

    Exact on every value, except that a kind's host-dependent
    (:attr:`Kind.tolerant`) fields need only lie inside their bands on
    both sides."""
    old, new = _comparable(committed), _comparable(fresh)
    problems = [
        f"{key}: committed {old[key]!r}, now {new[key]!r}"
        for key in ("kind", "bounds", "provenance", "summary")
        if old[key] != new[key]
    ]
    old_points = {point["label"]: point for point in old["points"]}
    new_points = {point["label"]: point for point in new["points"]}
    if list(old_points) != list(new_points):
        problems.append(
            f"cases: committed {list(old_points)}, now {list(new_points)}"
        )
    for label, point in old_points.items():
        other = new_points.get(label, point)
        changed = {
            field: (point.get(field), other.get(field))
            for field in sorted(set(point) | set(other))
            if point.get(field) != other.get(field)
        }
        if changed:
            problems.append(f"point {label}: {changed}")
    return problems


# ----------------------------------------------------------------------
# the area oracle
# ----------------------------------------------------------------------
def verification_schedule() -> AnnealingSchedule:
    """The pinned oracle annealing budget for verification runs.

    Small enough that a 25-case sweep finishes in CI smoke time, large
    enough that oracle areas are stable; the envelope bounds are
    calibrated against exactly this schedule, so changing it means
    recalibrating (docs/ORACLES.md).
    """
    return AnnealingSchedule(moves_per_stage=30, stages=6, cooling=0.8)


def measure_case(
    spec: CaseSpec,
    module: Module,
    process: ProcessDatabase,
    schedule: Optional[AnnealingSchedule] = None,
    config: Optional[EstimatorConfig] = None,
) -> dict:
    """Estimate and lay out one case; the ``area`` point (unjudged).

    Standard-cell oracles run at the estimator's own Section 5 row
    choice (clamped to the device count — the placer needs at least one
    cell per row), so estimate and layout describe the same aspect
    decision, exactly as Table 2 compares like rows against like.
    """
    schedule = schedule or verification_schedule()
    config = config or EstimatorConfig()
    if spec.methodology == "standard-cell":
        estimate = estimate_standard_cell(module, process, config)
        rows = min(estimate.rows, module.device_count)
        if rows != estimate.rows:
            estimate = estimate_standard_cell(
                module, process, config.with_rows(rows)
            )
        oracle = layout_standard_cell(
            module, process, rows=rows, seed=spec.seed, schedule=schedule,
            config=config,
        )
    else:
        estimate = estimate_full_custom(module, process, config)
        rows = 0
        oracle = layout_full_custom(
            module, process, seed=spec.seed, schedule=schedule,
            config=config,
        )
    if oracle.area <= 0:
        raise VerificationError(
            f"case {spec.label}: oracle produced non-positive area "
            f"{oracle.area}"
        )
    return {
        "label": spec.label,
        "methodology": spec.methodology,
        "devices": module.device_count,
        "rows": rows,                    # 0 for full-custom
        "estimate_area": estimate.area,
        "oracle_area": oracle.area,
        "error": estimate.area / oracle.area - 1.0,
    }
