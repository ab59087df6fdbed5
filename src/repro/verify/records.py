"""Replayable seed records for verification failures.

A failing corpus case is persisted as a *recipe*, not a netlist: the
:class:`~repro.verify.corpus.CaseSpec` (family + seed + params) rebuilds
the exact module in any process, so a record file checked into a bug
report — or uploaded as a CI artifact — replays with ``mae verify
--replay FILE``.  Alongside the spec each record carries the violated
check, its detail string, and the shrink outcome (which devices of the
rebuilt module the failure actually needs).

The file format is versioned JSON, validated loudly on load: any
structural problem raises :class:`~repro.errors.VerificationError`
rather than replaying half a file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import VerificationError
from repro.verify.corpus import CaseSpec

#: Bump when the record shape changes.
RECORD_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class SeedRecord:
    """One replayable verification failure."""

    spec: CaseSpec
    check: str                   # violated check name
    stage: str                   # verify stage that caught it
    detail: str = ""
    shrunk_devices: Optional[Tuple[str, ...]] = None
    shrunk_device_count: Optional[int] = None

    def to_dict(self) -> dict:
        data = {
            "spec": self.spec.to_dict(),
            "check": self.check,
            "stage": self.stage,
            "detail": self.detail,
        }
        if self.shrunk_devices is not None:
            data["shrunk_devices"] = list(self.shrunk_devices)
            data["shrunk_device_count"] = self.shrunk_device_count
        return data

    @staticmethod
    def from_dict(data: Mapping) -> "SeedRecord":
        if not isinstance(data, Mapping):
            raise VerificationError(f"malformed seed record: {data!r}")
        try:
            spec = CaseSpec.from_dict(data["spec"])
            check = data["check"]
            stage = data["stage"]
        except KeyError as exc:
            raise VerificationError(
                f"seed record missing field {exc.args[0]!r}"
            ) from exc
        if not isinstance(check, str) or not isinstance(stage, str):
            raise VerificationError(f"malformed seed record: {data!r}")
        shrunk = data.get("shrunk_devices")
        return SeedRecord(
            spec=spec,
            check=check,
            stage=stage,
            detail=str(data.get("detail", "")),
            shrunk_devices=tuple(shrunk) if shrunk is not None else None,
            shrunk_device_count=data.get("shrunk_device_count"),
        )


def save_records(path: Union[str, Path],
                 records: Sequence[SeedRecord]) -> Path:
    """Write records to ``path`` as versioned JSON."""
    path = Path(path)
    payload = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "records": [record.to_dict() for record in records],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_records(path: Union[str, Path]) -> List[SeedRecord]:
    """Load and validate a record file; loud failure, never half a load."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise VerificationError(
            f"cannot read seed records {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise VerificationError(
            f"seed records {path} are not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise VerificationError(f"{path}: record file must be a JSON object")
    version = payload.get("schema_version")
    if version != RECORD_SCHEMA_VERSION:
        raise VerificationError(
            f"{path}: unsupported schema_version {version!r} "
            f"(expected {RECORD_SCHEMA_VERSION})"
        )
    records = payload.get("records")
    if not isinstance(records, list):
        raise VerificationError(f"{path}: 'records' must be a list")
    return [SeedRecord.from_dict(entry) for entry in records]
