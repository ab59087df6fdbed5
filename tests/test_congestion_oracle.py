"""The router-backed congestion oracle, end to end.

Three layers, mirroring how ``mae verify --check congestion_oracle``
composes them: pinned regressions for the routers the oracle trusts
(left-edge channel router, global trunk assignment), the per-case
measurement (predicted per-channel demand vs routed per-channel track
usage), and the verify-runner integration — failing cases shrink to
seed records that replay, and the sweep's ``congestion`` envelope
record round-trips through the one envelope writer and loader.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell
from repro.errors import VerificationError
from repro.layout.geometry import Interval
from repro.layout.routing.channel import ChannelNet, route_channel
from repro.layout.routing.global_route import global_route
from repro.layout.standard_cell_flow import layout_standard_cell
from repro.technology.libraries import nmos_process
from repro.cli import main
from repro.verify.congestion_envelope import (
    measure_congestion_case,
    shape_distance,
)
from repro.verify.corpus import draw_corpus
from repro.verify.envelope import (
    CONGESTION_BOUNDS,
    Envelope,
    judge,
    load_envelope,
    verification_schedule,
)
from repro.verify.records import load_records, save_records
from repro.verify.runner import (
    VerifyOptions,
    replay_records,
    run_verify,
)

PROCESS = nmos_process()
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Bands no healthy case can meet.
IMPOSSIBLE = {"standard-cell": {
    "total_error": (-0.0001, 0.0001),
    "shape_error": (0.0, 0.0001),
}}


def standard_cell_specs(count, base_seed=0):
    return [
        spec for spec in draw_corpus(count, base_seed=base_seed)
        if spec.methodology == "standard-cell"
    ]


# ----------------------------------------------------------------------
# router regressions: the oracle's ground truth must stay pinned
# ----------------------------------------------------------------------
class TestChannelRouterRegression:
    def test_left_edge_known_assignment(self):
        """Four seeded intervals with a known density-2 left-edge
        packing; any change here shifts every oracle measurement."""
        nets = [
            ChannelNet("a", Interval(0.0, 2.0)),
            ChannelNet("b", Interval(1.0, 3.0)),
            ChannelNet("c", Interval(2.5, 4.0)),
            ChannelNet("d", Interval(3.5, 6.0)),
        ]
        result = route_channel(nets)
        assert result.tracks == 2
        assert result.density == 2
        assert result.assignment == {"a": 0, "b": 1, "c": 0, "d": 1}

    def test_left_edge_meets_density_lower_bound(self):
        """The structural fact the envelope bounds lean on: the
        left-edge router is density-optimal, so routed usage is the
        *floor* the model's one-net-per-track total sits above."""
        nets = [
            ChannelNet(f"n{i}", Interval(float(i), float(i + 3)))
            for i in range(8)
        ]
        result = route_channel(nets)
        assert result.tracks == result.density


class TestRoutedFixtureRegression:
    #: (corpus label at base seed 0) -> (rows, per-channel tracks).
    #: Pinned against the verification schedule; a diff here means the
    #: placement, the feed-through inserter, or a router moved.
    PINNED = {
        "adder_s821872_b8": (2, {0: 0, 1: 3, 2: 1}),
        "alu_s318046_b3": (2, {0: 0, 1: 9, 2: 3}),
        # A frontend-ingested golden fixture rides in the corpus too,
        # so the BLIF parse -> placement -> route path is pinned.
        "blif_s375441_f4": (1, {0: 0, 1: 5}),
    }

    def test_routed_channel_tracks_pinned(self):
        schedule = verification_schedule()
        seen = {}
        for spec in standard_cell_specs(6, base_seed=0):
            if spec.label not in self.PINNED:
                continue
            module = spec.build()
            estimate = estimate_standard_cell(
                module, PROCESS, EstimatorConfig()
            )
            rows = min(estimate.rows, module.device_count)
            layout = layout_standard_cell(
                module, PROCESS, rows=rows, seed=spec.seed,
                schedule=schedule,
            )
            seen[spec.label] = (rows, dict(layout.channel_tracks))
        assert seen == self.PINNED

    def test_global_route_matches_flow_channels(self):
        """Re-running the global router over the flow's own placement
        reproduces the flow's channel structure: channel 0 stays empty
        and re-routing each channel gives the recorded track counts."""
        spec = standard_cell_specs(6, base_seed=0)[0]
        module = spec.build()
        estimate = estimate_standard_cell(module, PROCESS,
                                          EstimatorConfig())
        rows = min(estimate.rows, module.device_count)
        layout = layout_standard_cell(
            module, PROCESS, rows=rows, seed=spec.seed,
            schedule=verification_schedule(), keep_placement=True,
        )
        external = {
            net.name
            for net in module.iter_signal_nets(
                EstimatorConfig().power_nets
            )
            if net.is_external and net.name in layout.placement.nets
        }
        assignment = global_route(layout.placement, external)
        assert assignment.channel_nets(0) == []
        for channel in range(rows + 1):
            rerouted = route_channel(assignment.channel_nets(channel))
            assert rerouted.tracks == layout.channel_tracks[channel]


# ----------------------------------------------------------------------
# per-case measurement
# ----------------------------------------------------------------------
class TestMeasureCase:
    def test_within_default_bounds_over_corpus_slice(self):
        for spec in standard_cell_specs(6, base_seed=0):
            point, outside = judge(CONGESTION_BOUNDS, measure_congestion_case(
                spec, spec.build(), PROCESS
            ))
            assert point["within"], (point["label"], outside)
            assert point["rows"] >= 1
            assert point["capacity"] == PROCESS.channel_capacity
            assert 0.0 <= point["routability"] <= 1.0
            assert 0.0 <= point["shape_error"] <= 1.0

    def test_full_custom_case_rejected(self):
        spec = next(
            s for s in draw_corpus(12, base_seed=0)
            if s.methodology == "full-custom"
        )
        with pytest.raises(VerificationError, match="standard-cell"):
            measure_congestion_case(spec, spec.build(), PROCESS)

    def test_deterministic(self):
        spec = standard_cell_specs(8, base_seed=1)[0]
        a = measure_congestion_case(spec, spec.build(), PROCESS)
        b = measure_congestion_case(spec, spec.build(), PROCESS)
        assert a == b

    def test_bounds_decide_within(self):
        spec = standard_cell_specs(8, base_seed=0)[0]
        point, outside = judge(IMPOSSIBLE, measure_congestion_case(
            spec, spec.build(), PROCESS
        ))
        assert not point["within"]
        assert outside

    def test_shape_distance_properties(self):
        assert shape_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert shape_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        # Scale invariance: profiles are normalised first.
        assert shape_distance([2.0, 4.0], [1.0, 2.0]) == 0.0
        # All-zero profiles match anything.
        assert shape_distance([0.0, 0.0], [1.0, 2.0]) == 0.0
        with pytest.raises(VerificationError, match="lengths"):
            shape_distance([1.0], [1.0, 2.0])


# ----------------------------------------------------------------------
# envelope artifact
# ----------------------------------------------------------------------
class TestEnvelopeArtifact:
    def test_round_trip(self, tmp_path):
        record = run_verify(VerifyOptions(
            seeds=4, checks=("congestion_oracle",),
        )).envelopes["congestion"]
        assert record.summary["standard-cell"]["violations"] == 0
        path = record.save(tmp_path / "congestion.json")
        assert load_envelope(path, "congestion") == record
        # Committed-diff format: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == record.to_dict()

    def test_wrong_schema_rejected(self, tmp_path):
        data = load_envelope(
            REPO_ROOT / "VERIFY_congestion_envelope.json", "congestion"
        ).to_dict()
        data["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(VerificationError, match="schema"):
            load_envelope(path, "congestion")

    def test_no_standard_cell_cases_rejected(self, tmp_path, monkeypatch,
                                              capsys):
        full_custom = [
            spec for spec in draw_corpus(12, base_seed=0)
            if spec.methodology == "full-custom"
        ]
        monkeypatch.setattr(
            "repro.verify.runner.draw_corpus",
            lambda count, base_seed=0: full_custom,
        )
        assert main([
            "verify", "--seeds", "4", "--check", "congestion_oracle",
            "--congestion-report", str(tmp_path / "c.json"),
        ]) == 1
        assert "measured no congestion envelope points" in \
            capsys.readouterr().err

    def test_summary_aggregates(self):
        common = dict(methodology="standard-cell", family="f", devices=4,
                      rows=2, capacity=8, routed_total=3)
        points = [
            dict(common, label="x", predicted_total=6.0, total_error=1.0,
                 shape_error=0.1, routability=0.9),
            dict(common, label="y", predicted_total=9.0, total_error=2.0,
                 shape_error=0.5, routability=0.8),
        ]
        record = Envelope.build("congestion", CONGESTION_BOUNDS, points, {})
        summary = record.summary["standard-cell"]
        assert summary["cases"] == 2
        assert summary["violations"] == 1
        assert summary["total_error"]["min"] == 1.0
        assert summary["total_error"]["max"] == 2.0
        assert summary["shape_error"]["max"] == 0.5
        assert [p["within"] for p in record.points] == [True, False]


# ----------------------------------------------------------------------
# verify-runner integration: gate, shrink, replay
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_explicit_check_runs_without_envelope(self):
        report = run_verify(VerifyOptions(
            seeds=6, check_envelope=False,
            checks=("congestion_oracle",),
        ))
        assert report.passed
        summary = report.envelopes["congestion"].summary["standard-cell"]
        assert summary["cases"] >= 1
        assert summary["violations"] == 0
        data = report.to_dict()["envelopes"]["congestion"]
        assert len(data["points"]) == summary["cases"]

    def test_skip_envelope_skips_congestion(self):
        report = run_verify(VerifyOptions(seeds=6,
                                          check_envelope=False))
        assert "congestion" not in report.envelopes

    def test_violation_shrinks_to_replayable_record(self, tmp_path):
        report = run_verify(VerifyOptions(
            seeds=6, check_envelope=False,
            checks=("congestion_oracle",),
            bounds={"congestion": IMPOSSIBLE},
        ))
        assert not report.passed
        records = [
            record for record in report.failures
            if record.check == "congestion_oracle"
        ]
        assert records
        for record in records:
            # The shrinker found a smaller module still outside the
            # (impossible) bounds.
            assert record.shrunk_devices is not None
            assert record.shrunk_device_count >= 1

        path = save_records(tmp_path / "seeds.json", records)
        loaded = load_records(path)
        assert loaded == records
        # Replay runs against the *committed* bounds, under which the
        # healthy model passes: the records document a fixed failure.
        replayed = replay_records(loaded)
        assert all(result.passed for _, result in replayed)
