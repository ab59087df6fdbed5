"""Tests for EstimatorConfig validation and copy helpers."""

import pytest

from repro.core.config import EstimatorConfig
from repro.errors import EstimationError


class TestValidation:
    def test_defaults_are_paper_behaviour(self):
        config = EstimatorConfig()
        assert config.rows is None
        assert config.row_spread_mode == "paper"
        assert config.feedthrough_model == "two-component"
        assert config.track_sharing_factor == 1.0
        assert config.net_span_mode == "span"
        assert config.device_area_mode == "exact"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 0},
            {"max_rows": 0},
            {"rows": 10_001},
            {"max_rows": 10 ** 18},
            {"row_spread_mode": "bogus"},
            {"feedthrough_model": "bogus"},
            {"track_sharing_factor": 0.0},
            {"track_sharing_factor": 1.5},
            {"net_span_mode": "bogus"},
            {"device_area_mode": "bogus"},
            {"port_pitch_override": 0.0},
            {"max_aspect": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(EstimationError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"rows": 2.5}, {"rows": True}, {"rows": "4"}, {"max_rows": 8.0},
        {"max_rows": False}, {"max_rows": None},
        {"congestion_margin": float("nan")},
        {"congestion_margin": float("inf")},
        {"track_sharing_factor": None},
        {"port_pitch_override": float("inf")},
        {"port_pitch_override": float("nan")},
        {"max_aspect": float("nan")}, {"max_aspect": True},
        {"max_aspect": "2"}, {"max_aspect": 10 ** 400},
    ], ids=lambda kwargs: f"{next(iter(kwargs))}={next(iter(kwargs.values()))!r:.12}")
    def test_rejects_non_finite_and_mistyped_numbers(self, kwargs):
        """JSON bodies carry such values (``json.loads`` reads 2.5,
        true, NaN and Infinity anywhere): each is a typed error here,
        not a config that fails later."""
        with pytest.raises(EstimationError, match="must be a finite"):
            EstimatorConfig(**kwargs)

    def test_numpy_scalars_pass(self):
        numpy = pytest.importorskip("numpy")
        config = EstimatorConfig(rows=numpy.int64(3),
                                 max_aspect=numpy.float32(1.5))
        assert config.rows == 3

    def test_valid_extremes_accepted(self):
        EstimatorConfig(track_sharing_factor=1e-9)
        EstimatorConfig(rows=1, max_rows=1)


class TestCopyHelpers:
    def test_with_rows(self):
        config = EstimatorConfig(track_sharing_factor=0.5)
        derived = config.with_rows(4)
        assert derived.rows == 4
        assert derived.track_sharing_factor == 0.5
        assert config.rows is None  # original untouched

    def test_with_rows_same_count_is_self(self):
        config = EstimatorConfig()
        assert config.with_rows(None) is config
        fixed = EstimatorConfig(rows=4)
        assert fixed.with_rows(4) is fixed
        assert fixed.with_rows(None) == config
        # A changed row count is still a validated copy.
        with pytest.raises(EstimationError):
            config.with_rows(0)
        with pytest.raises(EstimationError):
            fixed.with_rows(-2)

    def test_with_changes(self):
        config = EstimatorConfig()
        derived = config.with_(device_area_mode="average", rows=2)
        assert derived.device_area_mode == "average"
        assert derived.rows == 2

    def test_with_validates(self):
        with pytest.raises(EstimationError):
            EstimatorConfig().with_(rows=-1)
