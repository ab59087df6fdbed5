"""Kernel evaluation backends: exact reference vs vectorized float64.

The contract under test is the one ``mae verify --check
backend_equivalence`` gates in CI: the numpy backend's integer outputs
(track counts, rounded feed-through means) must be **bit-identical** to
the exact backend's, because the near-integer guard band hands any
evaluation near ``round_up``'s discontinuity back to the exact kernels.
The raw float64 expectations are only required to stay inside the
committed envelope (``VERIFY_backend_envelope.json``).

Selection semantics ride along: ``auto`` degrades to ``exact`` on a
NumPy-less host, while naming ``numpy`` explicitly there raises
:class:`~repro.errors.BackendUnavailableError`.  Those tests simulate
the missing dependency by monkeypatching the module's NumPy handle, so
they run (and matter) on both CI matrix legs.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congestion.model import congestion_distribution
from repro.errors import BackendUnavailableError, EstimationError
from repro.perf import backends as backends_mod
from repro.perf.backends import (
    available_backends,
    backend_stats,
    get_backend,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.perf.backends.numpy64 import (
    NEAR_INTEGER_GUARD,
    ROUND_EPSILON,
    NumpyBackend,
)
from repro.perf.kernels import (
    clear_kernel_caches,
    row_spread_pmf,
    surjection_table,
    tracks_for_net,
)
from repro.units import round_up

ROWS_SET = (1, 2, 3, 4, 5, 8)


def numpy_or_skip():
    pytest.importorskip("numpy")
    return get_backend("numpy")


# ----------------------------------------------------------------------
# selection and availability
# ----------------------------------------------------------------------
class TestSelection:
    def test_exact_always_available(self):
        assert "exact" in available_backends()
        assert resolve_backend_name("exact") == "exact"

    def test_unknown_backend_rejected(self):
        with pytest.raises(EstimationError, match="unknown backend"):
            resolve_backend_name("fortran")

    def test_auto_prefers_numpy_when_importable(self):
        pytest.importorskip("numpy")
        assert resolve_backend_name("auto") == "numpy"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr("repro.perf.backends.numpy64._np", None)
        assert resolve_backend_name("auto") == "exact"

    def test_explicit_numpy_raises_without_numpy(self, monkeypatch):
        monkeypatch.setattr("repro.perf.backends.numpy64._np", None)
        with pytest.raises(BackendUnavailableError, match="perf"):
            resolve_backend_name("numpy")

    def test_unavailable_numpy_refuses_to_evaluate(self, monkeypatch):
        monkeypatch.setattr("repro.perf.backends.numpy64._np", None)
        backend = NumpyBackend()
        assert not backend.available
        with pytest.raises(BackendUnavailableError):
            backend.tracks_for_histogram(((3, 1),), 2, "paper")

    def test_use_backend_restores_default(self):
        before = backends_mod.current_backend_name()
        with use_backend("exact"):
            assert backends_mod.current_backend_name() == "exact"
        assert backends_mod.current_backend_name() == before

    def test_set_default_backend_returns_previous(self):
        previous = set_default_backend("exact")
        try:
            assert backends_mod.current_backend_name() == "exact"
        finally:
            set_default_backend(previous)

    def test_environment_variable_consulted(self, monkeypatch):
        monkeypatch.setenv(backends_mod.BACKEND_ENV_VAR, "exact")
        assert backends_mod.backend_from_environment() == "exact"
        monkeypatch.setenv(backends_mod.BACKEND_ENV_VAR, "  ")
        assert backends_mod.backend_from_environment() is None

    def test_backend_stats_shape(self):
        stats = backend_stats()
        assert stats["default"] in ("exact", "numpy")
        assert "exact" in stats["available"]
        assert "exact" in stats["backends"]

    def test_guard_band_matches_round_up_epsilon(self):
        # repro.units.round_up snaps within 1e-9 of an integer; the
        # guard window must straddle exactly that discontinuity.
        assert ROUND_EPSILON == 1e-9
        assert 0 < NEAR_INTEGER_GUARD < ROUND_EPSILON

    def test_exact_paths_never_import_numpy(self):
        """NumPy loads on the numpy backend's first evaluation only: the
        CLI import, an exact floorplan race and a served estimate plus
        ``/metrics`` leave it out of ``sys.modules``."""
        script = textwrap.dedent("""
            import json, sys, urllib.request
            loaded = {}
            import repro.cli
            loaded["import repro.cli"] = "numpy" in sys.modules
            from repro.floorplan.portfolio import (
                PortfolioConfig, run_portfolio,
            )
            from repro.technology.libraries import cmos_process
            from repro.workloads.designs import generate_design
            run_portfolio(generate_design(6, seed=3), cmos_process(),
                          PortfolioConfig(steps=20, spot_checks=1,
                                          routability_weight=0.5))
            loaded["run_portfolio"] = "numpy" in sys.modules
            from repro.netlist.writers import write_verilog
            from repro.service.server import start_server
            from repro.workloads.generators import counter_module
            server = start_server()

            def call(method, path, payload=None):
                data = None if payload is None else json.dumps(
                    payload).encode()
                req = urllib.request.Request(
                    server.base_url + path, data=data, method=method)
                with urllib.request.urlopen(req, timeout=30) as reply:
                    return json.loads(reply.read())

            try:
                sid = call("POST", "/sessions", {"source": write_verilog(
                    counter_module("lazy", bits=4))})["session"]
                call("POST", f"/sessions/{sid}/estimate", {"rows": 3})
                call("GET", "/metrics")
            finally:
                server.stop()
            loaded["serve"] = "numpy" in sys.modules
            print(json.dumps(loaded))
        """)
        env = dict(os.environ)
        env.pop(backends_mod.BACKEND_ENV_VAR, None)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert loaded == {"import repro.cli": False, "run_portfolio": False,
                          "serve": False}


# ----------------------------------------------------------------------
# edge cases of the vectorized kernels
# ----------------------------------------------------------------------
class TestNumpyEdgeCases:
    def test_single_component_nets_carry_zero_tracks(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = ((1, 5), (2, 3))
        for rows in ROWS_SET:
            got = backend.tracks_for_histogram(histogram, rows, "paper")
            assert got == exact.tracks_for_histogram(
                histogram, rows, "paper"
            )
            assert got[0] == 0       # D = 1 never demands a track
            assert got[1] >= (0 if rows == 1 else 1)

    def test_rows_one_collapses_every_net(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = ((2, 1), (7, 2), (40, 1))
        assert backend.tracks_for_histogram(
            histogram, 1, "paper"
        ) == exact.tracks_for_histogram(histogram, 1, "paper")
        assert backend.feedthrough_mean_for_histogram(
            histogram, 1, "general"
        ) == 0.0

    def test_empty_histogram(self):
        backend = numpy_or_skip()
        assert backend.tracks_for_histogram((), 3, "paper") == ()
        assert backend.tracks_for_histogram_rows((), ROWS_SET, "paper") == \
            tuple(() for _ in ROWS_SET)
        assert backend.feedthrough_mean_for_histogram((), 3, "general") == 0.0
        assert backend.feedthrough_means_for_rows((), ROWS_SET, "general") \
            == tuple(0.0 for _ in ROWS_SET)

    def test_invalid_rows_rejected(self):
        backend = numpy_or_skip()
        with pytest.raises(EstimationError, match="rows"):
            backend.tracks_for_histogram(((3, 1),), 0, "paper")

    def test_invalid_mode_and_model_rejected(self):
        backend = numpy_or_skip()
        with pytest.raises(EstimationError, match="mode"):
            backend.tracks_for_histogram(((3, 1),), 2, "sideways")
        with pytest.raises(EstimationError, match="model"):
            backend.feedthrough_mean_for_histogram(((3, 1),), 2, "cubic")

    def test_non_finite_spread_falls_back_to_exact(self, monkeypatch):
        np = pytest.importorskip("numpy")
        backend = NumpyBackend()
        exact = get_backend("exact")
        histogram = ((4, 1), (6, 2))

        def poisoned(self, sizes, row_counts):
            return np.full((len(row_counts), len(sizes)), np.inf)

        monkeypatch.setattr(NumpyBackend, "_spread_grid", poisoned)
        got = backend.tracks_for_histogram(histogram, 3, "paper")
        assert got == exact.tracks_for_histogram(histogram, 3, "paper")
        assert backend.stats()["spread_fallbacks"] == len(histogram)

    def test_non_finite_mean_falls_back_to_exact(self, monkeypatch):
        np = pytest.importorskip("numpy")
        backend = NumpyBackend()
        exact = get_backend("exact")
        histogram = ((4, 1), (6, 2))

        def poisoned(self, size_arr, row_counts):
            return np.full(
                (len(row_counts), size_arr.shape[0]), np.nan
            )

        monkeypatch.setattr(NumpyBackend, "_feedthrough_matrix", poisoned)
        got = backend.feedthrough_mean_for_histogram(histogram, 5, "general")
        assert got == exact.feedthrough_mean_for_histogram(
            histogram, 5, "general"
        )
        assert backend.stats()["feedthrough_fallbacks"] == 1

    def test_mean_inside_guard_window_falls_back(self):
        backend = numpy_or_skip()
        fresh = NumpyBackend()
        # A raw mean sitting exactly on round_up's discontinuity (the
        # only place truncation vs ceil disagree) must not be trusted.
        risky = 2.0 + ROUND_EPSILON
        guarded = fresh._guarded_mean(risky, ((4, 1),), 5, "general")
        assert math.isfinite(guarded)
        assert fresh.stats()["feedthrough_fallbacks"] == 1
        # Far from the window the raw float is returned untouched.
        assert fresh._guarded_mean(2.25, ((4, 1),), 5, "general") == 2.25
        assert fresh.stats()["feedthrough_fallbacks"] == 1
        del backend

    def test_reset_clears_tables_and_counters(self):
        backend = numpy_or_skip()
        backend.tracks_for_histogram(((9, 2),), 4, "paper")
        assert backend.stats()["triangle_depth"] >= 9
        backend.reset()
        stats = backend.stats()
        assert stats["evaluations"] == 0
        assert stats["triangle_depth"] == 0


class TestHighFanoutNets:
    """The exact kernels answer for nets of hundreds of components,
    where the float division of the row-spread weights overflows."""

    #: (D, n) points where ``raw_i / n**min(n, D)`` is beyond a float.
    OVERFLOWING = ((299, 16), (361, 8), (1000, 4), (5000, 16))
    #: (D, n) points where each weight is a float but their sum is not
    #: (the PMF used to come out all zeros).
    INFINITE_SUM = ((272, 16), (236, 33), (232, 54))

    @staticmethod
    def _ratio_pmf(components, rows):
        limit = min(components, rows)
        counts = surjection_table(components, limit)
        raw = [math.comb(rows, i) * counts[i - 1]
               for i in range(1, limit + 1)]
        return tuple(float(Fraction(value, sum(raw))) for value in raw)

    @pytest.mark.parametrize("components, rows", OVERFLOWING)
    def test_exact_tracks_match_numpy(self, components, rows):
        backend = numpy_or_skip()
        assert (tracks_for_net(components, rows),) == (
            backend.tracks_for_histogram(((components, 1),), rows, "paper")
        )

    @pytest.mark.parametrize("components, rows",
                             OVERFLOWING + INFINITE_SUM)
    def test_pmf_is_the_exact_ratio(self, components, rows):
        assert row_spread_pmf(components, rows) == self._ratio_pmf(
            components, rows
        )
        assert tracks_for_net(components, rows) == min(components, rows)

    def test_finite_weights_keep_their_arithmetic(self):
        # Where the weights are floats they stay normalised floats, not
        # exact ratios (which differ in the last bit at D = 41, n = 16):
        # the committed envelopes depend on it.
        components, rows = 41, 16
        counts = surjection_table(components, rows)
        weights = [math.comb(rows, i) * counts[i - 1] / rows ** rows
                   for i in range(1, rows + 1)]
        total = sum(weights)
        assert row_spread_pmf(components, rows) == tuple(
            weight / total for weight in weights
        )


class TestHighFanoutHistograms:
    """The whole-histogram kernels on one high-fanout net beside fifty
    two-component nets: the exact backend answers (the cold call at
    D = 5000 spends its time growing the Stirling triangle), and the
    numpy backend agrees with it exactly."""

    POINTS = [
        (fanout, rows)
        for fanout in (300, 1000, 2000, 5000)
        for rows in (4, 16, 64)
    ]
    CAPACITY = 16

    @staticmethod
    def _answers(backend, fanout, rows):
        histogram = ((2, 50), (fanout, 1))
        return (
            [backend.tracks_for_histogram(histogram, rows, mode)
             for mode in ("paper", "exact")],
            backend.feedthrough_mean_for_histogram(
                histogram, rows, "general"
            ),
            congestion_distribution(
                histogram, rows, TestHighFanoutHistograms.CAPACITY,
                backend=backend.name,
            ).routability,
        )

    @pytest.mark.parametrize("fanout, rows", POINTS)
    def test_exact_kernels_answer(self, fanout, rows):
        tracks, mean, routability = self._answers(
            get_backend("exact"), fanout, rows
        )
        assert tracks == [(2, min(fanout, rows))] * 2
        assert 0.0 < mean <= 51
        assert 0.0 <= routability <= 1.0

    @pytest.mark.parametrize("fanout, rows", POINTS)
    def test_numpy_agrees_exactly(self, fanout, rows):
        assert self._answers(numpy_or_skip(), fanout, rows) == (
            self._answers(get_backend("exact"), fanout, rows)
        )


# ----------------------------------------------------------------------
# equivalence: numpy vs exact
# ----------------------------------------------------------------------
histograms = st.lists(
    st.tuples(st.integers(1, 60), st.integers(1, 6)),
    min_size=1,
    max_size=8,
    unique_by=lambda entry: entry[0],
).map(lambda entries: tuple(sorted(entries)))


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(histogram=histograms, rows=st.integers(1, 12),
           mode=st.sampled_from(("paper", "exact")))
    def test_tracks_bit_identical(self, histogram, rows, mode):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        assert backend.tracks_for_histogram(histogram, rows, mode) == \
            exact.tracks_for_histogram(histogram, rows, mode)

    @settings(max_examples=60, deadline=None)
    @given(histogram=histograms, rows=st.integers(1, 12))
    def test_rounded_means_bit_identical(self, histogram, rows):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        ours = backend.feedthrough_mean_for_histogram(
            histogram, rows, "general"
        )
        reference = exact.feedthrough_mean_for_histogram(
            histogram, rows, "general"
        )
        # The raw floats may differ in the last ulps; the integer the
        # estimator consumes may not.
        assert round_up(ours) == round_up(reference)
        assert abs(ours - reference) <= 1e-9 * max(1.0, abs(reference))

    @settings(max_examples=40, deadline=None)
    @given(histogram=histograms, mode=st.sampled_from(("paper", "exact")))
    def test_row_sweep_matches_per_row_calls(self, histogram, mode):
        backend = numpy_or_skip()
        swept = backend.tracks_for_histogram_rows(histogram, ROWS_SET, mode)
        for rows, row_tracks in zip(ROWS_SET, swept):
            assert row_tracks == backend.tracks_for_histogram(
                histogram, rows, mode
            )

    def test_two_component_model_delegates_to_exact(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = ((2, 4), (3, 2))
        for rows in ROWS_SET:
            assert backend.feedthrough_mean_for_histogram(
                histogram, rows, "two-component"
            ) == exact.feedthrough_mean_for_histogram(
                histogram, rows, "two-component"
            )

    def test_corpus_families_within_envelope(self):
        """Every corpus family's raw float error stays inside the
        committed bounds and the full estimates stay bit-identical —
        the same predicate ``mae verify --check backend_equivalence``
        gates, shrunk to a smoke-sized slice."""
        pytest.importorskip("numpy")
        from repro.technology.libraries import nmos_process
        from repro.verify import (
            check_backend_equivalence,
            draw_corpus,
            family_names,
        )

        clear_kernel_caches()
        process = nmos_process()
        results = [
            check_backend_equivalence(spec.build(), process)
            for spec in draw_corpus(len(family_names()), base_seed=7)
            if spec.methodology == "standard-cell"
        ]
        assert results
        for result in results:
            assert result.passed, result.detail
            assert result.point["bit_identical"]
            assert result.point["within"]

    def test_large_net_sizes_stay_identical(self):
        """Net sizes near the exact kernels' big-int-to-float ceiling —
        the regime the vectorized log-domain tables exist for."""
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = tuple((size, 1) for size in (150, 200, 250, 289))
        for rows in (2, 5, 9):
            assert backend.tracks_for_histogram(
                histogram, rows, "paper"
            ) == exact.tracks_for_histogram(histogram, rows, "paper")


# ----------------------------------------------------------------------
# congestion grid: bit-identity, edge cases, and guard fallback
# ----------------------------------------------------------------------
class TestCongestionGrid:
    """``crossing_probabilities`` is the congestion model's backend
    surface; everything downstream of the grid is shared Python, so
    grid bit-identity is distribution bit-identity."""

    def test_grid_bit_identical_over_corpus(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        from repro.netlist.stats import scan_module
        from repro.technology.libraries import nmos_process
        from repro.verify import draw_corpus, family_names

        process = nmos_process()
        for spec in draw_corpus(len(family_names()), base_seed=3):
            histogram = scan_module(
                spec.build(),
                device_width=process.device_width,
                device_height=process.device_height,
                port_width=process.port_pitch,
            ).net_size_histogram
            for rows in ROWS_SET:
                assert backend.crossing_probabilities(
                    histogram, rows
                ) == exact.crossing_probabilities(histogram, rows)

    def test_distribution_bit_identical_across_backends(self):
        numpy_or_skip()
        from repro.congestion.model import congestion_distribution

        histogram = ((2, 5), (3, 3), (7, 2), (12, 1))
        for rows in (1, 2, 4, 8):
            assert congestion_distribution(
                histogram, rows, 6, backend="numpy"
            ) == congestion_distribution(
                histogram, rows, 6, backend="exact"
            )

    def test_single_component_nets_are_zero_rows(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = ((1, 9), (2, 1))
        for engine in (backend, exact):
            grid = engine.crossing_probabilities(histogram, 3)
            assert all(grid[channel][0] == 0.0 for channel in range(4))
        assert backend.crossing_probabilities(
            histogram, 3
        ) == exact.crossing_probabilities(histogram, 3)

    def test_single_row_certain_crossing(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = ((4, 2),)
        for engine in (backend, exact):
            grid = engine.crossing_probabilities(histogram, 1)
            assert grid[0][0] == 0.0
            assert grid[1][0] == 1.0
        assert backend.crossing_probabilities(
            histogram, 1
        ) == exact.crossing_probabilities(histogram, 1)

    def test_empty_histogram_grid(self):
        backend = numpy_or_skip()
        exact = get_backend("exact")
        assert backend.crossing_probabilities((), 4) == \
            exact.crossing_probabilities((), 4)
        assert backend.crossing_probabilities((), 4) == tuple(
            () for _ in range(5)
        )

    def test_grid_mirror_symmetry(self):
        """Both backends order the power subtraction so the float grid
        is bitwise symmetric under k <-> rows - k (interior channels) —
        the identity ``congestion_distribution`` exploits to halve its
        per-channel work."""
        backend = numpy_or_skip()
        exact = get_backend("exact")
        histogram = ((3, 1), (5, 1), (11, 1))
        for engine in (backend, exact):
            for rows in (2, 3, 6, 9):
                grid = engine.crossing_probabilities(histogram, rows)
                for channel in range(1, rows):
                    assert grid[channel] == grid[rows - channel]

    def test_non_finite_grid_falls_back_to_exact(self, monkeypatch):
        np = pytest.importorskip("numpy")
        backend = NumpyBackend()
        exact = get_backend("exact")
        histogram = ((4, 1), (6, 2))

        def poisoned(self, sizes, rows):
            return np.full((rows + 1, len(sizes)), np.nan)

        monkeypatch.setattr(NumpyBackend, "_crossing_grid", poisoned)
        got = backend.crossing_probabilities(histogram, 3)
        assert got == exact.crossing_probabilities(histogram, 3)
        assert backend.stats()["congestion_fallbacks"] == \
            len(histogram) * 4
