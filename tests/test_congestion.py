"""Property suite for the per-channel congestion model.

Three families of invariants, each tied to a structural claim the
module's docstrings make:

* **conservation** — the per-channel demand means redistribute the
  module's Eq. 2-3 track total; in exact rational arithmetic the sum
  telescopes back *exactly* (``repro.congestion.reference``), and the
  float path stays within accumulation distance of the Fractions;
* **probability shape** — exceedance lives in [0, 1], is monotone in
  demand (adding nets never helps) and antitone in capacity (more
  tracks never hurt), and every exact crossing probability is a true
  probability without clamping;
* **representation independence** — net names never enter the model:
  relabeling every signal net leaves the distribution bit-identical.

The Hypothesis cases draw from the verify corpus itself, so every one
of the repository's module families (standard-cell and full-custom
generators alike) feeds the properties.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congestion.model import (
    CAPACITY_SOURCES,
    DEFAULT_CHANNEL_CAPACITY,
    congestion_distribution,
    congestion_report,
    resolve_channel_capacity,
    routability_score,
)
from repro.congestion.reference import (
    exact_channel_weights,
    exact_crossing_probability,
    exact_demand_means,
    exact_total_tracks,
)
from repro.core.config import EstimatorConfig
from repro.errors import EstimationError
from repro.netlist.model import Device, Module, Port
from repro.netlist.stats import DEFAULT_POWER_NETS, scan_module
from repro.perf.plan import clear_plan_cache, get_plan
from repro.technology.libraries import nmos_process
from repro.verify.corpus import draw_corpus, family_names

PROCESS = nmos_process()

CORPUS = settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One spec per corpus family at a Hypothesis-chosen base seed: every
#: case family exercises every property.
corpus_specs = st.builds(
    lambda base_seed: draw_corpus(len(family_names()), base_seed=base_seed),
    base_seed=st.integers(min_value=0, max_value=5_000),
)


def histogram_of(module):
    stats = scan_module(
        module,
        device_width=PROCESS.device_width,
        device_height=PROCESS.device_height,
        port_width=PROCESS.port_pitch,
    )
    return stats.net_size_histogram


# ----------------------------------------------------------------------
# conservation: per-channel means sum to the Eq. 2-3 total
# ----------------------------------------------------------------------
class TestConservation:
    @CORPUS
    @given(specs=corpus_specs, rows=st.integers(min_value=1, max_value=7))
    def test_exact_means_telescope_to_total(self, specs, rows):
        """The reference arithmetic conserves demand *exactly*: the
        congestion model only redistributes the estimator's own track
        count, it never invents or loses any."""
        for spec in specs:
            histogram = histogram_of(spec.build())
            means = exact_demand_means(histogram, rows)
            assert sum(means) == exact_total_tracks(histogram, rows)
            assert means[0] == 0

    @CORPUS
    @given(specs=corpus_specs, rows=st.integers(min_value=1, max_value=7))
    def test_float_total_tracks_exact_reference(self, specs, rows):
        for spec in specs:
            histogram = histogram_of(spec.build())
            distribution = congestion_distribution(
                histogram, rows, capacity=16, backend="exact"
            )
            reference = float(sum(exact_demand_means(histogram, rows)))
            assert distribution.total_demand == pytest.approx(
                reference, rel=1e-12, abs=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(
        components=st.integers(min_value=2, max_value=12),
        rows=st.integers(min_value=1, max_value=9),
    )
    def test_exact_channel_weights_sum_to_one(self, components, rows):
        weights = exact_channel_weights(components, rows)
        assert sum(weights) == 1
        assert weights[0] == 0
        assert all(w >= 0 for w in weights)

    @settings(max_examples=60, deadline=None)
    @given(
        components=st.integers(min_value=1, max_value=14),
        rows=st.integers(min_value=1, max_value=9),
    )
    def test_exact_crossing_probability_is_probability(
        self, components, rows
    ):
        """No clamp needed: the closed form is a disjoint-union
        probability, so it is in [0, 1] by construction."""
        for channel in range(rows + 1):
            p = exact_crossing_probability(components, rows, channel)
            assert 0 <= p <= 1
            # Mirror symmetry holds exactly in rationals.
            if 1 <= channel <= rows - 1:
                assert p == exact_crossing_probability(
                    components, rows, rows - channel
                )


# ----------------------------------------------------------------------
# probability shape: exceedance bounds and monotonicity
# ----------------------------------------------------------------------
class TestExceedance:
    @CORPUS
    @given(
        specs=corpus_specs,
        rows=st.integers(min_value=1, max_value=6),
        capacity=st.integers(min_value=1, max_value=24),
    )
    def test_exceedance_in_unit_interval(self, specs, rows, capacity):
        for spec in specs:
            distribution = congestion_distribution(
                histogram_of(spec.build()), rows, capacity
            )
            for exceedance in distribution.exceedances:
                assert 0.0 <= exceedance <= 1.0
            assert 0.0 <= distribution.routability <= 1.0
            assert distribution.exceedances[0] == 0.0

    @CORPUS
    @given(
        specs=corpus_specs,
        rows=st.integers(min_value=1, max_value=5),
        capacity=st.integers(min_value=1, max_value=12),
    )
    def test_exceedance_monotone_in_demand(self, specs, rows, capacity):
        """Adding nets never lowers any channel's overflow risk (and
        never raises routability)."""
        for spec in specs:
            histogram = list(histogram_of(spec.build()))
            base = congestion_distribution(histogram, rows, capacity)
            grown = congestion_distribution(
                histogram + [(3, 2)], rows, capacity
            )
            for channel in range(rows + 1):
                assert (
                    grown.exceedances[channel]
                    >= base.exceedances[channel] - 1e-12
                )
            assert grown.routability <= base.routability + 1e-12

    @CORPUS
    @given(
        specs=corpus_specs,
        rows=st.integers(min_value=1, max_value=5),
        capacity=st.integers(min_value=1, max_value=12),
    )
    def test_exceedance_antitone_in_capacity(self, specs, rows, capacity):
        for spec in specs:
            histogram = histogram_of(spec.build())
            tight = congestion_distribution(histogram, rows, capacity)
            loose = congestion_distribution(histogram, rows, capacity + 1)
            for channel in range(rows + 1):
                assert (
                    loose.exceedances[channel]
                    <= tight.exceedances[channel] + 1e-12
                )

    def test_capacity_at_least_net_count_never_overflows(self):
        # 4 multi-terminal nets can occupy at most 4 tracks anywhere.
        histogram = ((3, 2), (5, 2))
        distribution = congestion_distribution(histogram, 4, capacity=4)
        assert distribution.exceedances == (0.0,) * 5
        assert distribution.routability == 1.0

    def test_mirror_channels_share_values_bitwise(self):
        """The kernels order their subtraction so the float grid is
        symmetric under k <-> rows - k; the distribution inherits it."""
        histogram = ((3, 4), (6, 2), (9, 1))
        for rows in (2, 3, 5, 8):
            d = congestion_distribution(histogram, rows, capacity=6)
            for channel in range(1, rows):
                mirror = rows - channel
                assert d.crossing_means[channel] == d.crossing_means[mirror]
                assert d.demand_means[channel] == d.demand_means[mirror]
                assert d.exceedances[channel] == d.exceedances[mirror]


# ----------------------------------------------------------------------
# representation independence: net names never enter the model
# ----------------------------------------------------------------------
def relabel_nets(module: Module) -> Module:
    """Rebuild ``module`` with every signal net renamed.

    Power nets keep their names (the scanner excludes them by name),
    everything else is prefixed — a pure renaming, so the scan must
    produce the same histogram and the congestion model the same
    distribution, bitwise.
    """

    def rename(net: str) -> str:
        if net in DEFAULT_POWER_NETS:
            return net
        return f"relabel__{net}"

    clone = Module(module.name)
    for port in module.ports:
        clone.add_port(
            Port(port.name, port.direction, rename(port.net),
                 port.width_lambda)
        )
    for device in module.devices:
        clone.add_device(
            Device(
                name=device.name,
                cell=device.cell,
                pins={pin: rename(net) for pin, net in device.pins.items()},
                width_lambda=device.width_lambda,
                height_lambda=device.height_lambda,
            )
        )
    return clone


class TestRelabelInvariance:
    @CORPUS
    @given(specs=corpus_specs, rows=st.integers(min_value=1, max_value=5))
    def test_distribution_invariant_under_net_relabeling(
        self, specs, rows
    ):
        for spec in specs:
            module = spec.build()
            original = congestion_distribution(
                histogram_of(module), rows, capacity=10
            )
            relabeled = congestion_distribution(
                histogram_of(relabel_nets(module)), rows, capacity=10
            )
            assert original == relabeled


# ----------------------------------------------------------------------
# capacity fallback chain and module-level APIs
# ----------------------------------------------------------------------
class TestCapacityResolution:
    def test_override_beats_everything(self):
        capacity, source = resolve_channel_capacity(PROCESS, override=7)
        assert (capacity, source) == (7, "override")
        assert source in CAPACITY_SOURCES

    def test_process_capacity_used_when_stated(self):
        assert PROCESS.channel_capacity is not None
        capacity, source = resolve_channel_capacity(PROCESS)
        assert capacity == PROCESS.channel_capacity
        assert source == "process"

    def test_default_when_process_is_silent(self):
        import dataclasses

        silent = dataclasses.replace(PROCESS, channel_capacity=None)
        capacity, source = resolve_channel_capacity(silent)
        assert (capacity, source) == (DEFAULT_CHANNEL_CAPACITY, "default")
        capacity, source = resolve_channel_capacity(None)
        assert (capacity, source) == (DEFAULT_CHANNEL_CAPACITY, "default")

    def test_bad_override_rejected(self):
        with pytest.raises(EstimationError, match="capacity"):
            resolve_channel_capacity(PROCESS, override=0)

    def test_report_carries_source_and_capacity(self):
        module = draw_corpus(1, base_seed=2)[0].build()
        report = congestion_report(module, PROCESS, rows=3)
        assert report.capacity == PROCESS.channel_capacity
        assert report.capacity_source == "process"
        overridden = congestion_report(module, PROCESS, rows=3, capacity=9)
        assert overridden.capacity == 9
        assert overridden.capacity_source == "override"

    def test_routability_score_matches_report(self):
        module = draw_corpus(1, base_seed=5)[0].build()
        score = routability_score(module, 3, PROCESS)
        assert score == congestion_report(module, PROCESS, rows=3).routability

    def test_bad_rows_rejected(self):
        with pytest.raises(EstimationError, match="rows"):
            congestion_distribution(((3, 1),), 0, 4)
        with pytest.raises(EstimationError, match="capacity"):
            congestion_distribution(((3, 1),), 2, 0)


# ----------------------------------------------------------------------
# plan-cache integration
# ----------------------------------------------------------------------
class TestPlanCongestion:
    def test_plan_memoizes_per_rows_and_capacity(self):
        clear_plan_cache()
        module = draw_corpus(1, base_seed=11)[0].build()
        stats = scan_module(
            module,
            device_width=PROCESS.device_width,
            device_height=PROCESS.device_height,
            port_width=PROCESS.port_pitch,
        )
        plan = get_plan(stats, PROCESS, EstimatorConfig())
        first = plan.evaluate_congestion(3)
        assert plan.evaluate_congestion(3) is first
        at_five = plan.evaluate_congestion(3, capacity=5)
        assert at_five is not first
        assert plan.evaluate_congestion(3, capacity=5) is at_five
        assert plan.evaluate_congestion(4) is not first
        with pytest.raises(EstimationError, match="capacity"):
            plan.evaluate_congestion(3, capacity=0)

    def test_plan_matches_direct_distribution(self):
        clear_plan_cache()
        module = draw_corpus(1, base_seed=13)[0].build()
        stats = scan_module(
            module,
            device_width=PROCESS.device_width,
            device_height=PROCESS.device_height,
            port_width=PROCESS.port_pitch,
        )
        plan = get_plan(stats, PROCESS, EstimatorConfig())
        via_plan = plan.evaluate_congestion(3)
        direct = congestion_distribution(
            stats.net_size_histogram,
            3,
            resolve_channel_capacity(PROCESS)[0],
            backend=plan.backend_name,
        )
        assert via_plan == direct

    def test_plan_rejects_bad_rows(self):
        clear_plan_cache()
        module = draw_corpus(1, base_seed=17)[0].build()
        stats = scan_module(
            module,
            device_width=PROCESS.device_width,
            device_height=PROCESS.device_height,
            port_width=PROCESS.port_pitch,
        )
        plan = get_plan(stats, PROCESS, EstimatorConfig())
        with pytest.raises(EstimationError, match="row count"):
            plan.evaluate_congestion(0)


# ----------------------------------------------------------------------
# reference sanity on hand-checkable cases
# ----------------------------------------------------------------------
class TestSmallCases:
    def test_two_rows_two_component_net(self):
        # D=2, n=2: P(k=1) = 1 - (1/2)^2 - (1/2)^2 + (1/2)^2 = 3/4.
        assert exact_crossing_probability(2, 2, 1) == Fraction(3, 4)
        # Channel 2 (top edge): 1 - 1 - 0 + 1/4 = 1/4.
        assert exact_crossing_probability(2, 2, 2) == Fraction(1, 4)

    def test_single_row_every_net_crosses_channel_one(self):
        # n=1: every multi-terminal net lands in the one channel.
        for components in range(2, 8):
            assert exact_crossing_probability(components, 1, 1) == 1

    def test_single_component_nets_never_route(self):
        assert exact_crossing_probability(1, 4, 2) == 0
        distribution = congestion_distribution(((1, 50),), 4, 8)
        assert distribution.total_demand == 0.0
        assert distribution.routability == 1.0

    def test_empty_histogram(self):
        distribution = congestion_distribution((), 3, 4)
        assert distribution.total_demand == 0.0
        assert distribution.exceedances == (0.0,) * 4
        assert distribution.routability == 1.0
