"""Compiled estimation plans: bit-identical to the direct estimator.

The contract under test is exact equality — ``EstimationPlan.evaluate``
must reproduce :func:`estimate_standard_cell_from_stats` **field for
field**, for any histogram, any row count, and every combination of
row-spread mode and feed-through model.  A Hypothesis sweep over random
net-size histograms enforces it, and the shared Stirling triangle is
checked against the independent ``surjection_count_recurrence`` oracle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig
from repro.core.probability import surjection_count, surjection_count_recurrence
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import EstimationError
from repro.netlist.stats import ModuleStatistics
from repro.obs.trace import Tracer, use_tracer
from repro.perf.backends import get_backend
from repro.perf.kernels import (
    caches_disabled,
    clear_kernel_caches,
    surjection_triangle_stats,
)
from repro.perf.plan import (
    clear_plan_cache,
    compile_plan,
    get_plan,
    plan_cache_stats,
)
from repro.technology.libraries import nmos_process


def stats_from_histogram(histogram, devices=64, ports=6):
    """A synthetic ModuleStatistics around a given (D, y_D) histogram."""
    net_count = sum(y for _, y in histogram)
    return ModuleStatistics(
        module_name="hypo",
        device_count=devices,
        net_count=net_count,
        port_count=ports,
        width_histogram=((7.0, devices),),
        net_size_histogram=tuple(histogram),
        average_width=7.0,
        average_height=18.0,
        total_device_area=7.0 * 18.0 * devices,
        total_port_width=8.0 * ports,
        max_net_size=max((d for d, _ in histogram), default=0),
    )


histograms = st.dictionaries(
    keys=st.integers(min_value=1, max_value=25),
    values=st.integers(min_value=1, max_value=5),
    min_size=1,
    max_size=8,
).map(lambda d: tuple(sorted(d.items())))


class TestPlanBitIdentity:
    @settings(max_examples=120, deadline=None)
    @given(
        histogram=histograms,
        rows=st.integers(min_value=1, max_value=64),
        spread_mode=st.sampled_from(("paper", "exact")),
        feedthrough_model=st.sampled_from(("two-component", "general")),
    )
    def test_plan_matches_direct_estimator(
        self, histogram, rows, spread_mode, feedthrough_model
    ):
        process = nmos_process()
        stats = stats_from_histogram(histogram)
        config = EstimatorConfig(
            row_spread_mode=spread_mode,
            feedthrough_model=feedthrough_model,
        )
        direct = estimate_standard_cell_from_stats(
            stats, process, config.with_rows(rows)
        )
        planned = compile_plan(stats, process, config).evaluate(rows)
        assert planned == direct  # dataclass equality: every field

    @settings(max_examples=30, deadline=None)
    @given(histogram=histograms)
    def test_plan_matches_with_chosen_rows(self, histogram):
        """rows=None runs the Section 5 algorithm on both paths."""
        process = nmos_process()
        stats = stats_from_histogram(histogram)
        direct = estimate_standard_cell_from_stats(stats, process)
        planned = compile_plan(
            stats, process, EstimatorConfig()
        ).evaluate(None)
        assert planned == direct

    def test_shared_track_model_matches(self, nmos):
        histogram = ((2, 5), (3, 4), (6, 2), (11, 1))
        stats = stats_from_histogram(histogram)
        config = EstimatorConfig(track_model="shared")
        for rows in (1, 2, 3, 5, 9):
            direct = estimate_standard_cell_from_stats(
                stats, nmos, config.with_rows(rows)
            )
            planned = compile_plan(stats, nmos, config).evaluate(rows)
            assert planned == direct


class TestSharedTriangle:
    @settings(max_examples=60, deadline=None)
    @given(
        components=st.integers(min_value=1, max_value=40),
        rows=st.integers(min_value=1, max_value=40),
    )
    def test_triangle_matches_recurrence_oracle(self, components, rows):
        assert surjection_count(components, rows) == (
            surjection_count_recurrence(components, rows)
        )

    def test_triangle_grows_monotonically(self):
        clear_kernel_caches()
        before = surjection_triangle_stats()
        assert before["cells"] == 0
        surjection_count(5, 3)
        mid = surjection_triangle_stats()
        assert mid["depth"] >= 5 and mid["limit"] >= 3
        # A smaller query re-reads the triangle without extending it.
        extensions = mid["extensions"]
        surjection_count(4, 2)
        after = surjection_triangle_stats()
        assert after["extensions"] == extensions
        assert after["cells"] == mid["cells"]


class TestPlanValidationAndCache:
    def test_compile_rejects_empty_module(self, nmos):
        stats = stats_from_histogram(((2, 1),), devices=0)
        with pytest.raises(EstimationError, match="empty module"):
            compile_plan(stats, nmos, EstimatorConfig())

    def test_evaluate_rejects_bad_rows(self, nmos):
        plan = compile_plan(
            stats_from_histogram(((2, 3),)), nmos, EstimatorConfig()
        )
        with pytest.raises(EstimationError, match="row count"):
            plan.evaluate(0)

    def test_get_plan_caches_per_config_family(self, nmos):
        clear_plan_cache()
        stats = stats_from_histogram(((2, 3), (4, 1)))
        first = get_plan(stats, nmos, EstimatorConfig(rows=2))
        # Same family: only the row count differs, which is not plan
        # state, so the compiled plan is reused.
        second = get_plan(stats, nmos, EstimatorConfig(rows=7))
        assert second is first
        other = get_plan(
            stats, nmos, EstimatorConfig(row_spread_mode="exact")
        )
        assert other is not first
        counters = plan_cache_stats()
        assert counters["compilations"] == 2
        assert counters["hits"] == 1
        assert counters["entries"] == 2
        clear_plan_cache()
        assert plan_cache_stats()["entries"] == 0

    def test_plans_are_picklable(self, nmos):
        plan = compile_plan(
            stats_from_histogram(((2, 3), (5, 2))), nmos, EstimatorConfig()
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.evaluate(4) == plan.evaluate(4)


class TestEstimateMemo:
    """A plan serves a repeated row count from its memo; the memo is off
    under caches_disabled() and while the tracer collects, and
    clear_plan_cache() forgets it."""

    HISTOGRAM = ((2, 3), (4, 2), (7, 1))

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Row counts the exact backend's track kernel is asked for."""
        calls = []
        backend = get_backend("exact")
        original = backend.tracks_for_histogram

        def counting(histogram, rows, mode):
            calls.append(rows)
            return original(histogram, rows, mode)

        monkeypatch.setattr(backend, "tracks_for_histogram", counting)
        return calls

    def _plan(self, nmos, backend="exact", **config):
        return compile_plan(
            stats_from_histogram(self.HISTOGRAM), nmos,
            EstimatorConfig(**config), backend=backend,
        )

    def test_repeat_is_served_without_the_backend(self, nmos,
                                                  kernel_calls):
        plan = self._plan(nmos)
        at_four = plan.evaluate(4)
        initial = plan.evaluate()
        assert len(kernel_calls) == 2
        assert plan.evaluate(4) is at_four
        assert plan.evaluate() is initial
        assert plan.evaluate_rows([4, initial.rows]) == (at_four, initial)
        assert len(kernel_calls) == 3  # only initial.rows was new

    def _warm(self, nmos, kernel_calls):
        """A plan that has evaluated 4 rows once, and served a repeat
        from its memo."""
        plan = self._plan(nmos)
        first = plan.evaluate(4)
        assert plan.evaluate(4) is first
        assert len(kernel_calls) == 1
        return plan, first

    def test_caches_disabled_recomputes(self, nmos, kernel_calls):
        plan, first = self._warm(nmos, kernel_calls)
        with caches_disabled():
            again = plan.evaluate(4)
        assert len(kernel_calls) == 2
        assert again == first and again is not first

    def test_tracer_recomputes_with_the_first_counters(self, nmos,
                                                      kernel_calls):
        cold_tracer = Tracer()
        with use_tracer(cold_tracer):
            self._plan(nmos).evaluate(4)
        del kernel_calls[:]
        plan, _ = self._warm(nmos, kernel_calls)
        tracer = Tracer()
        with use_tracer(tracer):
            plan.evaluate(4)
        assert len(kernel_calls) == 2
        assert tracer.metrics.counters() == cold_tracer.metrics.counters()
        assert [r["name"] for r in tracer.records()] == [
            r["name"] for r in cold_tracer.records()
        ]

    def test_clear_plan_cache_forgets_every_memo(self, nmos, kernel_calls):
        plan, _ = self._warm(nmos, kernel_calls)  # compiled, never cached
        clear_plan_cache()
        plan.evaluate(4)
        assert len(kernel_calls) == 2

    def test_numpy_rows_evaluate_only_what_is_missing(self, nmos,
                                                      monkeypatch):
        pytest.importorskip("numpy")
        backend = get_backend("numpy")
        batches = []
        original = backend.tracks_for_histogram_rows

        def recording(histogram, row_counts, mode):
            batches.append(tuple(row_counts))
            return original(histogram, row_counts, mode)

        monkeypatch.setattr(backend, "tracks_for_histogram_rows", recording)
        plan = self._plan(nmos, backend="numpy",
                          feedthrough_model="general")
        plan.evaluate_rows([3, 4])
        served = plan.evaluate_rows([2, 3, 4, 5, 5])
        assert batches == [(3, 4), (2, 5)]
        with caches_disabled():
            fresh = self._plan(nmos, backend="numpy",
                               feedthrough_model="general")
            assert served == fresh.evaluate_rows([2, 3, 4, 5, 5])


class TestPriceMemo:
    """A plan keeps the floorplan race's prices under the estimate
    memo's rule: off under caches_disabled() and while the tracer
    collects, forgotten by clear_plan_cache(), and allocated only when
    something is priced."""

    KEY = (4, 9, 0.8)
    PRICE = ((1.0, 2.0, 1.1), "estimate")

    @pytest.fixture
    def plan(self, nmos):
        clear_plan_cache()
        return compile_plan(
            stats_from_histogram(((2, 3), (4, 2))), nmos, EstimatorConfig()
        )

    def test_memoizes_and_counts_hits(self, plan):
        assert plan.memoized_price(self.KEY) is None
        plan.memoize_price(self.KEY, self.PRICE)
        assert plan.memoized_price(self.KEY) is self.PRICE
        assert plan.memoized_price(self.KEY) is self.PRICE
        assert plan.memoized_price((4, 9, 0.0)) is None
        assert plan_cache_stats()["price_memo_hits"] == 2

    def test_unpriced_plan_carries_no_dict(self, plan):
        plan.evaluate(4)
        assert plan.memoized_price(self.KEY) is None
        assert plan._prices is None

    def test_caches_disabled_and_tracer_turn_it_off(self, plan):
        with caches_disabled():
            plan.memoize_price(self.KEY, self.PRICE)
        assert plan.memoized_price(self.KEY) is None
        plan.memoize_price(self.KEY, self.PRICE)
        with caches_disabled():
            assert plan.memoized_price(self.KEY) is None
        with use_tracer(Tracer()):
            assert plan.memoized_price(self.KEY) is None
        assert plan.memoized_price(self.KEY) is self.PRICE
        assert plan_cache_stats()["price_memo_hits"] == 1

    def test_clear_plan_cache_forgets_prices_and_counters(self, plan):
        plan.memoize_price(self.KEY, self.PRICE)
        assert plan.memoized_price(self.KEY) is self.PRICE
        clear_plan_cache()
        assert plan_cache_stats()["price_memo_hits"] == 0
        assert plan.memoized_price(self.KEY) is None

    def test_estimate_memo_hits_are_counted(self, plan):
        plan.evaluate(4)
        plan.evaluate(4)
        plan.evaluate_rows([4, 5, 5])
        assert plan_cache_stats()["estimate_memo_hits"] == 3

    def test_batched_estimate_memo_hits_are_counted(self, nmos):
        pytest.importorskip("numpy")
        clear_plan_cache()
        plan = compile_plan(
            stats_from_histogram(((2, 3), (4, 2))), nmos,
            EstimatorConfig(), backend="numpy",
        )
        plan.evaluate_rows([3, 4])
        plan.evaluate_rows([2, 3, 4, 4])
        assert plan_cache_stats()["estimate_memo_hits"] == 3


class TestPlanTracing:
    def test_traced_evaluate_matches_direct_counters(self, nmos):
        stats = stats_from_histogram(((2, 4), (5, 2)))
        config = EstimatorConfig(rows=4)

        direct_tracer = Tracer()
        with use_tracer(direct_tracer):
            estimate_standard_cell_from_stats(stats, nmos, config)

        plan = compile_plan(stats, nmos, config)
        plan_tracer = Tracer()
        with use_tracer(plan_tracer):
            plan.evaluate(4)

        assert (
            plan_tracer.metrics.counters()
            == direct_tracer.metrics.counters()
        )

    def test_low_row_feedthrough_span_reports_payload(self, nmos):
        """rows < 3: the direct path's feed-through span still carries
        its mean/feedthroughs payload (regression: the early return
        used to skip it)."""
        stats = stats_from_histogram(((2, 4), (5, 2)))
        tracer = Tracer()
        with use_tracer(tracer):
            estimate_standard_cell_from_stats(
                stats, nmos, EstimatorConfig(rows=2)
            )
        spans = [
            r for r in tracer.records() if r["name"] == "sc.feedthroughs"
        ]
        assert len(spans) == 1
        assert spans[0]["payload"]["mean"] == 0.0
        assert spans[0]["payload"]["feedthroughs"] == 0
