"""Compiled estimation plans: the one Eq. 12 assembly.

The contract under test is that ``EstimationPlan.evaluate`` agrees with
the per-net Eq. 2-11 derivation of
:func:`repro.obs.explain.explain_standard_cell` — tracks and
feed-throughs exactly, the Eq. 12 area to float tolerance — for any
histogram, any row count, and every combination of row-spread mode,
feed-through model and track model.  A Hypothesis sweep over modules
built from random net-size histograms enforces it, and the shared
Stirling triangle is checked against the independent
``surjection_count_recurrence`` oracle.
"""

from __future__ import annotations

import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig
from repro.core.probability import surjection_count, surjection_count_recurrence
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import EstimationError
from repro.floorplan.portfolio import PortfolioConfig, run_portfolio
from repro.incremental import IncrementalEstimator
from repro.incremental.editgen import generate_edit_sequence
from repro.netlist.model import Device, Module, Port, PortDirection
from repro.netlist.stats import ModuleStatistics
from repro.obs.explain import explain_standard_cell
from repro.obs.trace import Tracer, use_tracer
from repro.perf.backends import get_backend
from repro.perf.batch import estimate_batch
from repro.perf.kernels import (
    caches_disabled,
    clear_kernel_caches,
    surjection_triangle_stats,
)
from repro.perf.plan import (
    EstimationPlan,
    clear_plan_cache,
    compile_plan,
    plan_cache_stats,
)
from repro.technology.libraries import cmos_process, nmos_process
from repro.workloads.designs import generate_design
from repro.workloads.generators import random_gate_module


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


def module_from_histogram(histogram, devices=64, ports=6):
    """A module whose signal nets form ``histogram``: for each (D, y_D),
    y_D nets that each wire D distinct 7 x 18 lambda devices, plus
    ``ports`` port-only nets."""
    pins = {f"d{index}": {} for index in range(devices)}
    cursor = 0
    for size, count in histogram:
        for _ in range(count):
            net = f"n{cursor}_{size}"
            for offset in range(size):
                pins[f"d{(cursor + offset) % devices}"][f"p_{net}"] = net
            cursor += size
    module = Module("hypo")
    for name, device_pins in pins.items():
        module.add_device(Device(name, "CELL", device_pins,
                                 width_lambda=7.0, height_lambda=18.0))
    for index in range(ports):
        module.add_port(Port(f"io{index}", PortDirection.INPUT))
    return module


def explained(histogram, process, config):
    """The per-net derivation over a module built from ``histogram``
    (it raises unless the terms re-assemble into the plan's estimate),
    checked to have scanned back to ``histogram``, and the estimates of
    two ``estimate_batch`` calls over the same module: the second is
    served by the plan held beside the module's scan."""
    module = module_from_histogram(histogram)
    explanation = explain_standard_cell(module, process, config)
    assert explanation.stats.net_size_histogram == histogram
    held = [
        estimate_batch([module], process, config)[0].estimate
        for _ in range(2)
    ]
    return explanation, held


histograms = st.dictionaries(
    keys=st.integers(min_value=1, max_value=25),
    values=st.integers(min_value=1, max_value=5),
    min_size=1,
    max_size=8,
).map(lambda d: tuple(sorted(d.items())))


class TestPlanBitIdentity:
    """The plan against the per-net derivation: ``explain_standard_cell``
    raises when the per-net tracks, feed-throughs or Eq. 12 area do not
    re-assemble into the estimate a fresh plan produced, and the plan
    ``estimate_batch`` holds must serve that estimate field for field."""

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
        config = EstimatorConfig(
            row_spread_mode=spread_mode,
            feedthrough_model=feedthrough_model,
        )
        explanation, held = explained(
            histogram, process, config.with_rows(rows)
        )
        assert held == [explanation.estimate] * 2  # every field

    @settings(max_examples=30, deadline=None)
    @given(histogram=histograms)
    def test_plan_matches_with_chosen_rows(self, histogram):
        """rows=None runs the Section 5 algorithm first."""
        process = nmos_process()
        explanation, held = explained(histogram, process, EstimatorConfig())
        assert held == [explanation.estimate] * 2

    def test_shared_track_model_matches(self, nmos):
        histogram = ((2, 5), (3, 4), (6, 2), (11, 1))
        config = EstimatorConfig(track_model="shared")
        for rows in (1, 2, 3, 5, 9):
            explanation, held = explained(
                histogram, nmos, config.with_rows(rows)
            )
            assert held == [explanation.estimate] * 2


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

    def test_held_plans_are_kept_per_config_family(self, nmos):
        clear_plan_cache()
        module = module_from_histogram(((2, 3), (4, 1)))

        def plans(*configs):
            return [
                result.plan
                for result in estimate_batch([module], nmos, list(configs))
            ]

        first, again = plans(EstimatorConfig(rows=2), EstimatorConfig())
        # Same family: only the row count differs, which is not plan
        # state, so the held plan serves every row count, call after
        # call.
        assert again is first
        assert plans(EstimatorConfig(rows=7)) == [first]
        (other,) = plans(EstimatorConfig(row_spread_mode="exact"))
        assert other is not first
        counters = plan_cache_stats()
        assert counters["compilations"] == 2
        assert counters["hits"] == 2
        assert counters["entries"] == 2
        clear_plan_cache()
        assert plan_cache_stats()["entries"] == 0
        (fresh,) = plans(EstimatorConfig(rows=2))
        assert fresh is not first
        assert plan_cache_stats()["compilations"] == 1
        assert plan_cache_stats()["entries"] == 1

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


class TestPlansAreReleased:
    """A plan lives with its owner: an engine keeps the plan of its
    current snapshot only, and a dropped module (or design) takes the
    plans ``estimate_batch`` held for it along."""

    @staticmethod
    def live_plans(names):
        """Plans alive in this process whose statistics name a module
        in ``names`` (``EstimationPlan`` has slots and no weakref)."""
        gc.collect()
        return sum(
            1 for obj in gc.get_objects()
            if isinstance(obj, EstimationPlan)
            and obj.stats.module_name in names
        )

    def test_engine_holds_one_plan_across_edits(self):
        module = random_gate_module("released_engine", gates=60, inputs=6,
                                    outputs=3, seed=5)
        engine = IncrementalEstimator(module, cmos_process())
        for edit in generate_edit_sequence(module, 200, seed=3):
            engine.apply(edit)
            engine.estimate()
        assert self.live_plans({"released_engine"}) <= 1
        del engine
        assert self.live_plans({"released_engine"}) == 0

    def test_dropped_module_takes_its_plans(self, nmos):
        module = random_gate_module("released_batch", gates=30, inputs=4,
                                    outputs=2, seed=8)
        estimate_batch([module], nmos, [
            EstimatorConfig(), EstimatorConfig(track_model="shared"),
        ])
        assert plan_cache_stats()["entries"] >= 2
        assert self.live_plans({"released_batch"}) == 2
        del module
        assert self.live_plans({"released_batch"}) == 0

    def test_dropped_design_takes_its_plans(self):
        design = generate_design(60, seed=4, name="released_design")
        names = {leaf.name for leaf in design.leaves}
        result = run_portfolio(
            design, cmos_process(),
            PortfolioConfig(steps=30, seed=2, spot_checks=1,
                            routability_weight=0.8),
        )
        assert self.live_plans(names) == len(names)
        del design  # the result outlives it and keeps no plan
        assert self.live_plans(names) == 0
        assert result.evaluations > 0
