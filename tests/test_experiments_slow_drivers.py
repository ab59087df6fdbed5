"""Reduced-configuration runs of the heavier experiment drivers.

The full Table 2 / runtime / iteration experiments live in benchmarks/;
here each driver runs on one tiny case so the code path is covered by
the fast test suite too.
"""

import pytest

from repro.core.config import EstimatorConfig
from repro.experiments.iterations import (
    PlannedEstimateProvider,
    run_iteration_experiment,
)
from repro.experiments.runtime import run_runtime_experiment
from repro.experiments.table2 import format_table2, run_table2
from repro.layout.annealing import AnnealingSchedule
from repro.perf.batch import estimate_batch
from repro.workloads.generators import counter_module, decoder_module
from repro.workloads.suites import Table2Case

TINY = AnnealingSchedule(moves_per_stage=20, stages=4, cooling=0.7)


@pytest.fixture(scope="module")
def tiny_case():
    return Table2Case(
        experiment=1,
        module=counter_module("tiny_counter", bits=4),
        row_counts=(2, 3),
        seed=1,
    )


class TestTable2Driver:
    def test_rows_produced_per_row_count(self, tiny_case):
        rows = run_table2(cases=[tiny_case], oracle_schedule=TINY)
        assert [r.rows for r in rows] == [2, 3]
        for row in rows:
            assert row.est_area > 0
            assert row.real_area > 0
            assert row.est_tracks >= row.real_tracks

    def test_formatting(self, tiny_case):
        rows = run_table2(cases=[tiny_case], oracle_schedule=TINY)
        text = format_table2(rows)
        assert "Table 2" in text
        assert "+42%" in text  # cites the paper's band

    def test_unconstrained_oracle_option(self, tiny_case):
        rows = run_table2(cases=[tiny_case], oracle_schedule=TINY,
                          constrained_routing=False)
        assert len(rows) == 2


class TestRuntimeDriver:
    def test_rows_cover_both_methodologies(self):
        rows = run_runtime_experiment()
        methodologies = {row.methodology for row in rows}
        assert methodologies == {"full-custom", "standard-cell"}
        for row in rows:
            assert row.estimate_seconds > 0
            assert row.layout_seconds > 0
            assert row.speedup_vs_layout > 1


class TestIterationDriver:
    def test_small_chip(self):
        modules = [
            counter_module("it_counter", bits=4),
            decoder_module("it_decoder", address_bits=2),
        ]
        comparison = run_iteration_experiment(
            modules, oracle_schedule=TINY, seed=2
        )
        assert comparison.with_estimator.converged
        assert comparison.with_naive.converged
        assert (
            comparison.with_estimator.iterations
            <= comparison.with_naive.iterations
        )

    def test_planned_provider_serves_the_batch_plan(self, nmos):
        """The loop's estimate source: one cached shape list per module,
        the batch estimate's footprint plus its rotation."""
        module = counter_module("it_counter", bits=4)
        [result] = estimate_batch([module], nmos, EstimatorConfig())
        provider = PlannedEstimateProvider({module.name: result.plan})
        shapes = provider(module.name)
        estimate = result.estimate
        assert {(s.width, s.height) for s in shapes} == {
            (estimate.width, estimate.height),
            (estimate.height, estimate.width),
        }
        assert provider(module.name) is shapes

    def test_duplicate_names_rejected(self):
        from repro.errors import FloorplanError

        module = counter_module("dup", bits=4)
        with pytest.raises(FloorplanError, match="unique"):
            run_iteration_experiment([module, module],
                                     oracle_schedule=TINY)
