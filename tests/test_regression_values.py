"""Regression pins for the headline experiment numbers.

Every generator and oracle is deterministic per seed, so the benchmark
tables are exactly reproducible.  These tests pin the values recorded
in EXPERIMENTS.md; if a calibration constant, generator, or model
changes them, the failure points straight at the numbers that need
re-recording.

(Loose tolerances are deliberate: these are drift alarms, not physics.)
"""

import hashlib
import json

import pytest

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.standard_cell import estimate_standard_cell
from repro.experiments.iterations import run_iteration_experiment
from repro.floorplan.portfolio import PortfolioConfig, run_portfolio
from repro.technology.libraries import nmos_process
from repro.workloads.designs import generate_design
from repro.workloads.suites import table1_suite, table2_suite

PROCESS = nmos_process()

#: (experiment, estimated exact-area) pins for Table 1.
TABLE1_ESTIMATES = {
    1: 2435.0,
    2: 882.0,
    3: 2212.0,
    4: 2162.0,
    5: 3306.0,
}

#: (experiment, rows) -> estimated area pins for Table 2.
TABLE2_ESTIMATES = {
    (1, 3): 291_943.0,
    (1, 4): 262_279.0,
    (1, 5): 235_288.0,
    (2, 4): 268_995.0,
    (2, 6): 243_200.0,
}


class TestTable1Pins:
    def test_estimated_areas(self):
        for case in table1_suite():
            estimate = estimate_full_custom(case.module, PROCESS)
            assert estimate.area == pytest.approx(
                TABLE1_ESTIMATES[case.experiment], rel=0.01
            ), f"experiment {case.experiment} drifted"

    def test_suite_shape_pins(self):
        sizes = {
            case.experiment: (case.module.device_count,
                              case.module.net_count)
            for case in table1_suite()
        }
        assert sizes == {
            1: (27, 23),
            2: (14, 29),
            3: (24, 18),
            4: (24, 18),
            5: (35, 28),
        }


class TestTable2Pins:
    def test_estimated_areas(self):
        for case in table2_suite():
            for rows in case.row_counts:
                estimate = estimate_standard_cell(
                    case.module, PROCESS, EstimatorConfig(rows=rows)
                )
                assert estimate.area == pytest.approx(
                    TABLE2_ESTIMATES[(case.experiment, rows)], rel=0.01
                ), f"experiment {case.experiment} rows {rows} drifted"

    def test_suite_shape_pins(self):
        cases = table2_suite()
        assert (cases[0].module.device_count,
                cases[0].module.net_count) == (30, 36)
        assert (cases[1].module.device_count,
                cases[1].module.net_count) == (34, 55)


class TestProcessPins:
    """The calibration constants EXPERIMENTS.md numbers depend on."""

    def test_nmos_parameters(self):
        assert PROCESS.lambda_um == 2.5
        assert PROCESS.row_height == 40.0
        assert PROCESS.feedthrough_width == 7.0
        assert PROCESS.track_pitch == 7.0
        assert PROCESS.port_pitch == 8.0

    def test_transistor_geometry(self):
        assert PROCESS.device_type("nmos_enh").width == 7.0
        assert PROCESS.device_type("nmos_dep").width == 10.0
        heights = {
            PROCESS.device_type(n).height
            for n in ("nmos_enh", "nmos_dep", "nmos_pass")
        }
        assert heights == {9.0}


class TestIterationPins:
    """C2: the default five-module chip, estimator vs naive loop."""

    def test_default_chip_trajectory(self):
        comparison = run_iteration_experiment()
        paper = comparison.with_estimator
        assert (paper.iterations, paper.converged) == (1, True)
        assert paper.final_area == pytest.approx(592_127.33, abs=0.01)

        naive = comparison.with_naive
        assert (naive.iterations, naive.converged) == (2, True)
        # Pass 1 misfits every module; pass 2 re-plans from true shapes.
        assert naive.history[0].misfits == comparison.module_names
        assert naive.history[1].misfits == ()
        assert naive.final_area == pytest.approx(278_806.0, abs=0.01)


#: routability weight -> (winner, repr(best cost), best step, SHA-256 of
#: the sorted best rows as JSON, trajectory hash per searcher) of a
#: 200-step race over ``generate_design(60, seed=11)``.
FLOORPLAN_PINS = {
    0.8: (
        "greedy", "5143398.040802139", 101,
        "7b02c7e9408bf2af080335ec9dbdb12822e3e4f718323d051e9ffc2ebfb49918",
        {
            "annealing": "5b9f14c32f1445e38ca9349460deb9e6"
                         "b1c58674fb6f352a8acfd16ded2a8127",
            "greedy": "c71b08202b4e8040e0e1994f38de006e"
                      "7d14ff6bc671786cbb5e92608abcc723",
            "mixed": "c118964b5c29609ff82aeeabd04810e8"
                     "fff8ad6db630f1edbb16b9d24cce6efe",
        },
    ),
    0.0: (
        "greedy", "3771911.5177877923", 59,
        "53e1de47c463c46fdccf96cb8fbe8bca27f73606106922c203a5e71c54396a7a",
        {
            "annealing": "2874be4146b715c5b2405edd26951d78"
                         "2e92c0dc1a885fd86017ff38d300d19e",
            "greedy": "535c43f6dfb157086f02bc85a7c6fc1e"
                      "e09ac8897eaf95df57b2d6c0fb4b2351",
            "mixed": "38cc97c91d20b31feedaaa2ffeeaca67"
                     "ca05727959e352e677f52e9438dec126",
        },
    ),
}


class TestFloorplanPins:
    """Exact pins of two floorplan races, one scored and one not.

    The engines are compared with each other elsewhere; these pins
    compare the race with its own past, so a change to the move rules,
    the pricing, the RNG seeding or the step-record spelling shows here
    under every backend.
    """

    @pytest.mark.parametrize("weight", sorted(FLOORPLAN_PINS))
    def test_race_trajectory(self, weight):
        result = run_portfolio(
            generate_design(60, seed=11),
            PROCESS,
            PortfolioConfig(steps=200, seed=11, routability_weight=weight),
        )
        rows = hashlib.sha256(
            json.dumps(sorted(result.best_rows.items())).encode()
        ).hexdigest()
        assert (
            result.winner, repr(result.best_cost), result.best_step, rows,
            dict(result.trajectory_hashes),
        ) == FLOORPLAN_PINS[weight]
