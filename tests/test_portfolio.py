"""Tests for the parallel portfolio floorplan optimizer.

The contract under test is the one the bench and CI gates rely on:

- the compiled ``portfolio`` engine and the rescan-per-query ``serial``
  engine walk **bit-identical** trajectories (same chained hashes, same
  winner, same best cost);
- same-seed reruns and resume-from-checkpoint replays are bit-identical;
- corrupt or mismatched resume files raise :class:`CheckpointError`
  *before* any optimizer state is touched;
- a compiled race keeps the plan its prefill compiled for each leaf:
  no incremental engine, no plan-cache lookup after the prefill;
- a warm race over an unedited leaf reuses its scan and its plan's
  estimates, and still walks the cold race's trajectory.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.config import EstimatorConfig
from repro.errors import CheckpointError, FloorplanError, VerificationError
from repro.floorplan.portfolio import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    SEARCHERS,
    CompiledEstimateServer,
    PortfolioConfig,
    _json_literals,
    _step_record,
    load_checkpoint,
    run_portfolio,
    write_checkpoint,
)
import repro.perf.batch as batch_module
from repro.incremental import IncrementalEstimator
from repro.perf.plan import (
    EstimationPlan,
    clear_plan_cache,
    plan_cache_stats,
)
from repro.technology.libraries import nmos_process
from repro.workloads.designs import generate_design


@pytest.fixture(scope="module")
def design():
    return generate_design(12, seed=17, name="dut")


@pytest.fixture(scope="module")
def config():
    return PortfolioConfig(steps=60, seed=5, checkpoint_every=20,
                           spot_checks=2)


def _signature(result):
    return (
        dict(result.trajectory_hashes),
        result.winner,
        result.best_cost,
        dict(result.best_rows),
    )


class TestConfig:
    def test_identity_is_jsonable_and_stable(self, config):
        identity = config.identity()
        assert json.loads(json.dumps(identity)) == identity
        assert identity == config.identity()

    def test_rejects_bad_steps(self):
        with pytest.raises(FloorplanError):
            PortfolioConfig(steps=0)

    def test_rejects_unknown_searcher(self):
        with pytest.raises(FloorplanError):
            PortfolioConfig(searchers=("annealing", "tabu"))

    def test_rejects_bad_aspect_target(self):
        with pytest.raises(FloorplanError):
            PortfolioConfig(aspect_target=0.0)

    def test_jobs_must_be_one(self):
        assert PortfolioConfig(jobs=1).jobs == 1
        with pytest.raises(FloorplanError, match="jobs must be 1"):
            PortfolioConfig(jobs=2)


class TestDeterminism:
    def test_same_seed_replays_bit_identically(self, design, cmos, config):
        a = run_portfolio(design, cmos, config)
        b = run_portfolio(design, cmos, config)
        assert _signature(a) == _signature(b)

    def test_engines_walk_identical_trajectories(self, design, cmos,
                                                 config):
        portfolio = run_portfolio(design, cmos, config, engine="portfolio")
        serial = run_portfolio(design, cmos, config, engine="serial")
        assert portfolio.trajectory_hashes == serial.trajectory_hashes
        assert portfolio.winner == serial.winner
        assert portfolio.best_cost == serial.best_cost
        assert portfolio.best_rows == serial.best_rows

    def test_seed_changes_trajectory(self, design, cmos, config):
        a = run_portfolio(design, cmos, config)
        b = run_portfolio(
            design, cmos,
            PortfolioConfig(steps=config.steps, seed=config.seed + 1,
                            checkpoint_every=20, spot_checks=2),
        )
        assert a.trajectory_hashes != b.trajectory_hashes

    def test_result_shape(self, design, cmos, config):
        result = run_portfolio(design, cmos, config)
        assert result.module_count == design.module_count
        assert set(result.searchers) == set(config.searchers)
        assert set(result.best_rows) == {
            leaf.name for leaf in design.leaves
        }
        assert result.chip["area"] > 0
        assert result.chip["utilization"] > 0
        assert result.spot_checks == config.spot_checks
        assert result.modules_per_sec > 0
        payload = result.to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestResume:
    def test_resume_matches_uninterrupted_run(self, design, cmos, config,
                                              tmp_path):
        full = run_portfolio(design, cmos, config)
        path = tmp_path / "resume.json"
        run_portfolio(design, cmos, config, checkpoint_path=str(path),
                      stop_after=config.steps // 2)
        resumed = run_portfolio(
            design, cmos, config, resume=load_checkpoint(str(path)),
        )
        assert _signature(resumed) == _signature(full)

    def test_stop_after_must_be_positive(self, design, cmos, config):
        with pytest.raises(FloorplanError):
            run_portfolio(design, cmos, config, stop_after=0)

    def test_checkpoint_round_trips(self, design, cmos, config, tmp_path):
        path = tmp_path / "ck.json"
        run_portfolio(design, cmos, config, checkpoint_path=str(path),
                      stop_after=20)
        payload = load_checkpoint(str(path))
        assert payload["kind"] == CHECKPOINT_KIND
        assert payload["schema_version"] == CHECKPOINT_VERSION
        assert payload["config"] == config.identity()
        assert set(payload["searchers"]) == set(config.searchers)


class TestCheckpointCorruption:
    """Satellite: every resume failure mode is a typed error raised
    before optimizer state is touched."""

    @pytest.fixture(scope="class")
    def good_payload(self, design, cmos, config, tmp_path_factory):
        path = tmp_path_factory.mktemp("ck") / "good.json"
        run_portfolio(design, cmos, config, checkpoint_path=str(path),
                      stop_after=20)
        return load_checkpoint(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_truncated_json(self, good_payload, tmp_path):
        path = tmp_path / "trunc.json"
        text = json.dumps(good_payload)
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_wrong_kind(self, good_payload, tmp_path):
        path = tmp_path / "kind.json"
        write_checkpoint(str(path), {**good_payload, "kind": "bench"})
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(str(path))

    def test_wrong_schema_version(self, good_payload, tmp_path):
        path = tmp_path / "ver.json"
        write_checkpoint(str(path),
                         {**good_payload, "schema_version": 99})
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(str(path))

    def test_missing_searcher_field(self, good_payload, tmp_path):
        path = tmp_path / "field.json"
        searchers = {
            name: {k: v for k, v in entry.items() if k != "hash"}
            for name, entry in good_payload["searchers"].items()
        }
        write_checkpoint(str(path),
                         {**good_payload, "searchers": searchers})
        with pytest.raises(CheckpointError, match="missing or mistyped"):
            load_checkpoint(str(path))

    def test_mistyped_searcher_field(self, good_payload, tmp_path):
        path = tmp_path / "type.json"
        searchers = {
            name: {**entry, "step": True}
            for name, entry in good_payload["searchers"].items()
        }
        write_checkpoint(str(path),
                         {**good_payload, "searchers": searchers})
        with pytest.raises(CheckpointError, match="missing or mistyped"):
            load_checkpoint(str(path))

    def test_wrong_engine(self, good_payload, design, cmos, config):
        with pytest.raises(CheckpointError, match="engine"):
            run_portfolio(design, cmos, config,
                          resume={**good_payload, "engine": "serial"})

    def test_wrong_design(self, good_payload, cmos, config):
        other = generate_design(12, seed=18, name="other")
        with pytest.raises(CheckpointError, match="design"):
            run_portfolio(other, cmos, config, resume=good_payload)

    def test_wrong_config(self, good_payload, design, cmos, config):
        shifted = PortfolioConfig(steps=config.steps,
                                  seed=config.seed + 1,
                                  checkpoint_every=20, spot_checks=2)
        with pytest.raises(CheckpointError, match="config"):
            run_portfolio(design, cmos, shifted, resume=good_payload)

    def test_wrong_estimator_config(self, good_payload, design, cmos,
                                    config):
        other = PortfolioConfig(
            steps=config.steps, seed=config.seed, checkpoint_every=20,
            spot_checks=2,
            estimator=EstimatorConfig(row_spread_mode="exact",
                                      track_model="shared"),
        )
        with pytest.raises(CheckpointError, match="config"):
            run_portfolio(design, cmos, other, resume=good_payload)

    def test_wrong_process(self, good_payload, design, config):
        with pytest.raises(CheckpointError, match="process"):
            run_portfolio(design, nmos_process(), config,
                          resume=good_payload)

    def test_missing_process_field(self, good_payload, tmp_path):
        path = tmp_path / "process.json"
        write_checkpoint(str(path), {
            k: v for k, v in good_payload.items() if k != "process"
        })
        with pytest.raises(CheckpointError, match="process"):
            load_checkpoint(str(path))

    def test_rows_not_covering_modules(self, good_payload, design, cmos,
                                       config):
        searchers = {
            name: {**entry, "rows": dict(list(entry["rows"].items())[:-1])}
            for name, entry in good_payload["searchers"].items()
        }
        with pytest.raises(CheckpointError, match="cover"):
            run_portfolio(design, cmos, config,
                          resume={**good_payload, "searchers": searchers})

    @pytest.mark.parametrize("field, value", [
        ("rows", 0),
        ("rows", -3),
        ("rows", 999),
        ("rows", "abc"),
        ("rows", 2.7),
        ("rows", True),
        ("rows", math.nan),
        ("targets", 0.0),
        ("targets", -1.0),
        ("targets", "x"),
        ("targets", True),
        ("targets", math.nan),
        ("best_rows", 999),
        ("best_rows", True),
        ("best_rows", math.nan),
    ])
    def test_out_of_range_module_value(self, good_payload, design, cmos,
                                       config, field, value):
        module = sorted(good_payload["searchers"]["greedy"][field])[0]
        searchers = {
            name: {**entry, field: {**entry[field], module: value}}
            for name, entry in good_payload["searchers"].items()
        }
        with pytest.raises(CheckpointError,
                           match=rf"{field}.*{module}"):
            run_portfolio(design, cmos, config,
                          resume={**good_payload, "searchers": searchers})


class TestWarmRaces:
    """Races over one design reuse each unedited leaf's scan and its
    plan's estimates; every race still equals a cold race."""

    CONFIG = PortfolioConfig(steps=80, seed=9, spot_checks=2,
                             routability_weight=0.8)

    @staticmethod
    def _design():
        return generate_design(12, seed=23, name="warm")

    @staticmethod
    def _edit(design):
        leaf = design.leaves[4]
        leaf.remove_device(leaf.devices[-1].name)
        return leaf.name

    @staticmethod
    def _outcome(result):
        return (
            result.winner, result.best_cost, result.best_step,
            dict(result.trajectory_hashes), dict(result.chip),
            result.evaluations,
        )

    def _cold(self, process, edit=False):
        clear_plan_cache()
        design = self._design()
        if edit:
            self._edit(design)
        return self._outcome(run_portfolio(design, process, self.CONFIG))

    def test_warm_races_equal_cold_races(self, cmos, monkeypatch):
        cold = self._cold(cmos)
        cold_edited = self._cold(cmos, edit=True)
        assert cold_edited != cold
        scanned = []
        original = batch_module.scan_module

        def counting(module, *args, **kwargs):
            scanned.append(module.name)
            return original(module, *args, **kwargs)

        monkeypatch.setattr(batch_module, "scan_module", counting)
        clear_plan_cache()
        design = self._design()
        first = run_portfolio(design, cmos, self.CONFIG)
        assert len(scanned) == design.module_count
        del scanned[:]
        second = run_portfolio(design, cmos, self.CONFIG)
        assert scanned == []
        assert self._outcome(first) == cold
        assert self._outcome(second) == cold
        edited_leaf = self._edit(design)
        edited = run_portfolio(design, cmos, self.CONFIG)
        assert scanned == [edited_leaf]
        assert self._outcome(edited) == cold_edited


class TestReuseCounters:
    """``plan_cache_stats()`` counts each reuse layer: a cold race hits
    none of them; a warm race over the unedited design reuses every
    leaf's scan and finds every price it asks for in the plans."""

    CONFIG = TestWarmRaces.CONFIG
    NEW = ("estimate_memo_hits", "price_memo_hits", "scans_reused")

    def test_warm_race_hits_every_layer(self, cmos, monkeypatch):
        priced = set()
        original = CompiledEstimateServer.price

        def recording(self, name, rows):
            priced.add((name, rows))
            return original(self, name, rows)

        monkeypatch.setattr(CompiledEstimateServer, "price", recording)
        clear_plan_cache()
        design = TestWarmRaces._design()
        cold = run_portfolio(design, cmos, self.CONFIG)
        assert [cold.plan_cache[key] for key in self.NEW] == [0, 0, 0]
        priced.clear()
        warm = run_portfolio(design, cmos, self.CONFIG)
        assert warm.plan_cache["price_memo_hits"] == len(priced)
        assert warm.plan_cache["scans_reused"] == design.module_count == 12
        # The prefill's Section 5 estimates, one per leaf.
        assert warm.plan_cache["estimate_memo_hits"] == 12
        assert (warm.evaluations, warm.table_hits) == (
            cold.evaluations, cold.table_hits
        )

    def test_spot_checks_compare_the_price(self, cmos, monkeypatch):
        clear_plan_cache()
        design = TestWarmRaces._design()
        run_portfolio(design, cmos, self.CONFIG)
        original = EstimationPlan.memoized_price

        def inflated(self, key):
            memoized = original(self, key)
            if memoized is None:
                return None
            (area, aspect, factor), estimate = memoized
            return (area * 1.3, aspect, factor), estimate

        monkeypatch.setattr(EstimationPlan, "memoized_price", inflated)
        with pytest.raises(VerificationError, match="price"):
            run_portfolio(design, cmos, self.CONFIG)


class TestStepRecord:
    """The step record is formatted directly, byte-identical to the
    ``json.dumps`` spelling the trajectory hashes were defined by."""

    @staticmethod
    def _both(accepted, module, move, rows, step, total, searcher):
        literals = _json_literals((module, move, searcher))
        entry = {"a": accepted, "m": module, "o": move, "r": rows,
                 "s": step, "t": total, "w": searcher}
        return (
            _step_record(accepted, literals[module], literals[move], rows,
                         step, total, literals[searcher]),
            json.dumps(entry, sort_keys=True, separators=(",", ":")),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        accepted=st.booleans(),
        module=st.text(),
        move=st.sampled_from(("rows", "aspect")),
        rows=st.integers(min_value=1),
        step=st.integers(min_value=0),
        total=st.floats(),
        searcher=st.sampled_from(SEARCHERS),
    )
    @example(True, '"q\\b\x00\x1f\x7f\n é\u2028\U0001F600', "rows",
             1, 0, -0.0, "greedy")
    @example(False, "m", "aspect", 64, 10**6, 5e-324, "mixed")
    @example(False, "m", "rows", 3, 7, math.nan, "annealing")
    @example(True, "m", "rows", 3, 7, math.inf, "annealing")
    @example(True, "m", "aspect", 3, 7, -math.inf, "mixed")
    def test_matches_json_dumps(self, accepted, module, move, rows, step,
                                total, searcher):
        record, reference = self._both(accepted, module, move, rows, step,
                                       total, searcher)
        assert record == reference

    @pytest.mark.parametrize("searcher", SEARCHERS)
    @pytest.mark.parametrize("move", ("rows", "aspect"))
    def test_every_searcher_and_move(self, searcher, move):
        for total in (0.0, 1.5, 48802772.935308665, -2.5e-310):
            record, reference = self._both(False, "leaf_07", move, 5, 12,
                                           total, searcher)
            assert record == reference


class TestPlanCacheSharing:
    """A compiled race keeps the plan its prefill compiled for each
    leaf: no incremental engine, no plan-cache lookup after prefill."""

    def test_portfolio_engine_compiles_one_plan_per_leaf(
        self, design, cmos, monkeypatch
    ):
        def no_engine(*args, **kwargs):
            raise AssertionError("the race built an IncrementalEstimator")

        monkeypatch.setattr(IncrementalEstimator, "__init__", no_engine)
        clear_plan_cache()
        run_portfolio(
            design, cmos,
            PortfolioConfig(steps=40, seed=3, spot_checks=0,
                            routability_weight=0.8),
        )
        stats = plan_cache_stats()
        assert stats["compilations"] == stats["entries"]
        assert stats["hits"] + stats["compilations"] == design.module_count
        assert stats["evaluations"] >= stats["compilations"]


class TestFloorplanCommand:
    def test_generated_design_run(self, capsys):
        assert main([
            "floorplan", "12", "--steps", "40", "--seed", "5",
            "--spot-checks", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "winner" in out

    def test_resume_under_another_process_is_refused(self, tmp_path,
                                                     capsys):
        path = str(tmp_path / "ck.json")
        common = ["floorplan", "30", "--steps", "60", "--spot-checks", "0"]
        assert main(common + ["--checkpoint", path,
                              "--stop-after", "30"]) == 0
        capsys.readouterr()
        assert main(common + ["--tech", "cmos", "--resume", path]) == 1
        assert "written under process" in capsys.readouterr().err

    def test_json_output_and_serial_match(self, tmp_path, capsys):
        fast = tmp_path / "fast.json"
        slow = tmp_path / "slow.json"
        common = ["floorplan", "10", "--steps", "30", "--seed", "7",
                  "--spot-checks", "0"]
        assert main(common + ["--json", str(fast)]) == 0
        assert main(common + ["--serial", "--json", str(slow)]) == 0
        capsys.readouterr()
        a = json.loads(fast.read_text())
        b = json.loads(slow.read_text())
        assert a["trajectory_hashes"] == b["trajectory_hashes"]
        assert a["winner"] == b["winner"]
        assert a["engine"] == "portfolio"
        assert b["engine"] == "serial"

    def test_checkpoint_resume_cycle(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        common = ["floorplan", "8", "--steps", "40", "--seed", "3",
                  "--spot-checks", "0"]
        assert main(common + ["--json", str(full)]) == 0
        assert main(common + ["--checkpoint", str(ck),
                              "--stop-after", "20"]) == 0
        assert main(common + ["--resume", str(ck),
                              "--json", str(resumed)]) == 0
        capsys.readouterr()
        a = json.loads(full.read_text())
        b = json.loads(resumed.read_text())
        assert a["trajectory_hashes"] == b["trajectory_hashes"]
        assert a["best_cost"] == b["best_cost"]

    def test_rejects_bad_resume_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["floorplan", "8", "--resume", str(bad)])
        capsys.readouterr()
        assert code != 0
