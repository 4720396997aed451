import concurrent.futures
import json

import numpy as np
import pytest

from coldstart_dynaq import bench
from coldstart_dynaq.env import CostParams, DomainError, InventoryState
from coldstart_dynaq.schedule import StcSchedule, stc_steps


def tiny_spec(**kw):
    base = dict(
        master_seed=7,
        repetitions=2,
        train_episodes=2,
        horizon=10,
        test_days=5,
        test_repetitions=3,
        source_days=60,
        forecaster_epochs=2,
        warm_epochs=2,
        offline_horizon=5,
    )
    base.update(kw)
    return bench.ExperimentSpec(**base)


class TestSeeding:
    def test_seed_int_deterministic(self):
        assert bench.seed_int(3, 1, 2) == bench.seed_int(3, 1, 2)

    def test_seed_int_distinct_keys(self):
        seeds = {bench.seed_int(3, i, j) for i in range(5) for j in range(5)}
        assert len(seeds) == 25

    def test_derived_rng_streams_independent(self):
        a = bench.derived_rng(3, 0).random(4)
        b = bench.derived_rng(3, 1).random(4)
        assert not np.array_equal(a, b)


class TestSpecFromJson:
    def test_lists_become_records(self):
        spec = bench.ExperimentSpec(
            cost_params=[0.9, 0.4, 0, 2], initial_state=[1, 2, 3], algorithms=["dyna-q"]
        )
        assert spec.cost_params == CostParams(0.9, 0.4, 0, 2)
        assert spec.initial_state == InventoryState(1, 2, 3)
        assert spec.algorithms == ("dyna-q",)

    def test_int_allowed_for_float_fields(self):
        spec = bench.ExperimentSpec(mu=4, sigma2=3, source_mean=5, source_var=2, warm_epsilon=1)
        assert spec.true_demand().pmf.sum() == pytest.approx(1.0)

    def test_source_days_unchecked_with_dataset(self):
        # a transactions file sets its own length; the forecaster checks it
        bench.ExperimentSpec(dataset_path="sales.csv", source_days=0)


class TestSchedules:
    def test_adjusted_decays_both_via_stc(self):
        # classic Dyna-Q and Q-learning are pinned in test_agents.TestConfigValidation
        for p in (bench.TABLE1_PARAMS, bench.SCENARIO1_PARAMS, bench.SCENARIO2_PARAMS):
            assert bench.schedules(p, "adjusted-dyna-q") == (
                StcSchedule(p.eps0, p.eps_min, p.eps_smoothing),
                StcSchedule(p.n0, p.n_min, p.n_smoothing),
            )


class TestPlanningCounts:
    def test_matches_schedule_sum(self):
        plan = StcSchedule(100.0, 10.0, 5000.0)
        assert bench.total_planning_steps(plan, 50) == sum(
            stc_steps(plan, t) for t in range(50)
        )

    def test_adjusted_well_below_classic(self):
        p = bench.TABLE1_PARAMS
        steps = 100 * 100
        adjusted = bench.total_planning_steps(
            StcSchedule(p.n0, p.n_min, p.n_smoothing), steps
        )
        classic = round(p.n0) * steps
        assert adjusted / classic <= 0.35


class TestTable1:
    def test_structure_and_summary(self):
        result = bench.run_table1(tiny_spec())
        records = result["records"]
        assert len(records) == 2 * 3
        summary = result["report"]["summary"]
        assert set(summary) == {"adjusted-dyna-q", "dyna-q", "q-learning"}
        assert summary["q-learning"]["planning_steps"] == 0
        assert summary["adjusted-dyna-q"]["planning_steps"] < summary["dyna-q"]["planning_steps"]
        for stats in summary.values():
            assert np.isfinite(stats["mean_daily_cost"])

    def test_deterministic_across_calls(self):
        a = bench.run_table1(tiny_spec())
        b = bench.run_table1(tiny_spec())
        sa = [{k: v for k, v in r.items() if not k.startswith("wall_")} for r in a["records"]]
        sb = [{k: v for k, v in r.items() if not k.startswith("wall_")} for r in b["records"]]
        assert sa == sb

    def test_seed_changes_results(self):
        a = bench.run_table1(tiny_spec(master_seed=1))
        b = bench.run_table1(tiny_spec(master_seed=2))
        assert a["records"][0]["avg_daily_cost"] != b["records"][0]["avg_daily_cost"]


class TestScenarios:
    def test_scenario1_record_shape(self):
        result = bench.run_scenario1(tiny_spec(repetitions=1))
        records = result["records"]
        assert len(records) == len(bench.SCENARIO_CONFIGS)
        for r in records:
            assert len(r["train"]["episode_total_costs"]) == 2
            assert r["train"]["total_cost_variance"] >= 0.0
        assert len(result["report"]["summary"]) == 5

    def test_scenario2_includes_test_phase(self):
        result = bench.run_scenario2(tiny_spec(repetitions=1))
        for r in result["records"]:
            assert len(r["test"]["total_costs"]) == 100
            assert 0.0 <= r["test"]["shortage_percentage"] <= 1.0

    def test_transfer_flags_cover_both_settings(self):
        result = bench.run_scenario1(tiny_spec(repetitions=1))
        pairs = {(r["algorithm"], r["transfer"]) for r in result["records"]}
        assert pairs == set(bench.SCENARIO_CONFIGS)


class TestFig3:
    def test_trace_shape_and_range(self):
        result = bench.run_fig3(tiny_spec(repetitions=1))
        assert result["true_probability"] == pytest.approx(0.0902, abs=5e-5)
        for r in result["records"]:
            assert len(r["trace"]) == 30
            for p in r["trace"]:
                assert p is None or 0.0 <= p <= 1.0

    def test_transfer_trace_defined_from_start(self):
        # the warm-started model has seen the monitored pair's state space,
        # so its estimate should become available no later than cold runs
        result = bench.run_fig3(tiny_spec(repetitions=2))
        for rep in range(2):
            rows = {
                (r["algorithm"], r["transfer"]): r["trace"]
                for r in result["records"] if r["replication"] == rep
            }
            def first_defined(trace):
                return next((i for i, p in enumerate(trace) if p is not None), len(trace))
            assert first_defined(rows[("adjusted-dyna-q", True)]) <= first_defined(
                rows[("q-learning", False)]
            )


class TestEmit:
    def test_record_files_written(self, tmp_path):
        spec = tiny_spec(out_dir=str(tmp_path))
        bench.run_table1(spec)
        records_path = tmp_path / "table1_records.jsonl"
        assert records_path.exists()
        assert (tmp_path / "table1_report.json").exists()
        assert (tmp_path / "table1_summary.csv").exists()
        assert (tmp_path / "table1_timings.json").exists()
        for line in records_path.read_text().splitlines():
            record = json.loads(line)
            assert not any(k.startswith("wall_") for k in record)

    def test_records_byte_identical_across_reruns(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        bench.run_table1(tiny_spec(out_dir=str(a_dir)))
        bench.run_table1(tiny_spec(out_dir=str(b_dir)))
        assert (a_dir / "table1_records.jsonl").read_bytes() == (
            b_dir / "table1_records.jsonl"
        ).read_bytes()
        assert (a_dir / "table1_report.json").read_bytes() == (
            b_dir / "table1_report.json"
        ).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        a_dir, b_dir = tmp_path / "serial", tmp_path / "parallel"
        bench.run_fig3(tiny_spec(out_dir=str(a_dir), workers=1))
        bench.run_fig3(tiny_spec(out_dir=str(b_dir), workers=2))
        assert (a_dir / "fig3_records.jsonl").read_bytes() == (
            b_dir / "fig3_records.jsonl"
        ).read_bytes()

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool the bench starts, run in-process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        return sizes

    def test_pool_never_larger_than_the_replications(self, pool_sizes):
        sizes = pool_sizes
        bench.run_table1(tiny_spec(repetitions=1, workers=3, algorithms=["q-learning"]))
        assert sizes == []
        bench.run_table1(tiny_spec(repetitions=2, workers=8, algorithms=["q-learning"]))
        assert sizes == [2]

    def test_workers_above_the_bound_start_no_pool(self, pool_sizes):
        with pytest.raises(DomainError, match="workers"):
            bench.run_table1(tiny_spec(repetitions=2, workers=bench.MAX_WORKERS + 1,
                                       algorithms=["q-learning"]))
        assert pool_sizes == []
        bench.run_table1(tiny_spec(repetitions=2, workers=bench.MAX_WORKERS,
                                   algorithms=["q-learning"]))
        assert pool_sizes == [2]
