import concurrent.futures
import contextlib
import dataclasses
import datetime as dt
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldstart_dynaq import bench
from coldstart_dynaq.cli import main

TINY = {
    "repetitions": 1,
    "train_episodes": 2,
    "horizon": 10,
    "test_days": 5,
    "test_repetitions": 3,
    "source_days": 60,
    "forecaster_epochs": 2,
    "warm_epochs": 2,
    "offline_horizon": 5,
}

# scenario1's five configurations x 30 days x 1e8 trainings: 1.5e10 days,
# where table1 counts 1e8
OVER_CAP_MONTHS = {"repetitions": 1, "train_episodes": 100000000, "horizon": 1, "test_days": 1,
                   "algorithms": ["q-learning"]}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestArgumentHandling:
    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_no_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["fig3", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_field": 1}))
        assert main(["fig3", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown config keys: ['not_a_field']"
        ]

    def test_malformed_config_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["fig3", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: unreadable config {path}: ")

    def test_deeply_nested_config_json(self, tmp_path, capsys):
        # the JSON decoder's RecursionError was a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["table1", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: unreadable config {path}: ")

    def test_config_not_a_json_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["fig3", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config {path} must be a JSON object"
        ]

    @pytest.mark.parametrize("override", [{"repetitions": 0}, {"workers": 0}])
    def test_repetitions_and_workers_below_one(self, tmp_path, capsys, override):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, **override}))
        assert main(["table1", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: need repetitions >= 1")

    @pytest.mark.parametrize("override", [{"repetitions": "2"}, {"horizon": 2.0}, {"workers": True}])
    def test_integer_field_of_wrong_type(self, tmp_path, capsys, override):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, **override}))
        assert main(["table1", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        (name,) = override
        assert len(err) == 1 and err[0].startswith(f"error: {name} must be an integer")

    @pytest.mark.parametrize("override", [
        {"model_variant": "oracle"},
        {"transition_loss": "categorical"},  # not a spec field
        {"algorithms": []},
        {"algorithms": ["dyna-q", "sarsa"]},
        {"binning": "ceil"},  # not a spec field
        {"s_max": 5},  # below the default a_max of 10
        {"cost_params": [0.7, 0.3, 0.0, 0.0]},
        {"train_episodes": 0},
        {"horizon": 0},
        {"test_days": 0},
        {"test_repetitions": 0},
        {"offline_horizon": 0},
        {"forecaster_epochs": 0},
        {"warm_epochs": -2},
        {"sigma2": "5"},
        {"mu": True},
        {"sigma2": float("nan")},
        {"mu": float("inf")},
        {"mu": 0},
        {"sigma2": -1.0},
        {"sigma2": 0},
        {"mu": -2.0},
        {"mu": 1e300, "sigma2": 1e-300},  # a Gamma shape of inf
        {"mu": 1e-300, "sigma2": 1e300},  # a Gamma shape of 0
        {"product_name": 5},
        {"dataset_path": 5},
        {"workers": bench.MAX_WORKERS + 1},
        {"source_days": 8},  # forecast.WINDOW, 7 days, needs more than 8 days
        {"cost_params": ["a", 0.3, 0, 1]},
        {"cost_params": [0.7, 0.3]},
        {"cost_params": 5},
        {"initial_state": [1, 2]},
        {"initial_state": [0, 0, 50]},
        {"initial_state": [0, -1, 3]},
        {"initial_state": [0, 1.5, 3]},
        {"algorithms": 5},
        {"out_dir": 5},
        {"cost_params": [1e308, 0.3, 0, 1]},
        {"cost_params": [0.7, 0.3, 0, 1e200]},
        {"a_max": 0, "model_variant": "det-net"},  # a net's input divides by a_max
        {"master_seed": -1, "repetitions": 2},  # SeedSequence refuses it in a worker
        {"algorithms": ["dyna-q", "dyna-q"], "repetitions": 1},  # one report row of two configs
        # integers past the float range, which math.isfinite cannot take
        {"mu": 10**400},
        {"sigma2": -(10**400)},
        {"cost_params": [10**400, 0.3, 0, 1]},
        # days past datetime.date.max from the synthetic history's first day
        {"source_days": 3000000},
        {"offline_horizon": 3000000, "forecaster_epochs": 1},
    ])
    def test_bad_spec_field_fails_before_workers(self, tmp_path, capsys, monkeypatch, override):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("a worker pool started"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "workers": 2, **override}))
        assert main(["table1", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("override, named", [
        # a Gamma shape of 1.7e308, whose CDF is nan
        ({"mu": 1.65e27, "sigma2": 1.6e-254}, "mu 1.65e+27 and sigma2 1.6e-254"),
        ({"mu": 1e300, "sigma2": 1e-300}, "mu 1e+300 and sigma2 1e-300"),
    ])
    def test_moments_without_a_pmf_are_named(self, tmp_path, capsys, override, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, **override}))
        assert main(["table1", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named} give no demand pmf: ")

    @pytest.mark.parametrize("override", [
        {"d_max": 1},
        {"a_max": 1},
        {"s_max": 2, "a_max": 2, "initial_state": [0, 0, 2]},
    ])
    def test_fig3_bounds_without_its_probe_fail_before_work(
        self, tmp_path, capsys, monkeypatch, override
    ):
        # the probe (0,0,3) --order 2, demand 2--> (0,1,2) must fit the bounds
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("a worker pool started"))
        monkeypatch.setattr(bench, "fit_forecaster",
                            lambda spec: pytest.fail("the forecaster was fitted"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "repetitions": 2, "workers": 2, **override}))
        assert main(["fig3", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: fig3's probe transition needs s_max >= 3, a_max >= 2, d_max >= 2"
        )

    @pytest.mark.parametrize("override, cap", [
        ({"s_max": 2**31}, "MAX_DAY_TABLE_ENTRIES"),
        ({"d_max": 2**31}, "MAX_DAY_TABLE_ENTRIES"),
        ({"s_max": 100, "a_max": 100}, "MAX_DAY_TABLE_ENTRIES"),
        ({"repetitions": 2**40}, "MAX_SIMULATED_DAYS"),
        ({"horizon": 2**62}, "MAX_SIMULATED_DAYS"),
        ({"train_episodes": 2**63}, "MAX_SIMULATED_DAYS"),
    ])
    def test_sizes_past_their_caps_fail_before_workers(
        self, tmp_path, capsys, monkeypatch, override, cap
    ):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("a worker pool started"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**TINY, "workers": 2, **override}))
        assert main(["table1", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"{cap} = " in err[0]

    @pytest.mark.parametrize("command, override", [
        # 1.5e10 days of five one-month trainings, after a run list of 1e8 entries
        ("scenario1", OVER_CAP_MONTHS),
        # a warm start that replays its offline days 1e15 times
        ("scenario2", {"warm_epochs": 10**15}),
    ], ids=["scenario1-months", "warm-epochs"])
    def test_scenario_days_past_the_cap_fail_before_work(
        self, tmp_path, capsys, monkeypatch, command, override
    ):
        monkeypatch.setattr(bench, "fit_forecaster",
                            lambda spec: pytest.fail("the forecaster was fitted"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(override))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "MAX_SIMULATED_DAYS = " in err[0]

    @pytest.mark.parametrize("key, value", [
        ("window", 7), ("warm_epsilon", 0.2), ("source_mean", 4.48), ("source_var", 5.0),
    ])
    def test_constants_are_no_config_keys(self, tmp_path, capsys, key, value):
        # forecast.WINDOW, forecast.WARM_EPSILON, bench.SOURCE_MEAN and
        # bench.SOURCE_VAR are constants, not spec fields
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**TINY, key: value}))
        assert main(["forecast", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: unknown config keys: ['{key}']"]

    def test_out_of_memory_is_one_error_line(self, tiny_config, capsys, monkeypatch):
        def exhaust(spec):
            raise MemoryError
        monkeypatch.setattr(bench, "run_table1", exhaust)
        assert main(["table1", "--config", tiny_config]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

    def test_invalid_model_choice(self):
        with pytest.raises(SystemExit):
            main(["table1", "--model", "oracle"])

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--workers", "2"),
        ("evaluate", "--workers", "2"),
        ("forecast", "--workers", "2"),
        ("evaluate", "--model", "tabular"),
        ("forecast", "--model", "tabular"),
        ("evaluate", "--out", "elsewhere"),
        ("forecast", "--sigma2", "3.0"),
    ])
    def test_flag_the_command_does_not_read_is_refused(
        self, tiny_config, tmp_path, capsys, command, flag, value
    ):
        argv = [command, "--config", tiny_config, flag, value]
        if command == "evaluate":
            argv += ["--qtable", str(tmp_path / "q.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestExperimentCommands:
    def test_fig3_writes_records(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fig3", "--config", tiny_config, "--out", str(out), "--seed", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["experiment"] == "fig3"
        assert (out / "fig3_records.jsonl").exists()

    def test_rerun_byte_identical(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fig3", "--config", tiny_config, "--out", str(a), "--seed", "3"]) == 0
        assert main(["fig3", "--config", tiny_config, "--out", str(b), "--seed", "3"]) == 0
        for name in ("fig3_records.jsonl", "fig3_report.json", "fig3_summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_changes_output(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["table1", "--config", tiny_config, "--out", str(a), "--seed", "1"])
        main(["table1", "--config", tiny_config, "--out", str(b), "--seed", "2"])
        assert (a / "table1_records.jsonl").read_bytes() != (
            b / "table1_records.jsonl"
        ).read_bytes()


@pytest.fixture(scope="module")
def trained_qtable(tmp_path_factory):
    """A Q-table that `train` wrote for the tiny config."""
    out = tmp_path_factory.mktemp("trained")
    config = out / "config.json"
    config.write_text(json.dumps(TINY))
    assert main([
        "train", "--config", str(config), "--out", str(out), "--algorithm", "q-learning",
    ]) == 0
    return str(out / "qtable.json")


class TestArtifactCommands:
    def test_train_then_evaluate(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main([
            "train", "--config", tiny_config, "--out", str(out),
            "--algorithm", "q-learning", "--seed", "4",
        ])
        assert code == 0
        assert (out / "qtable.json").exists()
        # a dump for inspection: nothing in the package reads it back
        with np.load(out / "model.npz") as dump:
            assert {"meta", "visited"} <= set(dump.files)
            assert json.loads(bytes(dump["meta"]))["variant"] == "tabular"
            assert dump["visited"].ndim == 2 and dump["visited"].shape[1] == 2
        episodes = (out / "convergence_episodes.csv").read_text().splitlines()
        assert episodes[0] == "episode,mean_daily_cost"
        assert len(episodes) == 1 + TINY["train_episodes"]
        iterations = (out / "convergence_iterations.csv").read_text().splitlines()
        assert len(iterations) == 1 + TINY["horizon"]
        capsys.readouterr()

        code = main([
            "evaluate", "--qtable", str(out / "qtable.json"),
            "--days", "5", "--repetitions", "3", "--seed", "4",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["avg_total_cost"] >= 0.0
        assert 0.0 <= report["shortage_percentage"] <= 1.0

    @pytest.mark.parametrize("flag", ["--days", "--repetitions"])
    def test_evaluate_count_below_one(self, trained_qtable, capsys, flag):
        capsys.readouterr()
        assert main(["evaluate", "--qtable", trained_qtable, flag, "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: need repetitions >= 1")

    def test_evaluate_flag_then_config_then_default(self, trained_qtable, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"test_days": 5, "test_repetitions": 3}))
        capsys.readouterr()
        assert main(["evaluate", "--qtable", trained_qtable, "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["evaluate", "--qtable", trained_qtable, "--days", "5",
                     "--repetitions", "3"]) == 0
        assert capsys.readouterr().out == from_config
        # a flag beats the config, and the merged spec is what gets checked
        path.write_text(json.dumps({"test_days": 0, "test_repetitions": 0}))
        assert main(["evaluate", "--qtable", trained_qtable, "--config", str(path),
                     "--days", "5", "--repetitions", "3"]) == 0
        assert capsys.readouterr().out == from_config
        assert main(["evaluate", "--qtable", trained_qtable]) == 0
        assert capsys.readouterr().out != from_config

    def test_evaluate_non_finite_qtable(self, trained_qtable, tmp_path, capsys):
        payload = json.loads(Path(trained_qtable).read_text())
        payload["values"][7] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--qtable", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0]

    @pytest.mark.parametrize("edit", [
        lambda p: [1, 2],
        lambda p: {**p, "alpha": "x"},
        lambda p: {**p, "gamma": None},
        lambda p: {**p, "alpha": 1.5},
        lambda p: {**p, "shape": [1331.5, 11]},
        lambda p: {**p, "shape": ["1331", 11]},
        lambda p: {**p, "shape": [True, 11]},
        lambda p: {**p, "shape": [1331]},
        lambda p: {**p, "shape": [0, 11]},
        lambda p: {**p, "shape": 14641},
        lambda p: {**p, "values": p["values"][:-1]},
        lambda p: {**p, "values": ["x", *p["values"][1:]]},
        lambda p: {**p, "values": [[v] for v in p["values"]]},
        lambda p: {k: v for k, v in p.items() if k != "gamma"},
        lambda p: {**p, "alpha": 10**400},
        lambda p: {**p, "values": [*p["values"][:-1], -(10**400)]},
    ], ids=["list", "alpha-str", "gamma-null", "alpha-range", "shape-float", "shape-str",
            "shape-bool", "shape-1d", "shape-zero", "shape-int", "values-short",
            "values-str", "values-nested", "gamma-missing", "alpha-huge-int",
            "values-huge-int"])
    def test_evaluate_malformed_qtable(self, trained_qtable, tmp_path, capsys, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(json.loads(Path(trained_qtable).read_text()))))
        capsys.readouterr()
        assert main(["evaluate", "--qtable", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        # every refusal names the file, an alpha out of range too
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    def test_evaluate_deeply_nested_qtable(self, tmp_path, capsys):
        # the JSON decoder's RecursionError was a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["evaluate", "--qtable", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: unreadable Q-table {path}: ")

    def test_evaluate_missing_qtable_returns_error(self, tmp_path, capsys):
        code = main(["evaluate", "--qtable", str(tmp_path / "none.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_huge_shortage_cost_fails_before_training(self, tmp_path, capsys):
        # a unit short costing 1e200 would overflow the cost net's squared error
        path = tmp_path / "huge_shortage_cost.json"
        path.write_text(json.dumps(
            {**TINY, "cost_params": [0.7, 0.3, 0.0, 1e200], "initial_state": [0, 0, 0]}
        ))
        # the error line is the only report: numpy's overflow warning would raise here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "train", "--config", str(path), "--out", str(tmp_path / "out"),
                "--model", "det-net", "--algorithm", "q-learning",
            ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cost parameters must be <= 1e+06")

    def test_unparseable_transactions_file_is_one_error_line(self, tmp_path, capsys):
        # int(float("inf")) raised OverflowError, which main() does not catch
        data = tmp_path / "tx.csv"
        data.write_text("date,product,quantity\n2021-01-01,Boule 200g,inf\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "dataset_path": str(data)}))
        capsys.readouterr()
        assert main(["forecast", "--config", str(path), "--out", str(tmp_path / "fc")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "row 2" in err[0]

    def test_transactions_field_past_the_csv_limit_is_one_error_line(self, tmp_path, capsys):
        # csv.Error, which is no ValueError, was a traceback
        data = tmp_path / "tx.csv"
        data.write_text(f"date,product,quantity\n2021-01-01,{'x' * 200_000},1\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "dataset_path": str(data)}))
        capsys.readouterr()
        assert main(["forecast", "--config", str(path), "--out", str(tmp_path / "fc")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {data}: unreadable row 2: ")

    def test_fractional_quantity_is_one_error_line(self, tmp_path, capsys):
        # a quantity of 2.7 was truncated to 2 without a word
        data = tmp_path / "tx.csv"
        data.write_text("date,product,quantity\n2021-01-01,Boule 200g,2.7\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "dataset_path": str(data)}))
        capsys.readouterr()
        assert main(["forecast", "--config", str(path), "--out", str(tmp_path / "fc")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "row 2" in err[0]

    @pytest.mark.parametrize("override, named", [
        ({"source_days": 3000000}, "source_days + offline_horizon must be <= "),
        ({"offline_horizon": 3000000, "forecaster_epochs": 1},
         "source_days + offline_horizon must be <= "),
        # nine loaded days ending 9999-12-29, then five forecast days
        ({"dataset_path": "tx.csv"}, "offline_horizon 5 takes the 9 days of "),
    ])
    def test_days_past_the_last_date_fail_before_the_fit(self, tmp_path, capsys, monkeypatch,
                                                         override, named):
        # their dates overflowed in the history synthesis or, after the fit, in the rollout
        monkeypatch.setattr(bench, "train_forecaster",
                            lambda *a, **k: pytest.fail("the forecaster was fitted"))
        rows = [f"9999-12-{day},Boule 200g,3" for day in range(21, 30)]
        (tmp_path / "tx.csv").write_text("\n".join(["date,product,quantity", *rows]) + "\n")
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps({**TINY, **override}))
        assert main(["forecast", "--config", "config.json", "--out", "fc"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}")

    def test_a_history_reaching_december_9999_is_forecast(self, tmp_path, monkeypatch):
        # the features of a December day built date(10000, 1, 1) and ended the fit
        start = dt.date(9999, 11, 20)
        rows = [f"{start + dt.timedelta(days=i)},Boule 200g,{i % 5}" for i in range(35)]
        (tmp_path / "tx.csv").write_text("\n".join(["date,product,quantity", *rows]) + "\n")
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(
            {"dataset_path": "tx.csv", "offline_horizon": 3, "forecaster_epochs": 1}))
        assert main(["forecast", "--config", "config.json", "--out", "fc"]) == 0
        lines = Path("fc", "offline_demand.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "9999-12-25", "9999-12-26", "9999-12-27"]

    @pytest.mark.parametrize("rows, named", [
        # a year typed as 1900 among 20 days of 2021 was fitted as 44,000 days
        (["1900-01-01,Boule 200g,3", *(f"2021-01-{d:02},Boule 200g,3" for d in range(1, 21))],
         "error: tx.csv: rows for 'Boule 200g' jump from 1900-01-01 to 2021-01-01, "),
        # the fit named neither the file nor the window it was short of
        ([f"2021-01-0{d},Boule 200g,3" for d in range(1, 4)],
         "error: tx.csv holds 3 days of history; window 7 needs more than 8"),
    ], ids=["mistyped-year", "three-days"])
    def test_unusable_history_fails_before_the_fit(self, tmp_path, capsys, monkeypatch,
                                                   rows, named):
        monkeypatch.setattr(bench, "train_forecaster",
                            lambda *a, **k: pytest.fail("the forecaster was fitted"))
        (tmp_path / "tx.csv").write_text("\n".join(["date,product,quantity", *rows]) + "\n")
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps({**TINY, "dataset_path": "tx.csv"}))
        assert main(["forecast", "--config", "config.json", "--out", "fc"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(named)

    def test_forecast_writes_series(self, tiny_config, tmp_path):
        out = tmp_path / "fc"
        code = main([
            "forecast", "--config", tiny_config, "--out", str(out),
            "--horizon", "4", "--seed", "6",
        ])
        assert code == 0
        lines = (out / "offline_demand.csv").read_text().splitlines()
        assert len(lines) == 1 + 4

    def test_forecast_horizon_from_config(self, tiny_config, tmp_path):
        out = tmp_path / "fc"
        assert main(["forecast", "--config", tiny_config, "--out", str(out)]) == 0
        lines = (out / "offline_demand.csv").read_text().splitlines()
        assert len(lines) == 1 + TINY["offline_horizon"]


# what a hand-edited config might hold in the wrong place
ODD_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, True, False, None, "x", [1, 2], [0, 0, 1, 1],
    -1, -(2**40), 2**40, 2**63, 10**400,
])


def assert_runs_or_is_one_error_line(files: dict, argv: list) -> None:
    """main(argv) in a fresh temporary directory holding files (name: text
    or bytes) exits 0, or exits 1 with one stderr line, an error: line."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, content in files.items():
                Path(name).write_bytes(content if isinstance(content, bytes) else content.encode())
            # outside pytest a warning prints to stderr: count it as a line
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("error: ")), (
        code, lines
    )


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.sampled_from(sorted(f.name for f in dataclasses.fields(bench.ExperimentSpec))),
    ODD_VALUES, min_size=1, max_size=3,
))
# no demand and no stock: Q-learning costs nothing, a baseline that was a ZeroDivisionError
@example({"mu": 0.001, "sigma2": 1e-06, "initial_state": [0, 0, 0]})
def test_any_config_runs_or_is_one_error_line(override):
    # an out_dir or dataset_path of "x" is read or written in a temporary directory
    config = json.dumps({**TINY, "workers": 1, **override})
    assert_runs_or_is_one_error_line({"config.json": config}, ["table1", "--config", "config.json"])


# 27 states and 3 orders; a short test keeps an accepted Q-table cheap to evaluate
SMALL = json.dumps({"s_max": 2, "a_max": 2, "initial_state": [0, 0, 2], "test_days": 3})
QTABLE = {"shape": [27, 3], "alpha": 0.1, "gamma": 0.9, "values": [0.0] * 81}
# json.dumps writes nan and inf as the NaN and Infinity tokens json.load accepts
ODD_NUMBERS = st.sampled_from([
    math.nan, math.inf, -math.inf, 10**400, 2**63, -1, 0, 0.5, True, None, "1", [1], {},
])
QTABLE_PAYLOADS = st.builds(
    lambda shape, alpha, gamma, values, drop: {
        key: value for key, value in dict(shape=shape, alpha=alpha, gamma=gamma,
                                           values=values).items() if key != drop
    },
    st.one_of(st.just([27, 3]), ODD_NUMBERS, st.sampled_from(
        [[3, 27], [27], [27, 3, 1], [0, 3], [27.0, 3], [10**400, 3], "27x3"])),
    st.one_of(st.just(0.1), ODD_NUMBERS),
    st.one_of(st.just(0.9), ODD_NUMBERS),
    st.one_of(
        st.just([0.0] * 81),
        st.builds(lambda i, v: [0.0] * i + [v] + [0.0] * (80 - i), st.integers(0, 80), ODD_NUMBERS),
        st.lists(st.floats(-1e3, 1e3), min_size=80, max_size=82),
        ODD_NUMBERS,
    ),
    # most payloads keep every key
    st.sampled_from([None] * 4 + ["shape", "alpha", "gamma", "values"]),
)
QTABLE_TEXTS = st.one_of(
    st.builds(json.dumps, QTABLE_PAYLOADS),
    # nested past the decoder's recursion limit, or left open
    st.builds(lambda n, c: c * n, st.sampled_from([1, 50, 100_000]), st.sampled_from("[{")),
    st.sampled_from([
        "[]", "null", "1", '"qtable"', "",
        # an integer past the interpreter's digit limit for int()
        json.dumps(QTABLE).replace('"alpha": 0.1', '"alpha": ' + "9" * 5000),
        json.dumps(QTABLE).replace("0.0]", "1e400]"),
    ]),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(QTABLE_TEXTS)
def test_any_qtable_file_evaluates_or_is_one_error_line(text):
    assert_runs_or_is_one_error_line(
        {"small.json": SMALL, "q.json": text},
        ["evaluate", "--config", "small.json", "--qtable", "q.json"],
    )


HEADERS = st.sampled_from([
    "date,product,quantity", "\ufeffdate,product,quantity", "quantity,date,product",
    "date,product,quantity,quantity", "date,date,product,quantity", "date,product", "",
])
ODD_ROWS = st.builds(
    ",".join,
    st.lists(st.sampled_from([
        "2021-01-05", "0000-01-01", "10000-01-01", "2021-02-30", "9999-12-31", "Boule 200g",
        "Brötchen", "3", "0", "-1", "2.7", "1e400", "inf", "nan", "1e300", "9" * 30, "",
        "a\x00b", "x" * 200_000, '"2021-01-05', "\ufeff3",
    ]), max_size=4),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(HEADERS, st.integers(0, 30), st.lists(st.tuples(st.integers(0, 30), ODD_ROWS), max_size=2),
       st.sampled_from(["utf-8", "latin-1"]))
@example("\ufeffdate,product,quantity", 20, [], "utf-8")
@example("date,product,quantity", 20, [(3, "2021-01-05,Brötchen,1")], "latin-1")
@example("date,product,quantity", 20, [(3, "2021-01-05,a\x00b,1")], "utf-8")
@example("date,product,quantity", 20, [(3, "2021-01-05," + "x" * 200_000 + ",1")], "utf-8")
@example("date,product,quantity", 20, [(3, "2021-01-05,Boule 200g,1e400")], "utf-8")
@example("date,product,quantity", 20, [(3, "2021-01-05,Boule 200g,1,extra")], "utf-8")
def test_any_transactions_file_forecasts_or_is_one_error_line(header, days, odd, encoding):
    # days of rows in the header's columns from 2021-01-01, with odd rows
    # put in among them; in latin-1 an odd row's ö is not UTF-8
    rows = []
    for i in range(days):
        row = {"date": dt.date(2021, 1, 1) + dt.timedelta(i), "product": "Boule 200g",
               "quantity": i % 7}
        rows.append(",".join(str(row.get(name.lstrip("\ufeff"), "")) for name in header.split(",")))
    for at, row in odd:
        rows.insert(at, row)
    text = "\n".join([header, *rows]) + "\n"
    config = json.dumps({**TINY, "dataset_path": "tx.csv", "forecaster_epochs": 1})
    assert_runs_or_is_one_error_line(
        {"config.json": config, "tx.csv": text.encode(encoding, errors="replace")},
        ["forecast", "--config", "config.json", "--out", "fc"],
    )


def test_runs_without_scipy(tmp_path):
    """scipy is a test dependency: the experiments import and run without it,
    and a one-process run imports no process pool."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    script = f"""
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy fails
from coldstart_dynaq import cli
for command in ("table1", "scenario2", "fig3"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", {str(config)!r}, "--workers", "1"])
    assert code == 0, (command, code)
loaded = [m for m, module in sys.modules.items() if m.startswith("scipy") and module is not None]
assert loaded == [], loaded
# one process starts no pool, so nothing loads the pool's modules
pool = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
assert pool == [], pool
"""
    src = str(Path(bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
