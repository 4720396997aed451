"""Tiny-size smoke check of the benchmark.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "table1-tabular": {"train_episodes": 1, "horizon": 10, "test_days": 10},
    "table1-det-net": {"train_episodes": 1, "horizon": 10, "test_days": 10},
    "scenario2-mc-dropout": {
        "source_days": 40, "forecaster_epochs": 1, "offline_horizon": 3, "warm_epochs": 1,
    },
}


@pytest.fixture(scope="module")
def pkg():
    return run.Package()


def tiny_runner(pkg, name, out_dir, pinned=None):
    workload = run.WORKLOADS[name]
    tiny = run.Workload(f"{name}-tiny", workload.experiment, {**workload.spec, **TINY[name]})
    return run.Runner(pkg, tiny, 0, out_dir, pinned)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_reports_every_declared_metric_and_checks_pass(pkg, name, tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runner = tiny_runner(pkg, name, tmp_path)
    _, end_to_end = runner.untraced(0)
    _, layers = runner.traced(0)
    assert {"setup_s", *end_to_end} == {m["name"] for m in declared["end_to_end"]}
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    assert runner.check.attempted > 0 and runner.check.failed == 0
    # traced and untraced replications wrote byte-identical records
    assert len(set(runner.check.digests)) == 1
    assert layers["agents.train.calls"][0] == runner.check.count
    assert layers["env.step.calls"][0] > 0


def test_broken_records_fail(pkg, tmp_path):
    runner = tiny_runner(pkg, "table1-tabular", tmp_path)
    runner.replicate()
    good = (tmp_path / "table1_records.jsonl").read_bytes()
    records = [json.loads(line) for line in good.decode().splitlines()]

    def failed(mutate, pinned=None):
        check = run.RecordCheck(pkg, runner.workload, runner.spec, pinned)
        broken = [json.loads(json.dumps(r)) for r in records]
        mutate(broken[0])
        check("".join(json.dumps(r, sort_keys=True) + "\n" for r in broken).encode())
        return check.failed

    assert failed(lambda r: None) == 0
    assert failed(lambda r: r["train"].update(planning_steps=r["train"]["planning_steps"] + 1)) == 1
    assert failed(lambda r: r.update(avg_daily_cost=-1.0)) == 1
    assert failed(lambda r: r["train"]["episode_total_costs"].append(float("nan"))) == 1
    assert failed(lambda r: r["train"].update(shortage_percentage=1.5)) == 1
    assert failed(lambda r: None, pinned="0" * 64) == len(records)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "table1-tabular",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
