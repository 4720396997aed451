"""The package keeps every name the benchmark harness resolves in it.

`benchmarks/run.py --trace 1` wraps each (module, function) pair of its
TRACED tuple, and every run looks names up in `bench`; a name deleted
from the package would make those runs fail with AttributeError. Its
TrainTimer reads attributes of each `bench.train` call's config and
result, so those must outlive a change to what `train` returns. The
file is parsed, not imported: importing it sets the BLAS thread
variables for the whole process.
"""

import ast
import functools
import importlib
from pathlib import Path

from coldstart_dynaq import bench

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"

# bench names run.py uses, some through getattr or inside a code string
BENCH_NAMES = (
    "train",
    "fit_forecaster",
    "make_warm_start",
    "run_table1",
    "run_scenario2",
    "TABLE1_PARAMS",
    "SCENARIO2_PARAMS",
    "SCENARIO_CONFIGS",
    "total_planning_steps",
    "ExperimentSpec",
)

TREE = ast.parse(RUN_PY.read_text())


def traced() -> tuple:
    for node in TREE.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {RUN_PY}")


def test_traced_functions_resolve():
    pairs = traced()
    assert pairs
    missing = [
        f"{module}.{name}" for module, name in pairs
        if not callable(getattr(importlib.import_module(f"coldstart_dynaq.{module}"), name, None))
    ]
    assert not missing


def test_bench_keeps_the_names_the_benchmark_uses():
    # every <...>.bench.<name> attribute run.py reads, and the listed ones
    read = {
        node.attr for node in ast.walk(TREE)
        if isinstance(node, ast.Attribute)
        and (isinstance(node.value, ast.Name) and node.value.id == "bench"
             or isinstance(node.value, ast.Attribute) and node.value.attr == "bench")
    }
    assert {"TABLE1_PARAMS", "train"} <= read
    assert sorted(name for name in read.union(BENCH_NAMES) if not hasattr(bench, name)) == []
    bench.ExperimentSpec().true_demand()


def _dotted(node) -> str | None:
    """The dotted path (a.b.c) of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_train_result_has_what_the_train_timer_reads(monkeypatch):
    timer = next(n for n in TREE.body if isinstance(n, ast.ClassDef) and n.name == "TrainTimer")
    read = {_dotted(n) for n in ast.walk(timer) if isinstance(n, ast.Attribute)}
    read = {d for d in read if d and d.split(".")[0] in ("agent", "config")}
    assert {"agent.planning_steps", "agent.model.visited", "config.episodes",
            "config.horizon"} <= read
    calls, train = [], bench.train

    def recording_train(config, *args, **kwargs):
        agent = train(config, *args, **kwargs)
        calls.append({"agent": agent, "config": config})
        return agent

    monkeypatch.setattr(bench, "train", recording_train)
    bench.run_table1(bench.ExperimentSpec(
        repetitions=1, train_episodes=1, horizon=3, test_days=1, algorithms=["dyna-q"],
    ))
    assert calls
    for names in calls:
        for dotted in sorted(read):
            root, *attrs = dotted.split(".")
            functools.reduce(getattr, attrs, names[root])
