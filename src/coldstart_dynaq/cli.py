"""Command-line entry point for the benchmark harness."""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .demand import save_series
from .env import DomainError
from .envmodel import VARIANTS, save_model
from .qcore import load_qtable, save_qtable


_SPEC_FIELDS = {f.name for f in dataclasses.fields(bench.ExperimentSpec)}

# Each flag sets the spec field named by its dest.
_FLAGS = {
    "--out": dict(dest="out_dir", help="output directory"),
    "--seed": dict(dest="master_seed", type=int, help="master seed"),
    "--workers": dict(type=int, help="parallel worker processes"),
    "--sigma2": dict(type=float, help="demand variance"),
    "--model": dict(dest="model_variant", choices=VARIANTS, help="model variant"),
    "--days": dict(dest="test_days", type=int, help="days per test run"),
    "--repetitions": dict(dest="test_repetitions", type=int, help="test runs"),
    "--horizon": dict(dest="offline_horizon", type=int, help="forecasted days"),
}


def _spec_from_args(args) -> bench.ExperimentSpec:
    """The spec from the flags given, then the config file, then the defaults."""
    values = {}
    if args.config:
        path = Path(args.config)
        # a missing file raises an OSError that names it, which main reports
        try:
            values = json.loads(path.read_text())
        # not UTF-8 text, not JSON, or nested past the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"unreadable config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise DomainError(f"config {path} must be a JSON object")
        unknown = set(values) - _SPEC_FIELDS
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
    values.update(
        (name, value) for name, value in vars(args).items()
        if name in _SPEC_FIELDS and value is not None
    )
    return bench.ExperimentSpec(**values)


def _add_flags(parser, *flags) -> None:
    parser.add_argument("--config", help="JSON config file overriding spec fields")
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def _cmd_experiment(runner):
    def handler(args):
        spec = _spec_from_args(args)
        result = runner(spec)
        report = result["report"]
        print(json.dumps(report, sort_keys=True, indent=2))
        if spec.out_dir:
            print(f"records written to {spec.out_dir}", file=sys.stderr)
        return 0

    return handler


def _cmd_train(args):
    """Train replication 0's configuration (args.algorithm, args.transfer)
    of a table1 run, and save the agent and its convergence data."""
    spec = _spec_from_args(args)
    transfer = args.transfer == "on"
    # record()'s last argument holds the configuration's one trained agent
    (agent,) = bench._replication(
        spec, lambda *fields: fields[-1][0], bench.TABLE1_PARAMS, [(args.algorithm, transfer)], 0,
        forecaster=bench.fit_forecaster(spec) if transfer else None,
    )
    out = Path(spec.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    save_qtable(agent.q, agent.alpha, agent.gamma, out / "qtable.json")
    save_model(agent.model, out / "model.npz")
    # convergence data: per-episode mean daily cost, and the
    # across-episode mean at each within-episode iteration index
    with open(out / "convergence_episodes.csv", "w") as fh:
        fh.write("episode,mean_daily_cost\n")
        for i, m in enumerate(agent.episode_metrics):
            fh.write(f"{i},{m.total_cost / spec.horizon:.6f}\n")
    daily = np.array([m.daily_costs for m in agent.episode_metrics])
    with open(out / "convergence_iterations.csv", "w") as fh:
        fh.write("iteration,mean_cost\n")
        for i, c in enumerate(daily.mean(axis=0)):
            fh.write(f"{i},{c:.6f}\n")
    print(f"trained {args.algorithm}; artifacts in {out}")
    return 0


def _cmd_evaluate(args):
    spec = _spec_from_args(args)
    q = load_qtable(args.qtable)
    report = bench.summarize(bench._test(spec, q, bench.derived_rng(spec.master_seed, 777)))
    del report["total_costs"]
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_forecast(args):
    spec = _spec_from_args(args)
    offline = bench.offline_series(spec, bench.fit_forecaster(spec), 0)
    out = Path(spec.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    save_series(offline, out / "offline_demand.csv", "forecasted")
    print(f"offline series of {len(offline)} days written to {out / 'offline_demand.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldstart-dynaq",
        description="Dyna-Q benchmarks for cold-start perishable-inventory control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, runner, doc in (
        ("table1", bench.run_table1, "train/test cost comparison across algorithms"),
        ("scenario1", bench.run_scenario1, "one-month training comparison"),
        ("scenario2", bench.run_scenario2, "one-month testing comparison"),
        ("fig3", bench.run_fig3, "transition-probability tracking"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_flags(p, "--out", "--seed", "--workers", "--sigma2", "--model")
        p.set_defaults(handler=_cmd_experiment(runner))

    p = sub.add_parser("train", help="train a single agent and save artifacts")
    _add_flags(p, "--out", "--seed", "--sigma2", "--model")
    p.add_argument("--algorithm", default="adjusted-dyna-q", choices=bench.ALGORITHMS)
    p.add_argument("--transfer", choices=("on", "off"), default="off")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved Q-table greedily")
    _add_flags(p, "--seed", "--sigma2", "--days", "--repetitions")
    p.add_argument("--qtable", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("forecast", help="train the forecaster and emit an offline series")
    _add_flags(p, "--out", "--seed", "--horizon")
    p.set_defaults(handler=_cmd_forecast)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
