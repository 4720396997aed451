"""Command-line entry point for the benchmark harness."""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .agents import evaluate
from .demand import save_series
from .env import CostParams, InventoryState
from .envmodel import VARIANTS, save_model
from .qcore import load_qtable, save_qtable


def _spec_from_args(args) -> bench.ExperimentSpec:
    spec = bench.ExperimentSpec()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise SystemExit(f"config file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"unreadable config {path}: {exc}")
        if "cost_params" in overrides:
            overrides["cost_params"] = CostParams(*overrides["cost_params"])
        if "initial_state" in overrides:
            overrides["initial_state"] = InventoryState(*overrides["initial_state"])
        if "algorithms" in overrides:
            overrides["algorithms"] = tuple(overrides["algorithms"])
        known = {f.name for f in dataclasses.fields(bench.ExperimentSpec)}
        unknown = set(overrides) - known
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        spec = dataclasses.replace(spec, **overrides)
    if getattr(args, "out", None):
        spec = dataclasses.replace(spec, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        spec = dataclasses.replace(spec, master_seed=args.seed)
    if getattr(args, "workers", None) is not None:
        spec = dataclasses.replace(spec, workers=args.workers)
    if getattr(args, "sigma2", None) is not None:
        spec = dataclasses.replace(spec, sigma2=args.sigma2)
    if getattr(args, "model", None) is not None:
        spec = dataclasses.replace(spec, model_variant=args.model)
    return spec


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON config file overriding spec fields")
    parser.add_argument("--out", help="output directory for reports and records")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    parser.add_argument("--sigma2", type=float, help="demand variance")
    parser.add_argument("--model", choices=VARIANTS, help="model variant")


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
    save_qtable(agent.q, out / "qtable.json")
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
    results = evaluate(
        load_qtable(args.qtable), spec.true_demand(), spec.spaces(), spec.initial_state,
        args.days, args.repetitions,
        bench.derived_rng(spec.master_seed, 777),
    )
    report = bench.summarize(results)
    del report["total_costs"]
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_forecast(args):
    spec = dataclasses.replace(_spec_from_args(args), offline_horizon=args.horizon)
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
        _add_common(p)
        p.set_defaults(handler=_cmd_experiment(runner))

    p = sub.add_parser("train", help="train a single agent and save artifacts")
    _add_common(p)
    p.add_argument("--algorithm", default="adjusted-dyna-q", choices=bench.ALGORITHMS)
    p.add_argument("--transfer", choices=("on", "off"), default="off")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved Q-table greedily")
    _add_common(p)
    p.add_argument("--qtable", required=True)
    p.add_argument("--days", type=int, default=100)
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("forecast", help="train the forecaster and emit an offline series")
    _add_common(p)
    p.add_argument("--horizon", type=int, default=10)
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


if __name__ == "__main__":
    sys.exit(main())
