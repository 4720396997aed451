"""Experiment harness: algorithm comparisons, the two one-month scenarios,
and transition-probability tracking, with reproducible record files.

Every run's randomness derives from the master seed through spawn keys, so
adding runs never changes the randomness of existing ones. Record files
(JSON lines + CSV) contain only deterministic quantities; wall-clock
timings go to a separate sidecar since they are hardware-dependent. The
testable surrogate for training time is the cumulative planning-step
count, which is a deterministic function of the schedules.
"""

import csv
import datetime as dt
import json
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .agents import AgentConfig, Learner, RunMetrics, evaluate, train
from .demand import (
    DemandDistribution,
    DemandSeries,
    days_from,
    discretized_gamma,
    load_transactions,
    synthesize_history,
)
from .env import CostParams, DomainError, InventoryState, is_finite_real, state_index
from .envmodel import ModelSpaces, UnvisitedPairError, check_options, transition_prob
from .forecast import WINDOW, Forecaster, build_warm_start, generate_offline, train_forecaster
from .schedule import StcSchedule, constant, stc_steps

ALGORITHMS = ("q-learning", "dyna-q", "adjusted-dyna-q")

# The five benchmark configurations compared in the one-month scenarios.
SCENARIO_CONFIGS = (
    ("adjusted-dyna-q", True),
    ("adjusted-dyna-q", False),
    ("dyna-q", True),
    ("dyna-q", False),
    ("q-learning", False),
)

# A scenario's cold-start month, and the greedy tests scenario2 runs on it.
MONTH_DAYS = 30
MONTH_TESTS = 100

# Spec fields that must be at least 1: each counts workers, runs, days or epochs.
# A mean over zero runs or days is 0/0, and zero epochs would report transfer
# results from an untrained forecaster or an empty warm start.
_COUNTS = ("repetitions", "workers", "train_episodes", "horizon", "test_days",
           "test_repetitions", "offline_horizon", "forecaster_epochs", "warm_epochs")

# More worker processes than this is a config error, not a machine size.
MAX_WORKERS = 64

# Size caps, checked before any work starts. Day-table entries are counted
# as (s_max+1)^3 states x (a_max+1) orders x (d_max+1) demands (the default
# spec has 161,051), which also bounds the (s_max+1)^3 x (a_max+1) Q-table.
# The day tables keep only the (s_max+1)^2 rows of the live buckets, at
# most 12 bytes an entry, so they stay (s_max+1) times below 240 MB.
# Simulated days are the most any command takes from the spec: table1's
# training and tests, or a scenario month's and its warm start's replay
# (the default spec has 606,000).
MAX_DAY_TABLE_ENTRIES = 2 * 10**7
MAX_SIMULATED_DAYS = 10**10

# The first day of the synthetic source history, and the Gamma mean and
# variance of its demand, the similar product's.
HISTORY_START = dt.date(2021, 1, 1)
SOURCE_MEAN, SOURCE_VAR = 4.48, 5.0

# The discount of every experiment's learners.
GAMMA = 0.9


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# A spec field's annotation -> the test its value must pass, and how that reads.
_KINDS = {
    int: (_is_int, "an integer"),
    float: (is_finite_real, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    str | None: (lambda v: v is None or isinstance(v, str), "a string or null"),
}

# Averaged over replications in the scenario reports, in their CSV column order.
_SCENARIO_STATS = ("avg_total_cost", "shortage_percentage", "avg_holding", "total_cost_variance")

# Monitored transition for probability tracking: post-sale stock (0,0,3), order 2,
# demand 2 lands in (0,1,2).
PROBE_STATE = InventoryState(0, 0, 3)
PROBE_ORDER = 2
PROBE_NEXT = InventoryState(0, 1, 2)
PROBE_DEMAND_CLASS = 2


@dataclass
class ScheduleParams:
    alpha: float
    eps0: float
    eps_min: float
    eps_smoothing: float
    n0: float
    n_min: float
    n_smoothing: float


TABLE1_PARAMS = ScheduleParams(0.3, 0.4, 0.1, 7500.0, 100.0, 10.0, 5000.0)
SCENARIO1_PARAMS = ScheduleParams(0.1, 0.4, 0.0, 1000.0, 100.0, 0.0, 1000.0)
SCENARIO2_PARAMS = ScheduleParams(0.1, 0.3, 0.1, 1000.0, 20.0, 10.0, 1000.0)


@dataclass
class ExperimentSpec:
    name: str = "experiment"
    out_dir: str | None = None
    master_seed: int = 0
    workers: int = 1

    mu: float = 5.0
    sigma2: float = 5.0
    d_max: int = 10
    cost_params: CostParams = field(default_factory=CostParams)
    s_max: int = 10
    a_max: int = 10
    initial_state: InventoryState = field(default_factory=lambda: InventoryState(0, 0, 5))

    model_variant: str = "tabular"
    algorithms: tuple = ("adjusted-dyna-q", "dyna-q", "q-learning")
    repetitions: int = 20
    train_episodes: int = 100
    horizon: int = 100
    test_days: int = 100
    test_repetitions: int = 1

    # transfer-learning source product (synthetic stand-in by default)
    dataset_path: str | None = None
    product_name: str = "Boule 200g"
    source_days: int = 500
    forecaster_epochs: int = 200
    offline_horizon: int = 10
    warm_epochs: int = 50

    def __post_init__(self):
        """Check every field, so a bad config fails with one DomainError before
        any worker process starts. JSON lists become the cost parameters, the
        initial state and the algorithm tuple."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _KINDS and not _KINDS[f.type][0](value):
                raise DomainError(f"{f.name} must be {_KINDS[f.type][1]}, got {value!r}")
        low = {name: getattr(self, name) for name in _COUNTS if getattr(self, name) < 1}
        if low:
            raise DomainError(f"need {', '.join(f'{n} >= 1' for n in _COUNTS)}, got {low}")
        # SeedSequence would refuse it only inside a worker, without the field's name
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers > MAX_WORKERS:
            raise DomainError(f"workers must be <= {MAX_WORKERS}, got {self.workers}")
        if self.dataset_path is None and self.source_days <= WINDOW + 1:
            raise DomainError(f"source_days must be > forecast.WINDOW + 1 = {WINDOW + 1}, "
                              f"got {self.source_days}")
        # the offline days follow the history, and every day needs a date
        room = days_from(HISTORY_START)
        if self.dataset_path is None and self.source_days + self.offline_horizon > room:
            raise DomainError(f"source_days + offline_horizon must be <= {room}, the days from "
                              f"{HISTORY_START} to {dt.date.max}, got {self.source_days} + "
                              f"{self.offline_horizon}")
        self.cost_params = _from_list(CostParams, self.cost_params, "cost_params")
        self.initial_state = _from_list(InventoryState, self.initial_state, "initial_state")
        if not all(_is_int(v) and 0 <= v <= self.s_max for v in astuple(self.initial_state)):
            raise DomainError(
                f"initial_state must be 3 integers in [0, {self.s_max}], got {self.initial_state}"
            )
        # a repeated name would train its configuration twice into one report row
        if not isinstance(self.algorithms, (list, tuple)) or not self.algorithms or not all(
            a in ALGORITHMS for a in self.algorithms
        ) or len(set(self.algorithms)) < len(self.algorithms):
            raise DomainError(
                f"algorithms must be a non-empty subset of {ALGORITHMS}, got {self.algorithms!r}"
            )
        self.algorithms = tuple(self.algorithms)
        check_options(self.spaces(), self.model_variant)
        entries = (self.s_max + 1) ** 3 * (self.a_max + 1) * (self.d_max + 1)
        if entries > MAX_DAY_TABLE_ENTRIES:
            raise DomainError(
                f"s_max, a_max and d_max give {entries} day-table entries, "
                f"more than MAX_DAY_TABLE_ENTRIES = {MAX_DAY_TABLE_ENTRIES}"
            )
        table1 = len(self.algorithms) * (
            self.train_episodes * self.horizon + self.test_days * self.test_repetitions
        )
        month = (len(SCENARIO_CONFIGS) * MONTH_DAYS * max(self.train_episodes, 1 + MONTH_TESTS)
                 + self.warm_epochs * self.offline_horizon)
        days = self.repetitions * max(table1, month)
        if days > MAX_SIMULATED_DAYS:
            raise DomainError(
                "repetitions, algorithms, train_episodes, horizon, test_days, "
                f"test_repetitions, warm_epochs and offline_horizon give {days} simulated "
                f"days, more than MAX_SIMULATED_DAYS = {MAX_SIMULATED_DAYS}"
            )
        try:
            self.true_demand()
        except DomainError as e:
            raise DomainError(f"mu {self.mu!r} and sigma2 {self.sigma2!r} "
                              f"give no demand pmf: {e}") from None

    def spaces(self) -> ModelSpaces:
        return ModelSpaces(
            cost_params=self.cost_params,
            s_max=self.s_max,
            a_max=self.a_max,
            d_max=self.d_max,
        )

    def true_demand(self) -> DemandDistribution:
        return discretized_gamma(self.mu, self.sigma2, self.d_max)


def _from_list(cls, value, name: str):
    """value if it is a cls, else a cls built from a list of its fields."""
    if isinstance(value, (list, tuple)) and len(value) == len(fields(cls)):
        return cls(*value)
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a list of {len(fields(cls))} values, got {value!r}")
    return value


def seed_int(master_seed: int, *key: int) -> int:
    """Stable per-run integer seed derived from the master seed."""
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1)[0])


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def schedules(params: ScheduleParams, algorithm: str) -> tuple[StcSchedule, StcSchedule]:
    """An algorithm's (epsilon, planning) schedules: adjusted Dyna-Q decays
    both via STC, classic Dyna-Q holds the initial values constant, and
    Q-learning never plans."""
    if algorithm == "adjusted-dyna-q":
        return (StcSchedule(params.eps0, params.eps_min, params.eps_smoothing),
                StcSchedule(params.n0, params.n_min, params.n_smoothing))
    return constant(params.eps0), constant(params.n0 if algorithm == "dyna-q" else 0.0)


def total_planning_steps(plan: StcSchedule, steps: int) -> int:
    """Deterministic cumulative planning-step count over a horizon."""
    return sum(stc_steps(plan, t) for t in range(steps))


def source_series(spec: ExperimentSpec):
    """Demand history of the similar existing product: real transactions if
    a dataset path is configured, synthetic draws otherwise."""
    if spec.dataset_path is not None:
        return load_transactions(spec.dataset_path, spec.product_name)
    dist = discretized_gamma(SOURCE_MEAN, SOURCE_VAR, spec.d_max)
    rng = derived_rng(spec.master_seed, 90001)
    return synthesize_history(dist, spec.source_days, HISTORY_START, rng)


def fit_forecaster(spec: ExperimentSpec) -> Forecaster:
    history = source_series(spec)
    # the spec checks a synthetic history's length and calendar; a loaded one is checked here
    if len(history) <= WINDOW + 1:
        raise DomainError(f"{spec.dataset_path} holds {len(history)} days of history; "
                          f"window {WINDOW} needs more than {WINDOW + 1}")
    if len(history) + spec.offline_horizon > days_from(history.start):
        raise DomainError(f"offline_horizon {spec.offline_horizon} takes the {len(history)} days "
                          f"of {spec.dataset_path} from {history.start} past {dt.date.max}")
    return train_forecaster(
        history,
        epochs=spec.forecaster_epochs,
        rng=derived_rng(spec.master_seed, 90002),
        d_max=spec.d_max,
    )


def offline_series(spec: ExperimentSpec, forecaster: Forecaster, rep: int) -> DemandSeries:
    """Replication rep's offline_horizon forecasted days, from the day after the history."""
    return generate_offline(
        forecaster, h=spec.offline_horizon, rng=derived_rng(spec.master_seed, 90003, rep)
    )


def make_warm_start(
    spec: ExperimentSpec, forecaster: Forecaster, params: ScheduleParams, rep: int
) -> Learner:
    return build_warm_start(
        offline_series(spec, forecaster, rep),
        spec.spaces(),
        alpha=params.alpha,
        gamma=GAMMA,
        epochs=spec.warm_epochs,
        model_variant=spec.model_variant,
        initial_state=spec.initial_state,
        seed=seed_int(spec.master_seed, 90004, rep),
    )


def summarize(runs: list[RunMetrics]) -> dict:
    """Cost, shortage and holding statistics over episodes or test runs."""
    totals = [m.total_cost for m in runs]
    return {
        "avg_total_cost": float(np.mean(totals)),
        "total_costs": [round(t, 10) for t in totals],
        "shortage_percentage": float(np.mean([m.shortage_fraction for m in runs])),
        "avg_holding": float(np.mean([m.avg_holding for m in runs])),
        "total_cost_variance": float(np.var(totals, ddof=1)) if len(totals) > 1 else 0.0,
    }


def _test(spec: ExperimentSpec, q: list, rng: np.random.Generator) -> list[RunMetrics]:
    """test_repetitions runs of test_days days of q's greedy policy."""
    return evaluate(
        q, spec.true_demand(), spec.spaces(), spec.initial_state,
        spec.test_days, spec.test_repetitions, rng,
    )


# ----------------------------------------------------------- replications


def _replication(spec: ExperimentSpec, record, params: ScheduleParams, configs, rep: int, *,
                 runs=((),), forecaster: Forecaster | None = None,
                 probe: bool = False) -> list[dict]:
    """Train every (algorithm, transfer) configuration of replication rep.

    Configuration j trains one agent per key in runs, seeded by (rep, j,
    *key), each observed by a _Probe of its own when probe is set. With a
    forecaster, one warm start per replication seeds every transfer
    configuration. record(spec, rep, j, algorithm, transfer, agents) turns
    configuration j into its record.
    """
    demand_dist, spaces = spec.true_demand(), spec.spaces()
    warm = None if forecaster is None else make_warm_start(spec, forecaster, params, rep)
    records = []
    for j, (algorithm, transfer) in enumerate(configs):
        eps, plan = schedules(params, algorithm)
        agents = []
        for key in runs:
            config = AgentConfig(
                params.alpha, GAMMA, eps, plan, spec.model_variant,
                warm if transfer else None, spec.horizon, spec.train_episodes,
                seed_int(spec.master_seed, rep, j, *key),
            )
            observer = _Probe(spaces, config.seed) if probe else None
            agents.append(train(config, demand_dist, spaces, spec.initial_state, observer=observer))
        records.append(record(spec, rep, j, algorithm, transfer, agents))
    return records


def _map_reps(spec: ExperimentSpec, record, params: ScheduleParams, configs, **kw) -> list[dict]:
    """Every replication's records in order, from at most spec.workers
    processes and never more than there are replications."""
    one_rep = partial(_replication, spec, record, params, configs, **kw)
    reps = range(spec.repetitions)
    workers = min(spec.workers, spec.repetitions)
    if workers > 1:
        # imported only here: the pool loads multiprocessing, which one process never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(one_rep, reps))
    else:
        nested = map(one_rep, reps)
    return [r for group in nested for r in group]


def _record(experiment, spec, rep, algorithm, agents) -> dict:
    """The fields every trained configuration's record shares."""
    episodes = [m for a in agents for m in a.episode_metrics]
    stats = summarize(episodes)
    stats["episode_total_costs"] = stats.pop("total_costs")
    stats["planning_steps"] = sum(a.planning_steps for a in agents)
    return {
        "experiment": experiment,
        "replication": rep,
        "algorithm": algorithm,
        "sigma2": spec.sigma2,
        "model_variant": spec.model_variant,
        "train": stats,
        "wall_train_seconds": float(sum(m.wall_seconds for m in episodes)),
    }


# ---------------------------------------------------------------- table 1


def _table1_record(spec, rep, j, algorithm, transfer, agents) -> dict:
    # same test demand stream for every algorithm: paired comparison
    test = _test(spec, agents[0].q, derived_rng(spec.master_seed, rep, 500))
    record = _record("table1", spec, rep, algorithm, agents)
    record["avg_daily_cost"] = float(np.mean([m.total_cost / spec.test_days for m in test]))
    return record


def run_table1(spec: ExperimentSpec) -> dict:
    """Train/test comparison of the configured algorithms at one sigma^2."""
    configs = [(algorithm, False) for algorithm in spec.algorithms]
    records = _map_reps(spec, _table1_record, TABLE1_PARAMS, configs)

    cost = {a: float(np.mean([r["avg_daily_cost"] for r in records if r["algorithm"] == a]))
            for a in spec.algorithms}
    # deterministic, so every replication's count is the same
    steps = {r["algorithm"]: r["train"]["planning_steps"] for r in records}
    summary = {a: {} for a in spec.algorithms}
    for name, values, baseline, improvement in (
        ("mean_daily_cost", cost, "q-learning", "cost_improvement_vs_qlearning"),
        ("planning_steps", steps, "dyna-q", "planning_improvement_vs_dynaq"),
    ):
        base = values.get(baseline)
        for a, stats in summary.items():
            stats[name] = values[a]
            # relative improvement, (baseline - value) / baseline, where the
            # baseline algorithm ran and its value is nonzero
            if base:
                stats[improvement] = (base - values[a]) / base
    report = {"experiment": "table1", "spec_name": spec.name, "summary": summary}
    rows = [_table_row({"algorithm": algorithm, "sigma2": spec.sigma2,
                        "model": spec.model_variant}, stats)
            for algorithm, stats in summary.items()]
    _emit(spec, records, report, rows)
    return {"records": records, "report": report}


# ------------------------------------------------------------- scenarios


def _scenario1_record(spec, rep, j, algorithm, transfer, agents) -> dict:
    return {**_record("scenario1", spec, rep, algorithm, agents), "transfer": transfer}


def _scenario2_record(spec, rep, j, algorithm, transfer, agents) -> dict:
    test = _test(spec, agents[0].q, derived_rng(spec.master_seed, rep, 500, j))
    record = _record("scenario2", spec, rep, algorithm, agents)
    return {**record, "transfer": transfer, "test": summarize(test)}


def _run_scenario(spec: ExperimentSpec, params: ScheduleParams, testing: bool) -> dict:
    """One harness replication trains each configuration from scratch for
    a single cold-start month: horizon steps, all the history a newly
    launched product has. Scenario 1 repeats that training train_episodes
    times independently and reports statistics across the runs; scenario
    2 trains once and tests the greedy policy test_repetitions times.
    """
    runs = [(i,) for i in range(1 if testing else spec.train_episodes)]
    spec = replace(spec, train_episodes=1, horizon=MONTH_DAYS, test_days=MONTH_DAYS,
                   test_repetitions=MONTH_TESTS)
    experiment, key = ("scenario2", "test") if testing else ("scenario1", "train")
    records = _map_reps(
        spec, _scenario2_record if testing else _scenario1_record, params, SCENARIO_CONFIGS,
        runs=runs, forecaster=fit_forecaster(spec),
    )
    summary, rows = {}, []
    for algorithm, transfer in SCENARIO_CONFIGS:
        group = [
            r[key] for r in records if r["algorithm"] == algorithm and r["transfer"] == transfer
        ]
        stats = {name: float(np.mean([g[name] for g in group])) for name in _SCENARIO_STATS}
        summary[f"{algorithm}|transfer={transfer}"] = stats
        rows.append(_table_row({"algorithm": algorithm, "transfer": transfer, "phase": key}, stats))
    report = {"experiment": experiment, "spec_name": spec.name, "summary": summary}
    _emit(spec, records, report, rows)
    return {"records": records, "report": report}


def run_scenario1(spec: ExperimentSpec) -> dict:
    """Training-month comparison of the five configurations (cost, shortage,
    holding, across-episode cost variance)."""
    return _run_scenario(spec, SCENARIO1_PARAMS, testing=False)


def run_scenario2(spec: ExperimentSpec) -> dict:
    """Scenario-1-style training then a 30-day greedy test repeated 100x."""
    return _run_scenario(spec, SCENARIO2_PARAMS, testing=True)


# ----------------------------------------------------------------- fig 3


class _Probe:
    """Fig3's observer: the model's probability of the monitored transition
    after every real step (None while its pair is unvisited). An MC-dropout
    read draws from stream 4 of the agent's seed, which train leaves unused,
    so probing never changes what is learned."""

    def __init__(self, spaces: ModelSpaces, seed: int):
        self.pair = (state_index(PROBE_STATE, spaces.s_max), PROBE_ORDER,
                     state_index(PROBE_NEXT, spaces.s_max))
        self.rng = derived_rng(seed, 4)
        self.trace = []

    def __call__(self, learner: Learner, s: int, a: int, s_next: int, cost: float) -> None:
        try:
            self.trace.append(transition_prob(learner.model, *self.pair, self.rng))
        except UnvisitedPairError:
            self.trace.append(None)


def _fig3_record(spec, rep, j, algorithm, transfer, agents) -> dict:
    return {
        "experiment": "fig3",
        "replication": rep,
        "algorithm": algorithm,
        "transfer": transfer,
        "trace": [None if p is None else round(p, 12) for p in agents[0].observer.trace],
    }


def run_fig3(spec: ExperimentSpec) -> dict:
    """Per-iteration model estimates of the monitored transition, plus the
    true probability line from the discretized-Gamma pmf."""
    # checked before the forecaster fit: a probe outside the bounds would
    # fail in a worker, or never be visited and trace nothing but None
    need = {"s_max": max(astuple(PROBE_STATE) + astuple(PROBE_NEXT)),
            "a_max": PROBE_ORDER, "d_max": PROBE_DEMAND_CLASS}
    got = {name: getattr(spec, name) for name in need}
    if any(got[name] < bound for name, bound in need.items()):
        bounds = ", ".join(f"{name} >= {bound}" for name, bound in need.items())
        raise DomainError(f"fig3's probe transition needs {bounds}, got {got}")
    spec = replace(spec, train_episodes=1, horizon=MONTH_DAYS)
    records = _map_reps(
        spec, _fig3_record, SCENARIO2_PARAMS, SCENARIO_CONFIGS,
        forecaster=fit_forecaster(spec), probe=True,
    )
    true_value = float(spec.true_demand().pmf[PROBE_DEMAND_CLASS])
    report = {
        "experiment": "fig3",
        "spec_name": spec.name,
        "true_probability": true_value,
        "iterations": spec.horizon,
    }
    rows = []
    for r in records:
        for it, p in enumerate(r["trace"]):
            rows.append({
                "replication": r["replication"],
                "algorithm": r["algorithm"],
                "transfer": r["transfer"],
                "iteration": it + 1,
                "estimate": "" if p is None else f"{p:.6f}",
                "true_probability": f"{true_value:.6f}",
            })
    _emit(spec, records, report, rows)
    return {"records": records, "report": report, "true_probability": true_value}


# ------------------------------------------------------------- plumbing


def _table_row(head: dict, stats: dict) -> dict:
    """A summary CSV row: head's fields as they are, then stats' floats to 4
    decimals and its ints as they are."""
    return {**head, **{k: f"{v:.4f}" if isinstance(v, float) else v for k, v in stats.items()}}


def _strip_timings(record: dict) -> dict:
    return {k: v for k, v in record.items() if not k.startswith("wall_")}


def _emit(spec: ExperimentSpec, records, report, table_rows) -> None:
    if not spec.out_dir:  # None, or an empty --out
        return
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = report["experiment"]
    with open(out / f"{prefix}_records.jsonl", "w") as fh:
        for record in records:
            fh.write(json.dumps(_strip_timings(record), sort_keys=True) + "\n")
    with open(out / f"{prefix}_report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / f"{prefix}_summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table_rows[0]))
        writer.writeheader()
        writer.writerows(table_rows)
    timings = [
        {"replication": r.get("replication"), "algorithm": r.get("algorithm"),
         "wall_train_seconds": r.get("wall_train_seconds")}
        for r in records if "wall_train_seconds" in r
    ]
    if timings:
        with open(out / f"{prefix}_timings.json", "w") as fh:
            json.dump(timings, fh, indent=2)
            fh.write("\n")
