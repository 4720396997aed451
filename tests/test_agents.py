import datetime as dt
import math
import operator
import warnings
from bisect import bisect_right
from functools import reduce

import numpy as np
import pytest

from coldstart_dynaq import bench
from coldstart_dynaq.agents import AgentConfig, evaluate, rollout, train
from coldstart_dynaq.demand import DemandSeries, discretized_gamma, synthesize_history
from coldstart_dynaq.env import (
    COST_MAX,
    CostParams,
    DomainError,
    InventoryState,
    day_tables,
    state_index,
)
from coldstart_dynaq.envmodel import EnvModel, ModelSpaces
from coldstart_dynaq.forecast import WARM_EPSILON, build_warm_start
from coldstart_dynaq.qcore import greedy_policy, q_update
from coldstart_dynaq.schedule import StcSchedule, constant
from helpers import parameters, point_mass, reference_train, reference_warm_start

SPACES = ModelSpaces(CostParams(), s_max=10, a_max=10, d_max=10)
S0 = InventoryState(0, 0, 5)


def q_learning_config(**kw):
    base = dict(
        epsilon_schedule=constant(0.4),
        planning_schedule=constant(0.0),
        horizon=30,
        episodes=5,
        seed=0,
    )
    base.update(kw)
    return AgentConfig(**base)


def adjusted_config(**kw):
    base = dict(
        epsilon_schedule=StcSchedule(0.4, 0.1, 7500.0),
        planning_schedule=StcSchedule(100.0, 10.0, 5000.0),
        horizon=30,
        episodes=5,
        seed=0,
    )
    base.update(kw)
    return AgentConfig(**base)


class TestConfigValidation:
    # bench.schedules owns the algorithm -> (epsilon, planning) rule the agents are built with
    PARAMS = (bench.TABLE1_PARAMS, bench.SCENARIO1_PARAMS, bench.SCENARIO2_PARAMS)

    def test_q_learning_must_not_plan(self):
        for p in self.PARAMS:
            eps, plan = bench.schedules(p, "q-learning")
            assert (eps, plan) == (constant(p.eps0), constant(0.0))
        agent = train(q_learning_config(epsilon_schedule=eps, planning_schedule=plan),
                      discretized_gamma(5.0, 5.0, 10), SPACES, S0)
        assert agent.planning_steps == 0

    def test_classic_requires_constant_schedules(self):
        for p in self.PARAMS:
            assert bench.schedules(p, "dyna-q") == (constant(p.eps0), constant(p.n0))


class TestTrain:
    def test_zero_planning_equals_q_learning(self):
        # adjusted Dyna-Q degenerates to Q-learning when planning is off
        dist = discretized_gamma(5.0, 5.0, 10)
        ref = train(q_learning_config(), dist, SPACES, S0)
        degenerate = AgentConfig(
            epsilon_schedule=constant(0.4),
            planning_schedule=constant(0.0),
            horizon=30,
            episodes=5,
            seed=0,
        )
        alt = train(degenerate, dist, SPACES, S0)
        assert ref.q == alt.q

    def test_zero_demand_optimum_is_no_order(self):
        dist = point_mass(0, 10)
        agent = train(adjusted_config(episodes=30, seed=1), dist, SPACES, InventoryState(0, 0, 0))
        empty = state_index(InventoryState(0, 0, 0), 10)
        assert greedy_policy(agent.q)[empty] == 0

    def test_metrics_shape(self):
        dist = discretized_gamma(5.0, 3.0, 10)
        agent = train(q_learning_config(episodes=4), dist, SPACES, S0)
        assert len(agent.episode_metrics) == 4
        for m in agent.episode_metrics:
            assert len(m.daily_costs) == 30
            assert 0.0 <= m.shortage_fraction <= 1.0
            assert m.avg_holding >= 0.0

    def test_determinism_per_seed(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        a = train(adjusted_config(seed=5), dist, SPACES, S0)
        b = train(adjusted_config(seed=5), dist, SPACES, S0)
        assert a.q == b.q
        assert a.planning_steps == b.planning_steps
        assert [m.total_cost for m in a.episode_metrics] == [
            m.total_cost for m in b.episode_metrics
        ]

    def test_planning_does_not_consume_env_randomness(self):
        # identical env demand stream whether or not planning happens
        dist = discretized_gamma(5.0, 5.0, 10)
        greedy_eps = constant(0.0)
        no_plan = AgentConfig(
            epsilon_schedule=greedy_eps,
            planning_schedule=constant(0.0), horizon=30, episodes=1, seed=3,
        )
        with_plan = AgentConfig(
            epsilon_schedule=greedy_eps,
            planning_schedule=constant(3.0), horizon=30, episodes=1, seed=3,
        )
        a = train(no_plan, dist, SPACES, S0)
        b = train(with_plan, dist, SPACES, S0)
        # greedy on an initially-zero Q with random tie-break uses the
        # exploration stream identically; demand draws must then coincide,
        # giving identical realized cost whenever actions coincide day 1
        assert a.episode_metrics[0].daily_costs[0] == b.episode_metrics[0].daily_costs[0]

    def test_planning_only_uses_observed_pairs(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        agent = train(adjusted_config(episodes=2, seed=7), dist, SPACES, S0)
        # the model's memory holds only real observations by construction;
        # planning raised no UnvisitedPairError during training
        assert len(agent.model.visited) > 0
        assert agent.planning_steps > 0

    def test_adjusted_plans_less_than_classic(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        adjusted = train(adjusted_config(episodes=10, seed=2), dist, SPACES, S0)
        classic = AgentConfig(
            epsilon_schedule=constant(0.4),
            planning_schedule=constant(100.0), horizon=30, episodes=10, seed=2,
        )
        classic_agent = train(classic, dist, SPACES, S0)
        assert adjusted.planning_steps < classic_agent.planning_steps

    def test_warm_start_changes_initialization_only(self):
        # a warm start equal to the cold state reproduces cold trajectories
        dist = discretized_gamma(5.0, 5.0, 10)
        cold = train(adjusted_config(seed=9), dist, SPACES, S0)
        offline = synthesize_history(point_mass(4, 10), 5, dt.date(2021, 1, 1),
                                     np.random.default_rng(0))
        warm = build_warm_start(offline, SPACES, epochs=1, seed=0)
        warm.q = [[0.0] * len(row) for row in warm.q]
        warm.model = EnvModel(SPACES)
        warmed = train(adjusted_config(seed=9, warm_start=warm), dist, SPACES, S0)
        assert cold.q == warmed.q
        assert [m.total_cost for m in cold.episode_metrics] == [
            m.total_cost for m in warmed.episode_metrics
        ]

    def test_refuses_a_warm_start_of_another_model_variant(self):
        # a tabular warm start once seeded a det-net configuration with its tabular model
        offline = synthesize_history(point_mass(4, 10), 5, dt.date(2021, 1, 1),
                                     np.random.default_rng(0))
        warm = build_warm_start(offline, SPACES, epochs=1, seed=0)
        config = q_learning_config(model_variant="det-net", warm_start=warm)
        with pytest.raises(DomainError, match="tabular model .* cannot seed a det-net model"):
            train(config, discretized_gamma(5.0, 5.0, 10), SPACES, S0)

    def test_refuses_a_warm_start_of_other_spaces(self):
        # a warm start at cs 1.0 once recovered the demands of cs 5.0 training on its own tables
        offline = synthesize_history(point_mass(4, 10), 5, dt.date(2021, 1, 1),
                                     np.random.default_rng(0))
        warm = build_warm_start(offline, SPACES, epochs=1, seed=0)
        spaces = ModelSpaces(CostParams(cs=5.0), s_max=10, a_max=10, d_max=10)
        with pytest.raises(DomainError, match=r"cs=1\.0.* cannot seed .*cs=5\.0"):
            train(q_learning_config(warm_start=warm), discretized_gamma(5.0, 5.0, 10), spaces, S0)

    @pytest.mark.parametrize("key, value", [("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5),
                                            ("alpha", -2.0), ("gamma", 0.0), ("gamma", 1.0)])
    def test_refuses_learning_params_out_of_range_with_or_without_a_warm_start(self, key, value):
        # a warm start's copied table once took the config's alpha and gamma unchecked
        offline = synthesize_history(point_mass(4, 10), 5, dt.date(2021, 1, 1),
                                     np.random.default_rng(0))
        warm = build_warm_start(offline, SPACES, epochs=1, seed=0)
        for warm_start in (None, warm):
            config = q_learning_config(warm_start=warm_start, **{key: value})
            with pytest.raises(ValueError, match=rf"^{key} must be in \(0,1\), got {value}$"):
                train(config, discretized_gamma(5.0, 5.0, 10), SPACES, S0)

    def test_episode_total_adds_the_days_left_to_right(self):
        # sum() of floats compensates from Python 3.12 on, which moved the
        # last bits of totals and so the records with the Python version
        runs = train(q_learning_config(), discretized_gamma(5.0, 5.0, 10), SPACES, S0).episode_metrics
        left_to_right = [reduce(operator.add, m.daily_costs, 0.0) for m in runs]
        assert any(math.fsum(m.daily_costs) != total for m, total in zip(runs, left_to_right))
        assert [m.total_cost for m in runs] == left_to_right


# a hand-made offline series for the transfer cases' warm start
OFFLINE = [4, 6, 3, 5, 7, 2, 4, 5, 3, 6]


@pytest.mark.parametrize("algorithm, episodes, variant, transfer", [
    *(pytest.param(algorithm, episodes, "tabular", False, id=f"{algorithm}-{episodes}")
      for episodes in (1, 5) for algorithm in bench.ExperimentSpec().algorithms),
    *(pytest.param(algorithm, 1, variant, False, id=f"{algorithm}-1-{variant}")
      for variant in ("det-net", "mc-dropout") for algorithm in bench.ExperimentSpec().algorithms),
    *(pytest.param(algorithm, 1, variant, True, id=f"{algorithm}-1-{variant}-transfer")
      for variant in ("tabular", "det-net", "mc-dropout")
      for algorithm in ("dyna-q", "adjusted-dyna-q")),
])
def test_train_matches_the_reference_learner(algorithm, episodes, variant, transfer):
    # the default table1 spec's configuration, trained by the algorithm as
    # written, with none of the fast path's caches: no cached rows or mean
    # costs, a det-net read per planned pair, not per distinct pair, and an
    # MC-dropout read as one-row passes, which are slow enough that its
    # episode is 30 days; a transfer case is scenario2's 30-day month from
    # a warm start of 3 epochs over OFFLINE
    spec = bench.ExperimentSpec()
    params = bench.SCENARIO2_PARAMS if transfer else bench.TABLE1_PARAMS
    horizon = 30 if variant == "mc-dropout" or transfer else spec.horizon
    dist, spaces = spec.true_demand(), spec.spaces()

    def config(algorithm, warm_start=None):
        eps, plan = bench.schedules(params, algorithm)
        return AgentConfig(params.alpha, bench.GAMMA, eps, plan, model_variant=variant,
                           warm_start=warm_start, horizon=horizon, episodes=episodes, seed=12345)

    reference_warm = None
    if transfer:
        warm_args = (params.alpha, bench.GAMMA, 3, WARM_EPSILON, variant,
                     spec.initial_state, 54321)
        offline = DemandSeries(dt.date(2021, 1, 1), np.array(OFFLINE))
        warm = build_warm_start(offline, spaces, *warm_args)
        reference_warm = reference_warm_start(OFFLINE, spaces, *warm_args)
        # both transfer configurations train from the one warm start, as a
        # replication's do, and leave its Q-table as it was learned
        learner = {a: train(config(a, warm), dist, spaces, spec.initial_state)
                   for a, on in bench.SCENARIO_CONFIGS if on}[algorithm]
        assert np.array(warm.q).tobytes() == reference_warm[0].tobytes()
    else:
        learner = train(config(algorithm), dist, spaces, spec.initial_state)
    q, runs, planning_steps = reference_train(config(algorithm), dist, spaces,
                                              spec.initial_state, reference_warm)
    assert np.array(learner.q).tobytes() == q.tobytes()
    assert [(m.total_cost, m.shortage_fraction, m.avg_holding)
            for m in learner.episode_metrics] == runs
    assert learner.planning_steps == planning_steps


def learned_state(model) -> list[bytes]:
    """What a model has learned: tabular counts and cost sums, or net parameters."""
    if model.variant == "tabular":
        return [np.array(model.demand_counts).tobytes(), repr(model.cost_sums).encode()]
    return [p.tobytes() for net in (model.transition_net, model.cost_net)
            for p in parameters(net)]


@pytest.mark.parametrize("variant", ["tabular", "det-net", "mc-dropout"])
def test_probe_does_not_change_training(variant):
    # a random-order warm start from the probed state visits the probed pair,
    # so fig3's probe, an observer, reads the model from the first day on
    s0 = bench.PROBE_STATE
    offline = synthesize_history(point_mass(2, 10), 3, dt.date(2021, 1, 1),
                                 np.random.default_rng(0))
    warm = build_warm_start(offline, SPACES, epochs=30, epsilon=1.0, model_variant=variant,
                            initial_state=s0, seed=1)
    eps, plan = bench.schedules(bench.SCENARIO2_PARAMS, "adjusted-dyna-q")
    config = adjusted_config(epsilon_schedule=eps, planning_schedule=plan, model_variant=variant,
                             warm_start=warm, horizon=10, episodes=1, seed=2)
    dist = discretized_gamma(5.0, 5.0, 10)
    probe = bench._Probe(SPACES, config.seed)
    probed = train(config, dist, SPACES, s0, observer=probe)
    plain = train(config, dist, SPACES, s0)
    assert len(probe.trace) == 10 and None not in probe.trace
    assert probed.observer is probe and plain.observer is None
    assert np.array(probed.q).tobytes() == np.array(plain.q).tobytes()
    assert learned_state(probed.model) == learned_state(plain.model)
    assert [m.daily_costs for m in probed.episode_metrics] == [
        m.daily_costs for m in plain.episode_metrics
    ]


def built_model(config, variant):
    """The model train builds for config, before any step: from spawn child 3, dropout_rng."""
    dropout_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[3])
    return EnvModel(SPACES, variant=variant, rng=dropout_rng)


@pytest.mark.parametrize("variant", ["tabular", "det-net", "mc-dropout"])
def test_q_learning_without_an_observer_leaves_its_model_as_built(variant):
    # nothing reads a model that plans nothing and has no observer, so nothing fits it
    config = q_learning_config(model_variant=variant, episodes=2, seed=6)
    learner = train(config, discretized_gamma(5.0, 5.0, 10), SPACES, S0)
    assert isinstance(learner.model, EnvModel)
    assert learner.model.visited == {} and learner.model.pairs == []
    if variant == "tabular":
        assert not any(learner.model.demand_counts) and learner.model.cost_counts == []
    assert learned_state(learner.model) == learned_state(built_model(config, variant))


@pytest.mark.parametrize("variant", ["tabular", "det-net", "mc-dropout"])
def test_probed_q_learning_still_fits_its_model(variant):
    config = q_learning_config(model_variant=variant, episodes=2, seed=6)
    probe = bench._Probe(SPACES, config.seed)
    learner = train(config, discretized_gamma(5.0, 5.0, 10), SPACES, S0, observer=probe)
    assert len(probe.trace) == 60
    assert len(learner.model.visited) > 0
    assert learned_state(learner.model) != learned_state(built_model(config, variant))


def test_observer_is_called_once_per_real_step_after_its_q_update():
    seen = []

    def observer(learner, s, a, s_next, cost):
        seen.append((learner.t, (s, a, s_next, cost), [row[:] for row in learner.q]))

    config = q_learning_config(episodes=2)
    learner = train(config, discretized_gamma(5.0, 5.0, 10), SPACES, S0, observer=observer)
    assert [t for t, _, _ in seen] == list(range(1, 61))
    assert [step[3] for _, step, _ in seen] == [
        c for m in learner.episode_metrics for c in m.daily_costs
    ]
    # each step's rows are the last step's with this step's update applied
    q = [[0.0] * len(row) for row in learner.q]
    mins = [min(row) for row in q]
    for _, step, rows in seen:
        q_update(q, mins, (step,), config.alpha, config.gamma)
        assert rows == q
    assert q == learner.q


class TestEvaluate:
    def test_zero_demand_zero_cost(self):
        dist = point_mass(0, 10)
        agent = train(adjusted_config(episodes=20, seed=4), dist, SPACES, InventoryState(0, 0, 0))
        results = evaluate(agent.q, dist, SPACES, InventoryState(0, 0, 0), 30, 5,
                           np.random.default_rng(0))
        assert all(m.total_cost == 0.0 for m in results)

    def test_repetition_count(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        agent = train(q_learning_config(), dist, SPACES, S0)
        results = evaluate(agent.q, dist, SPACES, S0, 30, 100, np.random.default_rng(1))
        assert len(results) == 100

    def test_seeded_determinism(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        agent = train(q_learning_config(), dist, SPACES, S0)
        a = evaluate(agent.q, dist, SPACES, S0, 30, 3, np.random.default_rng(2))
        b = evaluate(agent.q, dist, SPACES, S0, 30, 3, np.random.default_rng(2))
        assert [m.total_cost for m in a] == [m.total_cost for m in b]

    def test_draws_numpy_demands_from_an_mt19937_generator(self):
        # each run's demands are numpy's own draws, so any bit generator serves
        dist = discretized_gamma(5.0, 5.0, 10)
        q = train(q_learning_config(episodes=1), dist, SPACES, S0).q
        rng, ref = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
        runs = evaluate(q, dist, SPACES, S0, 5, 3, rng)
        policy = greedy_policy(q)
        for m in runs:
            demands = [bisect_right(dist.cdf, ref.random()) for _ in range(5)]
            want = rollout(day_tables(SPACES), state_index(S0, 10), demands, policy.__getitem__)
            assert (m.daily_costs, m.shortage_fraction, m.avg_holding) == (
                want.daily_costs, want.shortage_fraction, want.avg_holding)
        # the generator is left where those draws leave it
        assert rng.integers(2**32, size=4).tolist() == ref.integers(2**32, size=4).tolist()


@pytest.mark.parametrize("variant", ["tabular", "det-net"])
def test_costs_at_the_bound_train_finitely(variant):
    # one unit short costs COST_MAX: Q-values and the cost net's loss stay finite
    spaces = ModelSpaces(CostParams(COST_MAX, 0.3, 0.0, COST_MAX), 10, 10, 10)
    config = q_learning_config(model_variant=variant, planning_schedule=constant(3.0),
                               horizon=20, episodes=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        learner = train(config, discretized_gamma(5.0, 5.0, 10), spaces, InventoryState(0, 0, 0))
    # shortages at cost COST_MAX reached the table
    values = np.array(learner.q)
    assert values.max() > COST_MAX / 10
    assert np.isfinite(values).all()
