"""Training loops: Q-learning, classic Dyna-Q, and adjusted Dyna-Q.

All three are one loop that sees only an exploration and a planning
schedule: Q-learning runs zero planning steps, classic Dyna-Q keeps
exploration and planning constant, and adjusted Dyna-Q decays both with a
search-then-convergence schedule of the global environment-step counter.
bench names the algorithms and builds their schedules. An optional warm
start, a Learner pre-trained on forecasted demand, replaces the zero
Q-table and empty model with copies of its own, the model's on the run's
dropout stream; the learning rate and discount are always the config's.
Only a learner whose model is read fits it: Q-learning without an
observer leaves its model as it was built, or as the warm start's copy.

Randomness is split into four independent streams (environment demand,
exploration, planning and network dropout), so planning depth never
perturbs the real demand sequence. No demand draw depends on a result,
so an episode's or an evaluation run's demands are one demand.sample
call made before it starts. A WordStream, bit-exact with numpy, serves
exploration (the warm start's too) and planning; each is opened and
closed by the with block of the function that made its generator. A
planning burst on an MC-dropout model makes its array draws on the
generator its stream lends it. The dropout stream stays a plain
Generator, and an observer that draws keeps a generator of its own.

Training, evaluation and the warm start's offline replay all run one
day loop, rollout(), over a list of demands on state indices and the
env's day tables. After each real step, a q_update call of its own, a
Learner plans one burst, which draws the whole burst before it reads the
model. Every burst is one envmodel.plan call, which applies its
simulated transitions to the Q-table in draw order. A Learner's
Q-table is list rows, which it updates in place with each row's minimum
beside them, so learner.q is current after every step, and a tabular
model's per-step work is Python over the next-state rows it keeps per
visited pair.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .demand import DemandDistribution, sample
from .env import (
    DayTables,
    DomainError,
    InventoryState,
    ModelSpaces,
    day_tables,
    num_actions,
    num_states,
    state_index,
)
from .envmodel import EnvModel, model_update, plan
from .qcore import greedy_policy, q_update, select_action
from .schedule import StcSchedule, constant, stc_steps, stc_value
from .wordstream import WordStream


@dataclass
class AgentConfig:
    alpha: float = 0.3
    gamma: float = 0.9
    epsilon_schedule: StcSchedule = field(default_factory=lambda: constant(0.4))
    planning_schedule: StcSchedule = field(default_factory=lambda: constant(0.0))
    model_variant: str = "tabular"
    warm_start: "Learner | None" = None
    horizon: int = 100
    episodes: int = 100
    seed: int = 0


@dataclass
class RunMetrics:
    """One episode or evaluation run of the inventory environment.

    shortage_fraction is the fraction of days with unmet demand;
    avg_holding is the mean pre-sale total stock per day. wall_seconds is
    hardware-dependent and is kept out of reproducible record files.
    """

    total_cost: float
    daily_costs: list = field(default_factory=list)
    shortage_fraction: float = 0.0
    avg_holding: float = 0.0
    wall_seconds: float = 0.0


def rollout(tables: DayTables, s: int, demands: list, act, learn=None) -> RunMetrics:
    """Run one real day per entry of demands from state index s.

    Each day act(s) picks the order and learn(s, a, s_next, cost), when
    given, updates the agent.
    """
    started = time.perf_counter()
    daily_costs = []
    # added left to right: sum() of floats compensates from Python 3.12 on
    total = 0.0
    shortage_days = 0
    holding = 0.0
    # item() reads a Python number straight from the array, with no numpy scalar between
    nxt, costs, stocks = tables.next.item, tables.cost.item, tables.stock.item
    rows = len(tables.next)
    for d in demands:
        a = act(s)
        r = s % rows
        s_next, cost = nxt(r, a, d), costs(r, a, d)
        if learn is not None:
            learn(s, a, s_next, cost)
        stock = stocks(r, a)
        daily_costs.append(cost)
        total += cost
        shortage_days += d > stock
        holding += stock
        s = s_next
    return RunMetrics(
        total_cost=total,
        daily_costs=daily_costs,
        shortage_fraction=shortage_days / len(demands),
        avg_holding=holding / len(demands),
        wall_seconds=time.perf_counter() - started,
    )


class Learner:
    """Epsilon-greedy Q-learning with Dyna planning, as rollout's act/learn.

    A learner is the trained agent and, built over offline demand, the warm
    start: its Q-table q, its model, its learning rate alpha and discount
    gamma, each in (0, 1), its planning_steps and the episode_metrics
    train records. The schedules are functions of the learner's own step
    counter t. observer(learner, s, a, s_next, cost), when given, is
    called last in every learn step, with q, mins and the model already
    updated for it. learn fits the model on each real step only when
    fits_model is set: when the learner plans or has an observer, or when
    its owner sets it.

    act and learn work on q's rows in place, and learn keeps mins, each
    row's minimum, for q_update and plan. They draw from the
    exploration and planning WordStreams they are given; whoever opened
    those closes them.
    A learner that plans nothing needs no planning stream.
    """

    def __init__(self, q: list, model: EnvModel, alpha: float, gamma: float,
                 epsilon: StcSchedule, planning: StcSchedule, explore_rng: WordStream,
                 plan_rng: WordStream | None = None, observer=None):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        if not (0.0 < gamma < 1.0):
            raise ValueError(f"gamma must be in (0,1), got {gamma}")
        self.q, self.model = q, model
        self.alpha, self.gamma = alpha, gamma
        self.mins = [min(row) for row in q]
        self.epsilon, self.planning = epsilon, planning
        self.explore_rng, self.plan_rng = explore_rng, plan_rng
        self.observer = observer
        # STC schedules never increase, so step 0 plans the most
        self.fits_model = observer is not None or stc_steps(planning, 0) > 0
        self.episode_metrics: list[RunMetrics] = []
        self.planning_steps = 0
        self.n_plan = 0
        self.t = 0

    def act(self, s: int) -> int:
        eps = stc_value(self.epsilon, self.t)
        # the planning depth of the learn() call that follows
        self.n_plan = stc_steps(self.planning, self.t)
        self.t += 1
        return select_action(self.q[s], eps, self.explore_rng)

    def learn(self, s: int, a: int, s_next: int, cost: float) -> None:
        # the real step first: a non-finite cost raises before the model sees it
        q_update(self.q, self.mins, ((s, a, s_next, cost),), self.alpha, self.gamma)
        if self.fits_model:
            model_update(self.model, s, a, s_next, cost)
        plan(self.model, self.n_plan, self.plan_rng, self.q, self.mins, self.alpha, self.gamma)
        self.planning_steps += self.n_plan
        if self.observer is not None:
            self.observer(self, s, a, s_next, cost)


def _tables(spaces: ModelSpaces, q: list, dist: DemandDistribution) -> DayTables:
    """The day tables of spaces, once q and dist are checked to fit them."""
    shape, got = (num_states(spaces.s_max), num_actions(spaces.a_max)), (len(q), len(q[0]))
    if got != shape:
        raise DomainError(f"Q-table shape {got} != (states, orders) {shape}")
    if dist.d_max > spaces.d_max:
        raise DomainError(f"demand reaches {dist.d_max} > d_max {spaces.d_max}")
    return day_tables(spaces)


def train(
    config: AgentConfig,
    true_demand: DemandDistribution,
    spaces: ModelSpaces,
    initial_state: InventoryState,
    observer=None,
) -> Learner:
    """Run the configured training loop against the true demand process.

    observer, when given, is the learner's: it is called after every
    environment step (see Learner). A warm start must have a model of
    config.model_variant over spaces. Returns the learner.
    """
    warm = config.warm_start
    if warm is not None and (warm.model.variant, warm.model.spaces) != (config.model_variant, spaces):
        raise DomainError(f"a warm start's {warm.model.variant} model over {warm.model.spaces} "
                          f"cannot seed a {config.model_variant} model over {spaces}")
    ss = np.random.SeedSequence(config.seed)
    env_rng, explore_rng, plan_rng, dropout_rng = (
        np.random.default_rng(child) for child in ss.spawn(4)
    )
    if warm is not None:
        q = [row[:] for row in warm.q]
        model = warm.model.copy(dropout_rng)
    else:
        # every entry of a fresh table is the one float 0.0
        q = [[0.0] * num_actions(spaces.a_max) for _ in range(num_states(spaces.s_max))]
        model = EnvModel(spaces, variant=config.model_variant, rng=dropout_rng)
    tables = _tables(spaces, q, true_demand)
    s0 = state_index(initial_state, spaces.s_max)
    with WordStream(explore_rng) as explore, WordStream(plan_rng) as planning:
        learner = Learner(q, model, config.alpha, config.gamma, config.epsilon_schedule,
                          config.planning_schedule, explore, planning, observer)
        learner.episode_metrics = [
            rollout(tables, s0, sample(true_demand, env_rng, config.horizon), learner.act,
                    learner.learn)
            for _ in range(config.episodes)
        ]
    return learner


def evaluate(
    q: list,
    true_demand: DemandDistribution,
    spaces: ModelSpaces,
    initial_state: InventoryState,
    days: int,
    repetitions: int,
    rng: np.random.Generator,
) -> list[RunMetrics]:
    """Run q's deterministic greedy policy against fresh demand draws from rng."""
    tables = _tables(spaces, q, true_demand)
    policy = greedy_policy(q)
    s0 = state_index(initial_state, spaces.s_max)
    return [
        rollout(tables, s0, sample(true_demand, rng, days), policy.__getitem__)
        for _ in range(repetitions)
    ]
