"""Test-only helpers: every state in index order, a demand law's mean and
a point-mass law, one day read from the day tables by state index, a
net's parameter arrays, reference versions of the nn training path
(forward, loss, backward, mask draws and Adam) as plain per-array numpy,
which the buffered nn code must match bit for bit, and a reference
learner and warm start on the tabular, det-net or MC-dropout model,
which agents.train and forecast.build_warm_start must match bit for
bit."""

from bisect import bisect_right
from copy import deepcopy

import numpy as np

from coldstart_dynaq import nn
from coldstart_dynaq.demand import DemandDistribution, cdf_of
from coldstart_dynaq.env import InventoryState, num_actions, num_states, state_index, step
from coldstart_dynaq.envmodel import MC_SAMPLES
from coldstart_dynaq.schedule import stc_steps, stc_value


def enumerate_states(s_max: int) -> list[InventoryState]:
    """All states in the dense index order used by state_index."""
    n = s_max + 1
    return [
        InventoryState(s1, s2, s3)
        for s1 in range(n)
        for s2 in range(n)
        for s3 in range(n)
    ]


def mean(dist: DemandDistribution) -> float:
    return float(np.dot(np.arange(len(dist.pmf)), dist.pmf))


def point_mass(value: int, d_max: int) -> DemandDistribution:
    pmf = np.zeros(d_max + 1)
    pmf[value] = 1.0
    return DemandDistribution(pmf=pmf)


def day_of(tables, s: int, a: int, d: int) -> tuple[int, float]:
    """State index s's next-state index and cost with order a and demand d,
    read at s's table row s % (s_max+1)**2."""
    r = s % len(tables.next)
    return int(tables.next[r, a, d]), float(tables.cost[r, a, d])


def parameters(net) -> list[np.ndarray]:
    """The net's weight matrices, then its bias vectors: views of net.flat."""
    return net.weights + net.biases


def draw_masks_reference(net, batch, rng):
    """Inverted-dropout masks, one rng.random((batch, width)) draw per hidden layer."""
    if net.dropout == 0.0:
        return None
    keep = 1.0 - net.dropout
    return [(rng.random((batch, size)) < keep) / keep for size in net.sizes[1:-1]]


def forward_reference(net, X, masks=None):
    """Pre-activations, activations (X first) and output, each a fresh array."""
    acts, pres = [X], []
    a = X
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pres.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
            if masks is not None:
                a = a * masks[i]
        else:
            a = z
        acts.append(a)
    return acts, pres, nn._softmax(a) if net.head == "categorical" else a


def loss_reference(net, out, Y):
    """Batch loss and its gradient at the last pre-activation, out left as it is."""
    if net.head == "regression":
        diff = out - np.asarray(Y, dtype=float).reshape(out.shape)
        return float((diff**2).sum() / out.size), 2.0 * diff / out.size
    onehot = np.zeros(out.shape)
    onehot[np.arange(len(out)), np.asarray(Y).astype(int)] = 1.0
    loss = float(-(np.sum(onehot * np.log(out + 1e-12), axis=1).sum() / out.shape[0]))
    return loss, (out - onehot) / out.shape[0]


def batch_loss(net, X, Y, masks=None) -> float:
    """Loss of the current parameters on a batch, with fixed dropout masks."""
    _, _, out = forward_reference(net, np.atleast_2d(np.asarray(X, dtype=float)), masks)
    return loss_reference(net, out, Y)[0]


def loss_and_grads_reference(net, X, Y, masks):
    """The batch loss and one fresh gradient array per parameter, in parameters(net) order."""
    acts, pres, out = forward_reference(net, X, masks)
    loss, dz = loss_reference(net, out, Y)
    layers = len(net.weights)
    grads = [None] * (2 * layers)
    for i in range(layers - 1, -1, -1):
        grads[i] = acts[i].T @ dz
        grads[layers + i] = dz.sum(axis=0)
        if i > 0:
            dz = dz @ net.weights[i].T
            if masks is not None:
                dz = dz * masks[i - 1]
            dz = dz * (pres[i - 1] > 0.0)
    return loss, grads


class AdamReference:
    """Adam as a per-array update, each moment and bias correction on its own."""

    def __init__(self, net):
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in parameters(net)]
        self.v = [np.zeros_like(p) for p in parameters(net)]

    def apply(self, net, grads):
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(parameters(net), grads, self.m, self.v):
            m *= nn.ADAM_BETA1
            m += (1 - nn.ADAM_BETA1) * g
            v *= nn.ADAM_BETA2
            v += (1 - nn.ADAM_BETA2) * g * g
            m_hat = m / (1 - nn.ADAM_BETA1**t)
            v_hat = v / (1 - nn.ADAM_BETA2**t)
            p -= nn.ADAM_LR * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)


def train_step_reference(net, adam, X, Y, rng):
    """One training step from the references above; adam is an AdamReference."""
    masks = draw_masks_reference(net, len(X), rng)
    loss, grads = loss_and_grads_reference(net, X, Y, masks)
    adam.apply(net, grads)
    return loss


def read_reference(net, x, rng):
    """A planned read of the one-row input x: the net's deterministic pass,
    or with dropout the mean of MC_SAMPLES one-row passes, in sample order.

    Each pass draws its sample's rng.random(mask_width) uniforms at once and
    masks each hidden layer, first layer first, with (u < keep) / keep.
    """
    if net.dropout == 0.0:
        return forward_reference(net, x)[2][0]
    keep = 1.0 - net.dropout
    cuts = np.cumsum([0, *net.sizes[1:-1]])
    passes = []
    for u in rng.random((MC_SAMPLES, nn.mask_width(net))):
        masks = [(u[None, a:b] < keep) / keep for a, b in zip(cuts, cuts[1:])]
        passes.append(forward_reference(net, x, masks)[2][0])
    return np.mean(passes, axis=0)


class ReferenceModel:
    """A model of the tabular, det-net or MC-dropout variant, as written.

    It keeps the visited (state, order) pairs in first-seen order and each
    pair's cost sum and count. Each real step's demand is recovered by
    trying every demand through env.step. A tabular model counts the
    demands; a neural model is two nets built on rng, as EnvModel builds
    them (at dropout 0.5 for MC-dropout), each fitted on every real step
    by the reference training step on rng.
    """

    def __init__(self, spaces, variant, rng):
        if variant not in ("tabular", "det-net", "mc-dropout"):
            raise ValueError(f"no reference learner for a {variant} model")
        self.spaces, self.rng = spaces, rng
        self.states = enumerate_states(spaces.s_max)
        self.pairs, self.cost_sums, self.cost_counts = [], {}, {}
        self.counts = np.zeros(spaces.d_max + 1)
        self.neural = variant != "tabular"
        if self.neural:
            # a demand-class head and a cost head over (s1, s2, s3, order) / (s_max, s_max, s_max, a_max)
            dropout = 0.5 if variant == "mc-dropout" else 0.0
            self.t_net = nn.Network([4, 128, 64, spaces.d_max + 1], dropout=dropout,
                                    head="categorical", rng=rng)
            self.c_net = nn.Network([4, 128, 64, 1], dropout=dropout, head="regression", rng=rng)
            self.t_adam, self.c_adam = AdamReference(self.t_net), AdamReference(self.c_net)

    def copy(self, rng):
        """Copies of what this model has learned, whose nets train on rng."""
        return deepcopy(self, {id(self.rng): rng})

    def day(self, s, a, d):
        """env.step from state index s: the next state index, the cost and the shortage."""
        sp = self.spaces
        out = step(self.states[s], a, d, sp.cost_params, sp.s_max, sp.a_max)
        return state_index(out.next_state, sp.s_max), out.cost, out.shortage

    def encode(self, s, a):
        sp, state = self.spaces, self.states[s]
        return np.array([[state.s1 / sp.s_max, state.s2 / sp.s_max, state.s3 / sp.s_max,
                          a / sp.a_max]])

    def fit(self, s, a, s_next, cost):
        outcomes = [self.day(s, a, e)[:2] for e in range(self.spaces.d_max + 1)]
        reach = [e for e, (n, _) in enumerate(outcomes) if n == s_next]
        exact = [e for e in reach if abs(outcomes[e][1] - cost) <= 1e-9]
        recovered = (exact or reach)[0]
        if (s, a) not in self.cost_sums:
            self.pairs.append((s, a))
        self.cost_sums[s, a] = self.cost_sums.get((s, a), 0.0) + cost
        self.cost_counts[s, a] = self.cost_counts.get((s, a), 0) + 1
        if self.neural:
            x = self.encode(s, a)
            train_step_reference(self.t_net, self.t_adam, x, np.array([recovered]), self.rng)
            train_step_reference(self.c_net, self.c_adam, x, np.array([[cost]]), self.rng)
        else:
            self.counts[recovered] += 1

    def simulate(self, rng):
        """One planned step drawn from rng one call at a time: a visited pair,
        then a neural model's transition read, the demand's uniform and its
        cost read, or a tabular demand and the pair's mean cost divided here.
        Returns the pair, its next state index and the planned cost."""
        s, a = self.pairs[rng.integers(len(self.pairs))]
        if self.neural:
            x = self.encode(s, a)
            pmf = read_reference(self.t_net, x, rng)
            e = bisect_right(cdf_of(pmf / pmf.sum()), rng.random())
            cost = float(read_reference(self.c_net, x, rng)[0])
        else:
            cdf = np.cumsum(self.counts / self.counts.sum())
            cdf[-1] = 1.0
            e = int(np.searchsorted(cdf, rng.random(), side="right"))
            cost = self.cost_sums[s, a] / self.cost_counts[s, a]
        return s, a, self.day(s, a, e)[0], cost


def _act(Q, s, epsilon, rng):
    """Epsilon-greedy over Q's row s, greedy ties broken uniformly."""
    if rng.random() < epsilon:
        return int(rng.integers(Q.shape[1]))
    ties = np.flatnonzero(Q[s] == Q[s].min())
    return int(ties[rng.integers(len(ties))])


def _update(Q, s, a, s_next, cost, alpha, gamma):
    target = cost + gamma * Q[s_next].min()
    Q[s, a] = Q[s, a] + alpha * (target - Q[s, a])


def reference_warm_start(demands, spaces, alpha, gamma, epochs, epsilon, variant, s0, seed):
    """forecast.build_warm_start as written: Q-learning over the offline
    demands, epochs times from s0 at the constant epsilon, exploring on
    the first of two streams spawned from seed and fitting a
    ReferenceModel built on the second on every real step.
    Returns the Q array and the model."""
    explore_rng, model_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2))
    model = ReferenceModel(spaces, variant, model_rng)
    Q = np.zeros((num_states(spaces.s_max), num_actions(spaces.a_max)))
    for _ in range(epochs):
        s = state_index(s0, spaces.s_max)
        for d in demands:
            a = _act(Q, s, epsilon, explore_rng)
            s_next, cost, _ = model.day(s, a, d)
            _update(Q, s, a, s_next, cost, alpha, gamma)
            model.fit(s, a, s_next, cost)
            s = s_next
    return Q, model


def reference_train(config, dist, spaces, s0, warm=None):
    """agents.train on the tabular, det-net or MC-dropout model, as the algorithms are written.

    Q-learning (Watkins & Dayan 1992) with Dyna planning (Sutton 1990):
    numpy Generators drawn one call at a time, env.step on dataclass
    states, a full-row minimum in every update, and a ReferenceModel built
    on the fourth stream, fitted on every real step and drawn by simulate
    one planned step at a time. A warm start, reference_warm_start's
    (Q, model), starts the run from a copy of its Q array and a copy of
    its model whose nets train on the fourth stream. Returns the Q array,
    each episode's (total cost, shortage fraction, mean holding), and the
    planning steps taken.
    """
    env_rng, explore_rng, plan_rng, dropout_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(config.seed).spawn(4))
    if warm is None:
        Q = np.zeros((num_states(spaces.s_max), num_actions(spaces.a_max)))
        model = ReferenceModel(spaces, config.model_variant, dropout_rng)
    else:
        Q, model = warm[0].copy(), warm[1].copy(dropout_rng)
    fits = stc_steps(config.planning_schedule, 0) > 0
    t = planning_steps = 0
    episodes = []
    for _ in range(config.episodes):
        s = state_index(s0, spaces.s_max)
        total, holding, shortages = 0.0, 0, 0
        for _ in range(config.horizon):
            d = bisect_right(dist.cdf, env_rng.random())
            a = _act(Q, s, stc_value(config.epsilon_schedule, t), explore_rng)
            n_plan = stc_steps(config.planning_schedule, t)
            t += 1
            s_next, cost, shortage = model.day(s, a, d)
            _update(Q, s, a, s_next, cost, config.alpha, config.gamma)
            if fits:
                model.fit(s, a, s_next, cost)
            for _ in range(n_plan):
                _update(Q, *model.simulate(plan_rng), config.alpha, config.gamma)
            planning_steps += n_plan
            total += cost
            state = model.states[s]
            holding += state.s2 + state.s3 + a
            shortages += shortage > 0
            s = s_next
        episodes.append((total, shortages / config.horizon, holding / config.horizon))
    return Q, episodes, planning_steps
