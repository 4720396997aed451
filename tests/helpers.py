"""Test-only helpers: every state in index order, a demand law's mean and
a point-mass law, one day read from the day tables by state index, a
net's parameter arrays, reference versions of the nn training path
(forward, loss, backward, mask draws and Adam) as plain per-array numpy,
which the buffered nn code must match bit for bit, and a reference
learner on the tabular, det-net or MC-dropout model, which agents.train
must match bit for bit."""

from bisect import bisect_right

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


def reference_train(config, dist, spaces, s0):
    """agents.train on the tabular, det-net or MC-dropout model, as the algorithms are written.

    Q-learning (Watkins & Dayan 1992) with Dyna planning (Sutton 1990):
    numpy Generators drawn one call at a time, env.step on dataclass
    states, each demand recovered by trying every demand through step, a
    full-row minimum in every update, and the tabular model's mean cost
    divided per draw. A neural model is two nets built on the fourth
    stream, as EnvModel builds them (at dropout 0.5 for MC-dropout), each
    fitted on every real step by the reference training step on that
    stream, and read one planned pair at a time by read_reference: the
    transition net's read, the demand's uniform, then the cost net's read.
    Returns the Q array, each episode's (total cost, shortage fraction,
    mean holding), and the planning steps taken.
    """
    env_rng, explore_rng, plan_rng, dropout_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(config.seed).spawn(4))
    states = enumerate_states(spaces.s_max)
    p, s_max, a_max = spaces.cost_params, spaces.s_max, spaces.a_max
    Q = np.zeros((num_states(s_max), num_actions(a_max)))
    counts = np.zeros(spaces.d_max + 1)
    pairs, cost_sums, cost_counts = [], {}, {}
    if config.model_variant not in ("tabular", "det-net", "mc-dropout"):
        raise ValueError(f"no reference learner for a {config.model_variant} model")
    neural = config.model_variant != "tabular"
    if neural:
        # a demand-class head and a cost head over (s1, s2, s3, order) / (s_max, s_max, s_max, a_max)
        dropout = 0.5 if config.model_variant == "mc-dropout" else 0.0
        t_net = nn.Network([4, 128, 64, spaces.d_max + 1], dropout=dropout, head="categorical",
                           rng=dropout_rng)
        c_net = nn.Network([4, 128, 64, 1], dropout=dropout, head="regression", rng=dropout_rng)
        t_adam, c_adam = AdamReference(t_net), AdamReference(c_net)
    fits = stc_steps(config.planning_schedule, 0) > 0
    t = planning_steps = 0
    episodes = []

    def update(s, a, s_next, cost):
        target = cost + config.gamma * Q[s_next].min()
        Q[s, a] = Q[s, a] + config.alpha * (target - Q[s, a])

    def day(s, a, d):
        out = step(states[s], a, d, p, s_max, a_max)
        return state_index(out.next_state, s_max), out.cost, out.shortage

    def encode(s, a):
        return np.array([[states[s].s1 / s_max, states[s].s2 / s_max, states[s].s3 / s_max,
                          a / a_max]])

    for _ in range(config.episodes):
        s = state_index(s0, s_max)
        total, holding, shortages = 0.0, 0, 0
        for _ in range(config.horizon):
            d = bisect_right(dist.cdf, env_rng.random())
            if explore_rng.random() < stc_value(config.epsilon_schedule, t):
                a = int(explore_rng.integers(a_max + 1))
            else:
                ties = np.flatnonzero(Q[s] == Q[s].min())
                a = int(ties[explore_rng.integers(len(ties))])
            n_plan = stc_steps(config.planning_schedule, t)
            t += 1
            s_next, cost, shortage = day(s, a, d)
            update(s, a, s_next, cost)
            if fits:
                outcomes = [day(s, a, e)[:2] for e in range(spaces.d_max + 1)]
                reach = [e for e, (n, _) in enumerate(outcomes) if n == s_next]
                exact = [e for e in reach if abs(outcomes[e][1] - cost) <= 1e-9]
                recovered = (exact or reach)[0]
                if (s, a) not in cost_sums:
                    pairs.append((s, a))
                cost_sums[s, a] = cost_sums.get((s, a), 0.0) + cost
                cost_counts[s, a] = cost_counts.get((s, a), 0) + 1
                if neural:
                    x = encode(s, a)
                    train_step_reference(t_net, t_adam, x, np.array([recovered]), dropout_rng)
                    train_step_reference(c_net, c_adam, x, np.array([[cost]]), dropout_rng)
                else:
                    counts[recovered] += 1
            for _ in range(n_plan):
                ps, pa = pairs[plan_rng.integers(len(pairs))]
                if neural:
                    x = encode(ps, pa)
                    pmf = read_reference(t_net, x, plan_rng)
                    e = bisect_right(cdf_of(pmf / pmf.sum()), plan_rng.random())
                    planned_cost = float(read_reference(c_net, x, plan_rng)[0])
                else:
                    cdf = np.cumsum(counts / counts.sum())
                    cdf[-1] = 1.0
                    e = int(np.searchsorted(cdf, plan_rng.random(), side="right"))
                    planned_cost = cost_sums[ps, pa] / cost_counts[ps, pa]
                update(ps, pa, day(ps, pa, e)[0], planned_cost)
            planning_steps += n_plan
            total += cost
            holding += states[s].s2 + states[s].s3 + a
            shortages += shortage > 0
            s = s_next
        episodes.append((total, shortages / config.horizon, holding / config.horizon))
    return Q, episodes, planning_steps
