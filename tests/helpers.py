"""Test-only helpers: every state in index order, a demand law's mean and
a point-mass law, one day read from the day tables by state index, a
net's parameter arrays, and reference versions of the nn training path
(forward, loss, backward, mask draws and Adam) as plain per-array numpy,
which the buffered nn code must match bit for bit."""

import numpy as np

from coldstart_dynaq import nn
from coldstart_dynaq.demand import DemandDistribution
from coldstart_dynaq.env import InventoryState


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
