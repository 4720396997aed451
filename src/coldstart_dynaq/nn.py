"""Small feed-forward network stack in plain numpy.

Dense layers with ReLU, inverted dropout after each hidden layer, a
regression (MSE) or categorical (softmax) head, Adam, and Monte-Carlo
dropout prediction (the mean over stochastic forward passes). Shared by
the environment model and the demand forecaster.

Dropout masks come from uniform doubles u as (u < keep) / keep, so the
order of the draws pins every result:

- a training pass (`train_step`) draws one (batch, width) block per
  hidden layer, first layer first, all taken in that order from one
  rng.random(batch * sum of hidden widths) call;
- `mc_predict` draws all its masks with one rng.random((samples, sum of
  hidden widths)) call and splits the columns per layer. Row i holds
  sample i's masks, first layer first, which is the order in which one
  single-row training pass per sample would draw them.
"""

import math
from itertools import accumulate

import numpy as np

HEADS = ("regression", "categorical", "categorical_mse")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Network:
    def __init__(
        self,
        sizes: list[int],
        dropout: float = 0.0,
        head: str = "regression",
        *,
        rng: np.random.Generator,
    ):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if not (0.0 <= dropout < 1.0):
            raise ValueError(f"dropout must be in [0,1), got {dropout}")
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        self.sizes = list(sizes)
        self.dropout = dropout
        self.head = head
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases


class AdamState:
    """Adam (Kingma & Ba 2015) with m and v flat over net.parameters().

    spans[i] is parameter i's slice. apply runs each elementwise step once
    over the whole vector in reused buffers, matching per-array bit for bit.
    """

    def __init__(self, net: Network, learning_rate: float = 0.001):
        self.learning_rate = learning_rate
        self.step_count = 0
        ends = list(accumulate(p.size for p in net.parameters()))
        self.spans = list(zip([0, *ends[:-1]], ends))
        self.m, self.v, *self._scratch = (np.zeros(ends[-1]) for _ in range(5))

    def apply(self, net: Network, grads: list[np.ndarray]) -> None:
        t = self.step_count = self.step_count + 1
        m, v, (g, tmp, step) = self.m, self.v, self._scratch
        np.concatenate(grads, axis=None, out=g)
        m *= ADAM_BETA1
        m += np.multiply(1 - ADAM_BETA1, g, out=tmp)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1 - ADAM_BETA2, g, out=tmp), g, out=tmp)
        np.multiply(self.learning_rate, np.divide(m, 1 - ADAM_BETA1**t, out=step), out=step)
        np.add(np.sqrt(np.divide(v, 1 - ADAM_BETA2**t, out=tmp), out=tmp), ADAM_EPS, out=tmp)
        step /= tmp
        for p, (start, end) in zip(net.parameters(), self.spans):
            p -= step[start:end].reshape(p.shape)


def draw_masks(net: Network, batch: int, rng: np.random.Generator) -> list[np.ndarray] | None:
    """Inverted-dropout masks, one per hidden layer; None when dropout is off."""
    if net.dropout == 0.0:
        return None
    keep = 1.0 - net.dropout
    starts = list(accumulate(net.sizes[1:-1], initial=0))
    flat = (rng.random(batch * starts[-1]) < keep) / keep
    return [flat[batch * a:batch * b].reshape(batch, b - a) for a, b in zip(starts, starts[1:])]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_cached(net: Network, X: np.ndarray, masks):
    """Activations of every layer; masks apply after each hidden ReLU."""
    acts = [X]
    pres = []
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
    out = _softmax(a) if net.head in ("categorical", "categorical_mse") else a
    return acts, pres, out


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """One deterministic forward pass, dropout off, over the last axis of x.

    x is one row, a (batch, n) matrix or a (rows, 1, n) stack. A stack runs
    one vector-matrix product per row, so each row's output equals that
    row's own forward bit for bit; a (batch, n) matrix product rounds
    differently.
    """
    X, single = _as_batch(x)
    if X.shape[-1] != net.sizes[0]:
        raise ValueError(f"input dim {X.shape[-1]} != network input {net.sizes[0]}")
    _, _, out = _forward_cached(net, X, None)
    return out[0] if single else out


def _one_hot(Y: np.ndarray, num_classes: int) -> np.ndarray:
    Y = np.asarray(Y)
    if Y.ndim == 2:
        return Y.astype(float)
    onehot = np.zeros((len(Y), num_classes))
    onehot[np.arange(len(Y)), Y.astype(int)] = 1.0
    return onehot


def _loss(net: Network, out: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss of the outputs against Y, and its gradient at the last pre-activation."""
    if net.head == "regression":
        diff = out - np.asarray(Y, dtype=float).reshape(out.shape)
        return float(np.mean(diff**2)), 2.0 * diff / out.size
    onehot = _one_hot(Y, net.sizes[-1])
    if net.head == "categorical":
        loss = float(-np.mean(np.sum(onehot * np.log(out + 1e-12), axis=1)))
        return loss, (out - onehot) / out.shape[0]
    loss = float(np.mean((out - onehot) ** 2))
    dout = 2.0 * (out - onehot) / out.size
    return loss, out * (dout - np.sum(dout * out, axis=1, keepdims=True))


def batch_loss(net: Network, X: np.ndarray, Y: np.ndarray, masks=None) -> float:
    """Loss of the current parameters on a batch, with fixed dropout masks."""
    X, _ = _as_batch(X)
    _, _, out = _forward_cached(net, X, masks)
    return _loss(net, out, Y)[0]


def _loss_and_grads(net: Network, X: np.ndarray, Y: np.ndarray, masks):
    acts, pres, out = _forward_cached(net, X, masks)
    loss, dz = _loss(net, out, Y)

    w_grads = [None] * len(net.weights)
    b_grads = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        w_grads[i] = acts[i].T @ dz
        b_grads[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ net.weights[i].T
            if masks is not None:
                da = da * masks[i - 1]
            dz = da * (pres[i - 1] > 0.0)
    return loss, w_grads + b_grads


def train_step(
    net: Network,
    adam: AdamState,
    X: np.ndarray,
    Y: np.ndarray,
    rng: np.random.Generator | None = None,
) -> float:
    """One Adam step on the batch loss; returns the pre-step loss."""
    X, _ = _as_batch(X)
    masks = None
    if net.dropout > 0.0:
        if rng is None:
            raise ValueError("train_step with dropout needs an rng")
        masks = draw_masks(net, X.shape[0], rng)
    # an overflow shows as a non-finite loss, reported once below
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = _loss_and_grads(net, X, Y, masks)
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite loss {loss} (batch {X.shape}, head {net.head})"
        )
    adam.apply(net, grads)
    return loss


def mc_predict(
    net: Network,
    x: np.ndarray,
    samples: int = 10,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo dropout: the mean over stochastic forward passes.

    x is one input row, 1-D or of shape (1, n); the mean has the shape
    forward(net, x) returns. It equals, bit for bit and from the same
    draws, that of `samples` single-row passes, each masked by its own
    draw_masks(net, 1, rng); samples=1 is one dropout-sampled pass. The first
    layer sees the same input in every pass, so it is computed once. Each
    later layer is one vector-matrix product per sample, run as a
    (samples, 1, width) @ W stack, because a (samples, width) matrix
    product rounds differently. With dropout disabled every pass is
    identical, so the mean is the deterministic output.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    X, single = _as_batch(x)
    if X.shape != (1, net.sizes[0]):
        raise ValueError(
            f"mc_predict takes one input row of {net.sizes[0]} values, got shape {np.shape(x)}"
        )
    if net.dropout == 0.0:
        return forward(net, x)
    if rng is None:
        raise ValueError("mc_predict with dropout needs an rng")
    keep = 1.0 - net.dropout
    masks = (rng.random((samples, sum(net.sizes[1:-1]))) < keep) / keep
    z = np.broadcast_to(X @ net.weights[0] + net.biases[0], (samples, 1, net.sizes[1]))
    col = 0
    for width, w, b in zip(net.sizes[1:-1], net.weights[1:], net.biases[1:]):
        a = np.maximum(z, 0.0) * masks[:, None, col:col + width]
        z = a @ w + b
        col += width
    draws = z[:, 0, :]
    if net.head in ("categorical", "categorical_mse"):
        draws = _softmax(draws)
    if not single:
        draws = draws[:, None, :]
    return draws.mean(axis=0)

