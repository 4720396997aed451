"""Small feed-forward network stack in plain numpy.

Dense layers with ReLU, inverted dropout after each hidden layer, a
regression (MSE) or categorical (softmax, cross-entropy) head, Adam at
the step size ADAM_LR, and Monte-Carlo dropout prediction (the mean over
stochastic forward passes). Shared by the environment model and the
demand forecaster.

A network keeps its parameters in one flat vector, `flat`: the weight
matrices, then the bias vectors, with `weights` and `biases` reshaped
views of it in `parameters()` order. The net's `AdamState` keeps the
gradient vector `grad` in the same layout, so a net holds no gradient
once its optimiser is gone; a backward pass writes each gradient into
its view, and Adam updates `flat` with one subtraction. A copy or an
unpickled net or optimiser rebuilds its views on its own copied vector.

Dropout masks come from uniform doubles u as (u < keep) / keep, so the
order of the draws pins every result:

- a training pass (`train_step`) draws one (batch, width) block per
  hidden layer, first layer first, all taken in that order from one
  rng.random(batch * sum of hidden widths) call;
- an MC-dropout read draws one (samples, sum of hidden widths) block,
  rng.random((samples, width)) (`mc_uniforms`), and splits the columns
  per layer. Row i holds sample i's uniforms, first layer first, which is
  the order in which one single-row training pass per sample would draw
  them. `mc_predict` computes over uniforms already drawn, for one row or
  a stack of rows, so a caller may draw many reads before computing them.
"""

import math
from itertools import accumulate

import numpy as np

HEADS = ("regression", "categorical")

# Adam's defaults (Kingma & Ba 2015)
ADAM_LR = 0.001
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
        draws = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            draws.append(rng.uniform(-limit, limit, fan_in * fan_out))
        self._attach(sizes, dropout, head, np.concatenate([*draws, np.zeros(sum(sizes[1:]))]))

    def _attach(self, sizes: list[int], dropout: float, head: str, flat: np.ndarray) -> None:
        self.sizes = list(sizes)
        self.dropout = dropout
        self.head = head
        self.flat = flat
        self.weights, self.biases = _views(self.sizes, flat)

    def __reduce__(self):
        # deepcopy and pickle would copy each view on its own, detached
        # from the copied flat vector; rebuilding the views keeps them on it
        return _restore, (self.sizes, self.dropout, self.head, self.flat)

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases


def _restore(sizes: list[int], dropout: float, head: str, flat: np.ndarray) -> Network:
    net = Network.__new__(Network)
    net._attach(sizes, dropout, head, flat)
    return net


def _views(sizes: list[int], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """flat cut into the weight matrices, then the bias vectors, of a net of these sizes."""
    shapes = [*zip(sizes, sizes[1:]), *((n,) for n in sizes[1:])]
    ends = list(accumulate(math.prod(shape) for shape in shapes))
    views = [flat[a:b].reshape(shape) for a, b, shape in zip([0, *ends], ends, shapes)]
    return views[:len(sizes) - 1], views[len(sizes) - 1:]


class AdamState:
    """Adam (Kingma & Ba 2015) with m and v flat over net.flat.

    It also holds the net's gradient: grad, laid out as net.flat, with
    grads its views in parameters() order, which train_step's backward
    pass writes. apply runs each elementwise step once over the whole
    vector in reused buffers and subtracts the step from net.flat once,
    matching a per-array update bit for bit.
    """

    def __init__(self, net: Network):
        self.step_count = 0
        self._sizes = list(net.sizes)
        self.m, self.v, self.grad, *self._scratch = (np.zeros(net.flat.size) for _ in range(5))
        self._attach_grads()

    def _attach_grads(self) -> None:
        self.grads = sum(_views(self._sizes, self.grad), [])

    def __getstate__(self) -> dict:
        # deepcopy and pickle would copy each gradient view on its own,
        # detached from the copied grad; __setstate__ rebuilds them on it
        return {k: v for k, v in self.__dict__.items() if k != "grads"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attach_grads()

    def apply(self, net: Network, g: np.ndarray) -> None:
        """One Adam step along the flat gradient g, laid out as net.flat."""
        t = self.step_count = self.step_count + 1
        m, v, (tmp, step) = self.m, self.v, self._scratch
        m *= ADAM_BETA1
        m += np.multiply(1 - ADAM_BETA1, g, out=tmp)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1 - ADAM_BETA2, g, out=tmp), g, out=tmp)
        np.multiply(ADAM_LR, np.divide(m, 1 - ADAM_BETA1**t, out=step), out=step)
        np.add(np.sqrt(np.divide(v, 1 - ADAM_BETA2**t, out=tmp), out=tmp), ADAM_EPS, out=tmp)
        step /= tmp
        net.flat -= step


def draw_masks(net: Network, batch: int, rng: np.random.Generator) -> list[np.ndarray] | None:
    """Inverted-dropout masks, one per hidden layer; None when dropout is off."""
    if net.dropout == 0.0:
        return None
    keep = 1.0 - net.dropout
    starts = list(accumulate(net.sizes[1:-1], initial=0))
    # 0 or fl(1 / keep), as (u < keep) / keep gives
    flat = (rng.random(batch * starts[-1]) < keep) * (1.0 / keep)
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
    out = _softmax(a) if net.head == "categorical" else a
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


def _loss(net: Network, out: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss of the outputs against Y, and its gradient at the last pre-activation.

    A regression head takes Y as targets of the outputs' shape, a
    categorical head as one class index per row. Each mean is the sum and
    division np.mean makes, without its Python-level wrapper.
    """
    if net.head == "regression":
        diff = out - np.asarray(Y, dtype=float).reshape(out.shape)
        return float((diff**2).sum() / out.size), 2.0 * diff / out.size
    onehot = np.zeros(out.shape)
    onehot[np.arange(len(out)), np.asarray(Y).astype(int)] = 1.0
    loss = float(-(np.sum(onehot * np.log(out + 1e-12), axis=1).sum() / out.shape[0]))
    return loss, (out - onehot) / out.shape[0]


def batch_loss(net: Network, X: np.ndarray, Y: np.ndarray, masks=None) -> float:
    """Loss of the current parameters on a batch, with fixed dropout masks."""
    X, _ = _as_batch(X)
    _, _, out = _forward_cached(net, X, masks)
    return _loss(net, out, Y)[0]


def _loss_and_grads(net: Network, X: np.ndarray, Y: np.ndarray, masks, grads: list):
    """The batch loss, and its gradient written into grads.

    grads holds one buffer per parameter, in parameters() order, such as
    AdamState.grads; it comes back as the gradient.
    """
    acts, pres, out = _forward_cached(net, X, masks)
    loss, dz = _loss(net, out, Y)
    layers = len(net.weights)
    for i in range(layers - 1, -1, -1):
        np.matmul(acts[i].T, dz, out=grads[i])
        dz.sum(axis=0, out=grads[layers + i])
        if i > 0:
            dz = dz @ net.weights[i].T
            if masks is not None:
                dz *= masks[i - 1]
            dz *= pres[i - 1] > 0.0
    return loss, grads


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
        loss, _ = _loss_and_grads(net, X, Y, masks, adam.grads)
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite loss {loss} (batch {X.shape}, head {net.head})"
        )
    adam.apply(net, adam.grad)
    return loss


def mask_width(net: Network) -> int:
    """Uniforms one MC-dropout sample draws: the hidden widths, 0 without dropout."""
    return sum(net.sizes[1:-1]) if net.dropout > 0.0 else 0


def mc_uniforms(net: Network, samples: int, rng: np.random.Generator | None) -> np.ndarray:
    """The uniforms of one MC-dropout read, (samples, mask_width(net)) from rng.

    Without dropout nothing is drawn and rng may be None.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if net.dropout == 0.0:
        return np.empty((samples, 0))
    if rng is None:
        raise ValueError("an MC-dropout read needs an rng")
    return rng.random((samples, mask_width(net)))


def mc_predict(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Monte-Carlo dropout: the mean over stochastic forward passes.

    x is one input row, 1-D or of shape (1, n), with u its (samples,
    mask_width) uniforms from mc_uniforms; or a (rows, 1, n) stack with u a
    (rows, samples, mask_width) stack. The mean has the shape forward(net,
    x) returns. Sample i keeps a hidden unit when its uniform is below
    1 - dropout and scales it by 1 / (1 - dropout), the masks of draw_masks.
    Each row's mean equals, bit for bit, that of `samples` single-row
    passes masked in that order; samples=1 is one dropout-sampled pass.

    A row's first layer is the same in every sample, so it runs once per
    row. Each later layer is one vector-matrix product per sample, run as a
    (rows * samples, 1, width) @ W stack, because a 2-D matrix product
    rounds differently. Without dropout every pass is the deterministic one.
    """
    X = np.asarray(x, dtype=float)
    n = net.sizes[0]
    stacked = X.ndim == 3
    if not (X.shape in ((n,), (1, n)) or stacked and X.shape[1:] == (1, n)):
        raise ValueError(
            f"mc_predict takes one input row of {n} values or a (rows, 1, {n}) stack, "
            f"got shape {X.shape}"
        )
    rows = len(X) if stacked else 1
    U = np.asarray(u) if stacked else np.asarray(u)[None]
    if U.ndim != 3 or U.shape[0] != rows or U.shape[1] < 1 or U.shape[2] != mask_width(net):
        raise ValueError(
            f"mc_predict needs ({rows}, samples, {mask_width(net)}) uniforms, got {np.shape(u)}"
        )
    if net.dropout == 0.0:
        return forward(net, X)
    samples = U.shape[1]
    keep = 1.0 - net.dropout
    kept = U < keep
    # a mask (u < keep) / keep is 0 or 1 / keep: multiplying by the kept
    # flag, then by 1 / keep, rounds as multiplying by the mask does
    scale = 1.0 / keep
    z = X.reshape(rows, 1, n) @ net.weights[0]
    z += net.biases[0]
    col = 0
    for width, w, b in zip(net.sizes[1:-1], net.weights[1:], net.biases[1:]):
        # z is (rows, 1, width) for the first layer, (rows, samples, width) after
        a = np.multiply(np.maximum(z, 0.0, out=z), kept[:, :, col:col + width],
                        out=z if z.shape[1] == samples else None)
        a *= scale
        z = (a.reshape(rows * samples, 1, width) @ w).reshape(rows, samples, len(b))
        z += b
        col += width
    # with no hidden layer every sample is the same pass
    draws = z if len(net.sizes) > 2 else np.broadcast_to(z, (rows, samples, net.sizes[-1]))
    if net.head == "categorical":
        draws = _softmax(draws)
    # the sum and division np.mean makes, without its Python-level wrapper
    mean = draws.sum(axis=1) / samples
    if stacked:
        return mean[:, None, :]
    return mean if X.ndim == 2 else mean[0]
