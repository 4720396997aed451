"""Small feed-forward network stack in plain numpy.

Dense layers with ReLU, inverted dropout after each hidden layer, a
regression (MSE) or categorical (softmax, cross-entropy) head, Adam at
the step size ADAM_LR, and Monte-Carlo dropout prediction (the mean over
stochastic forward passes). Shared by the environment model and the
demand forecaster.

A network keeps its parameters in one flat vector, `flat`: the weight
matrices, then the bias vectors, with `weights` and `biases` reshaped
views of it in that order. The net's `AdamState` holds what training
needs beside it, so a net holds none of it once its optimiser is gone:

- the gradient vector `grad`, in the layout of `flat`, which a backward
  pass writes through its views; Adam updates `flat` with one
  subtraction;
- Adam's m and v as the two rows of one (2, N) array, updated together.
  Once 1 - ADAM_BETA1**t is exactly 1.0 (t >= 356) the divide of m by it
  is skipped, since x / 1.0 == x for every double;
- per batch size, the buffers `train_step` writes into: each layer's
  pre-activation and each hidden layer's activation, which the backward
  pass overwrites with its ReLU gate and gradient, and the dropout
  uniforms, which become the masks. Every step at that size reuses them.

A copy or an unpickled net rebuilds its views on its own copied vector.
An optimiser copies only its step count and moments, and builds its
gradient, the gradient's views and its buffers afresh.

Dropout masks come from uniform doubles u as (u < keep) / keep, so the
order of the draws pins every result:

- a training pass (`train_step`) draws one (batch, width) block per
  hidden layer, first layer first, all taken in that order by one
  rng.random(out=) call that fills its reused buffer of batch * (sum of
  hidden widths) doubles; the masks are then written over them;
- an MC-dropout read draws one (samples, sum of hidden widths) block,
  rng.random((samples, width)) (`mc_uniforms`), and splits the columns
  per layer. Row i holds sample i's uniforms, first layer first, which is
  the order in which one single-row training pass per sample would draw
  them. `mc_predict` computes over uniforms already drawn, so a caller may
  draw many reads before computing them.

`train_step` takes a (batch, n) matrix; `forward` and `mc_predict` read a
(rows, 1, n) stack, with one vector-matrix product per row, which gives
each row the bits of its own one-row stack (a (rows, n) matrix product
rounds differently). Any other shape is one ValueError.
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
# the betas and their complements as (2, 1) columns, one row per moment
_BETAS = np.array([[ADAM_BETA1], [ADAM_BETA2]])
_ONE_MINUS_BETAS = 1 - _BETAS


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
    """Adam (Kingma & Ba 2015) over net.flat, and the net's training state.

    m and v are the rows of `moments`; grad is the gradient, with grads
    its views, the weights' then the biases'; `_scratch` is apply's
    working space; `_step_buffers` maps a batch size to its step buffers.
    apply matches a per-array update bit for bit. A copy or a pickle holds
    the step count, the layer sizes and the moments alone: every step
    writes the gradient and the buffers before it reads them.
    """

    def __init__(self, net: Network):
        self.step_count = 0
        self._sizes = list(net.sizes)
        self.moments = np.zeros((2, net.flat.size))
        self._attach()

    def _attach(self) -> None:
        self.grad = np.zeros(self.moments.shape[1])
        self.grads = sum(_views(self._sizes, self.grad), [])
        self._scratch = np.empty(self.moments.shape)
        self._step_buffers = {}

    def __getstate__(self) -> dict:
        # __setstate__ builds the gradient, its views and the buffers afresh
        return {k: self.__dict__[k] for k in ("step_count", "_sizes", "moments")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attach()

    def buffers(self, net: Network, batch: int) -> "_Buffers":
        """The step buffers for this batch size, built on first use."""
        buf = self._step_buffers.get(batch)
        if buf is None:
            buf = self._step_buffers[batch] = _Buffers(net, batch)
        return buf

    def apply(self, net: Network, g: np.ndarray) -> None:
        """One Adam step along the flat gradient g, laid out as net.flat."""
        t = self.step_count = self.step_count + 1
        moments, scratch = self.moments, self._scratch
        moments *= _BETAS
        np.multiply(_ONE_MINUS_BETAS, g, out=scratch)
        scratch[1] *= g
        moments += scratch
        c1, c2 = 1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t
        m_hat, v_hat = scratch
        if c1 == 1.0:
            # from t = 356 on, 1 - beta1**t rounds to exactly 1.0, and
            # m / 1.0 == m for every double
            m_hat = moments[0]
        else:
            np.divide(moments[0], c1, out=m_hat)
        np.divide(moments[1], c2, out=v_hat)
        step = np.multiply(ADAM_LR, m_hat, out=scratch[0])
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        step /= v_hat
        net.flat -= step


class _Buffers:
    """The buffers of a training step at one batch size, reused by every such step.

    pres holds each layer's pre-activation and acts each hidden layer's
    masked activation. Without dropout uniforms is None; with it, masks are
    views of it, one (batch, width) block per hidden layer, first layer first.
    """

    def __init__(self, net: Network, batch: int):
        hidden = net.sizes[1:-1]
        self.pres = [np.empty((batch, n)) for n in net.sizes[1:]]
        self.acts = [np.empty((batch, n)) for n in hidden]
        self.keep = 1.0 - net.dropout
        self.uniforms = self.masks = None
        if net.dropout > 0.0:
            starts = list(accumulate(hidden, initial=0))
            self.uniforms = np.empty(batch * starts[-1])
            self.masks = [self.uniforms[batch * a:batch * b].reshape(batch, b - a)
                          for a, b in zip(starts, starts[1:])]

    def draw_masks(self, rng: np.random.Generator) -> list[np.ndarray]:
        """Inverted-dropout masks from fresh uniforms, written over them."""
        u = rng.random(out=self.uniforms)
        # 0 or fl(1 / keep), as (u < keep) / keep gives
        np.less(u, self.keep, out=u)
        u *= 1.0 / self.keep
        return self.masks


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(net: Network, X: np.ndarray, masks=None, buf: _Buffers | None = None) -> np.ndarray:
    """The net's output on X; masks apply after each hidden ReLU.

    With buf, each layer's pre-activation and hidden activation are written
    into its buffers, where the backward pass reads them.
    """
    a = X
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.matmul(a, w, out=None if buf is None else buf.pres[i])
        z += b
        if i < last:
            a = np.maximum(z, 0.0, out=None if buf is None else buf.acts[i])
            if masks is not None:
                a *= masks[i]
    return _softmax(z) if net.head == "categorical" else z


def _stack(net: Network, x: np.ndarray) -> np.ndarray:
    """x as a float (rows, 1, n) stack over the net's n inputs; any other shape is a ValueError."""
    X = np.asarray(x, dtype=float)
    if X.ndim != 3 or X.shape[1:] != (1, net.sizes[0]):
        raise ValueError(f"expected a (rows, 1, {net.sizes[0]}) stack, got shape {X.shape}")
    return X


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """The deterministic pass, dropout off, of a (rows, 1, n) stack, as a (rows, 1, outputs) one."""
    return _forward(net, _stack(net, x))


def _loss(net: Network, out: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss of the outputs against Y, and its gradient at the last pre-activation.

    A regression head takes Y as targets of the outputs' shape and writes
    the gradient over out; a categorical head takes one class index per
    row. Each mean is the sum and division np.mean makes, without its
    Python-level wrapper.
    """
    if net.head == "regression":
        diff = np.subtract(out, np.asarray(Y, dtype=float).reshape(out.shape), out=out)
        loss = float((diff**2).sum() / out.size)
        diff *= 2.0
        diff /= out.size
        return loss, diff
    onehot = np.zeros(out.shape)
    onehot[np.arange(len(out)), np.asarray(Y).astype(int)] = 1.0
    loss = float(-(np.sum(onehot * np.log(out + 1e-12), axis=1).sum() / out.shape[0]))
    return loss, (out - onehot) / out.shape[0]


def _loss_and_grads(net: Network, adam: AdamState, X: np.ndarray, Y: np.ndarray, masks):
    """The batch loss, and its gradient written into adam.grads, which come back.

    The step runs in adam's buffers for the batch size of X.
    """
    buf = adam.buffers(net, len(X))
    loss, dz = _loss(net, _forward(net, X, masks, buf), Y)
    grads, layers = adam.grads, len(net.weights)
    for i in range(layers - 1, -1, -1):
        np.matmul((buf.acts[i - 1] if i > 0 else X).T, dz, out=grads[i])
        # the sum dz.sum(axis=0) makes, without its Python-level wrapper
        np.add.reduce(dz, axis=0, out=grads[layers + i])
        if i > 0:
            # the layer below's gradient and ReLU gate go over its activation
            # and pre-activation, which nothing reads again
            dz = np.matmul(dz, net.weights[i].T, out=buf.acts[i - 1])
            if masks is not None:
                dz *= masks[i - 1]
            dz *= np.greater(buf.pres[i - 1], 0.0, out=buf.pres[i - 1])
    return loss, grads


def train_step(
    net: Network,
    adam: AdamState,
    X: np.ndarray,
    Y: np.ndarray,
    rng: np.random.Generator | None = None,
) -> float:
    """One Adam step on the loss of a (batch, n) matrix X; returns the pre-step loss."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.sizes[0]:
        raise ValueError(f"train_step takes a (batch, {net.sizes[0]}) matrix, got shape {X.shape}")
    masks = None
    if net.dropout > 0.0:
        if rng is None:
            raise ValueError("train_step with dropout needs an rng")
        masks = adam.buffers(net, len(X)).draw_masks(rng)
    # an overflow shows as a non-finite loss, reported once below
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = _loss_and_grads(net, adam, X, Y, masks)
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss} (batch {X.shape}, head {net.head})")
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

    x is a (rows, 1, n) stack and u its (rows, samples, mask_width) stack
    of mc_uniforms; the means are a (rows, 1, outputs) stack. Sample i keeps
    a hidden unit when its uniform is below 1 - dropout and scales it by
    1 / (1 - dropout), as a training pass masks. Each row's mean equals, bit
    for bit, that of `samples` single-row passes masked in that order;
    samples=1 is one dropout-sampled pass.

    A row's first layer is the same in every sample, so it runs once per
    row. Each later layer is one vector-matrix product per sample, run as a
    (rows * samples, 1, width) @ W stack, because a 2-D matrix product
    rounds differently. Without dropout every pass is the deterministic one.
    """
    X = _stack(net, x)
    rows = len(X)
    U = np.asarray(u)
    if U.ndim != 3 or U.shape[0] != rows or U.shape[1] < 1 or U.shape[2] != mask_width(net):
        raise ValueError(
            f"mc_predict needs ({rows}, samples, {mask_width(net)}) uniforms, got {U.shape}"
        )
    if net.dropout == 0.0:
        return forward(net, X)
    samples = U.shape[1]
    keep = 1.0 - net.dropout
    kept = U < keep
    # a mask (u < keep) / keep is 0 or 1 / keep: multiplying by the kept
    # flag, then by 1 / keep, rounds as multiplying by the mask does
    scale = 1.0 / keep
    z = X @ net.weights[0]
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
    return (draws.sum(axis=1) / samples)[:, None, :]
