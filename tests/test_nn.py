import copy
import datetime as dt
import math
import pickle

import numpy as np
import pytest

from coldstart_dynaq import envmodel, forecast, nn
from coldstart_dynaq.demand import synthesize_history
from coldstart_dynaq.env import CostParams, ModelSpaces
from helpers import (
    AdamReference,
    batch_loss,
    day_of,
    draw_masks_reference,
    forward_reference,
    parameters,
    point_mass,
    train_step_reference,
)


def make_net(sizes, head="regression", dropout=0.0, seed=0):
    return nn.Network(sizes, dropout=dropout, head=head, rng=np.random.default_rng(seed))


class TestForward:
    def test_zero_weights_zero_output(self):
        net = make_net([3, 4, 2])
        for w in net.weights:
            w[:] = 0.0
        assert np.array_equal(nn.forward(net, np.array([[[1.0, -2.0, 3.0]]])), [[[0.0, 0.0]]])

    def test_hand_arithmetic_1d(self):
        net = make_net([1, 1, 1])
        net.weights[0][:] = 2.0
        net.biases[0][:] = 1.0
        net.weights[1][:] = 1.0
        net.biases[1][:] = 0.0
        assert nn.forward(net, np.array([[[3.0]]]))[0, 0, 0] == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        net = make_net([3, 4, 2])
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros((1, 1, 5)))

    def test_softmax_head_valid_distribution(self):
        net = make_net([3, 8, 5], head="categorical")
        out = nn.forward(net, np.array([[[1.0, 2.0, 3.0]]]))
        assert np.all(out > 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestTrainStep:
    def test_matching_target_keeps_loss_zero(self):
        net = make_net([2, 4, 1])
        X = np.array([[0.3, 0.7]])
        target = nn.forward(net, X[:, None])[:, 0]
        adam = nn.AdamState(net)
        loss = nn.train_step(net, adam, X, target)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_fits_linear_function(self):
        # y = 2x with a 1-parameter linear model (single dense layer)
        rng = np.random.default_rng(1)
        net = make_net([1, 1], seed=1)
        adam = nn.AdamState(net)
        X = rng.uniform(-1, 1, size=(32, 1))
        for _ in range(5000):
            nn.train_step(net, adam, X, 2.0 * X)
        assert net.weights[0][0, 0] == pytest.approx(2.0, abs=0.05)

    def test_non_finite_loss_raises(self):
        net = make_net([1, 1])
        adam = nn.AdamState(net)
        with pytest.raises(FloatingPointError):
            nn.train_step(net, adam, np.array([[np.inf]]), np.array([[0.0]]))


class TestGradients:
    @pytest.mark.parametrize("head", ["regression", "categorical"])
    def test_finite_difference_check(self, head):
        rng = np.random.default_rng(2)
        net = make_net([4, 6, 5, 3], head=head, seed=2)
        X = rng.normal(size=(7, 4))
        if head == "regression":
            Y = rng.normal(size=(7, 3))
        else:
            Y = rng.integers(0, 3, size=7)
        _, grads = nn._loss_and_grads(net, nn.AdamState(net), X, Y, None)
        params = parameters(net)
        h = 1e-4
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = batch_loss(net, X, Y)
                flat[idx] = orig - h
                down = batch_loss(net, X, Y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = g.reshape(-1)[idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-3

    def test_gradient_with_fixed_dropout_masks(self):
        rng = np.random.default_rng(3)
        net = make_net([3, 8, 4, 2], dropout=0.5, seed=3)
        masks = draw_masks_reference(net, 5, rng)
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=(5, 2))
        _, grads = nn._loss_and_grads(net, nn.AdamState(net), X, Y, masks)
        p = net.weights[0]
        g = grads[0]
        h = 1e-4
        orig = p[0, 0]
        p[0, 0] = orig + h
        up = batch_loss(net, X, Y, masks)
        p[0, 0] = orig - h
        down = batch_loss(net, X, Y, masks)
        p[0, 0] = orig
        numeric = (up - down) / (2 * h)
        assert abs(numeric - g[0, 0]) / max(abs(numeric), 1e-8) < 1e-3

    def test_adam_zero_gradient_no_move(self):
        net = make_net([2, 3, 1])
        adam = nn.AdamState(net)
        before = [p.copy() for p in parameters(net)]
        adam.apply(net, np.zeros_like(net.flat))
        for b, p in zip(before, parameters(net)):
            assert np.array_equal(b, p)


class TestMcPredict:
    def test_no_dropout_mean_is_forward(self):
        net = make_net([3, 4, 2])
        x = np.array([[[1.0, 2.0, 3.0]]])
        u = nn.mc_uniforms(net, 10, None)
        assert u.shape == (10, 0)
        assert np.array_equal(nn.mc_predict(net, x, u[None]), nn.forward(net, x))

    def test_seeded_reproducibility(self):
        net = make_net([3, 8, 2], dropout=0.5)
        x = np.array([[[0.1, 0.2, 0.3]]])
        a = nn.mc_predict(net, x, nn.mc_uniforms(net, 10, np.random.default_rng(5))[None])
        b = nn.mc_predict(net, x, nn.mc_uniforms(net, 10, np.random.default_rng(5))[None])
        assert np.array_equal(a, b)


def dropout_pass_reference(net, x, rng):
    """One single-row training pass: fresh dropout masks, then the layers."""
    _, _, out = forward_reference(net, np.atleast_2d(x), draw_masks_reference(net, 1, rng))
    return out if np.ndim(x) == 2 else out[0]


def mc_predict_reference(net, x, samples, rng):
    """The per-sample loop mc_predict replaced: one single-row training pass per sample."""
    draws = np.stack([dropout_pass_reference(net, x, rng) for _ in range(samples)])
    return draws.mean(axis=0)


@pytest.mark.parametrize("head", ["categorical", "regression"])
@pytest.mark.parametrize("samples", [1, 10])
@pytest.mark.parametrize("row_shape", ["1-D", "(1, n)"])
@pytest.mark.parametrize("hidden", [(128, 64), (6,), ()], ids=["128-64", "6", "no-hidden"])
def test_mc_predict_matches_per_sample_loop(head, samples, row_shape, hidden):
    # the reference reads the row in row_shape; mc_predict reads it as a
    # one-row stack, whose one mean is taken back in that shape
    out = 1 if head == "regression" else 11
    for seed in range(3):
        net = make_net([4, *hidden, out], head=head, dropout=0.5, seed=seed)
        x = np.random.default_rng(seed + 100).uniform(0.0, 1.0, 4)
        if row_shape == "(1, n)":
            x = x[None, :]
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean = mc_predict_reference(net, x, samples, ref_rng)
        stack = x.reshape(1, 1, 4)
        pred = nn.mc_predict(net, stack, nn.mc_uniforms(net, samples, rng)[None])
        assert pred.shape == (1, 1, out)
        pred = pred[0] if row_shape == "(1, n)" else pred[0, 0]
        assert pred.shape == mean.shape
        assert np.array_equal(pred, mean)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_predict_next_is_one_dropout_pass(dropout):
    # the forecaster's net; predict_next scales, clamps and rounds one pass
    history = synthesize_history(point_mass(4, 10), 30, dt.date(2021, 1, 1),
                                 np.random.default_rng(0))
    for seed in range(3):
        # untrained, its scaled outputs fall both in [0, 10] and below 0
        net = make_net([21, 128, 64, 1], dropout=dropout, seed=seed)
        f = forecast.Forecaster(net=net, window=7, history=history, d_max=10)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        predictions, expected = [], []
        for day in range(7, 31):
            x = forecast._design_row(7, 10, history, day)
            raw = float(dropout_pass_reference(net, x, ref_rng)[0])
            expected.append(min(max(math.floor(raw * 10 + 0.5), 0), 10))
            predictions.append(forecast.predict_next(f, history, day, rng=rng))
        assert predictions == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def training_batch(data, sizes, head, batch):
    X = data.uniform(0.0, 1.0, (batch, sizes[0]))
    if head == "regression":
        return X, data.normal(size=(batch, sizes[-1]))
    return X, data.integers(0, sizes[-1], batch)


# the forecaster, the transition net, the cost net, and a net with no hidden layer
TRAIN_CASES = [
    ([21, 128, 64, 1], "regression"),
    ([4, 128, 64, 11], "categorical"),
    ([4, 128, 64, 1], "regression"),
    ([4, 11], "regression"),
    ([4, 11], "categorical"),
]


def train_against_reference(sizes, head, dropout, batch, steps):
    net = make_net(sizes, head=head, dropout=dropout, seed=batch)
    ref_net = copy.deepcopy(net)
    adam, ref_adam = nn.AdamState(net), AdamReference(ref_net)
    rng, ref_rng = np.random.default_rng(batch), np.random.default_rng(batch)
    data = np.random.default_rng(100 + batch)
    for _ in range(steps):
        X, Y = training_batch(data, sizes, head, batch)
        assert nn.train_step(net, adam, X, Y, rng=rng) == train_step_reference(
            ref_net, ref_adam, X, Y, ref_rng
        )
    assert adam.step_count == ref_adam.step_count == steps
    # m and v are laid out as the parameters in net.flat
    adam_m, adam_v = (sum(nn._views(net.sizes, x), []) for x in adam.moments)
    for p, ref_p, m, ref_m, v, ref_v in zip(
        parameters(net), parameters(ref_net), adam_m, ref_adam.m, adam_v, ref_adam.v
    ):
        assert np.array_equal(p, ref_p)
        assert np.array_equal(m, ref_m)
        assert np.array_equal(v, ref_v)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "sizes, head", TRAIN_CASES, ids=[f"{'-'.join(map(str, s))}-{h}" for s, h in TRAIN_CASES]
)
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("batch", [1, 13, 32])
def test_train_step_matches_per_array_reference(sizes, head, dropout, batch):
    train_against_reference(sizes, head, dropout, batch, steps=200)


@pytest.mark.parametrize("sizes, head, batch", [
    ([21, 128, 64, 1], "regression", 13), ([4, 128, 64, 11], "categorical", 1),
], ids=["forecaster", "transition_net"])
def test_train_step_matches_reference_once_the_first_correction_is_one(sizes, head, batch):
    # from step 356 on 1 - beta1**t == 1.0 and Adam skips m's divide by it
    assert 1 - nn.ADAM_BETA1**355 != 1.0 == 1 - nn.ADAM_BETA1**356
    train_against_reference(sizes, head, 0.5, batch, steps=400)


@pytest.mark.parametrize("restore", [
    copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["deepcopy", "pickle"])
def test_restored_net_keeps_its_parameters_on_its_flat_vector(restore):
    net = make_net([4, 16, 8, 3], head="categorical", dropout=0.5, seed=4)
    adam = nn.AdamState(net)
    twin, twin_adam = restore((net, adam))
    assert twin.flat is not net.flat and np.array_equal(twin.flat, net.flat)
    assert twin_adam.grad is not adam.grad
    rng, twin_rng = np.random.default_rng(5), np.random.default_rng(5)
    data = np.random.default_rng(6)
    start = twin.flat.copy()
    for _ in range(20):
        X, Y = training_batch(data, net.sizes, net.head, 8)
        loss = nn.train_step(net, adam, X, Y, rng=rng)
        assert nn.train_step(twin, twin_adam, X, Y, rng=twin_rng) == loss
    assert np.array_equal(twin.flat, net.flat) and not np.array_equal(twin.flat, start)
    # the parameters and their gradients read the restored vectors, the weights then the biases
    assert np.array_equal(np.concatenate(parameters(twin), axis=None), twin.flat)
    _, grads = nn._loss_and_grads(twin, twin_adam, X, Y, None)
    assert np.array_equal(np.concatenate(grads, axis=None), twin_adam.grad)
    twin.flat[:] = 7.0
    assert all(np.all(p == 7.0) for p in parameters(twin))
    assert all(np.all(p != 7.0) for p in parameters(net))


@pytest.mark.parametrize("variant", ["det-net", "mc-dropout"])
def test_copied_env_model_trains_like_the_original(variant):
    m = envmodel.EnvModel(ModelSpaces(CostParams(), 10, 10, 10), variant=variant,
                          rng=np.random.default_rng(0))
    days = np.random.default_rng(1).integers(0, [1331, 11, 11], size=(100, 3)).tolist()

    def train(model, days):
        for s, a, d in days:
            envmodel.model_update(model, s, a, *day_of(model.tables, s, a, d))

    train(m, days[:50])
    c = m.copy(np.random.default_rng(3))
    m.rng = np.random.default_rng(3)
    train(m, days[50:])
    train(c, days[50:])
    for net in ("transition_net", "cost_net"):
        for p, q in zip(parameters(getattr(m, net)), parameters(getattr(c, net))):
            assert p is not q and np.array_equal(p, q)
    for adam in ("transition_adam", "cost_adam"):
        assert np.array_equal(getattr(m, adam).moments, getattr(c, adam).moments)


@pytest.mark.parametrize("variant", ["tabular", "det-net", "mc-dropout"])
def test_model_copy_trains_on_its_own_generator_and_copies_only_adam_moments(variant):
    # a tabular model may be built without a generator, a neural one may not
    rng = None if variant == "tabular" else np.random.default_rng(0)
    m = envmodel.EnvModel(ModelSpaces(CostParams(), 10, 10, 10), variant=variant, rng=rng)
    for s, a, d in np.random.default_rng(1).integers(0, [1331, 11, 11], size=(30, 3)).tolist():
        envmodel.model_update(m, s, a, *day_of(m.tables, s, a, d))
    copy_rng = np.random.default_rng(2)
    c = m.copy(copy_rng)
    assert c.rng is copy_rng and m.rng is rng
    # no other attribute of the copy took the generator's place
    assert {k for k, v in vars(c).items() if v is copy_rng} == {"rng"}
    if variant == "tabular":
        assert c.cost_means == m.cost_means and c.pairs == m.pairs
        return
    for name in ("transition_adam", "cost_adam"):
        adam, twin = getattr(m, name), getattr(c, name)
        assert twin.step_count == adam.step_count == 30
        assert np.array_equal(twin.moments, adam.moments)
        for attr in ("moments", "grad", "_scratch"):
            assert not np.shares_memory(getattr(twin, attr), getattr(adam, attr))
        # a pickle carries the moments (2N doubles) but not the gradient and
        # apply's working space (3N doubles)
        data = pickle.dumps(adam)
        assert np.array_equal(pickle.loads(data).moments, adam.moments)
        assert adam.moments.nbytes < len(data) < adam.moments.nbytes + adam.grad.nbytes


def trained_model_and_inputs(variant, rows):
    """A model trained on 20 random days, and the encoded inputs of `rows` random pairs."""
    m = envmodel.EnvModel(ModelSpaces(CostParams(), 10, 10, 10), variant=variant,
                          rng=np.random.default_rng(rows))
    days = np.random.default_rng(rows + 1).integers(0, [1331, 11, 11], size=(20 + rows, 3))
    for s, a, d in days[:20].tolist():
        envmodel.model_update(m, s, a, *day_of(m.tables, s, a, d))
    return m, np.array([m._encode(s, a) for s, a, _ in days[20:].tolist()])


# each id also names the model's transition loss, which is always categorical
NET_IDS = ["transition_net-categorical", "cost_net-categorical"]


@pytest.mark.parametrize("rows", [1, 2, 37, 170])
@pytest.mark.parametrize("net_name", ["transition_net", "cost_net"], ids=NET_IDS)
def test_stacked_forward_matches_one_row_forwards(rows, net_name):
    # a det-net plans from a (rows, 1, 4) stack; each row must get the bits
    # of its own one-row forward, which a (rows, 4) matrix product does not
    m, X = trained_model_and_inputs("det-net", rows)
    net = getattr(m, net_name)
    stacked = nn.forward(net, X[:, None, :])
    assert stacked.shape == (rows, 1, net.sizes[-1])
    for x, out in zip(X, stacked):
        assert out.tobytes() == nn.forward(net, x[None, None])[0].tobytes()


@pytest.mark.parametrize("rows", [1, 2, 37, 170])
@pytest.mark.parametrize("samples", [1, 10])
@pytest.mark.parametrize("net_name", ["transition_net", "cost_net"], ids=NET_IDS)
def test_stacked_mc_predict_matches_one_row_reads(rows, samples, net_name):
    # an MC-dropout burst reads a (rows, 1, 4) stack on (rows, samples, width)
    # uniforms; each row must get the bits of its own one-row read, which a
    # (rows * samples, width) matrix product does not give
    m, X = trained_model_and_inputs("mc-dropout", rows)
    net = getattr(m, net_name)
    U = np.random.default_rng(rows + 2).random((rows, samples, nn.mask_width(net)))
    stacked = nn.mc_predict(net, X[:, None, :], U)
    assert stacked.shape == (rows, 1, net.sizes[-1])
    for x, u, out in zip(X, U, stacked):
        assert out.tobytes() == nn.mc_predict(net, x[None, None], u[None])[0].tobytes()


class ConstantUniforms:
    """A generator stand-in whose random(out=) fills the buffer with one value."""

    def __init__(self, value):
        self.value = value

    def random(self, out):
        out.fill(self.value)
        return out


@pytest.mark.parametrize("entry", ["mc_predict", "train_step"])
def test_a_uniform_at_keep_drops_its_unit(entry):
    # a unit is kept when its uniform is below keep = 1 - dropout; a double
    # lands on keep with probability 2**-53, so no record digest can tell
    # (u < keep) from (u <= keep)
    keep = 1.0 - 0.5
    x = np.random.default_rng(1).uniform(0.0, 1.0, 4)

    def result(u):
        net = make_net([4, 16, 8, 3], head="categorical", dropout=0.5, seed=2)
        if entry == "mc_predict":
            U = np.full((1, 10, nn.mask_width(net)), u)
            return nn.mc_predict(net, x[None, None], U).tobytes()
        nn.train_step(net, nn.AdamState(net), x[None], np.array([1]), rng=ConstantUniforms(u))
        return net.flat.tobytes()

    assert result(keep) == result(0.75)
    assert result(keep) != result(np.nextafter(keep, 0.0))


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_mc_predict_rejects_multi_row_input(dropout):
    net = make_net([3, 4, 2], dropout=dropout)
    u = nn.mc_uniforms(net, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.mc_predict(net, np.ones((2, 3)), u)


@pytest.mark.parametrize("entry, shape", [
    ("forward", (3,)), ("forward", (1, 3)),
    ("mc_predict", (3,)), ("mc_predict", (1, 3)),
    ("train_step", (3,)), ("train_step", (2, 1, 3)),
], ids=["forward-1-D", "forward-(1, n)", "mc_predict-1-D", "mc_predict-(1, n)",
        "train_step-1-D", "train_step-stack"])
def test_each_entry_point_takes_one_input_shape(entry, shape):
    # forward and mc_predict read a (rows, 1, n) stack, train_step a (batch, n) matrix
    net = make_net([3, 4, 2], dropout=0.5)
    before = net.flat.copy()
    rng = np.random.default_rng(0)
    x = np.ones(shape)
    with pytest.raises(ValueError, match=r"got shape \("):
        if entry == "forward":
            nn.forward(net, x)
        elif entry == "mc_predict":
            nn.mc_predict(net, x, nn.mc_uniforms(net, 10, rng)[None])
        else:
            nn.train_step(net, nn.AdamState(net), x, np.zeros((len(x), 2)), rng=rng)
    assert np.array_equal(net.flat, before)


@pytest.mark.parametrize("x_shape, u_shape", [
    ((1, 1, 3), (2, 10, 4)),  # a one-row stack with a two-row stack of uniforms
    ((2, 1, 3), (10, 4)),  # a stack with one row's uniforms
    ((2, 1, 3), (3, 10, 4)),  # one row of uniforms too many
    ((2, 1, 3), (2, 0, 4)),  # no samples
    ((2, 1, 3), (2, 10, 5)),  # wider than the hidden layer
])
def test_mc_predict_rejects_uniforms_off_the_input(x_shape, u_shape):
    net = make_net([3, 4, 2], dropout=0.5)
    with pytest.raises(ValueError, match="uniforms"):
        nn.mc_predict(net, np.ones(x_shape), np.zeros(u_shape))


def test_mc_uniforms_checks_samples_and_generator():
    net = make_net([3, 4, 2], dropout=0.5)
    with pytest.raises(ValueError, match="samples"):
        nn.mc_uniforms(net, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs an rng"):
        nn.mc_uniforms(net, 10, None)


def test_constructor_validation():
    with pytest.raises(ValueError):
        nn.Network([3], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.Network([3, 2], dropout=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.Network([3, 2], head="nope", rng=np.random.default_rng(0))
