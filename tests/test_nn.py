import numpy as np
import pytest

from coldstart_dynaq import nn


def make_net(sizes, head="regression", dropout=0.0, seed=0):
    return nn.Network(sizes, dropout=dropout, head=head, rng=np.random.default_rng(seed))


class TestForward:
    def test_zero_weights_zero_output(self):
        net = make_net([3, 4, 2])
        for w in net.weights:
            w[:] = 0.0
        assert np.array_equal(nn.forward(net, np.array([1.0, -2.0, 3.0])), [0.0, 0.0])

    def test_hand_arithmetic_1d(self):
        net = make_net([1, 1, 1])
        net.weights[0][:] = 2.0
        net.biases[0][:] = 1.0
        net.weights[1][:] = 1.0
        net.biases[1][:] = 0.0
        assert nn.forward(net, np.array([3.0]))[0] == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        net = make_net([3, 4, 2])
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros(5))

    def test_seeded_dropout_reproducible(self):
        net = make_net([3, 8, 2], dropout=0.5)
        x = np.array([0.5, -0.5, 1.0])
        a = nn.forward(net, x, training=True, rng=np.random.default_rng(9))
        b = nn.forward(net, x, training=True, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_softmax_head_valid_distribution(self):
        net = make_net([3, 8, 5], head="categorical")
        out = nn.forward(net, np.array([1.0, 2.0, 3.0]))
        assert np.all(out > 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestTrainStep:
    def test_matching_target_keeps_loss_zero(self):
        net = make_net([2, 4, 1])
        X = np.array([[0.3, 0.7]])
        target = nn.forward(net, X)
        adam = nn.AdamState(net)
        loss = nn.train_step(net, adam, X, target)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_fits_linear_function(self):
        # y = 2x with a 1-parameter linear model (single dense layer)
        rng = np.random.default_rng(1)
        net = make_net([1, 1], seed=1)
        adam = nn.AdamState(net, learning_rate=0.01)
        X = rng.uniform(-1, 1, size=(32, 1))
        for _ in range(500):
            nn.train_step(net, adam, X, 2.0 * X)
        assert net.weights[0][0, 0] == pytest.approx(2.0, abs=0.05)

    def test_non_finite_loss_raises(self):
        net = make_net([1, 1])
        adam = nn.AdamState(net)
        with pytest.raises(FloatingPointError):
            nn.train_step(net, adam, np.array([[np.inf]]), np.array([[0.0]]))


class TestGradients:
    @pytest.mark.parametrize("head", ["regression", "categorical", "categorical_mse"])
    def test_finite_difference_check(self, head):
        rng = np.random.default_rng(2)
        net = make_net([4, 6, 5, 3], head=head, seed=2)
        X = rng.normal(size=(7, 4))
        if head == "regression":
            Y = rng.normal(size=(7, 3))
        else:
            Y = rng.integers(0, 3, size=7)
        _, grads = nn._loss_and_grads(net, X, Y, None)
        params = net.parameters()
        h = 1e-4
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = nn.batch_loss(net, X, Y)
                flat[idx] = orig - h
                down = nn.batch_loss(net, X, Y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = g.reshape(-1)[idx]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-3

    def test_gradient_with_fixed_dropout_masks(self):
        rng = np.random.default_rng(3)
        net = make_net([3, 8, 4, 2], dropout=0.5, seed=3)
        masks = nn.draw_masks(net, 5, rng)
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=(5, 2))
        _, grads = nn._loss_and_grads(net, X, Y, masks)
        p = net.weights[0]
        g = grads[0]
        h = 1e-4
        orig = p[0, 0]
        p[0, 0] = orig + h
        up = nn.batch_loss(net, X, Y, masks)
        p[0, 0] = orig - h
        down = nn.batch_loss(net, X, Y, masks)
        p[0, 0] = orig
        numeric = (up - down) / (2 * h)
        assert abs(numeric - g[0, 0]) / max(abs(numeric), 1e-8) < 1e-3

    def test_adam_zero_gradient_no_move(self):
        net = make_net([2, 3, 1])
        adam = nn.AdamState(net)
        before = [p.copy() for p in net.parameters()]
        adam.apply(net, [np.zeros_like(p) for p in net.parameters()])
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)


class TestMcPredict:
    def test_no_dropout_zero_variance(self):
        net = make_net([3, 4, 2])
        x = np.array([1.0, 2.0, 3.0])
        pred = nn.mc_predict(net, x, samples=10)
        assert np.array_equal(pred.variance, np.zeros(2))
        assert np.array_equal(pred.mean, nn.forward(net, x))

    def test_single_sample_zero_variance(self):
        net = make_net([3, 4, 2], dropout=0.5)
        pred = nn.mc_predict(net, np.ones(3), samples=1, rng=np.random.default_rng(4))
        assert np.allclose(pred.variance, 0.0)

    def test_seeded_reproducibility(self):
        net = make_net([3, 8, 2], dropout=0.5)
        x = np.array([0.1, 0.2, 0.3])
        a = nn.mc_predict(net, x, samples=10, rng=np.random.default_rng(5))
        b = nn.mc_predict(net, x, samples=10, rng=np.random.default_rng(5))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

    def test_variance_nonnegative(self):
        net = make_net([3, 8, 2], dropout=0.5)
        pred = nn.mc_predict(net, np.ones(3), samples=10, rng=np.random.default_rng(6))
        assert np.all(pred.variance >= 0.0)


def mc_predict_reference(net, x, samples, rng):
    """The per-sample loop mc_predict replaced: one single-row training pass per sample."""
    draws = np.stack([nn.forward(net, x, training=True, rng=rng) for _ in range(samples)])
    return draws.mean(axis=0), draws.var(axis=0)


@pytest.mark.parametrize("head", ["categorical", "categorical_mse", "regression"])
@pytest.mark.parametrize("samples", [1, 10])
@pytest.mark.parametrize("row_shape", ["1-D", "(1, n)"])
@pytest.mark.parametrize("hidden", [(128, 64), (6,), ()], ids=["128-64", "6", "no-hidden"])
def test_mc_predict_matches_per_sample_loop(head, samples, row_shape, hidden):
    out = 1 if head == "regression" else 11
    for seed in range(3):
        net = make_net([4, *hidden, out], head=head, dropout=0.5, seed=seed)
        x = np.random.default_rng(seed + 100).uniform(0.0, 1.0, 4)
        if row_shape == "(1, n)":
            x = x[None, :]
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean, variance = mc_predict_reference(net, x, samples, ref_rng)
        pred = nn.mc_predict(net, x, samples=samples, rng=rng)
        assert pred.mean.shape == mean.shape
        assert np.array_equal(pred.mean, mean)
        assert np.array_equal(pred.variance, variance)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_mc_predict_rejects_multi_row_input(dropout):
    net = make_net([3, 4, 2], dropout=dropout)
    with pytest.raises(ValueError):
        nn.mc_predict(net, np.ones((2, 3)), rng=np.random.default_rng(0))


def test_constructor_validation():
    with pytest.raises(ValueError):
        nn.Network([3], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.Network([3, 2], dropout=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.Network([3, 2], head="nope", rng=np.random.default_rng(0))
