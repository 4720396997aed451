import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from coldstart_dynaq import forecast, nn
from coldstart_dynaq.demand import DemandSeries, discretized_gamma, synthesize_history
from coldstart_dynaq.env import CostParams, DomainError, InventoryState, state_index
from coldstart_dynaq.envmodel import ModelSpaces
from coldstart_dynaq.forecast import (
    _design_row,
    build_warm_start,
    generate_offline,
    train_forecaster,
)
from helpers import AdamReference, point_mass, train_step_reference

SPACES = ModelSpaces(CostParams(), s_max=10, a_max=10, d_max=10)
START = dt.date(2021, 1, 1)


def constant_series(value, days, rng_seed=0):
    return synthesize_history(point_mass(value, 10), days, START, np.random.default_rng(rng_seed))


def mean_prediction(f, series, day):
    """The forecaster's dropout-off prediction for `day`, clamped to [0, d_max]."""
    x = _design_row(f.d_max, series, day)[None, None]
    raw = float(nn.forward(f.net, x)[0, 0, 0]) * f.d_max
    return min(max(raw, 0.0), float(f.d_max))


def train_forecaster_reference(series, epochs, rng, d_max):
    """The fit as a per-batch loop of reference steps, each batch gathered by its indices.

    Returns the net and the number of steps taken.
    """
    window = forecast.WINDOW
    X = np.stack([_design_row(d_max, series, day) for day in range(window, len(series))])
    y = series.quantities[window:].astype(float)[:, None] / d_max
    net = nn.Network([window + 14, *forecast._HIDDEN, 1], dropout=forecast._DROPOUT,
                     head="regression", rng=rng)
    adam = AdamReference(net)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), forecast._BATCH_SIZE):
            idx = order[start:start + forecast._BATCH_SIZE]
            train_step_reference(net, adam, X[idx], y[idx], rng)
    return net, adam.step_count


class TestTrainForecaster:
    def test_fit_matches_the_per_batch_reference(self):
        # 45 rows, so each epoch is a batch of 32 and one of 13; 200 epochs
        # make 400 steps, past step 356, where Adam stops dividing m
        series = synthesize_history(discretized_gamma(5.0, 3.0, 10), 52, START,
                                    np.random.default_rng(14))
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        f = train_forecaster(series, epochs=200, rng=rng, d_max=10)
        ref_net, steps = train_forecaster_reference(series, 200, ref_rng, 10)
        assert steps == 400
        assert f.net.flat.tobytes() == ref_net.flat.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_fitted_forecaster_holds_no_gradient(self):
        # the gradient lives with the fit's optimiser and goes with it: every
        # array the returned net holds is its parameter vector or a view of it
        f = train_forecaster(constant_series(4, 40), epochs=1, rng=np.random.default_rng(0),
                             d_max=10)
        held = [x for v in vars(f.net).values() for x in (v if isinstance(v, list) else [v])]
        arrays = [x for x in held if isinstance(x, np.ndarray)]
        assert len(arrays) == 1 + 2 * (len(f.net.sizes) - 1)
        assert all(np.shares_memory(x, f.net.flat) for x in arrays)

    def test_fits_constant_series(self):
        series = constant_series(4, 120)
        f = train_forecaster(series, epochs=600, rng=np.random.default_rng(0), d_max=10)
        preds = [mean_prediction(f, series, day) for day in range(100, 115)]
        assert all(abs(p - 4) <= 0.5 for p in preds)

    def test_beats_trivial_error_bound(self):
        dist = discretized_gamma(5.0, 1.0, 10)
        series = synthesize_history(dist, 500, START, np.random.default_rng(1))
        f = train_forecaster(series, epochs=100, rng=np.random.default_rng(2), d_max=10)
        holdout = range(400, 500)
        errors = [
            abs(mean_prediction(f, series, day) - series.quantities[day])
            for day in holdout
        ]
        assert np.mean(errors) <= 2.0

    def test_window_too_large(self):
        series = constant_series(4, 5)
        with pytest.raises(DomainError):
            train_forecaster(series, epochs=1, rng=np.random.default_rng(0), d_max=10)


class TestGenerateOffline:
    def _forecaster(self):
        series = constant_series(5, 80)
        return train_forecaster(series, epochs=50, rng=np.random.default_rng(3), d_max=10)

    def test_single_day_bounds(self):
        f = self._forecaster()
        offline = generate_offline(f, 1, rng=np.random.default_rng(4))
        assert len(offline) == 1
        assert 0 <= offline.quantities[0] <= 10

    def test_same_rng_gives_the_same_series(self):
        # every generated day draws its dropout masks from rng
        f = self._forecaster()
        a = generate_offline(f, 5, rng=np.random.default_rng(5))
        b = generate_offline(f, 5, rng=np.random.default_rng(5))
        assert (a.start, len(a)) == (b.start, len(b))
        assert list(a.quantities) == list(b.quantities)

    def test_starts_the_day_after_the_history(self):
        f = self._forecaster()
        offline = generate_offline(f, 3, rng=np.random.default_rng(9))
        assert offline.start == f.history.date(len(f.history)) == dt.date(2021, 3, 22)

    def test_default_horizon(self):
        f = self._forecaster()
        offline = generate_offline(f, 10, rng=np.random.default_rng(7))
        assert len(offline) == 10
        assert offline.quantities.dtype.kind == "i"

    def test_leaves_the_history_unchanged(self):
        # the forecast days are filled into a working copy, not the history
        f = self._forecaster()
        history = f.history
        start, quantities = history.start, history.quantities.copy()
        generate_offline(f, 6, rng=np.random.default_rng(6))
        assert f.history is history and history.start == start
        assert history.quantities.tobytes() == quantities.tobytes()

    def test_invalid_horizon(self):
        f = self._forecaster()
        with pytest.raises(DomainError):
            generate_offline(f, 0, rng=np.random.default_rng(8))

    def test_days_past_the_last_date_fail_before_any_draw(self):
        # the history ends three days before date.max, so 10 more days pass it
        f = self._forecaster()
        n = len(f.history)
        start = dt.date.max - dt.timedelta(days=n - 1 + 3)
        f = replace(f, history=DemandSeries(start, f.history.quantities))
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match=f"{n + 10} days from {start} pass 9999-12-31"):
            generate_offline(f, 10, rng=rng)
        assert rng.bit_generator.state == state


class TestBuildWarmStart:
    def test_zero_demand_learns_zero_ordering(self):
        offline = synthesize_history(point_mass(0, 10), 10, START, np.random.default_rng(9))
        warm = build_warm_start(offline, SPACES, epochs=100, seed=0,
                                initial_state=InventoryState(0, 0, 0))
        empty = state_index(InventoryState(0, 0, 0), 10)
        assert int(np.argmin(warm.q[empty])) == 0

    def test_model_supported_on_offline_classes(self):
        offline = synthesize_history(point_mass(4, 10), 10, START, np.random.default_rng(10))
        warm = build_warm_start(offline, SPACES, epochs=50, seed=1)
        assert len(warm.model.visited) > 0
        support = np.flatnonzero(warm.model.demand_counts)
        assert set(support) <= set(offline.quantities)

    def test_seeded_determinism(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        offline = synthesize_history(dist, 10, START, np.random.default_rng(11))
        a = build_warm_start(offline, SPACES, epochs=20, seed=2)
        b = build_warm_start(offline, SPACES, epochs=20, seed=2)
        assert a.q == b.q
        assert np.array_equal(a.model.demand_counts, b.model.demand_counts)
        assert list(a.model.visited) == list(b.model.visited)

    def test_q_zero_on_unvisited_pairs(self):
        offline = synthesize_history(point_mass(4, 10), 10, START, np.random.default_rng(12))
        warm = build_warm_start(offline, SPACES, epochs=5, seed=3)
        values = np.array(warm.q)
        assert np.all(np.isfinite(values))
        visited_states = {k[0] for k in warm.model.visited}
        untouched = [i for i in range(len(values)) if i not in visited_states]
        assert np.all(values[untouched] == 0.0)

    def test_empty_series_rejected(self):
        empty = synthesize_history(point_mass(0, 10), 0, START, np.random.default_rng(13))
        with pytest.raises(DomainError):
            build_warm_start(empty, SPACES)
