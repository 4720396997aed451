"""Transfer-learning pipeline for cold-start products.

An MC-dropout forecaster is fitted to the demand history of a similar
existing product, rolled out autoregressively to produce a short offline
demand series for the new product, and that series seeds a warm-start
Q-table and environment model for the training loops.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .agents import Learner, rollout
from .demand import DemandSeries, extract_features
from .env import (
    DomainError,
    InventoryState,
    ModelSpaces,
    day_tables,
    num_actions,
    num_states,
    state_index,
)
from .envmodel import EnvModel
from .schedule import constant
from .wordstream import WordStream

_HIDDEN = (128, 64)
_BATCH_SIZE = 32
_DROPOUT = 0.5

# The lag window: the forecaster reads the WINDOW days before the one it predicts.
WINDOW = 7
# The warm start's exploration rate, held for all of its epochs.
WARM_EPSILON = 0.2


@dataclass
class Forecaster:
    """MC-dropout network over lag/calendar features, scalar demand output.

    It is fitted and read at dropout _DROPOUT. Inputs and the target are
    scaled by d_max internally; predictions are clamped to [0, d_max] and
    rounded half-up when generating demand.
    """

    net: nn.Network
    history: DemandSeries
    d_max: int


def _design_row(d_max: int, series: DemandSeries, day: int) -> np.ndarray:
    x = extract_features(series, day, WINDOW)
    x[: WINDOW + 1] /= d_max
    return x


def train_forecaster(
    series: DemandSeries,
    epochs: int = 200,
    *,
    rng: np.random.Generator,
    d_max: int,
) -> Forecaster:
    """Fit the forecaster to (features, next-day demand) pairs by Adam/MSE in shuffled minibatches."""
    if len(series) <= WINDOW + 1:
        raise DomainError(f"series of length {len(series)} too short for window {WINDOW}")
    X = np.stack([_design_row(d_max, series, day) for day in range(WINDOW, len(series))])
    y = series.quantities[WINDOW:].astype(float)[:, None] / d_max

    net = nn.Network([X.shape[1], *_HIDDEN, 1], dropout=_DROPOUT, head="regression", rng=rng)
    adam = nn.AdamState(net)
    n = len(X)
    for _ in range(epochs):
        order = rng.permutation(n)
        # one gather per epoch; each batch is a slice of it
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, _BATCH_SIZE):
            end = start + _BATCH_SIZE
            nn.train_step(net, adam, X_epoch[start:end], y_epoch[start:end], rng=rng)
    return Forecaster(net=net, history=series, d_max=d_max)


def predict_next(
    f: Forecaster,
    series: DemandSeries,
    day_index: int,
    rng: np.random.Generator,
) -> int:
    """One demand prediction, clamped to [0, d_max] and rounded half-up.

    It is a single dropout-sampled forward pass, its masks drawn from rng,
    which preserves day-to-day variability in generated series.
    """
    x = _design_row(f.d_max, series, day_index)[None, None]
    raw = float(nn.mc_predict(f.net, x, nn.mc_uniforms(f.net, 1, rng)[None])[0, 0, 0])
    value = math.floor(raw * f.d_max + 0.5)
    return min(max(value, 0), f.d_max)


def generate_offline(f: Forecaster, h: int, rng: np.random.Generator) -> DemandSeries:
    """Autoregressive rollout of the h forecasted days after the training history.

    Each generated day is filled into one working series, the history's
    start and its quantities with h zeros appended, so later days condition
    on earlier forecasts. A working series whose last day would pass
    datetime.date.max is one DomainError before any draw. The emitted
    series starts the day after the history.
    """
    if h < 1:
        raise DomainError(f"horizon must be >= 1, got {h}")
    n = len(f.history)
    working = DemandSeries(
        f.history.start, np.concatenate([f.history.quantities, np.zeros(h, dtype=int)])
    )
    for day in range(n, n + h):
        working.quantities[day] = predict_next(f, working, day, rng=rng)
    return DemandSeries(working.date(n), working.quantities[n:].copy())


def build_warm_start(
    offline: DemandSeries,
    spaces: ModelSpaces,
    alpha: float = 0.1,
    gamma: float = 0.9,
    epochs: int = 50,
    epsilon: float = WARM_EPSILON,
    model_variant: str = "tabular",
    initial_state: InventoryState = InventoryState(0, 0, 5),
    seed: int = 0,
) -> Learner:
    """Q-learning over the offline series, run `epochs` times from initial_state.

    The learner plans nothing, so it needs no planning stream; it fits its
    model in every learn step all the same, for the transfer configurations
    that read it. Both the returned learner's Q-table and its model reflect
    only demand values present in the offline series.
    """
    if len(offline) == 0:
        raise DomainError("offline series is empty")
    if offline.quantities.max() > spaces.d_max:
        raise DomainError(f"offline demand exceeds d_max {spaces.d_max}")
    ss = np.random.SeedSequence(seed)
    explore_rng, dropout_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    q = [[0.0] * num_actions(spaces.a_max) for _ in range(num_states(spaces.s_max))]
    model = EnvModel(spaces, variant=model_variant, rng=dropout_rng)
    s0 = state_index(initial_state, spaces.s_max)
    tables, demands = day_tables(spaces), offline.quantities.tolist()
    with WordStream(explore_rng) as explore:
        learner = Learner(q, model, alpha, gamma, constant(epsilon), constant(0.0), explore)
        learner.fits_model = True
        for _ in range(epochs):
            rollout(tables, s0, demands, learner.act, learner.learn)
    return learner
