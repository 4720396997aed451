"""Tabular Q-values over cost-to-go, with the cost-minimizing update rule.

All Q operations work on dense state/action indices; the env module owns
the bijection between states and indices.

A QTable holds its values as Python list rows, which q_update and
select_action work on in place: per-call numpy overhead on an 11-element
row costs more than the arithmetic, and Python floats are IEEE doubles,
so the same operations in the same order give the same bits. q_update
applies a sequence of transitions in one loop, so a planning burst costs
one call. A Learner keeps mins beside the rows, each row's minimum,
which q_update reads for its target and keeps current, so an update
scans a row only when it raises that row's minimum. min is exact, so the
target's bits are those of min(rows[s_next]). QTable.values is a
read-only array built from the rows on each read.
"""

import json
import math
from itertools import chain

import numpy as np

from .env import DomainError, is_finite_real


class QTable:
    """Dense [num_states x num_actions] table of estimated discounted cost, as list rows."""

    def __init__(self, num_states: int, num_actions: int, alpha: float, gamma: float):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        if not (0.0 < gamma < 1.0):
            raise ValueError(f"gamma must be in (0,1), got {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        # every entry of a fresh table is the one float 0.0
        self.rows = [[0.0] * num_actions for _ in range(num_states)]

    @property
    def shape(self) -> tuple[int, int]:
        """(num_states, num_actions)."""
        return len(self.rows), len(self.rows[0])

    @property
    def values(self) -> np.ndarray:
        """The rows as a new read-only [num_states x num_actions] array."""
        n_states, n_actions = self.shape
        out = np.fromiter(chain.from_iterable(self.rows), float, n_states * n_actions)
        out = out.reshape(n_states, n_actions)
        out.flags.writeable = False
        return out

    def copy(self) -> "QTable":
        out = QTable(*self.shape, self.alpha, self.gamma)
        out.rows = [row[:] for row in self.rows]
        return out


def q_update(rows: list, mins: list, transitions, alpha: float, gamma: float) -> None:
    """Q-learning steps toward cost + gamma * min_a' Q(s', a'), one per transition, in order.

    transitions holds (s, a, s_next, cost) tuples, as envmodel.plan returns
    them. rows is QTable.rows and mins[i] is min(rows[i]). Each step changes
    rows[s][a] and mins[s]: mins[s] takes the new entry if it is lower, and
    is recomputed only when the entry that rose was the minimum. A
    non-finite cost raises ValueError with its entry unchanged and every
    earlier transition applied.
    """
    isfinite = math.isfinite
    for s, a, s_next, cost in transitions:
        if not isfinite(cost):
            raise ValueError(f"cost must be finite, got {cost}")
        target = cost + gamma * mins[s_next]
        row = rows[s]
        old = row[a]
        new = row[a] = old + alpha * (target - old)
        low = mins[s]
        if new < low:
            mins[s] = new
        elif old == low < new:
            mins[s] = min(row)


def select_action(row: list, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over one cost row: explore uniformly, else argmin.

    Greedy ties are broken uniformly at random, which keeps early training
    (all-zero rows) from locking onto action 0.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    if rng.random() < epsilon:
        return int(rng.integers(len(row)))
    low = min(row)
    best = [i for i, v in enumerate(row) if v == low]
    return best[rng.integers(len(best))]


def greedy_policy(q: QTable) -> np.ndarray:
    """Per-state argmin action, lowest index on ties (deterministic testing)."""
    return np.argmin(q.values, axis=1)


def save_qtable(q: QTable, path) -> None:
    payload = {
        "shape": list(q.shape),
        "alpha": q.alpha,
        "gamma": q.gamma,
        "values": [v for row in q.rows for v in row],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _check_payload(path, payload) -> None:
    """Reject with one DomainError a Q-table file QTable cannot be built from."""
    if not isinstance(payload, dict) or not {"shape", "alpha", "gamma", "values"} <= set(payload):
        raise DomainError(f"{path}: a Q-table file is an object with shape, alpha, gamma, values")
    shape = payload["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n >= 1 for n in shape)):
        raise DomainError(f"{path}: shape must be two integers >= 1, got {shape!r}")
    for key in ("alpha", "gamma"):
        if not is_finite_real(payload[key]):
            raise DomainError(f"{path}: {key} must be a finite number, got {payload[key]!r}")
    values = payload["values"]
    # argmin would pick a NaN entry's action
    if not (isinstance(values, list) and len(values) == shape[0] * shape[1]
            and all(is_finite_real(v) for v in values)):
        raise DomainError(f"{path}: values must be a list of {shape[0] * shape[1]} finite numbers")


def load_qtable(path) -> QTable:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        # not UTF-8 text, not JSON, or nested past the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"unreadable Q-table {path}: {exc}") from exc
    _check_payload(path, payload)
    n_s, n_a = payload["shape"]
    q = QTable(n_s, n_a, payload["alpha"], payload["gamma"])
    # a whole number in the file is a JSON integer; the rows hold floats
    values = [float(v) for v in payload["values"]]
    q.rows = [values[i:i + n_a] for i in range(0, n_s * n_a, n_a)]
    return q
