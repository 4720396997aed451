"""Tabular Q-values over cost-to-go, with the cost-minimizing update rule.

All Q operations work on dense state/action indices; the env module owns
the bijection between states and indices.

A Q-table is its list rows, one list of Python floats per state, which
q_update and select_action work on in place: per-call numpy overhead on
an 11-element row costs more than the arithmetic, and Python floats are
IEEE doubles, so the same operations in the same order give the same
bits. The learning rate and discount are the Learner's, which checks
them and passes them to each update call; a file stores them beside the
values. q_update applies a sequence of transitions in one loop: a real
step, or a neural model's planning burst, costs one call. A tabular
model's burst, envmodel.plan, applies the same update in the loop that
reads it, with no transition built between the draw and its update. A
Learner keeps mins beside the rows, each row's minimum, which both read
for their target and keep current, so an update scans a row only when it
raises that row's minimum. min is exact, so the target's bits are those
of min(rows[s_next]).
"""

import json
import math

from .env import DomainError, is_finite_real


def q_update(rows: list, mins: list, transitions, alpha: float, gamma: float) -> None:
    """Q-learning steps toward cost + gamma * min_a' Q(s', a'), one per transition, in order.

    transitions holds (s, a, s_next, cost) tuples, as envmodel.plan reads
    them for a neural model. rows is a Q-table and mins[i] is min(rows[i]).
    Each step changes rows[s][a] and mins[s]: mins[s] takes the new entry if
    it is lower, and is recomputed only when the entry that rose was the
    minimum. A non-finite cost raises ValueError with its entry unchanged
    and every earlier transition applied.
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


def select_action(row: list, epsilon: float, rng) -> int:
    """Epsilon-greedy over one cost row: explore uniformly, else argmin.

    rng is the learner's wordstream.WordStream, or a numpy Generator: only
    random() and integers(n) are called, which draw alike from both.
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


def greedy_policy(rows: list) -> list[int]:
    """Per-state argmin action, lowest index on ties (deterministic testing)."""
    return [row.index(min(row)) for row in rows]


def save_qtable(rows: list, alpha: float, gamma: float, path) -> None:
    payload = {
        "shape": [len(rows), len(rows[0])],
        "alpha": alpha,
        "gamma": gamma,
        "values": [v for row in rows for v in row],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _check_payload(path, payload) -> None:
    """Reject with one DomainError, naming path, a payload that is no Q-table file."""
    if not isinstance(payload, dict) or not {"shape", "alpha", "gamma", "values"} <= set(payload):
        raise DomainError(f"{path}: a Q-table file is an object with shape, alpha, gamma, values")
    shape = payload["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n >= 1 for n in shape)):
        raise DomainError(f"{path}: shape must be two integers >= 1, got {shape!r}")
    for key in ("alpha", "gamma"):
        if not (is_finite_real(payload[key]) and 0.0 < payload[key] < 1.0):
            raise DomainError(f"{path}: {key} must be in (0,1), got {payload[key]!r}")
    values = payload["values"]
    # argmin would pick a NaN entry's action
    if not (isinstance(values, list) and len(values) == shape[0] * shape[1]
            and all(is_finite_real(v) for v in values)):
        raise DomainError(f"{path}: values must be a list of {shape[0] * shape[1]} finite numbers")


def load_qtable(path) -> list[list[float]]:
    """The float rows of a Q-table file, once its payload passes _check_payload."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        # not UTF-8 text, not JSON, or nested past the interpreter's recursion limit
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"unreadable Q-table {path}: {exc}") from exc
    _check_payload(path, payload)
    n_a = payload["shape"][1]
    # a whole number in the file is a JSON integer; the rows hold floats
    values = [float(v) for v in payload["values"]]
    return [values[i:i + n_a] for i in range(0, len(values), n_a)]
