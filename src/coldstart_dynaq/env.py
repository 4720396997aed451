"""Perishable-inventory MDP with three shelf-life buckets and FIFO consumption.

A day unfolds as: yesterday's order arrives and all stock ages one day
(units that hit zero shelf-life are discarded), holding cost is charged on
the post-receive stock, demand is served oldest-first, and unmet demand is
lost and penalized. Holding cost is charged on the pre-sale inventory, not
the end-of-day inventory.

step() is the readable reference for one day, on dataclass states. An
order is a plain int there as everywhere, and every bound (s_max, a_max,
d_max) is passed in: ExperimentSpec holds their only defaults. Hot loops
instead use the integer core: states as dense indices (see state_index)
and the day dynamics tabulated once per ModelSpaces by day_tables, so
one day is a lookup of next-state index and cost by (table row, order,
demand). The day ages the stock before it charges or serves anything,
so the one-day bucket s1 is discarded unread and the tables keep one row
per live pair (s2, s3): state index s reads row s % (s_max+1)**2.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Upper bound on every cost parameter. A day then costs at most
# COST_MAX * (3 * s_max + d_max) and a Q-value at most that over 1 - gamma
# (>= 2**-53 for a float gamma < 1). For any state space whose day tables
# fit in memory both stay finite, and so does the cost net's squared error
# on such costs.
COST_MAX = 1e6


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def is_finite_real(value) -> bool:
    """True for a finite int or float; a bool, a str or an int past the
    float range is not a number here."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class InventoryState:
    """Stock levels bucketed by remaining shelf-life in days (1, 2, 3)."""

    s1: int
    s2: int
    s3: int


@dataclass(frozen=True)
class CostParams:
    """Per-unit holding costs by shelf-life bucket and the shortage penalty.

    b1 > b2 >= b3 >= 0: the oldest stock is the most expensive to hold since
    it is discarded at the end of the day. b1 and cs are at most COST_MAX.
    """

    b1: float = 0.7
    b2: float = 0.3
    b3: float = 0.0
    cs: float = 1.0

    def __post_init__(self):
        if not all(is_finite_real(v) for v in (self.b1, self.b2, self.b3, self.cs)):
            raise DomainError(f"cost parameters must be finite numbers, got {self}")
        if not (self.b1 > self.b2 >= self.b3 >= 0.0):
            raise DomainError(f"need b1 > b2 >= b3 >= 0, got {self}")
        if self.cs < 0.0:
            raise DomainError(f"shortage cost must be >= 0, got {self.cs}")
        if max(self.b1, self.cs) > COST_MAX:
            raise DomainError(f"cost parameters must be <= {COST_MAX:g}, got {self}")


@dataclass(frozen=True)
class DayOutcome:
    next_state: InventoryState
    cost: float
    shortage: int
    demand_served: int


def _check_state(state: InventoryState, s_max: int) -> None:
    for v in (state.s1, state.s2, state.s3):
        if not (0 <= v <= s_max):
            raise DomainError(f"state component {v} outside [0, {s_max}]")


def step(
    state: InventoryState, order: int, demand: int, params: CostParams, s_max: int, a_max: int
) -> DayOutcome:
    """Run one full day: age the stock and receive yesterday's order, charge
    holding on that stock and the lost sales, then serve demand oldest first.

    The one-day bucket s1 is discarded as the stock ages; its cost was
    charged through the b1 holding term the day before.
    """
    _check_state(state, s_max)
    if not (0 <= order <= a_max):
        raise DomainError(f"order {order} outside [0, {a_max}]")
    if demand < 0:
        raise DomainError(f"demand must be >= 0, got {demand}")
    x1, x2, x3 = state.s2, state.s3, order
    shortage = max(demand - (x1 + x2 + x3), 0)
    cost = params.b1 * x1 + params.b2 * x2 + params.b3 * x3 + params.cs * shortage
    # FIFO: each bucket loses the demand left over after the older ones
    left = InventoryState(
        max(x1 - demand, 0), max(x2 - max(demand - x1, 0), 0), max(x3 - max(demand - x1 - x2, 0), 0)
    )
    return DayOutcome(left, cost, shortage, demand - shortage)


def state_index(state: InventoryState, s_max: int) -> int:
    """Dense index in [0, (s_max+1)^3), lexicographic in (s1, s2, s3)."""
    _check_state(state, s_max)
    n = s_max + 1
    return (state.s1 * n + state.s2) * n + state.s3


def num_states(s_max: int) -> int:
    return (s_max + 1) ** 3


def num_actions(a_max: int) -> int:
    return a_max + 1


@dataclass(frozen=True)
class ModelSpaces:
    """Cost parameters and the bounds of the state, order and demand ranges."""

    cost_params: CostParams
    s_max: int
    a_max: int
    d_max: int

    def __post_init__(self):
        # an order becomes the freshest bucket, so a_max > s_max would let
        # the state index (s1*n + s2)*n + s3 alias distinct states
        if not (self.s_max >= 0 and self.d_max >= 0 and 0 <= self.a_max <= self.s_max):
            raise DomainError(f"need s_max >= 0, d_max >= 0 and 0 <= a_max <= s_max, got {self}")


@dataclass(frozen=True)
class DayTables:
    """One day's dynamics for every (row r, order a, demand d).

    State index s reads row r = s % len(next), its live buckets (s2, s3):
    step() discards s1 before it charges or serves anything, so the day is
    the same for every s1 and the tables hold (s_max+1)**2 rows, not
    (s_max+1)**3. next[r, a, d] is the next state's full index and
    cost[r, a, d] the day's cost, both equal to step(); stock[r, a] is the
    on-hand stock after the order arrives, so demand d falls short exactly
    when d > stock.
    """

    next: np.ndarray
    cost: np.ndarray
    stock: np.ndarray


@functools.lru_cache(maxsize=8)
def day_tables(spaces: ModelSpaces) -> DayTables:
    """Tabulate step() over all live pairs (s2, s3), orders and demands
    (read-only, cached).

    Built one demand slice at a time to keep the transient memory small;
    the cost and the leftover demand keep step()'s operation order, so
    every entry is bit-identical to it.
    """
    p, n = spaces.cost_params, spaces.s_max + 1
    r = np.arange(n**2)
    # post-receive buckets (s2, s3, a) by (row, order)
    x1, x2 = (r // n)[:, None], (r % n)[:, None]
    x3 = np.arange(spaces.a_max + 1)[None, :]
    stock = x1 + x2 + x3
    holding = p.b1 * x1 + p.b2 * x2 + p.b3 * x3
    shape = (n**2, spaces.a_max + 1, spaces.d_max + 1)
    nxt = np.empty(shape, dtype=np.min_scalar_type(n**3 - 1))
    cost = np.empty(shape)
    for d in range(spaces.d_max + 1):
        # FIFO: demand left over after the older buckets
        y1 = np.maximum(x1 - d, 0)
        y2 = np.maximum(x2 - np.maximum(d - x1, 0), 0)
        y3 = np.maximum(x3 - np.maximum(d - x1 - x2, 0), 0)
        nxt[:, :, d] = (y1 * n + y2) * n + y3
        cost[:, :, d] = holding + p.cs * np.maximum(d - stock, 0)
    for table in (nxt, cost, stock):
        table.flags.writeable = False
    return DayTables(next=nxt, cost=cost, stock=stock)
