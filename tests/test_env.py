import numpy as np
import pytest

from coldstart_dynaq.env import (
    COST_MAX,
    CostParams,
    DomainError,
    InventoryState,
    ModelSpaces,
    day_tables,
    num_actions,
    num_states,
    state_index,
    step,
)
from helpers import enumerate_states

PARAMS = CostParams(0.7, 0.3, 0.0, 1.0)


def total(x: InventoryState) -> int:
    return x.s1 + x.s2 + x.s3


def aged(state: InventoryState, order: int) -> InventoryState:
    """The stock step() charges and serves: a day of no demand leaves it."""
    return step(state, order, 0, PARAMS, 10, 10).next_state


def cost_on(x: InventoryState, demand: int) -> float:
    """step()'s cost of a day whose aged stock is x: x3 is the order received."""
    return step(InventoryState(0, x.s1, x.s2), x.s3, demand, PARAMS, 10, 10).cost


def serve(x: InventoryState, demand: int) -> InventoryState:
    """step()'s next state of a day whose aged stock is x."""
    return step(InventoryState(0, x.s1, x.s2), x.s3, demand, PARAMS, 10, 10).next_state


class TestAgeAndReceive:
    def test_shift_and_receive(self):
        assert aged(InventoryState(0, 1, 4), 6) == InventoryState(1, 4, 6)

    def test_empty_fixed_point(self):
        assert aged(InventoryState(0, 0, 0), 0) == InventoryState(0, 0, 0)

    def test_hand_trace(self):
        assert aged(InventoryState(0, 0, 5), 3) == InventoryState(0, 5, 3)

    def test_out_of_range_action(self):
        with pytest.raises(DomainError):
            aged(InventoryState(0, 0, 0), 11)
        with pytest.raises(DomainError):
            aged(InventoryState(0, 0, 0), -1)


class TestPeriodCost:
    def test_shortage_only(self):
        assert cost_on(InventoryState(0, 0, 5), 7) == pytest.approx(2.0)

    def test_empty_zero(self):
        assert cost_on(InventoryState(0, 0, 0), 0) == 0.0

    def test_holding_only(self):
        assert cost_on(InventoryState(2, 3, 4), 1) == pytest.approx(2.3)

    def test_negative_demand(self):
        with pytest.raises(DomainError):
            cost_on(InventoryState(0, 0, 0), -1)

    def test_monotone_in_demand(self):
        state = InventoryState(1, 2, 3)
        costs = [cost_on(state, d) for d in range(15)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


class TestConsumeDemand:
    def test_fifo_partial(self):
        assert serve(InventoryState(2, 3, 4), 4) == InventoryState(0, 1, 4)

    def test_zero_demand_identity(self):
        assert serve(InventoryState(2, 3, 4), 0) == InventoryState(2, 3, 4)

    def test_drain_everything(self):
        assert serve(InventoryState(1, 1, 1), 10) == InventoryState(0, 0, 0)

    def test_conservation(self):
        for state in enumerate_states(s_max=3):
            for d in range(10):
                after = serve(state, d)
                assert total(state) - total(after) == min(d, total(state))

    def test_fifo_dominance(self):
        for state in enumerate_states(s_max=3):
            for d in range(10):
                after = serve(state, d)
                if state.s1 + state.s2 >= d:
                    assert after.s3 == state.s3
                if state.s1 >= d:
                    assert after.s2 == state.s2

    def test_matches_unit_greedy_oracle(self):
        # remove one unit at a time from the lowest shelf-life bucket
        def greedy(state, d):
            buckets = [state.s1, state.s2, state.s3]
            for _ in range(d):
                for i in range(3):
                    if buckets[i] > 0:
                        buckets[i] -= 1
                        break
            return InventoryState(*buckets)

        for state in enumerate_states(s_max=3):
            for d in range(10):
                assert serve(state, d) == greedy(state, d)


class TestStep:
    def test_hand_trace_shortage(self):
        out = step(InventoryState(0, 0, 5), 0, 7, PARAMS, 10, 10)
        assert out.next_state == InventoryState(0, 0, 0)
        assert out.cost == pytest.approx(3.5)
        assert out.shortage == 2
        assert out.demand_served == 5

    def test_empty_identity(self):
        out = step(InventoryState(0, 0, 0), 0, 0, PARAMS, 10, 10)
        assert out.next_state == InventoryState(0, 0, 0)
        assert out.cost == 0.0
        assert out.shortage == 0

    def test_monitored_pair_transition(self):
        out = step(InventoryState(0, 0, 3), 2, 2, PARAMS, 10, 10)
        assert out.next_state == InventoryState(0, 1, 2)
        assert out.cost == pytest.approx(0.9)
        assert out.shortage == 0

    def test_deterministic(self):
        a = step(InventoryState(1, 2, 3), 4, 5, PARAMS, 10, 10)
        b = step(InventoryState(1, 2, 3), 4, 5, PARAMS, 10, 10)
        assert a == b


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_states(s_max=1)) == 8
        assert len(enumerate_states(s_max=10)) == 1331
        assert num_actions(a_max=10) == 11

    def test_index_bijection(self):
        states = enumerate_states(s_max=10)
        assert len({state_index(s, 10) for s in states}) == num_states(10)
        for i, s in enumerate(states):
            assert state_index(s, 10) == i
        # the dense order is lexicographic in (s1, s2, s3)
        assert [(s.s1, s.s2, s.s3) for s in states] == sorted((s.s1, s.s2, s.s3) for s in states)


def test_cost_params_ordering_enforced():
    with pytest.raises(DomainError):
        CostParams(0.3, 0.7, 0.0, 1.0)


@pytest.mark.parametrize("params", [
    (0.7, 0.3, 0.0, float("nan")), (0.7, 0.3, 0.0, float("inf")),
    (float("inf"), 0.3, 0.0, 1.0),
    ("0.7", 0.3, 0.0, 1.0), (0.7, 0.3, 0.0, True), (0.7, 0.3, None, 1.0),
])
def test_cost_params_must_be_finite(params):
    with pytest.raises(DomainError):
        CostParams(*params)


@pytest.mark.parametrize("params", [(1e308, 0.3, 0.0, 1.0), (0.7, 0.3, 0.0, 1e200)])
def test_cost_params_above_the_bound(params):
    # the first overflowed the day tables, the second the cost net's loss
    with pytest.raises(DomainError, match="cost parameters must be <= 1e\\+06"):
        CostParams(*params)


def test_cost_params_at_the_bound_give_finite_day_costs():
    spaces = ModelSpaces(CostParams(COST_MAX, 0.3, 0.0, COST_MAX), 10, 10, 10)
    assert np.isfinite(day_tables(spaces).cost).all()


@pytest.mark.parametrize("bounds", [
    dict(s_max=-1, a_max=0), dict(d_max=-1), dict(a_max=-1), dict(s_max=5, a_max=6),
])
def test_model_spaces_bounds_enforced(bounds):
    with pytest.raises(DomainError):
        ModelSpaces(PARAMS, **(dict(s_max=10, a_max=10, d_max=10) | bounds))


@pytest.mark.parametrize("spaces", [
    ModelSpaces(CostParams(0.7, 0.3, 0.1, 1.3), s_max=10, a_max=10, d_max=10),
    ModelSpaces(CostParams(0.9, 0.4, 0.2, 0.5), s_max=4, a_max=2, d_max=13),
])
def test_day_tables_equal_step_everywhere(spaces):
    """Exhaustive oracle: every (state, order, demand) read at the state's
    row s % (s_max+1)**2 equals step(), the cost to the last bit."""
    tables = day_tables(spaces)
    n = spaces.s_max + 1
    rows = np.arange(n**3) % n**2
    outs = [
        [
            [step(s, a, d, spaces.cost_params, spaces.s_max, spaces.a_max)
             for d in range(spaces.d_max + 1)]
            for a in range(spaces.a_max + 1)
        ]
        for s in enumerate_states(spaces.s_max)
    ]
    next_idx = [[[state_index(o.next_state, spaces.s_max) for o in row] for row in day]
                for day in outs]
    assert np.array_equal(tables.next[rows], next_idx)
    assert tables.cost[rows].tolist() == [[[o.cost for o in row] for row in day] for day in outs]
    short = tables.stock[rows][:, :, None] < np.arange(spaces.d_max + 1)
    assert short.tolist() == [[[o.shortage > 0 for o in row] for row in day] for day in outs]
    assert not (tables.next.flags.writeable or tables.cost.flags.writeable)


@pytest.mark.parametrize("spaces", [
    ModelSpaces(CostParams(0.7, 0.3, 0.1, 1.3), s_max=10, a_max=10, d_max=10),
    ModelSpaces(CostParams(0.9, 0.4, 0.2, 0.5), s_max=4, a_max=2, d_max=13),
])
def test_day_tables_hold_one_row_per_live_pair(spaces):
    # s1 is discarded before the day charges or serves anything
    tables = day_tables(spaces)
    n, orders, demands = spaces.s_max + 1, spaces.a_max + 1, spaces.d_max + 1
    assert tables.next.shape == tables.cost.shape == (n**2, orders, demands)
    assert tables.stock.shape == (n**2, orders)
