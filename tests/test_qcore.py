import numpy as np
import pytest
from scipy import stats

from coldstart_dynaq.env import DomainError
from coldstart_dynaq.qcore import (
    QTable,
    greedy_policy,
    load_qtable,
    q_update,
    save_qtable,
    select_action,
)


def make_q(n_states=3, n_actions=3, alpha=0.3, gamma=0.9):
    return QTable(n_states, n_actions, alpha, gamma)


class TestQUpdate:
    def test_single_step_from_zero(self):
        q = make_q()
        assert q_update(q, 0, 1, 2.0, 2) == pytest.approx(0.6)

    def test_zero_cost_fixed_point(self):
        q = make_q()
        assert q_update(q, 0, 0, 0.0, 1) == 0.0

    def test_hand_evaluation(self):
        q = make_q()
        q.values[0, 0] = 1.0
        q.values[1, :] = 1.0
        assert q_update(q, 0, 0, 0.1, 1) == pytest.approx(1.0)

    def test_only_target_entry_changes(self):
        q = make_q()
        q.values[:] = np.arange(9).reshape(3, 3).astype(float)
        before = q.values.copy()
        q_update(q, 1, 2, 3.0, 0)
        mask = np.ones_like(before, dtype=bool)
        mask[1, 2] = False
        assert np.array_equal(q.values[mask], before[mask])

    def test_non_finite_cost(self):
        q = make_q()
        with pytest.raises(ValueError):
            q_update(q, 0, 0, float("nan"), 1)


class TestSelectAction:
    def test_pure_argmin(self):
        q = make_q(1, 3)
        q.values[0] = [3.0, 1.0, 2.0]
        rng = np.random.default_rng(0)
        assert all(select_action(q, 0, 0.0, rng) == 1 for _ in range(50))

    def test_full_exploration_uniform(self):
        q = make_q(1, 4)
        rng = np.random.default_rng(1)
        counts = np.bincount(
            [select_action(q, 0, 1.0, rng) for _ in range(10**4)], minlength=4
        )
        assert stats.chisquare(counts).pvalue > 0.001

    def test_greedy_tie_break_uniform(self):
        q = make_q(1, 3)
        q.values[0] = [1.0, 1.0, 5.0]
        rng = np.random.default_rng(2)
        picks = [select_action(q, 0, 0.0, rng) for _ in range(4000)]
        assert 2 not in picks
        frac = picks.count(0) / len(picks)
        assert 0.45 < frac < 0.55

    def test_argmin_invariant_under_row_shift(self):
        q = make_q(1, 3)
        q.values[0] = [3.0, 1.0, 2.0]
        rng = np.random.default_rng(3)
        before = select_action(q, 0, 0.0, rng)
        q.values[0] += 10.0
        after = select_action(q, 0, 0.0, rng)
        assert before == after == 1

    def test_epsilon_bounds(self):
        q = make_q()
        with pytest.raises(ValueError):
            select_action(q, 0, 1.5, np.random.default_rng(0))


class TestGreedyPolicy:
    def test_single_state(self):
        q = make_q(1, 2)
        q.values[0] = [2.0, 1.0]
        assert greedy_policy(q)[0] == 1

    def test_all_equal_picks_lowest_index(self):
        q = make_q(4, 3)
        assert list(greedy_policy(q)) == [0, 0, 0, 0]

    def test_matches_value_iteration_on_toy_mdp(self):
        # 2 states, 2 actions, deterministic: action 0 stays (cost 1 in s0,
        # cost 0 in s1), action 1 switches (cost 0.5 from s0, cost 2 from s1)
        costs = np.array([[1.0, 0.5], [0.0, 2.0]])
        nxt = np.array([[0, 1], [1, 0]])
        gamma = 0.9

        v = np.zeros(2)
        for _ in range(2000):
            v = np.min(costs + gamma * v[nxt], axis=1)
        oracle = np.argmin(costs + gamma * v[nxt], axis=1)

        q = QTable(2, 2, 0.5, gamma)
        rng = np.random.default_rng(4)
        s = 0
        for _ in range(20000):
            a = select_action(q, s, 0.3, rng)
            q_update(q, s, a, costs[s, a], nxt[s, a])
            s = nxt[s, a]
        assert np.array_equal(greedy_policy(q), oracle)


def test_serialization_round_trip(tmp_path):
    q = make_q(4, 3)
    q.values[:] = np.random.default_rng(5).normal(size=(4, 3))
    path = tmp_path / "q.json"
    save_qtable(q, path)
    loaded = load_qtable(path)
    assert loaded.alpha == q.alpha and loaded.gamma == q.gamma
    assert np.array_equal(loaded.values, q.values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_load_refuses_non_finite_values(tmp_path, bad):
    # argmin would pick a NaN entry's action, so such a table must not load
    q = make_q(4, 3)
    q.values[2, 1] = bad
    path = tmp_path / "q.json"
    save_qtable(q, path)
    with pytest.raises(DomainError):
        load_qtable(path)


def test_invalid_learning_params():
    with pytest.raises(ValueError):
        QTable(2, 2, 0.0, 0.9)
    with pytest.raises(ValueError):
        QTable(2, 2, 0.5, 1.0)
