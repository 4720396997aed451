import datetime as dt
import json
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from coldstart_dynaq import agents, bench
from coldstart_dynaq.demand import discretized_gamma, sample, synthesize_history
from coldstart_dynaq.env import (
    CostParams,
    DomainError,
    InventoryState,
    ModelSpaces,
    day_tables,
    num_actions,
    num_states,
    state_index,
)
from coldstart_dynaq.envmodel import EnvModel, sample_visited, simulate
from coldstart_dynaq.forecast import build_warm_start
from coldstart_dynaq.qcore import (
    greedy_policy,
    load_qtable,
    q_update,
    save_qtable,
    select_action,
)
from coldstart_dynaq.schedule import StcSchedule, constant
from coldstart_dynaq.wordstream import WordStream


ALPHA, GAMMA = 0.3, 0.9


def make_q(n_states=3, n_actions=3):
    """A fresh Q-table: list rows of zeros."""
    return [[0.0] * n_actions for _ in range(n_states)]


def rows_and_mins(q):
    """q's own list rows, which q_update updates in place, and each row's minimum."""
    return q, [min(row) for row in q]


class TestQUpdate:
    def test_single_step_from_zero(self):
        q = make_q()
        q_update(*rows_and_mins(q), [(0, 1, 2, 2.0)], ALPHA, GAMMA)
        assert q[0][1] == pytest.approx(0.6)

    def test_zero_cost_fixed_point(self):
        q = make_q()
        q_update(*rows_and_mins(q), [(0, 0, 1, 0.0)], ALPHA, GAMMA)
        assert q[0][0] == 0.0

    def test_hand_evaluation(self):
        q = make_q()
        q[0][0] = 1.0
        q[1] = [1.0] * 3
        q_update(*rows_and_mins(q), [(0, 0, 1, 0.1)], ALPHA, GAMMA)
        assert q[0][0] == pytest.approx(1.0)

    def test_only_target_entry_changes(self):
        q = np.arange(9).reshape(3, 3).astype(float).tolist()
        before = np.array(q)
        q_update(*rows_and_mins(q), [(1, 2, 0, 3.0)], ALPHA, GAMMA)
        mask = np.ones_like(before, dtype=bool)
        mask[1, 2] = False
        assert np.array_equal(np.array(q)[mask], before[mask])

    def test_non_finite_cost(self):
        q = make_q()
        with pytest.raises(ValueError):
            q_update(*rows_and_mins(q), [(0, 0, 1, float("nan"))], ALPHA, GAMMA)
        # within a burst: the transitions before the bad one have landed,
        # and its own entry and the ones after it are unchanged
        for bad in (float("nan"), float("inf"), -float("inf")):
            rows, mins = rows_and_mins(make_q())
            with pytest.raises(ValueError):
                q_update(rows, mins, [(0, 1, 2, 2.0), (1, 0, 0, 1.0), (2, 2, 1, bad),
                                      (2, 0, 1, 4.0)], ALPHA, GAMMA)
            assert rows[0][1] == pytest.approx(0.6)
            assert rows[1][0] == pytest.approx(0.3)
            assert rows[2] == [0.0, 0.0, 0.0]
            assert mins == [min(row) for row in rows]


class TestSelectAction:
    def test_pure_argmin(self):
        row = [3.0, 1.0, 2.0]
        rng = np.random.default_rng(0)
        assert all(select_action(row, 0.0, rng) == 1 for _ in range(50))

    def test_full_exploration_uniform(self):
        row = [0.0] * 4
        rng = np.random.default_rng(1)
        counts = np.bincount(
            [select_action(row, 1.0, rng) for _ in range(10**4)], minlength=4
        )
        assert stats.chisquare(counts).pvalue > 0.001

    def test_greedy_tie_break_uniform(self):
        row = [1.0, 1.0, 5.0]
        rng = np.random.default_rng(2)
        picks = [select_action(row, 0.0, rng) for _ in range(4000)]
        assert 2 not in picks
        frac = picks.count(0) / len(picks)
        assert 0.45 < frac < 0.55

    def test_argmin_invariant_under_row_shift(self):
        row = [3.0, 1.0, 2.0]
        rng = np.random.default_rng(3)
        before = select_action(row, 0.0, rng)
        row = [v + 10.0 for v in row]
        after = select_action(row, 0.0, rng)
        assert before == after == 1

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            select_action([0.0] * 3, 1.5, np.random.default_rng(0))


class TestGreedyPolicy:
    def test_single_state(self):
        assert greedy_policy([[2.0, 1.0]]) == [1]

    def test_all_equal_picks_lowest_index(self):
        assert greedy_policy(make_q(4, 3)) == [0, 0, 0, 0]

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

        rows, mins = rows_and_mins(make_q(2, 2))
        rng = np.random.default_rng(4)
        s = 0
        for _ in range(20000):
            a = select_action(rows[s], 0.3, rng)
            q_update(rows, mins, [(s, a, nxt[s, a], costs[s, a])], 0.5, gamma)
            s = nxt[s, a]
        assert greedy_policy(rows) == oracle.tolist()

    def test_trained_table_matches_numpy_argmin(self):
        # a short Dyna-Q run on the table1 spec leaves most rows all ties
        spec, params = bench.ExperimentSpec(), bench.TABLE1_PARAMS
        eps, plan = bench.schedules(params, "dyna-q")
        config = agents.AgentConfig(params.alpha, params.gamma, eps, plan,
                                    horizon=spec.horizon, episodes=3)
        q = agents.train(config, spec.true_demand(), spec.spaces(), spec.initial_state).q
        assert sum(len(set(row)) == 1 for row in q) > len(q) // 2
        assert greedy_policy(q) == np.argmin(np.array(q), axis=1).tolist()


# entries that tie, signed zeros and magnitudes far apart
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, 1e300]),
                    st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 11).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=1, max_size=20)))
def test_greedy_policy_takes_numpy_argmins_tie_rule(rows):
    assert greedy_policy(rows) == np.argmin(np.array(rows), axis=1).tolist()


def numpy_q_update(values, s, a, cost, s_next, alpha, gamma):
    """Reference for q_update: the same step in numpy on a [states x actions] array."""
    target = cost + gamma * values[s_next].min()
    values[s, a] += alpha * (target - values[s, a])


def numpy_select_action(values, s, epsilon, rng):
    """Reference for select_action: the same choice in numpy on a [states x actions] array."""
    if rng.random() < epsilon:
        return int(rng.integers(values.shape[1]))
    row = values[s]
    best = np.flatnonzero(row == row.min())
    return int(best[rng.integers(len(best))])


def test_rows_match_the_numpy_reference_bit_for_bit():
    # 12 states keep s == s_next common; rows reset to a constant keep
    # greedy ties common, and raise their tied minimum entry by entry;
    # epsilon is 0, 1 or uniform in between
    n_states, n_actions, steps = 12, 11, 100_000
    rows, mins = rows_and_mins(make_q(n_states, n_actions))
    ref = np.zeros((n_states, n_actions))
    ref_rng, row_rng = np.random.default_rng(7), np.random.default_rng(7)
    plan = np.random.default_rng(8)
    states = plan.integers(n_states, size=steps)
    nexts = np.where(plan.random(steps) < 0.2, states, plan.integers(n_states, size=steps))
    costs = np.where(plan.random(steps) < 0.3, 0.0, plan.exponential(2.0, steps))
    epsilons = np.choose(plan.integers(3, size=steps), [0.0, 1.0, plan.random(steps)])
    ref_actions, row_actions, ties = [], [], 0
    for i, (s, s_next, cost, eps) in enumerate(
        zip(states.tolist(), nexts.tolist(), costs.tolist(), epsilons.tolist())
    ):
        if i % 25 == 0:
            ref[s] = i % 50 / 10
            rows[s] = [i % 50 / 10] * n_actions
            mins[s] = i % 50 / 10
        ties += eps == 0.0 and rows[s].count(min(rows[s])) > 1
        a = numpy_select_action(ref, s, eps, ref_rng)
        ref_actions.append(a)
        numpy_q_update(ref, s, a, cost, s_next, ALPHA, GAMMA)
        a = select_action(rows[s], eps, row_rng)
        row_actions.append(a)
        q_update(rows, mins, [(s, a, s_next, cost)], ALPHA, GAMMA)
    assert ties > steps // 20
    assert row_actions == ref_actions
    assert np.array(rows).tobytes() == ref.tobytes()
    assert np.array(mins).tobytes() == ref.min(axis=1).tobytes()
    assert row_rng.bit_generator.state == ref_rng.bit_generator.state


# a row of distinct entries, so that an update can raise its unique minimum;
# a row of ties; and rows holding -0.0 and 0.0
ROW_STARTS = st.sampled_from([
    [3.0, 1.0, 2.0, 5.0],
    [1.0, 1.0, 1.0, 1.0],
    [0.0, -0.0, 0.0, 2.0],
    [-0.0, 0.0, -0.0, -0.0],
    [0.5, 4.0, 0.5, 0.25],
])
# a cost of 0 with a low target lowers an entry, a large one raises it;
# the harness's costs are never negative
UPDATES = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2),
              st.sampled_from([0.0, 0.1, 1.0, 50.0])),
    min_size=1, max_size=60,
)
# how many updates each q_update call applies; the rest go in one last burst
BURST_LENGTHS = st.lists(st.integers(0, 8), max_size=20)


@given(st.lists(ROW_STARTS, min_size=3, max_size=3), UPDATES, BURST_LENGTHS,
       st.sampled_from([0.3, 0.9]))
def test_row_minima_stay_exact_and_leave_the_rows_as_a_full_scan_does(starts, updates, lengths,
                                                                       alpha):
    rows = [row[:] for row in starts]
    mins = [min(row) for row in rows]
    ref = [row[:] for row in starts]
    cuts = [0, *accumulate(lengths)]
    for start, end in zip(cuts, [*cuts[1:], len(updates)]):
        burst = updates[start:end]
        q_update(rows, mins, burst, alpha, 0.9)
        for s, a, s_next, cost in burst:
            # the update as it reads with every target's minimum taken by a scan
            ref[s][a] += alpha * (cost + 0.9 * min(ref[s_next]) - ref[s][a])
        assert all(low == min(row) for low, row in zip(mins, rows))
        assert np.array(rows).tobytes() == np.array(ref).tobytes()


SPACES = ModelSpaces(CostParams(), s_max=10, a_max=10, d_max=10)
DEMAND = discretized_gamma(5.0, 5.0, 10)


def _train():
    config = agents.AgentConfig(
        epsilon_schedule=StcSchedule(0.4, 0.1, 7500.0),
        planning_schedule=StcSchedule(10.0, 2.0, 500.0),
        horizon=30,
        episodes=2,
    )
    return agents.train(config, DEMAND, SPACES, InventoryState(0, 0, 5))


def _warm_start():
    offline = synthesize_history(DEMAND, 10, dt.date(2024, 1, 1), np.random.default_rng(0))
    return build_warm_start(offline, SPACES, epochs=5)


@pytest.mark.parametrize("learn", [_train, _warm_start])
def test_a_finished_learner_holds_only_its_written_back_table(monkeypatch, learn):
    # every update lands in the table's own rows, so a finished learner
    # holds no second copy and its q is the table it learned
    updated, update, planned = [], agents.q_update, agents.plan

    def keeping_update(rows, *args):
        updated.append(rows)
        return update(rows, *args)

    def keeping_plan(m, n, stream, rows, *args):
        updated.append(rows)
        return planned(m, n, stream, rows, *args)

    monkeypatch.setattr(agents, "q_update", keeping_update)
    monkeypatch.setattr(agents, "plan", keeping_plan)
    learner = learn()
    assert updated and all(rows is learner.q for rows in updated)
    assert not hasattr(learner, "rows") and not hasattr(learner, "finish")
    assert any(any(row) for row in learner.q)


def test_learner_q_is_current_after_every_step():
    # each step's real update, then its planned burst, drawn pair by pair
    # with numpy on a generator of the planning stream's seed
    q = make_q(num_states(SPACES.s_max), num_actions(SPACES.a_max))
    ref = np.zeros((len(q), len(q[0])))
    demands = sample(DEMAND, np.random.default_rng(3), 20)
    plan_ref = np.random.default_rng(2)
    steps = 0
    with (WordStream(np.random.default_rng(1)) as explore,
          WordStream(np.random.default_rng(2)) as planning):
        learner = agents.Learner(q, EnvModel(SPACES), ALPHA, GAMMA, constant(0.4),
                                 constant(5.0), explore, planning)

        def learn(s, a, s_next, cost):
            nonlocal steps
            learner.learn(s, a, s_next, cost)
            numpy_q_update(ref, s, a, cost, s_next, ALPHA, GAMMA)
            for _ in range(learner.n_plan):
                ps, pa = sample_visited(learner.model, plan_ref)
                sim_next, sim_cost = simulate(learner.model, ps, pa, plan_ref)
                numpy_q_update(ref, ps, pa, sim_cost, sim_next, ALPHA, GAMMA)
            assert np.array(learner.q).tobytes() == ref.tobytes()
            steps += 1

        agents.rollout(day_tables(SPACES), state_index(InventoryState(0, 0, 5), 10), demands,
                       learner.act, learn)
    assert steps == 20 and learner.planning_steps == 100 and ref.any()
    # a transfer configuration learns on a copy of the warm start's rows
    warm = _warm_start()
    before = [row[:] for row in warm.q]
    assert any(any(row) for row in before)
    config = agents.AgentConfig(planning_schedule=StcSchedule(10.0, 2.0, 500.0), warm_start=warm,
                                horizon=30, episodes=1)
    trained = agents.train(config, DEMAND, SPACES, InventoryState(0, 0, 5))
    assert trained.q != before
    assert warm.q == before


def test_serialization_round_trip(tmp_path):
    q = np.random.default_rng(5).normal(size=(4, 3)).tolist()
    path = tmp_path / "q.json"
    save_qtable(q, ALPHA, GAMMA, path)
    payload = json.loads(path.read_text())
    assert (payload["shape"], payload["alpha"], payload["gamma"]) == ([4, 3], ALPHA, GAMMA)
    assert load_qtable(path) == q


def test_load_builds_float_rows(tmp_path):
    # a whole-number entry is a JSON integer in the file, and a float in the rows
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(
        {"shape": [2, 3], "alpha": 0.3, "gamma": 0.9, "values": [0, 1, 2.5, -3, 4, 0.25]}))
    q = load_qtable(path)
    assert q == [[0.0, 1.0, 2.5], [-3.0, 4.0, 0.25]]
    assert all(type(v) is float for row in q for v in row)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_qtable(q, ALPHA, GAMMA, first)
    save_qtable(load_qtable(first), ALPHA, GAMMA, second)
    assert first.read_bytes() == second.read_bytes()
    assert '"values": [0.0, 1.0, 2.5, -3.0, 4.0, 0.25]' in first.read_text()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_load_refuses_non_finite_values(tmp_path, bad):
    # argmin would pick a NaN entry's action, so such a table must not load
    q = make_q(4, 3)
    q[2][1] = bad
    path = tmp_path / "q.json"
    save_qtable(q, ALPHA, GAMMA, path)
    with pytest.raises(DomainError):
        load_qtable(path)


@pytest.mark.parametrize("text", ["[" * 100_000, "{nope"], ids=["nested", "not-json"])
def test_load_refuses_unreadable_json_naming_the_file(tmp_path, text):
    # a file nested past the recursion limit was a RecursionError
    path = tmp_path / "q.json"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"unreadable Q-table {path}: "):
        load_qtable(path)


@pytest.mark.parametrize("key, value", [("alpha", 0), ("alpha", 1), ("alpha", 1.5), ("gamma", 1.0)])
def test_load_refuses_learning_params_out_of_range_naming_the_file(tmp_path, key, value):
    # an alpha or gamma out of (0, 1) gave the one error line that left out the file
    path = tmp_path / "q.json"
    path.write_text(json.dumps(
        {"shape": [3, 3], "alpha": 0.3, "gamma": 0.9, "values": [0.0] * 9, key: value}))
    with pytest.raises(DomainError,
                       match=rf"^{re.escape(str(path))}: {key} must be in \(0,1\), got {value}$"):
        load_qtable(path)


def test_invalid_learning_params():
    # the learner that uses alpha and gamma is the one place they are checked
    def learner(alpha, gamma):
        return agents.Learner(make_q(), EnvModel(SPACES), alpha, gamma, constant(0.4),
                              constant(0.0), None)

    with pytest.raises(ValueError, match=r"^alpha must be in \(0,1\), got 0.0$"):
        learner(0.0, 0.9)
    with pytest.raises(ValueError, match=r"^gamma must be in \(0,1\), got 1.0$"):
        learner(0.5, 1.0)
