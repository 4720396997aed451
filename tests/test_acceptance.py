"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS``/``FAIL`` line so the whole gate
can be read off the pytest output at a glance. The heavyweight benchmark
criteria (6-8) run the real harness at reduced scale with fixed master
seeds and enforce their wall-clock budgets.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from coldstart_dynaq import bench, nn
from coldstart_dynaq.cli import main as cli_main
from coldstart_dynaq.demand import discretized_gamma, sample
from coldstart_dynaq.env import CostParams, InventoryState, state_index, step
from coldstart_dynaq.envmodel import EnvModel, model_update, transition_pmf
from coldstart_dynaq.qcore import q_update
from coldstart_dynaq.schedule import StcSchedule, stc_value
from helpers import batch_loss, enumerate_states, parameters


def _verdict(number: int, label: str, passed: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


class TestCriterion1:
    def test_q_learning_matches_value_iteration(self):
        start = time.perf_counter()
        # 3-state deterministic chain: action 1 advances (cost = state index),
        # action 0 stays (cost = state index + 1); state 2 loops to itself
        gamma = 0.9

        def transition(s, a):
            cost = float(s + (1 if a == 0 else 0))
            nxt = min(s + 1, 2) if a == 1 else s
            return cost, nxt

        v = np.zeros(3)
        while True:
            new = np.array([
                min(transition(s, a)[0] + gamma * v[transition(s, a)[1]] for a in (0, 1))
                for s in range(3)
            ])
            if np.max(np.abs(new - v)) < 1e-12:
                break
            v = new

        rows = [[0.0] * 2 for _ in range(3)]
        mins = [min(row) for row in rows]
        for _ in range(2000):
            for s in range(3):
                for a in (0, 1):
                    cost, nxt = transition(s, a)
                    q_update(rows, mins, [(s, a, nxt, cost)], 0.9, gamma)
        gap = float(np.max(np.abs(np.array(rows).min(axis=1) - v)))
        elapsed = time.perf_counter() - start
        _verdict(1, "Q-learning matches value iteration", gap < 1e-4 and elapsed < 1.0)


class TestCriterion2:
    def test_fifo_exhaustive_brute_force(self):
        def unit_greedy(state, d):
            buckets = [state.s1, state.s2, state.s3]
            for _ in range(d):
                for i in range(3):
                    if buckets[i] > 0:
                        buckets[i] -= 1
                        break
            return InventoryState(*buckets)

        # step() serves the stock x it ages to: s2 and s3 age to x1 and x2,
        # and the order is received as x3
        cases = 0
        ok = True
        for x in enumerate_states(s_max=3):
            for d in range(10):
                cases += 1
                out = step(InventoryState(0, x.s1, x.s2), x.s3, d, CostParams(), 3, 3)
                ok = ok and out.next_state == unit_greedy(x, d)
        _verdict(2, "FIFO equals unit-greedy oracle on 640 cases", ok and cases == 640)


class TestCriterion3:
    def test_stc_values_exact(self):
        sched = StcSchedule(0.4, 0.1, 7500.0)

        def hand(t):
            return max(0.4 / (1.0 + t * t / (7500.0 + t)), 0.1)

        checks = [abs(stc_value(sched, t) - hand(t)) < 1e-12 for t in (0, 1, 100, 10**6)]
        floor_binds = stc_value(sched, 10**6) == 0.1
        _verdict(3, "STC schedule exact at probe points", all(checks) and floor_binds)


class TestCriterion4:
    def test_gradient_finite_difference(self):
        start = time.perf_counter()
        ok = True
        for head in ("regression", "categorical"):
            rng = np.random.default_rng(11)
            net = nn.Network([4, 6, 5, 3], dropout=0.0, head=head, rng=rng)
            X = rng.normal(size=(7, 4))
            Y = rng.normal(size=(7, 3)) if head == "regression" else rng.integers(0, 3, size=7)
            _, grads = nn._loss_and_grads(net, nn.AdamState(net), X, Y, None)
            h = 1e-4
            for p, g in zip(parameters(net), grads):
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
                    ok = ok and abs(numeric - analytic) / denom < 1e-3
        elapsed = time.perf_counter() - start
        _verdict(4, "analytic gradients match finite differences", ok and elapsed < 10.0)


class TestCriterion5:
    def test_tabular_model_tv_convergence(self):
        start = time.perf_counter()
        true = discretized_gamma(5.0, 5.0, 10)
        spaces = bench.ExperimentSpec().spaces()
        model = EnvModel(spaces, variant="tabular", rng=np.random.default_rng(0))
        rng = np.random.default_rng(42)
        s, a = InventoryState(0, 0, 5), 3
        s_idx = state_index(s, 10)

        for d in sample(true, rng, 10_000):
            out = step(s, a, d, spaces.cost_params, spaces.s_max, spaces.a_max)
            model_update(model, s_idx, a, state_index(out.next_state, 10), out.cost)
        tv = 0.5 * float(np.abs(transition_pmf(model, s_idx, a) - true.pmf).sum())
        elapsed = time.perf_counter() - start
        _verdict(5, "tabular model TV distance < 0.03", tv < 0.03 and elapsed < 5.0)


class TestCriterion6:
    def test_fig3_transfer_tracks_truth_better(self):
        start = time.perf_counter()
        spec = bench.ExperimentSpec(master_seed=0, repetitions=100, workers=4)
        result = bench.run_fig3(spec)
        true_value = result["true_probability"]
        in_range = 0.08 <= true_value <= 0.14

        def final_estimate(rep, algorithm, transfer):
            for r in result["records"]:
                if (r["replication"], r["algorithm"], r["transfer"]) == (rep, algorithm, transfer):
                    return r["trace"][-1]
            raise KeyError((rep, algorithm, transfer))

        wins = 0
        for rep in range(spec.repetitions):
            adj = final_estimate(rep, "adjusted-dyna-q", True)
            base = final_estimate(rep, "q-learning", False)
            if adj is None:
                continue
            if base is None or abs(adj - true_value) < abs(base - true_value):
                wins += 1
        elapsed = time.perf_counter() - start
        _verdict(
            6,
            "transition-probability tracking beats cold Q-learning",
            in_range and wins >= 60 and elapsed < 120.0,
        )


class TestCriterion7:
    def test_table1_directional_reproduction(self):
        start = time.perf_counter()
        spec = bench.ExperimentSpec(
            master_seed=0,
            repetitions=20,
            workers=4,
            sigma2=5.0,
            algorithms=("adjusted-dyna-q", "q-learning"),
        )
        result = bench.run_table1(spec)
        summary = result["report"]["summary"]
        mean_ok = (
            summary["adjusted-dyna-q"]["mean_daily_cost"]
            <= summary["q-learning"]["mean_daily_cost"]
        )

        per_seed = {}
        for r in result["records"]:
            per_seed.setdefault(r["replication"], {})[r["algorithm"]] = r["avg_daily_cost"]
        wins = sum(
            1 for pair in per_seed.values()
            if pair["adjusted-dyna-q"] < pair["q-learning"]
        )
        losses = sum(
            1 for pair in per_seed.values()
            if pair["adjusted-dyna-q"] > pair["q-learning"]
        )
        # one-sided sign test: reject only if wins are significantly below half
        sign_p = binomtest(wins, wins + losses, 0.5, alternative="less").pvalue
        not_rejected = sign_p >= 0.05

        steps = spec.train_episodes * spec.horizon
        p = bench.TABLE1_PARAMS
        adjusted_steps = bench.total_planning_steps(
            StcSchedule(p.n0, p.n_min, p.n_smoothing), steps
        )
        classic_steps = round(p.n0) * steps
        planning_ok = adjusted_steps <= 0.35 * classic_steps

        elapsed = time.perf_counter() - start
        _verdict(
            7,
            "adjusted Dyna-Q cost and planning budget vs baselines",
            mean_ok and not_rejected and planning_ok and elapsed < 600.0,
        )


class TestCriterion8:
    def test_scenario_transfer_effects(self):
        start = time.perf_counter()
        spec = bench.ExperimentSpec(master_seed=0, repetitions=20, workers=4, sigma2=5.0)
        result = bench.run_scenario2(spec)
        records = result["records"]

        def rows(algorithm, transfer):
            return [
                r for r in records
                if r["algorithm"] == algorithm and r["transfer"] == transfer
            ]

        transfer_var = np.mean(
            [r["test"]["total_cost_variance"] for r in rows("adjusted-dyna-q", True)]
        )
        cold_var = np.mean(
            [r["test"]["total_cost_variance"] for r in rows("adjusted-dyna-q", False)]
        )
        variance_ok = transfer_var <= 0.8 * cold_var

        wins = 0
        for rep in range(spec.repetitions):
            costs = {
                (r["algorithm"], r["transfer"]): r["test"]["avg_total_cost"]
                for r in records if r["replication"] == rep
            }
            wins += min(costs, key=costs.get) == ("adjusted-dyna-q", True)
        win_ok = wins >= 0.6 * spec.repetitions

        elapsed = time.perf_counter() - start
        _verdict(
            8,
            "transfer cuts test-cost variance and wins the comparison",
            variance_ok and win_ok and elapsed < 1800.0,
        )


class TestCriterion9:
    def test_cli_reruns_byte_identical(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "repetitions": 2,
            "train_episodes": 2,
            "horizon": 10,
            "test_days": 5,
            "test_repetitions": 3,
            "source_days": 60,
            "forecaster_epochs": 2,
            "warm_epochs": 2,
            "offline_horizon": 5,
        }))
        ok = True
        for command in ("table1", "fig3"):
            a, b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
            for out in (a, b):
                code = cli_main([
                    command, "--config", str(config), "--out", str(out), "--seed", "12",
                ])
                ok = ok and code == 0
            for artifact in (f"{command}_records.jsonl", f"{command}_report.json",
                             f"{command}_summary.csv"):
                ok = ok and (a / artifact).read_bytes() == (b / artifact).read_bytes()
        _verdict(9, "CLI reruns are byte-identical", ok)
