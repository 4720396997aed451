import io
import json
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldstart_dynaq import agents, bench, envmodel, nn, qcore
from coldstart_dynaq.demand import cdf_of, discretized_gamma, sample
from coldstart_dynaq.env import (
    CostParams,
    DomainError,
    InventoryState,
    day_tables,
    num_states,
    state_index,
    step,
)
from coldstart_dynaq.envmodel import (
    VARIANTS,
    EnvModel,
    InconsistentTransitionError,
    ModelSpaces,
    UnvisitedPairError,
    demand_to_next_state,
    estimate_cost,
    model_update,
    plan,
    recover_demand,
    sample_visited,
    save_model,
    simulate,
    transition_pmf,
    transition_prob,
)
from coldstart_dynaq.qcore import q_update
from coldstart_dynaq.wordstream import _PAIRS, WordStream
from helpers import day_of, draw_masks_reference, enumerate_states, forward_reference

SPACES = ModelSpaces(CostParams(), s_max=10, a_max=10, d_max=10)
PAIR_S = InventoryState(0, 0, 3)
PAIR_A = 2
PAIR_NEXT = InventoryState(0, 1, 2)
# the same pair as the model's (state index, order) and next state index
S, A, NEXT = state_index(PAIR_S, 10), PAIR_A, state_index(PAIR_NEXT, 10)


def observe(m, s, a, d):
    out = step(s, a, d, SPACES.cost_params, 10, 10)
    model_update(m, state_index(s, 10), a, state_index(out.next_state, 10), out.cost)
    return out


def recover(spaces, s, a, out, cost):
    return recover_demand(spaces, state_index(s, 10), a, state_index(out.next_state, 10), cost)


def observe_table(m, s, a, d):
    """Feed the model one real day of index pair (s, a) with demand d."""
    model_update(m, s, a, *day_of(m.tables, s, a, d))


def recover_reference(tables, shift=0.0):
    """recover_demand's rule for every (row, a, d) at once, as numpy scans of the day tables.

    Entry [r, a, d] is the demand recovered from the transition of demand
    d with its cost plus shift, from any state of row r: the first demand
    e reaching the same next state with a cost within 1e-9, else the
    first demand reaching it.
    """
    nxt, cost = tables.next, tables.cost
    # [r, a, d, e]: demand e reaches demand d's next state
    same = nxt[..., :, None] == nxt[..., None, :]
    close = same & (np.abs(cost[..., None, :] - (cost[..., :, None] + shift)) <= 1e-9)
    # argmax picks the first True along e
    return np.where(close.any(axis=-1), close.argmax(axis=-1), same.argmax(axis=-1))


class TestRecoverDemand:
    def test_round_trip_all_demands(self):
        for s in enumerate_states(s_max=2):
            for a in (0, 2, 5):
                for d in range(11):
                    out = step(s, a, d, SPACES.cost_params, 10, 10)
                    assert recover(SPACES, s, a, out, out.cost) == d

    @given(
        st.tuples(*[st.integers(0, 10)] * 4),
        st.integers(0, 10),
        st.sampled_from([
            CostParams(), CostParams(0.9, 0.5, 0.5, 0.0), CostParams(0.8, 0.2, 0.1, 2.5),
        ]),
    )
    def test_inverts_step_where_identifiable(self, sa, d, params):
        s, a = InventoryState(*sa[:3]), sa[3]
        outs = [step(s, a, e, params, 10, 10) for e in range(11)]
        out = outs[d]
        # demands with the same next state and cost are indistinguishable
        twins = [
            e for e, o in enumerate(outs)
            if o.next_state == out.next_state and abs(o.cost - out.cost) <= 1e-9
        ]
        spaces = ModelSpaces(params, 10, 10, 10)
        assert recover(spaces, s, a, out, out.cost) == twins[0]
        if len(twins) == 1:
            assert twins[0] == d
        # a cost no candidate explains falls back to the smallest demand
        # reaching the same next state (all costs here are multiples of 0.1)
        same_state = [e for e, o in enumerate(outs) if o.next_state == out.next_state]
        assert recover(spaces, s, a, out, out.cost + 1e-3) == same_state[0]

    def test_inconsistent_transition(self):
        s = state_index(InventoryState(0, 0, 0), 10)
        s_next = state_index(InventoryState(5, 5, 5), 10)
        with pytest.raises(InconsistentTransitionError):
            recover_demand(SPACES, s, 0, s_next, 0.0)
        # neither a new pair nor a seen one keeps anything of it
        m = EnvModel(SPACES)
        for seen in (False, True):
            with pytest.raises(InconsistentTransitionError):
                model_update(m, s, 0, s_next, 0.0)
            assert len(m.pairs) == len(m.next_rows) == int(seen)
            assert sum(m.demand_counts) == int(seen)
            observe_table(m, s, 0, 3)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("order", [-1, 11])
    def test_order_out_of_range(self, variant, order):
        m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(0))
        observe(m, PAIR_S, PAIR_A, 2)
        pairs = list(m.pairs)
        with pytest.raises(DomainError):
            recover_demand(SPACES, S, order, NEXT, 0.0)
        with pytest.raises(DomainError):
            model_update(m, S, order, NEXT, 0.0)
        assert m.pairs == pairs

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("state", [-1, num_states(SPACES.s_max)])
    def test_state_out_of_range(self, variant, state):
        m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(0))
        observe(m, PAIR_S, PAIR_A, 2)
        pairs = list(m.pairs)
        # a next state and cost that state 1330 does reach with this order
        s_next, cost = day_of(m.tables, 1330, A, 0)
        with pytest.raises(DomainError):
            recover_demand(SPACES, state, A, s_next, cost)
        with pytest.raises(DomainError):
            model_update(m, state, A, s_next, cost)
        assert m.pairs == pairs

    def test_every_transition_of_the_default_spaces(self):
        # every (s, a, d), each pair first seen at a different demand, both
        # through recover_demand and through a tabular model's cached rows
        tables = day_tables(SPACES)
        # a cost no demand has falls back to the first demand reaching s_next
        # (every cost here is a multiple of 0.1)
        wants, offs = recover_reference(tables).tolist(), recover_reference(tables, 1e-3).tolist()
        nexts, costs = tables.next.tolist(), tables.cost.tolist()
        m = EnvModel(SPACES)
        counts = [0] * (SPACES.d_max + 1)
        for s in range(num_states(SPACES.s_max)):
            for a in range(SPACES.a_max + 1):
                for k in range(SPACES.d_max + 1):
                    d = (s + a + k) % (SPACES.d_max + 1)
                    r = s % len(nexts)
                    s_next, cost, want = nexts[r][a][d], costs[r][a][d], wants[r][a][d]
                    assert recover_demand(SPACES, s, a, s_next, cost) == want
                    assert recover_demand(SPACES, s, a, s_next, cost + 1e-3) == offs[r][a][d]
                    model_update(m, s, a, s_next, cost)
                    counts[want] += 1
                    assert m.demand_counts[want] == counts[want]
        assert m.demand_counts == counts

    def test_demand_to_next_state(self):
        for d in range(11):
            assert demand_to_next_state(SPACES, S, A, d) == state_index(
                step(PAIR_S, PAIR_A, d, SPACES.cost_params, 10, 10).next_state, 10)
        for s, a, d in ((S, A, -1), (S, A, 11), (S, -1, 2), (S, 11, 2), (-1, A, 2), (1331, A, 2)):
            with pytest.raises(DomainError):
                demand_to_next_state(SPACES, s, a, d)


class TestTabularUpdate:
    def test_single_observation_point_mass(self):
        m = EnvModel(SPACES)
        observe(m, PAIR_S, PAIR_A, 2)
        pmf = np.array(m.demand_counts) / sum(m.demand_counts)
        assert pmf[2] == 1.0

    def test_empirical_frequencies(self):
        m = EnvModel(SPACES)
        for d in (2, 2, 3):
            observe(m, PAIR_S, PAIR_A, d)
        pmf = np.array(m.demand_counts) / sum(m.demand_counts)
        assert pmf[2] == pytest.approx(2 / 3)
        assert pmf[3] == pytest.approx(1 / 3)

    def test_monte_carlo_convergence(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        rng = np.random.default_rng(0)
        m = EnvModel(SPACES)
        for d in sample(dist, rng, 10**4):
            observe(m, PAIR_S, PAIR_A, d)
        pmf = np.array(m.demand_counts) / sum(m.demand_counts)
        assert 0.5 * np.abs(pmf - dist.pmf).sum() < 0.03

    def test_cost_means_are_the_quotients_after_every_update(self):
        # 3 states x 11 orders over 300 days: most pairs are seen many times,
        # and a mean refreshed on a pair's first visit alone goes stale
        m = EnvModel(SPACES)
        days = np.random.default_rng(30).integers(0, [3, 11, 11], size=(300, 3)).tolist()
        for s, a, d in days:
            observe_table(m, s, a, d)
            quotients = [total / count for total, count in zip(m.cost_sums, m.cost_counts)]
            assert np.array(m.cost_means).tobytes() == np.array(quotients).tobytes()
        assert len(m.cost_means) == len(m.pairs) and max(m.cost_counts) > 5

    def test_copy_keeps_its_own_cost_means(self):
        m = EnvModel(SPACES)
        for d in (2, 7):
            observe_table(m, 40, 3, d)
        before = list(m.cost_means)
        c = m.copy(None)
        assert c.cost_means == before and c.cost_means is not m.cost_means
        c.cost_means[0] = 99.0
        observe_table(c, 40, 3, 9)
        assert m.cost_means == before


class TestSimulate:
    def test_deterministic_composition(self):
        m = EnvModel(SPACES)
        observe(m, PAIR_S, PAIR_A, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            s_next, _ = simulate(m, S, A, rng)
            assert s_next == NEXT

    def test_cost_running_mean_of_constant(self):
        m = EnvModel(SPACES)
        out = observe(m, PAIR_S, PAIR_A, 2)
        observe(m, PAIR_S, PAIR_A, 2)
        _, c = simulate(m, S, A, np.random.default_rng(2))
        assert c == pytest.approx(out.cost)

    def test_seeded_reproducibility(self):
        dist = discretized_gamma(5.0, 3.0, 10)
        m = EnvModel(SPACES)
        rng = np.random.default_rng(3)
        for d in sample(dist, rng, 50):
            observe(m, PAIR_S, PAIR_A, d)
        a = [simulate(m, S, A, np.random.default_rng(4)) for _ in range(10)]
        b = [simulate(m, S, A, np.random.default_rng(4)) for _ in range(10)]
        assert a == b

    def test_unvisited_pair_errors(self):
        m = EnvModel(SPACES)
        with pytest.raises(UnvisitedPairError):
            simulate(m, S, A, np.random.default_rng(0))

    def test_outputs_reachable_states(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        m = EnvModel(SPACES)
        rng = np.random.default_rng(5)
        for d in sample(dist, rng, 100):
            observe(m, PAIR_S, PAIR_A, d)
        reachable = {
            state_index(step(PAIR_S, PAIR_A, d, SPACES.cost_params, 10, 10).next_state, 10)
            for d in range(11)
        }
        for _ in range(100):
            s_next, _ = simulate(m, S, A, rng)
            assert s_next in reachable


class TestTransitionProb:
    def test_point_mass(self):
        m = EnvModel(SPACES)
        observe(m, PAIR_S, PAIR_A, 2)
        assert transition_prob(m, S, A, NEXT) == 1.0

    def test_unreachable_next_state(self):
        m = EnvModel(SPACES)
        observe(m, PAIR_S, PAIR_A, 2)
        assert transition_prob(m, S, A, state_index(InventoryState(9, 9, 9), 10)) == 0.0

    def test_unvisited_error(self):
        m = EnvModel(SPACES)
        with pytest.raises(UnvisitedPairError):
            transition_prob(m, S, A, NEXT)

    def test_concentration_after_30_days(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = EnvModel(SPACES)
            for d in sample(dist, rng, 30):
                observe(m, PAIR_S, PAIR_A, d)
            est = transition_prob(m, S, A, NEXT)
            hits += abs(est - dist.pmf[2]) <= 0.1
        assert hits >= 80


class TestSampleVisited:
    def test_single_pair(self):
        m = EnvModel(SPACES)
        observe(m, PAIR_S, PAIR_A, 2)
        assert sample_visited(m, np.random.default_rng(0)) == (S, A)

    def test_two_pairs_balanced(self):
        m = EnvModel(SPACES)
        observe(m, PAIR_S, PAIR_A, 2)
        observe(m, InventoryState(1, 1, 1), 5, 0)
        rng = np.random.default_rng(1)
        draws = [sample_visited(m, rng)[1] for _ in range(10**4)]
        frac = draws.count(2) / len(draws)
        assert 0.47 < frac < 0.53

    def test_empty_memory(self):
        m = EnvModel(SPACES)
        with pytest.raises(UnvisitedPairError):
            sample_visited(m, np.random.default_rng(0))


def rebuilt(m):
    """A new EnvModel holding copies of m's visited pairs and learned numbers, and nothing else."""
    r = EnvModel(m.spaces, variant=m.variant, rng=np.random.default_rng(0))
    r.pairs, r.visited = list(m.pairs), dict(m.visited)
    r.next_rows = [r.tables.next[s % len(r.tables.next), a].tolist() for s, a in m.pairs]
    if m.variant == "tabular":
        r.demand_counts, r.demand_cdf = list(m.demand_counts), list(m.demand_cdf)
        r.cost_sums, r.cost_counts = list(m.cost_sums), list(m.cost_counts)
        r.cost_means = list(m.cost_means)
    else:
        r.inputs = [list(x) for x in m.inputs]
        for new, old in ((r.transition_net, m.transition_net), (r.cost_net, m.cost_net)):
            new.flat[:] = old.flat
    return r


def mc_read_reference(m, net, x, rng):
    """An MC-dropout read as a loop of single-row training passes, one per sample."""
    passes = [forward_reference(net, x[None, :], draw_masks_reference(net, 1, rng))[2][0]
              for _ in range(envmodel.MC_SAMPLES)]
    return np.stack(passes).mean(axis=0)


def simulate_reference(m, s, a, rng):
    """simulate as it was before bursts: a neural model reads pair by pair.

    A det-net reads each net with a one-row forward and draws nothing.
    """
    if m.variant == "tabular":
        return simulate(m, s, a, rng)
    x = m._encode(s, a)

    def read(net):
        if m.variant == "det-net":
            return nn.forward(net, x[None, None])[0, 0]
        return mc_read_reference(m, net, x, rng)

    pmf = read(m.transition_net)
    d = bisect_right(cdf_of(pmf / pmf.sum()), rng.random())
    return day_of(m.tables, s, a, d)[0], float(read(m.cost_net)[0])


def plan_reference(m, n, rng):
    """The planning loop before bursts: one sample_visited and one simulate per step."""
    burst = []
    for _ in range(n):
        s, a = sample_visited(m, rng)
        burst.append((s, a, *simulate_reference(m, s, a, rng)))
    return burst


ALPHA, GAMMA = 0.3, 0.9


def random_q(seed):
    """Q rows over SPACES of distinct random entries, whose minima updates can raise, and mins."""
    rows = np.random.default_rng(seed).random((num_states(10), 11)).tolist()
    return rows, [min(row) for row in rows]


def as_bytes(rows, mins):
    return np.array(rows).tobytes(), np.array(mins).tobytes()


def handed_to_q_update(monkeypatch):
    """The transitions plan hands envmodel.q_update, one list per call, applied as they pass."""
    handed = []

    def record(rows, mins, transitions, alpha, gamma):
        handed.append(list(transitions))
        q_update(rows, mins, handed[-1], alpha, gamma)

    monkeypatch.setattr(envmodel, "q_update", record)
    return handed


@pytest.mark.parametrize("variant", VARIANTS)
def test_plan_draws_as_the_per_pair_loop(monkeypatch, variant):
    # every burst must leave the Q rows and row minima that q_update leaves
    # after the reference burst; a neural burst must also hand q_update the
    # reference's transitions, in one call
    handed = handed_to_q_update(monkeypatch)
    m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(40))
    days = np.random.default_rng(41).integers(0, [1331, 11, 11], size=(60, 3)).tolist()
    for s, a, d in days[:30]:
        observe_table(m, s, a, d)
    rows, mins = random_q(48)
    want_rows, want_mins = random_q(48)
    seeds = np.random.SeedSequence(42).spawn(30)
    # the last burst is longer than one fill of the stream's pair cache
    ns = [1, 2, 7, 100, 0, 250] * 4 + [1, 2, 7, 100, 0, _PAIRS + 100]
    for (s, a, d), seed, n in zip(days[30:], seeds, ns):
        observe_table(m, s, a, d)
        ref = rebuilt(m)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        handed.clear()
        with WordStream(got_rng) as stream:
            plan(m, n, stream, rows, mins, ALPHA, GAMMA)
        # numpy's own per-pair draws: the stream must leave the generator where they do
        want = plan_reference(ref, n, want_rng)
        q_update(want_rows, want_mins, want, ALPHA, GAMMA)
        assert as_bytes(rows, mins) == as_bytes(want_rows, want_mins)
        if variant != "tabular":
            assert handed == ([want] if n else [])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_tabular_burst_on_one_visited_pair():
    # one pair draws no index, and a burst this long would span two fills
    # of the stream's pair cache for any other pair count; the pair's entry
    # starts as its row's minimum, so the first update that raises it moves
    # that minimum
    m = EnvModel(SPACES)
    for d in (2, 5, 2, 9):
        observe_table(m, S, A, d)
    rows, mins = random_q(49)
    rows[S][A] = mins[S] = -1.0
    want_rows, want_mins = [row[:] for row in rows], mins[:]
    got_rng, want_rng = np.random.default_rng(50), np.random.default_rng(50)
    with WordStream(got_rng) as stream:
        plan(m, _PAIRS + 9, stream, rows, mins, ALPHA, GAMMA)
    q_update(want_rows, want_mins, plan_reference(rebuilt(m), _PAIRS + 9, want_rng),
             ALPHA, GAMMA)
    assert mins[S] > -1.0
    assert as_bytes(rows, mins) == as_bytes(want_rows, want_mins)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("variant", ["det-net", "mc-dropout"])
def test_planned_demand_is_drawn_from_the_normalised_pmf(variant):
    # a softmax sums to 1 only within rounding, so normalising moves last
    # bits of the cdf: put the demand uniform where that changes the draw
    m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(60))
    for s, a, d in np.random.default_rng(61).integers(0, [1331, 11, 11], size=(30, 3)).tolist():
        observe_table(m, s, a, d)
    u = np.random.default_rng(62).random((1, envmodel._mc_row(m)))
    width = nn.mask_width(m.transition_net)
    t_u = u[:, :envmodel.MC_SAMPLES * width].reshape(1, envmodel.MC_SAMPLES, width)
    found = []
    for s, a in m.pairs:
        raw = nn.mc_predict(m.transition_net, m._encode(s, a)[None, None, :], t_u)[0, 0]
        normed, unnormed = cdf_of(raw / raw.sum()), cdf_of(raw)
        nxt = m.tables.next[s % len(m.tables.next), a]
        for p, q in zip(normed[:-1], unnormed[:-1]):
            # the lower entry is <= this uniform and the higher one is not
            d = min(p, q)
            want = int(nxt[bisect_right(normed, d)])
            if want != nxt[bisect_right(unnormed, d)]:
                found.append((s, a, d, want))
    assert len(found) >= 3
    for s, a, d, want in found:
        u[0, envmodel.MC_SAMPLES * width] = d
        assert envmodel._neural_outcomes(m, [m.visited[s, a]], u)[0][2] == want


def test_mc_dropout_plan_draws_from_the_planning_generator_alone(monkeypatch):
    # the training stream m.rng draws the nets' training masks; a burst
    # drawing from it would change what the model learns next
    handed = handed_to_q_update(monkeypatch)
    m = EnvModel(SPACES, variant="mc-dropout", rng=np.random.default_rng(45))
    for s, a, d in np.random.default_rng(46).integers(0, [1331, 11, 11], size=(10, 3)).tolist():
        observe_table(m, s, a, d)
    state = m.rng.bit_generator.state
    rng = np.random.default_rng(47)
    plan_state = rng.bit_generator.state
    with WordStream(rng) as stream:
        plan(m, 20, stream, *random_q(48), ALPHA, GAMMA)
    assert [len(burst) for burst in handed] == [20]
    assert m.rng.bit_generator.state == state
    assert rng.bit_generator.state != plan_state


@pytest.mark.parametrize("variant, wrapped", [
    ("tabular", False), ("det-net", False), ("mc-dropout", False),
    ("tabular", True), ("det-net", True),
], ids=["tabular", "det-net", "mc-dropout", "tabular-word-stream", "det-net-word-stream"])
def test_empty_burst_on_an_empty_model(variant, wrapped):
    # no pair to draw is the model's error, not the stream's for integers(0)
    m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(43))
    rng = np.random.default_rng(44)
    state = rng.bit_generator.state
    draws = WordStream(rng) if wrapped else rng
    rows, mins = random_q(45)
    plan(m, 0, draws, rows, mins, ALPHA, GAMMA)
    with pytest.raises(UnvisitedPairError):
        plan(m, 1, draws, rows, mins, ALPHA, GAMMA)
    assert as_bytes(rows, mins) == as_bytes(*random_q(45))
    if wrapped:
        draws.close()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("variant", ["det-net", "mc-dropout"])
class TestNetVariants:
    def test_pmf_valid_after_updates(self, variant):
        m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(6))
        dist = discretized_gamma(5.0, 5.0, 10)
        rng = np.random.default_rng(7)
        for d in sample(dist, rng, 30):
            observe(m, PAIR_S, PAIR_A, d)
        read_rng = np.random.default_rng(8)
        pmf = [
            transition_prob(m, S, A, demand_to_next_state(SPACES, S, A, d), read_rng)
            for d in range(11)
        ]
        assert all(p >= 0 for p in pmf)

    def test_simulate_runs(self, variant):
        m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(8))
        observe(m, PAIR_S, PAIR_A, 2)
        s_next, cost = simulate(m, S, A, np.random.default_rng(9))
        assert isinstance(cost, float)
        reachable = {
            state_index(step(PAIR_S, PAIR_A, d, SPACES.cost_params, 10, 10).next_state, 10)
            for d in range(11)
        }
        assert s_next in reachable

    def test_net_learns_point_mass(self, variant):
        if variant == "mc-dropout":
            pytest.skip("dropout keeps the categorical output diffuse at this scale")
        m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(10))
        for _ in range(300):
            observe(m, PAIR_S, PAIR_A, 2)
        assert transition_prob(m, S, A, NEXT) > 0.8


def test_mc_dropout_read_needs_its_own_generator():
    # reading with the model's training stream would change what it learns next
    m = EnvModel(SPACES, variant="mc-dropout", rng=np.random.default_rng(6))
    observe(m, PAIR_S, PAIR_A, 2)
    state = m.rng.bit_generator.state
    with pytest.raises(ValueError, match="needs an rng"):
        transition_prob(m, S, A, NEXT)
    assert m.rng.bit_generator.state == state
    assert 0.0 <= transition_prob(m, S, A, NEXT, np.random.default_rng(7)) <= 1.0
    assert m.rng.bit_generator.state == state


def test_agents_bind_the_envmodel_functions():
    # the learner and fig3's probe must call the public names, the ones a traced run wraps
    for name in ("model_update", "plan"):
        assert getattr(agents, name) is getattr(envmodel, name)
    # a neural burst's update, which a traced run wraps through this name too
    assert envmodel.q_update is qcore.q_update
    assert bench.transition_prob is envmodel.transition_prob


def dump(m):
    """The arrays save_model writes for m, read back with np.load."""
    buf = io.BytesIO()
    save_model(m, buf)
    buf.seek(0)
    with np.load(buf) as arrays:
        return dict(arrays)


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["tabular", "det-net"])
def test_save_load_round_trip(tmp_path, variant):
    # the model.npz that `coldstart-dynaq train` writes: these arrays and no more
    m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(11))
    dist = discretized_gamma(5.0, 3.0, 10)
    rng = np.random.default_rng(12)
    for d in sample(dist, rng, 20):
        observe(m, PAIR_S, PAIR_A, d)
    path = tmp_path / "model.npz"
    save_model(m, path)
    with np.load(path) as arrays:
        names = set(arrays.files)
        meta = json.loads(bytes(arrays["meta"]).decode())
    cp = SPACES.cost_params
    assert meta == {"variant": variant, "mc_samples": envmodel.MC_SAMPLES,
                    "s_max": SPACES.s_max, "a_max": SPACES.a_max, "d_max": SPACES.d_max,
                    "cost_params": [cp.b1, cp.b2, cp.b3, cp.cs]}
    if variant == "tabular":
        assert names == {"meta", "visited", "demand_counts", "cost_sums", "cost_counts"}
    else:
        # each net has three dense layers, 4 -> 128 -> 64 -> out
        assert names == {"meta", "visited", "t_head", "c_head",
                         *(f"{p}_{wb}{i}" for p in "tc" for wb in "wb" for i in range(3))}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(VARIANTS),
    st.lists(st.tuples(st.integers(0, 1330), st.integers(0, 10), st.integers(0, 10)),
             min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_save_load_round_trip_property(variant, days, seed):
    # np.load gives back every learned number of the model, byte for byte
    m = EnvModel(SPACES, variant=variant, rng=np.random.default_rng(seed))
    for s, a, d in days:
        observe_table(m, s, a, d)
    arrays = dump(m)
    assert json.loads(bytes(arrays["meta"]).decode())["variant"] == variant
    assert [tuple(pair) for pair in arrays["visited"].tolist()] == m.pairs
    if variant == "tabular":
        assert same_bytes(arrays["demand_counts"], np.array(m.demand_counts))
        assert same_bytes(arrays["cost_sums"], np.array(m.cost_sums))
        assert same_bytes(arrays["cost_counts"], np.array(m.cost_counts))
        return
    for prefix, net in (("t", m.transition_net), ("c", m.cost_net)):
        assert bytes(arrays[f"{prefix}_head"]).decode() == net.head
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            assert same_bytes(arrays[f"{prefix}_w{i}"], w)
            assert same_bytes(arrays[f"{prefix}_b{i}"], b)


@pytest.mark.parametrize("variant", ["det-net", "mc-dropout"])
def test_neural_model_without_generator_rejected(variant):
    # a fallback default_rng() would give the nets unreproducible weights
    with pytest.raises(DomainError, match="seeded generator"):
        EnvModel(SPACES, variant=variant)
    assert EnvModel(SPACES).rng is None


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("cs", [0.0, 1e-10])
def test_shortage_cost_near_zero_rejected(variant, cs):
    # every demand beyond the stock then reaches the same next state at
    # the same cost, and recover_demand would return the smallest of them
    spaces = ModelSpaces(CostParams(0.7, 0.3, 0.0, cs), 10, 10, 10)
    stock = PAIR_S.s2 + PAIR_S.s3 + PAIR_A  # on hand once the order arrives
    outs = [step(PAIR_S, PAIR_A, d, spaces.cost_params, 10, 10) for d in range(stock, 11)]
    assert all(o.next_state == outs[0].next_state for o in outs)
    assert all(abs(o.cost - outs[0].cost) <= 1e-9 for o in outs)
    with pytest.raises(DomainError, match="cs >"):
        EnvModel(spaces, variant=variant)


class TestDetNetReads:
    PAIRS = [(S, A), (state_index(InventoryState(2, 1, 0), 10), 4)]

    def trained(self, seed):
        m = EnvModel(SPACES, variant="det-net", rng=np.random.default_rng(seed))
        for i, (s, a) in enumerate(self.PAIRS * 3):
            observe_table(m, s, a, i)
        return m

    def predictions(self, m):
        return [(transition_pmf(m, s, a), estimate_cost(m, s, a)) for s, a in self.PAIRS]

    def assert_same(self, got, want):
        for (pmf, cost), (want_pmf, want_cost) in zip(got, want):
            assert np.array_equal(pmf, want_pmf)
            assert cost == want_cost

    def test_update_changes_reads(self):
        m = self.trained(20)
        before = self.predictions(m)
        s, a = self.PAIRS[0]
        observe_table(m, s, a, 7)
        after = self.predictions(m)
        # a new model with the same weights reads the same
        self.assert_same(after, self.predictions(rebuilt(m)))
        assert not np.array_equal(after[0][0], before[0][0])
        assert after[0][1] != before[0][1]

    def test_copy_keeps_its_own_reads(self):
        m = self.trained(21)
        before = self.predictions(m)
        c = m.copy(np.random.default_rng(26))
        s, a = self.PAIRS[1]
        observe_table(c, s, a, 9)
        self.assert_same(self.predictions(m), before)
        self.assert_same(self.predictions(c), self.predictions(rebuilt(c)))
        assert not np.array_equal(self.predictions(c)[0][0], before[0][0])

    def test_reads_draw_nothing(self):
        m = self.trained(22)
        rng = np.random.default_rng(23)
        state = rng.bit_generator.state
        for s, a in self.PAIRS:
            transition_pmf(m, s, a, rng)
            estimate_cost(m, s, a, rng)
        assert rng.bit_generator.state == state

    def test_planned_costs_are_one_pair_reads(self, monkeypatch):
        # the burst reads its distinct pairs in one stacked pass per net
        handed = handed_to_q_update(monkeypatch)
        m = self.trained(24)
        with WordStream(np.random.default_rng(25)) as stream:
            plan(m, 50, stream, *random_q(26), ALPHA, GAMMA)
        [burst] = handed
        assert {(s, a) for s, a, _, _ in burst} == set(self.PAIRS)
        for s, a, _, cost in burst:
            assert cost == estimate_cost(m, s, a)


@pytest.mark.parametrize("variant", ["det-net", "mc-dropout"])
@pytest.mark.parametrize("s_max, a_max", [(0, 0), (1, 0), (10, 0)])
def test_neural_model_needs_s_max_and_a_max_of_one(variant, s_max, a_max):
    # the net's input divides state components by s_max and the order by a_max
    spaces = ModelSpaces(CostParams(), s_max=s_max, a_max=a_max, d_max=10)
    with pytest.raises(DomainError, match="s_max >= 1 and a_max >= 1"):
        EnvModel(spaces, variant=variant, rng=np.random.default_rng(0))
    m = EnvModel(spaces)
    observe_table(m, 0, 0, 3)
    assert simulate(m, 0, 0, np.random.default_rng(1))[0] == day_of(m.tables, 0, 0, 3)[0]
