"""Learned environment model M(s, a) used for Dyna-style planning.

Because the next state is a deterministic function of (state, action,
demand), transitions are modeled over the 11 demand classes rather than
over raw next states: the model recovers the demand implied by each
observed transition and estimates its distribution. Three variants share
one interface: counting (tabular), a deterministic network, and an
MC-dropout network. A neural model has two nets: a transition net with a
categorical head over the demand classes, fitted by cross-entropy, and a
cost net with a regression head. Only (s, a) pairs seen in the real
environment may be simulated from.

The model runs on the integer core: every function takes and returns
states as indices (env.state_index) and actions as order quantities, and
next states and costs come from the env's day tables, where state s
reads row s % (s_max+1)**2. The first time model_update sees a pair it
cuts the pair's next-state row from the tables as a Python list, and a
neural model encodes the pair's net input once, also as a list;
recovering a demand then scans that row, a simulated next state is one
list lookup, and a net's input rows are built from the encoded lists.

Planning runs in bursts. plan(m, n, stream, rows, mins, alpha, gamma),
the one planning call of every variant, applies to a Q-table what n
sample_visited and simulate calls draw from one WordStream. A tabular
burst applies each transition as it reads it, from the cached rows and
cost_means, each pair's mean cost, which model_update keeps (and
save_model leaves out) so that no draw divides; one q_update call applies
a neural burst. A tabular or det-net burst takes all its draws in one
WordStream.burst pass; an MC-dropout burst makes numpy's array draws on
the generator the stream lends it. Both nets read through one stacked
MC-dropout pass per net: a det-net burst reads its distinct pairs at
once (its masks have width 0, so the pass is the deterministic forward),
and an MC-dropout burst reads its pairs up to eight at a time. Every
MC-dropout read averages MC_SAMPLES dropout passes.

save_model writes a model's visit memory and learned numbers to an .npz
file for inspection with numpy.load; nothing in the package reads it back.
"""

import json
import math
from bisect import bisect_right
from copy import deepcopy
from itertools import accumulate

import numpy as np

from . import nn
from .demand import cdf_of
from .env import DayTables, DomainError, ModelSpaces, day_tables, num_states
from .qcore import q_update
from .wordstream import WordStream

VARIANTS = ("tabular", "det-net", "mc-dropout")

_HIDDEN = (128, 64)
_COST_TOL = 1e-9
# dropout passes averaged per MC-dropout read
MC_SAMPLES = 10
# rows of uniforms an MC-dropout burst holds at once
_MC_CHUNK = 8


class UnvisitedPairError(KeyError):
    """Planning queried a (state, action) pair never observed for real."""


class InconsistentTransitionError(ValueError):
    """No demand in [0, d_max] explains the observed transition."""


def check_options(spaces: ModelSpaces, variant: str) -> None:
    """Reject with one DomainError a model that EnvModel cannot build or learn.

    recover_demand tells shortage demands apart by their shortage cost
    alone, so with cs within _COST_TOL of 0 it would map every shortage to
    the smallest such demand and bias what every algorithm's model learns.
    A net's input divides each state component by s_max and the order by
    a_max, so a neural model needs both at least 1.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown model variant {variant!r}, choose from {VARIANTS}")
    if not spaces.cost_params.cs > _COST_TOL:
        raise DomainError(
            f"a learned model needs shortage cost cs > {_COST_TOL}, got {spaces.cost_params.cs}"
        )
    if variant != "tabular" and not (spaces.s_max >= 1 and spaces.a_max >= 1):
        raise DomainError(
            f"a {variant} model needs s_max >= 1 and a_max >= 1, "
            f"got s_max {spaces.s_max} and a_max {spaces.a_max}"
        )


class EnvModel:
    def __init__(
        self,
        spaces: ModelSpaces,
        variant: str = "tabular",
        rng: np.random.Generator | None = None,
    ):
        check_options(spaces, variant)
        # an unseeded generator would give the nets unreproducible weights
        if variant != "tabular" and rng is None:
            raise DomainError(f"a {variant} model needs a seeded generator, got rng=None")
        self.spaces = spaces
        self.tables = day_tables(spaces)
        self.variant = variant
        self.rng = rng
        # distinct observed (state index, order) pairs in first-seen order,
        # and each pair's position in that list
        self.pairs: list[tuple[int, int]] = []
        self.visited: dict[tuple[int, int], int] = {}
        # per pair, by position: its next-state row of the day tables by demand
        self.next_rows: list[list[int]] = []
        # per pair, by position, for a neural variant: its net input (_encode) as a list
        self.inputs: list[list[float]] = []
        if variant == "tabular":
            # floats, so save_model writes a float64 array
            self.demand_counts = [0.0] * (spaces.d_max + 1)
            self.demand_cdf: list[float] = []
            # per pair, by position in self.pairs
            self.cost_sums: list[float] = []
            self.cost_counts: list[int] = []
            # cost_sums[i] / cost_counts[i], kept by model_update; not saved
            self.cost_means: list[float] = []
        else:
            dropout = 0.5 if variant == "mc-dropout" else 0.0
            sizes = [4, *_HIDDEN]
            self.transition_net = nn.Network(
                [*sizes, spaces.d_max + 1], dropout=dropout, head="categorical", rng=self.rng
            )
            self.cost_net = nn.Network(
                [*sizes, 1], dropout=dropout, head="regression", rng=self.rng
            )
            self.transition_adam = nn.AdamState(self.transition_net)
            self.cost_adam = nn.AdamState(self.cost_net)

    def _encode(self, s: int, a: int) -> np.ndarray:
        sp = self.spaces
        n = sp.s_max + 1
        return np.array(
            [s // (n * n) / sp.s_max, s // n % n / sp.s_max, s % n / sp.s_max, a / sp.a_max]
        )

    def copy(self, rng: np.random.Generator | None) -> "EnvModel":
        """What this model has learned, in a model whose nets train on rng."""
        # the copy shares what no update writes; a tabular model built without
        # a generator holds no None but its rng, which maps to rng alone
        shared = (self.spaces, self.tables, *self.pairs, *self.next_rows, *self.inputs)
        return deepcopy(self, {id(x): x for x in shared} | {id(self.rng): rng})


def _slot(m: EnvModel, s: int, a: int) -> int:
    """Position of a visited pair in m.pairs."""
    try:
        return m.visited[s, a]
    except KeyError:
        raise UnvisitedPairError(f"pair (state {s}, order {a}) never observed") from None


def _check_pair(spaces: ModelSpaces, s: int, a: int) -> None:
    # a negative state or order would silently index the day tables from the end
    if not (0 <= s < num_states(spaces.s_max)):
        raise DomainError(f"state index {s} outside [0, {num_states(spaces.s_max)})")
    if not (0 <= a <= spaces.a_max):
        raise DomainError(f"order {a} outside [0, {spaces.a_max}]")


def recover_demand(spaces: ModelSpaces, s: int, a: int, s_next: int, cost: float) -> int:
    """Invert the day dynamics to find the demand behind a transition.

    When several demands lead to the same next state (stock-out
    saturation), the shortage term of the cost disambiguates; if it still
    ties, the smallest demand is returned.
    """
    _check_pair(spaces, s, a)
    tables = day_tables(spaces)
    return _demand_of(tables, s, a, tables.next[s % len(tables.next), a].tolist(), s_next, cost)


def _demand_of(tables: DayTables, s: int, a: int, row: list, s_next: int, cost: float) -> int:
    """recover_demand's rule on the pair's next-state row.

    The first demand reaching s_next whose cost is within _COST_TOL of cost,
    else the first reaching s_next. The costs are read only on a tie.
    """
    try:
        first = row.index(s_next)
    except ValueError:
        raise InconsistentTransitionError(
            f"no demand in [0, {len(row) - 1}] yields state {s_next} from state {s}, order {a}"
        ) from None
    if row.count(s_next) > 1:
        costs = tables.cost[s % len(tables.cost), a]
        for d in range(first, len(row)):
            if row[d] == s_next and abs(costs[d] - cost) <= _COST_TOL:
                return d
    return first


def demand_to_next_state(spaces: ModelSpaces, s: int, a: int, d: int) -> int:
    if not (0 <= d <= spaces.d_max):
        raise DomainError(f"demand {d} outside [0, {spaces.d_max}]")
    _check_pair(spaces, s, a)
    nxt = day_tables(spaces).next
    return int(nxt[s % len(nxt), a, d])


def model_update(m: EnvModel, s: int, a: int, s_next: int, cost: float) -> None:
    """Fold one real transition into the model and the visit memory.

    The demand is recovered from the pair's cached next-state row; only a
    pair seen for the first time is checked and cut from the day tables.
    """
    i = m.visited.get((s, a))
    if i is None:
        _check_pair(m.spaces, s, a)
        row = m.tables.next[s % len(m.tables.next), a].tolist()
    else:
        row = m.next_rows[i]
    # recovered before a new pair is kept: an inconsistent transition
    # leaves the visit memory as it was
    d = _demand_of(m.tables, s, a, row, s_next, cost)
    if i is None:
        i = m.visited[s, a] = len(m.pairs)
        m.pairs.append((s, a))
        m.next_rows.append(row)
        if m.variant == "tabular":
            m.cost_sums.append(0.0)
            m.cost_counts.append(0)
            m.cost_means.append(0.0)
        else:
            m.inputs.append(m._encode(s, a).tolist())
    if m.variant == "tabular":
        m.demand_counts[d] += 1
        # cdf_of's sums, in Python: whole counts have an exact total, and
        # accumulate adds in cumsum's order
        total = sum(m.demand_counts)
        m.demand_cdf = [*accumulate(c / total for c in m.demand_counts[:-1]), 1.0]
        m.cost_sums[i] += cost
        m.cost_counts[i] += 1
        m.cost_means[i] = m.cost_sums[i] / m.cost_counts[i]
    else:
        x = np.array([m.inputs[i]])
        nn.train_step(m.transition_net, m.transition_adam, x, np.array([d]), rng=m.rng)
        nn.train_step(m.cost_net, m.cost_adam, x, np.array([[cost]]), rng=m.rng)


def _mc_mean(m: EnvModel, net: nn.Network, i: int, rng) -> np.ndarray:
    # visited pair i's one-row stack, read on rng and never m.rng: a read drawing
    # from the training stream would change what is learned; a det-net draws nothing
    u = nn.mc_uniforms(net, MC_SAMPLES, rng)[None]
    return nn.mc_predict(net, np.array([[m.inputs[i]]]), u)[0, 0]


def _mc_row(m: EnvModel) -> int:
    """Uniforms one neural simulate draws: both nets' masks and the demand's."""
    return MC_SAMPLES * (nn.mask_width(m.transition_net) + nn.mask_width(m.cost_net)) + 1


def transition_pmf(
    m: EnvModel, s: int, a: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Estimated demand-class distribution for a visited pair."""
    i = _slot(m, s, a)
    if m.variant == "tabular":
        pmf = np.array(m.demand_counts)
    else:
        pmf = _mc_mean(m, m.transition_net, i, rng)
    return pmf / pmf.sum()


def estimate_cost(m: EnvModel, s: int, a: int, rng: np.random.Generator | None = None) -> float:
    i = _slot(m, s, a)
    if m.variant == "tabular":
        return m.cost_sums[i] / m.cost_counts[i]
    return float(_mc_mean(m, m.cost_net, i, rng)[0])


def _neural_outcomes(m: EnvModel, slots, u: np.ndarray) -> list[tuple[int, int, int, float]]:
    """(s, a, next state index, cost) of each visited pair, by position, from its row of u.

    Row i holds what one simulate of pair i draws, in order: the transition
    net's (MC_SAMPLES, width) uniforms, the demand's, then the cost net's.
    Each net makes one MC-dropout pass over the (reads, 1, 4) stack, which
    gives each row the bits of its own one-row read. A det-net's masks have
    width 0, so its row is the demand's uniform alone, and it reads each
    distinct pair once.
    """
    t_width, c_width = nn.mask_width(m.transition_net), nn.mask_width(m.cost_net)
    split = MC_SAMPLES * t_width
    reads = list(dict.fromkeys(slots)) if m.variant == "det-net" else slots
    rows = len(reads)
    x = np.array([m.inputs[i] for i in reads])[:, None, :]
    # a det-net's mask columns are empty in every row, so any rows serve
    t_u = u[:rows, :split].reshape(rows, MC_SAMPLES, t_width)
    pmfs = nn.mc_predict(m.transition_net, x, t_u)[:, 0]
    pmfs /= pmfs.sum(axis=-1, keepdims=True)
    c_u = u[:rows, split + 1:].reshape(rows, MC_SAMPLES, c_width)
    preds = zip(cdf_of(pmfs), nn.mc_predict(m.cost_net, x, c_u)[:, 0, 0].tolist())
    if reads is not slots:
        preds = map(dict(zip(reads, preds)).__getitem__, slots)
    return [(*m.pairs[i], m.next_rows[i][bisect_right(cdf, d)], cost)
            for i, d, (cdf, cost) in zip(slots, u[:, split].tolist(), preds)]


def simulate(m: EnvModel, s: int, a: int, rng: np.random.Generator) -> tuple[int, float]:
    """Draw a simulated (next state index, cost) for a previously visited pair.

    Draw order: the transition net's dropout masks, the demand's uniform,
    then the cost net's masks.
    """
    i = _slot(m, s, a)
    if m.variant == "tabular":
        s_next = m.next_rows[i][bisect_right(m.demand_cdf, rng.random())]
        return s_next, m.cost_sums[i] / m.cost_counts[i]
    return _neural_outcomes(m, [i], rng.random((1, _mc_row(m))))[0][2:]


def plan(m: EnvModel, n: int, stream: WordStream, rows: list, mins: list,
         alpha: float, gamma: float) -> None:
    """A planning burst of n steps, each applied to the Q-table rows as q_update applies it.

    It draws what n sample_visited + simulate calls would, in their order.
    No draw depends on a read or an update, and nothing a burst reads
    changes within it, so every pair and uniform comes first: each pair,
    then its demand uniform, or for MC-dropout its row of simulate's
    uniforms. A tabular or det-net burst takes them in one stream.burst
    pass; an MC-dropout burst draws on the generator stream.borrow() lends
    it. A tabular step reads its transition where it applies it: pair i's
    cached next-state row at the uniform's place on the demand cdf, and
    its mean cost m.cost_means[i], with q_update's operation order and
    row-minimum rule. A det-net burst reads its distinct pairs with one
    stacked pass per net, an MC-dropout burst its pairs _MC_CHUNK at a
    time, and one q_update call applies a neural burst in draw order.
    mins[i] is min(rows[i]). A non-finite cost raises ValueError with the
    whole burst drawn, its entry unchanged and every earlier step applied.
    """
    if not n:
        return
    pairs = m.pairs
    if not pairs:
        raise UnvisitedPairError("model has no observed pairs yet")
    if m.variant == "tabular":
        next_rows, cdf, means = m.next_rows, m.demand_cdf, m.cost_means
        isfinite = math.isfinite
        for i, u in zip(*stream.burst(len(pairs), n)):
            cost = means[i]
            if not isfinite(cost):
                raise ValueError(f"cost must be finite, got {cost}")
            target = cost + gamma * mins[next_rows[i][bisect_right(cdf, u)]]
            ps, pa = pairs[i]
            row = rows[ps]
            old = row[pa]
            new = row[pa] = old + alpha * (target - old)
            low = mins[ps]
            if new < low:
                mins[ps] = new
            elif old == low < new:
                mins[ps] = min(row)
        return
    if m.variant == "mc-dropout":
        # no draw waits on a read, so a long burst may draw and read in
        # chunks: a whole 20-step burst's uniforms are 600 kB, and holding
        # them at once raised scenario2-mc-dropout peak_rss_mb by about 1 MB
        u = np.empty((min(n, _MC_CHUNK), _mc_row(m)))
        burst = []
        with stream.borrow() as rng:
            for start in range(0, n, _MC_CHUNK):
                chunk = u[:min(_MC_CHUNK, n - start)]
                slots = []
                for row in chunk:
                    slots.append(int(rng.integers(len(pairs))))
                    rng.random(out=row)
                burst += _neural_outcomes(m, slots, chunk)
    else:
        slots, us = stream.burst(len(pairs), n)
        burst = _neural_outcomes(m, slots, np.array(us)[:, None])
    q_update(rows, mins, burst, alpha, gamma)


def transition_prob(
    m: EnvModel, s: int, a: int, s_next: int, rng: np.random.Generator | None = None
) -> float:
    """Model probability of landing in s_next from a visited (s, a).

    An MC-dropout model draws its dropout masks from rng.
    """
    pmf = transition_pmf(m, s, a, rng)
    total = 0.0
    # summed in demand order, one term at a time, as a float sum over d
    nxt = m.tables.next
    for p in pmf[nxt[s % len(nxt), a] == s_next].tolist():
        total += p
    return total


def sample_visited(m: EnvModel, rng: np.random.Generator) -> tuple[int, int]:
    """Uniform draw over the distinct observed (state index, order) pairs."""
    if not m.pairs:
        raise UnvisitedPairError("model has no observed pairs yet")
    return m.pairs[rng.integers(len(m.pairs))]


def save_model(m: EnvModel, path) -> None:
    """Dump m to an .npz: meta (JSON bytes), visited, and the tabular counts or net weights."""
    meta = {
        "variant": m.variant,
        "mc_samples": MC_SAMPLES,
        "s_max": m.spaces.s_max,
        "a_max": m.spaces.a_max,
        "d_max": m.spaces.d_max,
        "cost_params": [
            m.spaces.cost_params.b1,
            m.spaces.cost_params.b2,
            m.spaces.cost_params.b3,
            m.spaces.cost_params.cs,
        ],
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    arrays["visited"] = np.array(m.pairs, dtype=int).reshape(len(m.pairs), 2)
    if m.variant == "tabular":
        arrays["demand_counts"] = np.array(m.demand_counts)
        arrays["cost_sums"] = np.array(m.cost_sums)
        arrays["cost_counts"] = np.array(m.cost_counts, dtype=int)
    else:
        for prefix, net in (("t", m.transition_net), ("c", m.cost_net)):
            arrays[f"{prefix}_head"] = np.frombuffer(net.head.encode(), dtype=np.uint8)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{prefix}_w{i}"] = w
                arrays[f"{prefix}_b{i}"] = b
    np.savez(path, **arrays)
