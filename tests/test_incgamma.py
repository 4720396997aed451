"""incgamma.gammainc against scipy.special.gammainc, bit for bit.

The port is kept only while these hold: every (shape, edge) pair that
discretized_gamma builds from the specs below, a seeded random sample that
takes each branch of Cephes igam by name, a sample pressed into the corners
of both asymptotic branches (a just above 20 or 200, |x - a| / a just below
its bound), and the edge prologue. nan compares equal to nan; every other
result must be the same float.

Scipy cannot show that the cut Temme table is long enough: a table one row
or one column shorter matches it on every pair tried too. A bound test
shows instead that no argument reads past the kept block.
"""

import math
import random

import numpy as np
import pytest
from scipy import special

from coldstart_dynaq.demand import discretized_gamma
from coldstart_dynaq.env import DomainError
from coldstart_dynaq import incgamma
from coldstart_dynaq.incgamma import (
    _IGAM_D, _LARGE, _LARGERATIO, _SMALL, _SMALLRATIO, MACHEP, gammainc,
)

MOMENTS = (0.1, 0.5, 1.0, 2.0, 3.0, 4.48, 5.0, 9.0, 20.0, 50.0)
D_MAX = 30


def mismatches(pairs):
    a, x = np.array(pairs).T
    want = special.gammainc(a, x).tolist()
    return [
        (ai, xi, got, w)
        for ai, xi, w in zip(a.tolist(), x.tolist(), want)
        if not ((got := gammainc(ai, xi)) == w or (math.isnan(got) and math.isnan(w)))
    ]


def branch(a, x):
    """The Cephes igam branch that (a, x) takes, for finite a, x > 0."""
    ratio = abs(x - a) / a
    if 20 < a < 200 and ratio < 0.3:
        return "asymptotic-mid"
    if a > 200 and ratio < 4.5 / math.sqrt(a):
        return "asymptotic-large"
    if abs(a - x) <= 0.4 * a and (a >= 200 or x >= 200):
        return "igam-fac-large"
    if x > 1.0 and x > a:
        return "continued-fraction" if x > 1.1 else "igamc-series"
    return "series"


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draw(name, rng):
    """One (a, x) pair meant for the named branch."""
    if name == "series":
        a = log_uniform(rng, 1e-3, 1e4)
        return a, rng.uniform(0.0, max(1.0, a) if a < 20 else 0.59 * a)
    if name == "continued-fraction":
        a = log_uniform(rng, 1e-3, 1e4)
        if a < 20:
            return a, max(a, 1.1) * log_uniform(rng, 1.0001, 30.0)
        return a, a * log_uniform(rng, 1.41, 30.0)
    if name == "igamc-series":
        x = rng.uniform(1.0001, 1.1)
        return x * rng.uniform(1e-3, 0.999), x
    if name == "asymptotic-mid":
        a = rng.uniform(20.01, 199.9)
        return a, a * rng.uniform(0.701, 1.299)
    a = log_uniform(rng, 200.1, 1e4)
    if name == "asymptotic-large":
        return a, a * (1 + 4.49 / math.sqrt(a) * rng.uniform(-1.0, 1.0))
    return a, a * (1 + rng.choice((-1, 1)) * rng.uniform(4.51 / math.sqrt(a), 0.399))


BRANCHES = (
    "series", "continued-fraction", "igamc-series",
    "asymptotic-mid", "asymptotic-large", "igam-fac-large",
)


def test_every_shape_and_edge_of_the_spec_grid():
    pairs = []
    for mean in MOMENTS:
        for variance in MOMENTS:
            shape = mean * mean / variance
            scale = variance / mean
            edges = np.concatenate([[0.0], np.arange(D_MAX) + 0.5, np.arange(1, D_MAX + 1), [np.inf]])
            pairs += [(shape, x) for x in (edges / scale).tolist()]
    assert mismatches(pairs) == []


@pytest.mark.parametrize("d_max", [1, 10, D_MAX])
def test_pmf_is_scipys(d_max):
    for mean in MOMENTS:
        for variance in MOMENTS:
            shape, scale = mean * mean / variance, variance / mean
            edges = np.concatenate([[0.0], np.arange(d_max) + 0.5, [np.inf]])
            pmf = np.diff(special.gammainc(shape, edges / scale))
            got = discretized_gamma(mean, variance, d_max).pmf
            assert np.array_equal(got, pmf / pmf.sum()), (mean, variance)


@pytest.mark.parametrize("name", BRANCHES)
def test_random_pairs_of_each_branch(name):
    # igamc's series for x <= 0.5 is not here: igam calls igamc only for x > 1
    rng = random.Random(f"incgamma-{name}")
    pairs = [draw(name, rng) for _ in range(4000)]
    assert {branch(a, x) for a, x in pairs} == {name}
    assert mismatches(pairs) == []


def corner(name, rng):
    """One pair of the named asymptotic branch with a just above its least
    value and |x - a| / a just below its bound, each within a log-uniform
    relative distance down to 1e-15; a pair rounded out of the branch is drawn again."""
    low = _SMALL if name == "asymptotic-mid" else _LARGE
    while True:
        a = low * (1 + 10.0 ** rng.uniform(-15, 0))
        bound = _SMALLRATIO if name == "asymptotic-mid" else _LARGERATIO / math.sqrt(a)
        ratio = bound * (1 - 10.0 ** rng.uniform(-15, 0))
        x = a * (1 + rng.choice((-1, 1)) * ratio)
        if branch(a, x) == name:
            return a, x


@pytest.mark.parametrize("name", ["asymptotic-mid", "asymptotic-large"])
def test_corner_pairs_of_each_asymptotic_branch(name):
    rng = random.Random(f"incgamma-corner-{name}")
    assert mismatches([corner(name, rng) for _ in range(4000)]) == []


# each bound below must hold with this factor to spare, which covers the
# rounding of eta, its powers and the sums many times over
SAFETY = 2.0


def eta_range():
    """The least and greatest eta of Temme's expansion where gammainc calls it.

    gammainc calls it for a > _SMALL with |x - a| / a below _SMALLRATIO,
    or below _LARGERATIO / sqrt(a) once a > _LARGE; eta grows with x / a - 1.
    """
    ratio = max(_SMALLRATIO, _LARGERATIO / math.sqrt(_LARGE))
    return tuple(math.copysign(math.sqrt(-2 * (math.log1p(s) - s)), s) for s in (-ratio, ratio))


def last_column_read(row, lo, hi):
    """The last column the inner loop of _asymptotic_series can read in row
    for an eta in [lo, hi], or None if it may run off the row's end.

    On each of 256 intervals, column n's term is at most |d_n| far^n
    (far the interval's end farthest from 0), and c_k summed up to n is at
    least its value at the midpoint less its greatest slope times half the
    width. The loop breaks at the first column where the term is below
    MACHEP times c_k.
    """
    last = 0
    pieces = 256
    width = (hi - lo) / pieces
    for i in range(pieces):
        mid = lo + (i + 0.5) * width
        far = max(abs(mid - width / 2), abs(mid + width / 2))
        ck, slope = row[0], 0.0
        for n in range(1, len(row)):
            ck += row[n] * mid**n
            slope += n * abs(row[n]) * far ** (n - 1)
            if SAFETY * abs(row[n]) * far**n < MACHEP * (abs(ck) - slope * width / 2):
                last = max(last, n)
                break
        else:
            return None
    return last


def last_row_read(table, a_min, eta_max):
    """The first row at which the outer loop of _asymptotic_series breaks
    for every a > a_min and |eta| <= eta_max, or None if it may run off the table.

    |c_k| is at most the sum of |d_k,n| eta_max^n, and |c_0| at least |d_0,0|
    less the other terms of that sum. So row k's term is at most
    |c_k| a_min^-k, and the total so far at least |c_0| less the bounds of
    rows 1 to k. The loop breaks once the term is below MACHEP times the total.
    """
    most = [sum(abs(d) * eta_max**n for n, d in enumerate(row)) for row in table]
    total = 2 * abs(table[0][0]) - most[0]
    for k in range(1, len(table)):
        term = most[k] * a_min**-k
        total -= term
        if SAFETY * term < MACHEP * total:
            return k
    return None


def test_cut_table_is_never_exhausted(monkeypatch):
    # with the table cut to rows 0..K-1 and columns 0..N-1, the loops of
    # _asymptotic_series break where they did with scipy's 25 x 25, so the
    # same operations run in the same order
    n_rows, n_cols = len(_IGAM_D), len(_IGAM_D[0])
    assert {len(row) for row in _IGAM_D} == {n_cols}
    lo, hi = eta_range()
    # the last kept row and column are needed, and suffice
    assert last_row_read(_IGAM_D, _SMALL, max(-lo, hi)) == n_rows - 1
    columns = [last_column_read(row, lo, hi) for row in _IGAM_D]
    assert None not in columns and max(columns) == n_cols - 1
    # and the loops can reach them: at a = 1 on a table of ones no term
    # shrinks, and eta = -0.6 keeps every power above MACHEP, so the loops
    # read every entry
    reads = set()

    class Ones:
        """A row of ones that notes each column read."""

        def __init__(self, k):
            self.k = k

        def __len__(self):
            return n_cols

        def __getitem__(self, n):
            reads.add((self.k, n))
            return 1.0

    monkeypatch.setattr(incgamma, "_IGAM_D", tuple(Ones(k) for k in range(n_rows)))
    incgamma._asymptotic_series(1.0, 0.51)
    assert reads == {(k, n) for k in range(n_rows) for n in range(n_cols)}


EDGES = (0.0, 5e-324, 1.0, math.inf, math.nan, -1.0)


@pytest.mark.parametrize("a", EDGES)
@pytest.mark.parametrize("x", EDGES)
def test_edge_prologue(a, x):
    assert mismatches([(a, x)]) == []


@pytest.mark.parametrize("mean, variance", [(1e-300, 1e300), (1e300, 1e-300)])
def test_extreme_specs_are_refused(mean, variance):
    # a shape of 0 or inf is refused before any CDF is evaluated
    with pytest.raises(DomainError, match="both must be finite and > 0"):
        discretized_gamma(mean, variance, 10)
