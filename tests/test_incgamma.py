"""incgamma.gammainc against scipy.special.gammainc, bit for bit.

The port is kept only while these hold: every (shape, edge) pair that
discretized_gamma builds from the specs below, a seeded random sample that
takes each branch of Cephes igam by name, and the edge prologue. nan
compares equal to nan; every other result must be the same float.
"""

import math
import random

import numpy as np
import pytest
from scipy import special

from coldstart_dynaq.demand import discretized_gamma
from coldstart_dynaq.env import DomainError
from coldstart_dynaq.incgamma import gammainc

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
