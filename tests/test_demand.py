import datetime as dt
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from coldstart_dynaq.demand import (
    DemandDistribution,
    DemandSeries,
    cdf_of,
    discretized_gamma,
    extract_features,
    load_transactions,
    sample,
    save_series,
    synthesize_history,
)
from coldstart_dynaq.env import DomainError
from helpers import mean, point_mass


class TestDiscretizedGamma:
    def test_moment_matching(self):
        # shape 5, scale 1: mode near 4, mean close to 5 despite truncation
        dist = discretized_gamma(5.0, 5.0, 10)
        assert abs(mean(dist) - 5.0) < 0.25

    def test_pmf2_near_reported_value(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        assert 0.08 <= dist.pmf[2] <= 0.14

    def test_normalized(self):
        for var in (1.0, 3.0, 5.0):
            dist = discretized_gamma(5.0, var, 10)
            assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_truncation_bias_bound(self):
        for var in (1.0, 3.0, 5.0):
            assert abs(mean(discretized_gamma(5.0, var, 10)) - 5.0) < 0.25

    @pytest.mark.parametrize("mean, variance", [
        (5.0, 1.0), (5.0, 3.0), (5.0, 5.0), (4.48, 5.0), (2.0, 8.0), (0.5, 0.1), (9.0, 20.0),
    ])
    def test_matches_frozen_distribution(self, mean, variance):
        # the frozen scipy distribution the module-level cdf call replaced
        cdf = stats.gamma(a=mean * mean / variance, scale=variance / mean).cdf
        edges = np.concatenate([[0.0], np.arange(10) + 0.5, [np.inf]])
        pmf = np.diff(cdf(edges))
        assert np.array_equal(discretized_gamma(mean, variance, 10).pmf, pmf / pmf.sum())

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            discretized_gamma(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            discretized_gamma(5.0, float("nan"), 10)
        with pytest.raises(DomainError):
            discretized_gamma(5.0, -1.0, 10)

    def test_moments_across_the_float_range_give_a_pmf_or_one_error(self):
        # a Gamma shape or scale that is 0 or inf is refused before numpy
        # sees it, so no moments warn on their way to a pmf or a DomainError
        # (shape or scale out of range, or a pmf that is not one)
        moments = np.geomspace(1e-310, 1.7e308, 12).tolist()
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mean in moments:
                for variance in moments:
                    try:
                        dist = discretized_gamma(mean, variance, 10)
                    except DomainError:
                        outcomes.add("refused")
                    else:
                        assert np.isfinite(dist.pmf).all()
                        outcomes.add("pmf")
        assert outcomes == {"pmf", "refused"}


class TestSample:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        dist = point_mass(4, 10)
        assert sample(dist, rng, 50) == [4] * 50

    def test_law_of_large_numbers(self):
        dist = discretized_gamma(5.0, 1.0, 10)
        rng = np.random.default_rng(1)
        draws = sample(dist, rng, 10**5)
        assert abs(np.mean(draws) - mean(dist)) < 0.1

    def test_seed_determinism(self):
        dist = discretized_gamma(5.0, 3.0, 10)
        rng = np.random.default_rng(7)
        first = sample(dist, rng, 20)
        rng = np.random.default_rng(7)
        second = sample(dist, rng, 20)
        assert first == second

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_draws_as_n_scalar_draws(self, bit_generator, n):
        # one rng.random(n) call takes the uniforms n rng.random() calls
        # would, and leaves the generator, cached half included, where they do
        dist = discretized_gamma(5.0, 3.0, 10)
        rng, ref = (np.random.Generator(bit_generator(11)) for _ in range(2))
        for g in (rng, ref):
            g.integers(5, dtype=np.int32)
        want = [bisect_right(dist.cdf, ref.random()) for _ in range(n)]
        assert sample(dist, rng, n) == want
        # 32-bit draws read the cached half first, where the generator has one
        next_words = [g.integers(2**32, size=3, dtype=np.uint32).tolist() for g in (rng, ref)]
        assert next_words[0] == next_words[1]

    def test_draw_above_pmf_total_is_d_max(self):
        # the pmf sums to 1 - 5e-10, inside the tolerance; a uniform above
        # that total must still map to d_max, not d_max + 1
        dist = DemandDistribution(np.array([0.3, 0.7 - 5e-10, 0.0]))

        class Uniform:
            def random(self, n):
                return np.full(n, 0.99999999999999)

        assert sample(dist, Uniform(), 1) == [2]

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(any),
        st.sampled_from([1.0 - 5e-10, 1.0, 1.0 + 1e-15, 1.0 + 5e-10]),
        st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.floats(1.0 - 1e-9, 1.0, exclude_max=True)),
    )
    def test_cdf_draw_matches_both_old_rules(self, weights, total, u):
        pmf = np.array(weights) / sum(weights) * total
        d_max = len(pmf) - 1
        drawn = bisect_right(cdf_of(pmf), u)
        # DemandDistribution's rule: pin the last cdf entry, then searchsorted
        pinned = np.cumsum(pmf)
        pinned[-1] = 1.0
        assert drawn == int(np.searchsorted(pinned, u, side="right"))
        # the model rule: an unpinned cdf, clamped to d_max
        assert drawn == min(bisect_right(np.cumsum(pmf).tolist(), u), d_max)


class TestLoadTransactions:
    def _write(self, path, rows):
        path.write_text("date,product,quantity\n" + "\n".join(rows) + "\n")

    def test_daily_aggregation(self, tmp_path):
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Boule 200g,3", "2021-01-01,Boule 200g,2"])
        series = load_transactions(f, "Boule 200g")
        assert len(series) == 1
        assert series.quantities[0] == 5

    def test_zero_fills_gaps(self, tmp_path):
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Boule 200g,3", "2021-01-04,Boule 200g,2"])
        series = load_transactions(f, "Boule 200g")
        assert list(series.quantities) == [3, 0, 0, 2]

    def test_dates_more_than_366_days_apart_are_a_mistyped_year(self, tmp_path):
        # a 1900 row among 20 days of 2021 zero-filled a 44,000-day history
        f = tmp_path / "tx.csv"
        days = [f"2021-01-{d:02},Boule 200g,3" for d in range(1, 21)]
        self._write(f, [*days[:5], "1900-01-01,Boule 200g,3", *days[5:], "2021-03-01,Croissant,1"])
        with pytest.raises(DomainError, match=r"tx.csv: .* from 1900-01-01 to 2021-01-01"):
            load_transactions(f, "Boule 200g")
        # a leap year's 366 days apart load, zero-filled
        self._write(f, ["2020-01-01,Boule 200g,3", "2021-01-01,Boule 200g,2"])
        assert list(load_transactions(f, "Boule 200g").quantities) == [3, *[0] * 365, 2]

    def test_empty_result_error(self, tmp_path):
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Croissant,3"])
        with pytest.raises(DomainError, match="no rows"):
            load_transactions(f, "Boule 200g")

    def test_bad_row_reports_number(self, tmp_path):
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Boule 200g,3", "not-a-date,Boule 200g,1"])
        with pytest.raises(DomainError, match="row 3"):
            load_transactions(f, "Boule 200g")

    @pytest.mark.parametrize("text", [
        "date,product,quantity\n2021-01-01,Boule 200g,3\n2021-01-02,Boule 200g,inf\n",
        "date,product,quantity\n2021-01-01,Boule 200g,3\n2021-01-02,Boule 200g,1e400\n",
        "date,product,quantity\n2021-01-01,Boule 200g,3\n2021-01-02,Boule 200g\n",
        "date,quantity,product\n2021-01-01,3,Boule 200g\n2021-01-02,4\n",
        # a field past csv.field_size_limit() raised csv.Error, which is no ValueError
        f"date,product,quantity\n2021-01-01,Boule 200g,3\n2021-01-02,{'x' * 200_000},1\n",
    ], ids=["inf", "1e400", "no-quantity", "short-row-product-last", "long-field"])
    def test_malformed_row_reports_number(self, tmp_path, text):
        f = tmp_path / "tx.csv"
        f.write_text(text)
        with pytest.raises(DomainError, match="row 3"):
            load_transactions(f, "Boule 200g")

    @pytest.mark.parametrize("quantity", ["2.7", "-1"])
    def test_quantity_not_a_whole_count_is_refused(self, tmp_path, quantity):
        # a fraction was truncated and a negative row netted into its day's total
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Boule 200g,3", f"2021-01-02,Boule 200g,{quantity}",
                        "2021-01-02,Boule 200g,3"])
        with pytest.raises(DomainError, match=f"row 3: quantity '{quantity}' is not a non-negative"):
            load_transactions(f, "Boule 200g")

    @pytest.mark.parametrize("rows", [
        ["2021-01-01,Boule 200g,3", "2021-01-02,Boule 200g,1e300"],
        ["2021-01-02,Boule 200g,5e18", "2021-01-02,Boule 200g,5e18"],
    ], ids=["huge-row", "huge-day-total"])
    def test_quantity_past_int64_is_refused(self, tmp_path, rows):
        # a finite whole quantity that int64 cannot hold was an OverflowError
        f = tmp_path / "tx.csv"
        self._write(f, rows)
        with pytest.raises(DomainError, match="row 3: quantity .* past 9223372036854775807"):
            load_transactions(f, "Boule 200g")

    def test_header_field_past_the_csv_limit_is_row_1(self, tmp_path):
        # csv.Error is no ValueError, and ended the run in a traceback
        f = tmp_path / "tx.csv"
        f.write_text(f"date,product,{'x' * 200_000}\n2021-01-01,Boule 200g,3\n")
        with pytest.raises(DomainError, match="unreadable row 1: field larger than field limit"):
            load_transactions(f, "Boule 200g")

    def test_header_with_a_byte_order_mark_loads(self, tmp_path):
        # a spreadsheet's UTF-8 export starts with one; it was read as part
        # of the first column's name, and the file refused for want of "date"
        f = tmp_path / "tx.csv"
        f.write_bytes(b"\xef\xbb\xbfdate,product,quantity\n2021-01-01,Boule 200g,3\n")
        assert list(load_transactions(f, "Boule 200g").quantities) == [3]

    def test_row_with_more_fields_than_the_header_is_refused(self, tmp_path):
        # the extra field was dropped and the row counted
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Boule 200g,3", "2021-01-02,Boule 200g,3,extra"])
        with pytest.raises(DomainError, match="row 3 has more fields than the header"):
            load_transactions(f, "Boule 200g")

    @pytest.mark.parametrize("row", [1, 2, 5, 3001])
    def test_byte_that_is_not_utf8_names_its_row(self, tmp_path, row):
        # the decoder's error named no file and no row; the file is decoded
        # in blocks, so the row must not be the one read when its block is
        lines = ["date,product,quantity"] + ["2021-01-01,Boule 200g,1"] * 4000
        lines[row - 1] += "ö"
        f = tmp_path / "tx.csv"
        f.write_bytes("\n".join(lines).encode("latin-1"))
        with pytest.raises(DomainError, match=f"tx.csv: unreadable row {row}: not UTF-8 text"):
            load_transactions(f, "Boule 200g")

    def test_whole_quantity_with_a_decimal_point(self, tmp_path):
        f = tmp_path / "tx.csv"
        self._write(f, ["2021-01-01,Boule 200g,3.0", "2021-01-01,Boule 200g,0"])
        assert list(load_transactions(f, "Boule 200g").quantities) == [3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_transactions(tmp_path / "nope.csv", "Boule 200g")

    def test_round_trip_with_save_series(self, tmp_path):
        rng = np.random.default_rng(3)
        dist = discretized_gamma(5.0, 5.0, 10)
        series = synthesize_history(dist, 40, dt.date(2021, 1, 1), rng)
        f = tmp_path / "synth.csv"
        save_series(series, f, "Boule 200g")
        loaded = load_transactions(f, "Boule 200g")
        assert (loaded.start, len(loaded)) == (series.start, len(series))
        assert list(loaded.quantities) == list(series.quantities)


class TestExtractFeatures:
    def _series(self, quantities, start=dt.date(2021, 3, 1)):
        return DemandSeries(start, np.array(quantities))

    def test_constant_series_lags(self):
        series = self._series([5] * 10)
        feats = extract_features(series, 5, window=3)
        assert list(feats[:4]) == [5.0, 5.0, 5.0, 5.0]

    def test_monday_one_hot(self):
        # 2021-03-01 is a Monday; predicting day 4 uses day 3's calendar
        series = self._series([1, 2, 3, 4, 5, 6, 7, 8])
        v = extract_features(series, 8, window=7)[8:]
        prev = series.date(7)  # 2021-03-08, also a Monday
        assert prev.weekday() == 0
        assert list(v[:7]) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert v[7] == 0.0  # weekend flag

    def test_cyclic_encoding_values(self):
        series = self._series([1] * 20, start=dt.date(2021, 4, 1))  # 30-day month
        v = extract_features(series, 16, window=3)[4:]
        date = series.date(15)  # April 16
        angle = 2 * math.pi * date.day / 30
        assert v[9] == pytest.approx(math.sin(angle))
        assert v[10] == pytest.approx(math.cos(angle))

    def test_cyclic_pairs_unit_norm(self):
        series = self._series(list(range(12)))
        v = extract_features(series, 9, window=4)[5:]
        assert v[9] ** 2 + v[10] ** 2 == pytest.approx(1.0, abs=1e-9)
        assert v[11] ** 2 + v[12] ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_dimensionality(self):
        series = self._series([2] * 15)
        assert extract_features(series, 9, window=7).shape == (7 + 1 + 13,)

    @pytest.mark.parametrize("last_day", [
        dt.date(2000, 2, 29), dt.date(2024, 2, 29), dt.date(2100, 2, 28), dt.date(9999, 12, 31),
    ], ids=str)
    def test_month_cosine_peaks_on_the_last_day(self, last_day):
        # December 9999 failed: the month's length came from date(10000, 1, 1)
        series = self._series([1] * 4, start=last_day - dt.timedelta(days=3))
        assert series.date(3) == last_day
        # after the 3 lags: their mean, 7 weekdays, weekend, week, month sine
        month_cos = 3 + 1 + 7 + 2 + 1
        assert extract_features(series, 4, window=3)[month_cos] == 1.0
        assert extract_features(series, 3, window=3)[month_cos] < 1.0

    def test_insufficient_history(self):
        series = self._series([1, 2, 3])
        with pytest.raises(DomainError):
            extract_features(series, 2, window=3)


class TestSynthesizeHistory:
    def test_empty(self):
        series = synthesize_history(point_mass(4, 10), 0, dt.date(2021, 1, 1),
                                    np.random.default_rng(0))
        assert len(series) == 0

    def test_point_mass(self):
        series = synthesize_history(point_mass(4, 10), 7, dt.date(2021, 1, 1),
                                    np.random.default_rng(0))
        assert list(series.quantities) == [4] * 7

    def test_empirical_pmf_converges(self):
        dist = discretized_gamma(5.0, 5.0, 10)
        series = synthesize_history(dist, 10**4, dt.date(2021, 1, 1), np.random.default_rng(2))
        empirical = np.bincount(series.quantities, minlength=11) / len(series)
        assert 0.5 * np.abs(empirical - dist.pmf).sum() < 0.02


def test_demand_distribution_validation():
    with pytest.raises(DomainError):
        DemandDistribution(pmf=np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        DemandDistribution(pmf=np.array([-0.1, 1.1]))


@pytest.mark.parametrize("pmf", [[np.nan] * 11, [0.5, np.nan, 0.5], [np.inf, 0.0]])
def test_demand_distribution_must_be_finite(pmf):
    # abs(nan - 1) > tol is false, so an all-NaN pmf once passed the sum check
    with pytest.raises(DomainError):
        DemandDistribution(pmf=np.array(pmf))


def test_demand_series_validation():
    with pytest.raises(DomainError, match="quantities must be >= 0"):
        DemandSeries(dt.date(2021, 1, 1), np.array([1, -2]))
    # the last of three days from the day before date.max would pass it
    start = dt.date.max - dt.timedelta(days=1)
    assert DemandSeries(start, [1, 2]).date(1) == dt.date.max
    with pytest.raises(DomainError, match="3 days from 9999-12-30 pass 9999-12-31"):
        DemandSeries(start, [1, 2, 3])
