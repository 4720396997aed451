"""Demand models and data handling.

Integer daily demand on [0, d_max] from a moment-matched, discretized Gamma
distribution; transaction-file ingestion; calendar/lag feature extraction
for the demand forecaster; and a synthetic history generator that stands in
for real transaction data. sample() draws an episode's or a history's
demands at once, so a day loop walks a list.
"""

import calendar
import csv
import datetime as dt
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .env import DomainError
from .incgamma import gammainc

_PMF_TOL = 1e-9
# a day's total must fit the int64 quantities of a DemandSeries
_MAX_DAY_TOTAL = int(np.iinfo(np.int64).max)
# more days than this between two dates of a product's rows is a mistyped year
_MAX_GAP_DAYS = 366


@dataclass(frozen=True)
class DemandDistribution:
    """Probability mass function over integer demand 0..d_max."""

    pmf: np.ndarray
    cdf: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if pmf.ndim != 1 or len(pmf) < 1:
            raise DomainError("pmf must be a non-empty vector")
        if not np.isfinite(pmf).all() or np.any(pmf < 0) or abs(pmf.sum() - 1.0) > _PMF_TOL:
            raise DomainError("pmf entries must be finite, >= 0 and sum to 1")
        object.__setattr__(self, "cdf", cdf_of(pmf))

    @property
    def d_max(self) -> int:
        return len(self.pmf) - 1


@dataclass(frozen=True)
class DemandSeries:
    """Daily demand quantities on consecutive days: quantity i is the
    demand of date(i), `start` plus i days. The last day must not pass
    datetime.date.max."""

    start: dt.date
    quantities: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quantities, dtype=int)
        object.__setattr__(self, "quantities", q)
        if np.any(q < 0):
            raise DomainError("quantities must be >= 0")
        if len(q) > days_from(self.start):
            raise DomainError(f"{len(q)} days from {self.start} pass {dt.date.max}")

    def __len__(self) -> int:
        return len(self.quantities)

    def date(self, i: int) -> dt.date:
        return self.start + dt.timedelta(days=i)


def days_from(start: dt.date) -> int:
    """The number of calendar days from start to datetime.date.max, both included."""
    return (dt.date.max - start).days + 1


def cdf_of(pmf: np.ndarray) -> list:
    """The cumulative sums of pmf, with the last one pinned to 1.

    A stack of pmfs along the last axis gives one such list per pmf.

    Inverse-CDF draws take bisect_right(cdf, u) for a uniform u in [0, 1).
    A pmf may sum to a little under 1 (within _PMF_TOL, or a learned
    model's rounding), and a u above its total still draws the last class.
    """
    cdf = np.cumsum(pmf, axis=-1)
    cdf[..., -1] = 1.0
    return cdf.tolist()


def discretized_gamma(mean: float, variance: float, d_max: int) -> DemandDistribution:
    """Moment-matched Gamma density binned to an integer pmf on [0, d_max].

    shape k = mean^2/variance, scale = variance/mean.  pmf[i] integrates
    over [i-0.5, i+0.5), pmf[0] over [0, 0.5), and the right tail folds
    into pmf[d_max].  Moments whose shape or scale is not finite and > 0
    are one DomainError.
    """
    mean, variance = float(mean), float(variance)
    if not (mean > 0 and variance > 0):
        raise DomainError("mean and variance must be > 0")
    shape = mean * mean / variance
    scale = variance / mean
    if not (0 < shape < math.inf and 0 < scale < math.inf):
        raise DomainError(f"mean {mean} and variance {variance} give a Gamma shape {shape} "
                          f"and scale {scale}; both must be finite and > 0")
    edges = [0.0, *(i + 0.5 for i in range(d_max)), math.inf]
    # the regularized lower incomplete gamma function is the Gamma CDF; an
    # edge past the float range divides to inf without a numpy warning
    pmf = np.diff([gammainc(shape, x / scale) for x in edges])
    pmf = pmf / pmf.sum()
    return DemandDistribution(pmf=pmf)


def sample(dist: DemandDistribution, rng: np.random.Generator, n: int) -> list[int]:
    """n inverse-CDF draws of integer demand from one rng.random(n) call,
    which takes the uniforms n rng.random() calls would and leaves rng where they do."""
    return [bisect_right(dist.cdf, u) for u in rng.random(n).tolist()]


def load_transactions(path, product_name: str) -> DemandSeries:
    """Aggregate a comma-separated transactions file into a daily demand series.

    Expects UTF-8 text (a byte-order mark is skipped), a header with date,
    product and quantity columns (ISO-8601 dates), and in every row no more
    fields than the header and a quantity that is a non-negative whole
    number ("3" or "3.0"); any other row, a row that takes its day's total
    past the int64 range, or a row the csv module cannot read, is one
    DomainError naming it. Rows are filtered to `product_name`, summed per
    day, and missing days inside the observed span are zero-filled. Two
    consecutive dates of the product's rows more than _MAX_GAP_DAYS apart
    are one DomainError naming both, since a mistyped year would otherwise
    zero-fill decades.
    """
    totals: dict[dt.date, int] = {}
    # a byte that is not UTF-8 reads as a lone surrogate, which encode()
    # refuses line by line, so that the error names its row
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.DictReader(line for line in fh if line.encode())
        required = {"date", "product", "quantity"}
        rownum = 0  # rows read, the header included
        try:
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise DomainError(f"{path}: need columns {sorted(required)}")
            rownum = 1
            for rownum, row in enumerate(reader, start=2):
                if None in row:
                    raise DomainError(f"{path}: row {rownum} has more fields than the header")
                # a short row holds None in its missing fields
                try:
                    day = dt.date.fromisoformat(row["date"].strip())
                    qty = float(row["quantity"])
                    product = row["product"].strip()
                except (ValueError, TypeError, AttributeError) as exc:
                    raise DomainError(f"{path}: unparseable row {rownum}: {exc}") from exc
                # a fraction would be truncated and a negative row netted into
                # its day's total; inf, nan and 1e400 are not whole either
                if not (qty >= 0 and qty.is_integer()):
                    raise DomainError(
                        f"{path}: row {rownum}: quantity {row['quantity'].strip()!r} "
                        "is not a non-negative whole number"
                    )
                if product != product_name:
                    continue
                total = totals.get(day, 0) + int(qty)
                if total > _MAX_DAY_TOTAL:
                    raise DomainError(
                        f"{path}: row {rownum}: quantity {row['quantity'].strip()!r} "
                        f"takes the total of {day} past {_MAX_DAY_TOTAL}"
                    )
                totals[day] = total
        # a field longer than csv.field_size_limit(), or a byte that is not UTF-8
        except (csv.Error, UnicodeEncodeError) as exc:
            reason = "not UTF-8 text" if isinstance(exc, UnicodeEncodeError) else exc
            raise DomainError(f"{path}: unreadable row {rownum + 1}: {reason}") from exc
    if not totals:
        raise DomainError(f"{path}: no rows for product {product_name!r}")
    days = sorted(totals)
    for a, b in zip(days, days[1:]):
        if (b - a).days > _MAX_GAP_DAYS:
            raise DomainError(f"{path}: rows for {product_name!r} jump from {a} to {b}, "
                              f"more than {_MAX_GAP_DAYS} days; is a year mistyped?")
    quantities = np.zeros((days[-1] - days[0]).days + 1, dtype=int)
    for day, total in totals.items():
        quantities[(day - days[0]).days] = total
    return DemandSeries(days[0], quantities)


def save_series(series: DemandSeries, path, product_name: str):
    """Write a series in the same transactions format load_transactions reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "product", "quantity"])
        for i, qty in enumerate(series.quantities):
            writer.writerow([series.date(i).isoformat(), product_name, int(qty)])


def extract_features(series: DemandSeries, day_index: int, window: int) -> np.ndarray:
    """Features for predicting the demand of day `day_index`.

    The first window + 1 entries are the `window` previous demands (most
    recent first) and their mean; the 13 after them encode the calendar of
    the day before: one-hot day-of-week, weekend flag, ISO week scaled to
    [0, 1], and sin/cos positions within the month and the year. So a
    vector holds window + 14 entries.
    """
    if day_index < window:
        raise DomainError(f"day_index {day_index} needs >= {window} days of history")
    # day_index == len(series) is allowed: predicting the day right after
    # the recorded history only needs past quantities and yesterday's date
    if day_index > len(series):
        raise DomainError(f"day_index {day_index} outside series of length {len(series)}")
    lags = series.quantities[day_index - window:day_index][::-1].astype(float)

    date = series.date(day_index - 1)
    dow = np.zeros(7)
    dow[date.weekday()] = 1.0
    weekend = 1.0 if date.weekday() >= 5 else 0.0
    week = date.isocalendar().week / 53.0
    month_angle = 2.0 * math.pi * date.day / calendar.monthrange(date.year, date.month)[1]
    year_angle = 2.0 * math.pi * date.timetuple().tm_yday / (365 + calendar.isleap(date.year))
    return np.concatenate([
        lags,
        [lags.mean()],
        dow,
        [weekend, week],
        [math.sin(month_angle), math.cos(month_angle)],
        [math.sin(year_angle), math.cos(year_angle)],
    ])


def synthesize_history(
    dist: DemandDistribution,
    days: int,
    start_date: dt.date,
    rng: np.random.Generator,
) -> DemandSeries:
    """Stand-in for real transaction history: i.i.d. draws on daily dates."""
    return DemandSeries(start_date, sample(dist, rng, days))
