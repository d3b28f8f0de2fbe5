"""Quote ingestion, feature engineering, filtering, splits, and synthesis.

The learning problem downstream is: predict C/K (option mid over strike) from
ten features: S/K, K, time to expiry in years, the risk-free rate, and six
backward-looking realized-vol estimates of the underlying.  This module turns
raw quote/underlying/rate tables into that representation, applies the
standing row filters, produces chronological splits, and can generate a
synthetic market with the same schema for end-to-end checks.  The realized
vols of each underlying come from one ``vol.rolling_vols`` [day, window]
array.  ``sequence_windows`` is the one statement of the window rule: it
builds every split's sequence windows for the sequence models, causal or
overlapping.  A window's rows are its ticker's neighbouring quotes in day
order, the quotes of one day in file order ((day, strike, expiry) order on
the synthetic market).  A causal window never holds its target quote; an
overlapping window ends on it.

Conventions fixed here: strikes arrive in thousandths of a currency unit;
calendar maturities use a 365-day year; vol annualisation uses 252 trading
days (see vol.py); splits are 70/15/15 by time with floors on the first two.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass, replace
from datetime import date, timedelta
from enum import Enum

import numpy as np

from .bs import call_price_grid
from .vol import STANDARD_WINDOWS, rolling_vols

__all__ = [
    "DAYS_PER_YEAR",
    "MIN_TTM_DAYS",
    "MONEYNESS_LO",
    "MONEYNESS_HI",
    "ATM_LO",
    "ATM_HI",
    "FEATURE_COLUMNS",
    "MoneynessCategory",
    "QuoteTable",
    "FeatureTable",
    "BuildResult",
    "DatasetSplit",
    "SequenceWindows",
    "TickerConfig",
    "SynthConfig",
    "SyntheticData",
    "classify_moneyness",
    "moneyness_masks",
    "build_features",
    "filter_mask",
    "split_indices",
    "sequence_windows",
    "generate_synthetic_dataset",
    "attach_market_data",
    "read_quotes_csv",
    "write_quotes_csv",
    "read_underlying_csv",
    "write_underlying_csv",
    "read_rates_csv",
    "write_rates_csv",
    "read_feature_table",
    "write_features_csv",
]

DAYS_PER_YEAR = 365.0
MIN_TTM_DAYS = 15
MONEYNESS_LO = 0.8
MONEYNESS_HI = 1.2
ATM_LO = 0.95
ATM_HI = 1.05

FEATURE_COLUMNS = (
    "s_over_k",
    "strike",
    "ttm_years",
    "rate",
    "sigma_20",
    "sigma_30",
    "sigma_40",
    "sigma_50",
    "sigma_65",
    "sigma_90",
)


class MoneynessCategory(Enum):
    OTM = "otm"
    ATM = "atm"
    ITM = "itm"


# ---------------------------------------------------------------------------
# quote types


def _take(table, idx):
    """The rows ``idx`` (a mask, a slice or indices) of a table, in that
    order: every array field indexed, the ``tickers`` kept."""
    return replace(table, **{k: v[idx] for k, v in vars(table).items()
                             if isinstance(v, np.ndarray)})


def _coded(names) -> tuple:
    """(the distinct names, sorted, as a tuple; each name's index in it)."""
    tickers = sorted(set(names))
    index = {name: i for i, name in enumerate(tickers)}
    return tuple(tickers), np.fromiter(map(index.__getitem__, names), np.intp, len(names))


class _Checked:
    """``rejected`` and ``check`` of a table from its ``_checks``: one (mask,
    error text of row i) per check, in the order that their errors take
    precedence.  A mask is [N], or [N, k] when row i fails if any of
    ``mask[i]`` does."""

    def rejected(self) -> np.ndarray:
        """Mask of the rows that some check rejects."""
        return np.logical_or.reduce([mask.any(axis=1) if mask.ndim == 2 else mask
                                     for mask, _ in self._checks()])

    def check(self) -> None:
        """Raise the error of the first rejected row: that of its first
        failed check.  The rows are looked for only when some entry fails."""
        checks = self._checks()
        if any(mask.any() for mask, _ in checks):
            i = int(np.argmax(self.rejected()))
            raise ValueError(next(text(i) for mask, text in checks if mask[i].any()))


@dataclass(frozen=True, eq=False)
class QuoteTable(_Checked):
    """Quotes as columns: what synth writes and prepare reads and joins.

    ``days`` and ``expiries`` are proleptic ordinals (``date.toordinal``),
    ``codes`` index the sorted ``tickers`` and ``strike_price`` is in
    thousandths.  ``close`` and ``rate`` are None until
    ``attach_market_data`` joins them on; synth sets them itself.
    """

    days: np.ndarray
    expiries: np.ndarray
    tickers: tuple
    codes: np.ndarray
    bid: np.ndarray
    offer: np.ndarray
    strike_price: np.ndarray
    close: np.ndarray | None = None
    rate: np.ndarray | None = None

    def __len__(self) -> int:
        return self.days.shape[0]

    def take(self, idx) -> QuoteTable:
        return _take(self, idx)

    def _checks(self) -> tuple:
        """(mask, error text of quote i) of each check.  Every check is a
        comparison, so a NaN fails none."""
        bid, offer, strike, days, expiries = (
            self.bid, self.offer, self.strike_price, self.days, self.expiries)
        return (
            ((bid < 0.0) | (offer < 0.0),
             lambda i: f"negative quote: bid={bid[i].item()}, offer={offer[i].item()}"),
            (offer < bid,
             lambda i: f"crossed quote: bid {bid[i].item()} > offer {offer[i].item()}"),
            (strike <= 0.0, lambda i: f"strike_price must be positive, got {strike[i].item()}"),
            (expiries <= days,
             lambda i: f"expiry {date.fromordinal(expiries[i].item())} not after quote date "
                       f"{date.fromordinal(days[i].item())}"),
        )

    @classmethod
    def of(cls, days, expiries, names, bid, offer, strike_price) -> QuoteTable:
        """An unjoined table from each quote's columns, its ticker given by name."""
        tickers, codes = _coded(names)
        return cls(np.asarray(days, dtype=np.int64), np.asarray(expiries, dtype=np.int64),
                   tickers, codes,
                   *(np.asarray(c, dtype=np.float64) for c in (bid, offer, strike_price)))


def classify_moneyness(s_over_k: float) -> MoneynessCategory:
    """OTM on [MONEYNESS_LO, ATM_LO), ATM on [ATM_LO, ATM_HI], ITM on
    (ATM_HI, MONEYNESS_HI]; values outside raise ValueError (such rows should
    have been filtered before classification).
    """
    if not (MONEYNESS_LO <= s_over_k <= MONEYNESS_HI):
        raise ValueError(
            f"s_over_k {s_over_k} outside the classified range "
            f"[{MONEYNESS_LO}, {MONEYNESS_HI}]"
        )
    if s_over_k < ATM_LO:
        return MoneynessCategory.OTM
    if s_over_k <= ATM_HI:
        return MoneynessCategory.ATM
    return MoneynessCategory.ITM


def moneyness_masks(s_over_k) -> dict:
    """{"otm"|"atm"|"itm": mask}: ``classify_moneyness`` of every element,
    which raises its error for the first value outside the classified range."""
    outside = ~((MONEYNESS_LO <= s_over_k) & (s_over_k <= MONEYNESS_HI))
    if outside.any():
        classify_moneyness(float(s_over_k[np.argmax(outside)]))
    otm, itm = s_over_k < ATM_LO, s_over_k > ATM_HI
    return {"otm": otm, "atm": ~otm & ~itm, "itm": itm}


# ---------------------------------------------------------------------------
# feature rows


@dataclass(frozen=True, eq=False)
class FeatureTable(_Checked):
    """Feature rows as columns: what ``prepare`` writes and ``train`` and
    ``evaluate`` read.

    ``days`` are proleptic ordinals (``date.toordinal``), ``codes`` index the
    sorted ``tickers``, ``x`` is [N, 10] float64 in FEATURE_COLUMNS order and
    C-contiguous (as ``np.array`` of row lists is, so reductions over it sum
    in the same order), and ``target`` is [N].
    """

    days: np.ndarray
    tickers: tuple
    codes: np.ndarray
    x: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return self.target.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.x[:, FEATURE_COLUMNS.index(name)]

    def take(self, idx) -> FeatureTable:
        return _take(self, idx)

    def _checks(self) -> tuple:
        """(mask, error text of row i) of each check: a non-finite feature or
        target, then a non-positive s_over_k, strike or ttm_years, then a
        non-positive target."""

        def non_finite(i):
            return (f"non-finite feature row for {self.tickers[self.codes[i]]} "
                    f"{date.fromordinal(self.days[i].item())}")

        return (
            (~np.isfinite(self.x), non_finite),
            (~np.isfinite(self.target), non_finite),
            (~(self.x[:, :3] > 0.0), lambda i: "s_over_k, strike, and ttm_years must be positive"),
            (~(self.target > 0.0), lambda i: "target must be positive"),
        )

    @classmethod
    def of(cls, days, names, x, target) -> FeatureTable:
        """A table from day ordinals, each row's ticker, features and targets."""
        tickers, codes = _coded(names)
        x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, len(FEATURE_COLUMNS))
        return cls(np.asarray(days, dtype=np.int64), tickers, codes, x,
                   np.ascontiguousarray(target, dtype=np.float64))


@dataclass
class BuildResult:
    table: FeatureTable
    skipped: dict  # reason -> count


def _positions(keys, known) -> np.ndarray:
    """Index in ``known`` of each of ``keys`` (all >= 0), or -1 where a key is
    not known; a key known twice gets its last index, as in a dict built in order."""
    known = np.append(known, -1)  # below every key, so each key has a slot at or under it
    order = np.argsort(known, kind="stable")
    at = order[np.searchsorted(known[order], keys, side="right") - 1]
    return np.where(known[at] == keys, at, -1)


def _lookup(quotes, series) -> tuple:
    """(index of each quote's ticker and day among the points of ``series``,
    or -1; the points' values), ``series`` mapping ticker -> [(date, value)]."""
    code = {name: i for i, name in enumerate(quotes.tickers)}
    points = [((code[t] << 32) + d.toordinal(), v)
              for t, pts in series.items() if t in code for d, v in pts]
    keys = np.array([k for k, _ in points], dtype=np.int64)
    at = _positions((quotes.codes.astype(np.int64) << 32) + quotes.days, keys)
    return at, np.array([v for _, v in points], dtype=np.float64)


def build_features(quotes, underlying_series) -> BuildResult:
    """Join a quote table, its closes and rates attached, against underlying
    histories into a feature table.

    ``underlying_series`` maps ticker -> [(date, close), ...]; histories are
    sorted internally and must not repeat dates.  A quote is skipped (with a
    counted reason, never an exception) when its ticker has no series, when
    any standard vol window lacks history at the quote date, or when its mid
    is zero (a C/K target of 0 has no relative pricing error); each skipped
    quote counts under the first of these reasons that applies.  Quotes
    without a rate never get here: ``attach_market_data`` drops them.
    A row that ``FeatureTable.check`` rejects raises its error.
    """
    vols = {}
    for ticker, series in underlying_series.items():
        series = sorted(series, key=lambda p: p[0])
        dates = [d for d, _ in series]
        if len(set(dates)) != len(dates):
            raise ValueError(f"duplicate dates in underlying series for {ticker}")
        # a day has every standard window once the longest has its history
        full = slice(max(STANDARD_WINDOWS), None)
        vols[ticker] = list(zip(dates[full], rolling_vols([c for _, c in series])[full]))
    at, sigmas = _lookup(quotes, vols)
    no_series = np.array([t not in vols for t in quotes.tickers], dtype=bool)[quotes.codes]
    history = at >= 0
    mid = 0.5 * (quotes.bid + quotes.offer)
    keep = history & (mid != 0.0)
    skipped = {"no_underlying_series": no_series, "insufficient_history": ~no_series & ~history,
               "zero_mid": history & ~keep}

    q = quotes.take(keep)
    with np.errstate(all="ignore"):  # an overflow is caught as non-finite below
        strike = q.strike_price / 1000.0  # thousandths to currency units
        x = np.column_stack([q.close / strike, strike, (q.expiries - q.days) / DAYS_PER_YEAR,
                             q.rate, sigmas.reshape(-1, len(STANDARD_WINDOWS))[at[keep]]])
        target = mid[keep] / strike
    table = FeatureTable(q.days, q.tickers, q.codes, x, target)
    table.check()
    return BuildResult(table=table,
                       skipped={k: int(np.count_nonzero(m)) for k, m in skipped.items()})


# ---------------------------------------------------------------------------
# filters and splits


def filter_mask(s_over_k, ttm_years, rate, target):
    """(keep mask, drop counts) of the three standing exclusions, in a fixed
    precedence.

    1. maturity:  ttm_years < MIN_TTM_DAYS/365,
    2. moneyness: S/K outside [MONEYNESS_LO, MONEYNESS_HI],
    3. arbitrage: C < S - K e^{-r tau}, i.e. target < s_over_k - e^{-r tau}.

    Each dropped row is counted under the first reason that applies, so the
    counts plus the survivors always total the input.  Idempotent: filtering
    the survivors drops nothing.  The bound takes ``math.exp`` once per
    distinct -r*tau of the rows the first two reasons keep, so every decision
    is the scalar rule's; an exponent too large for ``math.exp`` takes the
    limit, an infinite discount, so its bound is -inf and drops nothing.
    """
    short = ttm_years < MIN_TTM_DAYS / DAYS_PER_YEAR
    outside = ~short & ~((MONEYNESS_LO <= s_over_k) & (s_over_k <= MONEYNESS_HI))
    rest = np.flatnonzero(~(short | outside))
    exponents, inverse = np.unique(-rate[rest] * ttm_years[rest], return_inverse=True)
    discount = np.array([_discount(v) for v in exponents.tolist()], dtype=np.float64)
    arbitrage = np.zeros_like(short)
    arbitrage[rest] = target[rest] < s_over_k[rest] - discount[inverse]
    dropped = {"maturity": short, "moneyness": outside, "arbitrage": arbitrage}
    counts = {reason: int(np.count_nonzero(m)) for reason, m in dropped.items()}
    return ~(short | outside | arbitrage), counts


def _discount(exponent: float) -> float:
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


@dataclass
class DatasetSplit:
    """The three parts, as arrays of row indices (see ``split_indices``)."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def split_indices(days) -> DatasetSplit:
    """70/15/15 by day: floor(0.70 N) train, floor(0.15 N) val, rest test,
    as row indices into ``days``.

    The sort is stable, so rows sharing a day keep their input order.  Every
    training day is <= every validation day <= every test day.  Needs at
    least 10 rows (otherwise a split would be empty).
    """
    days = np.asarray(days, dtype=np.int64)
    n = days.shape[0]
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    order = np.argsort(days, kind="stable")
    # integer arithmetic: floor(0.70 n) exactly, immune to 0.7*n rounding down
    n_train = (70 * n) // 100
    n_val = (15 * n) // 100
    return DatasetSplit(
        train=order[:n_train], val=order[n_train : n_train + n_val], test=order[n_train + n_val :]
    )


@dataclass(frozen=True, eq=False)
class SequenceWindows:
    """Sequence windows as row indices: window i is
    ``rows[starts[i] : starts[i] + timesteps]``.

    Each row of ``rows`` [N, F] is held once, where the [M, T, F] array of
    the windows holds it up to T times.  Indexing with a slice or an index
    array gathers those windows as a C-contiguous [b, T, F] array: the floats
    of the same windows of that array.  ``shape`` is that array's shape, so
    ``fit_scaler``, ``train`` and ``Model.predict`` index windows as they
    index that array, one batch at a time.
    """

    rows: np.ndarray
    starts: np.ndarray
    timesteps: int

    @property
    def shape(self) -> tuple:
        return (self.starts.shape[0], self.timesteps, self.rows.shape[1])

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __getitem__(self, idx) -> np.ndarray:
        rows, t = self.rows, self.timesteps
        # entry s of this read-only view is the window that starts at row s,
        # so one fancy index gathers whole windows, faster than indexing the
        # rows with a [b, T] array of row numbers
        view = np.lib.stride_tricks.as_strided(
            rows, (max(rows.shape[0] - t + 1, 0), t, rows.shape[1]),
            (rows.strides[0],) + rows.strides, writeable=False)
        starts = self.starts[idx]
        out = view[starts]
        return out if np.ndim(starts) else out.copy()  # an integer index gives a view


_WINDOW_LAGS = {"overlapping": 0, "causal": 1}


def sequence_windows(table, mode: str, timesteps: int, name: str):
    """The sequence windows of split ``name``, a day-sorted feature table.

    The window rule: a ticker's window i covers its rows i .. i+T-1 and is
    scored on its row i+T-1+lag, where lag is 0 for "overlapping" windows
    (the target is the last window row) and 1 for "causal" ones (the target
    is the ticker's next row after its window).  A ticker with n rows gives
    n - T + 1 - lag windows, and none when that is not positive.

    Returns (inputs as ``SequenceWindows`` [M, T, F] over the split's rows
    put ticker-major, targets [M], target rows as a table), tickers in name
    order and each ticker's windows in day order.
    """
    if mode not in _WINDOW_LAGS:
        raise ValueError(f"window mode must be one of {sorted(_WINDOW_LAGS)}, got {mode!r}")
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    need = timesteps + _WINDOW_LAGS[mode]  # the rows a ticker needs for one window
    counts = np.bincount(table.codes, minlength=len(table.tickers))
    longest = counts.max(initial=0)
    if longest < need:
        raise ValueError(
            f"{name} split: no ticker has enough rows for {timesteps}-step {mode} windows "
            f"(the longest ticker has {longest} rows, {need} are needed)"
        )
    order = np.argsort(table.codes, kind="stable")  # ticker-major, each ticker by day
    starts = np.concatenate([np.arange(end - count, end - need + 1)  # empty when count < need
                             for end, count in zip(np.cumsum(counts).tolist(), counts.tolist())])
    scored = table.take(order[starts + need - 1])  # the window at row s is scored on s+T-1+lag
    return SequenceWindows(table.x[order], starts, timesteps), scored.target, scored


# ---------------------------------------------------------------------------
# synthetic market


@dataclass(frozen=True)
class TickerConfig:
    name: str
    s0: float
    vol: float
    drift: float = 0.0

    def __post_init__(self):
        if self.s0 <= 0.0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if self.vol < 0.0:
            raise ValueError(f"vol must be non-negative, got {self.vol}")


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic market generator.

    Underlyings follow geometric Brownian paths sampled once per calendar day
    with dt = 1/252, so sqrt(252)-annualised realized vol tracks the
    configured vol.  Quotes appear on ``n_quote_days`` consecutive days from
    ``start``; each day crosses the strike multipliers (K = multiplier * S_t,
    stored in thousandths) with the expiry offsets.  Mids are closed-form
    prices, perturbed multiplicatively by +-noise, then spread into bid/offer
    by the relative half-spread (the mid round-trips exactly).

    ``pricing_vol`` chooses the vol used to price quotes: "gbm" uses each
    ticker's configured vol; "realized:<w>" uses the window-w realized vol of
    the simulated closes as of the quote date, which makes quotes an exact
    function of the published features.
    """

    tickers: tuple[TickerConfig, ...]
    start: date
    n_quote_days: int
    strike_multipliers: tuple[float, ...]
    expiry_days: tuple[int, ...]
    warmup_days: int = 120
    rate: float = 0.03
    rate_walk_std: float = 0.0
    half_spread: float = 0.0
    noise: float = 0.0
    pricing_vol: str = "gbm"

    def __post_init__(self):
        for name in ("tickers", "strike_multipliers", "expiry_days"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.tickers:
            raise ValueError("need at least one ticker")
        if self.n_quote_days < 1:
            raise ValueError(f"n_quote_days must be >= 1, got {self.n_quote_days}")
        if not self.strike_multipliers:
            raise ValueError("strike grid is empty")
        if any(m <= 0.0 for m in self.strike_multipliers):
            raise ValueError("strike multipliers must be positive")
        if not self.expiry_days:
            raise ValueError("expiry grid is empty")
        if any(d < 1 for d in self.expiry_days):
            raise ValueError("expiry offsets must be >= 1 day")
        limit = csv.field_size_limit()  # no read of the CSVs could parse a longer name
        for i, tk in enumerate(self.tickers):
            if len(tk.name) > limit:
                raise ValueError(f"tickers[{i}].name {tk.name[:20]!r}... is longer than"
                                 f" the CSV field limit ({limit})")
        # a repeated key would write a quote row twice, or two paths under one name
        for key, values in (("tickers[{}].name", [tk.name for tk in self.tickers]),
                            ("strike_multipliers[{}]", self.strike_multipliers),
                            ("expiry_days[{}]", self.expiry_days)):
            first = {}
            for i, v in enumerate(values):
                if v in first:
                    raise ValueError(f"{key.format(i)} {v!r} repeats {key.format(first[v])}")
                first[v] = i
        if self.warmup_days < max(STANDARD_WINDOWS):
            raise ValueError(
                f"warmup_days must cover the longest vol window "
                f"({max(STANDARD_WINDOWS)}), got {self.warmup_days}"
            )
        # every day of the market, from the first warm-up close to the last
        # expiry, must be a date; ordinals check that before any draw
        if self.start.toordinal() - self.warmup_days < date.min.toordinal():
            raise ValueError(f"start {self.start} minus warmup_days {self.warmup_days} "
                             f"falls before {date.min}")
        longest = max(self.expiry_days)
        if self.start.toordinal() + self.n_quote_days - 1 + longest > date.max.toordinal():
            raise ValueError(
                f"start {self.start} plus n_quote_days {self.n_quote_days} - 1 plus "
                f"expiry_days[{self.expiry_days.index(longest)}] {longest} falls after {date.max}"
            )
        if self.rate_walk_std < 0.0:
            raise ValueError(f"rate_walk_std must be >= 0, got {self.rate_walk_std}")
        if not (0.0 <= self.half_spread < 1.0):
            raise ValueError(f"half_spread must be in [0, 1), got {self.half_spread}")
        if not (0.0 <= self.noise < 1.0):
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")
        if self.pricing_vol != "gbm":
            head, _, w = self.pricing_vol.partition(":")
            try:
                w = int(w) if head == "realized" else None
            except ValueError:
                w = None
            if w is None:
                raise ValueError(
                    "pricing_vol must be 'gbm' or 'realized:<window>', "
                    f"got {self.pricing_vol!r}"
                )
            if w < 2 or w > self.warmup_days:
                raise ValueError(
                    f"realized pricing window {w} must be in [2, warmup_days]"
                )


@dataclass
class SyntheticData:
    quotes: QuoteTable  # closes and rates joined
    underlying: dict  # ticker -> [(date, close)]
    rates: dict  # date -> rate


def generate_synthetic_dataset(cfg: SynthConfig, seed: int) -> SyntheticData:
    """Simulate paths, rates, and quotes; deterministic for a fixed seed.

    Quote count is len(tickers) * n_quote_days * len(strike_multipliers)
    * len(expiry_days).  Draw order is fixed (paths per ticker in config
    order, then the rate walk, then per-quote noise in ticker/date/strike/
    expiry order), so identical seeds give identical datasets.

    The whole quote grid is priced in one pass: one ``rolling_vols`` call per
    ticker for realized pricing, one ``call_price_grid`` call over
    [ticker, day, strike, expiry] and one noise draw of all quotes at once,
    which yields the same stream, hence the same bytes, as a draw per quote.
    The quote table's columns are those arrays, raveled in that order.
    """
    rng = np.random.default_rng(seed)
    total_days = cfg.warmup_days + cfg.n_quote_days
    first_day = cfg.start - timedelta(days=cfg.warmup_days)
    all_dates = [first_day + timedelta(days=i) for i in range(total_days)]

    dt = 1.0 / 252.0
    underlying = {}
    closes_arr = {}
    for i, tk in enumerate(cfg.tickers):
        z = rng.standard_normal(total_days - 1)
        # vol * vol, not vol**2: a float power raises OverflowError, a product is inf
        increments = (tk.drift - 0.5 * tk.vol * tk.vol) * dt + tk.vol * math.sqrt(dt) * z
        log_growth = np.concatenate([[0.0], np.cumsum(increments)])
        with np.errstate(over="ignore", under="ignore"):
            closes = tk.s0 * np.exp(log_growth)  # exp(0) = 1, so closes[0] == s0
        in_range = (closes > 0.0) & np.isfinite(closes)
        if not in_range.all():
            k = int(np.argmin(in_range))
            raise ValueError(
                f"tickers[{i}].vol {tk.vol} with drift {tk.drift} and s0 {tk.s0} "
                f"{'underflows' if closes[k] == 0.0 else 'overflows'} the simulated "
                f"spot of {tk.name!r} to {closes[k]} on {all_dates[k]}"
            )
        closes_arr[tk.name] = closes
        underlying[tk.name] = list(zip(all_dates, closes.tolist()))

    if cfg.rate_walk_std > 0.0:
        steps = rng.normal(0.0, cfg.rate_walk_std, size=total_days - 1)
        walk = cfg.rate + np.concatenate([[0.0], np.cumsum(steps)])
        walk = np.clip(walk, 0.0, 0.25)
    else:
        walk = np.full(total_days, cfg.rate)
    rates = dict(zip(all_dates, walk.tolist()))

    # [tickers, quote days] spot and sigma, [quote days] rate; broadcast
    # against strikes and expiries in C order (ticker, day, strike, expiry)
    quoted = slice(cfg.warmup_days, None)
    spot = np.stack([closes_arr[tk.name][quoted] for tk in cfg.tickers])[:, :, None, None]
    if cfg.pricing_vol.startswith("realized:"):
        w = int(cfg.pricing_vol.split(":", 1)[1])
        sigma = np.stack([rolling_vols(closes_arr[tk.name], windows=(w,))[quoted, 0]
                          for tk in cfg.tickers])
    else:
        sigma = np.array([[tk.vol] for tk in cfg.tickers])
    ttm = np.asarray(cfg.expiry_days, dtype=np.float64) / DAYS_PER_YEAR
    rate = walk[quoted][:, None, None]
    grid = (len(cfg.tickers), cfg.n_quote_days, len(cfg.strike_multipliers), ttm.size)

    def column(a):
        return np.broadcast_to(a, grid).ravel()

    tickers, codes = _coded([tk.name for tk in cfg.tickers])
    days = cfg.start.toordinal() + np.arange(cfg.n_quote_days)[:, None, None]
    with np.errstate(all="ignore"):  # a non-finite quote is refused below
        strike = np.asarray(cfg.strike_multipliers, dtype=np.float64)[:, None] * spot
        mid = call_price_grid(spot, strike, rate, sigma[:, :, None, None], ttm).ravel()
        if cfg.noise > 0.0:
            mid = mid * (1.0 + rng.uniform(-cfg.noise, cfg.noise, size=mid.size))
        quotes = QuoteTable(
            column(days), column(days + np.asarray(cfg.expiry_days)), tickers,
            column(codes[:, None, None, None]), mid * (1.0 - cfg.half_spread),
            mid * (1.0 + cfg.half_spread), column(strike * 1000.0), column(spot), column(rate),
        )
    # prepare reads finite prices only, so synth writes no other
    for name in ("strike_price", "bid", "offer"):
        finite = np.isfinite(getattr(quotes, name))
        if not finite.all():
            i = int(np.argmin(finite))
            t, _, j, k = np.unravel_index(i, grid)
            raise ValueError(
                f"the {name} of {cfg.tickers[t].name!r} on "
                f"{date.fromordinal(quotes.days[i].item())} at strike_multipliers[{j}] and "
                f"expiry_days[{k}] is {getattr(quotes, name)[i]}, not a finite number"
            )
    quotes.check()
    return SyntheticData(quotes=quotes, underlying=underlying, rates=rates)


# ---------------------------------------------------------------------------
# CSV round trips (repr formatting, so floats survive exactly)


def _fmt(x: float) -> str:
    return repr(float(x))  # under numpy 2, repr(np.float64(x)) is 'np.float64(x)'


def _iso(day: int) -> str:
    return date.fromordinal(day).isoformat()


_QUOTES_HEADER = ["quote_date", "expiry_date", "ticker", "best_bid", "best_offer", "strike_price"]
_UNDERLYING_HEADER = ["date", "ticker", "close"]
_RATES_HEADER = ["date", "rate"]
_FEATURES_HEADER = ["quote_date", "ticker", *FEATURE_COLUMNS, "target"]
_CHUNK_LINES = 512  # rows per chunk: a chunk's rows and texts stay cache-sized


@dataclass(frozen=True)
class _Floats:
    """A float column's parser: ``parse`` one text at a time, or builtin
    ``float`` over a whole chunk, kept when ``accept`` (the check that
    ``parse`` makes, over an array) holds for every value; None accepts any
    float."""

    parse: Callable
    accept: Callable | None = None


def _read_columns(path, what: str, header: list, parsers, table=None, key=()):
    """The columns of the CSV at ``path``, each parsed by its entry of
    ``parsers``, as ``table(*columns)`` when ``table`` is given.

    The header must be exactly ``header``, every row must have one field per
    column, no row may repeat the values of the ``key`` columns of an earlier
    row, and the table's ``check`` must pass (it raises the error of the first
    row that it rejects).  A leading UTF-8 byte-order
    mark is dropped; a byte that UTF-8 does not decode is an error of its
    field.  An error names the file and the line (as ``csv.reader`` counts
    lines) of the first row that is wrong, and within a row the first wrong
    field.

    Rows are read in chunks of ``_CHUNK_LINES``.  A column's chunk is either
    walked, its parser called once per text that no earlier walk met, or, for
    a ``_Floats`` column, parsed in bulk: builtin ``float`` of every text into
    one array, kept when its ``accept`` check passes.  A column's first chunk
    is walked; the column goes bulk after a walked chunk whose texts were more
    than half new, and then stays bulk.  A bulk pass that raises or fails its
    check walks the chunk instead, so every value and error is the walk's.
    A ``_Floats`` column comes back as a float64 array.

    A features CSV with a current image is not parsed (see
    ``read_feature_table``), so a new rejection here that a CSV written by
    ``write_features_csv`` could meet must be refused by that writer too.
    """
    floats = [isinstance(parse, _Floats) for parse in parsers]
    walks = [parse.parse if f else parse for parse, f in zip(parsers, floats)]
    memos, bulk, error = {parse: {} for parse in walks}, [False] * len(header), None
    columns, lines = [[np.empty(0)] if f else [] for f in floats], []
    # utf-8-sig drops a leading byte-order mark (no line number moves), and
    # surrogateescape keeps each byte that is not UTF-8 as a lone surrogate in its field
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                for text in got or ():
                    _utf8(text)
        except (csv.Error, ValueError) as exc:  # an overlong field, or a byte that is not UTF-8
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        if got != header:
            raise ValueError(f"{path}: {what} header must be {','.join(header)}, got {got}")
        start = reader.line_num
        while error is None:
            block, broken = [], None
            try:  # the rows before a csv.Error are kept, and come before it
                block.extend(itertools.islice(reader, _CHUNK_LINES))
            except csv.Error as exc:
                broken = exc
            if not block and broken is None:
                break
            ends = len(block) + (broken is not None)
            at = range(start + 1, reader.line_num + 1)
            if len(at) != ends:  # a quoted field holds a line break
                at = [*itertools.accumulate((1 + _line_breaks(row) for row in block[: ends - 1]),
                                            initial=start)][1:] + [reader.line_num]
            start = reader.line_num
            good, error = len(block), broken
            if set(map(len, block)) - {len(header)}:
                good = next(i for i, row in enumerate(block) if len(row) != len(header))
                error = f"{what} row has {len(block[good])} fields, expected {len(header)}"
            texts = list(zip(*block[:good])) or [()] * len(header)
            parsed = []
            for j, (column, parse) in enumerate(zip(texts, parsers)):
                values = _bulk(column, parse.accept) if bulk[j] else None
                if values is None:
                    new, failed = _walk(column, walks[j], memos[walks[j]])
                    if failed is not None and failed[0] < good:
                        good, error = failed
                    bulk[j] = floats[j] and 2 * new > len(column)
                parsed.append(values)
            for j, (column, values) in enumerate(zip(texts, parsed)):
                if values is None:
                    values = map(memos[walks[j]].__getitem__, column[:good])
                    if floats[j]:
                        values = np.fromiter(values, np.float64, good)
                if floats[j]:
                    columns[j].append(values[:good])
                else:
                    columns[j] += values
            lines += at[: good + 1]  # with the line of the error, if any
    columns = [np.concatenate(c) if f else c for c, f in zip(columns, floats)]
    if table is None:  # Python floats, as a walk gives them
        columns = [c.tolist() if f else c for c, f in zip(columns, floats)]
    # the rows read all come before that error, so a row they fail is named first
    out, first = table(*columns) if table else columns, len(columns[0])
    try:
        if table:
            out.check()
    except ValueError as exc:
        first, error = np.flatnonzero(out.rejected())[0], exc
    seen = {}
    for i, k in zip(range(first), zip(*(columns[j] for j in key))):
        if k in seen:
            first, error = i, (f"{what} row repeats the {' and '.join(header[j] for j in key)}"
                               f" of line {seen[k]}")
            break
        seen[k] = lines[i]
    if error is not None:
        raise ValueError(f"{path}: line {lines[first]}: {error}")
    return out


def _walk(column, parse, memo) -> tuple:
    """Parse each distinct text of ``column`` that ``memo`` lacks into it.
    Returns (how many texts were new, and the row and error of the first
    text that is not UTF-8 or that ``parse`` rejects, or None)."""
    new, failed = set(column).difference(memo), None
    for text in new:
        try:
            if not text.isascii():
                _utf8(text)
            memo[text] = parse(text)
        except ValueError as exc:
            row = column.index(text)
            if failed is None or row < failed[0]:
                failed = row, exc
    return len(new), failed


def _bulk(column, accept):
    """Builtin ``float`` of every text of ``column`` as a float64 array, or
    None when a text does not parse or a value fails ``accept``."""
    try:
        values = np.fromiter(map(float, column), np.float64, len(column))
    except ValueError:
        return None
    return values if accept is None or accept(values).all() else None


def _utf8(text: str) -> None:
    """Raise ValueError when ``text`` holds a byte that UTF-8 did not decode."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise ValueError(f"not UTF-8 text (byte 0x{ord(text[exc.start]) - 0xdc00:02x})") from None


def _line_breaks(row) -> int:
    """The line breaks inside a row's fields: each makes the row one line
    longer to ``csv.reader``, but for one that ends the file."""
    return sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)


def _number(text: str) -> float:
    """A finite float from a raw-data CSV field."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _close(text: str) -> float:
    value = _number(text)
    if value <= 0.0:
        raise ValueError(f"close must be positive, got {text!r}")
    return value


def _positive(values) -> np.ndarray:
    """``_close``'s check over an array of floats."""
    return np.isfinite(values) & (values > 0.0)


def _ordinal(text: str) -> int:
    return date.fromisoformat(text).toordinal()


def _formatted(column, fmt) -> list:
    """``fmt`` of every entry of an int64 or float64 column, called once per
    distinct bit pattern (so -0.0 and 0.0 keep their own text)."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = [fmt(v) for v in distinct.view(column.dtype).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _csv_text(text: str) -> str:
    r"""``text`` as one field of a CSV row of two or more fields, quoted exactly
    when the ``csv`` module's default (excel) dialect quotes it: when it holds a
    comma, a double quote, ``\r`` or ``\n``.  The LF-ended CSVs use the same
    rule, since ``csv.reader`` also ends a row at an unquoted lone ``\r``."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _ticker_column(tickers, codes) -> list:
    """The CSV field of each row's ticker, quoted once per name."""
    return np.array([_csv_text(t) for t in tickers], dtype=object)[codes].tolist()


def _write_rows(path, header: list, rows) -> None:
    """Write the header and ``rows``, each a sequence of formatted fields, as
    the ``csv`` module's excel dialect writes them: comma-joined, CRLF-ended."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def write_quotes_csv(quotes, path) -> None:
    _write_rows(path, _QUOTES_HEADER, zip(
        _formatted(quotes.days, _iso),
        _formatted(quotes.expiries, _iso),
        _ticker_column(quotes.tickers, quotes.codes),
        *(_formatted(c, repr) for c in (quotes.bid, quotes.offer, quotes.strike_price)),
    ))


def read_quotes_csv(path) -> QuoteTable:
    """The quotes CSV at ``path`` as a table, each quote checked by
    ``QuoteTable.check``."""
    parsers = (_ordinal, _ordinal, str, *[_Floats(_number, np.isfinite)] * 3)
    return _read_columns(path, "quotes", _QUOTES_HEADER, parsers, QuoteTable.of)


def write_underlying_csv(underlying, path) -> None:
    _write_rows(path, _UNDERLYING_HEADER, ((d.isoformat(), name, _fmt(close))
                                           for name, series in zip(map(_csv_text, underlying),
                                                                   underlying.values())
                                           for d, close in series))


def read_underlying_csv(path) -> dict:
    """{ticker: [(date, close), ...]} in file order; closes must be positive,
    and no (date, ticker) may repeat."""
    out: dict = {}
    columns = _read_columns(path, "underlying", _UNDERLYING_HEADER,
                            (date.fromisoformat, str, _Floats(_close, _positive)),
                            key=(0, 1))
    for day, ticker, close in zip(*columns):
        out.setdefault(ticker, []).append((day, close))
    for ticker, series in out.items():
        if len(series) < 2:  # no log return, so no realized vol
            raise ValueError(f"{path}: ticker {ticker!r} has {len(series)} close; need at least 2")
    return out


def write_rates_csv(rates, path) -> None:
    _write_rows(path, _RATES_HEADER, ((d.isoformat(), _fmt(rates[d])) for d in sorted(rates)))


def read_rates_csv(path) -> dict:
    """{date: rate}; no date may repeat."""
    parsers = (date.fromisoformat, _Floats(_number, np.isfinite))
    return dict(zip(*_read_columns(path, "rates", _RATES_HEADER, parsers, key=(0,))))


def attach_market_data(quotes, underlying, rates):
    """Join closes and rates onto a quote table, by (ticker, quote date) and
    by quote date.

    Returns (joined table, skipped), where skipped counts the quotes whose
    date is missing from their ticker's series or, of the rest, from the
    rate table.
    """
    at_close, closes = _lookup(quotes, underlying)
    at_rate = _positions(quotes.days, np.array([d.toordinal() for d in rates], dtype=np.int64))
    has_close = at_close >= 0
    keep = has_close & (at_rate >= 0)
    skipped = {"no_underlying_close": int(np.count_nonzero(~has_close)),
               "no_rate": int(np.count_nonzero(has_close & ~keep))}
    joined = replace(quotes.take(keep), close=closes[at_close[keep]],
                     rate=np.array(list(rates.values()), dtype=np.float64)[at_rate[keep]])
    return joined, skipped


def write_features_csv(table, path) -> None:
    """Write ``table`` as a features CSV at ``path``, and its image at
    ``<path>.table`` (see ``read_feature_table``).  A ticker longer than
    ``csv.field_size_limit()`` is refused before anything is written, since
    no read of the CSV could parse it."""
    limit = csv.field_size_limit()
    for c in np.unique(table.codes).tolist():
        if len(table.tickers[c]) > limit:
            raise ValueError(f"{path}: ticker {table.tickers[c][:20]!r}... is longer than"
                             f" the CSV field limit ({limit})")
    _write_rows(path, _FEATURES_HEADER, zip(
        _formatted(table.days, _iso),
        _ticker_column(table.tickers, table.codes),
        *(_formatted(c, repr) for c in (*table.x.T, table.target)),
    ))
    _write_image(table, path)


# The image of a features CSV, all integers little-endian:
#   "OLFTABLE" | u32 version | u64 rows N | u32 header length | header (JSON:
#   {"tickers": the sorted distinct names that occur}) | days i8[N] | codes
#   i8[N] | x f8[N*10], row-major | target f8[N] | SHA-256 of the CSV's bytes
#   followed by every image byte before it.
_IMAGE_MAGIC = b"OLFTABLE"
_IMAGE_VERSION = 1
_IMAGE_HEAD = struct.Struct("<8sIQI")
_DIGEST_SIZE = 32


def _image_path(path) -> str:
    return os.fspath(path) + ".table"


def _csv_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest


def _write_image(table, path) -> None:
    """Write the image of ``table``, which was just written as the CSV at
    ``path``: the table that parsing that CSV gives, so its tickers are the
    names that occur and its codes index them."""
    used = np.unique(table.codes)
    names = [table.tickers[c] for c in used.tolist()]
    tickers = sorted(set(names))
    recode = np.zeros(len(table.tickers), dtype="<i8")
    recode[used] = [tickers.index(name) for name in names]
    header = json.dumps({"tickers": tickers}).encode()
    parts = (_IMAGE_HEAD.pack(_IMAGE_MAGIC, _IMAGE_VERSION, len(table), len(header)), header,
             table.days.astype("<i8"), recode[table.codes],
             np.ascontiguousarray(table.x, dtype="<f8"),
             np.ascontiguousarray(table.target, dtype="<f8"))
    digest = _csv_digest(path)  # from the file, so no second copy of the text is held
    with open(_image_path(path), "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def _load_image(path) -> FeatureTable | None:
    """The table in the image of the CSV at ``path``, or None when the image
    is missing, is not of the CSV's current bytes, or is malformed.  Every
    read is bounds-checked, and the table is checked as the parsed one is."""
    try:
        with open(_image_path(path), "rb") as fh:
            blob = fh.read()
        digest = _csv_digest(path)
    except OSError:
        return None
    if len(blob) < _IMAGE_HEAD.size + _DIGEST_SIZE:
        return None
    magic, version, n, header_len = _IMAGE_HEAD.unpack_from(blob)
    width = len(FEATURE_COLUMNS)
    start = _IMAGE_HEAD.size + header_len
    body = memoryview(blob)[: len(blob) - _DIGEST_SIZE]
    if ((magic, version) != (_IMAGE_MAGIC, _IMAGE_VERSION)
            or len(body) != start + 8 * n * (width + 3)):
        return None
    digest.update(body)
    if digest.digest() != blob[len(body):]:
        return None
    try:
        header = json.loads(bytes(body[_IMAGE_HEAD.size:start]))
    except ValueError:
        return None
    tickers = header.get("tickers") if isinstance(header, dict) else None
    if (not isinstance(tickers, list) or not all(isinstance(t, str) for t in tickers)
            or tickers != sorted(set(tickers))):
        return None
    ints = np.frombuffer(body[start : start + 16 * n], dtype="<i8")
    floats = np.frombuffer(body[start + 16 * n :], dtype="<f8")
    codes = ints[n:].astype(np.intp)
    # every code indexes the names, and every name has a row, as parsing gives
    if n and (codes.min() < 0 or codes.max() >= len(tickers)):
        return None
    if not np.bincount(codes, minlength=len(tickers)).all():
        return None
    table = FeatureTable(ints[:n].astype(np.int64), tuple(tickers), codes,
                         floats[: width * n].reshape(n, width).astype(np.float64),
                         floats[width * n :].astype(np.float64))
    try:
        table.check()
    except ValueError:
        return None  # parsing names the file and line of the row
    return table


def read_feature_table(path) -> FeatureTable:
    """The features CSV at ``path`` as a table; the header must be exactly the
    one ``write_features_csv`` writes, and every row is checked by
    ``FeatureTable.check``.

    The CSV is the source of truth.  When ``<path>.table``, the image that
    ``write_features_csv`` writes beside it, carries the digest of the CSV's
    current bytes, the table is loaded from it: the same table, without the
    parse.  Otherwise, or if the image has any defect, the CSV is parsed.
    """
    loaded = _load_image(path)
    if loaded is not None:
        return loaded

    def table(days, names, *values):
        return FeatureTable.of(days, names, np.column_stack(values[:-1]), values[-1])

    parsers = (_ordinal, str, *[_Floats(float)] * (len(FEATURE_COLUMNS) + 1))
    return _read_columns(path, "features", _FEATURES_HEADER, parsers, table)
