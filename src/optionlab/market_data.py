"""Quote ingestion, feature engineering, filtering, splits, and synthesis.

The learning problem downstream is: predict C/K (option mid over strike) from
ten features: S/K, K, time to expiry in years, the risk-free rate, and six
backward-looking realized-vol estimates of the underlying.  This module turns
raw quote/underlying/rate tables into that representation, applies the
standing row filters, produces chronological splits and sequence windows, and
can generate a synthetic market with the same schema for end-to-end checks.

Conventions fixed here: strikes arrive in thousandths of a currency unit;
calendar maturities use a 365-day year; vol annualisation uses 252 trading
days (see vol.py); splits are 70/15/15 by time with floors on the first two.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
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
    "QuoteRecord",
    "OptionQuote",
    "FeatureRow",
    "BuildResult",
    "FilterResult",
    "DatasetSplit",
    "SequenceBatch",
    "TickerConfig",
    "SynthConfig",
    "SyntheticData",
    "mid_price",
    "normalize_strike",
    "classify_moneyness",
    "build_features",
    "filter_rows",
    "split_chronological",
    "feature_matrix",
    "windows_overlapping",
    "windows_causal",
    "generate_synthetic_dataset",
    "attach_market_data",
    "read_quotes_csv",
    "write_quotes_csv",
    "read_underlying_csv",
    "write_underlying_csv",
    "read_rates_csv",
    "write_rates_csv",
    "read_features_csv",
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


@dataclass(frozen=True)
class QuoteRecord:
    """One raw quote row, before the underlying close and rate are joined on."""

    quote_date: date
    expiry_date: date
    ticker: str
    best_bid: float
    best_offer: float
    strike_price: float  # thousandths of a currency unit

    def __post_init__(self):
        if self.best_bid < 0.0 or self.best_offer < 0.0:
            raise ValueError(
                f"negative quote: bid={self.best_bid}, offer={self.best_offer}"
            )
        if self.best_offer < self.best_bid:
            raise ValueError(
                f"crossed quote: bid {self.best_bid} > offer {self.best_offer}"
            )
        if self.strike_price <= 0.0:
            raise ValueError(f"strike_price must be positive, got {self.strike_price}")
        if self.expiry_date <= self.quote_date:
            raise ValueError(
                f"expiry {self.expiry_date} not after quote date {self.quote_date}"
            )


@dataclass(frozen=True)
class OptionQuote(QuoteRecord):
    """A quote with its market context attached."""

    underlying_close: float = 0.0
    risk_free_rate: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.underlying_close <= 0.0:
            raise ValueError(
                f"underlying_close must be positive, got {self.underlying_close}"
            )
        if not math.isfinite(self.risk_free_rate):
            raise ValueError("risk_free_rate must be finite")


def mid_price(q) -> float:
    """(bid + offer) / 2."""
    if q.best_bid < 0.0 or q.best_offer < 0.0:
        raise ValueError("negative bid or offer")
    return 0.5 * (q.best_bid + q.best_offer)


def normalize_strike(strike_price: float) -> float:
    """Raw thousandths to currency units: K = strike_price / 1000."""
    if strike_price <= 0.0:
        raise ValueError(f"strike_price must be positive, got {strike_price}")
    return strike_price / 1000.0


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


# ---------------------------------------------------------------------------
# feature rows


@dataclass
class FeatureRow:
    """One model-ready observation: ten features, the C/K target, identifiers."""

    quote_date: date
    ticker: str
    s_over_k: float
    strike: float
    ttm_years: float
    rate: float
    sigmas: dict  # {window_days: annualised realized vol}
    target: float

    def __post_init__(self):
        values = [self.s_over_k, self.strike, self.ttm_years, self.rate, self.target]
        values += list(self.sigmas.values())
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite feature row for {self.ticker} {self.quote_date}")
        if self.s_over_k <= 0.0 or self.strike <= 0.0 or self.ttm_years <= 0.0:
            raise ValueError("s_over_k, strike, and ttm_years must be positive")

    def features(self):
        """The ten features, in FEATURE_COLUMNS order."""
        base = [self.s_over_k, self.strike, self.ttm_years, self.rate]
        return base + [self.sigmas[w] for w in STANDARD_WINDOWS]

    def moneyness(self) -> MoneynessCategory:
        return classify_moneyness(self.s_over_k)


@dataclass
class BuildResult:
    rows: list
    skipped: dict  # reason -> count


def build_features(quotes, underlying_series, rate_series=None) -> BuildResult:
    """Join quotes against underlying histories and emit feature rows.

    ``underlying_series`` maps ticker -> [(date, close), ...]; histories are
    sorted internally and must not repeat dates.  A quote is skipped (with a
    counted reason, never an exception) when its ticker has no series, when
    any standard vol window lacks history at the quote date, if
    ``rate_series`` is given, when the quote date is missing from it, or
    when its mid is zero (a C/K target of 0 has no relative pricing error).
    """
    per_ticker_vols = {}
    for ticker, series in underlying_series.items():
        series = sorted(series, key=lambda p: p[0])
        dates = [d for d, _ in series]
        if len(set(dates)) != len(dates):
            raise ValueError(f"duplicate dates in underlying series for {ticker}")
        closes = [c for _, c in series]
        per_ticker_vols[ticker] = rolling_vols(closes, dates=dates)

    rows = []
    skipped = {"no_underlying_series": 0, "insufficient_history": 0, "no_rate": 0, "zero_mid": 0}
    for q in quotes:
        if q.ticker not in per_ticker_vols:
            skipped["no_underlying_series"] += 1
            continue
        estimates = per_ticker_vols[q.ticker].get(q.quote_date, {})
        if any(w not in estimates for w in STANDARD_WINDOWS):
            skipped["insufficient_history"] += 1
            continue
        if rate_series is not None and q.quote_date not in rate_series:
            skipped["no_rate"] += 1
            continue
        mid = mid_price(q)
        if mid == 0.0:
            skipped["zero_mid"] += 1
            continue
        strike = normalize_strike(q.strike_price)
        ttm = (q.expiry_date - q.quote_date).days / DAYS_PER_YEAR
        rows.append(
            FeatureRow(
                quote_date=q.quote_date,
                ticker=q.ticker,
                s_over_k=q.underlying_close / strike,
                strike=strike,
                ttm_years=ttm,
                rate=q.risk_free_rate,
                sigmas={w: estimates[w].value for w in STANDARD_WINDOWS},
                target=mid / strike,
            )
        )
    return BuildResult(rows=rows, skipped=skipped)


# ---------------------------------------------------------------------------
# filters and splits


@dataclass
class FilterResult:
    rows: list
    dropped: dict  # {"maturity": n, "moneyness": n, "arbitrage": n}


def filter_rows(rows) -> FilterResult:
    """Apply the three standing exclusions, in a fixed precedence.

    1. maturity:  ttm_years < MIN_TTM_DAYS/365,
    2. moneyness: S/K outside [MONEYNESS_LO, MONEYNESS_HI],
    3. arbitrage: C < S - K e^{-r tau}, i.e. target < s_over_k - e^{-r tau}.

    Each dropped row is counted under the first reason that applies, so the
    counts plus the survivors always total the input.  Idempotent: running the
    filter on its own output drops nothing.
    """
    min_ttm = MIN_TTM_DAYS / DAYS_PER_YEAR
    kept = []
    dropped = {"maturity": 0, "moneyness": 0, "arbitrage": 0}
    for row in rows:
        if row.ttm_years < min_ttm:
            dropped["maturity"] += 1
        elif not (MONEYNESS_LO <= row.s_over_k <= MONEYNESS_HI):
            dropped["moneyness"] += 1
        elif row.target < row.s_over_k - math.exp(-row.rate * row.ttm_years):
            dropped["arbitrage"] += 1
        else:
            kept.append(row)
    return FilterResult(rows=kept, dropped=dropped)


@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list


def split_chronological(rows) -> DatasetSplit:
    """70/15/15 by quote date: floor(0.70 N) train, floor(0.15 N) val, rest test.

    The sort is stable, so rows sharing a date keep their input order.  Every
    training date is <= every validation date <= every test date.  Needs at
    least 10 rows (otherwise a split would be empty).
    """
    rows = sorted(rows, key=lambda r: r.quote_date)
    n = len(rows)
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    # integer arithmetic: floor(0.70 n) exactly, immune to 0.7*n rounding down
    n_train = (70 * n) // 100
    n_val = (15 * n) // 100
    return DatasetSplit(
        train=rows[:n_train],
        val=rows[n_train : n_train + n_val],
        test=rows[n_train + n_val :],
    )


def feature_matrix(rows):
    """Rows to (X [N, 10], y [N]) in FEATURE_COLUMNS order."""
    x = np.array([r.features() for r in rows], dtype=np.float64)
    y = np.array([r.target for r in rows], dtype=np.float64)
    return x, y


@dataclass
class SequenceBatch:
    inputs: np.ndarray  # [windows, timesteps, features]
    targets: np.ndarray  # [windows]


def windows_overlapping(x, y, timesteps: int) -> SequenceBatch:
    """Every contiguous window, target aligned to the window's last row.

    N rows give N - T + 1 windows; window i covers rows i .. i+T-1 and is
    paired with y[i+T-1].  The window therefore includes the row being
    predicted (a smoothing representation, not a forecasting one).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if n < timesteps:
        raise ValueError(f"need at least {timesteps} rows, got {n}")
    if y.shape[0] != n:
        raise ValueError(f"targets length {y.shape[0]} != rows {n}")
    idx = np.arange(n - timesteps + 1)[:, None] + np.arange(timesteps)[None, :]
    return SequenceBatch(inputs=x[idx].copy(), targets=y[timesteps - 1 :].copy())


def windows_causal(x, y, timesteps: int) -> SequenceBatch:
    """Strictly-past windows: window i covers rows i .. i+T-1, target y[i+T].

    N rows give N - T windows.  Every input row in a window predates its
    target row, so the representation never looks ahead.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if n <= timesteps:
        raise ValueError(f"need more than {timesteps} rows, got {n}")
    if y.shape[0] != n:
        raise ValueError(f"targets length {y.shape[0]} != rows {n}")
    idx = np.arange(n - timesteps)[:, None] + np.arange(timesteps)[None, :]
    return SequenceBatch(inputs=x[idx].copy(), targets=y[timesteps:].copy())


# ---------------------------------------------------------------------------
# synthetic market


@dataclass(frozen=True)
class TickerConfig:
    name: str
    s0: float
    drift: float
    vol: float

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

    tickers: tuple
    start: date
    n_quote_days: int
    strike_multipliers: tuple
    expiry_days: tuple
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
        if self.warmup_days < max(STANDARD_WINDOWS):
            raise ValueError(
                f"warmup_days must cover the longest vol window "
                f"({max(STANDARD_WINDOWS)}), got {self.warmup_days}"
            )
        if not (0.0 <= self.half_spread < 1.0):
            raise ValueError(f"half_spread must be in [0, 1), got {self.half_spread}")
        if not (0.0 <= self.noise < 1.0):
            raise ValueError(f"noise must be in [0, 1), got {self.noise}")
        if self.pricing_vol != "gbm":
            if not self.pricing_vol.startswith("realized:"):
                raise ValueError(
                    "pricing_vol must be 'gbm' or 'realized:<window>', "
                    f"got {self.pricing_vol!r}"
                )
            w = int(self.pricing_vol.split(":", 1)[1])
            if w < 2 or w > self.warmup_days:
                raise ValueError(
                    f"realized pricing window {w} must be in [2, warmup_days]"
                )


@dataclass
class SyntheticData:
    quotes: list  # OptionQuote, fully joined
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
    """
    rng = np.random.default_rng(seed)
    total_days = cfg.warmup_days + cfg.n_quote_days
    first_day = cfg.start - timedelta(days=cfg.warmup_days)
    all_dates = [first_day + timedelta(days=i) for i in range(total_days)]
    quote_dates = all_dates[cfg.warmup_days :]

    dt = 1.0 / 252.0
    underlying = {}
    closes_arr = {}
    for tk in cfg.tickers:
        z = rng.standard_normal(total_days - 1)
        increments = (tk.drift - 0.5 * tk.vol**2) * dt + tk.vol * math.sqrt(dt) * z
        log_growth = np.concatenate([[0.0], np.cumsum(increments)])
        closes = tk.s0 * np.exp(log_growth)  # exp(0) = 1, so closes[0] == s0
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
        sigma = []
        for tk in cfg.tickers:
            vols = rolling_vols(closes_arr[tk.name], windows=(w,))
            sigma.append([vols[i][w].value for i in range(cfg.warmup_days, total_days)])
        sigma = np.array(sigma)
    else:
        sigma = np.array([[tk.vol] for tk in cfg.tickers])
    strike = np.asarray(cfg.strike_multipliers, dtype=np.float64)[:, None] * spot
    ttm = np.asarray(cfg.expiry_days, dtype=np.float64) / DAYS_PER_YEAR
    rate = walk[quoted][:, None, None]
    mid = call_price_grid(spot, strike, rate, sigma[:, :, None, None], ttm).ravel()
    if cfg.noise > 0.0:
        mid = mid * (1.0 + rng.uniform(-cfg.noise, cfg.noise, size=mid.size))

    def column(a):
        return np.broadcast_to(a, (*strike.shape[:3], ttm.size)).ravel().tolist()

    cells = itertools.product(
        [tk.name for tk in cfg.tickers], quote_dates, cfg.strike_multipliers, cfg.expiry_days
    )
    quotes = [
        OptionQuote(
            quote_date=qdate,
            expiry_date=qdate + timedelta(days=days_out),
            ticker=ticker,
            best_bid=bid,
            best_offer=offer,
            strike_price=strike_price,
            underlying_close=close,
            risk_free_rate=r,
        )
        for (ticker, qdate, _, days_out), bid, offer, strike_price, close, r in zip(
            cells,
            (mid * (1.0 - cfg.half_spread)).tolist(),
            (mid * (1.0 + cfg.half_spread)).tolist(),
            column(strike * 1000.0),
            column(spot),
            column(rate),
            strict=True,
        )
    ]
    return SyntheticData(quotes=quotes, underlying=underlying, rates=rates)


# ---------------------------------------------------------------------------
# CSV round trips (repr formatting, so floats survive exactly)


def _fmt(x: float) -> str:
    return repr(float(x))


_QUOTES_HEADER = ["quote_date", "expiry_date", "ticker", "best_bid", "best_offer", "strike_price"]
_UNDERLYING_HEADER = ["date", "ticker", "close"]
_RATES_HEADER = ["date", "rate"]


def _read_csv(path, what: str, header: list, parse) -> list:
    """``parse(*fields)`` of every data row of the CSV at ``path``, in order.

    The header must be exactly ``header`` and every row must have one field
    per column.  Those errors, and a ValueError from ``parse`` (a value that
    does not parse, or a row that its record type rejects), name the file and
    the line.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ValueError(f"{path}: {what} header must be {','.join(header)}, got {got}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: {what} row has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            try:
                out.append(parse(*row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def _number(text: str) -> float:
    """A finite float from a raw-data CSV field."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def write_quotes_csv(records, path) -> None:
    iso: dict = {}  # each distinct date formatted once

    def day(d: date) -> str:
        text = iso.get(d)
        if text is None:
            text = iso[d] = d.isoformat()
        return text

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_QUOTES_HEADER)
        w.writerows(
            [
                day(q.quote_date),
                day(q.expiry_date),
                q.ticker,
                _fmt(q.best_bid),
                _fmt(q.best_offer),
                _fmt(q.strike_price),
            ]
            for q in records
        )


def read_quotes_csv(path) -> list:
    def parse(quote_date, expiry_date, ticker, bid, offer, strike):
        return QuoteRecord(
            quote_date=date.fromisoformat(quote_date),
            expiry_date=date.fromisoformat(expiry_date),
            ticker=ticker,
            best_bid=_number(bid),
            best_offer=_number(offer),
            strike_price=_number(strike),
        )

    return _read_csv(path, "quotes", _QUOTES_HEADER, parse)


def write_underlying_csv(underlying, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_UNDERLYING_HEADER)
        for ticker in underlying:
            for d, close in underlying[ticker]:
                w.writerow([d.isoformat(), ticker, _fmt(close)])


def read_underlying_csv(path) -> dict:
    def parse(day, ticker, close):
        return ticker, (date.fromisoformat(day), _number(close))

    out: dict = {}
    for ticker, point in _read_csv(path, "underlying", _UNDERLYING_HEADER, parse):
        out.setdefault(ticker, []).append(point)
    return out


def write_rates_csv(rates, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RATES_HEADER)
        for d in sorted(rates):
            w.writerow([d.isoformat(), _fmt(rates[d])])


def read_rates_csv(path) -> dict:
    def parse(day, rate):
        return date.fromisoformat(day), _number(rate)

    return dict(_read_csv(path, "rates", _RATES_HEADER, parse))


def attach_market_data(records, underlying, rates):
    """Join raw quote records with closes and rates into OptionQuotes.

    Returns (quotes, skipped) where skipped counts records whose quote date is
    missing from the underlying series or the rate table.
    """
    closes = {
        ticker: dict(series) for ticker, series in underlying.items()
    }
    quotes = []
    skipped = {"no_underlying_close": 0, "no_rate": 0}
    for rec in records:
        close = closes.get(rec.ticker, {}).get(rec.quote_date)
        if close is None:
            skipped["no_underlying_close"] += 1
            continue
        rate = rates.get(rec.quote_date)
        if rate is None:
            skipped["no_rate"] += 1
            continue
        quotes.append(
            OptionQuote(
                quote_date=rec.quote_date,
                expiry_date=rec.expiry_date,
                ticker=rec.ticker,
                best_bid=rec.best_bid,
                best_offer=rec.best_offer,
                strike_price=rec.strike_price,
                underlying_close=close,
                risk_free_rate=rate,
            )
        )
    return quotes, skipped


_FEATURES_HEADER = ["quote_date", "ticker", *FEATURE_COLUMNS, "target"]


def write_features_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_FEATURES_HEADER)
        for r in rows:
            line = [r.quote_date.isoformat(), r.ticker, *map(_fmt, r.features())]
            w.writerow(line + [_fmt(r.target)])


def read_features_csv(path) -> list:
    """Rows of a features CSV; the header must be exactly the one
    ``write_features_csv`` writes."""

    def parse(quote_date, ticker, *values):
        s_over_k, strike, ttm_years, rate, *sigmas, target = map(float, values)
        return FeatureRow(
            quote_date=date.fromisoformat(quote_date),
            ticker=ticker,
            s_over_k=s_over_k,
            strike=strike,
            ttm_years=ttm_years,
            rate=rate,
            sigmas=dict(zip(STANDARD_WINDOWS, sigmas, strict=True)),
            target=target,
        )

    return _read_csv(path, "features", _FEATURES_HEADER, parse)
