"""Realized volatility from daily closes.

A window-w estimate as of day t is the sample standard deviation (n-1
denominator) of the last w daily log returns ending at t, annualised by
sqrt(TRADING_DAYS_PER_YEAR).  Estimates only ever look backwards: the value
dated t depends on closes up to and including t and nothing later.

``rolling_vols`` gives every estimate of a price series as one [day, window]
array (NaN before a window has its history), which feature building and the
synthetic market index.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "STANDARD_WINDOWS",
    "TRADING_DAYS_PER_YEAR",
    "log_returns",
    "rolling_vols",
]

STANDARD_WINDOWS = (20, 30, 40, 50, 65, 90)
TRADING_DAYS_PER_YEAR = 252


def log_returns(prices) -> np.ndarray:
    """ln(p[t+1] / p[t]) for consecutive closes.  Length len(prices) - 1."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need a 1-D series of at least 2 prices, got shape {arr.shape}")
    if not np.all(arr > 0.0):
        raise ValueError("prices must all be positive to take log returns")
    return np.diff(np.log(arr))


def rolling_vols(prices, windows=STANDARD_WINDOWS) -> np.ndarray:
    """Every backward-looking estimate of every requested window, as one
    float64 [len(prices), len(windows)] array.

    out[i, k] is the window-``windows[k]`` estimate as of price index i: the
    sample std of the ``windows[k]`` log returns ending at i, annualised.  It
    is NaN where that window has no history yet (i < w), so with n prices
    window w has estimates at indices w .. n-1 (n - w of them).
    """
    rets = log_returns(prices)
    windows = tuple(int(w) for w in windows)
    for w in windows:
        if w < 2:
            raise ValueError(f"window must be >= 2, got {w}")

    out = np.full((rets.size + 1, len(windows)), np.nan)
    ann = math.sqrt(TRADING_DAYS_PER_YEAR)
    for k, w in enumerate(windows):
        if rets.size >= w:
            sliding = np.lib.stride_tricks.sliding_window_view(rets, w)
            # sliding[j] covers returns j .. j+w-1, whose last return is
            # dated price index j + w
            out[w:, k] = sliding.std(axis=1, ddof=1) * ann
    return out
