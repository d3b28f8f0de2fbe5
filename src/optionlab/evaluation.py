"""Mispricing metrics, classification into over/under/correct, and reports.

All evaluation happens in C/K units (the training target).  A prediction is
"correct" when it lands within a relative margin (default 5%) of the observed
value, boundaries inclusive; otherwise it is "over" or "under" by sign.

A report is the object that ``report.json`` holds: the seven ``_METRICS`` of
every scored row (the count, the three errors and the three class
percentages, which sum to 100), plus one {label: metrics} dict per breakdown
of ``_BREAKDOWNS`` (by ticker and by moneyness category).  ``report.csv`` and
``report.txt`` list the same slices in the same order, from ``_slices``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bs import call_price_grid
from .market_data import _csv_text, moneyness_masks
from .vol import STANDARD_WINDOWS

__all__ = [
    "DEFAULT_MARGIN",
    "error_metrics",
    "pricing_class",
    "class_masks",
    "class_percentages",
    "build_report",
    "bs_baseline",
    "baseline_window_table",
    "constant_mean_mse",
    "report_to_json",
    "format_report_text",
    "write_report_csv",
    "format_window_table",
]

DEFAULT_MARGIN = 0.05

# the metrics of one slice, in report.csv's column order
_METRICS = ("n", "mse", "rmse", "mae", "pct_over", "pct_under", "pct_correct")
# (report.json key, report.csv scope) of each breakdown, in the order listed
_BREAKDOWNS = (("by_ticker", "ticker"), ("by_moneyness", "moneyness"))


def error_metrics(pred, actual) -> tuple[float, float, float]:
    """(mse, rmse, mae) with rmse = sqrt(mse) exactly.  Rejects empty input,
    and errors too large for a float."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {actual.shape}")
    if pred.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    with np.errstate(over="ignore"):
        diff = pred - actual
        mse = float(np.mean(diff * diff))
        mae = float(np.mean(np.abs(diff)))
    if not (math.isfinite(mse) and math.isfinite(mae)):
        raise ValueError(f"the error metrics are not finite: the largest |prediction - actual|"
                         f" is {float(np.max(np.abs(diff)))!r}")
    return mse, math.sqrt(mse), mae


def pricing_class(pred: float, actual: float, margin: float = DEFAULT_MARGIN) -> str:
    """"correct" iff |pred - actual| <= margin * actual, else "over"/"under".

    Boundary cases are correct by construction.  ``actual`` must be positive
    (C/K is positive for any live quote).
    """
    if actual <= 0.0:
        raise ValueError(f"actual must be positive, got {actual}")
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if abs(pred - actual) <= margin * actual:
        return "correct"
    return "over" if pred > actual else "under"


def class_masks(pred, actual, margin: float = DEFAULT_MARGIN):
    """(over, under, correct) masks: ``pricing_class`` of every element, by
    the same IEEE comparisons.  Raises ``pricing_class``'s error for the first
    element it rejects."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    rejected = (actual <= 0.0) | (margin < 0.0)
    if rejected.any():
        i = int(np.argmax(rejected))
        pricing_class(float(pred[i]), float(actual[i]), margin)
    correct = np.abs(pred - actual) <= margin * actual
    over = ~correct & (pred > actual)
    return over, ~correct & ~over, correct


def class_percentages(pred, actual, margin: float = DEFAULT_MARGIN):
    """(pct_over, pct_under, pct_correct), summing to 100 for non-empty input."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.size == 0:
        raise ValueError("cannot classify an empty set")
    masks = class_masks(pred, actual, margin)
    return tuple(100.0 * int(np.count_nonzero(m)) / pred.size for m in masks)


def _leaf_report(pred, actual, margin) -> dict:
    """The ``_METRICS`` of one slice."""
    return dict(zip(_METRICS, (int(np.asarray(pred).size), *error_metrics(pred, actual),
                               *class_percentages(pred, actual, margin))))


def build_report(pred, table, margin: float = DEFAULT_MARGIN) -> dict:
    """The ``report.json`` object: the metrics of every row, plus one {label:
    metrics} dict per breakdown.

    ``pred`` aligns with the rows of ``table`` (a FeatureTable); actuals are
    its targets.  Breakdown labels are ticker strings and the moneyness
    category values ("otm", "atm", "itm"); empty slices are simply absent.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape[0] != len(table):
        raise ValueError(f"{pred.shape[0]} predictions for {len(table)} rows")
    actual = table.target
    report = _leaf_report(pred, actual, margin)
    codes = np.unique(table.codes).tolist()
    masks = ({table.tickers[c]: table.codes == c for c in codes},
             moneyness_masks(table.column("s_over_k")))
    for (key, _), slices in zip(_BREAKDOWNS, masks):
        report[key] = {label: _leaf_report(pred[mask], actual[mask], margin)
                       for label, mask in slices.items() if mask.any()}
    return report


def bs_baseline(table, window: int) -> np.ndarray:
    """Closed-form C/K using the window-w realized vol as the vol input.

    The closed form is homogeneous of degree one in (spot, strike), so
    C/K = price(S/K, 1, r, sigma_w, tau); the baseline needs only the
    published features.  Raises for a window the table has no column for.
    """
    if window not in STANDARD_WINDOWS:
        raise ValueError(f"the features have no sigma_{window} column")
    s_over_k, rate, vol, ttm = (
        table.column(c) for c in ("s_over_k", "rate", f"sigma_{window}", "ttm_years")
    )
    return call_price_grid(s_over_k, 1.0, rate, vol, ttm)


def baseline_window_table(table, margin=DEFAULT_MARGIN):
    """The baseline's metrics per standard vol window: [(window, metrics), ...].

    The interesting read is how the error moves as the window lengthens:
    short windows track current conditions but are noisy, long windows are
    stable but stale, and which effect dominates depends on how close the
    pricing vol is to a long-run level.
    """
    return [(w, _leaf_report(bs_baseline(table, w), table.target, margin))
            for w in STANDARD_WINDOWS]


def constant_mean_mse(train_targets, eval_targets) -> float:
    """MSE of always predicting the training-target mean; a floor for 'learned anything'."""
    train_targets = np.asarray(train_targets, dtype=np.float64)
    eval_targets = np.asarray(eval_targets, dtype=np.float64)
    if train_targets.size == 0 or eval_targets.size == 0:
        raise ValueError("empty targets")
    mean = float(train_targets.mean())
    diff = eval_targets - mean
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# emitters


def _slices(report):
    """(scope, label, metrics) of the overall slice, labelled "", then of each
    breakdown's slices in order."""
    yield "overall", "", report
    for key, scope in _BREAKDOWNS:
        for label, metrics in report[key].items():
            yield scope, label, metrics


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


# (width, format) of each metric in the text tables, in _METRICS order
_TEXT = dict(zip(_METRICS, ((8, "d"), (12, ".6g"), (12, ".6g"), (12, ".6g"),
                            (8, ".2f"), (8, ".2f"), (9, ".2f"))))


def _text_table(first: str, align: str, rows, metrics=_METRICS) -> str:
    """Fixed-width lines: a heading, then one line per (first cell, metrics
    dict) of ``rows``.  ``first`` heads the first column, which ``align``
    formats; a percentage such as "pct_over" is headed "over%"."""
    heads = [m[4:] + "%" if m.startswith("pct_") else m for m in metrics]
    widths = [f">{_TEXT[m][0]}" for m in metrics]
    specs = [f">{width}{spec}" for width, spec in map(_TEXT.get, metrics)]
    lines = [" ".join(map(format, [first, *heads], [align, *widths]))]
    lines += [" ".join(map(format, [cell, *map(r.get, metrics)], [align, *specs]))
              for cell, r in rows]
    return "\n".join(lines)


def format_report_text(report: dict, title: str = "overall") -> str:
    """Every slice of ``report``, the overall one labelled ``title``."""
    rows = ((f"  {label}" if scope != "overall" else title, r)
            for scope, label, r in _slices(report))
    return _text_table("slice", "<12", rows)


def write_report_csv(report: dict, path) -> None:
    """Every slice of ``report``, one CRLF-ended row each, every float with
    ``repr``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("scope", "label", *_METRICS)) + "\r\n")
        fh.writelines(",".join((scope, _csv_text(label), *(repr(r[m]) for m in _METRICS)))
                      + "\r\n" for scope, label, r in _slices(report))


def format_window_table(table) -> str:
    """Render [(window, metrics)] as a fixed-width text table: the three
    errors and the correct percentage of each window."""
    return _text_table("window", ">8", table, _METRICS[1:4] + _METRICS[6:])
