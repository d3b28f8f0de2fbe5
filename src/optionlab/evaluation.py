"""Mispricing metrics, classification into over/under/correct, and reports.

All evaluation happens in C/K units (the training target).  A prediction is
"correct" when it lands within a relative margin (default 5%) of the observed
value, boundaries inclusive; otherwise it is "over" or "under" by sign.
Reports carry the error metrics, the three class percentages (always summing
to 100 for non-empty inputs), and per-ticker / per-moneyness breakdowns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bs import call_price_grid
from .market_data import _csv_text, moneyness_masks
from .vol import STANDARD_WINDOWS

__all__ = [
    "DEFAULT_MARGIN",
    "EvalReport",
    "error_metrics",
    "pricing_class",
    "class_masks",
    "class_percentages",
    "build_report",
    "bs_baseline",
    "baseline_window_table",
    "constant_mean_mse",
    "report_to_dict",
    "report_to_json",
    "format_report_text",
    "write_report_csv",
    "format_window_table",
]

DEFAULT_MARGIN = 0.05


def error_metrics(pred, actual) -> tuple[float, float, float]:
    """(mse, rmse, mae) with rmse = sqrt(mse) exactly.  Rejects empty input."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {actual.shape}")
    if pred.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    diff = pred - actual
    mse = float(np.mean(diff * diff))
    return mse, math.sqrt(mse), float(np.mean(np.abs(diff)))


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


@dataclass
class EvalReport:
    """Metrics plus class percentages for one slice of the data.

    ``by_ticker`` and ``by_moneyness`` hold sub-reports (leaves have both
    empty).  Invariants: rmse^2 == mse, percentages sum to 100, every
    sub-report's n sums back to this report's n within its breakdown.
    """

    n: int
    mse: float
    rmse: float
    mae: float
    pct_over: float
    pct_under: float
    pct_correct: float
    by_ticker: dict = field(default_factory=dict)
    by_moneyness: dict = field(default_factory=dict)


def _leaf_report(pred, actual, margin) -> EvalReport:
    mse, rmse, mae = error_metrics(pred, actual)
    over, under, correct = class_percentages(pred, actual, margin)
    return EvalReport(
        n=int(np.asarray(pred).size),
        mse=mse,
        rmse=rmse,
        mae=mae,
        pct_over=over,
        pct_under=under,
        pct_correct=correct,
    )


def build_report(pred, table, margin: float = DEFAULT_MARGIN) -> EvalReport:
    """Overall report with per-ticker and per-moneyness breakdowns.

    ``pred`` aligns with the rows of ``table`` (a FeatureTable); actuals are
    its targets.  Breakdown labels are ticker strings and the moneyness
    category values ("otm", "atm", "itm"); empty slices are simply absent.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape[0] != len(table):
        raise ValueError(f"{pred.shape[0]} predictions for {len(table)} rows")
    actual = table.target
    report = _leaf_report(pred, actual, margin)
    bands = moneyness_masks(table.column("s_over_k"))
    for code in np.unique(table.codes).tolist():
        mask = table.codes == code
        report.by_ticker[table.tickers[code]] = _leaf_report(pred[mask], actual[mask], margin)
    for label, mask in bands.items():
        if mask.any():
            report.by_moneyness[label] = _leaf_report(pred[mask], actual[mask], margin)
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
    """One baseline report per standard vol window: [(window, EvalReport), ...].

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


def report_to_dict(report: EvalReport) -> dict:
    out = {
        "n": report.n,
        "mse": report.mse,
        "rmse": report.rmse,
        "mae": report.mae,
        "pct_over": report.pct_over,
        "pct_under": report.pct_under,
        "pct_correct": report.pct_correct,
    }
    if report.by_ticker:
        out["by_ticker"] = {k: report_to_dict(v) for k, v in report.by_ticker.items()}
    if report.by_moneyness:
        out["by_moneyness"] = {
            k: report_to_dict(v) for k, v in report.by_moneyness.items()
        }
    return out


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


_ROW = "{:<12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8} {:>9}"


def format_report_text(report: EvalReport, title: str = "overall") -> str:
    lines = [
        _ROW.format("slice", "n", "mse", "rmse", "mae", "over%", "under%", "correct%")
    ]

    def emit(label, r):
        lines.append(
            _ROW.format(
                label,
                r.n,
                f"{r.mse:.6g}",
                f"{r.rmse:.6g}",
                f"{r.mae:.6g}",
                f"{r.pct_over:.2f}",
                f"{r.pct_under:.2f}",
                f"{r.pct_correct:.2f}",
            )
        )

    emit(title, report)
    for label, sub in report.by_ticker.items():
        emit(f"  {label}", sub)
    for label, sub in report.by_moneyness.items():
        emit(f"  {label}", sub)
    return "\n".join(lines)


def write_report_csv(report: EvalReport, path) -> None:
    """The overall, per-ticker and per-moneyness metrics, one CRLF-ended row
    each, every float with ``repr``."""
    rows = [("overall", "", report)]
    rows += [("ticker", _csv_text(label), sub) for label, sub in report.by_ticker.items()]
    rows += [("moneyness", label, sub) for label, sub in report.by_moneyness.items()]
    with open(path, "w", newline="") as fh:
        fh.write("scope,label,n,mse,rmse,mae,pct_over,pct_under,pct_correct\r\n")
        fh.writelines(
            f"{scope},{label},{r.n},{r.mse!r},{r.rmse!r},{r.mae!r},"
            f"{r.pct_over!r},{r.pct_under!r},{r.pct_correct!r}\r\n"
            for scope, label, r in rows
        )


def format_window_table(table) -> str:
    """Render [(window, EvalReport)] as a fixed-width text table."""
    lines = ["{:>8} {:>12} {:>12} {:>12} {:>9}".format("window", "mse", "rmse", "mae", "correct%")]
    for window, r in table:
        lines.append(
            "{:>8} {:>12.6g} {:>12.6g} {:>12.6g} {:>9.2f}".format(
                window, r.mse, r.rmse, r.mae, r.pct_correct
            )
        )
    return "\n".join(lines)
