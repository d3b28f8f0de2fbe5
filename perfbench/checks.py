"""Output checks against recomputations made apart from the program.

Nothing here imports optionlab.  Prices come from a closed form built on
``math.erfc``, realized vols from an explicit two-pass standard deviation of
``log(c[t]/c[t-1])``, and the split, windows, filters and class rules are
re-derived from their documented definitions.  Every check returns a list
of failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WINDOWS = (20, 30, 40, 50, 65, 90)
MIN_TTM_DAYS = 15
MONEYNESS = (0.8, 0.95, 1.05, 1.2)  # lo, atm_lo, atm_hi, hi
MARGIN = 0.05

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _close(a, b, rel):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + 1e-300))


def norm_cdf(x):
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)).astype(float)


def bs_call(spot, strike, rate, sigma, tau):
    """Black-Scholes call; every sigma and tau here is positive."""
    sd = sigma * np.sqrt(tau)
    d1 = (np.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / sd
    return spot * norm_cdf(d1) - strike * np.exp(-rate * tau) * norm_cdf(d1 - sd)


def realized_vol_series(closes, window):
    """out[i] = annualised vol of the ``window`` log returns ending at close i (NaN before)."""
    rets = np.log(closes[1:] / closes[:-1])
    win = sliding_window_view(rets, window)
    dev = win - win.sum(axis=1, keepdims=True) / window
    vols = np.sqrt((dev * dev).sum(axis=1) / (window - 1)) * math.sqrt(252.0)
    return np.concatenate([np.full(window, np.nan), vols])


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def classify(pred, actual):
    """over / under / correct by the relative margin, boundaries correct."""
    return np.where(np.abs(pred - actual) <= MARGIN * actual, "correct",
                    np.where(pred > actual, "over", "under"))


# ---------------------------------------------------------------------------
# synth + prepare


def check_market(synth_dir, data_dir, market, filters_all_drop):
    """Quotes, features and manifests of one synth + prepare.

    Returns (errors, features.csv as columns); the later checks use the
    columns, which equal the recomputation when ``errors`` is empty.
    """
    errors = []
    n_grid = (len(market["tickers"]) * market["n_quote_days"]
              * len(market["strike_multipliers"]) * len(market["expiry_days"]))
    synth_manifest = json.loads((synth_dir / "manifest.json").read_text())
    if synth_manifest["n_quotes"] != n_grid:
        errors.append(f"synth manifest has {synth_manifest['n_quotes']} quotes, grid gives {n_grid}")

    und = read_table(synth_dir / "underlying.csv")
    pos, closes = {}, {}  # ticker -> {date: index}, [close]
    for d, tk, c in zip(und["date"], und["ticker"], und["close"]):
        index = pos.setdefault(tk, {})
        index[d] = len(index)
        closes.setdefault(tk, []).append(float(c))
    series = {tk: np.array(c) for tk, c in closes.items()}
    vols = {tk: {w: realized_vol_series(c, w) for w in WINDOWS} for tk, c in series.items()}
    rates_t = read_table(synth_dir / "rates.csv")
    rates = dict(zip(rates_t["date"], map(float, rates_t["rate"])))

    q = read_table(synth_dir / "quotes.csv")
    n = len(q["ticker"])
    if n != n_grid:
        errors.append(f"quotes.csv has {n} rows, grid gives {n_grid}")
        return errors, None
    idx = np.array([pos[tk][d] for tk, d in zip(q["ticker"], q["quote_date"])])
    spot = np.array([series[tk][i] for tk, i in zip(q["ticker"], idx)])
    sig = {w: np.array([vols[tk][w][i] for tk, i in zip(q["ticker"], idx)]) for w in WINDOWS}
    rate = np.array([rates[d] for d in q["quote_date"]])
    days = np.array([date.fromisoformat(e).toordinal() - date.fromisoformat(d).toordinal()
                     for d, e in zip(q["quote_date"], q["expiry_date"])])
    bid = np.array(q["best_bid"], dtype=float)
    offer = np.array(q["best_offer"], dtype=float)
    strike = np.array(q["strike_price"], dtype=float) / 1000.0
    tau = days / 365.0
    mid = 0.5 * (bid + offer)

    pricing_window = int(market["pricing_vol"].split(":")[1])
    price = bs_call(spot, strike, rate, sig[pricing_window], tau)
    worst = float(np.max(np.abs(mid / price - 1.0)))
    if worst > market["noise"] * (1 + 1e-9) + 1e-12:
        errors.append(f"a mid is {worst:.4g} off its closed-form price (noise {market['noise']})")
    h = market["half_spread"]
    if not (_close(bid, mid * (1 - h), 1e-12) and _close(offer, mid * (1 + h), 1e-12)):
        errors.append("bid/offer are not mid*(1 -/+ half_spread)")

    s_over_k, target = spot / strike, mid / strike
    maturity = tau < MIN_TTM_DAYS / 365.0
    moneyness = ~maturity & ((s_over_k < MONEYNESS[0]) | (s_over_k > MONEYNESS[3]))
    arbitrage = ~maturity & ~moneyness & (target < s_over_k - np.exp(-rate * tau))
    keep = ~(maturity | moneyness | arbitrage)
    dropped = {"maturity": int(maturity.sum()), "moneyness": int(moneyness.sum()),
               "arbitrage": int(arbitrage.sum())}

    manifest = json.loads((data_dir / "manifest.json").read_text())
    skipped = sum(manifest["join_skipped"].values()) + sum(manifest["build_skipped"].values())
    if manifest["n_quotes_read"] != n or skipped + manifest["n_feature_rows"] != n:
        errors.append(f"prepare manifest read/skipped/built counts do not add up: {manifest}")
    if sum(manifest["filter_dropped"].values()) + manifest["n_final_rows"] != manifest["n_feature_rows"]:
        errors.append(f"prepare manifest dropped/kept counts do not add up: {manifest}")
    if manifest["filter_dropped"] != dropped or manifest["n_final_rows"] != int(keep.sum()):
        errors.append(f"filter counts {manifest['filter_dropped']} differ from recomputed {dropped}")
    if filters_all_drop and min(dropped.values()) == 0:
        errors.append(f"the market should make every filter drop rows, got {dropped}")

    f = read_table(data_dir / "features.csv")
    table = {"quote_date": np.array(f["quote_date"]), "ticker": np.array(f["ticker"])}
    for col in ("s_over_k", "strike", "ttm_years", "rate", "target",
                *(f"sigma_{w}" for w in WINDOWS)):
        table[col] = np.array(f[col], dtype=float)
    if len(f["ticker"]) != int(keep.sum()):
        errors.append(f"features.csv has {len(f['ticker'])} rows, recomputed {int(keep.sum())}")
        return errors, table
    if not (np.array_equal(table["quote_date"], np.array(q["quote_date"])[keep])
            and np.array_equal(table["ticker"], np.array(q["ticker"])[keep])):
        errors.append("features.csv rows are not the surviving quotes in quote order")
    expect = {"s_over_k": s_over_k, "strike": strike, "ttm_years": tau, "rate": rate,
              "target": target, **{f"sigma_{w}": sig[w] for w in WINDOWS}}
    for col, values in expect.items():
        if not _close(table[col], values[keep], 1e-12 if col in ("strike", "rate") else 1e-9):
            errors.append(f"features.csv column {col} differs from its recomputation")
    return errors, table


# ---------------------------------------------------------------------------
# train + evaluate


def split_rows(table):
    """Row indices of the 70/15/15 chronological split (stable by date)."""
    order = np.argsort(table["quote_date"], kind="stable")
    n = order.size
    a, b = 70 * n // 100, 70 * n // 100 + 15 * n // 100
    return {"train": order[:a], "val": order[a:b], "test": order[b:]}


def target_rows(table, idx, windowing):
    """Rows a model is scored on: every row for flat models, else each window's target."""
    if windowing is None:
        return idx
    t = windowing["timesteps"]
    first = t if windowing["mode"] == "causal" else t - 1
    out = []
    tickers = table["ticker"][idx]
    for tk in sorted(set(tickers.tolist())):
        mine = idx[tickers == tk]
        if mine.size > first:
            out.append(mine[first:])
    return np.concatenate(out)


def _check_report(report, pred, rows, table, errors, where):
    actual = table["target"][rows]
    if report["n"] != rows.size:
        errors.append(f"{where}: report n {report['n']} != {rows.size} rows")
    mse = float(np.mean((pred - actual) ** 2))
    if not _close(report["mse"], mse, 1e-9):
        errors.append(f"{where}: report mse {report['mse']} != recomputed {mse}")
    pct = 100.0 * float(np.mean(classify(pred, actual) == "correct"))
    if abs(report["pct_correct"] - pct) > 1e-9:
        errors.append(f"{where}: report pct_correct {report['pct_correct']} != recomputed {pct}")
    s = table["s_over_k"][rows]
    lo, atm_lo, atm_hi, hi = MONEYNESS
    bands = {"otm": (s >= lo) & (s < atm_lo), "atm": (s >= atm_lo) & (s <= atm_hi),
             "itm": (s > atm_hi) & (s <= hi)}
    tickers = table["ticker"][rows]
    expect = {"by_ticker": {tk: int((tickers == tk).sum()) for tk in set(tickers.tolist())},
              "by_moneyness": {k: int(m.sum()) for k, m in bands.items() if m.any()}}
    for branch, counts in expect.items():
        got = {k: v["n"] for k, v in report[branch].items()}
        if got != counts or sum(got.values()) != report["n"]:
            errors.append(f"{where}: {branch} counts {got} != recomputed {counts}")
    for slice_ in [report, *report["by_ticker"].values(), *report["by_moneyness"].values()]:
        total = slice_["pct_over"] + slice_["pct_under"] + slice_["pct_correct"]
        if abs(total - 100.0) > 1e-9:
            errors.append(f"{where}: a slice's percentages sum to {total}")


def _check_baselines(path, rows, table, noise, errors, where):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "window,mse,rmse,mae,pct_correct" or len(lines) != 1 + len(WINDOWS):
        errors.append(f"{where}: unexpected baseline_windows.csv layout")
        return
    actual = table["target"][rows]
    for line, w in zip(lines[1:], WINDOWS):
        window, mse, rmse, mae, pct = line.split(",")
        pred = bs_call(table["s_over_k"][rows], 1.0, table["rate"][rows],
                       table[f"sigma_{w}"][rows], table["ttm_years"][rows])
        diff = pred - actual
        want = (float(np.mean(diff * diff)), float(np.mean(np.abs(diff))))
        mine_pct = 100.0 * float(np.mean(classify(pred, actual) == "correct"))
        if (int(window) != w or not _close([float(mse), float(mae)], want, 1e-8)
                or not _close(float(rmse), math.sqrt(want[0]), 1e-8)
                or abs(float(pct) - mine_pct) > 100.0 / rows.size + 1e-9):
            errors.append(f"{where}: baseline row {line!r} != recomputed {w},{want},{mine_pct}")
        if w == 90:
            floor = noise * noise / 3.0 * float(np.mean(actual * actual))
            if float(mse) > 2.0 * floor:
                errors.append(f"{where}: 90-day baseline mse {mse} above 2x noise floor {floor}")


def check_model(model_dir, eval_dirs, table, model, noise):
    """One trained checkpoint and its evaluations on every split.

    ``model`` carries ``epochs``, ``windowing`` (None for flat models) and
    ``bar``: the largest allowed ratio of the checkpoint's train-split MSE to
    the MSE of predicting the training-target mean.
    """
    errors = []
    name = model_dir.name
    split = split_rows(table)
    rows = {k: target_rows(table, v, model.windowing) for k, v in split.items()}
    summary = json.loads((model_dir / "train_summary.json").read_text())
    if summary["epochs_run"] != model.epochs or summary["stopped_early"]:
        errors.append(f"{name}: ran {summary['epochs_run']} epochs, expected {model.epochs}")
    for k in ("train", "val", "test"):
        if summary[f"n_{k}"] != rows[k].size:
            errors.append(f"{name}: n_{k} {summary[f'n_{k}']} != recomputed {rows[k].size}")

    for k, eval_dir in eval_dirs.items():
        where = f"{name}/{k}"
        p = read_table(eval_dir / "predictions.csv")
        r = rows[k]
        if (p["quote_date"] != table["quote_date"][r].tolist()
                or p["ticker"] != table["ticker"][r].tolist()
                or not np.array_equal(np.array(p["actual"], dtype=float), table["target"][r])):
            errors.append(f"{where}: predictions.csv rows are not the {k} split's scored rows")
            continue
        pred = np.array(p["predicted"], dtype=float)
        if p["class"] != classify(pred, table["target"][r]).tolist():
            errors.append(f"{where}: predictions.csv classes differ from the margin rule")
        _check_report(json.loads((eval_dir / "report.json").read_text()), pred, r, table,
                      errors, where)
        _check_baselines(eval_dir / "baseline_windows.csv", r, table, noise, errors, where)
        mse = float(np.mean((pred - table["target"][r]) ** 2))
        if k == "test" and not _close(summary["test_mse"], mse, 1e-12):
            errors.append(f"{where}: test mse {mse} from the reloaded checkpoint "
                          f"!= train_summary {summary['test_mse']}")
        if k == "train":
            mean = table["target"][rows["train"]].mean()
            mean_mse = float(np.mean((table["target"][r] - mean) ** 2))
            if mse > model.bar * mean_mse:
                errors.append(f"{where}: mse {mse:.4g} above {model.bar} x "
                              f"predict-the-mean {mean_mse:.4g}")
    return errors
