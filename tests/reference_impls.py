"""Slow, obviously-correct reference implementations for the layer tests.

Everything here is written as explicit scalar loop nests over plain floats,
sharing no code with the package (sigmoid/softmax are even computed through
different formulas).  The unit tests and the acceptance gate compare the
package layers against these within 1e-12.  The per-row features writer and
row filter at the end are the columnar ones' oracles, compared exactly; the
row-at-a-time CSV reader is the chunked reader's oracle, and its per-row
checks are the table checks' oracles.
"""

import csv
import math
from datetime import date
from typing import NamedTuple

import numpy as np


def sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _affine_gate(z, w, b, act):
    """z: [B][D] python lists; w: [D][H]; b: [H] -> [B][H] with act applied."""
    batch = len(z)
    hidden = len(b)
    out = [[0.0] * hidden for _ in range(batch)]
    for i in range(batch):
        for j in range(hidden):
            s = b[j]
            for k in range(len(z[i])):
                s += z[i][k] * w[k][j]
            out[i][j] = act(s)
    return out


def ref_lstm_step(w_f, b_f, w_i, b_i, w_o, b_o, w_c, b_c, x, h_prev, c_prev):
    """One step over [batch, features]; weights act on [h_prev, x]."""
    x = np.asarray(x).tolist()
    h_prev = np.asarray(h_prev).tolist()
    c_prev = np.asarray(c_prev).tolist()
    z = [h_row + x_row for h_row, x_row in zip(h_prev, x)]
    f = _affine_gate(z, np.asarray(w_f).tolist(), np.asarray(b_f).tolist(), sigmoid)
    i = _affine_gate(z, np.asarray(w_i).tolist(), np.asarray(b_i).tolist(), sigmoid)
    o = _affine_gate(z, np.asarray(w_o).tolist(), np.asarray(b_o).tolist(), sigmoid)
    c_tilde = _affine_gate(z, np.asarray(w_c).tolist(), np.asarray(b_c).tolist(), math.tanh)
    batch, hidden = len(z), len(f[0])
    c_out = [[0.0] * hidden for _ in range(batch)]
    h_out = [[0.0] * hidden for _ in range(batch)]
    for bi in range(batch):
        for j in range(hidden):
            c_out[bi][j] = f[bi][j] * c_prev[bi][j] + i[bi][j] * c_tilde[bi][j]
            h_out[bi][j] = o[bi][j] * math.tanh(c_out[bi][j])
    return np.array(h_out), np.array(c_out)


def ref_gru_step(w_r, b_r, w_z, b_z, w_h, b_h, x, h_prev):
    x = np.asarray(x).tolist()
    h_prev = np.asarray(h_prev).tolist()
    z_in = [h_row + x_row for h_row, x_row in zip(h_prev, x)]
    r = _affine_gate(z_in, np.asarray(w_r).tolist(), np.asarray(b_r).tolist(), sigmoid)
    z = _affine_gate(z_in, np.asarray(w_z).tolist(), np.asarray(b_z).tolist(), sigmoid)
    gated = [
        [r[bi][j] * h_prev[bi][j] for j in range(len(r[bi]))] + x[bi]
        for bi in range(len(x))
    ]
    cand = _affine_gate(gated, np.asarray(w_h).tolist(), np.asarray(b_h).tolist(), math.tanh)
    batch, hidden = len(x), len(r[0])
    h_out = [[0.0] * hidden for _ in range(batch)]
    for bi in range(batch):
        for j in range(hidden):
            h_out[bi][j] = z[bi][j] * h_prev[bi][j] + (1.0 - z[bi][j]) * cand[bi][j]
    return np.array(h_out)


def ref_self_attention(w_q, w_k, w_v, h):
    """[T, d] -> [T, 2d]: softmax(QK^T / sqrt(d)) V, concatenated with h."""
    h = np.asarray(h).tolist()
    w_q, w_k, w_v = (np.asarray(w).tolist() for w in (w_q, w_k, w_v))
    T, d = len(h), len(h[0])

    def matmul(a, b):
        rows, inner, cols = len(a), len(b), len(b[0])
        out = [[0.0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                s = 0.0
                for k in range(inner):
                    s += a[i][k] * b[k][j]
                out[i][j] = s
        return out

    q = matmul(h, w_q)
    k = matmul(h, w_k)
    v = matmul(h, w_v)
    scores = [[0.0] * T for _ in range(T)]
    for i in range(T):
        for j in range(T):
            s = 0.0
            for kk in range(d):
                s += q[i][kk] * k[j][kk]
            scores[i][j] = s / math.sqrt(d)
    weights = []
    for row in scores:
        m = max(row)
        exps = [math.exp(val - m) for val in row]
        total = sum(exps)
        weights.append([e / total for e in exps])
    attended = matmul(weights, v)
    return np.array([attended[i] + h[i] for i in range(T)])


def ref_poly_stack(family: str, degree: int, x: float):
    """P_0(x) .. P_degree(x) by scalar recurrence."""
    values = [1.0]
    if degree >= 1:
        first = {
            "chebyshev2": 2.0 * x,
            "legendre": x,
            "bessel": x + 1.0,
            "laguerre": 1.0 - x,
        }[family]
        values.append(first)
    for n in range(2, degree + 1):
        p1, p2 = values[-1], values[-2]
        if family == "chebyshev2":
            values.append(2.0 * x * p1 - p2)
        elif family == "legendre":
            values.append(((2 * n - 1) * x * p1 - (n - 1) * p2) / n)
        elif family == "bessel":
            values.append((2 * n - 1) * x * p1 + p2)
        else:  # laguerre
            values.append(((2 * n - 1 - x) * p1 - (n - 1) * p2) / n)
    return values


def ref_kan_layer(family, degree, coeffs, mix_w, mix_b, z):
    """Triple-loop contraction: y[b,o] = sum_{i,n} P_n(x[b,i]) c[i,o,n]."""
    z = np.asarray(z)
    coeffs = np.asarray(coeffs)
    batch = z.shape[0]
    in_dim, out_dim, n_basis = coeffs.shape
    if mix_w is not None:
        pre = z @ np.asarray(mix_w) + np.asarray(mix_b)
    else:
        pre = z
    x = np.tanh(pre)
    out = np.zeros((batch, out_dim))
    for b in range(batch):
        for i in range(in_dim):
            stack = ref_poly_stack(family, degree, float(x[b, i]))
            for o in range(out_dim):
                for n in range(n_basis):
                    out[b, o] += stack[n] * coeffs[i, o, n]
    return out


def ref_conv1d_same(kernels, bias, x):
    """Left-biased same padding, cross-correlation over [B, T, C]."""
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    x = np.asarray(x)
    k, in_ch, filters = kernels.shape
    batch, time, _ = x.shape
    left = k // 2
    out = np.zeros((batch, time, filters))
    for b in range(batch):
        for t in range(time):
            for f in range(filters):
                s = bias[f]
                for dk in range(k):
                    src = t + dk - left
                    if 0 <= src < time:
                        for c in range(in_ch):
                            s += x[b, src, c] * kernels[dk, c, f]
                out[b, t, f] = s
    return out


# ---------------------------------------------------------------------------
# the per-row data path: one line and one filter decision per FeatureRecord

FEATURES_HEADER = [
    "quote_date", "ticker", "s_over_k", "strike", "ttm_years", "rate",
    "sigma_20", "sigma_30", "sigma_40", "sigma_50", "sigma_65", "sigma_90", "target",
]
SIGMA_WINDOWS = (20, 30, 40, 50, 65, 90)


class FeatureRecord(NamedTuple):
    """One feature row as plain values, checked by nothing."""

    quote_date: date
    ticker: str
    s_over_k: float
    strike: float
    ttm_years: float
    rate: float
    sigmas: dict  # {window_days: annualised realized vol}
    target: float

    def features(self) -> list:
        """The ten features, in the features CSV's column order."""
        return [self.s_over_k, self.strike, self.ttm_years, self.rate,
                *(self.sigmas[w] for w in SIGMA_WINDOWS)]


def feature_columns(rows) -> tuple:
    """(day ordinals, tickers, feature rows, targets) of FeatureRecords: the
    arguments of ``FeatureTable.of``."""
    return ([r.quote_date.toordinal() for r in rows], [r.ticker for r in rows],
            [r.features() for r in rows], [r.target for r in rows])


def ref_write_features_csv(rows, path):
    """FeatureRecords as a features CSV: every float with repr, every row
    through csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURES_HEADER)
        for r in rows:
            values = [*r.features(), r.target]
            w.writerow([r.quote_date.isoformat(), r.ticker, *(repr(float(v)) for v in values)])


def ref_filter_decisions(rows):
    """Per FeatureRecord, the first exclusion that applies (maturity,
    moneyness, arbitrage) or None for a kept row."""
    min_ttm = 15 / 365.0
    out = []
    for row in rows:
        if row.ttm_years < min_ttm:
            out.append("maturity")
        elif not (0.8 <= row.s_over_k <= 1.2):
            out.append("moneyness")
        elif row.target < row.s_over_k - math.exp(-row.rate * row.ttm_years):
            out.append("arbitrage")
        else:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# raw-data CSV reader: one row at a time, one parse per field


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _positive_close(text):
    value = _finite(text)
    if value <= 0.0:
        raise ValueError(f"close must be positive, got {text!r}")
    return value


def _ordinal(text):
    return date.fromisoformat(text).toordinal()


def _quote_error(day, expiry, ticker, bid, offer, strike):
    if bid < 0.0 or offer < 0.0:
        return f"negative quote: bid={bid}, offer={offer}"
    if offer < bid:
        return f"crossed quote: bid {bid} > offer {offer}"
    if strike <= 0.0:
        return f"strike_price must be positive, got {strike}"
    if expiry <= day:
        return (f"expiry {date.fromordinal(expiry)} not after quote date "
                f"{date.fromordinal(day)}")
    return None


def _feature_error(day, ticker, *values):
    if not all(math.isfinite(v) for v in values):
        return f"non-finite feature row for {ticker} {date.fromordinal(day)}"
    if values[0] <= 0.0 or values[1] <= 0.0 or values[2] <= 0.0:
        return "s_over_k, strike, and ttm_years must be positive"
    return None


# kind: (header, field parsers, row check or None, key columns)
RAW_CSVS = {
    "quotes": (["quote_date", "expiry_date", "ticker", "best_bid", "best_offer",
                "strike_price"],
               (_ordinal, _ordinal, str, _finite, _finite, _finite), _quote_error, ()),
    "underlying": (["date", "ticker", "close"], (_ordinal, str, _positive_close), None, (0, 1)),
    "rates": (["date", "rate"], (_ordinal, _finite), None, (0,)),
    "features": (FEATURES_HEADER, (_ordinal, str, *[float] * 11), _feature_error, ()),
}


def ref_read_raw_csv(path, kind):
    """(rows, None) or (None, error text) for a CSV of ``kind`` (a key of
    RAW_CSVS), read by ``csv.reader`` one row at a time: each row's fields
    are parsed left to right, then the row is checked, then its key; the
    first row that is wrong ends the read.  Dates come back as ordinals.  An
    underlying CSV must also give every ticker two closes.  A leading
    byte-order mark is not part of the header."""
    header, parsers, check, key = RAW_CSVS[kind]
    rows, seen = [], {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            return None, f"{path}: {kind} header must be {','.join(header)}, got {got}"
        while True:
            try:
                fields = next(reader, None)
            except csv.Error as exc:  # a field over the limit
                return None, f"{path}: line {reader.line_num}: {exc}"
            if fields is None:
                break
            where = f"{path}: line {reader.line_num}: "
            if len(fields) != len(header):
                return None, where + (f"{kind} row has {len(fields)} fields, "
                                      f"expected {len(header)}")
            row = []
            for parse, text in zip(parsers, fields):
                try:
                    row.append(parse(text))
                except ValueError as exc:
                    return None, where + str(exc)
            error = check(*row) if check else None
            if error is not None:
                return None, where + error
            k = tuple(row[j] for j in key)
            if key and k in seen:
                named = " and ".join(header[j] for j in key)
                return None, where + f"{kind} row repeats the {named} of line {seen[k]}"
            seen[k] = reader.line_num
            rows.append(tuple(row))
    if kind == "underlying":
        closes = {}
        for _, ticker, _ in rows:
            closes[ticker] = closes.get(ticker, 0) + 1
        for ticker, n in closes.items():
            if n < 2:
                return None, f"{path}: ticker {ticker!r} has {n} close; need at least 2"
    return rows, None
