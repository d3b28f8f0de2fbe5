"""Slow, obviously-correct reference implementations for the layer tests.

Everything here is written as explicit scalar loop nests over plain floats,
sharing no code with the package (sigmoid/softmax are even computed through
different formulas).  The unit tests and the acceptance gate compare the
package layers against these within 1e-12.  The former sequence kernels
(forward-only LSTM/GRU loops, taped sweeps, conv1d's scatter-add input
gradient) follow them: the current kernels' forwards must keep their bits,
their gradients must agree within 1e-12.  The per-row features writer and
row filter at the end are the columnar ones' oracles, compared exactly; the
row-at-a-time CSV reader is the chunked reader's oracle, and its per-row
checks are the table checks' oracles.  The per-ticker window views at the
end (``windows_causal``/``windows_overlapping``) are the oracle of
``market_data.sequence_windows``, compared exactly, and the one-estimate
``realized_vol`` after them is the oracle of ``vol.rolling_vols``.
"""

import csv
import math
from dataclasses import dataclass
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
# the sequence kernels as they were before the taped and untaped LSTM/GRU
# shared one step loop: the forward-only loops, the taped forwards with their
# backpropagation-through-time sweeps, and conv1d's k-scatter input gradient.
# All take and return plain arrays; x is time-major [time, features, batch]
# and each gate weight acts on [h_prev, x_t], hidden rows first.


def _stacked_gates(weights, biases):
    """Hidden size, [hidden + features, gates*hidden] weights, stacked biases."""
    return (biases[0].shape[0], np.concatenate(weights, axis=1),
            np.concatenate(biases))


def _logistic_inplace(a):
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


def _feature_major(x):
    time, d, batch = x.shape
    return np.transpose(x, (1, 0, 2)).reshape(d, time * batch)


def _check_finite(name, pre):
    if not np.isfinite(pre).all():
        raise FloatingPointError(f"{name}: non-finite gate pre-activations")


def _gate_grads(dw, db, hidden):
    out = []
    for j in range(0, db.shape[0], hidden):
        out += [dw[:, j : j + hidden], db[j : j + hidden]]
    return out


def ref_lstm_infer(x, w_f, b_f, w_i, b_i, w_o, b_o, w_c, b_c):
    """The forward-only LSTM loop: per-step input projection, bias slab and
    recurrent product into [4n, batch] scratch; returns hs [time, n, batch]."""
    n, w, b = _stacked_gates((w_f, w_i, w_o, w_c), (b_f, b_i, b_o, b_c))
    w_x_t, w_h_t = np.ascontiguousarray(w[n:].T), np.ascontiguousarray(w[:n].T)
    time, _, batch = x.shape
    hs = np.empty((time, n, batch))
    bias = np.repeat(b[:, None], batch, axis=1)
    pre, rec = np.empty((4 * n, batch)), np.empty((4 * n, batch))
    c, tmp = np.zeros((n, batch)), np.empty((n, batch))
    h = np.zeros((n, batch))
    for t in range(time):
        np.matmul(w_x_t, x[t], out=pre)
        pre += bias
        np.matmul(w_h_t, h, out=rec)
        pre += rec
        _check_finite("lstm", pre)
        _logistic_inplace(pre[: 3 * n])
        np.tanh(pre[3 * n :], out=pre[3 * n :])
        c *= pre[:n]
        np.multiply(pre[n : 2 * n], pre[3 * n :], out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        h = hs[t]
        np.multiply(pre[2 * n : 3 * n], tmp, out=h)
    return hs


def ref_gru_infer(x, w_r, b_r, w_z, b_z, w_h, b_h):
    """The forward-only GRU loop, as ``ref_lstm_infer``; returns hs."""
    n, w, b = _stacked_gates((w_r, w_z, w_h), (b_r, b_z, b_h))
    w_x_t = np.ascontiguousarray(w[n:].T)
    u_rz_t, u_h_t = (np.ascontiguousarray(w[:n, : 2 * n].T),
                     np.ascontiguousarray(w[:n, 2 * n :].T))
    time, _, batch = x.shape
    hs = np.empty((time, n, batch))
    bias = np.repeat(b[:, None], batch, axis=1)
    pre, rec, tmp = np.empty((3 * n, batch)), np.empty((2 * n, batch)), np.empty((n, batch))
    gates, cand = pre[: 2 * n], pre[2 * n :]
    h = np.zeros((n, batch))
    for t in range(time):
        np.matmul(w_x_t, x[t], out=pre)
        pre += bias
        np.matmul(u_rz_t, h, out=rec)
        gates += rec
        _check_finite("gru", gates)
        _logistic_inplace(gates)
        np.multiply(gates[:n], h, out=tmp)
        np.matmul(u_h_t, tmp, out=rec[:n])
        cand += rec[:n]
        _check_finite("gru", cand)
        np.tanh(cand, out=cand)
        z = gates[n:]
        np.multiply(z, h, out=hs[t])
        np.subtract(1.0, z, out=tmp)
        tmp *= cand
        h = hs[t]
        h += tmp
    return hs


def ref_lstm_bptt(x, g, w_f, b_f, w_i, b_i, w_o, b_o, w_c, b_c):
    """The taped LSTM: one input projection over all steps into a
    [4n, time, batch] array, a step loop on its strided slices, and the
    backpropagation-through-time sweep for the output gradient g
    [time, n, batch].  Returns hs and [dx, dw_f, db_f, .., dw_c, db_c]."""
    n, w, b = _stacked_gates((w_f, w_i, w_o, w_c), (b_f, b_i, b_o, b_c))
    time, features, batch = x.shape
    w_h, w_x = w[:n], w[n:]
    w_h_t = np.ascontiguousarray(w_h.T)
    xf = _feature_major(x)
    pre = (w_x.T @ xf + b[:, None]).reshape(4 * n, time, batch)
    act = np.empty((time, 4 * n, batch))
    hs = np.zeros((time + 1, n, batch))
    cs = np.zeros((time + 1, n, batch))
    tanh_c = np.empty((time, n, batch))
    for t in range(time):
        p, a = pre[:, t], act[t]
        p += w_h_t @ hs[t]
        a[:] = p
        _logistic_inplace(a[: 3 * n])
        np.tanh(a[3 * n :], out=a[3 * n :])
        np.multiply(a[:n], cs[t], out=cs[t + 1])
        cs[t + 1] += a[n : 2 * n] * a[3 * n :]
        np.tanh(cs[t + 1], out=tanh_c[t])
        np.multiply(a[2 * n : 3 * n], tanh_c[t], out=hs[t + 1])
    _check_finite("lstm", pre)

    da = np.empty((4 * n, time, batch))
    dh = np.zeros((n, batch))
    dc = np.zeros((n, batch))
    for t in reversed(range(time)):
        a, d, tc = act[t], da[:, t], tanh_c[t]
        f, i, o, c_new = a[:n], a[n : 2 * n], a[2 * n : 3 * n], a[3 * n :]
        dh += g[t]
        dc += dh * o * (1.0 - tc * tc)
        d[:n] = dc * cs[t] * f * (1.0 - f)
        d[n : 2 * n] = dc * c_new * i * (1.0 - i)
        d[2 * n : 3 * n] = dh * tc * o * (1.0 - o)
        d[3 * n :] = dc * i * (1.0 - c_new * c_new)
        dc *= f
        dh = w_h @ d
    flat = da.reshape(4 * n, time * batch)
    h_prev = np.transpose(hs[:-1], (1, 0, 2)).reshape(n, time * batch)
    dw = np.concatenate([h_prev, xf]) @ flat.T
    dx = np.transpose((w_x @ flat).reshape(features, time, batch), (1, 0, 2))
    return hs[1:], [dx] + _gate_grads(dw, flat.sum(axis=1), n)


def ref_gru_bptt(x, g, w_r, b_r, w_z, b_z, w_h, b_h):
    """The taped GRU and its sweep, as ``ref_lstm_bptt``."""
    n, w, b = _stacked_gates((w_r, w_z, w_h), (b_r, b_z, b_h))
    time, features, batch = x.shape
    u_rz, u_h, w_x = w[:n, : 2 * n], w[:n, 2 * n :], w[n:]
    u_rz_t, u_h_t = np.ascontiguousarray(u_rz.T), np.ascontiguousarray(u_h.T)
    xf = _feature_major(x)
    pre = (w_x.T @ xf + b[:, None]).reshape(3 * n, time, batch)
    act = np.empty((time, 3 * n, batch))
    hs = np.zeros((time + 1, n, batch))
    rh = np.empty((time, n, batch))
    for t in range(time):
        p, a = pre[:, t], act[t]
        p[: 2 * n] += u_rz_t @ hs[t]
        a[: 2 * n] = p[: 2 * n]
        _logistic_inplace(a[: 2 * n])
        np.multiply(a[:n], hs[t], out=rh[t])
        p[2 * n :] += u_h_t @ rh[t]
        np.tanh(p[2 * n :], out=a[2 * n :])
        z = a[n : 2 * n]
        np.multiply(z, hs[t], out=hs[t + 1])
        hs[t + 1] += (1.0 - z) * a[2 * n :]
    _check_finite("gru", pre)

    da = np.empty((3 * n, time, batch))
    dh = np.zeros((n, batch))
    for t in reversed(range(time)):
        a, d, h_prev = act[t], da[:, t], hs[t]
        r, z, cand = a[:n], a[n : 2 * n], a[2 * n :]
        dh += g[t]
        d[2 * n :] = dh * (1.0 - z) * (1.0 - cand * cand)
        d[n : 2 * n] = dh * (h_prev - cand) * z * (1.0 - z)
        drh = u_h @ d[2 * n :]
        d[:n] = drh * h_prev * r * (1.0 - r)
        dh = dh * z + drh * r + u_rz @ d[: 2 * n]
    flat = da.reshape(3 * n, time * batch)
    h_prev = np.transpose(hs[:-1], (1, 0, 2)).reshape(n, time * batch)
    rh_flat = np.transpose(rh, (1, 0, 2)).reshape(n, time * batch)
    dw = np.concatenate([
        np.concatenate([h_prev @ flat[: 2 * n].T, rh_flat @ flat[2 * n :].T], axis=1),
        xf @ flat.T,
    ])
    dx = np.transpose((w_x @ flat).reshape(features, time, batch), (1, 0, 2))
    return hs[1:], [dx] + _gate_grads(dw, flat.sum(axis=1), n)


def ref_conv1d_input_grad(g, kernels):
    """conv1d's input gradient for the output gradient g [batch, time,
    filters] as one product against all k taps, then k scatter-adds of the
    taps' [batch, time, channels] slices into the padded input's gradient."""
    k, channels, filters = kernels.shape
    batch, time = g.shape[0], g.shape[1]
    left = k // 2
    dcols = (g.reshape(batch * time, filters)
             @ kernels.reshape(k * channels, filters).T).reshape(batch, time, k, channels)
    dpadded = np.zeros((batch, time + k - 1, channels))
    for dk in range(k):
        dpadded[:, dk : dk + time] += dcols[:, :, dk]
    return dpadded[:, left : left + time]


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


# ---------------------------------------------------------------------------
# the former per-ticker window views: the oracle of market_data.sequence_windows


@dataclass
class SequenceBatch:
    inputs: np.ndarray  # [windows, timesteps, features], a read-only view of x
    targets: np.ndarray  # [windows], a read-only view of y


def windows_overlapping(x, y, timesteps: int) -> SequenceBatch:
    """Every contiguous window, target aligned to the window's last row.

    N rows give N - T + 1 windows; window i covers rows i .. i+T-1 and is
    paired with y[i+T-1].  The window therefore includes the row being
    predicted (a smoothing representation, not a forecasting one).
    """
    return _windows(x, y, timesteps, lag=0)


def windows_causal(x, y, timesteps: int) -> SequenceBatch:
    """Window i covers rows i .. i+T-1, target y[i+T].

    N rows give N - T windows.  Every input row of a window comes before its
    target row, so a window never holds the row it is scored on.
    """
    return _windows(x, y, timesteps, lag=1)


def _windows(x, y, timesteps: int, lag: int) -> SequenceBatch:
    """Window i covers rows i .. i+T-1 and is paired with y[i+T-1+lag].

    Both arrays are read-only views: the inputs hold each row of ``x`` once,
    however many windows it falls in.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if n < timesteps + lag:
        raise ValueError(f"need {'more than' if lag else 'at least'} {timesteps} rows, got {n}")
    if y.shape[0] != n:
        raise ValueError(f"targets length {y.shape[0]} != rows {n}")
    view = np.moveaxis(np.lib.stride_tricks.sliding_window_view(x, timesteps, axis=0), -1, 1)
    targets = y[timesteps - 1 + lag :]
    targets.flags.writeable = False
    return SequenceBatch(inputs=view[: n - timesteps + 1 - lag], targets=targets)


# ---------------------------------------------------------------------------
# one realized-vol estimate at a time: the oracle of vol.rolling_vols


@dataclass(frozen=True)
class VolEstimate:
    """One annualised estimate: the window length, the value, and its as-of key.

    ``as_of`` is whatever keys the price series (a date for real series, an
    integer index when the caller passed bare prices).
    """

    window_days: int
    value: float
    as_of: object = None

    def __post_init__(self):
        if self.window_days < 2:
            raise ValueError(f"window_days must be >= 2, got {self.window_days}")
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"value must be finite and >= 0, got {self.value}")


def realized_vol(prices, window: int, trading_days: int = 252, as_of=None) -> VolEstimate:
    """Annualised realized vol from the last ``window`` log returns.

    Needs at least window + 1 positive prices (a window of w returns).
    Constant prices give exactly 0.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 1 or not np.all(prices > 0.0):
        raise ValueError("need a 1-D series of positive prices")
    rets = np.diff(np.log(prices))
    if rets.size < window:
        raise ValueError(
            f"need at least {window + 1} prices for a {window}-day window, "
            f"got {rets.size + 1}"
        )
    value = float(np.std(rets[-window:], ddof=1) * math.sqrt(trading_days))
    return VolEstimate(window_days=window, value=value, as_of=as_of)
