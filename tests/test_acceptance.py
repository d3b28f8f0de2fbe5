"""Acceptance gate: ten end-to-end checks, one per shipping criterion.

Each test asserts its stated tolerance and time budget, then prints a single
summary line.  Everything is seeded and single-threaded; the learning checks
(8-10) drive the real command-line workflow on freshly generated synthetic
markets rather than calling library internals.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.
"""

import contextlib
import json
import shutil
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import optionlab.autodiff as ad
from optionlab import evaluation as ev
from optionlab import market_data as md
from optionlab.autodiff import Tape, Tensor, grad_check
from optionlab.bs import (
    BsInputs,
    McConfig,
    assemble_bs_from_lognormal,
    bs_call_price,
    implied_vol,
    mc_call_price,
)
from optionlab.cli import main
from optionlab.layers import (
    AttentionParams,
    Conv1dParams,
    DenseParams,
    KanLayerParams,
    LayerSpec,
    ModelSpec,
    build_model,
    conv1d_forward,
    dense_forward,
    kan_layer_forward,
    last_query_attention,
    param_count,
    self_attention,
)

from reference_impls import ref_gru_step, ref_lstm_step, ref_self_attention

KAN_FAMILIES = ("chebyshev2", "legendre", "bessel", "laguerre")


# ---------------------------------------------------------------------------
# 1. pricing oracles agree three ways


def test_01_closed_form_lognormal_and_monte_carlo_agree():
    """200 random contracts: closed form == lognormal assembly to 1e-10 and
    within 3 standard errors of a 10^6-path Monte Carlo estimate, in < 60s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240504)
    worst_assembly = 0.0
    worst_z = 0.0
    for i in range(200):
        spot = rng.uniform(50.0, 500.0)
        p = BsInputs(
            spot=spot,
            strike=spot * rng.uniform(0.8, 1.2),
            rate=rng.uniform(0.0, 0.06),
            vol=rng.uniform(0.05, 0.8),
            ttm=rng.uniform(15.0 / 365.0, 4.0),
        )
        closed = bs_call_price(p)
        assembled = assemble_bs_from_lognormal(p)
        worst_assembly = max(worst_assembly, abs(closed - assembled))
        assert abs(closed - assembled) <= 1e-10

        price, se = mc_call_price(
            p, McConfig(paths=1_000_000, seed=54_000 + i, antithetic=True)
        )
        assert se > 0.0
        worst_z = max(worst_z, abs(closed - price) / se)
        assert abs(closed - price) <= 3.0 * se

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"criterion 01 PASS: 200 contracts, assembly diff <= {worst_assembly:.2e}, "
        f"max |z| = {worst_z:.2f} (< 3), {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. implied-vol round trip


def test_02_implied_vol_round_trip_on_grid():
    """Price-then-invert recovers sigma to 1e-6 across a 20x20 (vol,
    moneyness) grid in < 5s."""
    t0 = time.monotonic()
    worst = 0.0
    for vol in np.linspace(0.1, 0.8, 20):
        for moneyness in np.linspace(0.8, 1.2, 20):
            p = BsInputs(
                spot=100.0,
                strike=100.0 / moneyness,
                rate=0.03,
                vol=float(vol),
                ttm=0.5,
            )
            iv = implied_vol(
                bs_call_price(p), spot=p.spot, strike=p.strike, rate=p.rate, ttm=p.ttm
            )
            worst = max(worst, abs(iv - vol))
            assert abs(iv - vol) < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"criterion 02 PASS: 400 grid points, max |iv - vol| = {worst:.2e}, "
        f"{elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 3. parameter budgets


MLP_3X64 = ModelSpec(
    layers=tuple(
        LayerSpec(kind="dense", width=64, activation="tanh") for _ in range(3)
    ),
    input_dim=10,
)
KAN_64 = ModelSpec(
    layers=tuple(
        LayerSpec(kind="kan", width=64, degree=d, family="chebyshev2")
        for d in (2, 5, 4)
    ),
    input_dim=10,
)


def test_03_parameter_budgets_match_pinned_counts():
    """The flagship polynomial network owns exactly 70 593 parameters and the
    3x64 MLP exactly 9 089, both from the layer-spec arithmetic and from
    enumerating the live tensors of a built model."""
    assert param_count(MLP_3X64) == 9_089
    assert param_count(KAN_64) == 70_593
    for spec, expected in ((MLP_3X64, 9_089), (KAN_64, 70_593)):
        model = build_model(spec, seed=0)
        enumerated = sum(int(t.data.size) for _, t in model.parameters())
        assert enumerated == expected
    print("criterion 03 PASS: pinned counts 9089 (mlp 3x64) and 70593 (kan 64)")


# ---------------------------------------------------------------------------
# 4. polynomial stacks match textbook closed forms


# Monic/standard coefficient tables, highest power first, degrees 0..5.
POLY_TABLES = {
    "chebyshev2": [
        [1.0],
        [2.0, 0.0],
        [4.0, 0.0, -1.0],
        [8.0, 0.0, -4.0, 0.0],
        [16.0, 0.0, -12.0, 0.0, 1.0],
        [32.0, 0.0, -32.0, 0.0, 6.0, 0.0],
    ],
    "legendre": [
        [1.0],
        [1.0, 0.0],
        [1.5, 0.0, -0.5],
        [2.5, 0.0, -1.5, 0.0],
        [4.375, 0.0, -3.75, 0.0, 0.375],
        [7.875, 0.0, -8.75, 0.0, 1.875, 0.0],
    ],
    "bessel": [
        [1.0],
        [1.0, 1.0],
        [3.0, 3.0, 1.0],
        [15.0, 15.0, 6.0, 1.0],
        [105.0, 105.0, 45.0, 10.0, 1.0],
        [945.0, 945.0, 420.0, 105.0, 15.0, 1.0],
    ],
    "laguerre": [
        [1.0],
        [-1.0, 1.0],
        [0.5, -2.0, 1.0],
        [-1.0 / 6.0, 1.5, -3.0, 1.0],
        [1.0 / 24.0, -2.0 / 3.0, 3.0, -4.0, 1.0],
        [-1.0 / 120.0, 5.0 / 24.0, -5.0 / 3.0, 5.0, -5.0, 1.0],
    ],
}


def test_04_polynomial_families_match_closed_forms():
    """All four recurrence-built families agree with their explicit
    coefficient polynomials to 1e-10 at 11 points spanning [-1, 1], read
    through the contraction that KAN layers run: one input and one-hot
    coefficients [1, 6, 6], so output n is P_n."""
    xs = np.linspace(-1.0, 1.0, 11)
    one_hot = Tensor(np.eye(6)[None])  # coeffs[0, o, n] = 1 where o == n
    worst = 0.0
    for family in KAN_FAMILIES:
        stack = ad.kan_contract(family, 5, Tensor(xs[:, None]), one_hot).data  # [11, 6]
        for degree, coeffs in enumerate(POLY_TABLES[family]):
            diff = np.max(np.abs(stack[:, degree] - np.polyval(coeffs, xs)))
            worst = max(worst, float(diff))
            assert diff <= 1e-10, f"{family} degree {degree}: {diff}"
    print(f"criterion 04 PASS: 4 families x degrees 0..5, max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. gradient checks for every layer kind


RNN_STEPS = 4  # timesteps of every recurrent case in criteria 05 and 06


def test_05_every_layer_passes_gradient_checks():
    """Reverse-mode gradients match central differences to 1e-5 for dense,
    conv1d, the lstm and gru layers, attention (all queries, and the last
    query that a recurrent model reads out), and all four polynomial
    families, on three random shapes each, in < 2 minutes."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240505)
    worst = 0.0

    def check(name, f, x0):
        nonlocal worst
        err = grad_check(f, Tensor(np.asarray(x0, dtype=np.float64)))
        worst = max(worst, err)
        assert err < 1e-5, f"{name}: gradient error {err}"

    def gates(in_dim, hidden, n):
        out = []
        for _ in range(n):
            out.append(Tensor(rng.normal(size=(hidden + in_dim, hidden)) * 0.5, True))
            out.append(Tensor(rng.normal(size=hidden) * 0.5, True))
        return out

    # dense: gradient wrt input and wrt weights
    for batch, in_dim, out_dim in ((2, 3, 4), (1, 5, 2), (4, 4, 3)):
        p = DenseParams(
            weights=Tensor(rng.normal(size=(in_dim, out_dim)) * 0.7, True),
            bias=Tensor(rng.normal(size=out_dim) * 0.3, True),
            activation="tanh",
        )
        check("dense/x", lambda t: ad.reduce_mean(dense_forward(p, t)),
              rng.normal(size=(batch, in_dim)))
        x = Tensor(rng.normal(size=(batch, in_dim)))
        check(
            "dense/w",
            lambda t: ad.reduce_mean(
                dense_forward(DenseParams(t, p.bias, p.activation), x)
            ),
            p.weights.data,
        )

    # conv1d over [batch, time, channels] with odd and even kernels
    for batch, steps, cin, cout, k in ((2, 5, 3, 4, 3), (1, 4, 2, 2, 2), (3, 6, 1, 3, 5)):
        p = Conv1dParams(
            kernels=Tensor(rng.normal(size=(k, cin, cout)) * 0.5, True),
            bias=Tensor(rng.normal(size=cout) * 0.2, True),
            activation="tanh",
        )
        check("conv1d/x", lambda t: ad.reduce_mean(conv1d_forward(p, t)),
              rng.normal(size=(batch, steps, cin)))
        x = Tensor(rng.normal(size=(batch, steps, cin)))
        check(
            "conv1d/k",
            lambda t: ad.reduce_mean(
                conv1d_forward(Conv1dParams(t, p.bias, p.activation), x)
            ),
            p.kernels.data,
        )

    # lstm / gru layers as models run them: unrolled from zero states over a
    # time-major input [time, features, batch], gradient wrt that input
    for batch, features, hidden in ((3, 4, 5), (1, 2, 3), (2, 6, 4)):
        lstm_gates = gates(features, hidden, 4)
        check("lstm/x", lambda t: ad.reduce_mean(ad.lstm(t, *lstm_gates)),
              rng.normal(size=(RNN_STEPS, features, batch)))
        gru_gates = gates(features, hidden, 3)
        check("gru/x", lambda t: ad.reduce_mean(ad.gru(t, *gru_gates)),
              rng.normal(size=(RNN_STEPS, features, batch)))

    # attention over [time, width]
    for steps, width in ((4, 3), (1, 2), (6, 5)):
        p = AttentionParams(
            w_q=Tensor(rng.normal(size=(width, width)) * 0.6, True),
            w_k=Tensor(rng.normal(size=(width, width)) * 0.6, True),
            w_v=Tensor(rng.normal(size=(width, width)) * 0.6, True),
        )
        check("attention/h", lambda t: ad.reduce_mean(self_attention(p, t)),
              rng.normal(size=(steps, width)))
        check("last_query_attention/h", lambda t: ad.reduce_mean(last_query_attention(p, t)),
              rng.normal(size=(steps, width)))

    # polynomial layers: every family, gradient wrt input and coefficients
    for family in KAN_FAMILIES:
        for batch, in_dim, out_dim in ((2, 3, 4), (1, 4, 2), (3, 2, 3)):
            p = KanLayerParams(
                family=family,
                degree=3,
                coeffs=Tensor(rng.normal(size=(in_dim, out_dim, 4)) * 0.4, True),
                mix_weights=Tensor(rng.normal(size=(in_dim, in_dim)) * 0.5, True),
                mix_bias=Tensor(rng.normal(size=in_dim) * 0.2, True),
            )
            check(f"kan[{family}]/z", lambda t: ad.reduce_mean(kan_layer_forward(p, t)),
                  rng.normal(size=(batch, in_dim)))
        z = Tensor(rng.normal(size=(2, in_dim)))
        check(
            f"kan[{family}]/coeffs",
            lambda t: ad.reduce_mean(
                kan_layer_forward(
                    KanLayerParams(family, 3, t, p.mix_weights, p.mix_bias), z
                )
            ),
            p.coeffs.data,
        )

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"criterion 05 PASS: all layer kinds, worst gradient error {worst:.2e}, "
        f"{elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 6. recurrent and attention kernels match scalar loop nests


def test_06_recurrent_and_attention_match_references():
    """The lstm and gru layers, with and without a tape, agree to 1e-12 with
    independent scalar loop-nest steps looped over time from zero states;
    self_attention agrees with a loop-nest attention, and
    last_query_attention with its last row, to 1e-12."""
    rng = np.random.default_rng(20240506)
    worst = 0.0

    def gates(in_dim, hidden, n):
        out = []
        for _ in range(n):
            out.append(Tensor(rng.normal(size=(hidden + in_dim, hidden)) * 0.5, True))
            out.append(Tensor(rng.normal(size=hidden) * 0.5, True))
        return out

    def agree(got, ref):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(got - ref))))
        np.testing.assert_allclose(got, ref, atol=1e-12, rtol=0.0)

    for batch, features, hidden in ((3, 4, 5), (1, 2, 3), (2, 6, 4)):
        x = rng.normal(size=(RNN_STEPS, features, batch))  # time-major, as models run it
        lstm_gates, gru_gates = gates(features, hidden, 4), gates(features, hidden, 3)
        ref_lstm, ref_gru = [], []
        h = c = g = np.zeros((batch, hidden))
        for t in range(RNN_STEPS):
            h, c = ref_lstm_step(*(w.data for w in lstm_gates), x[t].T, h, c)
            g = ref_gru_step(*(w.data for w in gru_gates), x[t].T, g)
            ref_lstm.append(h.T)
            ref_gru.append(g.T)
        for taped in (False, True):
            with Tape() if taped else contextlib.nullcontext():
                lstm_out = ad.lstm(Tensor(x), *lstm_gates)
                gru_out = ad.gru(Tensor(x), *gru_gates)
            agree(lstm_out.data, np.array(ref_lstm))  # [time, hidden, batch]
            agree(gru_out.data, np.array(ref_gru))

    for steps, width in ((4, 3), (1, 2), (6, 5)):
        p = AttentionParams(
            w_q=Tensor(rng.normal(size=(width, width)) * 0.6, True),
            w_k=Tensor(rng.normal(size=(width, width)) * 0.6, True),
            w_v=Tensor(rng.normal(size=(width, width)) * 0.6, True),
        )
        h = rng.normal(size=(steps, width))
        ref = ref_self_attention(p.w_q.data, p.w_k.data, p.w_v.data, h)
        agree(self_attention(p, Tensor(h)).data, ref)
        agree(last_query_attention(p, Tensor(h)).data, ref[-1:])

    print(f"criterion 06 PASS: lstm/gru/attention vs loop nests, max diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. pipeline invariants, >= 1000 random cases each


def _random_table(rng, n):
    """A feature table of n random rows, some of which each filter drops."""
    x = np.column_stack([
        rng.uniform(0.7, 1.3, n),  # s_over_k
        rng.uniform(10.0, 500.0, n),  # strike
        rng.uniform(5.0, 500.0, n) / 365.0,  # ttm_years
        rng.uniform(0.0, 0.08, n),  # rate
        rng.uniform(0.05, 0.8, (n, len(md.STANDARD_WINDOWS))),
    ])
    days = date(2021, 1, 4).toordinal() + rng.integers(0, 400, n)
    names = rng.choice(["AA", "BB", "CC"], n).tolist()
    return md.FeatureTable.of(days, names, x, rng.uniform(0.0, 0.6, n))


def _filter(table):
    return md.filter_mask(table.column("s_over_k"), table.column("ttm_years"),
                          table.column("rate"), table.target)


def test_07_pipeline_invariants_hold_on_random_cases():
    """Five seeded property sweeps, >= 1000 cases each: filter idempotence,
    drop-count conservation, chronological-split partition, moneyness
    partition, and causal windows never looking ahead."""
    rng = np.random.default_rng(20240507)

    # filter: conservation and idempotence on 2000 random rows
    table = _random_table(rng, 2000)
    keep, dropped = _filter(table)
    assert np.count_nonzero(keep) + sum(dropped.values()) == len(table)
    assert sum(dropped.values()) > 0  # the draw really exercises every reason
    again, dropped_again = _filter(table.take(keep))
    assert sum(dropped_again.values()) == 0
    assert again.all()

    # chronological split: exact partition on one large and 30 small batches
    checked_rows = 0
    for batch_size in [1500] + [int(rng.integers(10, 80)) for _ in range(30)]:
        days = _random_table(rng, batch_size).days
        split = md.split_indices(days)
        train, val, test = split.train, split.val, split.test
        n = len(days)
        assert len(train) == (70 * n) // 100
        assert len(val) == (15 * n) // 100
        assert len(test) == n - len(train) - len(val)
        assert sorted(np.concatenate([train, val, test]).tolist()) == list(range(n))
        assert days[train[-1]] <= days[val[0]] <= days[val[-1]] <= days[test[0]]
        checked_rows += n
    assert checked_rows >= 1000

    # moneyness: every tradable ratio lands in exactly one band, the one
    # that the scalar classifier names
    s_over_k = rng.uniform(md.MONEYNESS_LO, md.MONEYNESS_HI, 1000)
    bands = md.moneyness_masks(s_over_k)
    assert (sum(m.astype(int) for m in bands.values()) == 1).all()
    np.testing.assert_array_equal(bands["otm"], s_over_k < md.ATM_LO)
    np.testing.assert_array_equal(bands["itm"], s_over_k > md.ATM_HI)
    named = [md.classify_moneyness(v).value for v in s_over_k.tolist()]
    for band, mask in bands.items():
        assert mask.tolist() == [name == band for name in named]

    # causal windows: inputs strictly predate the target, >= 1000 windows
    windows_checked = 0
    while windows_checked < 1000:
        n = int(rng.integers(20, 120))
        timesteps = int(rng.integers(1, 10))
        x = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, 3))
        y = np.arange(n, dtype=np.float64)  # y[i] encodes the row index
        batch = md.windows_causal(x, y, timesteps)
        assert batch.inputs.shape == (n - timesteps, timesteps, 3)
        # row indices inside each window must all be < the target's row index
        max_input_row = batch.inputs[:, :, 0].max(axis=1)
        assert np.all(max_input_row < batch.targets)
        # and windows are contiguous runs ending right before the target
        np.testing.assert_array_equal(
            batch.inputs[:, -1, 0], batch.targets - 1.0
        )
        windows_checked += batch.inputs.shape[0]

    print(
        "criterion 07 PASS: filter/split/moneyness/windowing invariants on "
        f">=1000 cases each ({windows_checked} causal windows)"
    )


# ---------------------------------------------------------------------------
# 8. learning beats the mean and the baseline stays at the noise floor


NOISE = 0.01

ACCEPT_SYNTH = {
    "tickers": [
        {"name": "AA", "s0": 100.0, "drift": 0.05, "vol": 0.2},
        {"name": "BB", "s0": 250.0, "drift": 0.02, "vol": 0.35},
    ],
    "start": "2020-01-06",
    "n_quote_days": 250,
    "strike_multipliers": [0.84, 0.88, 0.92, 0.96, 1.0, 1.05, 1.10, 1.15, 1.20, 1.24],
    "expiry_days": [30, 60, 120, 240],
    "warmup_days": 95,
    "rate": 0.03,
    "half_spread": 0.002,
    "noise": NOISE,
    "pricing_vol": "realized:90",
    "seed": 20240801,
}

ACCEPT_MLP = {
    "layers": [
        {"kind": "dense", "width": 32, "activation": "tanh"},
        {"kind": "dense", "width": 32, "activation": "tanh"},
    ],
    "input_dim": 10,
}

ACCEPT_KAN = {
    "layers": [
        {"kind": "kan", "width": 16, "degree": 3, "family": "chebyshev2"},
        {"kind": "kan", "width": 16, "degree": 3, "family": "chebyshev2"},
    ],
    "input_dim": 10,
}

ACCEPT_TRAIN = {
    "epochs": 60,
    "patience": 60,
    "batch_size": 256,
    "learning_rate": 3e-3,
    "shuffle": True,
}


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2))
    return path


def _run(argv):
    assert main(argv) == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    """Generate ~20 000 synthetic options and push them through the full
    command-line workflow: synth -> prepare -> train (mlp, kan) -> evaluate."""
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.monotonic()

    _run(["synth", "--config", str(_write_json(root / "synth.json", ACCEPT_SYNTH)),
          "--out", str(root / "synth")])
    _run(["prepare", "--config", str(_write_json(root / "prepare.json", {
        "quotes": str(root / "synth" / "quotes.csv"),
        "underlying": str(root / "synth" / "underlying.csv"),
        "rates": str(root / "synth" / "rates.csv"),
    })), "--out", str(root / "data")])

    features = str(root / "data" / "features.csv")
    for name, spec, seed in (("mlp", ACCEPT_MLP, 11), ("kan", ACCEPT_KAN, 12)):
        _run(["train", "--config", str(_write_json(root / f"train_{name}.json", {
            "features": features,
            "model": spec,
            "train": ACCEPT_TRAIN,
            "seed": seed,
        })), "--out", str(root / f"model_{name}")])
        _run(["evaluate", "--config", str(_write_json(root / f"eval_{name}.json", {
            "features": features,
            "checkpoint": str(root / f"model_{name}" / "model.bin"),
        })), "--out", str(root / f"eval_{name}")])

    return {"root": root, "elapsed": time.monotonic() - t0}


def test_08_models_beat_the_mean_and_baseline_sits_on_noise_floor(market, tmp_path):
    """On ~20 000 noisy synthetic options: (a) the pricing baseline with the
    matching vol window stays within 2x the injected-noise floor, (b) both
    trained networks reach test MSE <= 10% of predicting the mean, and (c) the
    reports break out tickers and moneyness with percentages summing to 100 --
    all inside 10 minutes."""
    root = market["root"]
    manifest = json.loads((root / "synth" / "manifest.json").read_text())
    assert manifest["n_quotes"] == 20_000

    # a copy with no image beside it, so the CSV itself is parsed
    features = shutil.copyfile(root / "data" / "features.csv", tmp_path / "features.csv")
    table = md.read_feature_table(features)
    split = md.split_indices(table.days)
    y_train, y_test = table.target[split.train], table.target[split.test]

    # (a) baseline vs noise floor, from the emitted six-window table
    floor = (NOISE**2 / 3.0) * float(np.mean(y_test * y_test))
    with open(root / "eval_mlp" / "baseline_windows.csv") as fh:
        header = fh.readline()
        table = {int(line.split(",")[0]): float(line.split(",")[1]) for line in fh}
    assert header.startswith("window,")
    baseline_ratio = table[90] / floor
    assert baseline_ratio <= 2.0, f"baseline mse {table[90]} vs floor {floor}"

    # (b) learned models vs predict-the-mean
    mean_bar = 0.1 * ev.constant_mean_mse(y_train, y_test)
    ratios = {}
    for name in ("mlp", "kan"):
        summary = json.loads((root / f"model_{name}" / "train_summary.json").read_text())
        ratios[name] = summary["test_mse"] / mean_bar
        assert summary["test_mse"] <= mean_bar, (
            f"{name} test mse {summary['test_mse']} above 10%-of-mean bar {mean_bar}"
        )

    # (c) breakdowns present, percentages summing to 100, counts conserved
    for name in ("mlp", "kan"):
        report = json.loads((root / f"eval_{name}" / "report.json").read_text())
        assert set(report["by_ticker"]) == {"AA", "BB"}
        assert set(report["by_moneyness"]) == {"otm", "atm", "itm"}
        for branch in ("by_ticker", "by_moneyness"):
            assert sum(s["n"] for s in report[branch].values()) == report["n"]
            for slice_ in [report] + list(report[branch].values()):
                total = slice_["pct_over"] + slice_["pct_under"] + slice_["pct_correct"]
                assert abs(total - 100.0) < 1e-9

    assert market["elapsed"] < 600.0
    print(
        f"criterion 08 PASS: baseline/floor = {baseline_ratio:.2f} (<= 2), "
        f"mlp = {ratios['mlp']:.3f} and kan = {ratios['kan']:.3f} of the 10% bar, "
        f"breakdowns consistent, chain took {market['elapsed']:.0f}s"
    )


# ---------------------------------------------------------------------------
# 9. six-window baseline table


def test_09_evaluate_emits_six_window_baseline_table(market):
    """cmd_evaluate writes the 20/30/40/50/65/90-day baseline table, and the
    README documents how the window choice moves the baseline (trend note
    only; no numeric claim is asserted here)."""
    lines = (market["root"] / "eval_mlp" / "baseline_windows.csv").read_text().splitlines()
    assert lines[0] == "window,mse,rmse,mae,pct_correct"
    windows = [int(line.split(",")[0]) for line in lines[1:]]
    assert windows == [20, 30, 40, 50, 65, 90]
    for line in lines[1:]:
        mse, rmse, mae, pct = (float(v) for v in line.split(",")[1:])
        assert np.isfinite([mse, rmse, mae, pct]).all()
        assert 0.0 <= pct <= 100.0

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "realized-vol window" in readme.lower()
    assert "90-day" in readme
    print("criterion 09 PASS: six-window table emitted; README documents the trend")


# ---------------------------------------------------------------------------
# 10. determinism


SMALL_SYNTH = {
    "tickers": [{"name": "AA", "s0": 100.0, "drift": 0.05, "vol": 0.2}],
    "start": "2021-06-01",
    "n_quote_days": 40,
    "strike_multipliers": [0.92, 1.0, 1.08, 1.15],
    "expiry_days": [30, 91],
    "warmup_days": 95,
    "rate": 0.03,
    "noise": 0.01,
    "pricing_vol": "realized:90",
    "seed": 777,
}

SMALL_MLP = {
    "layers": [
        {"kind": "dense", "width": 8, "activation": "tanh"},
        {"kind": "dense", "width": 8, "activation": "tanh"},
    ],
    "input_dim": 10,
}

SMALL_TRAIN = {
    "epochs": 6,
    "patience": 6,
    "batch_size": 64,
    "learning_rate": 3e-3,
    "shuffle": True,
}


def _small_chain(root: Path) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    _run(["synth", "--config", str(_write_json(root / "synth.json", SMALL_SYNTH)),
          "--out", str(root / "synth")])
    _run(["prepare", "--config", str(_write_json(root / "prepare.json", {
        "quotes": str(root / "synth" / "quotes.csv"),
        "underlying": str(root / "synth" / "underlying.csv"),
        "rates": str(root / "synth" / "rates.csv"),
    })), "--out", str(root / "data")])
    _run(["train", "--config", str(_write_json(root / "train.json", {
        "features": str(root / "data" / "features.csv"),
        "model": SMALL_MLP,
        "train": SMALL_TRAIN,
        "seed": 5,
    })), "--out", str(root / "model")])
    _run(["evaluate", "--config", str(_write_json(root / "eval.json", {
        "features": str(root / "data" / "features.csv"),
        "checkpoint": str(root / "model" / "model.bin"),
    })), "--out", str(root / "eval")])
    return {
        "quotes.csv": (root / "synth" / "quotes.csv").read_bytes(),
        "underlying.csv": (root / "synth" / "underlying.csv").read_bytes(),
        "rates.csv": (root / "synth" / "rates.csv").read_bytes(),
        "features.csv": (root / "data" / "features.csv").read_bytes(),
        "model.bin": (root / "model" / "model.bin").read_bytes(),
        "history.csv": (root / "model" / "history.csv").read_bytes(),
        "train_summary.json": (root / "model" / "train_summary.json").read_bytes(),
        "report.json": (root / "eval" / "report.json").read_bytes(),
        "baseline_windows.csv": (root / "eval" / "baseline_windows.csv").read_bytes(),
        "predictions.csv": (root / "eval" / "predictions.csv").read_bytes(),
    }


def test_10_same_seeds_reproduce_artifacts_byte_for_byte(tmp_path):
    """Repeating the workflow with identical seeds yields bit-identical
    artifacts at every stage, and the Monte Carlo pricer repeats exactly."""
    first = _small_chain(tmp_path / "a")
    second = _small_chain(tmp_path / "b")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"

    p = BsInputs(spot=120.0, strike=110.0, rate=0.02, vol=0.3, ttm=1.25)
    cfg = McConfig(paths=200_000, seed=54_000, antithetic=True)
    assert mc_call_price(p, cfg) == mc_call_price(p, cfg)

    print(
        f"criterion 10 PASS: {len(first)} artifacts byte-identical across reruns; "
        "mc pricer repeats exactly"
    )
