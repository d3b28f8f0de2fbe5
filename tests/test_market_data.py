"""Quote types, moneyness bands, feature building, filters, splits, sequence
windows, the synthetic market generator, and the CSV round trips."""

import math
import re
import tempfile
from collections import namedtuple
from dataclasses import astuple, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optionlab import market_data, vol
from optionlab.bs import call_price_grid
from optionlab.market_data import (
    ATM_HI,
    FEATURE_COLUMNS,
    ATM_LO,
    MONEYNESS_HI,
    MONEYNESS_LO,
    FeatureRow,
    FeatureTable,
    MoneynessCategory,
    QuoteRecord,
    QuoteTable,
    SynthConfig,
    SyntheticData,
    TickerConfig,
    attach_market_data,
    build_features,
    classify_moneyness,
    filter_mask,
    filter_rows,
    generate_synthetic_dataset,
    read_feature_table,
    read_features_csv,
    read_quotes_csv,
    read_rates_csv,
    read_underlying_csv,
    split_chronological,
    windows_causal,
    windows_overlapping,
    write_features_csv,
    write_quotes_csv,
    write_rates_csv,
    write_underlying_csv,
)
from optionlab.vol import STANDARD_WINDOWS, realized_vol
from reference_impls import ref_filter_decisions, ref_write_features_csv

D0 = date(2021, 1, 1)


def _mk_row(
    s_over_k=1.0,
    ttm_years=30 / 365,
    rate=0.02,
    target=0.1,
    quote_date=D0,
    ticker="T",
    strike=100.0,
    sigmas=None,
):
    return FeatureRow(
        quote_date=quote_date,
        ticker=ticker,
        s_over_k=s_over_k,
        strike=strike,
        ttm_years=ttm_years,
        rate=rate,
        sigmas={} if sigmas is None else sigmas,
        target=target,
    )


def _quote_table(rows):
    """A joined QuoteTable of (quote_date, expiry_date, ticker, bid, offer,
    strike_price, close, rate) tuples."""
    days, expiries, names, bid, offer, strike, close, rate = zip(*rows)
    table = QuoteTable.of([d.toordinal() for d in days], [e.toordinal() for e in expiries],
                          names, bid, offer, strike)
    return replace(table, close=np.array(close), rate=np.array(rate))


_Quote = namedtuple("_Quote", ["quote_date", "expiry_date", "ticker", "best_bid", "best_offer",
                               "strike_price", "underlying_close", "risk_free_rate"],
                    defaults=(None, None))


def _quote_rows(table):
    """A _Quote per quote of a table, in order; close and rate None until joined."""
    joined = [] if table.close is None else [table.close.tolist(), table.rate.tolist()]
    return [_Quote(*q) for q in zip(
        map(date.fromordinal, table.days.tolist()), map(date.fromordinal, table.expiries.tolist()),
        [table.tickers[c] for c in table.codes.tolist()], table.bid.tolist(),
        table.offer.tolist(), table.strike_price.tolist(), *joined,
    )]


def _mid(q):
    return 0.5 * (q.best_bid + q.best_offer)


# ---------------------------------------------------------------------------
# quote types


class TestQuoteTypes:
    def test_valid_quote(self):
        q = QuoteRecord(D0, D0 + timedelta(days=30), "AA", 1.0, 2.0, 100000.0)
        table = QuoteTable.of([D0.toordinal()], [q.expiry_date.toordinal()], ["AA"], [1.0], [2.0],
                              [100000.0])
        table.check()
        assert table.to_rows() == [q]
        assert _quote_rows(table) == [_Quote(D0, q.expiry_date, "AA", 1.0, 2.0, 100000.0)]

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            QuoteRecord(D0, D0 + timedelta(days=30), "AA", -0.5, 2.0, 100000.0)

    def test_crossed_quote_rejected(self):
        with pytest.raises(ValueError, match="crossed"):
            QuoteRecord(D0, D0 + timedelta(days=30), "AA", 3.0, 2.0, 100000.0)

    def test_expiry_must_follow_quote_date(self):
        with pytest.raises(ValueError, match="expiry"):
            QuoteRecord(D0, D0, "AA", 1.0, 2.0, 100000.0)

    def test_strike_must_be_positive(self):
        with pytest.raises(ValueError, match="strike"):
            QuoteRecord(D0, D0 + timedelta(days=30), "AA", 1.0, 2.0, 0.0)

    def test_zero_width_quote(self):
        q = QuoteRecord(D0, D0 + timedelta(days=1), "AA", 0.0, 0.0, 1000.0)
        assert (q.best_bid, q.best_offer) == (0.0, 0.0)

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.lists(st.tuples(
        st.integers(-2, 2),
        *[st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.nan, math.inf])] * 3,
    ), min_size=1, max_size=6))
    def test_table_check_is_quote_record_check(self, quotes):
        """QuoteTable.check rejects a table exactly when QuoteRecord rejects
        one of its quotes, with the error of the first such quote."""
        first_error = None
        for days_out, bid, offer, strike in quotes:
            try:
                QuoteRecord(D0, D0 + timedelta(days=days_out), "AA", bid, offer, strike)
            except ValueError as exc:
                first_error = str(exc)
                break
        days_out, bid, offer, strike = zip(*quotes)
        table = QuoteTable.of([D0.toordinal()] * len(quotes),
                              [D0.toordinal() + d for d in days_out], ["AA"] * len(quotes),
                              bid, offer, strike)
        if first_error is None:
            table.check()
        else:
            with pytest.raises(ValueError, match=re.escape(first_error)):
                table.check()


# ---------------------------------------------------------------------------
# moneyness


class TestMoneyness:
    @pytest.mark.parametrize(
        "s_over_k,expected",
        [
            (0.80, MoneynessCategory.OTM),
            (0.9499999, MoneynessCategory.OTM),
            (0.95, MoneynessCategory.ATM),
            (1.00, MoneynessCategory.ATM),
            (1.05, MoneynessCategory.ATM),
            (1.0500001, MoneynessCategory.ITM),
            (1.20, MoneynessCategory.ITM),
        ],
    )
    def test_band_boundaries(self, s_over_k, expected):
        assert classify_moneyness(s_over_k) is expected

    @pytest.mark.parametrize("s_over_k", [0.799, 1.201, 0.0, 5.0])
    def test_outside_range_raises(self, s_over_k):
        with pytest.raises(ValueError, match="outside"):
            classify_moneyness(s_over_k)

    @given(st.floats(MONEYNESS_LO, MONEYNESS_HI))
    def test_bands_partition_the_range(self, s):
        cat = classify_moneyness(s)
        if s < ATM_LO:
            assert cat is MoneynessCategory.OTM
        elif s <= ATM_HI:
            assert cat is MoneynessCategory.ATM
        else:
            assert cat is MoneynessCategory.ITM

    def test_row_moneyness_uses_s_over_k(self):
        assert _mk_row(s_over_k=0.9).moneyness() is MoneynessCategory.OTM


# ---------------------------------------------------------------------------
# feature building


def _flat_series(n, start=D0, level=100.0):
    return [(start + timedelta(days=i), level) for i in range(n)]


class TestBuildFeatures:
    def test_hand_worked_example(self):
        # 91 flat closes: every realized vol is exactly 0 at the last date.
        series = {"XY": _flat_series(91)}
        qdate = D0 + timedelta(days=90)
        quotes = _quote_table([(qdate, qdate + timedelta(days=37), "XY", 9.0, 11.0, 95000.0,
                                100.0, 0.025)])
        result = build_features(quotes, series)
        assert result.skipped == {
            "no_underlying_series": 0, "insufficient_history": 0, "zero_mid": 0,
        }
        (row,) = result.table.to_rows()
        assert row.quote_date == qdate
        assert row.ticker == "XY"
        assert row.s_over_k == pytest.approx(100.0 / 95.0, rel=1e-15)
        assert row.strike == 95.0
        assert row.ttm_years == pytest.approx(37 / 365, rel=1e-15)
        assert row.rate == 0.025
        assert set(row.sigmas) == set(STANDARD_WINDOWS)
        assert all(v == 0.0 for v in row.sigmas.values())
        assert row.target == pytest.approx(10.0 / 95.0, rel=1e-15)

    def test_sigmas_match_realized_vol_per_window(self):
        rng = np.random.default_rng(11)
        closes = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(120)))
        series = {"ZZ": [(D0 + timedelta(days=i), float(c)) for i, c in enumerate(closes)]}
        qdate = D0 + timedelta(days=119)
        quotes = _quote_table([(qdate, qdate + timedelta(days=30), "ZZ", 4.0, 6.0, 100000.0,
                                float(closes[-1]), 0.01)])
        (row,) = build_features(quotes, series).table.to_rows()
        for w in STANDARD_WINDOWS:
            assert row.sigmas[w] == realized_vol(closes, w).value

    def test_skip_reasons_are_counted(self):
        series = {"XY": _flat_series(91)}
        good_date = D0 + timedelta(days=90)
        early_date = D0 + timedelta(days=50)  # not enough history for window 90

        def q(ticker, when, bid=1.0, offer=2.0):
            return (when, when + timedelta(days=30), ticker, bid, offer, 100000.0, 100.0, 0.0)

        result = build_features(
            _quote_table([q("XY", good_date), q("??", good_date), q("XY", early_date),
                          q("XY", good_date, bid=0.0, offer=0.0)]),
            series,
        )
        assert [row.target for row in result.table.to_rows()] == [1.5 / 100.0]
        assert result.skipped == {
            "no_underlying_series": 1, "insufficient_history": 1, "zero_mid": 1,
        }

    def test_duplicate_series_dates_raise(self):
        series = {"XY": _flat_series(91) + [(D0, 100.0)]}
        with pytest.raises(ValueError, match="duplicate"):
            build_features(QuoteTable.of([], [], [], [], [], []), series)

    def test_feature_vector_order(self):
        sig = {w: 0.1 * i for i, w in enumerate(STANDARD_WINDOWS)}
        row = _mk_row(s_over_k=1.1, strike=90.0, ttm_years=0.5, rate=0.03, sigmas=sig)
        expected = [1.1, 90.0, 0.5, 0.03] + [sig[w] for w in STANDARD_WINDOWS]
        assert row.features() == expected
        table = FeatureTable.from_rows([row])
        np.testing.assert_array_equal(table.x, [expected])
        np.testing.assert_array_equal(table.target, [row.target])

    def test_non_finite_row_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _mk_row(target=float("inf"))


# ---------------------------------------------------------------------------
# filters


class TestFilterRows:
    def test_arbitrage_bound_hand_example(self):
        # S=110, K=100, r=0, tau=1: the no-arbitrage floor is S/K - 1 = 0.1,
        # so C=5 (target 0.05) violates it and C=15 (target 0.15) does not.
        bad = _mk_row(s_over_k=1.1, ttm_years=1.0, rate=0.0, target=0.05)
        good = _mk_row(s_over_k=1.1, ttm_years=1.0, rate=0.0, target=0.15)
        result = filter_rows([bad, good])
        assert result.rows == [good]
        assert result.dropped == {"maturity": 0, "moneyness": 0, "arbitrage": 1}

    def test_maturity_boundary(self):
        too_short = _mk_row(ttm_years=14 / 365)
        at_limit = _mk_row(ttm_years=15 / 365)
        result = filter_rows([too_short, at_limit])
        assert result.rows == [at_limit]
        assert result.dropped["maturity"] == 1

    def test_moneyness_boundaries_inclusive(self):
        # target 0.5 clears the arbitrage floor everywhere in [0.8, 1.2]
        rows = [
            _mk_row(s_over_k=0.79, target=0.5),
            _mk_row(s_over_k=0.80, target=0.5),
            _mk_row(s_over_k=1.20, target=0.5),
            _mk_row(s_over_k=1.21, target=0.5),
        ]
        result = filter_rows(rows)
        assert [r.s_over_k for r in result.rows] == [0.80, 1.20]
        assert result.dropped["moneyness"] == 2

    def test_precedence_counts_first_failing_reason(self):
        # fails maturity AND moneyness AND arbitrage -> counted as maturity only
        row = _mk_row(s_over_k=2.0, ttm_years=1 / 365, rate=0.0, target=0.0)
        result = filter_rows([row])
        assert result.dropped == {"maturity": 1, "moneyness": 0, "arbitrage": 0}
        # fails moneyness AND arbitrage -> counted as moneyness only
        row2 = _mk_row(s_over_k=2.0, ttm_years=1.0, rate=0.0, target=0.0)
        assert filter_rows([row2]).dropped == {
            "maturity": 0, "moneyness": 1, "arbitrage": 0,
        }

    def test_exact_arbitrage_boundary_is_kept(self):
        bound = 1.1 - math.exp(-0.02 * 0.5)
        row = _mk_row(s_over_k=1.1, ttm_years=0.5, rate=0.02, target=bound)
        assert filter_rows([row]).rows == [row]

    @given(
        st.lists(
            st.builds(
                _mk_row,
                s_over_k=st.floats(0.5, 1.5),
                ttm_years=st.floats(1 / 365, 2.0),
                rate=st.floats(0.0, 0.10),
                target=st.floats(0.0, 1.5),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150)
    def test_conservation_and_idempotence(self, rows):
        result = filter_rows(rows)
        assert len(result.rows) + sum(result.dropped.values()) == len(rows)
        again = filter_rows(result.rows)
        assert again.rows == result.rows
        assert sum(again.dropped.values()) == 0

    def test_survivors_classifiable(self):
        rng = np.random.default_rng(3)
        rows = [
            _mk_row(
                s_over_k=float(rng.uniform(0.5, 1.5)),
                ttm_years=float(rng.uniform(0.0, 1.0)),
                target=float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(200)
        ]
        for row in filter_rows(rows).rows:
            row.moneyness()  # never raises on filtered rows


# ---------------------------------------------------------------------------
# chronological split


def _dated_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    offsets = sorted(int(v) for v in rng.integers(0, 300, size=n))
    return [
        _mk_row(quote_date=D0 + timedelta(days=off), target=float(i))
        for i, off in enumerate(rng.permutation(offsets).tolist())
    ]


class TestSplitChronological:
    def test_sizes_100(self):
        split = split_chronological(_dated_rows(100))
        assert (len(split.train), len(split.val), len(split.test)) == (70, 15, 15)

    def test_sizes_10(self):
        split = split_chronological(_dated_rows(10))
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_too_few_rows_raise(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_chronological(_dated_rows(9))

    def test_chronological_ordering(self):
        split = split_chronological(_dated_rows(83, seed=5))
        assert max(r.quote_date for r in split.train) <= min(r.quote_date for r in split.val)
        assert max(r.quote_date for r in split.val) <= min(r.quote_date for r in split.test)

    def test_partition_preserves_rows(self):
        rows = _dated_rows(57, seed=7)
        split = split_chronological(rows)
        merged = split.train + split.val + split.test
        assert len(merged) == len(rows)
        assert {id(r) for r in merged} == {id(r) for r in rows}

    def test_stable_within_a_date(self):
        rows = [_mk_row(quote_date=D0, target=float(i)) for i in range(12)]
        split = split_chronological(rows)
        merged = split.train + split.val + split.test
        assert [r.target for r in merged] == [float(i) for i in range(12)]

    @given(st.integers(10, 250), st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_floor_sizes_property(self, n, seed):
        split = split_chronological(_dated_rows(n, seed=seed))
        # exact rational floors: floor(0.70 n) == 70n // 100
        assert len(split.train) == (70 * n) // 100
        assert len(split.val) == (15 * n) // 100
        assert len(split.test) == n - len(split.train) - len(split.val)

    def test_exact_multiples_are_not_rounded_down(self):
        # 0.70 * 180 is 125.999... in floating point; the split must still
        # hand 126 rows to train.
        split = split_chronological(_dated_rows(180, seed=11))
        assert (len(split.train), len(split.val), len(split.test)) == (126, 27, 27)


# ---------------------------------------------------------------------------
# sequence windows


class TestSequenceWindows:
    def setup_method(self):
        self.x = np.arange(5, dtype=np.float64)[:, None] * [1.0, 10.0]
        self.y = np.arange(5, dtype=np.float64) * 10.0

    def test_overlapping_counts_and_alignment(self):
        batch = windows_overlapping(self.x, self.y, timesteps=3)
        assert batch.inputs.shape == (3, 3, 2)
        np.testing.assert_array_equal(batch.inputs[:, :, 0], [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        np.testing.assert_array_equal(batch.targets, [20.0, 30.0, 40.0])

    def test_causal_counts_and_alignment(self):
        batch = windows_causal(self.x, self.y, timesteps=3)
        assert batch.inputs.shape == (2, 3, 2)
        np.testing.assert_array_equal(batch.inputs[:, :, 0], [[0, 1, 2], [1, 2, 3]])
        np.testing.assert_array_equal(batch.targets, [30.0, 40.0])

    def test_timestep_one(self):
        over = windows_overlapping(self.x, self.y, timesteps=1)
        assert over.inputs.shape == (5, 1, 2)
        np.testing.assert_array_equal(over.targets, self.y)
        causal = windows_causal(self.x, self.y, timesteps=1)
        assert causal.inputs.shape == (4, 1, 2)
        np.testing.assert_array_equal(causal.targets, self.y[1:])

    def test_causal_never_includes_target_row(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        for t in (1, 3, 7):
            batch = windows_causal(x, y, timesteps=t)
            for i in range(batch.inputs.shape[0]):
                np.testing.assert_array_equal(batch.inputs[i], x[i : i + t])
                assert batch.targets[i] == y[i + t]  # strictly after the window

    def test_overlapping_last_row_is_target_row(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        batch = windows_overlapping(x, y, timesteps=4)
        for i in range(batch.inputs.shape[0]):
            np.testing.assert_array_equal(batch.inputs[i, -1], x[i + 3])
            assert batch.targets[i] == y[i + 3]

    def test_length_requirements(self):
        with pytest.raises(ValueError, match="at least"):
            windows_overlapping(self.x[:2], self.y[:2], timesteps=3)
        with pytest.raises(ValueError, match="more than"):
            windows_causal(self.x[:3], self.y[:3], timesteps=3)
        with pytest.raises(ValueError, match="timesteps"):
            windows_overlapping(self.x, self.y, timesteps=0)
        with pytest.raises(ValueError, match="targets length"):
            windows_causal(self.x, self.y[:4], timesteps=2)

    def test_outputs_are_copies(self):
        batch = windows_overlapping(self.x, self.y, timesteps=2)
        batch.inputs[0, 0, 0] = 999.0
        batch.targets[0] = 999.0
        assert self.x[0, 0] == 0.0 and self.y[1] == 10.0


# ---------------------------------------------------------------------------
# synthetic market


def _small_cfg(**overrides):
    base = dict(
        tickers=(TickerConfig("AA", s0=100.0, drift=0.05, vol=0.2),),
        start=date(2021, 6, 1),
        n_quote_days=3,
        strike_multipliers=(0.9, 1.0, 1.1),
        expiry_days=(30, 60),
        warmup_days=95,
        rate=0.03,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSyntheticMarket:
    def test_quote_count_and_order(self):
        data = generate_synthetic_dataset(_small_cfg(), seed=1)
        assert len(data.quotes) == 1 * 3 * 3 * 2
        q0, q1, q2 = _quote_rows(data.quotes)[:3]
        assert q0.quote_date == q1.quote_date == q2.quote_date == date(2021, 6, 1)
        assert (q1.expiry_date - q0.expiry_date).days == 30  # expiry varies fastest
        assert q2.strike_price > q0.strike_price  # then the strike grid

    def test_deterministic_given_seed(self):
        a = generate_synthetic_dataset(_small_cfg(noise=0.01), seed=7)
        b = generate_synthetic_dataset(_small_cfg(noise=0.01), seed=7)
        c = generate_synthetic_dataset(_small_cfg(noise=0.01), seed=8)
        assert _quote_rows(a.quotes) == _quote_rows(b.quotes)
        assert a.underlying == b.underlying
        assert a.rates == b.rates
        assert _quote_rows(a.quotes) != _quote_rows(c.quotes)

    def test_zero_noise_mid_is_closed_form_price(self):
        data = generate_synthetic_dataset(_small_cfg(), seed=2)
        closes = {d: c for d, c in data.underlying["AA"]}
        for q in _quote_rows(data.quotes):
            spot = closes[q.quote_date]
            assert q.underlying_close == spot
            ttm = (q.expiry_date - q.quote_date).days / 365.0
            price = float(
                call_price_grid(spot, q.strike_price / 1000.0, q.risk_free_rate, 0.2, ttm)
            )
            assert _mid(q) == pytest.approx(price, rel=1e-12)

    def test_half_spread_brackets_the_mid(self):
        data = generate_synthetic_dataset(_small_cfg(half_spread=0.01), seed=3)
        flat = generate_synthetic_dataset(_small_cfg(), seed=3)
        for wide, tight in zip(_quote_rows(data.quotes), _quote_rows(flat.quotes)):
            mid = _mid(tight)
            assert wide.best_bid == pytest.approx(mid * 0.99, rel=1e-15)
            assert wide.best_offer == pytest.approx(mid * 1.01, rel=1e-15)
            assert _mid(wide) == pytest.approx(mid, rel=1e-14)

    def test_noise_perturbs_within_band(self):
        noisy = generate_synthetic_dataset(_small_cfg(noise=0.05), seed=4)
        clean = generate_synthetic_dataset(_small_cfg(), seed=4)
        ratios = [
            _mid(a) / _mid(b) for a, b in zip(_quote_rows(noisy.quotes), _quote_rows(clean.quotes))
        ]
        assert all(0.95 <= r <= 1.05 for r in ratios)
        assert any(abs(r - 1.0) > 1e-4 for r in ratios)

    def test_underlying_covers_warmup(self):
        data = generate_synthetic_dataset(_small_cfg(), seed=5)
        series = data.underlying["AA"]
        assert len(series) == 95 + 3
        assert series[0][0] == date(2021, 6, 1) - timedelta(days=95)
        assert series[0][1] == 100.0  # s0 anchors the path
        assert set(data.rates) == {d for d, _ in series}

    def test_constant_rate_by_default(self):
        data = generate_synthetic_dataset(_small_cfg(), seed=6)
        assert set(data.rates.values()) == {0.03}

    def test_rate_walk_stays_clipped(self):
        data = generate_synthetic_dataset(
            _small_cfg(rate_walk_std=0.05, n_quote_days=5), seed=7
        )
        vals = list(data.rates.values())
        assert len(set(vals)) > 1
        assert all(0.0 <= v <= 0.25 for v in vals)

    def test_realized_pricing_uses_path_vol(self):
        cfg = _small_cfg(pricing_vol="realized:90")
        data = generate_synthetic_dataset(cfg, seed=8)
        closes = np.array([c for _, c in data.underlying["AA"]])
        dates = [d for d, _ in data.underlying["AA"]]
        by_date = {d: i for i, d in enumerate(dates)}
        for q in _quote_rows(data.quotes)[:6]:
            ci = by_date[q.quote_date]
            sigma = realized_vol(closes[: ci + 1], 90).value
            ttm = (q.expiry_date - q.quote_date).days / 365.0
            price = float(
                call_price_grid(
                    q.underlying_close, q.strike_price / 1000.0,
                    q.risk_free_rate, sigma, ttm,
                )
            )
            assert _mid(q) == pytest.approx(price, rel=1e-12)

    def test_quotes_reprice_from_published_features(self):
        # With realized-vol pricing and no noise, the target is an exact
        # function of the published features (homogeneity: C/K = C(S/K, 1)).
        cfg = _small_cfg(pricing_vol="realized:90", n_quote_days=4)
        data = generate_synthetic_dataset(cfg, seed=9)
        result = build_features(data.quotes, data.underlying)
        assert len(result.table) and not any(result.skipped.values())
        for row in result.table.to_rows():
            pred = float(
                call_price_grid(row.s_over_k, 1.0, row.rate, row.sigmas[90], row.ttm_years)
            )
            assert row.target == pytest.approx(pred, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="warmup"):
            _small_cfg(warmup_days=60)
        with pytest.raises(ValueError, match="pricing_vol"):
            _small_cfg(pricing_vol="implied")
        with pytest.raises(ValueError, match="realized pricing window"):
            _small_cfg(pricing_vol="realized:96")
        with pytest.raises(ValueError, match="noise"):
            _small_cfg(noise=1.0)
        with pytest.raises(ValueError, match="ticker"):
            _small_cfg(tickers=())
        with pytest.raises(ValueError, match="strike"):
            _small_cfg(strike_multipliers=())
        with pytest.raises(ValueError, match="expiry"):
            _small_cfg(expiry_days=(0,))


def _reference_synth(cfg, seed):
    """The per-quote generator that the single pricing pass replaced: one
    ``realized_vol`` per (ticker, day), one scalar ``call_price_grid`` call
    and one noise draw per quote, each quote checked by QuoteRecord and kept
    as a _Quote."""
    rng = np.random.default_rng(seed)
    total_days = cfg.warmup_days + cfg.n_quote_days
    first_day = cfg.start - timedelta(days=cfg.warmup_days)
    all_dates = [first_day + timedelta(days=i) for i in range(total_days)]
    quote_dates = all_dates[cfg.warmup_days :]

    dt = 1.0 / 252.0
    underlying, closes_arr = {}, {}
    for tk in cfg.tickers:
        z = rng.standard_normal(total_days - 1)
        increments = (tk.drift - 0.5 * tk.vol**2) * dt + tk.vol * math.sqrt(dt) * z
        closes = tk.s0 * np.exp(np.concatenate([[0.0], np.cumsum(increments)]))
        closes_arr[tk.name] = closes
        underlying[tk.name] = list(zip(all_dates, closes.tolist()))

    if cfg.rate_walk_std > 0.0:
        steps = rng.normal(0.0, cfg.rate_walk_std, size=total_days - 1)
        walk = np.clip(cfg.rate + np.concatenate([[0.0], np.cumsum(steps)]), 0.0, 0.25)
    else:
        walk = np.full(total_days, cfg.rate)
    rates = dict(zip(all_dates, walk.tolist()))

    realized_window = None
    if cfg.pricing_vol.startswith("realized:"):
        realized_window = int(cfg.pricing_vol.split(":", 1)[1])

    quotes = []
    for tk in cfg.tickers:
        closes = closes_arr[tk.name]
        for day_idx, qdate in enumerate(quote_dates):
            ci = cfg.warmup_days + day_idx
            spot = float(closes[ci])
            r = rates[qdate]
            if realized_window is None:
                sigma = tk.vol
            else:
                sigma = realized_vol(closes[: ci + 1], realized_window).value
            for mult in cfg.strike_multipliers:
                strike = mult * spot
                for days_out in cfg.expiry_days:
                    price = float(call_price_grid(spot, strike, r, sigma, days_out / 365.0))
                    mid = price
                    if cfg.noise > 0.0:
                        mid = price * (1.0 + rng.uniform(-cfg.noise, cfg.noise))
                    quote = QuoteRecord(
                        quote_date=qdate,
                        expiry_date=qdate + timedelta(days=days_out),
                        ticker=tk.name,
                        best_bid=mid * (1.0 - cfg.half_spread),
                        best_offer=mid * (1.0 + cfg.half_spread),
                        strike_price=strike * 1000.0,
                    )
                    quotes.append(_Quote(*astuple(quote), spot, r))
    return SyntheticData(quotes=quotes, underlying=underlying, rates=rates)


_THREE_TICKERS = (
    TickerConfig("AA", s0=100.0, drift=0.05, vol=0.2),
    TickerConfig("FLAT", s0=40.0, drift=0.02, vol=0.0),
    TickerConfig("WILD", s0=250.0, drift=-0.1, vol=0.7),
)


class TestSinglePricingPass:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"noise": 0.03},
            {"half_spread": 0.01, "noise": 0.02},
            {"pricing_vol": "realized:20", "rate_walk_std": 0.004, "noise": 0.05},
            {"pricing_vol": "realized:90", "half_spread": 0.005},
        ],
        ids=["gbm", "gbm-noise", "gbm-spread-noise", "realized20-walk-noise", "realized90-spread"],
    )
    @pytest.mark.parametrize("seed", [0, 17])
    def test_matches_per_quote_reference_exactly(self, overrides, seed):
        cfg = _small_cfg(
            tickers=_THREE_TICKERS,
            n_quote_days=6,
            strike_multipliers=(0.7, 0.9, 1.0, 1.1, 1.3),
            expiry_days=(1, 30, 91, 365),
            **overrides,
        )
        data = generate_synthetic_dataset(cfg, seed)
        ref = _reference_synth(cfg, seed)
        assert _quote_rows(data.quotes) == ref.quotes
        assert data.underlying == ref.underlying
        assert data.rates == ref.rates

    def test_one_pricing_call_and_no_scalar_vol(self, monkeypatch):
        calls = {"call_price_grid": 0, "realized_vol": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            market_data, "call_price_grid", counted("call_price_grid", call_price_grid)
        )
        counted_vol = counted("realized_vol", realized_vol)
        monkeypatch.setattr(vol, "realized_vol", counted_vol)
        monkeypatch.setattr(market_data, "realized_vol", counted_vol, raising=False)
        cfg = _small_cfg(tickers=_THREE_TICKERS, pricing_vol="realized:20", noise=0.01)
        data = generate_synthetic_dataset(cfg, seed=1)
        assert len(data.quotes) == 3 * 3 * 3 * 2
        assert calls == {"call_price_grid": 1, "realized_vol": 0}


# ---------------------------------------------------------------------------
# CSV io


_POSITIVE_EDGES = st.sampled_from(
    [5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 1.0, 0.1]
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TICKERS = st.sampled_from(["AA", 'A,"B', 'say "hi", twice', "x y", ""])


@st.composite
def _edge_feature_rows(draw):
    """Rows of subnormals, values near 1e308, -0.0 and 0.0 rates, a sigma
    column whose values lie one ulp apart, and tickers that need quoting."""
    positive = st.one_of(_POSITIVE_EDGES, st.floats(min_value=5e-324, allow_infinity=False))
    base = draw(st.one_of(_POSITIVE_EDGES, _FINITE))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        sigmas = {w: draw(st.one_of(_POSITIVE_EDGES, _FINITE)) for w in STANDARD_WINDOWS}
        neighbour = math.nextafter(base, 0.0 if abs(base) > 1.0 else math.inf)
        sigmas[20] = draw(st.sampled_from([base, neighbour]))
        rows.append(FeatureRow(
            quote_date=draw(st.dates()), ticker=draw(_TICKERS),
            s_over_k=draw(positive), strike=draw(positive), ttm_years=draw(positive),
            rate=draw(st.one_of(st.sampled_from([0.0, -0.0]), _FINITE)),
            sigmas=sigmas, target=draw(st.one_of(_POSITIVE_EDGES, _FINITE)),
        ))
    return rows


@st.composite
def _near_arbitrage_bound_rows(draw):
    """Tradable rows whose target is the bound s_over_k - exp(-r tau), or one
    ulp to either side of it."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        s_over_k = draw(st.floats(MONEYNESS_LO, MONEYNESS_HI))
        ttm = draw(st.one_of(st.just(15 / 365), st.floats(15 / 365, 3.0)))
        rate = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.05, 0.25)))
        bound = s_over_k - math.exp(-rate * ttm)
        target = draw(st.sampled_from(
            [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
        ))
        rows.append(_mk_row(s_over_k=s_over_k, ttm_years=ttm, rate=rate, target=target,
                            sigmas={w: 0.2 for w in STANDARD_WINDOWS}))
    return rows


class TestCsvRoundTrips:
    def test_quotes_round_trip_exact(self, tmp_path):
        data = generate_synthetic_dataset(_small_cfg(noise=0.02), seed=10)
        path = tmp_path / "quotes.csv"
        write_quotes_csv(data.quotes, path)
        back = read_quotes_csv(path)
        assert back.close is None and back.rate is None
        assert _quote_rows(back) == [q._replace(underlying_close=None, risk_free_rate=None)
                                     for q in _quote_rows(data.quotes)]
        for column in ("bid", "offer", "strike_price"):
            np.testing.assert_array_equal(getattr(back, column).view(np.int64),
                                          getattr(data.quotes, column).view(np.int64))

    def test_quotes_rewrite_is_byte_identical(self, tmp_path):
        data = generate_synthetic_dataset(_small_cfg(noise=0.02), seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_quotes_csv(data.quotes, p1)
        write_quotes_csv(read_quotes_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_underlying_round_trip_exact(self, tmp_path):
        data = generate_synthetic_dataset(_small_cfg(), seed=12)
        path = tmp_path / "underlying.csv"
        write_underlying_csv(data.underlying, path)
        assert read_underlying_csv(path) == data.underlying

    def test_rates_round_trip_exact(self, tmp_path):
        data = generate_synthetic_dataset(_small_cfg(rate_walk_std=0.01), seed=13)
        path = tmp_path / "rates.csv"
        write_rates_csv(data.rates, path)
        assert read_rates_csv(path) == data.rates

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(drawn=_edge_feature_rows(), near=_near_arbitrage_bound_rows())
    def test_features_round_trip_exact(self, drawn, near):
        """Read-after-write is bit-identical for the synthetic market's rows and
        for drawn edge values; the bytes written are the per-row writer's; the
        arbitrage mask decides as the scalar rule does within an ulp of the
        bound."""
        data = generate_synthetic_dataset(_small_cfg(noise=0.01), seed=14)
        synthetic = build_features(data.quotes, data.underlying).table
        assert len(synthetic)
        with tempfile.TemporaryDirectory() as tmp:
            for table in (synthetic, FeatureTable.from_rows(drawn)):
                path, oracle = Path(tmp) / "features.csv", Path(tmp) / "oracle.csv"
                write_features_csv(table, path)
                ref_write_features_csv(table.to_rows(), oracle)
                assert path.read_bytes() == oracle.read_bytes()
                back = read_feature_table(path)
                assert back.days.tolist() == table.days.tolist()
                tickers = [table.tickers[c] for c in table.codes]
                assert [back.tickers[c] for c in back.codes] == tickers
                for got, want in ((back.x, table.x), (back.target, table.target)):
                    assert got.flags.c_contiguous
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                rows = read_features_csv(path)
                assert rows == table.to_rows()
                np.testing.assert_array_equal(
                    FeatureTable.from_rows(rows).x.view(np.int64), table.x.view(np.int64)
                )

        near_table = FeatureTable.from_rows(near)
        columns = (near_table.column(c) for c in ("s_over_k", "ttm_years", "rate"))
        keep, dropped = filter_mask(*columns, near_table.target)
        reasons = ref_filter_decisions(near)
        assert keep.tolist() == [r is None for r in reasons]
        assert dropped == {k: reasons.count(k) for k in ("maturity", "moneyness", "arbitrage")}
        assert filter_rows(near).rows == [r for r, why in zip(near, reasons) if why is None]

    @pytest.mark.parametrize(
        "reader, text, fields, expected",
        [
            (read_quotes_csv,
             "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price\n"
             "2021-06-01,2021-07-01,AA,1.0,1.1\n", 5, 6),
            (read_underlying_csv, "date,ticker,close\n2021-06-01,AA,100.0,7\n", 4, 3),
            (read_rates_csv, "date,rate\n\n", 0, 2),
            (read_features_csv, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"])
             + "\n2021-06-01,AA,1.0\n", 3, 13),
            (read_feature_table, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"])
             + "\n2021-06-01,AA,1.0\n", 3, 13),
        ],
        ids=["quotes", "underlying", "rates", "features", "feature-table"],
    )
    def test_row_with_wrong_field_count_rejected(self, tmp_path, reader, text, fields, expected):
        path = tmp_path / "in.csv"
        path.write_text(text)
        message = re.escape(f"{path}: line 2: ") + rf"\w+ row has {fields} fields, "
        message += f"expected {expected}"
        with pytest.raises(ValueError, match=message):
            reader(path)

    @pytest.mark.parametrize(
        "reader, header, good, bad, expected",
        [
            (read_quotes_csv, "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price",
             "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
             "2021-13-01,2021-07-01,AA,1.0,1.1,95000.0", "month must be in 1..12"),
            (read_quotes_csv, "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price",
             "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
             "2021-06-01,2021-07-01,AA,nan,1.1,95000.0", "not a finite number: 'nan'"),
            (read_quotes_csv, "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price",
             "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
             "2021-06-01,2021-07-01,AA,1.2,1.1,95000.0", "crossed quote"),
            (read_underlying_csv, "date,ticker,close", "2021-06-01,AA,100.0",
             "2021-06-02,AA,abc", "could not convert string to float: 'abc'"),
            (read_rates_csv, "date,rate", "2021-06-01,0.03",
             "June 2,0.03", "Invalid isoformat string: 'June 2'"),
            (read_rates_csv, "date,rate", "2021-06-01,0.03",
             "2021-06-02,-inf", "not a finite number: '-inf'"),
            (read_rates_csv, "date,rate", "2021-06-01,0.03",
             "2021-06-01,0.5", "rates row repeats the date of line 2"),
            (read_rates_csv, "date,rate", "2021-06-01,0.03",
             "2021-06-02," + "1" * 200_000, "field larger than field limit"),
            (read_underlying_csv, "date,ticker,close", "2021-06-01,AA,100.0",
             "2021-06-01,AA,101.0", "underlying row repeats the date and ticker of line 2"),
            (read_underlying_csv, "date,ticker,close", "2021-06-01,AA,100.0",
             "2021-06-02,AA,0.0", "close must be positive, got '0.0'"),
            (read_underlying_csv, "date,ticker,close", "2021-06-01,AA,100.0",
             "2021-06-02,AA,-5.0", "close must be positive, got '-5.0'"),
            (read_features_csv, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"]),
             "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "2021-06-02,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,inf",
             "non-finite feature row for AA 2021-06-02"),
            (read_features_csv, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"]),
             "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "2021-06-31,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "day is out of range for month"),
            (read_feature_table, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"]),
             "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "2021-06-02,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,inf",
             "non-finite feature row for AA 2021-06-02"),
            (read_feature_table, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"]),
             "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "2021-06-31,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "day is out of range for month"),
            (read_feature_table, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"]),
             "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "2021-06-02,AA,0.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05",
             "s_over_k, strike, and ttm_years must be positive"),
        ],
        ids=["quotes-date", "quotes-nan", "quotes-crossed", "underlying-close",
             "rates-date", "rates-inf", "rates-repeated-date", "rates-overlong-field",
             "underlying-repeated-date",
             "underlying-zero-close", "underlying-negative-close", "features-inf", "features-date",
             "feature-table-inf", "feature-table-date", "feature-table-positive"],
    )
    def test_value_that_does_not_parse_names_file_and_line(
        self, tmp_path, reader, header, good, bad, expected
    ):
        path = tmp_path / "in.csv"
        path.write_text(f"{header}\n{good}\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {expected}")):
            reader(path)

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_line_numbers_count_breaks_inside_quoted_fields(self, tmp_path, monkeypatch, chunk):
        """A quoted field that holds line breaks makes its row span lines; the
        line named is still the one csv.reader reports, across chunks."""
        monkeypatch.setattr(market_data, "_CHUNK_LINES", chunk)
        values = "1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05"
        path = tmp_path / "in.csv"
        path.write_bytes(
            (",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"]) + "\r\n"
             + f'2021-06-01,"A\nB",{values}\r\n2021-06-01,"C\r\nD\rE",{values}\r\n'
             + f"2021-06-01,F,{values}\r\n2021-06-31,G,{values}\r\n2021-06-02,H,{values}\r\n"
             ).encode()
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 8: day is out of range")):
            read_feature_table(path)

    def test_attach_market_data_joins_and_skips(self, tmp_path):
        data = generate_synthetic_dataset(_small_cfg(), seed=15)
        path = tmp_path / "quotes.csv"
        write_quotes_csv(data.quotes, path)
        quotes = read_quotes_csv(path)

        joined, skipped = attach_market_data(quotes, data.underlying, data.rates)
        assert skipped == {"no_underlying_close": 0, "no_rate": 0}
        assert _quote_rows(joined) == _quote_rows(data.quotes)

        # a quote whose date or ticker is missing from the series, or whose
        # date is missing from the rates, gets skipped; the rest keep order
        first = date.fromordinal(int(quotes.days[0]))
        mixed = QuoteTable.of(
            [date(1999, 1, 1).toordinal(), *quotes.days[:3], first.toordinal()],
            [date(1999, 2, 1).toordinal(), *quotes.expiries[:3], quotes.expiries[0]],
            ["AA", "AA", "AA", "AA", "ZZ"], [1.0, *quotes.bid[:3], 1.0],
            [2.0, *quotes.offer[:3], 2.0], [1000.0, *quotes.strike_price[:3], 1000.0],
        )
        joined, skipped = attach_market_data(mixed, data.underlying, data.rates)
        assert skipped == {"no_underlying_close": 2, "no_rate": 0}
        assert _quote_rows(joined) == _quote_rows(data.quotes)[:3]
        no_rates = {d: r for d, r in data.rates.items() if d != first}
        joined, skipped = attach_market_data(mixed, data.underlying, no_rates)
        assert len(joined) == 0 and skipped == {"no_underlying_close": 2, "no_rate": 3}
