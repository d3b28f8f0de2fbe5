"""Quote types, moneyness bands, feature building, filters, splits, sequence
windows, the synthetic market generator, and the CSV round trips."""

import codecs
import csv
import hashlib
import io
import json
import math
import os
import re
import struct
import tempfile
from collections import namedtuple
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optionlab import market_data
from optionlab.bs import call_price_grid
from optionlab.market_data import (
    ATM_HI,
    FEATURE_COLUMNS,
    ATM_LO,
    MONEYNESS_HI,
    MONEYNESS_LO,
    FeatureTable,
    MoneynessCategory,
    QuoteTable,
    SequenceWindows,
    SynthConfig,
    SyntheticData,
    TickerConfig,
    attach_market_data,
    build_features,
    classify_moneyness,
    filter_mask,
    generate_synthetic_dataset,
    moneyness_masks,
    read_feature_table,
    read_quotes_csv,
    read_rates_csv,
    read_underlying_csv,
    sequence_windows,
    split_indices,
    write_features_csv,
    write_quotes_csv,
    write_rates_csv,
    write_underlying_csv,
)
from optionlab.vol import STANDARD_WINDOWS, rolling_vols
from reference_impls import (
    RAW_CSVS,
    FeatureRecord,
    _feature_error,
    _quote_error,
    feature_columns,
    ref_filter_decisions,
    ref_read_raw_csv,
    realized_vol,
    ref_write_features_csv,
    windows_causal,
    windows_overlapping,
)

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
    return FeatureRecord(
        quote_date=quote_date,
        ticker=ticker,
        s_over_k=s_over_k,
        strike=strike,
        ttm_years=ttm_years,
        rate=rate,
        sigmas={w: 0.2 for w in STANDARD_WINDOWS} if sigmas is None else sigmas,
        target=target,
    )


def _table(rows):
    return FeatureTable.of(*feature_columns(rows))


def _records(table):
    """A FeatureRecord per row of a table, in order."""
    return [FeatureRecord(date.fromordinal(d), table.tickers[c], *f[:4],
                          dict(zip(STANDARD_WINDOWS, f[4:])), t)
            for d, c, f, t in zip(table.days.tolist(), table.codes.tolist(), table.x.tolist(),
                                  table.target.tolist())]


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


def _one_quote(days_out, bid, offer, strike):
    return QuoteTable.of([D0.toordinal()], [D0.toordinal() + days_out], ["AA"], [bid], [offer],
                         [strike])


_QUOTE_VALUES = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(
    [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]))
_FEATURE_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0])


@st.composite
def _feature_columns(draw):
    """(days, tickers, x rows, targets) of up to six rows: positive values,
    some of them replaced by NaN, an infinity, a zero of either sign or a
    negative number."""
    n = draw(st.integers(0, 6))
    days = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    names = draw(st.lists(st.sampled_from(["AA", "BB"]), min_size=n, max_size=n))
    values = [draw(st.lists(st.sampled_from([0.25, 1.0, 3.5]), min_size=11, max_size=11))
              for _ in range(n)]
    for row in values:
        for column, value in draw(st.lists(st.tuples(st.integers(0, 10), _FEATURE_EDGES),
                                           max_size=2)):
            row[column] = value
    return [D0.toordinal() + d for d in days], names, values


def _assert_checks_match(table, errors):
    """``rejected`` marks exactly the rows with an oracle error, and ``check``
    raises the first of those errors, or returns when there is none."""
    assert table.rejected().tolist() == [e is not None for e in errors]
    first = next((e for e in errors if e is not None), None)
    if first is None:
        table.check()
    else:
        with pytest.raises(ValueError) as raised:
            table.check()
        assert str(raised.value) == first


class TestQuoteTypes:
    def test_valid_quote(self):
        table = _one_quote(30, 1.0, 2.0, 100000.0)
        table.check()
        assert _quote_rows(table) == [_Quote(D0, D0 + timedelta(days=30), "AA", 1.0, 2.0, 100000.0)]

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _one_quote(30, -0.5, 2.0, 100000.0).check()

    def test_crossed_quote_rejected(self):
        with pytest.raises(ValueError, match="crossed"):
            _one_quote(30, 3.0, 2.0, 100000.0).check()

    def test_expiry_must_follow_quote_date(self):
        with pytest.raises(ValueError, match="expiry"):
            _one_quote(0, 1.0, 2.0, 100000.0).check()

    def test_strike_must_be_positive(self):
        with pytest.raises(ValueError, match="strike"):
            _one_quote(30, 1.0, 2.0, 0.0).check()

    def test_zero_width_quote(self):
        table = _one_quote(1, 0.0, 0.0, 1000.0)
        table.check()
        assert (table.bid.tolist(), table.offer.tolist()) == ([0.0], [0.0])

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 3), *[_QUOTE_VALUES] * 3),
                    max_size=6))
    def test_quote_table_checks_match_the_row_oracle(self, quotes):
        """Quotes with NaN, infinities, -0.0, a zero strike, a same-day or
        earlier expiry and crossed prices: the table rejects exactly the
        quotes that the per-row oracle rejects, with the first one's error."""
        rows = [(D0.toordinal() + day, D0.toordinal() + day + out, "AA", bid, offer, strike)
                for day, out, bid, offer, strike in quotes]
        table = QuoteTable.of(*([row[k] for row in rows] for k in range(6)))
        _assert_checks_match(table, [_quote_error(*row) for row in rows])

    @settings(max_examples=200)
    @given(_feature_columns())
    def test_feature_table_checks_match_the_row_oracle(self, columns):
        """Feature rows with NaN, infinities, zeros of either sign and
        negative values: the table rejects exactly the rows that the per-row
        oracle rejects, with the first one's error."""
        days, names, values = columns
        table = FeatureTable.of(days, names, [v[:10] for v in values], [v[10] for v in values])
        _assert_checks_match(table, [_feature_error(d, t, *v)
                                     for d, t, v in zip(days, names, values)])


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
        bands = moneyness_masks(_table([_mk_row(s_over_k=0.9)]).column("s_over_k"))
        assert {band: mask.tolist() for band, mask in bands.items()} == {
            "otm": [True], "atm": [False], "itm": [False]}


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
        (row,) = _records(result.table)
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
        (row,) = _records(build_features(quotes, series).table)
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
        assert result.table.target.tolist() == [1.5 / 100.0]
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
        table = _table([row])
        np.testing.assert_array_equal(table.x, [expected])
        np.testing.assert_array_equal(table.target, [row.target])

    def test_non_finite_row_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            _table([_mk_row(target=float("inf"))]).check()


# ---------------------------------------------------------------------------
# filters


def _filter(rows):
    """(the rows that filter_mask keeps of a table of ``rows``, in order; its
    drop counts)."""
    table = _table(rows)
    keep, dropped = filter_mask(table.column("s_over_k"), table.column("ttm_years"),
                                table.column("rate"), table.target)
    return [r for r, k in zip(rows, keep.tolist()) if k], dropped


class TestFilterRows:
    def test_arbitrage_bound_hand_example(self):
        # S=110, K=100, r=0, tau=1: the no-arbitrage floor is S/K - 1 = 0.1,
        # so C=5 (target 0.05) violates it and C=15 (target 0.15) does not.
        bad = _mk_row(s_over_k=1.1, ttm_years=1.0, rate=0.0, target=0.05)
        good = _mk_row(s_over_k=1.1, ttm_years=1.0, rate=0.0, target=0.15)
        assert _filter([bad, good]) == ([good], {"maturity": 0, "moneyness": 0, "arbitrage": 1})

    def test_maturity_boundary(self):
        too_short = _mk_row(ttm_years=14 / 365)
        at_limit = _mk_row(ttm_years=15 / 365)
        kept, dropped = _filter([too_short, at_limit])
        assert kept == [at_limit]
        assert dropped["maturity"] == 1

    def test_moneyness_boundaries_inclusive(self):
        # target 0.5 clears the arbitrage floor everywhere in [0.8, 1.2]
        rows = [
            _mk_row(s_over_k=0.79, target=0.5),
            _mk_row(s_over_k=0.80, target=0.5),
            _mk_row(s_over_k=1.20, target=0.5),
            _mk_row(s_over_k=1.21, target=0.5),
        ]
        kept, dropped = _filter(rows)
        assert [r.s_over_k for r in kept] == [0.80, 1.20]
        assert dropped["moneyness"] == 2

    def test_precedence_counts_first_failing_reason(self):
        # fails maturity AND moneyness AND arbitrage -> counted as maturity only
        row = _mk_row(s_over_k=2.0, ttm_years=1 / 365, rate=0.0, target=0.0)
        assert _filter([row])[1] == {"maturity": 1, "moneyness": 0, "arbitrage": 0}
        # fails moneyness AND arbitrage -> counted as moneyness only
        row2 = _mk_row(s_over_k=2.0, ttm_years=1.0, rate=0.0, target=0.0)
        assert _filter([row2])[1] == {
            "maturity": 0, "moneyness": 1, "arbitrage": 0,
        }

    def test_exact_arbitrage_boundary_is_kept(self):
        bound = 1.1 - math.exp(-0.02 * 0.5)
        row = _mk_row(s_over_k=1.1, ttm_years=0.5, rate=0.02, target=bound)
        assert _filter([row])[0] == [row]

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
        kept, dropped = _filter(rows)
        assert len(kept) + sum(dropped.values()) == len(rows)
        again, dropped_again = _filter(kept)
        assert again == kept
        assert sum(dropped_again.values()) == 0

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
        kept, _ = _filter(rows)
        for row in kept:
            classify_moneyness(row.s_over_k)  # never raises on filtered rows
        moneyness_masks(_table(kept).column("s_over_k"))


# ---------------------------------------------------------------------------
# chronological split


def _dated_days(n, seed=0):
    """n day ordinals in random order, some repeated."""
    rng = np.random.default_rng(seed)
    offsets = sorted(int(v) for v in rng.integers(0, 300, size=n))
    return D0.toordinal() + rng.permutation(offsets)


class TestSplitChronological:
    def test_sizes_100(self):
        split = split_indices(_dated_days(100))
        assert (len(split.train), len(split.val), len(split.test)) == (70, 15, 15)

    def test_sizes_10(self):
        split = split_indices(_dated_days(10))
        assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)

    def test_too_few_rows_raise(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_indices(_dated_days(9))

    def test_chronological_ordering(self):
        days = _dated_days(83, seed=5)
        split = split_indices(days)
        assert days[split.train].max() <= days[split.val].min()
        assert days[split.val].max() <= days[split.test].min()

    def test_partition_preserves_rows(self):
        split = split_indices(_dated_days(57, seed=7))
        merged = np.concatenate([split.train, split.val, split.test])
        assert sorted(merged.tolist()) == list(range(57))

    def test_stable_within_a_date(self):
        split = split_indices([D0.toordinal()] * 12)
        merged = np.concatenate([split.train, split.val, split.test])
        assert merged.tolist() == list(range(12))

    @given(st.integers(10, 250), st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_floor_sizes_property(self, n, seed):
        split = split_indices(_dated_days(n, seed=seed))
        # exact rational floors: floor(0.70 n) == 70n // 100
        assert len(split.train) == (70 * n) // 100
        assert len(split.val) == (15 * n) // 100
        assert len(split.test) == n - len(split.train) - len(split.val)

    def test_exact_multiples_are_not_rounded_down(self):
        # 0.70 * 180 is 125.999... in floating point; the split must still
        # hand 126 rows to train.
        split = split_indices(_dated_days(180, seed=11))
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

    @pytest.mark.parametrize("windows, lag", [(windows_overlapping, 0), (windows_causal, 1)])
    def test_windows_equal_the_index_definition(self, windows, lag):
        """Window i is rows i .. i+T-1 of x, as fancy indexing gathers them,
        paired with y[i+T-1+lag]; both arrays are read-only views of x and y."""
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(30, 4)), rng.normal(size=30)
        for t in (1, 2, 5, 30 - lag):
            batch = windows(x, y, timesteps=t)
            idx = np.arange(30 - t + 1 - lag)[:, None] + np.arange(t)
            np.testing.assert_array_equal(batch.inputs, x[idx])
            np.testing.assert_array_equal(batch.targets, y[t - 1 + lag :])
            for view, base in ((batch.inputs, x), (batch.targets, y)):
                assert np.shares_memory(view, base) and not view.flags.writeable

    @pytest.mark.parametrize("mode, starts, target_rows",
                             [("causal", [0, 1], [3, 4]), ("overlapping", [0, 1, 2], [2, 3, 4])])
    def test_constructor_counts_and_alignment(self, mode, starts, target_rows):
        """One ticker's five rows in 3-step windows: causal windows are
        scored on the row after them, overlapping ones on their last row."""
        table = FeatureTable.of(np.arange(5) + D0.toordinal(), ["AA"] * 5,
                                np.arange(5.0)[:, None] * np.ones(10), self.y)
        inputs, targets, scored = sequence_windows(table, mode, 3, "train")
        assert inputs.starts.tolist() == starts and inputs.shape == (len(starts), 3, 10)
        np.testing.assert_array_equal(targets, self.y[target_rows])
        assert scored.days.tolist() == [D0.toordinal() + r for r in target_rows]
        with pytest.raises(ValueError, match="timesteps must be >= 1, got 0"):
            sequence_windows(table, mode, 0, "train")
        with pytest.raises(ValueError, match="window mode must be one of"):
            sequence_windows(table, mode[:4], 3, "train")

    def test_outputs_are_read_only_views(self):
        batch = windows_overlapping(self.x, self.y, timesteps=2)
        with pytest.raises(ValueError, match="read-only"):
            batch.inputs[0, 0, 0] = 999.0
        with pytest.raises(ValueError, match="read-only"):
            batch.targets[0] = 999.0
        assert self.x[0, 0] == 0.0 and self.y[1] == 10.0
        assert self.x.flags.writeable and self.y.flags.writeable

    def test_row_index_windows_gather_the_index_definition(self):
        """SequenceWindows: window i is rows[starts[i] : starts[i] + T]; a
        slice, an index array or an integer gathers what fancy indexing of
        the materialized [M, T, F] array gives, as a C-contiguous copy."""
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(20, 3))
        starts = np.array([0, 1, 2, 9, 10, 16])
        w = SequenceWindows(rows, starts, 4)
        full = rows[starts[:, None] + np.arange(4)]
        assert w.shape == full.shape == (6, 4, 3) and len(w) == 6
        for idx in (slice(None), slice(2, 5), np.array([5, 0, 3, 3]), np.arange(0), 4):
            got = w[idx]
            np.testing.assert_array_equal(got, full[idx])
            assert got.shape == full[idx].shape and got.flags.c_contiguous
            assert not np.shares_memory(got, rows)


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
        for row in _records(result.table):
            pred = float(
                call_price_grid(row.s_over_k, 1.0, row.rate, row.sigmas[90], row.ttm_years)
            )
            assert row.target == pytest.approx(pred, rel=1e-12)

    def test_market_may_reach_both_ends_of_the_calendar(self):
        """The first warm-up close may fall on date.min and the last expiry
        on date.max; one day further is a config error before any draw."""
        cfg = _small_cfg(start=date.min + timedelta(days=95), n_quote_days=2)
        closes = generate_synthetic_dataset(cfg, seed=1).underlying["AA"]
        assert closes[0][0] == date.min
        last = date.max - timedelta(days=60)  # the last quote day, its 60-day expiry date.max
        data = generate_synthetic_dataset(_small_cfg(start=last - timedelta(days=2)), seed=1)
        assert data.quotes.expiries.max() == date.max.toordinal()
        with pytest.raises(ValueError, match="minus warmup_days 96 falls before 0001-01-01"):
            _small_cfg(start=date.min + timedelta(days=95), warmup_days=96)
        with pytest.raises(ValueError, match=re.escape("expiry_days[1] 60 falls after 9999-12-31")):
            _small_cfg(start=last - timedelta(days=1))

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
        # a repeated key would write two paths under one name, or a quote row twice
        with pytest.raises(ValueError, match=re.escape("tickers[1].name 'AA' repeats "
                                                       "tickers[0].name")):
            _small_cfg(tickers=(TickerConfig("AA", s0=100.0, drift=0.0, vol=0.2),
                                TickerConfig("AA", s0=50.0, drift=0.0, vol=0.2)))
        with pytest.raises(ValueError, match=re.escape("strike_multipliers[3] 1.0 repeats "
                                                       "strike_multipliers[1]")):
            _small_cfg(strike_multipliers=(0.9, 1.0, 1.1, 1.0))
        with pytest.raises(ValueError, match=re.escape("expiry_days[1] 30 repeats "
                                                       "expiry_days[0]")):
            _small_cfg(expiry_days=(30, 30))
        # no CSV read could parse a longer name
        limit = csv.field_size_limit()
        _small_cfg(tickers=(TickerConfig("A" * limit, s0=100.0, drift=0.0, vol=0.2),))
        with pytest.raises(ValueError, match=re.escape(
                f"tickers[1].name 'BBBBBBBBBBBBBBBBBBBB'... is longer than the CSV field"
                f" limit ({limit})")):
            _small_cfg(tickers=(TickerConfig("AA", s0=100.0, drift=0.0, vol=0.2),
                                TickerConfig("B" * (limit + 1), s0=100.0, drift=0.0, vol=0.2)))


def _reference_synth(cfg, seed):
    """The per-quote generator that the single pricing pass replaced: one
    ``realized_vol`` per (ticker, day), one scalar ``call_price_grid`` call
    and one noise draw per quote, each quote kept as a _Quote."""
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
                    quotes.append(_Quote(
                        quote_date=qdate,
                        expiry_date=qdate + timedelta(days=days_out),
                        ticker=tk.name,
                        best_bid=mid * (1.0 - cfg.half_spread),
                        best_offer=mid * (1.0 + cfg.half_spread),
                        strike_price=strike * 1000.0,
                        underlying_close=spot,
                        risk_free_rate=r,
                    ))
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
        """One vol array per ticker, not one estimate per (ticker, day)."""
        calls = {"call_price_grid": 0, "rolling_vols": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            market_data, "call_price_grid", counted("call_price_grid", call_price_grid)
        )
        monkeypatch.setattr(market_data, "rolling_vols", counted("rolling_vols", rolling_vols))
        cfg = _small_cfg(tickers=_THREE_TICKERS, pricing_vol="realized:20", noise=0.01)
        data = generate_synthetic_dataset(cfg, seed=1)
        assert len(data.quotes) == 3 * 3 * 3 * 2
        assert calls == {"call_price_grid": 1, "rolling_vols": 3}


# ---------------------------------------------------------------------------
# CSV io


_POSITIVE_EDGES = st.sampled_from(
    [5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 1.0, 0.1]
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TICKERS = st.sampled_from(["AA", 'A,"B', 'say "hi", twice', "x y", ""])


# names that csv.writer must quote, and others that it must not
_QUOTED_TICKERS = st.text(st.one_of(st.sampled_from(',"\r\n é€\u2028'),
                                    st.characters(blacklist_categories=("Cs",))), max_size=6)
_DAYS = st.integers(date(1900, 1, 1).toordinal(), date(2100, 1, 1).toordinal())
_FLOATS = st.one_of(_POSITIVE_EDGES, st.sampled_from([0.0, -0.0]), _FINITE)


def _writer_csv(path, header, rows):
    """The oracle: every row through csv.writer's default dialect."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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
        rows.append(FeatureRecord(
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

    @settings(max_examples=60, deadline=None)
    @given(drawn=_edge_feature_rows(), near=_near_arbitrage_bound_rows())
    def test_features_round_trip_exact(self, drawn, near):
        """Read-after-write is bit-identical for the synthetic market's rows and
        for drawn edge values, whether the table is loaded from the image that
        the writer leaves beside the CSV or parsed from the CSV alone; the
        bytes written are the per-row writer's; the arbitrage mask decides as
        the scalar rule does within an ulp of the bound."""
        data = generate_synthetic_dataset(_small_cfg(noise=0.01), seed=14)
        synthetic = build_features(data.quotes, data.underlying).table
        assert len(synthetic)
        edges = _table(drawn)
        # a name no row has, out of sorted order: parsing gives neither
        unused = replace(edges, tickers=("~", *edges.tickers), codes=edges.codes + 1)
        with tempfile.TemporaryDirectory() as tmp:
            for table in (synthetic, edges, unused):
                path, oracle = Path(tmp) / "features.csv", Path(tmp) / "oracle.csv"
                write_features_csv(table, path)
                ref_write_features_csv(_records(table), oracle)
                assert path.read_bytes() == oracle.read_bytes()
                with mock.patch.object(market_data, "_read_columns",
                                       side_effect=AssertionError("parsed")):
                    loaded = read_feature_table(path)
                Path(f"{path}.table").unlink()
                parsed = read_feature_table(path)
                assert loaded.tickers == parsed.tickers == tuple(sorted(set(loaded.tickers)))
                tickers = [table.tickers[c] for c in table.codes]
                for back in (loaded, parsed):
                    assert back.days.dtype == np.int64 and back.days.tolist() == table.days.tolist()
                    assert back.codes.dtype == np.intp
                    np.testing.assert_array_equal(back.codes, parsed.codes)
                    assert [back.tickers[c] for c in back.codes] == tickers
                    for got, want in ((back.x, table.x), (back.target, table.target)):
                        assert got.dtype == np.float64 and got.flags.c_contiguous
                        assert got.flags.writeable
                        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

        near_table = _table(near)
        columns = (near_table.column(c) for c in ("s_over_k", "ttm_years", "rate"))
        keep, dropped = filter_mask(*columns, near_table.target)
        reasons = ref_filter_decisions(near)
        assert keep.tolist() == [r is None for r in reasons]
        assert dropped == {k: reasons.count(k) for k in ("maturity", "moneyness", "arbitrage")}

    @staticmethod
    def _read_or_error(path, monkeypatch):
        """(table or error text, how many times the CSV was parsed)."""
        parses = []
        parse = market_data._read_columns
        monkeypatch.setattr(market_data, "_read_columns",
                            lambda *a, **k: parses.append(a[0]) or parse(*a, **k))
        try:
            got = read_feature_table(path)
        except ValueError as exc:
            got = str(exc)
        finally:
            monkeypatch.setattr(market_data, "_read_columns", parse)
        return got, len(parses)

    @staticmethod
    def _same(a, b):
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return (a.tickers == b.tickers and a.days.tolist() == b.days.tolist()
                and a.codes.tolist() == b.codes.tolist()
                and a.x.view(np.int64).tolist() == b.x.view(np.int64).tolist()
                and a.target.view(np.int64).tolist() == b.target.view(np.int64).tolist())

    @pytest.mark.parametrize("defect", ["csv-byte", "csv-bad-value", "image-truncated",
                                        "image-byte-flipped", "image-missing",
                                        "image-of-another-csv"])
    def test_defective_image_reads_as_the_csv(self, tmp_path, monkeypatch, defect):
        """Whatever is wrong with the image, the reader parses the CSV, so the
        table, or the error naming the file and line, is the parse's own."""
        data = generate_synthetic_dataset(_small_cfg(), seed=16)
        table = build_features(data.quotes, data.underlying).table.take(slice(0, 3))
        path, image = tmp_path / "features.csv", tmp_path / "features.csv.table"
        write_features_csv(table, path)
        assert self._read_or_error(path, monkeypatch)[1] == 0
        good_csv, good_image = path.read_bytes(), image.read_bytes()
        if defect == "csv-byte":  # one digit of one value
            at = good_csv.rindex(b"1")
            variants = [(good_csv[:at] + b"2" + good_csv[at + 1 :], good_image)]
        elif defect == "csv-bad-value":
            variants = [(good_csv.replace(b"-", b"/", 1), good_image)]
        elif defect == "image-truncated":
            variants = [(good_csv, good_image[:n]) for n in range(len(good_image))]
        elif defect == "image-byte-flipped":
            variants = [(good_csv, good_image[:i] + bytes([good_image[i] ^ 0x20])
                         + good_image[i + 1 :]) for i in range(len(good_image))]
        elif defect == "image-missing":
            variants = [(good_csv, None)]
        else:
            other = tmp_path / "other.csv"
            write_features_csv(table.take(slice(0, 2)), other)
            variants = [(good_csv, Path(f"{other}.table").read_bytes())]
        for csv_bytes, image_bytes in variants:
            path.write_bytes(csv_bytes)
            image.unlink(missing_ok=True)
            expected, parses = self._read_or_error(path, monkeypatch)
            assert parses == 1
            if image_bytes is not None:
                image.write_bytes(image_bytes)
            got, parses = self._read_or_error(path, monkeypatch)
            assert parses == 1 and self._same(got, expected), (got, expected)
        if defect == "csv-bad-value":
            assert expected.startswith(f"{path}: line 2: Invalid isoformat string")

    @pytest.mark.parametrize("defect", ["none", "version", "rows", "header", "unsorted-tickers",
                                        "unused-ticker", "code-out-of-range", "negative-code",
                                        "rejected-row"])
    def test_image_with_a_matching_digest_is_still_checked(self, tmp_path, monkeypatch, defect):
        """An image whose digest matches but whose contents are inconsistent
        (as only a hand-made one can be) is not loaded: the CSV is parsed."""
        data = generate_synthetic_dataset(_small_cfg(), seed=17)
        table = build_features(data.quotes, data.underlying).table.take(slice(0, 3))
        table = replace(table, tickers=("AA", "BB"), codes=np.array([0, 1, 0]))
        path = tmp_path / "features.csv"
        write_features_csv(table, path)
        expected, _ = self._read_or_error(path, monkeypatch)
        head = struct.Struct("<8sIQI")
        magic, version, n, header_len = head.unpack_from(Path(f"{path}.table").read_bytes())
        tickers, codes, x = ["AA", "BB"], table.codes.astype("<i8"), table.x.copy()
        if defect == "version":  # "none" is the control: the image as written
            version += 1
        elif defect == "rows":
            n += 1
        elif defect == "header":
            tickers = "AA,BB"
        elif defect == "unsorted-tickers":
            tickers, codes = ["BB", "AA"], 1 - codes
        elif defect == "unused-ticker":
            tickers = ["AA", "BB", "CC"]
        elif defect == "code-out-of-range":
            codes[1] = 2
        elif defect == "negative-code":
            codes[1] = -1
        elif defect == "rejected-row":
            x[1, 0] = math.nan
        header = json.dumps({"tickers": tickers}).encode()
        body = b"".join([head.pack(magic, version, n, len(header)), header,
                         table.days.astype("<i8").tobytes(), codes.tobytes(),
                         x.astype("<f8").tobytes(), table.target.astype("<f8").tobytes()])
        digest = hashlib.sha256(path.read_bytes() + body).digest()
        Path(f"{path}.table").write_bytes(body + digest)
        got, parses = self._read_or_error(path, monkeypatch)
        assert parses == (defect != "none") and self._same(got, expected)

    @pytest.mark.parametrize("column,value", [(1, -1.0), (4, math.nan)])
    def test_image_of_a_rejected_row_falls_back_to_the_parse(self, tmp_path, monkeypatch,
                                                             column, value):
        """A table holding a row that FeatureTable.check rejects is written with an
        image of the CSV's bytes; reading it still parses the CSV, whose
        error names the file and line, as it does without the image."""
        data = generate_synthetic_dataset(_small_cfg(), seed=17)
        table = build_features(data.quotes, data.underlying).table.take(slice(0, 3))
        x = table.x.copy()
        x[1, column] = value
        path = tmp_path / "features.csv"
        write_features_csv(replace(table, x=x), path)
        assert Path(f"{path}.table").is_file()
        got, parses = self._read_or_error(path, monkeypatch)
        os.remove(f"{path}.table")
        want, _ = self._read_or_error(path, monkeypatch)
        assert parses == 1 and got == want and want.startswith(f"{path}: line 3: ")

    def test_ticker_past_the_csv_field_limit_is_refused_on_write(self, tmp_path):
        """A name too long for csv.reader is refused before anything is
        written, so no image holds a table whose CSV would fail to parse."""
        data = generate_synthetic_dataset(_small_cfg(), seed=18)
        table = build_features(data.quotes, data.underlying).table.take(slice(0, 2))
        path = tmp_path / "features.csv"
        write_features_csv(replace(table, tickers=("A" * csv.field_size_limit(),)), path)
        assert read_feature_table(path).tickers == ("A" * csv.field_size_limit(),)
        os.remove(f"{path}.table")
        assert read_feature_table(path).tickers == ("A" * csv.field_size_limit(),)
        path.unlink()
        with pytest.raises(ValueError, match=re.escape(f"{path}: ticker 'AAAAAAAAAAAAAAAAAAAA'"
                                                       "... is longer than the CSV field limit")):
            write_features_csv(replace(table, tickers=("A" * (csv.field_size_limit() + 1),)),
                               path)
        assert not path.exists() and not os.path.exists(f"{path}.table")

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(_QUOTED_TICKERS, min_size=1, max_size=4), data=st.data())
    def test_raw_writers_match_csv_writer_bytes(self, names, data):
        """quotes.csv, underlying.csv and rates.csv are byte for byte what
        csv.writer writes for the same repr-formatted rows, for tickers that
        need quoting and for non-ASCII ones."""
        iso = [date.fromordinal(d).isoformat()
               for d in data.draw(st.lists(_DAYS, min_size=1, max_size=8))]
        n = data.draw(st.integers(0, 10))
        days, expiries = (data.draw(st.lists(_DAYS, min_size=n, max_size=n)) for _ in range(2))
        ticker = data.draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
        prices = [data.draw(st.lists(_FLOATS, min_size=n, max_size=n)) for _ in range(3)]
        quotes = QuoteTable.of(days, expiries, ticker, *prices)
        underlying = {name: [(date.fromisoformat(d), data.draw(_FLOATS)) for d in iso]
                      for name in names}
        rates = {date.fromisoformat(d): data.draw(_FLOATS) for d in iso}
        expected = {
            "quotes": [[date.fromordinal(d).isoformat(), date.fromordinal(e).isoformat(), t,
                        *(repr(float(v)) for v in p)]
                       for d, e, t, *p in zip(days, expiries, ticker, *prices)],
            "underlying": [[d.isoformat(), t, repr(float(c))]
                           for t, series in underlying.items() for d, c in series],
            "rates": [[d.isoformat(), repr(float(rates[d]))] for d in sorted(rates)],
        }
        written = {"quotes": (write_quotes_csv, quotes, ["quote_date", "expiry_date", "ticker",
                                                         "best_bid", "best_offer",
                                                         "strike_price"]),
                   "underlying": (write_underlying_csv, underlying, ["date", "ticker", "close"]),
                   "rates": (write_rates_csv, rates, ["date", "rate"])}
        with tempfile.TemporaryDirectory() as tmp:
            for name, (write, value, header) in written.items():
                path, oracle = Path(tmp) / f"{name}.csv", Path(tmp) / f"{name}.oracle"
                write(value, path)
                _writer_csv(oracle, header, expected[name])
                assert path.read_bytes() == oracle.read_bytes(), name

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(_QUOTED_TICKERS, st.text()), min_size=2,
                                  max_size=5), max_size=10))
    def test_csv_text_joined_rows_are_csv_writer_rows(self, rows):
        """One rule quotes every text field: joined with commas and ended
        with CRLF, its fields are what csv.writer writes for a row of two or
        more fields."""
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        assert "".join(",".join(map(market_data._csv_text, r)) + "\r\n" for r in rows) == (
            out.getvalue())

    @pytest.mark.parametrize(
        "reader, text, fields, expected",
        [
            (read_quotes_csv,
             "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price\n"
             "2021-06-01,2021-07-01,AA,1.0,1.1\n", 5, 6),
            (read_underlying_csv, "date,ticker,close\n2021-06-01,AA,100.0,7\n", 4, 3),
            (read_rates_csv, "date,rate\n\n", 0, 2),
            (read_feature_table, ",".join(["quote_date", "ticker", *FEATURE_COLUMNS, "target"])
             + "\n2021-06-01,AA,1.0\n", 3, 13),
        ],
        ids=["quotes", "underlying", "rates", "feature-table"],
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
            (read_quotes_csv, "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price",
             "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
             "2021-06-01,2021-07-01,AA,-1.0,1.1,95000.0", "negative quote: bid=-1.0, offer=1.1"),
            (read_quotes_csv, "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price",
             "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
             "2021-06-01,2021-07-01,AA,1.0,1.1,0.0", "strike_price must be positive, got 0.0"),
            (read_quotes_csv, "quote_date,expiry_date,ticker,best_bid,best_offer,strike_price",
             "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
             "2021-06-02,2021-06-02,AA,1.0,1.1,95000.0",
             "expiry 2021-06-02 not after quote date 2021-06-02"),
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
        ids=["quotes-date", "quotes-nan", "quotes-crossed", "quotes-negative", "quotes-strike",
             "quotes-expiry", "underlying-close",
             "rates-date", "rates-inf", "rates-repeated-date", "rates-overlong-field",
             "underlying-repeated-date",
             "underlying-zero-close", "underlying-negative-close",
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


# ---------------------------------------------------------------------------
# the chunked CSV reader against a row-at-a-time one


_RAW_READERS = {"quotes": read_quotes_csv, "underlying": read_underlying_csv,
                "rates": read_rates_csv, "features": read_feature_table}
# numbers that repeat, and texts that float reads oddly or not at all, some
# holding the line breaks that make a quoted field span lines, and one longer
# than the field limit that the reader test sets
_REPEATED = st.sampled_from(["1.5", "2.25", "100.0", "0.125"])
_ODD = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-0.0", "0.0", "1_0", " 1.5 ",
                        "2.5\n", "\r\n3.5", "abc", "", "-1.0", "2021-13-01", "June 2", "x\ny",
                        "9" * 40])
_RAW_TICKERS = st.sampled_from(["AA", "B,C", 'q"t', "x\ny", "r\r\ns", "\u00e9"])


def _positive_text(draw):
    """A positive number's text: one of a few that repeat, or a new one."""
    return draw(st.one_of(_REPEATED, st.floats(1e-3, 1e6).map(repr)))


@st.composite
def _raw_csv_rows(draw, kind):
    """The header (now and then one column short) and rows of a CSV of
    ``kind``: mostly valid rows, and some with odd fields, or with a field too
    many or too few."""
    header = RAW_CSVS[kind][0]
    names = draw(st.lists(_RAW_TICKERS, min_size=1, max_size=2, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        day = D0 + timedelta(days=draw(st.integers(0, 200)))
        ticker = draw(st.sampled_from(names))
        if kind == "quotes":
            expiry = day + timedelta(days=draw(st.integers(1, 60)))
            bid, offer = sorted((_positive_text(draw), _positive_text(draw)), key=float)
            row = [day.isoformat(), expiry.isoformat(), ticker, bid, offer, _positive_text(draw)]
        elif kind == "underlying":
            row = [day.isoformat(), ticker, _positive_text(draw)]
        elif kind == "rates":
            row = [day.isoformat(), draw(st.one_of(_REPEATED, st.floats(-0.1, 0.3).map(repr)))]
        else:
            row = [day.isoformat(), ticker, *(_positive_text(draw) for _ in range(3)),
                   *(draw(_REPEATED) for _ in range(7)), _positive_text(draw)]
        odd = draw(st.integers(0, 4 * len(header))) - 3 * len(header)
        while 0 <= odd < len(header):  # a row may have more than one
            row[odd] = draw(_ODD)
            odd = draw(st.integers(-len(header), len(header) - 1))
        if odd == len(header):
            row = row[:-1] if draw(st.booleans()) else [*row, "1.0"]
        rows.append(row)
    if draw(st.integers(0, 19)) == 0:
        header = header[:-1]
    return header, rows


def _keyed(rows):
    """Rows with each float as its bits, so -0.0 and the NaNs compare exactly."""
    return [tuple(struct.unpack("<q", struct.pack("<d", v))[0] if isinstance(v, float) else v
                  for v in row) for row in rows]


def _read_outcome(kind, path):
    """What the package's reader gives, as ``_keyed`` rows, or its error text."""
    try:
        got = _RAW_READERS[kind](path)
    except ValueError as exc:
        return str(exc)
    if kind == "quotes":
        rows = zip(got.days.tolist(), got.expiries.tolist(), [got.tickers[c] for c in got.codes],
                   got.bid.tolist(), got.offer.tolist(), got.strike_price.tolist())
    elif kind == "features":
        rows = [(d, got.tickers[c], *x, t) for d, c, x, t in zip(
            got.days.tolist(), got.codes.tolist(), got.x.tolist(), got.target.tolist())]
    elif kind == "underlying":
        rows = [(t, d.toordinal(), c) for t, series in got.items() for d, c in series]
    else:
        rows = [(d.toordinal(), r) for d, r in got.items()]
    return _keyed(rows)


def _ref_outcome(kind, path):
    rows, error = ref_read_raw_csv(path, kind)
    if error is not None:
        return error
    if kind == "underlying":  # grouped by ticker, as read_underlying_csv gives them
        series = {}
        for d, t, c in rows:
            series.setdefault(t, []).append((t, d, c))
        rows = [r for group in series.values() for r in group]
    return _keyed(rows)


class TestChunkedReader:
    @pytest.mark.parametrize("kind", sorted(_RAW_READERS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reader_matches_row_at_a_time_reference(self, kind, data):
        """At any chunk size, each reader gives the reference's values bit for
        bit, or its error text: the first wrong row, and in it the first wrong
        field, whether the column's chunk was walked or parsed in bulk, and a
        field over the (lowered) csv field limit in its row's turn.  Some files
        start with a UTF-8 byte-order mark."""
        header, rows = data.draw(_raw_csv_rows(kind))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.csv"
            _writer_csv(path, header, rows)
            if data.draw(st.booleans()):
                path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
            limit = csv.field_size_limit(32)
            try:
                expected = _ref_outcome(kind, path)
                for chunk in (1, 3, 4096):
                    with mock.patch.object(market_data, "_CHUNK_LINES", chunk):
                        assert _read_outcome(kind, path) == expected, chunk
            finally:
                csv.field_size_limit(limit)

    def test_parser_calls_are_pinned(self, tmp_path, monkeypatch):
        """The per-text parsers run for the first chunk's prices, for every
        distinct strike and date, and once per walked column chunk: a price
        column whose first chunk was all new texts goes bulk after it."""
        calls = dict.fromkeys(("_number", "_close", "_ordinal", "_walk"), 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(market_data, name, counted(name, getattr(market_data, name)))
        cfg = _small_cfg(tickers=_THREE_TICKERS, n_quote_days=40, half_spread=0.01, noise=0.01,
                         strike_multipliers=(0.9, 0.95, 1.0, 1.05, 1.1),
                         expiry_days=(30, 60, 91, 120))
        path = tmp_path / "quotes.csv"
        write_quotes_csv(generate_synthetic_dataset(cfg, seed=3).quotes, path)
        assert len(read_quotes_csv(path)) == 2400  # chunks of 512, 512, 512, 512 and 352
        # 512 bids and 512 offers, 600 strikes (3 tickers x 40 days x 5); 160
        # dates from the first quote day to the last expiry; 6 walks of the
        # first chunk, then 4 (dates, ticker and strike) of each later one
        assert calls == {"_number": 1624, "_close": 0, "_ordinal": 160, "_walk": 22}

    @pytest.mark.parametrize("kind, line, bad", [
        ("quotes", 6, "2021-06-01,2021-07-01,A\xe9,1.0,1.1,95000.0"),
        ("underlying", 4, "2021-06-03,A\xe9,101.0"),
        ("rates", 3, "2021-06-02,0.0\xe9"),
        ("features", 5, "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,\xe90.2,0.05"),
    ], ids=["quotes", "underlying", "rates", "features"])
    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, kind, line, bad):
        header, _, _, _ = RAW_CSVS[kind]
        good = {"quotes": "2021-06-01,2021-07-01,AA,1.0,1.1,95000.0",
                "underlying": "{},AA,100.0",
                "rates": "{},0.03",
                "features": "2021-06-01,AA,1.0,95.0,0.1,0.03,0.2,0.2,0.2,0.2,0.2,0.2,0.05"}[kind]
        rows = [good.format(f"2021-05-{i + 1:02d}") for i in range(line - 2)]
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(("\r\n".join([",".join(header), *rows]) + "\r\n").encode()
                         + bad.encode("latin-1") + b"\r\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {line}: not UTF-8 text (byte 0xe9)")):
            _RAW_READERS[kind](path)

    @pytest.mark.parametrize("kind", sorted(_RAW_READERS))
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, kind):
        """A file that starts with a UTF-8 byte-order mark, as Excel's "CSV
        UTF-8" export writes one, reads as the same file without it.  The
        features CSV is parsed: its image is deleted."""
        data = generate_synthetic_dataset(_small_cfg(), seed=16)
        path = tmp_path / f"{kind}.csv"
        if kind == "quotes":
            write_quotes_csv(data.quotes, path)
        elif kind == "underlying":
            write_underlying_csv(data.underlying, path)
        elif kind == "rates":
            write_rates_csv(data.rates, path)
        else:
            write_features_csv(build_features(data.quotes, data.underlying).table, path)
            os.remove(f"{path}.table")
        plain = _read_outcome(kind, path)
        assert isinstance(plain, list) and plain
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert _read_outcome(kind, path) == plain

    def test_byte_order_mark_moves_no_line_number(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"date,rate\r\n2021-06-01,0.03\r\nJune 2,0.03\r\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 3: Invalid isoformat string: 'June 2'")):
            read_rates_csv(path)

    def test_first_wrong_row_comes_before_a_later_bad_byte_or_csv_error(self, tmp_path):
        """A byte that is not UTF-8, and a field over csv's limit, are errors of
        their row: an earlier wrong row in the same chunk is named instead.
        In the header, a byte that is not UTF-8 names line 1."""
        path = tmp_path / "rates.csv"
        for tail in (b"2021-06-03,\xe9", b"2021-06-03," + b"1" * 200_000):
            path.write_bytes(b"date,rate\r\n2021-06-01,0.03\r\nJune 2,0.03\r\n" + tail + b"\r\n")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: line 3: Invalid isoformat string: 'June 2'")):
                read_rates_csv(path)
        path.write_bytes(b"date,r\xe9te\r\n2021-06-01,0.03\r\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 1: not UTF-8 text (byte 0xe9)")):
            read_rates_csv(path)
