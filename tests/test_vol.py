"""Realized-volatility estimates: frozen value, conventions, causality.

``realized_vol`` (one estimate at a time, in ``reference_impls``) is the
oracle of ``rolling_vols``; its own tests pin the frozen value and the
conventions the oracle stands for."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optionlab.vol import STANDARD_WINDOWS, log_returns, rolling_vols
from reference_impls import VolEstimate, realized_vol

# 21 alternating closes 100, 101, 100, ... with window 20; value frozen from
# an independent by-hand computation (sample std of the 20 log returns, n-1
# denominator, times sqrt(252)).
ALTERNATING = [100.0 if i % 2 == 0 else 101.0 for i in range(21)]
ALTERNATING_VOL_REF = 0.16206005771107862


class TestLogReturns:
    def test_basic(self):
        out = log_returns([100.0, 105.0, 102.9])
        np.testing.assert_allclose(
            out, [math.log(105 / 100), math.log(102.9 / 105)], rtol=1e-12
        )

    def test_length(self):
        assert log_returns(np.arange(1.0, 11.0)).shape == (9,)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            log_returns([100.0])

    def test_rejects_non_positive_prices(self):
        with pytest.raises(ValueError):
            log_returns([100.0, 0.0, 101.0])
        with pytest.raises(ValueError):
            log_returns([100.0, -5.0])


class TestRealizedVol:
    def test_frozen_alternating_series(self):
        est = realized_vol(ALTERNATING, window=20)
        np.testing.assert_allclose(est.value, ALTERNATING_VOL_REF, rtol=1e-13)
        assert est.window_days == 20

    def test_constant_prices_give_zero(self):
        assert realized_vol([50.0] * 30, window=20).value == 0.0

    def test_uses_only_the_last_window(self):
        # wild early prices must not affect a 20-window estimate over a calm tail
        calm = ALTERNATING
        noisy_head = [500.0, 20.0, 300.0] + calm
        np.testing.assert_allclose(
            realized_vol(noisy_head, 20).value,
            realized_vol(calm, 20).value,
            rtol=1e-13,
        )

    def test_needs_window_plus_one_prices(self):
        realized_vol(list(range(1, 22)), window=20)  # 21 prices: fine
        with pytest.raises(ValueError):
            realized_vol(list(range(1, 21)), window=20)  # 20 prices: not enough

    def test_annualisation_factor(self):
        raw = realized_vol(ALTERNATING, window=20, trading_days=1).value
        np.testing.assert_allclose(
            realized_vol(ALTERNATING, window=20).value, raw * math.sqrt(252), rtol=1e-13
        )

    def test_window_below_two_rejected(self):
        with pytest.raises(ValueError):
            realized_vol(ALTERNATING, window=1)

    @given(st.floats(0.5, 100.0))
    @settings(max_examples=100)
    def test_scale_invariance(self, factor):
        scaled = [p * factor for p in ALTERNATING]
        np.testing.assert_allclose(
            realized_vol(scaled, 20).value, ALTERNATING_VOL_REF, rtol=1e-10
        )

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            VolEstimate(window_days=1, value=0.2)
        with pytest.raises(ValueError):
            VolEstimate(window_days=20, value=-0.1)


class TestRollingVols:
    def test_91_prices_exactly_one_full_date(self):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 91)))
        table = rolling_vols(prices)
        assert table.shape == (91, len(STANDARD_WINDOWS)) and table.dtype == np.float64
        full = np.flatnonzero(~np.isnan(table).any(axis=1))
        assert full.tolist() == [90]  # only the last index has 90 returns behind it

    def test_frozen_alternating_series(self):
        table = rolling_vols(ALTERNATING, windows=(20,))
        np.testing.assert_allclose(table[-1, 0], ALTERNATING_VOL_REF, rtol=1e-13)

    def test_20_prices_no_20_day_estimate(self):
        prices = np.linspace(100.0, 110.0, 20)
        table = rolling_vols(prices, windows=(20,))
        assert table.shape == (20, 1) and np.isnan(table).all()

    def test_counts_per_window(self):
        rng = np.random.default_rng(1)
        n = 120
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, n)))
        table = rolling_vols(prices)
        for k, w in enumerate(STANDARD_WINDOWS):
            # NaN exactly before the window has its history
            assert np.isnan(table[:, k]).tolist() == [i < w for i in range(n)]

    def test_matches_realized_vol_everywhere(self):
        rng = np.random.default_rng(2)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 60)))
        windows = (20, 30)
        table = rolling_vols(prices, windows=windows)
        for idx in range(prices.size):
            for k, w in enumerate(windows):
                if idx < w:
                    assert np.isnan(table[idx, k])
                else:
                    direct = realized_vol(prices[: idx + 1], w)
                    np.testing.assert_allclose(table[idx, k], direct.value, rtol=1e-12)

    def test_causality(self):
        # changing prices after index i must not change the estimate dated i
        rng = np.random.default_rng(3)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 50)))
        tampered = prices.copy()
        tampered[31:] *= 3.0
        a = rolling_vols(prices, windows=(30,))
        b = rolling_vols(tampered, windows=(30,))
        assert a[30, 0] == b[30, 0]
        assert a[31, 0] != b[31, 0]

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 2"):
            rolling_vols(np.linspace(100, 105, 25), windows=(20, 1))
