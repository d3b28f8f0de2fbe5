"""Closed-form analytics against frozen, independently computed references.

The reference constants below were produced by separate tooling before this
package existed: d1/d2 and the price at the pinned point by 50-digit
arbitrary-precision arithmetic, the Monte Carlo figure by a standalone
plain-numpy simulation (1e7 paths, seed 12345), and the lognormal partial
expectation by adaptive quadrature of the density.  They are frozen here so a
regression in any route shows up against numbers the implementation never
touched.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optionlab.bs import (
    BsInputs,
    McConfig,
    assemble_bs_from_lognormal,
    bs_call_price,
    bs_vega,
    call_price_grid,
    d1_d2,
    implied_vol,
    lognormal_tail_expectation,
    mc_call_price,
    ndtr,
    price_bounds,
)

# pinned point: S=100, K=90, r=0.05, vol=0.3, ttm=0.5
D1_REF = 0.72059138131547602728
D2_REF = 0.50845934695951176996
PRICE_REF = 15.485966116443298858

# ATM point: S=K=100, r=0.05, vol=0.2, ttm=1
ATM_PRICE_REF = 10.450583572185566782
MC_REF = 10.448796132932937  # 1e7 plain paths, seed 12345
MC_SE_REF = 0.00465437742162673

# E[X; X > 1] for X ~ Lognormal(0, 1), by quadrature
PARTIAL_EXPECTATION_REF = 1.3871429788349987


def params(spot=100.0, strike=90.0, rate=0.05, vol=0.3, ttm=0.5):
    return BsInputs(spot, strike, rate, vol, ttm)


inputs_strategy = st.builds(
    params,
    spot=st.floats(50.0, 150.0),
    strike=st.floats(40.0, 160.0),
    rate=st.floats(0.0, 0.10),
    vol=st.floats(0.05, 1.0),
    ttm=st.floats(0.05, 2.0),
)


class TestClosedForm:
    def test_reference_point(self):
        p = params()
        d1, d2 = d1_d2(p)
        np.testing.assert_allclose(d1, D1_REF, rtol=1e-13)
        np.testing.assert_allclose(d2, D2_REF, rtol=1e-13)
        np.testing.assert_allclose(bs_call_price(p), PRICE_REF, rtol=1e-13)

    def test_atm_reference(self):
        np.testing.assert_allclose(
            bs_call_price(params(100, 100, 0.05, 0.2, 1.0)), ATM_PRICE_REF, rtol=1e-13
        )

    def test_d2_identity(self):
        p = params(vol=0.42, ttm=1.7)
        d1, d2 = d1_d2(p)
        np.testing.assert_allclose(d1 - d2, 0.42 * math.sqrt(1.7), rtol=1e-15)

    def test_vol_zero_is_discounted_intrinsic(self):
        p = params(110, 100, 0.05, 0.0, 1.0)
        assert bs_call_price(p) == 110.0 - 100.0 * math.exp(-0.05)

    def test_vol_zero_out_of_the_money_is_zero(self):
        assert bs_call_price(params(90, 100, 0.0, 0.0, 1.0)) == 0.0

    def test_d1_d2_reject_zero_vol(self):
        with pytest.raises(ValueError):
            d1_d2(params(vol=0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spot": -1.0},
            {"spot": 0.0},
            {"strike": 0.0},
            {"ttm": 0.0},
            {"ttm": -0.5},
            {"vol": -0.1},
            {"rate": float("nan")},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            params(**kwargs)

    @given(inputs_strategy)
    @settings(max_examples=300)
    def test_price_within_arbitrage_bounds(self, p):
        lower, upper = price_bounds(p)
        price = bs_call_price(p)
        assert lower - 1e-12 <= price <= upper + 1e-12

    @given(inputs_strategy, st.floats(0.01, 0.5))
    @settings(max_examples=200)
    def test_price_increases_with_vol(self, p, bump):
        higher = BsInputs(p.spot, p.strike, p.rate, p.vol + bump, p.ttm)
        assert bs_call_price(higher) >= bs_call_price(p) - 1e-12

    def test_grid_matches_scalar(self):
        spots = np.array([80.0, 100.0, 120.0])
        grid = call_price_grid(spots, 90.0, 0.05, 0.3, 0.5)
        for s, g in zip(spots, grid):
            np.testing.assert_allclose(g, bs_call_price(params(spot=s)), rtol=1e-14)

    def test_grid_handles_zero_vol_entries(self):
        grid = call_price_grid(
            np.array([110.0, 110.0]), 100.0, 0.05, np.array([0.0, 0.2]), 1.0
        )
        assert grid[0] == 110.0 - 100.0 * math.exp(-0.05)
        assert grid[1] > grid[0]


class TestImpliedVol:
    def test_round_trip_reference(self):
        vol = implied_vol(PRICE_REF, 100, 90, 0.05, 0.5)
        assert abs(vol - 0.3) < 1e-9

    def test_tolerance_is_in_price_units(self):
        vol = implied_vol(PRICE_REF, 100, 90, 0.05, 0.5, tol=1e-8)
        reprice = bs_call_price(params(vol=vol))
        assert abs(reprice - PRICE_REF) <= 1e-8

    @given(
        st.floats(60.0, 140.0),
        st.floats(0.0, 0.08),
        st.floats(0.05, 1.5),
        st.floats(0.1, 2.0),
    )
    @settings(max_examples=200)
    def test_round_trip_grid(self, strike, rate, vol, ttm):
        p = BsInputs(100.0, strike, rate, vol, ttm)
        price = bs_call_price(p)
        lower, upper = price_bounds(p)
        if not (lower < price < upper):  # numerically pinned to a bound
            return
        recovered = implied_vol(price, 100.0, strike, rate, ttm)
        assert abs(bs_call_price(BsInputs(100, strike, rate, recovered, ttm)) - price) <= 1e-8

    def test_price_at_or_below_lower_bound_rejected(self):
        lower, _ = price_bounds(params())
        with pytest.raises(ValueError, match="arbitrage"):
            implied_vol(lower, 100, 90, 0.05, 0.5)
        with pytest.raises(ValueError, match="arbitrage"):
            implied_vol(lower - 1.0, 100, 90, 0.05, 0.5)

    def test_price_at_or_above_spot_rejected(self):
        with pytest.raises(ValueError, match="arbitrage"):
            implied_vol(100.0, 100, 90, 0.05, 0.5)

    def test_price_beyond_vol_bracket_rejected(self):
        # valid by arbitrage but needs vol > 5
        too_high = bs_call_price(params(vol=5.0)) + 1.0
        assert too_high < 100.0
        with pytest.raises(ValueError, match="bracket"):
            implied_vol(too_high, 100, 90, 0.05, 0.5)

    def test_vega_positive(self):
        assert bs_vega(params()) > 0.0


class TestMonteCarlo:
    def test_frozen_reference(self):
        p = params(100, 100, 0.05, 0.2, 1.0)
        price, se = mc_call_price(p, McConfig(paths=10_000_000, seed=12345))
        np.testing.assert_allclose(price, MC_REF, rtol=1e-12)
        np.testing.assert_allclose(se, MC_SE_REF, rtol=1e-10)

    def test_agrees_with_closed_form_within_three_se(self):
        p = params(100, 100, 0.05, 0.2, 1.0)
        price, se = mc_call_price(p, McConfig(paths=1_000_000, seed=7, antithetic=True))
        assert abs(price - ATM_PRICE_REF) <= 3.0 * se

    def test_deterministic(self):
        p = params()
        cfg = McConfig(paths=100_000, seed=99)
        assert mc_call_price(p, cfg) == mc_call_price(p, cfg)

    def test_antithetic_reduces_standard_error(self):
        p = params()
        _, se_plain = mc_call_price(p, McConfig(paths=200_000, seed=5))
        _, se_anti = mc_call_price(p, McConfig(paths=200_000, seed=5, antithetic=True))
        assert se_anti < se_plain

    def test_vol_zero_is_exact_with_zero_se(self):
        p = params(110, 100, 0.05, 0.0, 1.0)
        price, se = mc_call_price(p, McConfig(paths=1000, seed=1))
        np.testing.assert_allclose(price, 110.0 - 100.0 * math.exp(-0.05), rtol=1e-12)
        assert se <= 1e-12  # all payoffs identical; se is summation noise only

    def test_rejects_tiny_path_count(self):
        with pytest.raises(ValueError):
            McConfig(paths=1, seed=0)


class TestLognormalAssembly:
    def test_partial_expectation_matches_quadrature(self):
        value = lognormal_tail_expectation(0.0, 1.0, 1.0)
        np.testing.assert_allclose(value, PARTIAL_EXPECTATION_REF, atol=1e-10)

    def test_k_to_zero_recovers_the_full_mean(self):
        mu, sigma = 0.3, 0.7
        full_mean = math.exp(mu + 0.5 * sigma * sigma)
        np.testing.assert_allclose(
            lognormal_tail_expectation(mu, sigma, 1e-12), full_mean, rtol=1e-12
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lognormal_tail_expectation(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_tail_expectation(0.0, 1.0, 0.0)

    def test_assembly_matches_closed_form_at_reference(self):
        assert abs(assemble_bs_from_lognormal(params()) - PRICE_REF) < 1e-10

    @given(inputs_strategy)
    @settings(max_examples=300)
    def test_assembly_matches_closed_form(self, p):
        assert abs(assemble_bs_from_lognormal(p) - bs_call_price(p)) <= 1e-10

    def test_tiny_vol_approaches_discounted_intrinsic(self):
        p = params(110, 100, 0.05, 1e-8, 1.0)
        intrinsic = 110.0 - 100.0 * math.exp(-0.05)
        assert abs(assemble_bs_from_lognormal(p) - intrinsic) < 1e-9

    def test_rejects_zero_vol(self):
        with pytest.raises(ValueError):
            assemble_bs_from_lognormal(params(vol=0.0))


class TestNdtr:
    """The numpy port of Cephes ndtr: scipy's bits where scipy is installed,
    and math.erfc's values where it is not."""

    # the region boundaries |a/sqrt(2)| = 1/sqrt(2), 1 and 8, each with its
    # neighbours, infinities, overflow of a*a, and the subnormal tail of the
    # MAXLOG cut near a = -37.6
    EDGES = np.array([
        *(sign * math.nextafter(b, to) for b in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))
          for to in (0.0, math.inf) for sign in (1.0, -1.0)),
        1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0), 8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0),
        0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf,
        *np.linspace(-37.7, -37.5, 2001),
    ])

    def test_bit_equal_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20240801)
        a = np.concatenate([*(rng.normal(0.0, scale, 150_000)
                              for scale in (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 20.0, 40.0)),
                            self.EDGES])
        got, want = ndtr(a), special.ndtr(a)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, a[differ[:5]].tolist()
        assert np.isnan(ndtr(math.nan)) and np.isnan(special.ndtr(math.nan))

    def test_matches_math_erfc(self):
        rng = np.random.default_rng(7)
        a = np.concatenate([*(rng.normal(0.0, scale, 20_000) for scale in (0.5, 2.0, 8.0, 20.0)),
                            self.EDGES])
        a = a[a > -37.0]
        want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in a.tolist()])
        np.testing.assert_allclose(ndtr(a), want, rtol=1e-12, atol=0.0)
        assert np.isnan(ndtr(np.array([math.nan, 0.0]))).tolist() == [True, False]

    def test_shapes(self):
        a = np.random.default_rng(8).normal(0.0, 3.0, (3, 8192 + 5))  # rows span a block edge
        got = ndtr(a)
        assert got.shape == a.shape
        assert got.ravel().tobytes() == ndtr(a.ravel()).tobytes()
        assert got[2].tobytes() == ndtr(a[2]).tobytes()
        scalar = ndtr(0.25)
        assert isinstance(scalar, float) and np.ndim(scalar) == 0
        assert scalar == ndtr(np.array([0.25]))[0] == ndtr(np.array(0.25))
        assert ndtr(np.array(0.25)).shape == ()
        assert ndtr([]).shape == (0,)
