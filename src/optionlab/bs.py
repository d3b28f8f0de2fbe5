"""Black-Scholes call analytics and two independent pricing oracles.

The closed form is the reference implementation used everywhere else in the
package (synthetic quote generation, the per-window baseline in evaluation,
implied-vol inversion).  Two independent routes exist purely as checks on it:

* a Monte Carlo simulation of the terminal-price distribution, and
* an assembly of the price from the lognormal partial expectation and CDF.

The three routes are deliberately kept separate; none shares code with
another beyond the normal CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# eager on purpose: a lazy import would move its ~0.3 s into the first synth,
# which the benchmark times
from scipy.special import ndtr

__all__ = [
    "BsInputs",
    "McConfig",
    "d1_d2",
    "bs_call_price",
    "bs_vega",
    "implied_vol",
    "mc_call_price",
    "lognormal_tail_expectation",
    "assemble_bs_from_lognormal",
    "price_bounds",
    "call_price_grid",
]

IV_BRACKET = (1e-6, 5.0)


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BsInputs:
    """One pricing problem: spot, strike, continuously compounded rate, vol, maturity.

    ``ttm`` is in years.  ``vol`` may be zero (the deterministic limit) but not
    negative; ``rate`` may be negative, as long as the discount factor
    exp(-rate*ttm) stays a finite float.
    """

    spot: float
    strike: float
    rate: float
    vol: float
    ttm: float

    def __post_init__(self):
        if not (self.spot > 0.0):
            raise ValueError(f"spot must be positive, got {self.spot}")
        if not (self.strike > 0.0):
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not (self.ttm > 0.0):
            raise ValueError(f"ttm must be positive, got {self.ttm}")
        if not (self.vol >= 0.0):
            raise ValueError(f"vol must be non-negative, got {self.vol}")
        for name in ("spot", "strike", "rate", "vol", "ttm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        try:
            math.exp(-self.rate * self.ttm)
        except OverflowError:
            raise ValueError(
                f"rate {self.rate} with ttm {self.ttm} overflows the discount "
                "factor exp(-rate*ttm)"
            ) from None


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: path count, seed, antithetic pairing."""

    paths: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.paths < 2:
            raise ValueError(f"paths must be >= 2, got {self.paths}")


def d1_d2(p: BsInputs) -> tuple[float, float]:
    """The two quantiles of the closed form.

    d1 = [ln(S/K) + tau*(r + vol^2/2)] / (vol*sqrt(tau)),  d2 = d1 - vol*sqrt(tau).

    Undefined at vol == 0; raises ValueError there (callers that want the
    deterministic limit should branch before calling).
    """
    if p.vol == 0.0:
        raise ValueError("d1/d2 are undefined at vol == 0")
    sqrt_t = math.sqrt(p.ttm)
    d1 = (math.log(p.spot / p.strike) + p.ttm * (p.rate + 0.5 * p.vol * p.vol)) / (
        p.vol * sqrt_t
    )
    d2 = d1 - p.vol * sqrt_t
    return d1, d2


def price_bounds(p: BsInputs) -> tuple[float, float]:
    """No-arbitrage bounds for the call: [max(S - K*e^{-r*tau}, 0), S]."""
    lower = max(p.spot - p.strike * math.exp(-p.rate * p.ttm), 0.0)
    return lower, p.spot


def bs_call_price(p: BsInputs) -> float:
    """European call price.  vol == 0 returns the discounted-intrinsic limit."""
    if p.vol == 0.0:
        return max(p.spot - p.strike * math.exp(-p.rate * p.ttm), 0.0)
    d1, d2 = d1_d2(p)
    return p.spot * float(ndtr(d1)) - p.strike * math.exp(-p.rate * p.ttm) * float(
        ndtr(d2)
    )


def bs_vega(p: BsInputs) -> float:
    """Price sensitivity to vol: S * sqrt(tau) * pdf(d1).  Requires vol > 0."""
    d1, _ = d1_d2(p)
    return p.spot * math.sqrt(p.ttm) * _norm_pdf(d1)


def call_price_grid(spot, strike, rate, vol, ttm):
    """Vectorised closed form over broadcastable arrays.

    vol entries equal to zero get the discounted-intrinsic limit.  Used for
    bulk pricing (synthetic generation, baselines); the scalar ``bs_call_price``
    remains the reference for single quotes.
    """
    spot, strike, rate, vol, ttm = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (spot, strike, rate, vol, ttm))
    )
    disc_k = strike * np.exp(-rate * ttm)
    intrinsic = np.maximum(spot - disc_k, 0.0)
    out = np.array(intrinsic, copy=True)
    live = vol > 0.0
    if np.any(live):
        s, k, dk = spot[live], strike[live], disc_k[live]
        v, t = vol[live], ttm[live]
        sq = np.sqrt(t)
        d1 = (np.log(s / k) + t * (rate[live] + 0.5 * v * v)) / (v * sq)
        d2 = d1 - v * sq
        out[live] = s * ndtr(d1) - dk * ndtr(d2)
    return out


def implied_vol(
    price: float,
    spot: float,
    strike: float,
    rate: float,
    ttm: float,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> float:
    """Invert the closed form for vol by safeguarded Newton.

    Newton from an analytic vega, falling back to bisection whenever the step
    leaves the current bracket or vega degenerates.  The bracket starts at
    ``IV_BRACKET`` = (1e-6, 5.0) and shrinks as prices are evaluated.
    Convergence criterion is |model - price| <= tol in price units.

    Raises ValueError when ``price`` violates the open no-arbitrage interval
    (max(S - K*e^{-r*tau}, 0), S) or when the bracket cannot straddle the
    target; RuntimeError if max_iter is exhausted without convergence.
    """
    shape = BsInputs(spot, strike, rate, 1.0, ttm)
    lower, upper = price_bounds(shape)
    if not (lower < price < upper):
        raise ValueError(
            f"price {price} outside the open arbitrage interval ({lower}, {upper}); "
            "no vol can reproduce it"
        )

    def f(vol):
        return bs_call_price(BsInputs(spot, strike, rate, vol, ttm)) - price

    lo, hi = IV_BRACKET
    f_lo, f_hi = f(lo), f(hi)
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError(
            f"target price {price} not bracketed by vols in {IV_BRACKET}"
        )

    vol = min(max(0.2, lo), hi)  # standard starting guess, clipped to the bracket
    for _ in range(max_iter):
        diff = f(vol)
        if abs(diff) <= tol:
            return vol
        if diff > 0.0:
            hi = vol
        else:
            lo = vol
        vega = bs_vega(BsInputs(spot, strike, rate, vol, ttm))
        if vega > 1e-12:
            candidate = vol - diff / vega
        else:
            candidate = lo  # force the bisection branch below
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        vol = candidate
    raise RuntimeError(
        f"implied vol did not converge to |error| <= {tol} in {max_iter} iterations"
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises below
def mc_call_price(p: BsInputs, cfg: McConfig) -> tuple[float, float]:
    """Monte Carlo price and standard error under the risk-neutral measure.

    Terminal prices are sampled exactly (no time stepping):
        S_T = S * exp((r - vol^2/2) * tau + vol * sqrt(tau) * Z),  Z ~ N(0, 1).
    The estimate is the discounted mean payoff; the standard error is the
    sample standard deviation of the discounted payoffs over sqrt(n).

    With ``antithetic`` set, paths are drawn in +Z/-Z pairs (cfg.paths rounded
    down to an even count) and the standard error is computed over the
    pair-averaged payoffs, which is the correct estimate for paired sampling.
    Deterministic for a fixed seed.  Raises ValueError when a payoff or the
    estimate overflows a float.
    """
    rng = np.random.default_rng(cfg.seed)
    drift = (p.rate - 0.5 * p.vol * p.vol) * p.ttm
    scale = p.vol * math.sqrt(p.ttm)
    disc = math.exp(-p.rate * p.ttm)

    if cfg.antithetic:
        half = cfg.paths // 2
        z = rng.standard_normal(half)
        payoff_pos = np.maximum(p.spot * np.exp(drift + scale * z) - p.strike, 0.0)
        payoff_neg = np.maximum(p.spot * np.exp(drift - scale * z) - p.strike, 0.0)
        samples = disc * 0.5 * (payoff_pos + payoff_neg)
    else:
        z = rng.standard_normal(cfg.paths)
        samples = disc * np.maximum(p.spot * np.exp(drift + scale * z) - p.strike, 0.0)

    price = float(samples.mean())
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if not (math.isfinite(price) and math.isfinite(se)):
        raise ValueError(
            f"Monte Carlo payoffs overflow a float at spot {p.spot}, rate {p.rate}, "
            f"ttm {p.ttm}, vol {p.vol} (terminal price "
            "spot*exp((rate - vol^2/2)*ttm + vol*sqrt(ttm)*Z))"
        )
    return price, se


def lognormal_tail_expectation(mu: float, sigma: float, k: float) -> float:
    """Partial expectation E[X; X > k] for X ~ Lognormal(mu, sigma).

    Equals exp(mu + sigma^2/2) * Phi((mu + sigma^2 - ln k) / sigma).  The sign
    convention in the Phi argument is the one that makes the assembled call
    price below agree with the closed form identically; it also satisfies the
    k -> 0+ limit E[X; X > 0] = E[X].  Requires sigma > 0 and k > 0.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")
    return math.exp(mu + 0.5 * sigma * sigma) * float(
        ndtr((mu + sigma * sigma - math.log(k)) / sigma)
    )


def assemble_bs_from_lognormal(p: BsInputs) -> float:
    """Second analytic route: price from the terminal lognormal law directly.

    Under the risk-neutral measure ln S_T ~ N(mu_L, sigma_L^2) with
    mu_L = ln S + (r - vol^2/2) * tau and sigma_L = vol * sqrt(tau), so

        C = e^{-r*tau} * (E[S_T; S_T > K] - K * P(S_T > K)).

    Shares no code with ``bs_call_price`` beyond the normal CDF.  Requires
    vol > 0 (the lognormal degenerates at zero).
    """
    if p.vol <= 0.0:
        raise ValueError("assembly route requires vol > 0")
    mu_l = math.log(p.spot) + (p.rate - 0.5 * p.vol * p.vol) * p.ttm
    sigma_l = p.vol * math.sqrt(p.ttm)
    partial = lognormal_tail_expectation(mu_l, sigma_l, p.strike)
    tail_prob = 1.0 - float(ndtr((math.log(p.strike) - mu_l) / sigma_l))
    return math.exp(-p.rate * p.ttm) * (partial - p.strike * tail_prob)
