"""Black-Scholes call analytics and two independent pricing oracles.

The closed form is the reference implementation used everywhere else in the
package (synthetic quote generation, the per-window baseline in evaluation,
implied-vol inversion).  Two independent routes exist purely as checks on it:

* a Monte Carlo simulation of the terminal-price distribution, and
* an assembly of the price from the lognormal partial expectation and CDF.

The three routes are deliberately kept separate; none shares code with
another beyond the normal CDF, ``ndtr``.  That is a numpy port of Cephes
``ndtr.c`` (S. L. Moshier), the algorithm ``scipy.special.ndtr`` ships, and
returns the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "ndtr",
]

IV_BRACKET = (1e-6, 5.0)


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# Cephes ndtr.c coefficients, highest power first.  U, Q and S are Cephes's
# p1evl polynomials, written out with their implied leading 1 (1*x + c is x + c
# exactly, so the bits do not change).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
           2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1, 9.60896809063285878198e0,
           3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX): erfc is 0 once x*x passes it
_SQRT1_2 = 7.07106781186547524401e-1
_NDTR_BLOCK = 8192  # elements per pass: 4 096 was slower, 16 384 and no blocks no faster


def _polevl(x, coef):
    """Cephes polevl: Horner's rule, coef[0] the highest power, in one new array."""
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _rational(scale, x, num, den):
    """(scale * num(x)) / den(x), in Cephes's order of operations."""
    out = _polevl(x, num)
    out *= scale
    out /= _polevl(x, den)
    return out


def _erfc_outer(z):
    """Cephes erfc on z >= 1: libm's exp(-z*z) times P/Q below 8 and R/S from
    8 on, and 0 once z*z passes MAXLOG."""
    sq = z * z
    # libm's exp, element by element: np.exp differs from it in the last bit
    erfc = np.fromiter(map(math.exp, memoryview(-sq)), np.float64, z.size)
    wide = z >= 8.0
    if wide.any():
        narrow = ~wide
        erfc[narrow] = _rational(erfc[narrow], z[narrow], _ERFC_P, _ERFC_Q)
        erfc[wide] = _rational(erfc[wide], z[wide], _ERFC_R, _ERFC_S)
    else:
        erfc = _rational(erfc, z, _ERFC_P, _ERFC_Q)
    erfc[sq > _MAXLOG] = 0.0
    return erfc


def _ndtr_block(a, out):
    """``ndtr`` of the 1-D ``a`` into ``out``.

    With x = a/sqrt(2), every element first gets Cephes's formula for
    |x| < 1/sqrt(2), 0.5 + 0.5 * erf(x); then each element with |x| >=
    1/sqrt(2) gets h = 0.5 * erfc(|x|), or 1 - h where x > 0.  Masked
    writes, not gathers: on the benchmark's inputs they were the faster.
    NaN meets no comparison and comes out of erf as NaN.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    erf = _rational(x, x * x, _ERF_T, _ERF_U)  # garbage where |x| >= 1, and overwritten
    np.multiply(erf, 0.5, out=out)
    out += 0.5
    tail = z >= _SQRT1_2
    if tail.any():
        erfc = np.subtract(1.0, np.abs(erf, out=erf), out=erf)  # Cephes's erfc below |x| = 1
        outer = z >= 1.0
        if outer.any():
            erfc[outer] = _erfc_outer(z[outer])
        erfc *= 0.5
        np.subtract(1.0, erfc, out=erfc, where=x > 0.0)
        np.copyto(out, erfc, where=tail)


# the erf rational runs on every element, so a huge |x| overflows it to inf
# and NaN there; the outer formula overwrites those elements
@np.errstate(over="ignore", invalid="ignore")
def ndtr(a):
    """Standard normal CDF, elementwise: a float for a scalar, else an array
    of ``a``'s shape.

    Bit for bit ``scipy.special.ndtr``: with x = a/sqrt(2), Cephes's erf
    rational T/U on |x| < 1 (as 0.5 * (1 - erf(|x|)) from 1/sqrt(2) up), its
    erfc rationals P/Q on 1 <= |x| < 8 and R/S beyond, times libm's
    exp(-x*x), and 0 (or 1) once x*x passes MAXLOG.  NaN gives NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    flat_a, flat_out = a.reshape(-1), out.reshape(-1)
    for start in range(0, flat_a.size, _NDTR_BLOCK):
        _ndtr_block(flat_a[start : start + _NDTR_BLOCK], flat_out[start : start + _NDTR_BLOCK])
    return out if out.ndim else out[()]


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
