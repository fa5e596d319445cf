"""Distributional limit checks for the normalized triangle rows.

The row polynomial factors over the reals: Q_n(x) / F(2n) is the probability
generating function of a sum of n independent Bernoulli variables (Harper's
method) with factor roots -r_j, r_j = 2 - 2 cos(j pi / n) for j = 1..n-1 plus
one root at the origin.  That factorization yields

* an exact Kolmogorov distance between the normalized row CDF and the normal
  CDF, compared against the Berry-Esseen bound 0.7975 / sigma_n;
* local limit errors sup |sigma_n A*(n, floor(mu_n + x sigma_n)) - phi(x)|;
* the singularity-analysis growth constants a = 1/sqrt(5) and
  b^2 = 2/(5 sqrt(5)) from the dominant pole r(s) of the bivariate generating
  function, in closed form and by central finite differences.

Exactness lives upstream: rows, row sums, mu and sigma^2 enter as exact
integers/rationals and are converted once, each value by a correctly rounded
``int / int``.  Whole-row checks (the Kolmogorov scan, the Harper
reconstruction) walk the row once; local checks read only the single entries
C(n+k-1, 2k-1) / F(2n) they need.  Everything downstream is 64-bit float in
the standard library; only harper_model's convolution imports numpy.  All
functions are pure and return immutable values (HarperModel holds tuples).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

from .exact import _index, fib, binom, ratio_to_float
from .moments import moment_summary
from .triangle import row_closed_form

__all__ = [
    "HarperModel",
    "CltReport",
    "SingularityConstants",
    "LocalLimitRow",
    "normal_cdf",
    "normal_pdf",
    "harper_model",
    "kolmogorov_distance",
    "local_limit_error",
    "local_limit_row",
    "dominant_pole",
    "singularity_constants",
    "singularity_constants_numeric",
]

SQRT5 = math.sqrt(5.0)
BERRY_ESSEEN_C = 0.7975  # van Beek's admissible universal constant

# Default local-limit scan grid (LO, HI, STEPS): covers the bulk of the mass
# at desk scale.  The only copy; the CLI's --grid default reads it too.
DEFAULT_GRID = (-3.0, 3.0, 601)

_HARPER_TOL = 1e-9  # reconstruction-vs-exact guard inside harper_model


@dataclass(frozen=True)
class HarperModel:
    """Bernoulli factorization of one row: success probabilities 1/(1 + r_j)."""

    n: int
    roots: Tuple[float, ...]
    success_probs: Tuple[float, ...]
    pmf: Tuple[float, ...]  # reconstructed distribution of the Bernoulli sum


@dataclass(frozen=True)
class CltReport:
    """Kolmogorov distance vs. the Berry-Esseen bound 0.7975 / sigma_n."""

    n: int
    kolmogorov: float
    be_bound: float
    sigma: float


@dataclass(frozen=True)
class SingularityConstants:
    """Dominant-pole data: r0 = r(0), r1 = r'(0), r2 = r''(0), a = -r1/r0, b2 = a^2 - r2/r0."""

    r0: float
    r1: float
    r2: float
    a: float
    b2: float


@dataclass(frozen=True)
class LocalLimitRow:
    """Pointwise check at the distribution center with asymptotic normalization.

    ratio        = C(n + floor(n/sqrt(5)) - 1, 2 floor(n/sqrt(5)) - 1) / F(2n)
    scaled_error = |2 sqrt(pi) sqrt(n) / 5^(3/4) * ratio - 1| * sqrt(n)
    """

    n: int
    ratio: float
    scaled_error: float


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function; error <= 1e-15."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _harper_roots(n: int) -> Tuple[float, ...]:
    """Factor roots r_j = 2 - 2 cos(j pi / n), j = 1..n-1, plus the origin root."""
    return (*(2.0 - 2.0 * math.cos(j * math.pi / n) for j in range(1, n)), 0.0)


def _total_mu_sigma(n: int) -> Tuple[int, float, float]:
    """(F(2n), mu_n, sigma_n) of row n from the exact moment_summary."""
    summary = moment_summary(n)
    return summary.u, ratio_to_float(summary.mu), math.sqrt(ratio_to_float(summary.sigma2))


def harper_model(n: int) -> HarperModel:
    """Bernoulli factor model of row n, with the reconstructed distribution.

    The pmf is rebuilt by sequential convolution of the factors
    [r/(1+r), 1/(1+r)] (the origin root contributes the forced shift [0, 1])
    and verified against the exact normalized row to 1e-9; a larger deviation
    raises.  Rejects n < 2: a one-point distribution has nothing to factor.
    """
    n = _index(n, 2, "harper_model")
    import numpy as np  # the one numpy use: ~8x faster than a Python convolution at n = 400
    roots = _harper_roots(n)
    success = tuple(1.0 / (1.0 + r) for r in roots)
    pmf = np.array([1.0])
    for r, p in zip(roots, success):
        pmf = np.convolve(pmf, [r * p, p])  # (r + x) / (1 + r)
    pmf = tuple(pmf.tolist())
    total = fib(2 * n)
    err = max(abs(p - a / total) for p, a in zip(pmf, row_closed_form(n)))
    if err > _HARPER_TOL:
        raise ArithmeticError(f"Harper reconstruction off by {err:.3e} at n = {n}")
    return HarperModel(n=n, roots=roots, success_probs=success, pmf=pmf)


def kolmogorov_distance(n: int) -> CltReport:
    """Exact Kolmogorov distance of the normalized row CDF from the normal CDF.

    The CDF is evaluated from exact integer prefix sums (one division by
    F(2n) per jump point, then float).  Because the normal CDF is monotone
    between jumps, scanning both sides of every jump k = 0..n gives the exact
    supremum: D_n = max_k max(|F(k) - Phi(z_k)|, |F(k-1) - Phi(z_k)|) with
    z_k = (k - mu_n)/sigma_n.  The report also carries the Berry-Esseen bound
    0.7975/sigma_n; a violation raises.  Rejects n < 2, where sigma = 0 and
    the normalization is undefined.

    Float error (u = 2^-53, first order): |kolmogorov - D_n| <= 1e-15 + 3u +
    phi(0) u mu_n/sigma_n.  1e-15 bounds normal_cdf; 3u covers the rounded CDF
    and differences (u each) and z_k's relative error 3.5u, which moves Phi by
    <= 3.5u phi(1) < 0.85u; rounding mu_n shifts each z_k by <= u mu_n/sigma_n.
    """
    n = _index(n, 2, "kolmogorov_distance")
    total, mu, sigma = _total_mu_sigma(n)
    cdf = [acc / total for acc in itertools.accumulate(row_closed_form(n))]
    d = 0.0
    prev = 0.0
    for k, c in enumerate(cdf):
        phi = normal_cdf((k - mu) / sigma)
        d = max(d, abs(c - phi), abs(prev - phi))
        prev = c

    bound = BERRY_ESSEEN_C / sigma
    if d > bound:
        raise ArithmeticError(f"Kolmogorov distance {d} exceeds Berry-Esseen bound {bound} at n = {n}")
    return CltReport(n=n, kolmogorov=d, be_bound=bound, sigma=sigma)


def local_limit_error(
    n: int,
    x_lo: float = DEFAULT_GRID[0],
    x_hi: float = DEFAULT_GRID[1],
    steps: int = DEFAULT_GRID[2],
) -> float:
    """sup over a uniform grid of |sigma_n A*(n, floor(mu_n + x sigma_n)) - phi(x)|.

    A*(n, k) = A(n, k)/F(2n), taken as 0 outside 0..n.  mu_n and sigma_n are
    the exact-moment values, not their asymptotic approximations.  Only the
    entries the grid lands on are computed, each as C(n+k-1, 2k-1) / F(2n)
    when k changes along the (nondecreasing) grid, whose span must be finite.
    """
    n = _index(n, 2, "local_limit_error")
    if not (x_lo < x_hi and math.isfinite(x_hi - x_lo)):
        raise ValueError(f"local_limit_error requires finite x_hi - x_lo > 0, got [{x_lo}, {x_hi}]")
    steps = _index(steps, 2, "local_limit_error", "steps")
    total, mu, sigma = _total_mu_sigma(n)
    worst = 0.0
    k_prev, a = None, 0.0
    step = (x_hi - x_lo) / (steps - 1)  # point i is i * step + x_lo, the last x_hi
    for x in itertools.chain((i * step + x_lo for i in range(steps - 1)), [x_hi]):
        t = mu + x * sigma  # may overflow to +-inf on a finite grid
        k = math.floor(t) if 0.0 <= t < n + 1 else None  # None: outside 0..n
        if k != k_prev:
            a = 0.0 if k is None else binom(n + k - 1, 2 * k - 1) / total
            k_prev = k
        err = abs(sigma * a - normal_pdf(x))
        if err > worst:
            worst = err
    return worst


def local_limit_row(n: int) -> LocalLimitRow:
    """Center entry of row n under the asymptotic (a, b) normalization.

    Here the row index is b = floor(n/sqrt(5)), computed exactly as
    isqrt(5 n^2) // 5, and the binomial and F(2n) stay exact until the final
    scaled division.  At n = 2, b = 0 makes the binomial C(1, -1) = 0.
    """
    n = _index(n, 2, "local_limit_row")
    b = math.isqrt(5 * n * n) // 5  # floor(n / sqrt(5)), no floats
    ratio = binom(n + b - 1, 2 * b - 1) / fib(2 * n)
    scaled = abs(2.0 * math.sqrt(math.pi) * math.sqrt(n) * ratio / 5.0**0.75 - 1.0) * math.sqrt(n)
    return LocalLimitRow(n=n, ratio=ratio, scaled_error=scaled)


def dominant_pole(s: float) -> float:
    """r(s) = 1 + e^s/2 - sqrt(e^(2s)/4 + e^s): the generating function's nearest pole."""
    es = math.exp(s)
    return 1.0 + es / 2.0 - math.sqrt(es * es / 4.0 + es)


def singularity_constants() -> SingularityConstants:
    """Growth constants from the closed-form derivatives of the dominant pole.

    r(0) = (3 - sqrt(5))/2, r'(0) = 1/2 - 3/(2 sqrt(5)),
    r''(0) = 1/2 - 11/(10 sqrt(5)); then a = -r'(0)/r(0) and
    b^2 = a^2 - r''(0)/r(0), which equal 1/sqrt(5) and 2/(5 sqrt(5)) to
    1e-12 (tests/test_acceptance.py).
    """
    r0 = (3.0 - SQRT5) / 2.0
    r1 = 0.5 - 3.0 / (2.0 * SQRT5)
    r2 = 0.5 - 11.0 / (10.0 * SQRT5)
    a = -r1 / r0
    return SingularityConstants(r0=r0, r1=r1, r2=r2, a=a, b2=a * a - r2 / r0)


def singularity_constants_numeric(h: float) -> SingularityConstants:
    """Growth constants with r'(0), r''(0) from central differences at step h.

    Agreement with the closed forms is O(h^2); callers should allow 10 h^2.
    h is restricted to [1e-6, 1e-2]: larger steps lose the quadratic regime,
    smaller ones drown the second difference in rounding noise.
    """
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"singularity_constants_numeric requires 1e-6 <= h <= 1e-2, got {h}")
    r0, r_plus, r_minus = dominant_pole(0.0), dominant_pole(h), dominant_pole(-h)
    r1 = (r_plus - r_minus) / (2.0 * h)
    r2 = (r_plus - 2.0 * r0 + r_minus) / (h * h)
    a = -r1 / r0
    return SingularityConstants(r0=r0, r1=r1, r2=r2, a=a, b2=a * a - r2 / r0)
