"""Exact row sums and first two moments of the row distributions.

Write u(n) = Q_n(1), v(n) = Q_n'(1), w(n) = Q_n''(1) for the row polynomial
Q_n.  The row sum is u(n) = F(2n); v and w have Fibonacci closed forms whose
numerators are divisible by 5 and 25 respectively.  Those closed forms live in
one place, the private ``_uvw(n)``, which deriv1_closed, deriv2_closed,
moment_summary and modes.locate_mode read.  The normalized row is a
probability distribution with mean mu = v/u and variance
sigma^2 = w/u - (v/u)^2 + v/u; both are kept as exact rationals end to end,
with float conversion left to callers at reporting boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exact import _index, fib

__all__ = [
    "MomentSummary",
    "deriv1_closed",
    "deriv2_closed",
    "moment_summary",
]


@dataclass(frozen=True)
class MomentSummary:
    """Exact moment data for one row: u = Q_n(1), v = Q_n'(1), w = Q_n''(1)."""

    n: int
    u: int
    v: int
    w: int
    mu: Fraction
    sigma2: Fraction


def _uvw(n: int) -> Tuple[int, int, int]:
    """(u, v, w) of row n from one F(2n) and one F(2n+1).  The divisions are
    exact: the numerators mod 5 and 25 repeat in n with periods 10 and 50."""
    u = fib(2 * n)
    f1 = fib(2 * n + 1)
    v = (2 * n * f1 + (2 - n) * u) // 5
    w = ((5 * n * n - n - 8) * u + 2 * n * f1) // 25
    return u, v, w


def deriv1_closed(n: int) -> int:
    """v(n) = (2n F(2n+1) + 2 F(2n) - n F(2n)) / 5, exact."""
    n = _index(n, 0, "deriv1_closed")
    return _uvw(n)[1]


def deriv2_closed(n: int) -> int:
    """w(n) = ((5n^2 - n - 8) F(2n) + 2n F(2n+1)) / 25, exact."""
    n = _index(n, 0, "deriv2_closed")
    return _uvw(n)[2]


def moment_summary(n: int) -> MomentSummary:
    """Exact mean and variance of the normalized row n.

    One route: mu = v/u and sigma^2 = (w u - v^2 + v u) / u^2, one Fraction
    each from the integers of _uvw(n).  Their equality with the paper's
    Fibonacci-ratio forms is tested in tests/test_moments.py, not checked here.

    n = 1 is allowed (mu = 1, sigma2 = 0) although the limit-checking module
    rejects it: a zero variance cannot be normalized.
    """
    n = _index(n, 1, "moment_summary")
    u, v, w = _uvw(n)
    mu = Fraction(v, u)
    sigma2 = Fraction(w * u - v * v + v * u, u * u)
    return MomentSummary(n=n, u=u, v=v, w=w, mu=mu, sigma2=sigma2)
