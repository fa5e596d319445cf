"""Row sums, derivative sums, and the exact mean/variance closed forms."""

from __future__ import annotations

import math
from fractions import Fraction

from morganvoyce import (
    deriv1_closed,
    deriv2_closed,
    fib,
    moment_summary,
    ratio_to_float,
    row_closed_form,
)
from morganvoyce.moments import _uvw

INV_SQRT5 = 1.0 / math.sqrt(5.0)
B2 = 2.0 / (5.0 * math.sqrt(5.0))


def test_row_sum_values():
    assert sum(row_closed_form(1)) == moment_summary(1).u == 1  # F2
    assert sum(row_closed_form(4)) == moment_summary(4).u == 21  # F8
    assert sum(row_closed_form(8)) == moment_summary(8).u == 987  # 8+84+252+330+220+78+14+1 = F16


def test_uvw_divisions_are_exact_for_every_n():
    # F mod 5 repeats every 20 and F mod 25 every 100 (two consecutive terms
    # fix the rest), and the coefficients in n repeat every 5 and 25.  So in n
    # the v numerator mod 5 has period 10 and the w numerator mod 25 period
    # 50: one period of each proves the division exact for every n.
    assert (fib(20) % 5, fib(21) % 5) == (0, 1)
    assert (fib(100) % 25, fib(101) % 25) == (0, 1)
    for n in range(50):
        u, v, w = _uvw(n)
        f1 = fib(2 * n + 1)
        assert u == fib(2 * n)
        assert 5 * v == 2 * n * f1 + (2 - n) * u
        assert 25 * w == (5 * n * n - n - 8) * u + 2 * n * f1


def test_deriv1_initial_values():
    assert [deriv1_closed(n) for n in (0, 1, 2, 3, 4)] == [0, 1, 4, 14, 46]


def test_deriv1_weighted_sum_row6():
    # direct weighted sum of row 6: 6 + 2*35 + 3*56 + 4*36 + 5*10 + 6*1
    assert 6 + 70 + 168 + 144 + 50 + 6 == 444
    assert deriv1_closed(6) == 444


def test_deriv2_initial_values():
    assert [deriv2_closed(n) for n in (1, 2, 3, 4, 5, 6)] == [0, 2, 14, 68, 282, 1068]


def test_moment_summary_small_cases():
    s1 = moment_summary(1)
    assert (s1.mu, s1.sigma2) == (Fraction(1), Fraction(0))  # point mass at k = 1
    s2 = moment_summary(2)
    assert (s2.mu, s2.sigma2) == (Fraction(4, 3), Fraction(2, 9))  # from row [0, 2, 1]
    assert moment_summary(4).mu == Fraction(46, 21)


def test_moments_equal_fibonacci_ratio_forms_to_2000():
    # the closed forms of the paper, equal to v/u and w/u - (v/u)^2 + v/u by
    # F(2n)^2 + F(2n) F(2n+1) - F(2n+1)^2 = -1
    half = Fraction(1, 2)
    for n in range(1, 2001):
        u, ratio = fib(2 * n), Fraction(fib(2 * n + 1), fib(2 * n))
        s = moment_summary(n)
        assert s.mu == Fraction(2, 5) * (ratio - half + Fraction(1, n)) * n
        correction = Fraction(n, u * u) + Fraction(1, 2 * n)
        assert s.sigma2 == Fraction(4, 25) * (ratio - half - correction) * n


def test_mean_is_never_integer_for_n_from_2_to_500():
    for n in range(2, 501):
        s = moment_summary(n)
        assert s.mu.denominator != 1
        assert 0 < s.mu < n
        assert s.sigma2 >= 0


def test_mean_rate_has_exact_leading_correction():
    # mu/n - 1/sqrt(5) - 2/(5n) decays like the Fibonacci-ratio error, far
    # below 1e-8 from n = 20 on.
    for n in range(20, 1001, 7):
        s = moment_summary(n)
        assert abs(ratio_to_float(s.mu / n) - INV_SQRT5 - 2.0 / (5.0 * n)) < 1e-8
    # the variance rate sigma^2/n tends to 2/(5 sqrt(5))
    assert abs(ratio_to_float(moment_summary(1000).sigma2 / 1000) - B2) < 5e-4


def test_variance_strictly_increases_to_500():
    prev = moment_summary(2).sigma2
    for n in range(3, 501):
        cur = moment_summary(n).sigma2
        assert cur > prev
        prev = cur
