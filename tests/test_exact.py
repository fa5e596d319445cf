"""Integer and rational primitives: Fibonacci, binomials, float conversion."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from morganvoyce import binom, fib, ratio_to_float


def fib_identity_check(n: int) -> bool:
    """True iff F(2n)^2 + F(2n)*F(2n+1) - F(2n+1)^2 == -1, evaluated exactly."""
    a = fib(2 * n)
    b = fib(2 * n + 1)
    return a * a + a * b - b * b == -1


def test_fib_base_cases():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(8) == 21  # also the sum of triangle row 4


def test_fib_matches_direct_recurrence_chain_to_2000():
    a, b = 0, 1
    for n in range(2001):
        assert fib(n) == a
        a, b = b, a + b


def test_binom_values():
    assert binom(7, 4) == 35
    assert binom(7, 3) == 35
    assert binom(5, 0) == 1
    assert binom(103, 63) == 61218182743304701891431482520
    assert binom(104, 65) == binom(103, 63)


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(1, -1) == 0  # C(n-1, -1) at n = 2, needed by the k = 0 column
    assert binom(0, 0) == 1
    with pytest.raises(TypeError):  # k follows the index rule too, though any int k is allowed
        binom(5, True)


def test_binom_pascal_additivity_to_300():
    prev = [1]
    for n in range(1, 301):
        cur = [binom(n, k) for k in range(n + 1)]
        for k in range(n + 1):
            left = prev[k - 1] if k >= 1 else 0
            right = prev[k] if k <= n - 1 else 0
            assert cur[k] == left + right
        prev = cur


def test_fib_identity_examples():
    assert fib_identity_check(0)  # 0 + 0 - 1 = -1
    assert fib_identity_check(2)  # 9 + 15 - 25 = -1 with F4 = 3, F5 = 5
    assert fib_identity_check(100)


def test_fib_identity_holds_to_1000():
    assert all(fib_identity_check(n) for n in range(1001))


def test_fraction_canonicalization():
    rng = random.Random(20260808)
    for _ in range(500):
        p = rng.randint(-10**12, 10**12)
        q = rng.randint(1, 10**12)
        c = rng.choice([-1, 2, 3, 7, 10**6, -(10**9)])
        assert Fraction(p, q) == Fraction(c * p, c * q)
        assert Fraction(p, q).denominator > 0


def test_ratio_to_float_exact_dyadics():
    assert ratio_to_float(Fraction(0, 5)) == 0.0
    assert ratio_to_float(Fraction(3, 8)) == 0.375
    assert ratio_to_float(Fraction(-7, 2)) == -3.5
    assert ratio_to_float(Fraction(1, 2**60)) == 2.0**-60


def test_ratio_to_float_matches_correctly_rounded_division():
    # CPython's int/int is correctly rounded for any magnitudes: use it as the
    # independent reference; a correctly rounded result is unique, so no ulp
    # of slack is allowed.
    rng = random.Random(7)
    for _ in range(5000):
        p = rng.randint(-(10**40), 10**40)
        q = rng.randint(1, 10**40)
        mine = ratio_to_float(Fraction(p, q))
        ref = Fraction(p, q).numerator / Fraction(p, q).denominator
        assert mine == ref


def test_ratio_to_float_survives_huge_denominators():
    p = binom(1499, 999)  # triangle entry A(1000, 500)
    q = fib(2000)
    with pytest.raises(OverflowError):
        float(p) / float(q)  # the naive route overflows
    value = ratio_to_float(Fraction(p, q))
    assert value == p / q  # int truediv stays exact-rounded at any magnitude
    assert 0.0 < value < 1.0
