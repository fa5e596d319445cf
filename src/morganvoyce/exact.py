"""Exact integer and rational primitives used by every other module.

Arbitrary-precision signed integers are Python ``int``; exact rationals are
``fractions.Fraction`` (always stored in lowest terms with a positive
denominator, so equality is canonical-form equality).  The aliases below name
those roles.  Everything here is a pure function of its arguments: no global
state, safe to call concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction

ExactInt = int
ExactRatio = Fraction

__all__ = ["ExactInt", "ExactRatio", "fib", "binom", "fib_identity_check", "ratio_to_float"]


def fib(n: int) -> int:
    """Fibonacci number F(n), with F(0) = 0 and F(1) = 1.

    Fast doubling: F(2k) = F(k)*(2*F(k+1) - F(k)) and
    F(2k+1) = F(k)^2 + F(k+1)^2, walking the bits of n from the top.
    O(log n) big-integer multiplications, so n up to 10**6 is practical.
    """
    if n < 0:
        raise ValueError(f"fib requires n >= 0, got {n}")
    if n == 0:
        return 0
    a, b = 0, 1  # F(k), F(k+1) for the prefix of bits consumed so far
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) via ``math.comb``; 0 when k < 0 or k > n.

    Out-of-range k returning 0 is relied on by callers that form C(n-1, -1).
    """
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def fib_identity_check(n: int) -> bool:
    """True iff F(2n)^2 + F(2n)*F(2n+1) - F(2n+1)^2 == -1, evaluated exactly."""
    if n < 0:
        raise ValueError(f"fib_identity_check requires n >= 0, got {n}")
    a = fib(2 * n)
    b = fib(2 * n + 1)
    return a * a + a * b - b * b == -1


def ratio_to_float(value: Fraction) -> float:
    """Convert an exact rational to the nearest machine float.

    CPython's ``int / int`` is correctly rounded at any magnitude, so this
    stays finite whenever the *value* is in float range even if numerator and
    denominator individually overflow float (F(2n) does so near n = 740).
    """
    return value.numerator / value.denominator
