"""Exact integer and rational primitives used by every other module.

Arbitrary-precision signed integers are Python ``int``; exact rationals are
``fractions.Fraction`` (always stored in lowest terms with a positive
denominator, so equality is canonical-form equality).  Everything here is a
pure function of its arguments: no global state, safe to call concurrently.
The private ``_index`` owns the argument rule of every public entry point
that takes a row index or a count, so that rule and its messages live here.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = ["fib", "binom", "ratio_to_float"]


def _index(value: int, lo: int, fn: str, name: str = "n") -> int:
    """value as an int via ``operator.index`` (numpy ints included); a bool raises
    TypeError, and a value below lo raises "<fn> requires <name> >= <lo>, got <value>"."""
    if type(value) is bool:  # bool cannot be subclassed
        raise TypeError("a row index or count must be an integer, not bool")
    value = operator.index(value)
    if value < lo:
        raise ValueError(f"{fn} requires {name} >= {lo}, got {value}")
    return value


def fib(n: int) -> int:
    """Fibonacci number F(n), with F(0) = 0 and F(1) = 1.

    Fast doubling: F(2k) = F(k)*(2*F(k+1) - F(k)) and
    F(2k+1) = F(k)^2 + F(k+1)^2, walking the bits of n from the top.
    O(log n) big-integer multiplications, so n up to 10**6 is practical.
    """
    n = _index(n, 0, "fib")
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
    n = _index(n, 0, "binom")
    k = _index(k, -math.inf, "binom", "k")  # no lower bound: k outside 0..n gives 0
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def ratio_to_float(value: Fraction) -> float:
    """Convert an exact rational to the nearest machine float.

    CPython's ``int / int`` is correctly rounded at any magnitude, so this
    stays finite whenever the *value* is in float range even if numerator and
    denominator individually overflow float (F(2n) does so near n = 740).
    """
    return value.numerator / value.denominator
