"""Generators for the coefficient triangle A(n, k) = C(n+k-1, 2k-1).

A row is a plain list indexed k = 0..n.  Every row of the integer triangle
has A(n, 0) = 0 (the polynomials have no constant term), A(n, 1) = n, and
A(n, n) = 1; the entries rise to a peak and fall again (log-concave, hence
unimodal).  Three independent generation routes are provided, one function
each:

* ``row_closed_form``  -- row n from the closed form, walked once along the
  exact ratio of consecutive entries
  A(n, k+1) / A(n, k) = (n+k)(n-k) / (2k(2k+1)), in O(n) steps;
* ``three_term_rows``  -- rows 0..max_n from the recurrence
  Q[n+2] = (2+x) Q[n+1] - Q[n];
* ``hereditary_rows``  -- rows 0..max_n of the weighted-history recurrence
  p[n] = x * sum(g(k) * p[n-k], k = 1..n), p[0] = 1, for any arithmetic
  weight function g.  With g(k) = k this reproduces the integer triangle.
  The rows compute in g's own type: int weights give int rows, and any other
  weight is coerced to an exact Fraction, giving Fraction rows.

``reciprocal_row`` is ``row_closed_form`` reversed, so there is one kernel for
closed-form rows.  The module calls no binomial routine: per-entry
``math.comb`` is kept as the independent oracle in the tests.

All functions are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List

from .exact import _index

__all__ = [
    "row_closed_form",
    "three_term_rows",
    "hereditary_rows",
    "reciprocal_row",
]


def row_closed_form(n: int) -> List[int]:
    """Row n of the triangle, coeffs[k] = A(n, k) = C(n+k-1, 2k-1), k = 0..n.

    The k = 0 entry is C(n-1, -1) = 0, carried explicitly so CDF code can
    index rows uniformly from 0.  From A(n, 1) = n each next entry is
    A(n, k+1) = A(n, k) * (n+k)(n-k) // (2k(2k+1)); the product equals
    A(n, k+1) * 2k(2k+1), so every floor division is exact and the row costs
    n - 1 big-by-small multiplications and divisions.
    """
    n = _index(n, 1, "row_closed_form")
    row = [0, n]
    a = n
    for k in range(1, n):
        a = a * ((n + k) * (n - k)) // (2 * k * (2 * k + 1))
        row.append(a)
    return row


def three_term_rows(max_n: int) -> List[List[int]]:
    """Rows 0..max_n via Q[n+2] = (2+x) Q[n+1] - Q[n], Q1 = x, Q2 = x^2 + 2x."""
    max_n = _index(max_n, 0, "three_term_rows", "max_n")
    rows = [[1]]
    if max_n >= 1:
        rows.append([0, 1])
    if max_n >= 2:
        rows.append([0, 2, 1])
    while len(rows) <= max_n:
        q1, q0 = rows[-1], rows[-2]
        out = [0] * (len(q1) + 1)
        for i, c in enumerate(q1):  # (2 + x) * q1
            out[i] += 2 * c
            out[i + 1] += c
        for i, c in enumerate(q0):
            out[i] -= c
        rows.append(out)
    return rows


def hereditary_rows(max_n: int, g: Callable[[int], Fraction | int]) -> List[List[Fraction | int]]:
    """Rows 0..max_n of p[n] = x * sum(g(k) * p[n-k], k = 1..n) with p[0] = 1.

    g is evaluated once for each k = 1..max_n.  A value of type int is used
    as it is; any other value is coerced to Fraction, so int weights give int
    rows and every other weight gives exact Fraction rows.  Row n has
    length n + 1 with a leading exact zero (the int 0, as row 0 is [1]).
    """
    max_n = _index(max_n, 0, "hereditary_rows", "max_n")
    weights = [w if type(w) is int else Fraction(w) for w in map(g, range(1, max_n + 1))]
    rows: List[List[Fraction | int]] = [[1]]
    for n in range(1, max_n + 1):
        acc = [0] * n
        for gk, row in zip(weights, reversed(rows)):  # g(k) * p[n-k], k = 1..n
            for i, c in enumerate(row):
                acc[i] += gk * c
        rows.append([0] + acc)  # multiply by x: shift up one degree
    return rows


def reciprocal_row(n: int) -> List[int]:
    """Coefficients C(2n-k-1, k), k = 0..n, of the degree-reversed row.

    This is row_closed_form(n) read backwards: entry k here is A(n, n-k), with
    no extra index shift (the k = n entry is C(n-1, n) = 0, matching the
    absent constant term of the original row).
    """
    n = _index(n, 1, "reciprocal_row")
    return row_closed_form(n)[::-1]
