"""Mode location for the triangle rows and the double-mode Pell solutions.

Row n is unimodal with at most two modes.  Adjacent entries compare as
A(n, m) - A(n, m+1), whose sign is the sign of 5m^2 + 2m - n^2, so the
smallest mode is the least m with 5m^2 + 2m >= n^2; the mode is doubled
(A(n, m) = A(n, m+1)) exactly when 5m^2 + 2m = n^2.  Substituting j = 5m + 1
turns that equation into the Pell-Fermat equation j^2 - 5n^2 = 1, whose
admissible (j = 1 mod 5) solutions are generated by the squared fundamental
matrix [[161, 360], [72, 161]].  All decisions here are exact integer
arithmetic -- no floating-point square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .exact import _index
from .moments import _uvw

__all__ = [
    "ModeResult",
    "PellSolution",
    "smallest_mode_index",
    "locate_mode",
    "double_mode_sequence",
]


@dataclass(frozen=True)
class ModeResult:
    """Mode data for one row; darroch_gap = exact distance from mu to the nearer mode."""

    n: int
    smallest_mode: int
    is_double: bool
    darroch_gap: Fraction


@dataclass(frozen=True)
class PellSolution:
    """k-th double-mode row: modes m and m+1 in row n, with j = 5m + 1."""

    k: int
    m: int
    n: int
    j: int


def smallest_mode_index(n: int) -> int:
    """Least m >= 1 with 5m^2 + 2m >= n^2, via exact integer square root.

    Equivalent to the window lower endpoint (sqrt(5n^2+1) - 1)/5 rounded up:
    5m^2 + 2m >= n^2 iff (5m+1)^2 >= 5n^2 + 1.
    """
    n = _index(n, 1, "smallest_mode_index")
    target = 5 * n * n + 1
    s = math.isqrt(target)
    c = s if s * s == target else s + 1  # ceil(sqrt(5n^2+1))
    return (c + 3) // 5  # least m with 5m + 1 >= c


def locate_mode(n: int) -> ModeResult:
    """Smallest mode of row n, double-mode flag, and exact gap |v - m u| / u to the mean v/u."""
    n = _index(n, 1, "locate_mode")
    m = smallest_mode_index(n)
    is_double = 5 * m * m + 2 * m == n * n
    u, v, _ = _uvw(n)
    d = abs(v - m * u)
    if is_double:
        d = min(d, abs(v - (m + 1) * u))
    return ModeResult(n=n, smallest_mode=m, is_double=is_double, darroch_gap=Fraction(d, u))


def double_mode_sequence(count: int) -> List[PellSolution]:
    """First `count` double-mode rows (m_k, n_k), k = 1..count.

    Iterates (5m+1, n) <- [[161, 360], [72, 161]] (5m+1, n) from (1, 0).
    The matrix keeps j^2 - 5n^2 and j mod 5, so j = 5m + 1 and 5m^2 + 2m = n^2.
    """
    count = _index(count, 1, "double_mode_sequence", "count")
    out: List[PellSolution] = []
    j, n = 1, 0
    for k in range(1, count + 1):
        j, n = 161 * j + 360 * n, 72 * j + 161 * n
        out.append(PellSolution(k=k, m=(j - 1) // 5, n=n, j=j))
    return out

