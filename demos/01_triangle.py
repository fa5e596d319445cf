#!/usr/bin/env python3
"""Walk through the coefficient triangle and its three generation routes.

The triangle A(n, k) = C(n+k-1, 2k-1) (OEIS A078812) can be produced from the
binomial closed form, from the three-term recurrence
Q[n+2] = (2+x) Q[n+1] - Q[n], or from the weighted-history recurrence
p[n] = x * sum(g(k) p[n-k]) with g(k) = k.  This script prints the first rows
from each route, shows the degree-reversed rows, and checks log-concavity.
"""

from fractions import Fraction

from morganvoyce import (
    hereditary_rows,
    reciprocal_row,
    row_closed_form,
    three_term_rows,
)

N = 10

print("=" * 72)
print("Coefficient triangle, rows 1..%d (closed form C(n+k-1, 2k-1))" % N)
print("=" * 72)
for n in range(1, N + 1):
    row = row_closed_form(n)
    print(f"  n={n:2d}:  " + "  ".join(f"{a:6d}" for a in row[1:]))

print()
print("Same rows from the three-term recurrence and the weighted recurrence:")
rows_tt = three_term_rows(N)
rows_hh = hereditary_rows(N, lambda k: k)
agree = all(row_closed_form(n) == rows_tt[n] == rows_hh[n] for n in range(1, N + 1))
print(f"  all three routes agree exactly for n <= {N}: {agree}")

print()
print("Degree-reversed rows have coefficients C(2n-k-1, k):")
for n in (4, 5):
    print(f"  n={n}: reversed row  {row_closed_form(n)[::-1]}")
    print(f"        C(2n-k-1, k)  {reciprocal_row(n)}")

print()
print("Every row is log-concave (a_k^2 >= a_(k-1) a_(k+1)), hence unimodal:")
for n in (6, 25, 100):
    row = row_closed_form(n)
    ok = all(row[k] ** 2 >= row[k - 1] * row[k + 1] for k in range(2, n))
    peak = row.index(max(row))
    print(f"  n={n:3d}: log-concave={ok}, peak at k={peak}")

print()
print("Other weight functions, same machinery:")
print("  g == 1     -> rows of the shifted Pascal triangle C(n-1, k-1):")
rows_unit = hereditary_rows(6, lambda k: 1)
for n in range(1, 7):
    print(f"    n={n}: {rows_unit[n][1:]}")
print("  g(k) = 1/k! -> n! * coeff(n, k) counts partitions of an n-set into")
print("                k ordered blocks (k! times a Stirling number):")
import math

rows_fact = hereditary_rows(6, lambda k: Fraction(1, math.factorial(k)))
for n in range(1, 7):
    scaled = [rows_fact[n][k] * math.factorial(n) for k in range(n + 1)]
    print(f"    n={n}: {[int(c) for c in scaled][1:]}")
