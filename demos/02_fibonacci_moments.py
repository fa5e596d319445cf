#!/usr/bin/env python3
"""Row sums and exact moments: where the Fibonacci numbers enter.

Each row sums to F(2n), so A(n, k)/F(2n) is a probability distribution.  Its
mean and variance have closed forms in F(2n) and F(2n+1); dividing by n they
converge (Kepler: ratios of consecutive Fibonacci numbers approach the golden
ratio) to 1/sqrt(5) and 2/(5 sqrt(5)).
"""

import math

from morganvoyce import fib, moment_summary, ratio_to_float, row_closed_form

A = 1.0 / math.sqrt(5.0)
B2 = 2.0 / (5.0 * math.sqrt(5.0))

print("=" * 72)
print("Row sums are even-indexed Fibonacci numbers")
print("=" * 72)
for n in range(1, 11):
    print(f"  n={n:2d}: sum = {sum(row_closed_form(n)):6d} = F({2 * n})")

print()
print("Exact mean and variance (closed forms in F(2n) and F(2n+1)):")
print(f"  {'n':>5} {'mu':>16} {'sigma^2':>16} {'mu float':>12} {'var float':>12}")
for n in (1, 2, 3, 4, 5, 10, 20):
    s = moment_summary(n)
    print(
        f"  {n:>5} {str(s.mu):>16} {str(s.sigma2):>16} "
        f"{ratio_to_float(s.mu):>12.6f} {ratio_to_float(s.sigma2):>12.6f}"
    )

print()
print("Convergence of mu/n and sigma^2/n to 1/sqrt(5), 2/(5 sqrt(5)):")
print(f"  {'n':>6} {'mu/n':>12} {'gap':>10} {'var/n':>12} {'gap':>10}")
for n in (10, 100, 1000, 10000):
    s = moment_summary(n)
    mf, vf = ratio_to_float(s.mu / n), ratio_to_float(s.sigma2 / n)
    print(f"  {n:>6} {mf:>12.8f} {abs(mf - A):>10.2e} {vf:>12.8f} {abs(vf - B2):>10.2e}")
print(f"  limit  {A:>12.8f} {'':>10} {B2:>12.8f}")

print()
print("The mean is never an integer for n >= 2 (denominators stay > 1):")
for n in range(2, 12):
    print(f"  n={n:2d}: mu = {moment_summary(n).mu}")

print()
print("F(2n) blows past float range near n = 740; the exact pipeline does not care:")
n = 1000
s = moment_summary(n)
print(f"  n={n}: F(2n) has {len(str(fib(2 * n)))} digits, mu/n = {ratio_to_float(s.mu / n):.10f}")
