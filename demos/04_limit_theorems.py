#!/usr/bin/env python3
"""Central and local limit behavior of the normalized rows.

The row polynomial is real-rooted, so A(n, .)/F(2n) is the distribution of a
sum of independent Bernoulli variables (Harper's method).  That gives a
Berry-Esseen rate: the exact Kolmogorov distance to the normal CDF stays
below 0.7975/sigma_n.  Pointwise, sigma_n A*(n, floor(mu_n + x sigma_n))
approaches the normal density.  Independently, singularity analysis of the
generating function 1/(1 - x t/(1-t)^2) yields the same growth constants
a = 1/sqrt(5), b^2 = 2/(5 sqrt(5)) from the dominant pole r(s).
"""

import math

from morganvoyce import (
    harper_model,
    kolmogorov_distance,
    local_limit_error,
    local_limit_row,
    singularity_constants,
    singularity_constants_numeric,
)

print("=" * 72)
print("Harper factorization: row 4 as a product of Bernoulli generating factors")
print("=" * 72)
m = harper_model(4)
print(f"  factor roots r_j:      {[round(r, 6) for r in m.roots]}")
print(f"  success probabilities: {[round(p, 6) for p in m.success_probs]}")
print(f"  reconstructed pmf:     {[round(p, 6) for p in m.pmf]}")
print(f"  exact pmf:             {[round(a / 21, 6) for a in (0, 4, 10, 6, 1)]}")

print()
print("Kolmogorov distance vs the Berry-Esseen bound 0.7975/sigma_n:")
print(f"  {'n':>6} {'D_n':>10} {'bound':>10} {'D_n*sqrt(n)':>12}")
for n in (2, 4, 16, 64, 256, 1000):
    r = kolmogorov_distance(n)
    print(f"  {n:>6} {r.kolmogorov:>10.5f} {r.be_bound:>10.5f} {r.kolmogorov * math.sqrt(n):>12.4f}")
print("  (D_n * sqrt(n) hovering near a constant matches the 1/sigma_n rate)")

print()
print("Local limit: sup over [-3, 3] of |sigma_n A*(n, floor(mu + x sigma)) - phi(x)|")
for n in (10, 100, 1000):
    print(f"  n={n:>5}: sup error = {local_limit_error(n):.5f}")

print()
print("Center entries against the asymptotic 5^(3/4)/(2 sqrt(pi n)) * F(2n):")
print(f"  {'n':>6} {'A(n, floor(n/sqrt5))/F(2n)':>28} {'scaled error * sqrt(n)':>24}")
for n in (10, 100, 1000):
    row = local_limit_row(n)
    print(f"  {n:>6} {row.ratio:>28.6f} {row.scaled_error:>24.6f}")

print()
print("Growth constants from the dominant pole r(s) = 1 + e^s/2 - sqrt(e^2s/4 + e^s):")
c = singularity_constants()
print(f"  closed form:        a = {c.a:.12f}   b^2 = {c.b2:.12f}")
for h in (1e-3, 1e-4):
    numeric = singularity_constants_numeric(h)
    print(f"  central diff h={h:g}: a = {numeric.a:.12f}   b^2 = {numeric.b2:.12f}")
print(f"  targets:            a = {1 / math.sqrt(5):.12f}   b^2 = {2 / (5 * math.sqrt(5)):.12f}")
