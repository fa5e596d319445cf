"""End-to-end acceptance checks for the headline guarantees of the package.

Each test is self-contained (it recomputes everything it asserts), enforces
the advertised tolerance and runtime budget, and prints one PASS/FAIL line.
Run with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from morganvoyce import (
    binom,
    deriv1_closed,
    deriv2_closed,
    double_mode_sequence,
    fib,
    harper_model,
    hereditary_rows,
    kolmogorov_distance,
    local_limit_error,
    local_limit_row,
    locate_mode,
    moment_summary,
    row_closed_form,
    singularity_constants,
    singularity_constants_numeric,
    smallest_mode_index,
    three_term_rows,
)

GOLDEN_TRIANGLE = {
    1: [0, 1],
    2: [0, 2, 1],
    3: [0, 3, 4, 1],
    4: [0, 4, 10, 6, 1],
    5: [0, 5, 20, 21, 8, 1],
    6: [0, 6, 35, 56, 36, 10, 1],
    7: [0, 7, 56, 126, 120, 55, 12, 1],
    8: [0, 8, 84, 252, 330, 220, 78, 14, 1],
}

# Reference local-limit table: n -> (center ratio, scaled error), both printed
# to two significant digits.  The source table's final digits do not follow a
# single rule (three entries are nearest-rounded, three truncated), so the
# reproduction check accepts either canonical 2-digit rendering; see
# two_sig_renderings below.
LOCAL_LIMIT_GOLDEN = {
    2: ("0", "1.4e0"),
    3: ("3.7e-1", "5.3e-1"),
    4: ("1.9e-1", "1.1e0"),
    5: ("3.6e-1", "3.0e-1"),
    6: ("2.4e-1", "9.0e-1"),
    7: ("3.3e-1", "1.6e-1"),
    8: ("2.5e-1", "6.6e-1"),
    9: ("3.0e-1", "7.5e-2"),
    10: ("2.5e-1", "4.7e-1"),
    20: ("1.7e-1", "8.7e-1"),
    30: ("1.6e-1", "2.4e-1"),
    40: ("1.3e-1", "5.8e-1"),
    50: ("1.3e-1", "1.6e-1"),
    60: ("1.1e-1", "4.4e-1"),
    70: ("1.1e-1", "1.1e-1"),
    80: ("1.0e-1", "3.4e-1"),
    90: ("9.8e-2", "8.1e-2"),
    100: ("9.1e-2", "2.8e-1"),
    200: ("6.6e-2", "1.0e-1"),
    300: ("5.4e-2", "3.1e-2"),
    400: ("4.6e-2", "1.9e-1"),
    500: ("4.2e-2", "9.9e-2"),
    600: ("3.8e-2", "4.2e-2"),
    700: ("3.5e-2", "1.0e-2"),
    800: ("3.3e-2", "1.1e-1"),
    900: ("3.1e-2", "5.6e-2"),
    1000: ("2.9e-2", "2.1e-2"),
}

DOUBLE_MODE_GOLDEN = [
    (32, 72),
    (10368, 23184),
    (3338528, 7465176),
    (1074995712, 2403763488),
    (346145280800, 774004377960),
    (111457705421952, 249227005939632),
]

INV_SQRT5 = 1.0 / math.sqrt(5.0)
B2 = 2.0 / (5.0 * math.sqrt(5.0))


@contextmanager
def gate(name: str, budget: float | None = None):
    """Time a block, enforce its runtime budget, print one PASS/FAIL line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL {name}: runtime {elapsed:.2f}s exceeds budget {budget:.0f}s")
        raise AssertionError(f"{name} exceeded its {budget:.0f}s runtime budget: {elapsed:.2f}s")
    print(f"PASS {name} ({elapsed:.2f}s)")


def two_sig_renderings(x: float) -> set[str]:
    """Both canonical 2-significant-digit renderings (rounded, truncated)."""
    if x == 0:
        return {"0"}
    e = math.floor(math.log10(abs(x)))
    m = abs(x) / 10.0**e
    out = set()
    for mm in (round(m, 1), math.floor(m * 10.0) / 10.0):
        ee = e
        if mm >= 10.0:
            mm /= 10.0
            ee += 1
        out.add(f"{mm:.1f}e{ee}")
    return out


def test_01_golden_triangle_by_all_three_routes():
    with gate("01 triangle golden rows 1..8, three routes agree exactly for n <= 200", budget=1.0):
        tt = three_term_rows(200)
        hh = hereditary_rows(200, lambda k: k)
        for n, golden in GOLDEN_TRIANGLE.items():
            assert row_closed_form(n) == golden
            assert all(c.denominator == 1 for c in hh[n])
        for n in range(1, 201):
            assert row_closed_form(n) == tt[n] == hh[n]


def test_03_closed_form_moments_match_weighted_sums_to_2000():
    with gate("03 row sums F(2n), closed-form mu, sigma^2 match weighted sums for n <= 2000", budget=10.0):
        for n in range(1, 2001):
            row = row_closed_form(n)
            u = sum(row)
            v = sum(k * a for k, a in enumerate(row))
            w = sum(k * (k - 1) * a for k, a in enumerate(row))
            s = moment_summary(n)
            assert u == fib(2 * n) == s.u
            assert (deriv1_closed(n), deriv2_closed(n)) == (s.v, s.w) == (v, w)
            assert s.mu == Fraction(v, u)
            assert s.sigma2 == Fraction(w, u) - Fraction(v, u) ** 2 + Fraction(v, u)


def test_04_mode_location_and_double_mode_rows():
    with gate("04 mode location and double-mode flag for n <= 500, six golden pairs, rows 72 and 23184", budget=5.0):
        for n in range(1, 501):
            row = row_closed_form(n)
            m = smallest_mode_index(n)
            assert row.index(max(row)) == m
            assert locate_mode(n).is_double == (m < n and row[m] == row[m + 1])
        r72 = locate_mode(72)
        assert (r72.smallest_mode, r72.is_double) == (32, True)
        row72 = row_closed_form(72)
        assert row72[32] == row72[33] == 61218182743304701891431482520
        sols = double_mode_sequence(6)
        assert [(s.k, s.m, s.n, s.j) for s in sols] == [
            (k, m, n, 5 * m + 1) for k, (m, n) in enumerate(DOUBLE_MODE_GOLDEN, 1)
        ]
        # the equal peaks of the first two double-mode rows, by direct binomials
        for m, n in DOUBLE_MODE_GOLDEN[:2]:
            assert binom(n + m - 1, 2 * m - 1) == binom(n + m, 2 * m + 1)


def test_05_mode_within_unit_of_mean():
    with gate("05 0 < |mu - nearer mode| < 1 for 2 <= n <= 500 and the double-mode row n = 23184"):
        for n in [*range(2, 501), DOUBLE_MODE_GOLDEN[1][1]]:
            r = locate_mode(n)
            assert Fraction(0) < r.darroch_gap < Fraction(1)
            # the gap really is the distance from the mean to the nearer mode
            mu = moment_summary(n).mu
            candidates = [r.smallest_mode] + ([r.smallest_mode + 1] if r.is_double else [])
            assert r.darroch_gap == min(abs(mu - m) for m in candidates)


def test_06_growth_constants():
    with gate("06 r0 = (3 - sqrt(5))/2, a = 1/sqrt(5), b^2 = 2/(5 sqrt(5)) closed form + finite differences"):
        closed = singularity_constants()
        assert abs(closed.r0 - 0.3819660112501051) < 1e-15
        assert abs(closed.a - INV_SQRT5) < 1e-12
        assert abs(closed.b2 - B2) < 1e-12
        for h in (1e-3, 1e-4):
            numeric = singularity_constants_numeric(h)
            assert abs(numeric.r0 - closed.r0) < 1e-15  # no differencing at s = 0
            assert abs(numeric.a - closed.a) < 10.0 * h * h
            assert abs(numeric.b2 - closed.b2) < 10.0 * h * h


def test_07_kolmogorov_below_berry_esseen_bound():
    ns = list(range(2, 101)) + [200, 500, 1000, 2000, 5000, 10000]
    with gate("07 D_n <= 0.7975/sigma_n for n in {2..100, 200, 500, 1000, 2000, 5000, 10^4}", budget=60.0):
        for n in ns:
            r = kolmogorov_distance(n)
            assert r.kolmogorov <= r.be_bound, n
            assert 0.0 <= r.kolmogorov <= 1.0


def test_08_local_limit_reference_table():
    with gate("08 reference table reproduced at two significant digits, 27 rows", budget=30.0):
        for n, (ratio_ref, scaled_ref) in LOCAL_LIMIT_GOLDEN.items():
            row = local_limit_row(n)
            assert ratio_ref in two_sig_renderings(row.ratio), (n, row.ratio)
            assert scaled_ref in two_sig_renderings(row.scaled_error), (n, row.scaled_error)


def test_09_harper_reconstruction_and_third_moments():
    with gate(
        "09 Bernoulli-factor reconstruction <= 1e-9 (n <= 50 and n in {100, 500, 1000, 2000, "
        "5000}), third moments exact on every root (n <= 200)"
    ):
        for n in [*range(2, 51), 100, 500, 1000, 2000, 5000]:
            model = harper_model(n)
            total = fib(2 * n)
            # int / int is correctly rounded, as ratio_to_float is, without
            # first reducing the fraction (its gcd dominates at n = 5000)
            exact = [a / total for a in row_closed_form(n)]
            assert max(abs(p - e) for p, e in zip(model.pmf, exact)) < 1e-9
        for n in range(2, 201):
            # a factor with success probability 1/(1+r) has third absolute
            # central moment rho <= its variance exactly when r >= 0
            for r in map(Fraction, harper_model(n).roots):
                assert r >= 0
                assert r * (1 + r * r) / (1 + r) ** 4 <= r / (1 + r) ** 2


def test_10_generic_weight_specializations(set_partition_counts):
    with gate("10 unit weight gives shifted Pascal; 1/k! counts ordered-block partitions"):
        unit = hereditary_rows(50, lambda k: 1)
        for n in range(1, 51):
            assert unit[n] == [binom(n - 1, k - 1) for k in range(n + 1)]
        # n! * coeff(n, k) = k! * S(n, k): ordered partitions into k blocks
        fact = hereditary_rows(12, lambda k: Fraction(1, math.factorial(k)))
        for n in range(1, 13):
            stirling = set_partition_counts(n)
            for k in range(n + 1):
                assert fact[n][k] * math.factorial(n) == math.factorial(k) * stirling[k]


def test_11_local_limit_sup_error_monotone_spot_check():
    with gate("11 sup local-limit error on [-3, 3]: finite, smaller at n = 1000 than n = 100"):
        e100 = local_limit_error(100, -3.0, 3.0, 601)
        e1000 = local_limit_error(1000, -3.0, 3.0, 601)
        assert math.isfinite(e100) and math.isfinite(e1000)
        assert e1000 < e100
        assert e1000 < 0.05
