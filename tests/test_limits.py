"""Harper factorization, Kolmogorov distance, local limit, growth constants."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from morganvoyce import (
    dominant_pole,
    harper_model,
    kolmogorov_distance,
    local_limit_error,
    local_limit_row,
    moment_summary,
    normal_cdf,
    normal_pdf,
    ratio_to_float,
    row_closed_form,
    singularity_constants_numeric,
)
from morganvoyce.limits import DEFAULT_GRID

# ---------------------------------------------------------------------------
# normal CDF
# ---------------------------------------------------------------------------

def test_normal_cdf_center_and_tail():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(10.0) <= 1.0
    assert normal_cdf(10.0) > 1.0 - 1e-15
    assert normal_cdf(-10.0) < 1e-20


def test_normal_cdf_at_one():
    # frozen from 30-digit quadrature of the density: 0.841344746068542948...
    assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-15


def test_normal_cdf_symmetry_grid():
    for x in np.linspace(0.0, 8.0, 161):
        assert abs(normal_cdf(float(x)) + normal_cdf(float(-x)) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Harper's Bernoulli factorization
# ---------------------------------------------------------------------------

def test_harper_roots_small_cases():
    m2 = harper_model(2)
    assert np.allclose(sorted(m2.roots), [0.0, 2.0])
    np.testing.assert_allclose(m2.pmf, [0.0, 2 / 3, 1 / 3], atol=1e-12)
    m3 = harper_model(3)
    assert np.allclose(sorted(m3.roots), [0.0, 1.0, 3.0])  # x^2+4x+3 = (x+1)(x+3)
    # a result is an immutable value: equal by fields, tuples of floats
    m4 = harper_model(4)
    assert m4 == harper_model(4)
    for field in (m4.roots, m4.success_probs, m4.pmf):
        assert type(field) is tuple and all(type(v) is float for v in field)
    with pytest.raises(TypeError):
        m4.pmf[0] = 1.0


def test_harper_reconstruction_row4():
    m4 = harper_model(4)
    assert abs(m4.pmf[2] - 10 / 21) < 1e-12


def test_harper_success_probs_sum_to_mean():
    for n in (2, 5, 30, 120):
        model = harper_model(n)
        mu = ratio_to_float(moment_summary(n).mu)
        assert abs(float(np.sum(model.success_probs)) - mu) < 1e-9


def test_harper_root_sum_matches_subleading_coefficient(rows500):
    # sum of the factor roots equals A(n, n-1) = C(2n-2, 2n-3) = 2(n-1)
    for n in (2, 3, 10, 57, 200):
        model = harper_model(n)
        assert rows500[n][n - 1] == 2 * (n - 1)
        assert abs(float(np.sum(model.roots)) - 2 * (n - 1)) < 1e-9 * n


def test_third_moment_domination_pointwise():
    # A factor with success probability 1/(1+r) has var = r/(1+r)^2 and
    # rho = r(1+r^2)/(1+r)^4, so var - rho = 2r^2/(1+r)^4 >= 0 for r >= 0.
    # Times (1+r)^4 that is an identity of degree 3 in r: four points prove it.
    for r in map(Fraction, (0, 1, 2, Fraction(1, 3), 5)):
        var, rho = r / (1 + r) ** 2, r * (1 + r * r) / (1 + r) ** 4
        assert var - rho == 2 * r * r / (1 + r) ** 4


# ---------------------------------------------------------------------------
# Kolmogorov distance vs the Berry-Esseen bound
# ---------------------------------------------------------------------------

def test_kolmogorov_two_point_row():
    # exact enumeration of the n = 2 CDF against the normal: the jump at
    # k = 1 dominates with |2/3 - Phi(-1/sqrt(2))|
    r = kolmogorov_distance(2)
    expected = 2 / 3 - normal_cdf(-1 / math.sqrt(2))
    assert abs(r.kolmogorov - expected) < 1e-12
    assert abs(r.kolmogorov - 0.42691660557318983) < 1e-12
    assert abs(r.sigma - math.sqrt(2) / 3) < 1e-15
    assert abs(r.be_bound - 0.7975 * 3 / math.sqrt(2)) < 1e-12
    assert r.kolmogorov <= r.be_bound


def test_kolmogorov_scaled_distance_stays_bounded():
    vals = [kolmogorov_distance(n).kolmogorov * math.sqrt(n) for n in (4, 16, 64, 256, 1024)]
    assert max(vals) / min(vals) < 10.0


def test_normal_cdf_error_below_1e_15():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in np.linspace(-38.0, 38.0, 1521):
            assert abs(normal_cdf(float(x)) - mpmath.ncdf(float(x))) <= 1e-15


def test_kolmogorov_float_error_within_a_priori_bound():
    # the bound in kolmogorov_distance's docstring, against a 50-digit D_n
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    with mpmath.workdps(50):
        for n in (2, 3, 10, 100, 1000, 3000):
            s = moment_summary(n)
            mu = mpmath.mpf(s.mu.numerator) / s.mu.denominator
            sigma = mpmath.sqrt(mpmath.mpf(s.sigma2.numerator) / s.sigma2.denominator)
            d, prev = mpmath.mpf(0), mpmath.mpf(0)
            for k, acc in enumerate(itertools.accumulate(row_closed_form(n))):
                c = mpmath.mpf(acc) / s.u
                phi = mpmath.ncdf((k - mu) / sigma)
                d, prev = max(d, abs(c - phi), abs(prev - phi)), c
            r = kolmogorov_distance(n)
            bound = 1e-15 + 3 * u + normal_pdf(0.0) * u * float(s.mu) / r.sigma
            assert abs(r.kolmogorov - d) <= bound, n


# ---------------------------------------------------------------------------
# local limit errors
# ---------------------------------------------------------------------------

def test_local_limit_far_tail_vanishes():
    # at x = 8 the index leaves the row and the density is ~5e-15
    assert local_limit_error(2, 8.0, 8.0 + 1e-9, 2) < 1e-14
    # finite grids on which mu + x sigma overflows to +-inf read A* = 0
    assert local_limit_error(50, 1e307, 1.7e308, 10) == 0.0
    assert local_limit_error(50, -1.7e308, -1e307, 10) == 0.0


@pytest.mark.parametrize("n", [2, 3, 10, 77, 500])
@pytest.mark.parametrize(
    "grid",
    [(), (-4.0, 4.0, 1201), (-2.0, 2.0, 101), (8.0, 8.0 + 1e-9, 2), (-3.37, 2.11, 999), (0.0, 1e-322, 101)],
)
def test_local_limit_error_matches_full_row_reference(n, grid):
    # reference: every grid point reads the whole closed-form row, on
    # np.linspace's grid.  At (0, 1e-322) the step underflows to 0, so the
    # interior points differ (numpy: 5e-323, i * step: 0.0); the sup does not.
    row = row_closed_form(n)
    total = sum(row)
    s = moment_summary(n)
    mu, sigma = float(s.mu), math.sqrt(float(s.sigma2))
    lo, hi, steps = grid or DEFAULT_GRID
    want = 0.0
    for x in np.linspace(lo, hi, steps):
        k = math.floor(mu + x * sigma)
        a = row[k] / total if 0 <= k <= n else 0.0
        want = max(want, abs(sigma * a - normal_pdf(float(x))))
    assert local_limit_error(n, *grid) == want


def test_local_limit_error_validates_grid():
    with pytest.raises(ValueError):
        local_limit_error(10, 3.0, -3.0)
    with pytest.raises(ValueError):
        local_limit_error(10, -3.0, 3.0, steps=1)
    # an infinite end, and finite ends whose span overflows to inf
    for grid in [(-math.inf, 3.0, 10), (-3.0, math.inf, 10), (-1e308, 1e308, 10)]:
        with pytest.raises(ValueError, match=r"^local_limit_error requires finite x_hi - x_lo > 0, got "):
            local_limit_error(50, *grid)


def test_local_limit_row_values():
    r2 = local_limit_row(2)
    assert r2.ratio == 0.0  # floor(2/sqrt(5)) = 0 forces C(1, -1)
    assert abs(r2.scaled_error - math.sqrt(2)) < 1e-12
    r10 = local_limit_row(10)
    assert abs(r10.ratio - 1716 / 6765) < 1e-12
    assert abs(r10.scaled_error - 0.4730540758256283) < 1e-9
    r1000 = local_limit_row(1000)
    assert abs(r1000.ratio - 0.029) < 1e-3
    assert abs(r1000.scaled_error - 0.021) < 1e-3


# ---------------------------------------------------------------------------
# growth constants from the dominant pole
# ---------------------------------------------------------------------------

def test_dominant_pole_at_zero():
    assert abs(dominant_pole(0.0) - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-15


def test_singularity_numeric_validates_step():
    with pytest.raises(ValueError):
        singularity_constants_numeric(1e-7)
    with pytest.raises(ValueError):
        singularity_constants_numeric(0.1)
