"""Mode location, the mode window, and the double-mode Pell recursion."""

from __future__ import annotations

from fractions import Fraction

import pytest

from morganvoyce import (
    binom,
    double_mode_sequence,
    locate_mode,
    moment_summary,
    pell_all_solutions,
    smallest_mode_index,
)

# The six leading double-mode rows (m_k, n_k).
DOUBLE_MODE_GOLDEN = [
    (32, 72),
    (10368, 23184),
    (3338528, 7465176),
    (1074995712, 2403763488),
    (346145280800, 774004377960),
    (111457705421952, 249227005939632),
]


def test_locate_mode_examples():
    r5 = locate_mode(5)
    assert (r5.smallest_mode, r5.is_double) == (3, False)  # row peak 21 at k = 3
    r72 = locate_mode(72)
    assert (r72.smallest_mode, r72.is_double) == (32, True)
    r1 = locate_mode(1)
    assert (r1.smallest_mode, r1.is_double) == (1, False)
    assert r1.darroch_gap == 0  # degenerate single-entry row


def test_mode_matches_brute_force_argmax_to_500(rows500):
    for n in range(1, 501):
        row = rows500[n]
        peak = max(row)
        assert row.index(peak) == smallest_mode_index(n)
        m = smallest_mode_index(n)
        is_double = m + 1 <= n and row[m] == row[m + 1]
        assert is_double == locate_mode(n).is_double


def test_mode_window_exact_to_500():
    # (sqrt(5n^2+1) - 1)/5 <= m < (sqrt(5n^2+1) + 4)/5, squared out so the
    # comparison never touches a float.
    for n in range(1, 501):
        m = smallest_mode_index(n)
        target = 5 * n * n + 1
        assert (5 * m + 1) ** 2 >= target
        assert 5 * m - 4 <= 0 or (5 * m - 4) ** 2 < target


def test_mode_within_unit_of_mean_to_500():
    # plus the second double-mode row, so the min over two modes is checked twice
    for n in [*range(2, 501), DOUBLE_MODE_GOLDEN[1][1]]:
        r = locate_mode(n)
        assert Fraction(0) < r.darroch_gap < Fraction(1)
        # the gap really is the distance from the mean to the nearer mode
        mu = moment_summary(n).mu
        candidates = [r.smallest_mode] + ([r.smallest_mode + 1] if r.is_double else [])
        assert r.darroch_gap == min(abs(mu - m) for m in candidates)


def test_double_mode_sequence_golden():
    sols = double_mode_sequence(6)
    assert [(s.m, s.n) for s in sols] == DOUBLE_MODE_GOLDEN
    assert [s.k for s in sols] == [1, 2, 3, 4, 5, 6]
    for s in sols:
        assert s.j == 5 * s.m + 1


def test_double_mode_sequence_invariants_to_8():
    for s in double_mode_sequence(8):
        assert s.j * s.j - 5 * s.n * s.n == 1
        assert s.j % 5 == 1
        assert 5 * s.m * s.m + 2 * s.m == s.n * s.n


def test_double_mode_rows_have_equal_adjacent_coefficients():
    # direct binomial comparison for the first two double-mode rows
    for m, n in DOUBLE_MODE_GOLDEN[:2]:
        assert binom(n + m - 1, 2 * m - 1) == binom(n + m, 2 * m + 1)
    assert binom(103, 63) == 61218182743304701891431482520


def test_pell_all_solutions_examples():
    sols = pell_all_solutions(3)
    assert sols == [(1, 0), (9, 4), (161, 72)]
    assert 161**2 - 5 * 72**2 == 1


def test_pell_solutions_recurrence_and_parity():
    sols = pell_all_solutions(12)
    for i in range(len(sols) - 1):
        j, n = sols[i]
        assert sols[i + 1] == (9 * j + 20 * n, 4 * j + 9 * n)
    for i, (j, n) in enumerate(sols):
        assert j * j - 5 * n * n == 1
        assert (j % 5 == 1) == (i % 2 == 0)
    # even-index solutions are exactly the double-mode ones
    assert [s[1] for s in sols[2::2]] == [n for _, n in DOUBLE_MODE_GOLDEN[:5]]


def test_no_spurious_double_modes_below_ten_thousand():
    expected = {n for _, n in DOUBLE_MODE_GOLDEN if n <= 10**4}
    found = set()
    for n in range(1, 10**4 + 1):
        m = smallest_mode_index(n)
        if 5 * m * m + 2 * m == n * n:
            found.add(n)
    assert found == expected == {72}


def test_preconditions():
    with pytest.raises(ValueError):
        locate_mode(0)
    with pytest.raises(ValueError):
        double_mode_sequence(0)
    with pytest.raises(ValueError):
        pell_all_solutions(0)
