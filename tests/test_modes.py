"""Mode location, the mode window, and the double-mode Pell recursion."""

from __future__ import annotations

from morganvoyce import double_mode_sequence, locate_mode, smallest_mode_index

def test_locate_mode_examples():
    r5 = locate_mode(5)
    assert (r5.smallest_mode, r5.is_double) == (3, False)  # row peak 21 at k = 3
    r72 = locate_mode(72)
    assert (r72.smallest_mode, r72.is_double) == (32, True)
    r1 = locate_mode(1)
    assert (r1.smallest_mode, r1.is_double) == (1, False)
    assert r1.darroch_gap == 0  # degenerate single-entry row


def test_mode_window_exact_to_500():
    # (sqrt(5n^2+1) - 1)/5 <= m < (sqrt(5n^2+1) + 4)/5, squared out so the
    # comparison never touches a float.
    for n in range(1, 501):
        m = smallest_mode_index(n)
        target = 5 * n * n + 1
        assert (5 * m + 1) ** 2 >= target
        assert 5 * m - 4 <= 0 or (5 * m - 4) ** 2 < target


def test_double_mode_sequence_invariants_to_8():
    for s in double_mode_sequence(8):
        assert s.j * s.j - 5 * s.n * s.n == 1
        assert s.j % 5 == 1
        assert 5 * s.m * s.m + 2 * s.m == s.n * s.n


PELL_MATRIX = ((9, 20), (4, 9))
DOUBLE_MODE_MATRIX = ((161, 360), (72, 161))


def _matmul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)) for i in range(2))


def _iterates(m, count):
    out, (j, n) = [], (1, 0)
    for _ in range(count):
        out.append((j, n))
        j, n = m[0][0] * j + m[0][1] * n, m[1][0] * j + m[1][1] * n
    return out


def _mod5(m):
    return tuple(tuple(x % 5 for x in row) for row in m)


def test_pell_matrices_keep_the_form_and_the_residue_for_every_iterate():
    # double_mode_sequence iterates the second matrix from (1, 0): two steps
    # fix a 2x2 linear map, and three iterates are compared.
    assert [(s.j, s.n) for s in double_mode_sequence(3)] == _iterates(DOUBLE_MODE_MATRIX, 4)[1:]
    # M^T diag(1, -5) M = diag(1, -5) keeps j^2 - 5n^2 = 1 from (1, 0) on.
    # Both upper-right entries are 0 mod 5, so j mod 5 follows from j alone.
    form = ((1, 0), (0, -5))
    for m in (PELL_MATRIX, DOUBLE_MODE_MATRIX):
        assert _matmul(tuple(zip(*m)), _matmul(form, m)) == form
    # j = 1 stays 1: each iterate is j = 5m + 1 with 5m^2 + 2m = n^2
    assert _mod5(DOUBLE_MODE_MATRIX) == ((1, 0), (2, 1))
    # j -> 4j: 1 -> 4 -> 1, so exactly the even-index Pell iterates are double modes
    assert _mod5(PELL_MATRIX) == ((4, 0), (4, 4))
    assert _matmul(PELL_MATRIX, PELL_MATRIX) == DOUBLE_MODE_MATRIX


def test_pell_solutions_recurrence_and_parity():
    sols = _iterates(PELL_MATRIX, 12)
    for i, (j, n) in enumerate(sols):
        assert j * j - 5 * n * n == 1
        assert (j % 5 == 1) == (i % 2 == 0)
    # even-index solutions are exactly the double-mode ones
    assert [s[1] for s in sols[2::2]] == [s.n for s in double_mode_sequence(5)]


def test_no_spurious_double_modes_below_ten_thousand():
    found = set()
    for n in range(1, 10**4 + 1):
        m = smallest_mode_index(n)
        if 5 * m * m + 2 * m == n * n:
            found.add(n)
    assert found == {72}  # the first double-mode row; the second is 23184
