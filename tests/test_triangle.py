"""Triangle generation routes and their structural invariants."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from morganvoyce import (
    fib,
    hereditary_rows,
    reciprocal_row,
    row_closed_form,
    triangle,
)


def test_row_shape_invariants_to_500(rows500):
    for n in range(1, 501):
        row = rows500[n]
        assert row[0] == 0
        assert row[1] == n
        assert row[-1] == 1
        # log-concavity over the positive entries k = 1..n
        for k in range(2, n):
            assert row[k] * row[k] >= row[k - 1] * row[k + 1]
        # unimodal: rises then falls
        k = 1
        while k < n and row[k + 1] >= row[k]:
            k += 1
        while k < n:
            assert row[k + 1] <= row[k]
            k += 1


def test_integer_weights_give_python_int_rows():
    for g in (lambda k: k, lambda k: 1):
        rows = hereditary_rows(30, g)
        assert all(type(c) is int for row in rows for c in row)



def test_hereditary_rows_evaluate_each_weight_once():
    calls = []

    def g(k):
        calls.append(k)
        return k

    assert hereditary_rows(30, g) == hereditary_rows(30, lambda k: k)
    assert calls == list(range(1, 31))

def test_non_int_weights_stay_exact():
    # a non-int weight is coerced to Fraction: 0.5 is exactly 1/2, and a
    # numpy int gives the same values as the Python int
    assert hereditary_rows(12, lambda k: 0.5) == hereditary_rows(12, lambda k: Fraction(1, 2))
    assert hereditary_rows(12, lambda k: np.int64(k)) == hereditary_rows(12, lambda k: k)


def test_hereditary_rows_have_exact_zero_head():
    rows = hereditary_rows(10, lambda k: Fraction(1, k))
    for n in range(1, 11):
        assert rows[n][0] == 0
        assert len(rows[n]) == n + 1


def test_reciprocal_row_values():
    assert reciprocal_row(4)[0] == 1  # C(7, 0)
    assert reciprocal_row(4)[2] == 10  # C(5, 2) = A(4, 2)
    assert reciprocal_row(5)[2] == 21  # C(7, 2) = A(5, 3)


def test_reciprocal_row_is_reversed_row_to_100(rows500):
    # C(2n-k-1, k) = A(n, n-k), checked against math.comb, not the kernel
    for n in range(1, 101):
        reverse = reciprocal_row(n)
        assert reverse == rows500[n][::-1]
        assert reverse == [math.comb(2 * n - k - 1, k) for k in range(n + 1)]


def comb_row(n):
    """The independent oracle: [0] + [C(n+k-1, 2k-1) for k = 1..n], one math.comb per entry."""
    return [0] + [math.comb(n + k - 1, 2 * k - 1) for k in range(1, n + 1)]


@pytest.mark.parametrize("ns", [range(1, 301), [1000], [2000], [4000]], ids=["1-300", "1000", "2000", "4000"])
def test_closed_form_matches_per_entry_comb(ns):
    for n in ns:
        assert row_closed_form(n) == comb_row(n), n


def test_row_kernel_uses_no_binomial(monkeypatch):
    def boom(*args):
        raise AssertionError("the row kernel must not compute a binomial")

    monkeypatch.setattr(triangle, "binom", boom, raising=False)
    monkeypatch.setattr(math, "comb", boom)
    row = row_closed_form(500)
    assert reciprocal_row(500) == row[::-1]
    assert (row[1], row[-1], sum(row)) == (500, 1, fib(1000))


def test_reciprocal_row_calls_the_kernel_once(monkeypatch):
    calls = []
    kernel = triangle.row_closed_form

    def counted(n):
        calls.append(n)
        return kernel(n)

    monkeypatch.setattr(triangle, "row_closed_form", counted)
    assert reciprocal_row(np.int64(40)) == kernel(40)[::-1]
    assert calls == [40] and type(calls[0]) is int
