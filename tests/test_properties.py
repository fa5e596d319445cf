"""Row identities on random n: sums, entries, log-concavity, modes, moments."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from morganvoyce import fib, locate_mode, moment_summary, reciprocal_row, row_closed_form


# derandomized and without an example database, so a run is reproducible and
# writes nothing into the working tree
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=2, max_value=1000))
def test_row_identities(n):
    row = row_closed_form(n)
    assert sum(row) == fib(2 * n)
    reverse = reciprocal_row(n)
    for k in (1, n // 2, n):  # spot entries against the per-entry binomial
        assert row[k] == reverse[n - k] == math.comb(n + k - 1, 2 * k - 1)
    assert all(row[k] * row[k] >= row[k - 1] * row[k + 1] for k in range(1, n))

    mode = locate_mode(n)
    m = row.index(max(row))  # the first argmax
    assert mode.smallest_mode == m
    assert mode.is_double == (row[m] == row[m + 1])

    s = moment_summary(n)
    assert s.v == sum(k * a for k, a in enumerate(row))
    assert s.w == sum(k * (k - 1) * a for k, a in enumerate(row))
