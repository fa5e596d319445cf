#!/usr/bin/env python3
"""Mode location and the Pell-Fermat structure of double-mode rows.

The smallest mode of row n is the least m with 5m^2 + 2m >= n^2 -- an exact
integer-square-root window, no floats.  Rows with two equal maxima solve
5m^2 + 2m = n^2, equivalently j^2 - 5n^2 = 1 with j = 5m + 1; iterating the
squared fundamental Pell matrix [[161, 360], [72, 161]] enumerates them all.
Darroch's theorem puts some mode within 1 of the mean; the exact gap confirms
it row by row.
"""

from morganvoyce import (
    double_mode_sequence,
    locate_mode,
    ratio_to_float,
    row_closed_form,
)

print("=" * 72)
print("Modes of the first rows (exact window + Darroch gap)")
print("=" * 72)
print(f"  {'n':>4} {'mode':>5} {'double':>7} {'|mu - mode|':>12}")
for n in list(range(1, 11)) + [30, 72, 100]:
    r = locate_mode(n)
    print(
        f"  {n:>4} {r.smallest_mode:>5} {str(r.is_double).lower():>7} "
        f"{ratio_to_float(r.darroch_gap):>12.6f}"
    )

print()
print("n = 72 is the first double-mode row; both peaks are equal exactly:")
row = row_closed_form(72)
print(f"  A(72, 32) = {row[32]}")
print(f"  A(72, 33) = {row[33]}")
print(f"  equal: {row[32] == row[33]}")

print()
print("All solutions of j^2 - 5n^2 = 1 (fundamental matrix [[9, 20], [4, 9]]):")
j, n = 1, 0
for i in range(7):
    mark = "  <- j = 1 mod 5, double-mode row" if j % 5 == 1 and n > 0 else ""
    print(f"  index {i}: (j, n) = ({j}, {n}){mark}")
    j, n = 9 * j + 20 * n, 4 * j + 9 * n

print()
print("Double-mode rows (m_k, n_k) from the squared matrix [[161, 360], [72, 161]]:")
for s in double_mode_sequence(8):
    print(f"  k={s.k}: modes {s.m} and {s.m + 1} in row n = {s.n}")

print()
print("Scanning n <= 10000 finds no double mode outside the sequence:")
hits = [n for n in range(1, 10001) if locate_mode(n).is_double]
print(f"  double-mode rows found: {hits}")
