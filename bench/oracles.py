"""Independent reference values and the checks every response must pass.

Nothing here imports the package under test.  Triangle entries come from
``math.comb``, Fibonacci numbers from repeated addition, the row values
u = Q_n(1), v = Q_n'(1), w = Q_n''(1) from the three-term recurrence
Q[n+2] = (2+x) Q[n+1] - Q[n] differentiated at x = 1, Pell solutions from
powers of the fundamental solution (9, 4), and the limit statistics from
``int / int`` division (correctly rounded) and ``math.erfc``.  A check raises
``Mismatch`` at the first disagreement.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

BERRY_ESSEEN_C = 0.7975
DEFAULT_GRID = (-3.0, 3.0, 601)
FLOAT_REL = 1e-12  # floats derived from exact values, incl. D_n
LOCAL_REL = 1e-9  # local sup errors: a grid scan of float products
HARPER_TOL = 1e-9  # the package's own reconstruction tolerance


class Mismatch(Exception):
    """A response disagrees with the benchmark's oracles."""


def _close(what: str, got: float, want: float, rel: float) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=1e-300):
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


class Oracle:
    """Reference values, memoized where a workload asks for them again."""

    ROW_CACHE_MAX = 400  # rows up to this n are kept; larger ones are rebuilt

    def __init__(self) -> None:
        self._fib = [0, 1]
        self._uvw = [(1, 0, 0), (1, 1, 0), (3, 4, 2)]  # Q_0 = 1, Q_1 = x, Q_2 = x^2 + 2x
        self._rows: Dict[int, List[int]] = {}
        self._moments: Dict[int, Tuple[Fraction, Fraction]] = {}
        self._moments_rows: Dict[int, Tuple[Dict, Dict]] = {}
        self._mode_rows: Dict[int, Tuple[int, bool, str, float]] = {}
        self._stirling: List[List[int]] = [[1]]
        self._clt: Dict[Tuple, Tuple[float, float, float, float]] = {}

    # ---- reference values -------------------------------------------------

    def fib(self, k: int) -> int:
        f = self._fib
        while len(f) <= k:
            f.append(f[-1] + f[-2])
        return f[k]

    def row(self, n: int) -> List[int]:
        """A(n, k) = C(n+k-1, 2k-1) for k = 0..n (the k = 0 entry is 0)."""
        row = self._rows.get(n)
        if row is None:
            row = [0] + [math.comb(n + k - 1, 2 * k - 1) for k in range(1, n + 1)]
            if n <= self.ROW_CACHE_MAX:
                self._rows[n] = row
        return row

    def uvw(self, n: int) -> Tuple[int, int, int]:
        t = self._uvw
        while len(t) <= n:
            (u0, v0, w0), (u1, v1, w1) = t[-2], t[-1]
            t.append((3 * u1 - u0, u1 + 3 * v1 - v0, 2 * v1 + 3 * w1 - w0))
        return t[n]

    def moments(self, n: int) -> Tuple[Fraction, Fraction]:
        """(mu, sigma^2) = (v/u, w/u - (v/u)^2 + v/u), exact."""
        if n not in self._moments:
            u, v, w = self.uvw(n)
            mu = Fraction(v, u)
            self._moments[n] = (mu, Fraction(w, u) - mu * mu + mu)
        return self._moments[n]

    def moments_row(self, n: int) -> Dict:
        """The exact fields of `moments` row n as the CLI prints them, and its floats."""
        if n not in self._moments_rows:
            u, v, w = self.uvw(n)
            if u != self.fib(2 * n):
                raise Mismatch(f"oracle: u({n}) != F({2 * n})")
            mu, sigma2 = self.moments(n)
            exact = {"n": str(n), "u": str(u), "v": str(v), "w": str(w), "mu": str(mu), "sigma2": str(sigma2)}
            floats = {"mu_float": mu.numerator / mu.denominator, "sigma2_float": sigma2.numerator / sigma2.denominator}
            self._moments_rows[n] = (exact, floats)
        return self._moments_rows[n]

    def mode_row(self, n: int) -> Tuple[int, bool, str, float]:
        """(smallest mode m, double?, Darroch gap as printed, gap as float) for row n."""
        if n not in self._mode_rows:
            m = next(m for m in range(1, n + 1) if 5 * m * m + 2 * m >= n * n)
            double = 5 * m * m + 2 * m == n * n
            mu = self.moments(n)[0]
            gap = min(abs(mu - m), abs(mu - m - 1)) if double else abs(mu - m)
            self._mode_rows[n] = (m, double, str(gap), gap.numerator / gap.denominator)
        return self._mode_rows[n]

    def stirling2(self, n: int) -> List[int]:
        """S(n, j), j = 0..n, by S(n, j) = j S(n-1, j) + S(n-1, j-1)."""
        s = self._stirling
        while len(s) <= n:
            prev = s[-1] + [0]
            s.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, len(prev))])
        return s[n]

    def double_modes(self, count: int) -> List[Tuple[int, int, int]]:
        """First `count` (m, n, j) with j^2 - 5n^2 = 1, j = 5m + 1, n > 0."""
        out = []
        j, n = 1, 0
        while len(out) < count:
            j, n = 9 * j + 20 * n, 4 * j + 9 * n
            if j % 5 == 1:
                out.append(((j - 1) // 5, n, j))
        return out

    def clt(self, n: int, grid: Tuple[float, float, int]) -> Tuple[float, float, float, float]:
        """(D_n, sigma_n, 0.7975/sigma_n, local sup error on grid) for row n."""
        key = (n, grid)
        if key not in self._clt:
            row, total = self.row(n), self.fib(2 * n)
            mu_q, s2_q = self.moments(n)
            mu = mu_q.numerator / mu_q.denominator
            sigma = math.sqrt(s2_q.numerator / s2_q.denominator)
            d, prev, acc = 0.0, 0.0, 0
            for k, a in enumerate(row):
                acc += a
                cdf = acc / total
                phi = 0.5 * math.erfc(-(k - mu) / sigma / math.sqrt(2.0))
                d = max(d, abs(cdf - phi), abs(prev - phi))
                prev = cdf
            worst = 0.0
            for x in np.linspace(*grid):
                k = math.floor(mu + x * sigma)
                p = row[k] / total if 0 <= k <= n else 0.0
                pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                worst = max(worst, abs(sigma * p - pdf))
            self._clt[key] = (d, sigma, BERRY_ESSEEN_C / sigma, worst)
        return self._clt[key]

    # ---- response checks --------------------------------------------------

    def verdict(self, req, response) -> Optional[str]:
        """None if `response` is the right answer to `req`, else what is wrong with it."""
        try:
            self.check(req, response)
        except Mismatch as exc:
            return str(exc)
        except (LookupError, ValueError, TypeError, AttributeError, ArithmeticError) as exc:  # malformed output
            return f"malformed response: {type(exc).__name__}: {exc}"
        return None

    def check(self, req, response) -> None:
        """Raise Mismatch unless `response` is the right answer to `req`.

        A CLI response is (exit code, stdout, stderr); a library response is
        the returned object.
        """
        if req.argv:
            code, out, err = response
            if code != 0:
                raise Mismatch(f"exit {code}: {err.strip()[:200]}")
            getattr(self, "_cli_" + req.op.replace("-", "_"))(req, out)
        else:
            getattr(self, "_lib_" + req.op)(req, response)

    def check_row(self, n: int, coeffs: List[int]) -> None:
        if coeffs != self.row(n):
            raise Mismatch(f"row {n} differs from math.comb")
        if sum(coeffs) != self.fib(2 * n):
            raise Mismatch(f"row {n} does not sum to F({2 * n})")

    @staticmethod
    def _json_rows(req, out: str) -> List[Dict]:
        rows = json.loads(out)["rows"]
        if len(rows) != len(req.ns):
            raise Mismatch(f"{len(rows)} rows, expected {len(req.ns)}")
        return rows

    def _cli_triangle(self, req, out: str) -> None:
        if req.fmt == "json":
            for n, r in zip(req.ns, self._json_rows(req, out)):
                if r["n"] != str(n):
                    raise Mismatch(f"row label {r['n']}, expected {n}")
                self.check_row(n, [int(c) for c in r["coeffs"]])
            return
        delim = "," if req.fmt == "csv" else "\t"
        lines = out.split("\n")
        if lines[0] != delim.join(("n", "k", "A")) or lines[-1] != "":
            raise Mismatch(f"bad {req.fmt} framing")
        i = 1
        for n in req.ns:
            coeffs = []
            for k in range(n + 1):
                cells = lines[i].split(delim)
                i += 1
                if cells[:2] != [str(n), str(k)]:
                    raise Mismatch(f"line {i}: expected n={n}, k={k}, got {cells[:2]}")
                coeffs.append(int(cells[2]))
            self.check_row(n, coeffs)
        if i != len(lines) - 1:
            raise Mismatch(f"{len(lines) - 1 - i} extra lines")

    def _cli_moments(self, req, out: str) -> None:
        # the reference rows come from the recurrence, with u checked against
        # F(2n) and mu, sigma2 computed as v/u and w/u - (v/u)^2 + v/u
        for n, r in zip(req.ns, self._json_rows(req, out)):
            exact, floats = self.moments_row(n)
            for key, want in exact.items():
                if r[key] != want:
                    raise Mismatch(f"moments row {n}: {key} disagrees with the recurrence and v/u, w/u")
            for key, want in floats.items():
                _close(f"{key} at n={n}", r[key], want, FLOAT_REL)

    def _cli_modes(self, req, out: str) -> None:
        for n, r in zip(req.ns, self._json_rows(req, out)):
            m = int(r["smallest_mode"])
            if r["n"] != str(n) or not 5 * m * m + 2 * m >= n * n > 5 * (m - 1) ** 2 + 2 * (m - 1):
                raise Mismatch(f"mode {m} of row {n} is outside the window 5m^2+2m >= n^2 > 5(m-1)^2+2(m-1)")
            _, double, gap, gap_float = self.mode_row(n)
            if r["is_double"] is not double:
                raise Mismatch(f"row {n}: is_double = {r['is_double']}, expected {double}")
            if double and math.comb(n + m - 1, 2 * m - 1) != math.comb(n + m, 2 * m + 1):
                raise Mismatch(f"row {n}: entries at the double mode {m}, {m + 1} differ")
            if r["darroch_gap"] != gap or gap_float > 1:
                raise Mismatch(f"row {n}: darroch_gap {r['darroch_gap']}, expected {gap}")
            _close(f"darroch_gap_float at n={n}", r["darroch_gap_float"], gap_float, FLOAT_REL)

    def _cli_pell(self, req, out: str) -> None:
        want = self.double_modes(len(req.ns))
        for k, (r, (m, n, j)) in enumerate(zip(self._json_rows(req, out), want), start=1):
            got = (int(r["k"]), int(r["m"]), int(r["n"]), int(r["j"]))
            if got != (k, m, n, j):
                raise Mismatch(f"double-mode row {k}: got {got}, expected {(k, m, n, j)}")
            if j != 5 * m + 1 or j * j - 5 * n * n != 1 or 5 * m * m + 2 * m != n * n:
                raise Mismatch(f"double-mode row {k} violates the Pell equations")

    def check_clt_row(self, r: Dict, grid: Tuple[float, float, int]) -> None:
        n = int(r["n"])
        d, sigma, bound, local = self.clt(n, grid)
        _close(f"D_n at n={n}", r["kolmogorov"], d, FLOAT_REL)
        _close(f"sigma at n={n}", r["sigma"], sigma, FLOAT_REL)
        _close(f"be_bound at n={n}", r["be_bound"], bound, FLOAT_REL)
        _close(f"local_sup_error at n={n}", r["local_sup_error"], local, LOCAL_REL)
        if not r["kolmogorov"] <= bound:
            raise Mismatch(f"D_n = {r['kolmogorov']} exceeds 0.7975/sigma_n = {bound} at n={n}")

    def _cli_clt(self, req, out: str) -> None:
        rows = self._json_rows(req, out)
        if [r["n"] for r in rows] != [str(n) for n in sorted(req.ns)]:
            raise Mismatch("clt rows are not the requested n in order")
        for r in rows:
            self.check_clt_row(r, req.grid or DEFAULT_GRID)

    def _cli_local_table(self, req, out: str) -> None:
        rows = self._json_rows(req, out)
        if [r["n"] for r in rows] != [str(n) for n in sorted(req.ns)]:
            raise Mismatch("local-table rows are not the requested n in order")
        for r in rows:
            n = int(r["n"])
            b = math.isqrt(5 * n * n) // 5
            ratio = (math.comb(n + b - 1, 2 * b - 1) if b >= 1 else 0) / self.fib(2 * n)
            scaled = abs(2.0 * math.sqrt(math.pi) * math.sqrt(n) * ratio / 5.0**0.75 - 1.0) * math.sqrt(n)
            _close(f"local-table ratio at n={n}", r["ratio"], ratio, FLOAT_REL)
            _close(f"local-table scaled_error at n={n}", r["scaled_error"], scaled, LOCAL_REL)

    def _lib_three_term_rows(self, req, rows) -> None:
        if len(rows) != len(req.ns) + 1 or rows[0] != [1]:
            raise Mismatch("three_term_rows: wrong row count or row 0")
        for n in req.ns:
            self.check_row(n, rows[n])

    def _lib_hereditary_rows(self, req, rows) -> None:
        if len(rows) != len(req.ns) + 1 or rows[0] != [1]:
            raise Mismatch(f"hereditary_rows g={req.g}: wrong row count or row 0")
        for n in req.ns:
            if req.g == "k":
                want = self.row(n)
            elif req.g == "one":
                want = [0] + [math.comb(n - 1, j - 1) for j in range(1, n + 1)]
            else:  # 1/k!: j! S(n, j) / n! ordered partitions into j blocks
                s = self.stirling2(n)
                want = [Fraction(math.factorial(j) * s[j], math.factorial(n)) for j in range(n + 1)]
            if rows[n] != want:
                raise Mismatch(f"hereditary_rows g={req.g}: row {n} differs from the closed form")

    def _lib_harper_model(self, req, model) -> None:
        n = req.ns[0]
        j = np.arange(1, n)
        roots = np.append(2.0 - 2.0 * np.cos(j * np.pi / n), 0.0)
        if model.n != n or len(model.pmf) != n + 1 or not np.allclose(model.roots, roots, rtol=0, atol=1e-12):
            raise Mismatch(f"harper_model({n}): wrong size or factor roots")
        if not np.allclose(model.success_probs, 1.0 / (1.0 + roots), rtol=0, atol=1e-12):
            raise Mismatch(f"harper_model({n}): success probabilities are not 1/(1+r)")
        total = self.fib(2 * n)
        exact = np.array([a / total for a in self.row(n)])
        err = float(np.max(np.abs(model.pmf - exact)))
        if err > HARPER_TOL:
            raise Mismatch(f"harper_model({n}): pmf off the exact row by {err:.3e}")

    def _lib_reciprocal_row(self, req, row) -> None:
        n = req.ns[0]
        if row != self.row(n)[::-1]:
            raise Mismatch(f"reciprocal_row({n}) is not row {n} reversed")
