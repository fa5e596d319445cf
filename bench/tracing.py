"""Spans around the package's public functions, installed from outside it.

``Tracer.install`` wraps every function listed in a layer module's
``__all__`` and rebinds the wrapper in every namespace that holds the
function (``limits.row_closed_form`` and ``moments.fib`` as well as
``triangle.row_closed_form`` and ``exact.fib``), so calls between layers are
traced too.  A span is (name, start, end, parent span, request id, n), kept
in flat arrays in memory and written out at the end.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType
from typing import Dict, Iterable, List, Sequence

REQUEST = "request"  # the root span of each request, opened by the loop
EXPONENT_MIN_N = 32  # smaller n is dominated by per-call overhead


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [REQUEST]
        self.name_id = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.n = array("q")  # first positional argument when it is an int, else -1
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current_request = -1
        self._restore: List[tuple] = []

    # ---- recording --------------------------------------------------------

    def install(self, layers: Dict[str, ModuleType], namespaces: Iterable[ModuleType]) -> None:
        """Wrap each function in ``layer.__all__``, named ``<layer>.<function>``."""
        wrappers = {}
        for layer, module in layers.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def _open(self, fid: int, n: int) -> int:
        i = len(self.start)
        self.name_id.append(fid)
        self.parent.append(self._stack[-1])
        self.request_id.append(self._current_request)
        self.n.append(n)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label: str):
        fid = len(self.names)
        self.names.append(label)
        start, open_, close = self.start, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a0 = args[0] if args else -1
            i = open_(fid, a0 if type(a0) is int and 0 <= a0 < 1 << 62 else -1)
            start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextmanager
    def request(self, rid: int):
        """Root span of request `rid`; the spans opened inside carry its id."""
        self._current_request = rid
        i = self._open(0, -1)
        self.start[i] = perf_counter()
        try:
            yield
        finally:
            self._close(i)
            self._current_request = -1

    # ---- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        return self_times(self.start, self.end, self.parent)

    def summary(self) -> Dict[str, tuple]:
        """{function name: (calls, total self seconds)} for every wrapped function."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for fid, s in zip(self.name_id, self.self_times()):
            calls[fid] += 1
            own[fid] += s
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names) if i}

    def calls_in(self, name: str, requests: set) -> int:
        """Calls of `name` made while serving one of `requests`."""
        fid = self.names.index(name)
        return sum(1 for f, r in zip(self.name_id, self.request_id) if f == fid and r in requests)

    def n_exponent(self, name: str) -> float:
        """Log-log slope of a call's duration against its n (0.0 if not fittable).

        The duration is inclusive: the cost of a call with its callees is
        what grows with n; self time would leave out the work delegated to
        traced callees (row_closed_form's binom calls, for instance).
        """
        fid = self.names.index(name)
        pts = [
            (n, self.end[i] - self.start[i])
            for i, (f, n) in enumerate(zip(self.name_id, self.n))
            if f == fid and n >= EXPONENT_MIN_N
        ]
        return log_log_slope(pts)

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, request, n."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\trequest\tn\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.request_id, self.n):
                out.write(f"{self.names[row[0]]}\t{row[1]!r}\t{row[2]!r}\t{row[3]}\t{row[4]}\t{row[5]}\n")


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        covered, reach = 0.0, start[p]
        for i in sorted(kids, key=start.__getitem__):
            lo, hi = max(start[i], reach), min(end[i], end[p])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


def log_log_slope(points: Sequence[tuple]) -> float:
    """Least-squares slope of log(y) on log(x); 0.0 with fewer than two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
