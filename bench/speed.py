"""Host speed probe, so that timings from different minutes compare.

On a shared host the CPU's speed drifts: the same requests took up to 50%
longer from one minute to the next, which no run length averages out.  A
run therefore times a fixed pure-Python probe between its requests and
divides every time it reports by ``slowdown = median probe time /
NOMINAL_S``.  Reported times are thus seconds on a host whose probe takes
NOMINAL_S; the raw figures are printed alongside.  The probe never calls
the package, so a change to the package cannot move it.

The probe is made of the operations the package spends its time in:
big-integer multiply and exact divide, big int-to-str with JSON output,
Fraction arithmetic (gcd) and erfc.  Timed in windows of about a second
between requests on a shared 2-vCPU Intel Xeon VM, these tracked the
requests' own slowdown; dict building and numpy scalar loops slowed down
about twice as much as the requests did, so they are left out.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Sequence

NOMINAL_S = 0.003  # the probe's typical time on a 2-vCPU Intel Xeon VM, Python 3.11
KERNELS_PER_PROBE = 3
# Probes are spread evenly over request time, not one per request: a run's
# time sits mostly in its few long requests, and the probes must sample the
# host while those run, not while the many short ones do.
PROBE_EVERY_S = 0.1
BIG = 3**2000


def _kernel() -> int:
    out = 1
    for i in range(1, 300):
        out = out * (700 + i) // i
    text = json.dumps([str(BIG >> s) for s in range(0, 2000, 40)], indent=2)
    q = Fraction(0)
    for k in range(1, 25):
        q = Fraction(q.numerator % (10**200 + k), q.denominator % 10**190 + k) + Fraction(k, out + k)
    acc = 0.0
    for k in range(800):
        acc += math.erfc(k * 1e-3)
    return len(text) + int(acc) + (q.numerator & 1)


def probe() -> float:
    """Seconds one probe takes now."""
    t0 = perf_counter()
    for _ in range(KERNELS_PER_PROBE):
        _kernel()
    return perf_counter() - t0


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran: median probe / NOMINAL_S."""
    return statistics.median(samples) / NOMINAL_S
