"""Seeded request generators for the four benchmark workloads.

Each workload is an endless stream of requests made from its seed alone.
Requests come in blocks: inside a block every request kind appears a fixed
number of times and each size is drawn from its own equal slice of the
size range (stratified sampling), then the block is shuffled.  So two
seeds differ in the exact sizes and their order but not in the mix, which
keeps a time-bounded run's latency percentiles comparable across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Request:
    """One request of the closed loop.

    ``ns`` are the row indices the request covers (a ``range`` for
    ``--max-n N``); their number is the request's count of rows verified.
    ``space`` keeps row indices of different kinds (triangle rows, Pell
    solutions, rows for another weight g) apart when repeats are counted.
    """

    op: str  # CLI subcommand, or the library function called
    ns: Sequence[int]
    argv: Tuple[str, ...] = ()  # full CLI argument list; empty for a library call
    fmt: str = "json"
    grid: Optional[Tuple[float, float, int]] = None  # clt --grid LO:HI:STEPS
    g: Optional[str] = None  # weight name, for hereditary_rows
    space: str = "row"


def weight_k(k: int) -> int:
    return k


def weight_one(k: int) -> int:
    return 1


def weight_inv_factorial(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


# g(k) = k gives the integer triangle, g = 1 a shifted Pascal triangle and
# g(k) = 1/k! ordered set partitions: two integer-valued weights and one not.
WEIGHTS = {"k": weight_k, "one": weight_one, "inv_factorial": weight_inv_factorial}


@dataclass(frozen=True)
class Workload:
    name: str
    ranges: Dict[str, Tuple]
    block: int  # requests per block
    trace_requests: int  # fixed request prefix of the traced run


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rows", {"max_n": (50, 250), "format": ("json", "csv", "tsv")}, 24, 24),
        Workload("moments", {"max_n": (200, 1500), "pell_count": (5, 60)}, 20, 20),
        Workload(
            "clt",
            {
                "n": (50, 1500),  # log-uniform
                "grid_lo": (-4.0, -2.0),
                "grid_hi": (2.0, 4.0),
                "grid_steps": (101, 1201),
            },
            24,
            24,
        ),
        Workload("oracles", {"max_n": (20, 80), "n": (20, 400)}, 48, 48),
    )
}


def spread(rng: random.Random, lo: int, hi: int, count: int, log: bool = False) -> List[int]:
    """`count` integers in [lo, hi], one from each of `count` equal slices, shuffled.

    With ``log`` the slices are equal in log n, so the values are
    log-uniform.
    """
    if log:
        a, b = math.log(lo), math.log(hi + 1)
        values = [int(math.exp(a + (i + rng.random()) * (b - a) / count)) for i in range(count)]
    else:
        values = [int(lo + (i + rng.random()) * (hi + 1 - lo) / count) for i in range(count)]
    values = [min(max(v, lo), hi) for v in values]
    rng.shuffle(values)
    return values


def _distinct(ns: List[int]) -> Tuple[int, ...]:
    out: List[int] = []
    for n in ns:
        while n in out:
            n += 1
        out.append(n)
    return tuple(out)


def _rows_block(rng: random.Random, r: Dict, size: int) -> List[Request]:
    # formats take turns along the sorted sizes, so each covers the whole range
    formats = list(r["format"])
    out = []
    for i, n in enumerate(sorted(spread(rng, *r["max_n"], size))):
        if i % len(formats) == 0:
            rng.shuffle(formats)
        fmt = formats[i % len(formats)]
        prefix = () if fmt == "json" else ("--format", fmt)
        out.append(Request("triangle", range(1, n + 1), prefix + ("triangle", "--max-n", str(n)), fmt=fmt))
    rng.shuffle(out)
    return out


def _moments_block(rng: random.Random, r: Dict, size: int) -> List[Request]:
    pells = max(1, size // 5)
    tables = size - pells
    ops = ["modes", "moments"]
    rng.shuffle(ops)  # modes and moments take turns along the sorted sizes
    out = [
        Request(ops[i % 2], range(1, n + 1), (ops[i % 2], "--max-n", str(n)))
        for i, n in enumerate(sorted(spread(rng, *r["max_n"], tables)))
    ]
    for c in spread(rng, *r["pell_count"], pells):
        out.append(Request("pell", range(1, c + 1), ("pell", "--count", str(c)), space="pell"))
    rng.shuffle(out)
    return out


def _clt_block(rng: random.Random, r: Dict, size: int) -> List[Request]:
    # three quarters clt, a third of those on a custom grid, the rest
    # local-table; clt asks for one or two rows, local-table for one to three
    local = size // 4
    clt = size - local
    pairs = (clt + 1) // 2
    # a two-row clt request pairs a large n with a small one, so the slowest
    # requests (which set p95) hold one large n each, whatever the seed
    ns = sorted(spread(rng, *r["n"], clt + pairs, log=True))
    picks = [(ns[i], ns[-1 - i]) for i in range(pairs)] + [(n,) for n in ns[pairs:-pairs]]
    custom = [i < clt // 3 for i in range(clt)]
    rng.shuffle(custom)
    rng.shuffle(picks)
    local_sizes = [1 + i % 3 for i in range(local)]
    local_ns = spread(rng, *r["n"], sum(local_sizes), log=True)
    out = []
    for pick, grid_i in zip(picks, custom):
        pick = _distinct(list(pick))
        argv = ["clt"] + [a for n in pick for a in ("--n", str(n))]
        grid = None
        if grid_i:
            grid = (
                round(rng.uniform(*r["grid_lo"]), 2),
                round(rng.uniform(*r["grid_hi"]), 2),
                rng.randint(*r["grid_steps"]),
            )
            # one token with "=": a value starting with "-" would read as an option
            argv.append(f"--grid={grid[0]}:{grid[1]}:{grid[2]}")
        out.append(Request("clt", pick, tuple(argv), grid=grid))
    for size_i in local_sizes:
        pick = _distinct([local_ns.pop() for _ in range(size_i)])
        out.append(Request("local-table", pick, ("local-table",) + tuple(a for n in pick for a in ("--n", str(n)))))
    rng.shuffle(out)
    return out


def _oracles_block(rng: random.Random, r: Dict, size: int) -> List[Request]:
    kinds = [("three_term_rows", None)] + [("hereditary_rows", g) for g in WEIGHTS] + [
        ("harper_model", None),
        ("reciprocal_row", None),
    ]
    per_kind = max(1, size // len(kinds))
    out = []
    for op, g in kinds:
        if op in ("harper_model", "reciprocal_row"):
            out += [Request(op, (n,)) for n in spread(rng, *r["n"], per_kind)]
        else:
            space = "row" if g in (None, "k") else g
            out += [Request(op, range(1, n + 1), g=g, space=space) for n in spread(rng, *r["max_n"], per_kind)]
    rng.shuffle(out)
    return out


_BLOCKS = {"rows": _rows_block, "moments": _moments_block, "clt": _clt_block, "oracles": _oracles_block}


def requests(name: str, seed: int, ranges: Optional[Dict[str, Tuple]] = None) -> Iterator[Request]:
    """The endless request stream of workload `name` for `seed`.

    ``ranges`` replaces the workload's parameter ranges (the tests use tiny
    ones); the stream is a pure function of (name, seed, ranges).
    """
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    make = _BLOCKS[name]
    while True:
        yield from make(rng, ranges or w.ranges, w.block)


def repeat_share(done: Sequence[Request]) -> float:
    """Share of the rows covered that an earlier request in the run already covered."""
    seen = set()
    total = repeated = 0
    for req in done:
        for n in req.ns:
            key = (req.space, n)
            total += 1
            if key in seen:
                repeated += 1
            else:
                seen.add(key)
    return repeated / total if total else 0.0
