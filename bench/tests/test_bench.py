"""Tests of the benchmark itself: seeding, span arithmetic, oracles, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pickle
from pathlib import Path
from types import ModuleType

import pytest

import oracles
import tracing
import worker
import workloads
from oracles import Mismatch, Oracle
from workloads import Request

ROOT = Path(__file__).resolve().parents[2]

# tiny parameter ranges, so each workload's smoke run takes well under a second
TINY = {
    "rows": {"max_n": (1, 9), "format": ("json", "csv", "tsv")},
    "moments": {"max_n": (2, 30), "pell_count": (1, 4)},
    "clt": {"n": (2, 40), "grid_lo": (-4.0, -2.0), "grid_hi": (2.0, 4.0), "grid_steps": (11, 101)},
    "oracles": {"max_n": (2, 9), "n": (2, 12)},
}


@pytest.fixture(scope="module")
def mods():
    return worker.load_package(ROOT / "src")


def first(name, seed, count=60, ranges=None):
    return list(itertools.islice(workloads.requests(name, seed, ranges), count))


def cli_output(mods, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert mods["cli"].main(list(argv)) == 0
    return out.getvalue()


# ---- seeding -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    assert first(name, 7) == first(name, 7)
    assert first(name, 7) != first(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_requests_stay_in_their_ranges(name):
    ranges = workloads.WORKLOADS[name].ranges
    for req in first(name, 3, 200):
        if isinstance(req.ns, range):  # --max-n N, --count c or a library call's N
            lo, hi = ranges["pell_count" if req.op == "pell" else "max_n"]
            assert req.ns[0] == 1 and lo <= req.ns[-1] <= hi
        else:
            lo, hi = ranges["n"]
            assert all(lo <= n <= hi for n in req.ns) and len(set(req.ns)) == len(req.ns)


def test_stratified_spread_covers_every_slice():
    import random

    values = sorted(workloads.spread(random.Random(1), 50, 249, 10))
    assert [(v - 50) // 20 for v in values] == list(range(10))


def test_repeat_share():
    a = Request("triangle", range(1, 5))
    b = Request("triangle", range(1, 3))
    c = Request("pell", range(1, 3), space="pell")
    assert workloads.repeat_share([a, b, c]) == pytest.approx(2 / 8)


# ---- spans -------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # R [0,10] has children A [1,4], B [3,6] (overlaps A), C [8,9];
    # A has child D [2,3]; C has child E [8.5,9.5], which outlives its parent
    start = [0.0, 1.0, 3.0, 8.0, 2.0, 8.5]
    end = [10.0, 4.0, 6.0, 9.0, 3.0, 9.5]
    parent = [-1, 0, 0, 0, 1, 3]
    got = tracing.self_times(start, end, parent)
    assert got == pytest.approx([10 - 6, 3 - 1, 3, 1 - 0.5, 1, 1])


def test_log_log_slope():
    assert tracing.log_log_slope([(n, 2e-9 * n**3) for n in (50, 100, 400, 1000)]) == pytest.approx(3.0)
    assert tracing.log_log_slope([(100, 1.0), (100, 2.0)]) == 0.0


def test_tracer_records_nested_calls_and_restores():
    toy = ModuleType("toy")
    exec("__all__ = ['outer', 'inner']\ndef inner(n): return n\ndef outer(n): return inner(n - 1) + inner(n - 2)", vars(toy))
    original = toy.outer
    tracer = tracing.Tracer()
    tracer.install({"toy": toy}, [toy])
    try:
        with tracer.request(0):
            assert toy.outer(5) == 7
    finally:
        tracer.uninstall()
    assert toy.outer is original
    summary = tracer.summary()
    assert summary["toy.outer"][0] == 1 and summary["toy.inner"][0] == 2
    assert list(tracer.parent) == [-1, 0, 1, 1]  # request > outer > inner, inner
    assert list(tracer.n) == [-1, 5, 4, 3]


def test_tracer_wraps_and_restores_the_package(mods):
    layers = {layer: mods[layer] for layer in worker.LAYERS}
    before = {(id(ns), attr): value for ns in mods.values() for attr, value in vars(ns).items()}
    tracer = tracing.Tracer()
    tracer.install(layers, mods.values())
    try:
        with tracer.request(0):
            mods["package"].row_closed_form(5)
    finally:
        tracer.uninstall()
    assert {(id(ns), attr): value for ns in mods.values() for attr, value in vars(ns).items()} == before
    assert tracer.summary()["triangle.row_closed_form"][0] == 1
    assert tracer.parent[1] == 0 and tracer.n[1] == 5


# ---- oracles -----------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["json", "csv", "tsv"])
def test_oracle_rejects_a_corrupted_row(mods, fmt):
    prefix = () if fmt == "json" else ("--format", fmt)
    req = Request("triangle", range(1, 8), prefix + ("triangle", "--max-n", "7"), fmt=fmt)
    out = cli_output(mods, req.argv)
    Oracle().check(req, (0, out, ""))
    bad = out.replace("35", "36", 1)  # 35 = A(6, 3) = C(8, 5)
    assert bad != out
    with pytest.raises(Mismatch):
        Oracle().check(req, (0, bad, ""))


def test_oracle_rejects_a_corrupted_library_row(mods):
    req = Request("three_term_rows", range(1, 7))
    rows = mods["triangle"].three_term_rows(6)
    Oracle().check(req, rows)
    rows[4][2] += 1
    with pytest.raises(Mismatch):
        Oracle().check(req, rows)


def test_oracle_rejects_a_wrong_d_n(mods):
    req = Request("clt", (120, 300), ("clt", "--n", "120", "--n", "300"))
    out = cli_output(mods, req.argv)
    Oracle().check(req, (0, out, ""))
    doc = json.loads(out)
    doc["rows"][1]["kolmogorov"] *= 1 + 1e-9
    with pytest.raises(Mismatch, match="D_n"):
        Oracle().check(req, (0, json.dumps(doc), ""))


def test_oracle_rejects_a_wrong_mode(mods):
    req = Request("modes", range(1, 80), ("modes", "--max-n", "79"))
    out = cli_output(mods, req.argv)
    Oracle().check(req, (0, out, ""))
    for field, change in (("smallest_mode", lambda m: str(int(m) + 1)), ("is_double", lambda d: not d)):
        doc = json.loads(out)
        row = doc["rows"][71]  # n = 72, the first double mode
        row[field] = change(row[field])
        with pytest.raises(Mismatch):
            Oracle().check(req, (0, json.dumps(doc), ""))


def test_oracle_rejects_a_non_zero_exit():
    req = Request("clt", (1,), ("clt", "--n", "1"))
    with pytest.raises(Mismatch, match="exit 2"):
        Oracle().check(req, (2, "", "clt requires every n >= 2"))


def test_verdict_names_a_malformed_response():
    req = Request("clt", (120,), ("clt", "--n", "120"))
    assert Oracle().verdict(req, (0, "not json", "")).startswith("malformed response: JSONDecodeError")


def test_channel_sends_plain_data_and_returns_the_verdict(mods):
    model = mods["limits"].harper_model(30)
    out = io.BytesIO()
    channel = worker.Channel(io.BytesIO(pickle.dumps("bad pmf")), out)
    req = Request("harper_model", (30,))
    assert channel.check(req, model) == "bad pmf"
    kind, sent_req, sent = pickle.loads(out.getvalue())
    assert (kind, sent_req) == ("check", req)
    assert type(sent).__module__ == "types"  # the parent need not import the package
    assert Oracle().verdict(req, sent) is None


def test_oracle_reference_values():
    o = Oracle()
    assert [o.fib(k) for k in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert o.row(5) == [0, 5, 20, 21, 8, 1]
    assert all(o.uvw(n)[0] == o.fib(2 * n) for n in range(1, 60))
    assert all(o.uvw(n)[1] == sum(k * a for k, a in enumerate(o.row(n))) for n in range(1, 60))
    assert o.moments(4)[0] == pytest.approx(46 / 21)
    assert o.double_modes(2)[0] == (32, 72, 161)


# ---- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_a_tiny_smoke_run(mods, name):
    limit = 2 * workloads.WORKLOADS[name].block
    reqs = workloads.requests(name, 1, TINY[name])
    stats = worker.run_loop(mods, reqs, Oracle().verdict, limit=limit)
    assert stats["errors"] == [] and stats["attempted"] == limit
    assert stats["latency_p50_ms"] <= stats["latency_p95_ms"]


def traced_run(mods, name):
    tracer = tracing.Tracer()
    tracer.install({layer: mods[layer] for layer in worker.LAYERS}, mods.values())
    try:
        stats = worker.run_loop(mods, workloads.requests(name, 1, TINY[name]), Oracle().verdict, limit=24, tracer=tracer)
    finally:
        tracer.uninstall()
    assert stats["failed"] == 0
    return worker.layer_metrics(tracer, stats["done"], stats["output_bytes"], stats["slowdown"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_emits_every_per_layer_metric(mods, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = traced_run(mods, name)
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    assert names <= set(metrics)
    if name == "clt":  # every requested n needs a row, a summary and a scan at least once
        assert metrics["triangle.rows_per_n"] >= 1
        assert metrics["moments.summaries_per_n"] >= 1
        assert metrics["limits.scans_per_n"] >= 1
    if name == "moments":
        assert metrics["triangle.row_closed_form.calls"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(mods, name):
    timed = ("_s", "n_exponent")
    first_run, second_run = traced_run(mods, name), traced_run(mods, name)
    counts = {k: v for k, v in first_run.items() if not k.endswith(timed)}
    assert counts == {k: v for k, v in second_run.items() if not k.endswith(timed)}


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["rows", "moments", "clt", "oracles"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
