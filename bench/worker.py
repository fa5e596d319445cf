"""One workload in a fresh process: a closed loop with one client.

Started by run.py, one process per measurement.  Requests go in-process
through the public API, ``morganvoyce.cli.main(argv)`` with stdout captured
or a direct library call, and the next request starts only after the
previous one has returned.  Each response is sent to the parent process
(run.py), which checks it against the oracles while this process waits for
the verdict; so the oracles' memory and time stay out of this process and
its figures, and the two never run at once.  Modes:

* ``e2e``    -- untraced, until the requests' own time reaches --seconds;
* ``plain``  -- untraced, the workload's fixed traced-run prefix;
* ``traced`` -- the same prefix with spans on every public function.

The channel to the parent is pickled messages on stdin and stdout:
``("check", request, response)`` answered by a verdict (None or what is
wrong), then one ``("done", statistics)``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import os
import pickle
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import BinaryIO, Callable, Dict, List, Optional

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("exact", "triangle", "moments", "modes", "limits", "cli")
EXPONENT_FUNCTIONS = ("triangle.row_closed_form", "moments.moment_summary", "limits.kolmogorov_distance")
# limit-layer functions that each make one full pass over a row
ROW_SCANS = ("limits.kolmogorov_distance", "limits.local_limit_error")


def load_package(src: Path) -> Dict[str, object]:
    """Import the package from `src` and return its layer modules by name."""
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("morganvoyce")
    if Path(pkg.__file__).resolve().parent != (src / "morganvoyce").resolve():
        raise ImportError(f"morganvoyce was imported from {pkg.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"morganvoyce.{name}") for name in LAYERS}
    mods["package"] = pkg
    return mods


def execute(mods: Dict[str, object], req: workloads.Request):
    """Serve one request: (exit code, stdout, stderr) for the CLI, else the call's result."""
    if req.argv:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods["cli"].main(list(req.argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        return code, out.getvalue(), err.getvalue()
    triangle, limits = mods["triangle"], mods["limits"]
    if req.op == "three_term_rows":
        return triangle.three_term_rows(len(req.ns))
    if req.op == "hereditary_rows":
        return triangle.hereditary_rows(len(req.ns), workloads.WEIGHTS[req.g])
    if req.op == "harper_model":
        return limits.harper_model(req.ns[0])
    if req.op == "reciprocal_row":
        return triangle.reciprocal_row(req.ns[0])
    raise ValueError(f"unknown library request {req.op}")


# check(request, response) -> None if the response is right, else what is wrong
Check = Callable[[workloads.Request, object], Optional[str]]


def run_loop(mods, reqs, check: Check, seconds: Optional[float] = None, limit: Optional[int] = None, tracer=None) -> Dict:
    """Serve requests one after another until `limit` requests or `seconds` of request time."""
    durations: List[float] = []
    done: List[workloads.Request] = []
    errors: List[str] = []
    probes = [speed.probe() for _ in range(3)]
    owed = 0.0  # probes due: one per PROBE_EVERY_S of request time
    busy = 0.0
    rows = 0  # rows of the requests that passed their checks
    out_bytes = 0
    for rid, req in enumerate(reqs):
        if (limit is not None and rid >= limit) or (limit is None and busy >= seconds):
            break
        span = tracer.request(rid) if tracer else contextlib.nullcontext()
        error = response = None
        t0 = perf_counter()
        try:
            with span:
                response = execute(mods, req)
        except Exception as exc:  # a request that raises is a failed request
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        busy += dt
        durations.append(dt)
        done.append(req)
        if req.argv and response is not None:
            out_bytes += len(response[1].encode())
        if error is None:
            error = check(req, response)
        if error is None:
            rows += len(req.ns)
        else:
            errors.append(f"{' '.join(req.argv) or req.op} {list(req.ns)[:3]}: {error}"[:300])
        owed += dt / speed.PROBE_EVERY_S
        while owed >= 1.0:
            probes.append(speed.probe())
            owed -= 1.0
    # 5% steps: cuts[9] is p50, cuts[18] p95 (quantiles needs two points)
    cuts = statistics.quantiles(durations, n=20, method="inclusive") if len(durations) > 1 else durations * 19
    slow = speed.slowdown(probes)
    return {
        "attempted": len(done),
        "failed": len(errors),
        "errors": errors[:5],
        "slowdown": slow,
        "busy_s": busy / slow,
        "raw_busy_s": busy,
        "rows": rows,
        "rows_per_s": rows * slow / busy if busy else 0.0,
        "latency_p50_ms": cuts[9] * 1e3 / slow,
        "latency_p95_ms": cuts[18] * 1e3 / slow,
        "raw_latency_p50_ms": cuts[9] * 1e3,
        "raw_latency_p95_ms": cuts[18] * 1e3,
        "output_bytes": out_bytes,
        "repeat_share": workloads.repeat_share(done),
        "done": done,
    }


def layer_metrics(tracer: tracing.Tracer, done: List[workloads.Request], output_bytes: int, slow: float) -> Dict[str, float]:
    """Per-function calls and self time, per-layer self time, growth exponents and waste ratios.

    Self times are divided by the run's host slowdown, like every reported time.
    """
    metrics: Dict[str, float] = {}
    summary = tracer.summary()
    for name, (calls, own) in summary.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = own / slow
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(own for name, (_, own) in summary.items() if name.startswith(layer + ".")) / slow
    for name in EXPONENT_FUNCTIONS:
        metrics[f"{name}.n_exponent"] = tracer.n_exponent(name)
    metrics["cli.output_bytes"] = output_bytes
    # waste ratios: work per n requested by clt commands (0.0 where there are none)
    clt = {rid for rid, r in enumerate(done) if r.op == "clt"}
    base = sum(len(set(done[rid].ns)) for rid in clt)

    def per_n(*names: str) -> float:
        return sum(tracer.calls_in(name, clt) for name in names) / base if base else 0.0

    metrics["triangle.rows_per_n"] = per_n("triangle.row_closed_form")
    metrics["moments.summaries_per_n"] = per_n("moments.moment_summary")
    metrics["limits.scans_per_n"] = per_n(*ROW_SCANS)
    return metrics


class Channel:
    """The pipe to the parent process, which holds the oracles."""

    def __init__(self, inp: BinaryIO, out: BinaryIO) -> None:
        self.inp, self.out = inp, out

    def check(self, req: workloads.Request, response) -> Optional[str]:
        if dataclasses.is_dataclass(response):  # the parent does not import the package
            response = SimpleNamespace(**{f.name: getattr(response, f.name) for f in dataclasses.fields(response)})
        self.send("check", req, response)
        return pickle.load(self.inp)

    def send(self, *message) -> None:
        pickle.dump(message, self.out, protocol=pickle.HIGHEST_PROTOCOL)
        self.out.flush()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("e2e", "plain", "traced"), default="e2e")
    ap.add_argument("--spans", help="where the traced mode writes its spans")
    args = ap.parse_args(argv)
    # the channel gets stdout to itself; anything else printed goes to stderr
    channel = Channel(sys.stdin.buffer, os.fdopen(os.dup(1), "wb"))
    os.dup2(2, 1)

    mods = load_package(ROOT / "src")
    import numpy

    w = workloads.WORKLOADS[args.workload]
    reqs = workloads.requests(w.name, args.seed)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install({name: mods[name] for name in LAYERS}, mods.values())
    try:
        if args.mode == "e2e":
            stats = run_loop(mods, reqs, channel.check, seconds=args.seconds)
        else:
            stats = run_loop(mods, reqs, channel.check, limit=w.trace_requests, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = stats.pop("done")
    if tracer is not None:
        stats["layers"] = layer_metrics(tracer, done, stats["output_bytes"], stats["slowdown"])
        stats["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats["numpy"] = numpy.__version__
    channel.send("done", stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
