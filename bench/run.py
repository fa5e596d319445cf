"""Benchmark of the morganvoyce package: seeded closed-loop workloads.

    python3 bench/run.py --workload rows --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Run from the repository root; the package is imported from ./src.  Each
measurement runs in a fresh child process (worker.py) with one client
sending requests through the public API, the next one only after the
previous one has returned.  The child sends every response back here,
where it is checked against independent oracles (oracles.py) while the
child waits, outside its timed region and outside its memory.

With --trace 0 the end-to-end metrics named in BENCHMARK.json are measured,
tracing off; set-up time is the median over several fresh interpreters
that import morganvoyce.cli and build its parser.  With --trace 1 a fixed
request prefix runs twice, untraced and then with spans on every public
function, and the per-layer metrics come from the spans; the spans are
written to .bench_out/.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import oracles
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 7
SETUP_CODE = "import morganvoyce.cli as c; c._build_parser()"
CHILD_TIMEOUT_S = 150
WORKLOADS = tuple(workloads.WORKLOADS)


def child_env() -> Dict[str, str]:
    """One thread per numeric library, and the package from ./src only."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def measure_setup(env: Dict[str, str]) -> Tuple[float, float]:
    """(median wall time, host slowdown) of fresh interpreters that import the CLI and build its parser."""
    times, probes = [], [speed.probe()]
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child at up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        times.append(perf_counter() - t0)
        probes.append(speed.probe())
    return statistics.median(times), speed.slowdown(probes)


def spawn(env: Dict[str, str], *args: str, timeout: float = CHILD_TIMEOUT_S) -> Dict:
    """Run worker.py in a fresh process, check each response it sends, and return its statistics."""
    oracle = oracles.Oracle()
    stats = None
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "worker.err", "w+") as err, subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=err,
    ) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            while True:
                kind, *body = pickle.load(proc.stdout)
                if kind == "done":
                    stats = body[0]
                    break
                pickle.dump(oracle.verdict(*body), proc.stdin)
                proc.stdin.flush()
        except (EOFError, OSError, pickle.UnpicklingError):  # the worker died; its exit code and stderr say why
            pass
        finally:
            watchdog.cancel()
            proc.stdin.close()
            proc.wait()
        if proc.returncode != 0 or stats is None:
            err.seek(0)
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err.read()[-3000:]}")
    return stats


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> Dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def measure(spec: Dict, name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict, Dict]:
    """(details, result) of one workload; result has the keys correct, attempted, failed and metrics."""
    env = child_env()
    common = ("--workload", name, "--seed", str(seed), "--seconds", str(seconds))
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        raw = {}
        plain = spawn(env, *common, "--mode", "plain")
        traced = spawn(env, *common, "--mode", "traced", "--spans", str(OUT_DIR / f"spans-{name}.tsv"))
        runs = [plain, traced]
        values = dict(traced["layers"], **{"trace.overhead_ratio": traced["busy_s"] / plain["busy_s"]})
        wanted = spec["per_layer"]
    else:
        setup, setup_slowdown = measure_setup(env)
        e2e = spawn(env, *common, "--mode", "e2e")
        runs = [e2e]
        values = dict(e2e, setup_s=setup / setup_slowdown)
        wanted = spec["end_to_end"]
        raw = {"setup_s": setup, "setup_slowdown": setup_slowdown}
        raw.update((k, e2e[k]) for k in ("slowdown", "raw_latency_p50_ms", "raw_latency_p95_ms", "raw_busy_s"))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "loop": "closed loop, one client, one process",
        "requests": [r["attempted"] for r in runs],
        "rows": [r["rows"] for r in runs],
        "repeat_share": runs[0]["repeat_share"],
        "fail_ratio": failed / attempted,
        "errors": [e for r in runs for e in r["errors"]][:5],
        "slowdown": [r["slowdown"] for r in runs],
        "unscaled": raw,
        "env": environment(runs[0]["numpy"]),
    }
    if trace:
        details["spans"] = traced["spans"]
    return details, result


def report(details: Dict, result: Dict) -> None:
    print(f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  ({details['loop']})")
    print(
        f"  requests {details['requests']}  rows {details['rows']}  failed {result['failed']}"
        f"  fail_ratio {details['fail_ratio']:.4g} ratio  repeat_share {details['repeat_share']:.4g} ratio"
    )
    for err in details["errors"]:
        print(f"  FAILED {err}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print("details " + json.dumps(details))


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run the morganvoyce benchmark workloads.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="request time per run; the bounds in BENCHMARK.json hold for its run_seconds, the default",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        print(f"bench: --seconds {args.seconds:g} is not run_seconds {spec['run_seconds']}: "
              "the bounds do not cover these figures", file=sys.stderr)

    if not (ROOT / "src" / "morganvoyce" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'morganvoyce'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            details, result = measure(spec, name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"bench: workload {name} failed to run: {exc}", file=sys.stderr)
            return 1
        report(details, result)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
