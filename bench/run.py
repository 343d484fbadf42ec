"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` reports the end-to-end metrics with tracing off: ``setup_s``
(median wall time of fresh processes that import ``mabkcert`` and get the
workload ready), and per warm workload run the median ``run_s`` and
``cpu_s``, plus the process's ``peak_rss_mb``.  ``--trace 1`` reports the
per-layer metrics: every workload run is made twice with the same seed, once
untraced and once under tracing, so the tracing overhead is their difference.

Timed run ``i`` uses seed ``1000 * seed + i``: the seed fixes every input,
and the median over several seeds averages out the optimizer's seed-driven
basin mix.  Every run's outputs are checked; the last line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1 if
any check failed.  Details, spans included, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Single-threaded BLAS is the baseline: at 2 threads the level-3 free bound
# changes in its last digits and timings of identical runs differed by 15%.
BLAS_THREADS = "1"
BLAS_ENV = {
    var: BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("reproduce-fast", "even-honest", "npa-certify")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest sizes, for the benchmark's tests"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(workload: str, seed: int, probes: int) -> float:
    """Median wall time of fresh processes from spawn until the workload is ready."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            capture_output=True,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    import numpy  # imported here: BLAS_ENV must be set before numpy loads
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _timed(fn, *args):
    w0, c0 = time.perf_counter(), time.process_time()
    out = fn(*args)
    return time.perf_counter() - w0, time.process_time() - c0, out


def _rate_metrics(walls, counts) -> tuple[float, float]:
    """Median restarts per second and seconds per optimum over paired runs."""
    per_s = [r / w for w, (r, _) in zip(walls, counts)]
    per_hit = [w / h if h else 0.0 for w, (_, h) in zip(walls, counts)]
    return statistics.median(per_s), statistics.median(per_hit)


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run the workload for ``args.seconds``; returns (result line, details)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    setup_tracer = tracing.Tracer()
    if args.trace:
        with tracing.instrumented(setup_tracer):
            wl.prime(args.seed)
    else:
        wl.prime(args.seed)

    seeds, walls, cpus, traced_walls, layer_runs, counts = [], [], [], [], [], []
    checks: list[tuple[str, bool]] = []
    first_spans: list = []
    start = time.perf_counter()
    while True:
        seed = 1000 * args.seed + len(seeds)
        seeds.append(seed)
        wall, cpu, output = _timed(wl.run, seed)
        outcome = wl.check(output)
        walls.append(wall)
        cpus.append(cpu)
        checks += outcome.checks
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                traced_wall, _, output = _timed(wl.run, seed)
            checks += wl.check(output).checks
            traced_walls.append(traced_wall)
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            counts.append(tracing.restart_totals(layer_runs[-1]))
            first_spans = first_spans or tracer.spans
        elif outcome.restarts is not None:
            counts.append((outcome.restarts, outcome.optimum_hits))
        if time.perf_counter() - start >= args.seconds:
            break

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "iteration_seeds": seeds,
        "run_s": walls,
        "cpu_s": cpus,
        "failed_checks": [claim for claim, ok in checks if not ok],
    }
    if args.trace:
        metrics = tracing.median_metrics(layer_runs)
        setup_layers = tracing.layer_metrics(setup_tracer.spans)
        for name in tracing.SETUP_METRICS:
            metrics[name] += setup_layers[name]
        metrics["trace.overhead_s"] = statistics.median(
            t - w for t, w in zip(traced_walls, walls)
        )
        rate, per_optimum = _rate_metrics(walls, counts)
        metrics["blochopt.restarts_per_s"] = rate
        metrics["blochopt.s_per_optimum"] = per_optimum
        units = {name: unit for name, unit, _ in tracing.metric_names()}
        details["traced_run_s"] = traced_walls
        details["spans"] = {
            "setup": tracing.spans_payload(setup_tracer.spans),
            "first_run": tracing.spans_payload(first_spans),
        }
    else:
        probes = 1 if args.tiny else SETUP_PROBES
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": setup_seconds(args.workload, args.seed, probes),
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        }
        units = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        if counts:
            rate, per_optimum = _rate_metrics(walls, counts)
            details["restarts_per_s"] = rate
            details["s_per_optimum"] = per_optimum

    failed = len(details["failed_checks"])
    details["failed_frac"] = failed / len(checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mabkcert" / "__init__.py").is_file():
        print(f"error: no mabkcert package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in the probes
    sys.path[:0] = [str(SRC), str(BENCH)]

    result, details = measure(args)
    details["environment"] = environment()
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **details}, indent=1))

    summary = {
        k: v["value"]
        for k, v in result["metrics"].items()
        if "." not in k or k.endswith(".self_s") or k.startswith("trace.")
    }
    for key in ("failed_frac", "restarts_per_s", "s_per_optimum"):
        if key in details:
            summary[key] = details[key]
    print("environment " + json.dumps(details["environment"]))
    print(f"{args.workload}: runs {len(details['run_s'])} " + json.dumps(summary))
    for claim in details["failed_checks"]:
        print(f"FAILED CHECK: {claim}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
