"""crittuner benchmark: tuner steps and exact APJN draws per second.

Run from the repository root:

    python3 perfbench/run.py --workload tune-mlp-analytic --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the same checkout and driven
in-process through its public API. ``--trace 0`` times the workload with
tracing off and prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced episodes and prints the
per-layer metrics, including the tracing overhead between the two.
The last line of standard output is the result object; the line before it
holds the environment record, timing summary and check details. Spans and
the full record are written under ``.bench_out/``. See perfbench/README.md.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11


class Untraced:
    """Stands in for a tracer during untraced phases; workloads only set ``unit``."""

    unit = None


def parse_args(argv):
    from workloads import make_workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(make_workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def fresh_import():
    """Import crittuner anew from src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "crittuner" or m.startswith("crittuner.")]:
        del sys.modules[name]
    return importlib.import_module("crittuner")


def set_up(workload, seed: int):
    """Median of SETUP_REPS set-ups: package import, specs, batch, parameters.

    One untimed import first loads numpy and scipy, which are not part of
    the package's own set-up cost.
    """
    fresh_import()
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ct = fresh_import()
        workload.setup(ct, seed)
        times.append(perf_counter() - t0)
    return ct, statistics.median(times)


def summary(durations: list) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    n = len(durations)
    q = statistics.quantiles(durations, n=4) if n > 1 else durations * 3
    s = {"count": n, "median_s": statistics.median(durations), "q1_s": q[0], "q3_s": q[2]}
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            s[f"p{p}_s"] = statistics.quantiles(durations, n=100)[p - 1]
            break
    return s


def environment(ct) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "crittuner": ct.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "threads_alive": threading.active_count(),
        "note": "blocks.sweep_gflop_per_unit and blocks.sweep_gflop_s are computed "
                "from block shapes (weight-block multiply-adds), not measured",
    }


def measure(args):
    from micro import block_timings, peak_gflop_s
    from spans import Tracer, layer_metrics
    from workloads import Outcome, make_workloads

    workload = make_workloads()[args.workload]
    ct, setup_s = set_up(workload, args.seed)
    out = Outcome()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "unit": workload.unit, "episode_units": workload.steps}
    metrics = {}
    tracer = Tracer(ct) if args.trace else None
    untraced, traced, traced_eps = [], [], []
    episode, end = 0, perf_counter() + args.seconds
    # with tracing, odd episodes are traced and even ones not, so both sets of
    # unit times see the same machine load
    while episode < 1 + args.trace or perf_counter() < end:
        first = len(out.durations)
        if args.trace and episode % 2:
            tracer.install()
            try:
                if episode == 1:  # trace the set-up calls once
                    workload.setup(ct, args.seed)
                workload.episode(episode, tracer, out)
            finally:
                tracer.restore()
            traced += out.durations[first:]
            traced_eps.append(episode)
        else:
            workload.episode(episode, Untraced(), out)
            untraced += out.durations[first + (episode == 0):]  # first unit warms caches
        episode += 1
    if not args.trace:
        metrics["units_per_s"] = 1.0 / statistics.median(untraced)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        info["unit_time"] = summary(untraced)
    else:
        metrics.update(layer_metrics(tracer.spans, workload.timed_units(traced_eps)))
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        micro, shapes = block_timings(ct, args.seed)
        metrics.update(micro)
        metrics["blocks.peak_gflop_s"] = peak_gflop_s(args.seed)
        info.update(unit_time_untraced=summary(untraced), unit_time_traced=summary(traced),
                    spans=len(tracer.spans), untraced_call_sites=tracer.missing,
                    reference_shapes=shapes)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    workload.finish(out)
    info["problems"] = out.problems
    info["environment"] = environment(ct)
    return metrics, out, info


def main(argv=None) -> int:
    # before numpy loads, so every run uses the same BLAS thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "crittuner" / "__init__.py").is_file():
        print(f"perfbench: no crittuner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    values, out, info = measure(args)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
