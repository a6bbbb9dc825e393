"""Worker process of the benchmark: `prepare` writes inputs, `measure` times them.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and one
BLAS thread. `measure` prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from layers import Tracer  # noqa: E402

# Counters that must repeat exactly between traced repeats of the same inputs.
EXACT_COUNTERS = (
    "mrf.energy",
    "gmm.em_iterations",
    "propagation.iterations",
    "propagation.residual",
    "graph.builds",
    "graph.nodes",
    "graph.edges",
)


def prepare(args):
    """Write the workload's inputs, a warm-up clip and, for the staged route, the reference CSVs."""
    workloads.write_inputs(
        workloads.synth_fields(args.workload, args.scale),
        args.seed,
        os.path.join(args.dir, "data"),
    )
    workloads.write_inputs(
        workloads.WARM_UP, workloads.WARM_UP_SEED, os.path.join(args.dir, "warm")
    )
    if workloads.WORKLOADS[args.workload].route == "staged":
        workloads.write_single_shot_csvs(
            os.path.join(args.dir, "data", "config.json"), os.path.join(args.dir, "reference")
        )


def measure(args):
    import numpy
    import scipy

    route = workloads.WORKLOADS[args.workload].route
    config = os.path.join(args.dir, "data", "config.json")
    out_dir = os.path.join(args.dir, "out")
    problems = []

    try:
        codes = workloads.run_once(route, os.path.join(args.dir, "warm", "config.json"), out_dir)
        if any(codes):
            problems.append(f"warm-up exit codes {codes}")
    except Exception:  # counted as a failed operation like any repeat
        problems.append(traceback.format_exc())
    failed = len(problems)

    # With tracing on, untraced and traced repeats alternate, so the
    # difference of their medians is the tracing overhead.
    min_repeats = 2 if args.trace else 1
    untraced, traced, layer_runs = [], [], []
    attempted = 0
    digest = iou = None
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(untraced) > len(traced) else None
        attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                codes = workloads.run_once(route, config, out_dir)
            else:
                with tracer.installed():
                    codes = workloads.run_once(route, config, out_dir, tracer)
            elapsed = time.perf_counter() - t0
            miss = [f"exit codes {codes}"] if any(codes) else []
            if not miss:
                this_digest = workloads.tree_digest(out_dir)
                if digest is None:
                    digest = this_digest
                    micro, macro, check_problems = workloads.check_outputs(
                        route, args.dir, out_dir
                    )
                    iou = {"micro": micro, "macro": macro}
                    miss += check_problems
                elif this_digest != digest:
                    miss.append("output tree differs from the first repeat")
        except Exception:  # a crash is a failed repeat, not a crashed benchmark
            elapsed = time.perf_counter() - t0
            miss = [traceback.format_exc()]
        if miss:
            failed += 1
            problems.extend(miss)
        (untraced if tracer is None else traced).append(elapsed)
        if tracer is not None:
            layer_runs.append(tracer.metrics())
        window = time.perf_counter() - start
        if attempted >= min_repeats and window + elapsed > args.seconds:
            break

    layers = {}
    if layer_runs:
        names = sorted(set().union(*layer_runs))
        layers = {n: statistics.median(run.get(n, 0.0) for run in layer_runs) for n in names}
        for name in EXACT_COUNTERS:
            values = {run.get(name, 0.0) for run in layer_runs}
            if len(values) > 1:
                failed += 1
                problems.append(f"{name} differs between repeats: {sorted(values)}")
    return {
        "frames": len(os.listdir(os.path.join(args.dir, "data", "frames"))),
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": layers,
        "iou": iou,
        "attempted": attempted + 1,  # the warm-up counts as an operation
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("action", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--dir", required=True, help="work directory of this run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("L", "S"), default="L")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.action == "prepare":
        prepare(args)
    else:
        print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
