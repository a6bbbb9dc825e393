"""vidseg benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload full-L --seed 5 --seconds 45 --trace 0

It writes the workload's synthetic inputs under .perfbench_work/, times
the program on them for --seconds in a fresh worker process with one BLAS
thread, checks the outputs, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
See perfbench/METRICS.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Multithreaded BLAS level-1 calls stall on small shared machines; pin before numpy loads.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # before the measured window and again after it
RUN_LIMIT_S = 175  # every process this run starts ends within this
# What every CLI call pays before it does any work.
SETUP_SNIPPET = (
    "import sys\n"
    "import vidseg.cli\n"
    "from vidseg.pipeline import PipelineConfig\n"
    "PipelineConfig.from_json(sys.argv[1]).validate()\n"
)
HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _run(argv, env, deadline, **kwargs):
    """subprocess.run, killed and waited for if it outlives the run's deadline."""
    try:
        return subprocess.run(argv, env=env, timeout=max(deadline - time.monotonic(), 1),
                              **kwargs)
    except subprocess.TimeoutExpired:
        _fail(f"{argv[1]} did not finish within {RUN_LIMIT_S} s of the run's start")


def _child(env, deadline, *args):
    """Run child.py to completion; returns its stdout."""
    proc = _run([sys.executable, os.path.join(HERE, "child.py"), *args], env, deadline,
                stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        _fail(f"child {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def _setup_times(env, deadline, config):
    """Wall time of fresh interpreters importing the CLI and loading the config."""
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code = _run([sys.executable, "-c", SETUP_SNIPPET, config], env, deadline).returncode
        times.append(time.perf_counter() - t0)
        failed += code != 0
    return times, failed


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("L", "S"), default="L",
                        help="S replaces the workload's clip by the default SynthConfig")
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vidseg", "cli.py")):
        _fail("run from the root of a vidseg checkout (src/vidseg/cli.py not found)")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--dir", work]
    try:
        t0 = time.perf_counter()
        _child(env, deadline, "prepare", *common, "--seed", str(args.seed), "--scale", args.scale)
        print(f"inputs written in {time.perf_counter() - t0:.2f} s")
        config = os.path.join(work, "data", "config.json")
        setup, setup_failed = [], 0
        if not args.trace:
            setup, setup_failed = _setup_times(env, deadline, config)
        out = _child(env, deadline, "measure", *common, "--seconds", str(args.seconds),
                     "--trace", str(args.trace))
        if not args.trace:
            times, failures = _setup_times(env, deadline, config)
            setup += times
            setup_failed += failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run is using it
            pass
    result = json.loads(out.strip().splitlines()[-1])

    untraced = result["untraced_s"]
    wall = statistics.median(untraced)
    attempted = result["attempted"] + len(setup)
    failed = result["failed"] + setup_failed
    print("env: " + json.dumps({
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(root),
        **result["versions"],
    }, sort_keys=True))
    print(f"wall_s samples: {_spread(untraced)}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")

    if args.trace:
        traced = statistics.median(result["traced_s"])
        values = dict(result["layers"])
        values["trace.overhead_s"] = traced - wall
        values["trace.coverage"] = values.get("trace.stage_s", 0.0) / traced
        if values["trace.coverage"] < 0.9:
            failed += 1
            print(f"check failed: stage spans cover {values['trace.coverage']:.3f} of traced wall")
        declared = spec["per_layer"]
    else:
        iou = result["iou"] or {"micro": 0.0, "macro": 0.0}
        values = {
            "wall_s": wall,
            "frames_per_s": result["frames"] / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "iou_micro": iou["micro"],
            "iou_macro": iou["macro"],
        }
        print(f"setup_s samples: {_spread(setup)}")
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted})")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
