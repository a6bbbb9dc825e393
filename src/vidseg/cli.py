"""Command-line interface.

Subcommands mirror the pipeline stages; exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .evaluation import score_masks
from .pipeline import (
    PipelineConfig,
    StageError,
    adapt_stage,
    load_inputs,
    load_mask_dir,
    pool_stage,
    read_confidence_csv,
    run_pipeline,
    segment_stage,
    write_confidence_csv,
)
from .mrf import pairwise_weights
from .pnm import DataError, write_file
from .propagation import ConvergenceError
from .video import check_id

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# synth's one-number float flags. argparse reads only tokens such as -1 and -.5
# as negative numbers, so after a space it takes -inf or -1e-3 for an option name.
FLOAT_FLAGS = ("--confidence-base", "--confidence-noise", "--color-noise", "--flow-noise")


def _join_float_values(argv):
    """argv with each FLOAT_FLAGS flag and the token after it joined as FLAG=VALUE."""
    out = []
    for token in argv:
        if out and out[-1] in FLOAT_FLAGS:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="vidseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pipe = sub.add_parser("pipeline", help="run all stages end to end")
    pipe.add_argument("--config", required=True, help="pipeline config JSON")
    pipe.add_argument("--skip-adaptation", action="store_true", default=None,
                      help="feed the pooled confidences to segmentation directly")
    pipe.add_argument("--out", type=os.path.abspath, help="output directory override")
    pipe.add_argument("--dump-graph", action="store_true", default=None,
                      help="also write the space-time graph edges as CSV")

    # Each flag's dest is its SynthConfig field; a flag not given keeps the field's default.
    synth = sub.add_parser("synth", help="generate a synthetic dataset",
                           argument_default=argparse.SUPPRESS)
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--frames", dest="frame_count", type=int, metavar="FRAMES")
    synth.add_argument("--width", type=int)
    synth.add_argument("--height", type=int)
    synth.add_argument("--shape", choices=("rectangle", "disc"))
    synth.add_argument("--shape-size", type=int, nargs=2, metavar=("W", "H"))
    synth.add_argument("--start", type=int, nargs=2, metavar=("X", "Y"))
    synth.add_argument("--velocity", type=int, nargs=2, metavar=("VX", "VY"))
    synth.add_argument("--cell-size", type=int)
    synth.add_argument("--proposals-per-frame", type=int)
    synth.add_argument("--jitter", dest="jitter_px", type=int, metavar="JITTER")
    synth.add_argument("--confidence-base", type=float)
    synth.add_argument("--confidence-noise", dest="confidence_noise_sigma", type=float,
                       metavar="CONFIDENCE_NOISE")
    synth.add_argument("--color-noise", dest="color_noise_sigma", type=float, metavar="COLOR_NOISE")
    synth.add_argument("--flow-noise", dest="flow_noise_sigma", type=float, metavar="FLOW_NOISE")
    synth.add_argument("--class-id")

    pool = sub.add_parser("pool", help="pool proposals into confidence CSVs")
    pool.add_argument("--config", required=True)
    pool.add_argument("--out", required=True, help="output CSV path")

    adapt = sub.add_parser("adapt", help="diffuse a pooled confidence CSV")
    adapt.add_argument("--config", required=True)
    adapt.add_argument("--confidence", required=True, help="pooled confidence CSV")
    adapt.add_argument("--out", required=True, help="adapted CSV path")

    segment = sub.add_parser("segment", help="segment from a confidence CSV")
    segment.add_argument("--config", required=True)
    segment.add_argument("--confidence", required=True)
    segment.add_argument("--out", type=os.path.abspath, help="output directory override")

    ev = sub.add_parser("eval", help="score predicted masks against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted mask PGMs")
    ev.add_argument("--gt", required=True, help="directory of ground-truth PGMs")
    ev.add_argument("--out", default=None, help="report CSV path")
    ev.add_argument("--video-id", default="video")
    ev.add_argument("--class-id", default="object")
    return parser


def _load_config(args, **overrides):
    return PipelineConfig.from_json(args.config, overrides).validate()


def _cmd_pipeline(args):
    cfg = _load_config(args, out_dir=args.out, skip_adaptation=args.skip_adaptation,
                       dump_graph=args.dump_graph)
    report = run_pipeline(cfg)
    if not report.rows:
        print("pipeline done: no ground truth, nothing scored")
        return EXIT_OK
    summary = report.summary()
    print(
        f"pipeline done: iou_micro={summary['iou_micro']:.4f} "
        f"iou_macro={summary['iou_macro']:.4f} "
        f"pixel_error={summary['mean_pixel_error']:.1f}"
    )
    return EXIT_OK


def _cmd_synth(args):
    from .synth import SynthConfig, generate, write_dataset

    given = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    for pair, names in (("shape_size", ("shape_width", "shape_height")),
                        ("start", ("start_x", "start_y"))):
        given.update(zip(names, given.pop(pair, ())))
    if "velocity" in given:
        given["velocity"] = tuple(given["velocity"])
    cfg = SynthConfig(**given)
    paths = write_dataset(generate(cfg), args.out)
    config = {key: os.path.relpath(path, args.out) for key, path in paths.items()}
    config.update(out_dir="out", classes=[cfg.class_id])
    config_path = os.path.join(args.out, "config.json")
    write_file(config_path, [json.dumps(config, indent=2, sort_keys=True) + "\n"])
    print(f"synthetic dataset written to {args.out} ({len(paths)} components)")
    print(f"pipeline config: {config_path}")
    return EXIT_OK


def _cmd_pool(args):
    cfg = _load_config(args)
    pooled = pool_stage(cfg, load_inputs(cfg, ["pool"])[0])
    write_confidence_csv(args.out, pooled)
    print(f"pooled confidences for {len(pooled)} class(es) -> {args.out}")
    return EXIT_OK


def _cmd_adapt(args):
    cfg = _load_config(args)
    pooled = read_confidence_csv(args.confidence)  # first: its parse never sits on the graph
    graph = load_inputs(cfg, ["adapt"])[2]
    adapted = adapt_stage(cfg, graph, pooled)
    write_confidence_csv(args.out, adapted)
    print(f"adapted confidences for {len(adapted)} class(es) -> {args.out}")
    return EXIT_OK


def _cmd_segment(args):
    cfg = _load_config(args, out_dir=args.out)
    clip, colors, graph = load_inputs(cfg, ["segment"])
    potts = pairwise_weights(graph, cfg.lambda_spatial, cfg.lambda_temporal)
    del graph  # segmentation reads the Potts terms instead
    segment_stage(cfg, clip, colors, potts, read_confidence_csv(args.confidence))
    print(f"masks and overlays written under {cfg.out_dir}")
    return EXIT_OK


def _cmd_eval(args):
    check_id("video_id", args.video_id)
    check_id("class", args.class_id)
    gt = load_mask_dir(args.gt)
    pred = load_mask_dir(args.pred)
    missing = sorted(set(gt) - set(pred))
    if missing:
        raise DataError(f"prediction missing annotated frames: {missing}")
    report = score_masks(args.video_id, {args.class_id: pred}, gt)
    if args.out:
        report.write_csv(args.out)
    row = report.rows[0]
    print(
        f"iou_micro={row['iou_micro']:.6f} iou_macro={row['iou_macro']:.6f} "
        f"mean_pixel_error={row['mean_pixel_error']:.2f}"
    )
    return EXIT_OK


_COMMANDS = {
    "pipeline": _cmd_pipeline,
    "synth": _cmd_synth,
    "pool": _cmd_pool,
    "adapt": _cmd_adapt,
    "segment": _cmd_segment,
    "eval": _cmd_eval,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (StageError, OSError, ValueError) as exc:  # DataError is a ValueError
        if isinstance(exc.__cause__, ConvergenceError):
            print(f"error (non-convergence): {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
