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
from .propagation import ConvergenceError
from .video import DataError, check_id

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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
    pipe.add_argument("--solver", choices=("iterative", "linear"), default=None)
    pipe.add_argument("--out", default=None, help="output directory override")
    pipe.add_argument("--dump-graph", action="store_true",
                      help="also write the space-time graph edges as CSV")

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--frames", type=int, default=20)
    synth.add_argument("--width", type=int, default=128)
    synth.add_argument("--height", type=int, default=128)
    synth.add_argument("--shape", choices=("rectangle", "disc"), default="rectangle")
    synth.add_argument("--shape-size", type=int, nargs=2, default=(40, 40),
                       metavar=("W", "H"))
    synth.add_argument("--start", type=int, nargs=2, default=(10, 20), metavar=("X", "Y"))
    synth.add_argument("--velocity", type=int, nargs=2, default=(2, 1), metavar=("VX", "VY"))
    synth.add_argument("--cell-size", type=int, default=8)
    synth.add_argument("--proposals-per-frame", type=int, default=1)
    synth.add_argument("--jitter", type=int, default=5)
    synth.add_argument("--confidence-base", type=float, default=0.05)
    synth.add_argument("--confidence-noise", type=float, default=0.2)
    synth.add_argument("--color-noise", type=float, default=3.0)
    synth.add_argument("--class-id", default="object")

    pool = sub.add_parser("pool", help="pool proposals into confidence CSVs")
    pool.add_argument("--config", required=True)
    pool.add_argument("--out", required=True, help="output CSV path")

    adapt = sub.add_parser("adapt", help="diffuse a pooled confidence CSV")
    adapt.add_argument("--config", required=True)
    adapt.add_argument("--confidence", required=True, help="pooled confidence CSV")
    adapt.add_argument("--out", required=True, help="adapted CSV path")
    adapt.add_argument("--solver", choices=("iterative", "linear"), default=None)

    segment = sub.add_parser("segment", help="segment from a confidence CSV")
    segment.add_argument("--config", required=True)
    segment.add_argument("--confidence", required=True)
    segment.add_argument("--out", default=None, help="output directory override")

    ev = sub.add_parser("eval", help="score predicted masks against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted mask PGMs")
    ev.add_argument("--gt", required=True, help="directory of ground-truth PGMs")
    ev.add_argument("--out", default=None, help="report CSV path")
    ev.add_argument("--video-id", default="video")
    ev.add_argument("--class-id", default="object")
    return parser


def _load_config(args, overrides=None):
    merged = dict(overrides or {})
    if getattr(args, "out", None):
        merged["out_dir"] = os.path.abspath(args.out)
    return PipelineConfig.from_json(args.config, merged).validate()


def _cmd_pipeline(args):
    overrides = {}
    if args.skip_adaptation:
        overrides["skip_adaptation"] = True
    if args.solver:
        overrides["solver"] = args.solver
    if args.dump_graph:
        overrides["dump_graph"] = True
    cfg = _load_config(args, overrides)
    report = run_pipeline(cfg)
    summary = report.summary()
    print(
        f"pipeline done: iou_micro={summary['iou_micro']:.4f} "
        f"iou_macro={summary['iou_macro']:.4f} "
        f"pixel_error={summary['mean_pixel_error']:.1f}"
    )
    return EXIT_OK


def _cmd_synth(args):
    from .synth import SynthConfig, generate, write_dataset

    cfg = SynthConfig(
        width=args.width,
        height=args.height,
        frame_count=args.frames,
        shape=args.shape,
        shape_width=args.shape_size[0],
        shape_height=args.shape_size[1],
        start_x=args.start[0],
        start_y=args.start[1],
        velocity=tuple(args.velocity),
        color_noise_sigma=args.color_noise,
        cell_size=args.cell_size,
        proposals_per_frame=args.proposals_per_frame,
        jitter_px=args.jitter,
        confidence_base=args.confidence_base,
        confidence_noise_sigma=args.confidence_noise,
        class_id=args.class_id,
        seed=args.seed,
    )
    dataset = generate(cfg)
    paths = write_dataset(dataset, args.out)
    config = {
        "video_dir": "frames",
        "superpixel_dir": "superpixels",
        "flow_dir": "flow",
        "motion_dir": "motion",
        "gt_dir": "gt",
        "proposal_manifest": os.path.join("proposals", "manifest.jsonl"),
        "out_dir": "out",
        "classes": [cfg.class_id],
    }
    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"synthetic dataset written to {args.out} ({len(paths)} components)")
    print(f"pipeline config: {config_path}")
    return EXIT_OK


def _cmd_pool(args):
    cfg = _load_config(args)
    inputs = load_inputs(cfg, build=False)
    pooled = pool_stage(cfg, inputs)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_confidence_csv(args.out, pooled)
    print(f"pooled confidences for {len(pooled)} class(es) -> {args.out}")
    return EXIT_OK


def _cmd_adapt(args):
    overrides = {"solver": args.solver} if args.solver else {}
    cfg = _load_config(args, overrides)
    inputs = load_inputs(cfg)
    pooled = read_confidence_csv(args.confidence)
    adapted = adapt_stage(cfg, inputs, pooled)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_confidence_csv(args.out, adapted)
    print(f"adapted confidences for {len(adapted)} class(es) -> {args.out}")
    return EXIT_OK


def _cmd_segment(args):
    cfg = _load_config(args)
    inputs = load_inputs(cfg)
    confidences = read_confidence_csv(args.confidence)
    segment_stage(cfg, inputs, confidences)
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"error (non-convergence): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StageError as exc:
        if isinstance(exc.cause, ConvergenceError):
            print(f"error (non-convergence): {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
