"""Workload definitions: inputs on disk, one timed repeat, output checks.

A workload is a synthetic clip (SynthConfig fields; the seed comes from the
command line) and a route through the CLI. The program sees only the files
`prepare` writes; the timed repeat calls `vidseg.cli.main` in-process.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

# Scale L: the config of test_propagation_speed_at_scale (static square,
# 100 frames, 1024 superpixels a frame, 102k nodes).
SCALE_L = dict(
    frame_count=100, velocity=(0, 0), start_x=44, start_y=44, cell_size=4, confidence_base=0.6
)
# Two frames of the L clip with a fixed seed, run once before timing so that
# every code path has been through once. Not measured; the seed is fixed
# because some seeds leave a class without training samples on so short a
# clip, which the pipeline rejects with exit code 2.
WARM_UP = dict(SCALE_L, frame_count=2)
WARM_UP_SEED = 0


@dataclass(frozen=True)
class Workload:
    route: str  # "full": vidseg pipeline; "staged": vidseg pool, then vidseg adapt
    synth: dict


WORKLOADS = {
    "full-L": Workload("full", SCALE_L),
    "staged-adapt-L": Workload("staged", SCALE_L),
}


def synth_fields(name, scale):
    """SynthConfig fields of a workload; scale "S" is the default clip."""
    return dict(WORKLOADS[name].synth) if scale == "L" else {}


def write_inputs(fields, seed, data_dir):
    """Generate a clip and write it with a pipeline config; returns the config path."""
    from vidseg.synth import SynthConfig, generate, write_dataset

    cfg = SynthConfig(**fields, seed=seed)
    write_dataset(generate(cfg), data_dir)
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
    path = os.path.join(data_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return path


def write_single_shot_csvs(config_path, out_dir):
    """Confidence CSVs exactly as `run_pipeline` writes them, without segmenting.

    `run_pipeline` writes pooled.csv and adapted.csv before it segments, so
    with the segment and eval stages stubbed out it produces the bytes the
    staged route must reproduce.
    """
    from vidseg import pipeline

    cfg = pipeline.PipelineConfig.from_json(config_path, {"out_dir": out_dir})
    saved = pipeline.segment_stage, pipeline.eval_stage
    pipeline.segment_stage = lambda *args, **kwargs: {}
    pipeline.eval_stage = lambda *args, **kwargs: None
    try:
        pipeline.run_pipeline(cfg)
    finally:
        pipeline.segment_stage, pipeline.eval_stage = saved


def run_once(route, config_path, out_dir, tracer=None):
    """One repeat of a route; returns the CLI exit codes."""
    from vidseg import cli

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    if route == "full":
        return [cli.main(["pipeline", "--config", config_path, "--out", out_dir])]
    pooled = os.path.join(out_dir, "pooled.csv")
    adapted = os.path.join(out_dir, "adapted.csv")
    codes = []
    for command, argv in (
        ("pool", ["pool", "--config", config_path, "--out", pooled]),
        ("adapt", ["adapt", "--config", config_path, "--confidence", pooled, "--out", adapted]),
    ):
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            with tracer.span(f"cli.{command}_s"):
                codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    return codes


def tree_digest(root):
    """SHA-256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _iou_pair(pred, gt):
    """Micro and per-frame macro IoU of (T, H, W) masks; empty-empty frames score 1."""
    inter = np.count_nonzero(pred & gt, axis=(1, 2))
    union = np.count_nonzero(pred | gt, axis=(1, 2))
    micro = inter.sum() / union.sum() if union.sum() else 1.0
    per_frame = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(micro), float(per_frame.mean())


def _load_gt(data_dir):
    from vidseg.video import load_mask

    gt_dir = os.path.join(data_dir, "gt")
    return np.stack([load_mask(os.path.join(gt_dir, n)) for n in sorted(os.listdir(gt_dir))])


def check_outputs(route, run_dir, out_dir):
    """Check one repeat's outputs; returns (iou_micro, iou_macro, problems)."""
    data_dir = os.path.join(run_dir, "data")
    if route == "full":
        return _check_full(data_dir, out_dir)
    return _check_staged(data_dir, out_dir, os.path.join(run_dir, "reference"))


def _check_full(data_dir, out_dir):
    """IoU of the written object masks against ground truth, which must be 1.

    Recomputed from the mask files, and required to match the program's
    own report.csv.
    """
    from vidseg.video import load_mask

    gt = _load_gt(data_dir)
    mask_dir = os.path.join(out_dir, "masks", "object")
    names = sorted(os.listdir(mask_dir))
    problems = []
    if len(names) != len(gt):
        return 0.0, 0.0, [f"{len(names)} masks written for {len(gt)} frames"]
    pred = np.stack([load_mask(os.path.join(mask_dir, n)) for n in names])
    micro, macro = _iou_pair(pred, gt)
    with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
        row = fh.read().splitlines()[1].split(",")
    reported = float(row[2]), float(row[3])
    if not np.allclose(reported, (micro, macro), rtol=0, atol=1e-12):
        problems.append(f"report.csv IoU {reported} differs from the masks' {(micro, macro)}")
    if (micro, macro) != (1.0, 1.0):
        problems.append(f"IoU {micro:.6f}/{macro:.6f} against ground truth, expected 1")
    return micro, macro, problems


def _check_staged(data_dir, out_dir, reference_dir):
    """Staged-route contract and the IoU of the adapted confidence at 0.5.

    pooled.csv and adapted.csv must be byte-identical to the ones the
    single-shot route writes from the same inputs.
    """
    from vidseg.pipeline import read_confidence_csv
    from vidseg.video import load_superpixels

    problems = []
    for name in ("pooled.csv", "adapted.csv"):
        with open(os.path.join(out_dir, name), "rb") as a, open(
            os.path.join(reference_dir, name), "rb"
        ) as b:
            if a.read() != b.read():
                problems.append(f"{name} differs from the single-shot route's")
    gt = _load_gt(data_dir)
    adapted = read_confidence_csv(os.path.join(out_dir, "adapted.csv"))["object"]
    sp = load_superpixels(os.path.join(data_dir, "superpixels"), len(gt))
    pred = np.stack([(adapted.values[t] > 0.5)[sp.labels[t]] for t in range(len(gt))])
    micro, macro = _iou_pair(pred, gt)
    return micro, macro, problems
