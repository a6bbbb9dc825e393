"""Deterministic synthetic video generator.

generate renders a desk-scale moving-shape video as a video.Clip: exact or noisy
optical flow, boundary-respecting grid superpixels, motion cue masks, jittered box
proposals with noisy classifier confidences, and ground truth on every frame.
write_dataset writes that Clip in the formats pipeline.load_inputs reads back.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .pnm import DataError, write_file, write_pgm, write_ppm
from .proposals import ScoredProposal
from .video import (FRAME_SUFFIXES, Clip, SuperpixelMap, check_id, list_frames, write_flow,
                    write_mask)

# frame_{t:04d} names sort in frame order up to 10,000 frames
MAX_FRAMES = 10_000
# colours of the background and of the shape, and the sigma of the appearance scores' noise
BACKGROUND_COLOR = (60, 70, 160)
OBJECT_COLOR = (200, 70, 60)
SCORE_NOISE = 0.1
# SynthConfig field -> its least usable value; -inf admits every number but NaN
SYNTH_MINIMA = {"width": 1, "height": 1, "frame_count": 1, "cell_size": 1, "shape_width": 1,
                "shape_height": 1, "proposals_per_frame": 1, "jitter_px": 0,
                "color_noise_sigma": 0, "confidence_noise_sigma": 0,
                "flow_noise_sigma": 0, "confidence_base": -math.inf}
# noise sigma -> the bound it must lie below. Generator.normal's draws lie within 14
# sigma, so flow noise below float32 max / 16 keeps every written flow value finite.
SYNTH_NOISE_BOUNDS = {"color_noise_sigma": math.inf, "confidence_noise_sigma": math.inf,
                      "flow_noise_sigma": float(np.finfo(np.float32).max) / 16}


@dataclass
class SynthConfig:
    width: int = 128
    height: int = 128
    frame_count: int = 20
    shape: str = "rectangle"  # "rectangle" | "disc"
    shape_width: int = 40
    shape_height: int = 40
    start_x: int = 10
    start_y: int = 20
    velocity: tuple = (2, 1)
    color_noise_sigma: float = 3.0
    flow_noise_sigma: float = 0.0  # N(0, sigma) px on each written flow component
    cell_size: int = 8
    proposals_per_frame: int = 1
    jitter_px: int = 5
    confidence_base: float = 0.05
    confidence_noise_sigma: float = 0.2
    class_id: str = "object"
    seed: int = 0

    def validate(self):
        """Raise ValueError naming the first field that would make an unusable clip."""
        for name, least in SYNTH_MINIMA.items():
            value = getattr(self, name)
            if not value >= least:  # a NaN fails too
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
            bound = SYNTH_NOISE_BOUNDS.get(name)
            if bound is not None and not value < bound:
                limit = "finite" if bound == math.inf else f"below {bound:.4g}"
                raise ValueError(f"{name} must be >= {least} and {limit}, got {value!r}")
        if self.frame_count > MAX_FRAMES:
            raise ValueError(f"frame_count must be <= {MAX_FRAMES}, got {self.frame_count!r}")
        check_id("class", self.class_id)
        for t in (0, self.frame_count - 1):
            x = self.start_x + t * self.velocity[0]
            y = self.start_y + t * self.velocity[1]
            if x < 0 or y < 0 or x + self.shape_width > self.width or y + self.shape_height > self.height:
                raise ValueError(f"shape exits frame at t={t}")


def _shape_mask(cfg: SynthConfig, x, y, height, width):
    mask = np.zeros((height, width), dtype=bool)
    if cfg.shape == "rectangle":
        x0, y0 = max(x, 0), max(y, 0)
        x1 = min(x + cfg.shape_width, width)
        y1 = min(y + cfg.shape_height, height)
        if x1 > x0 and y1 > y0:
            mask[y0:y1, x0:x1] = True
    elif cfg.shape == "disc":
        ry = cfg.shape_height / 2.0
        rx = cfg.shape_width / 2.0
        cy, cx = y + ry - 0.5, x + rx - 0.5
        yy, xx = np.mgrid[0:height, 0:width]
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    else:
        raise ValueError(f"unknown shape {cfg.shape!r}")
    return mask


def generate(cfg: SynthConfig) -> Clip:
    """Render the synthetic clip; identical configs give identical outputs."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    h, w, T = cfg.height, cfg.width, cfg.frame_count

    gt = np.zeros((T, h, w), dtype=bool)
    for t in range(T):
        gt[t] = _shape_mask(
            cfg, cfg.start_x + t * cfg.velocity[0], cfg.start_y + t * cfg.velocity[1], h, w
        )

    frames = np.empty((T, h, w, 3), dtype=np.uint8)
    for t in range(T):
        base = np.where(gt[t][:, :, None], OBJECT_COLOR, BACKGROUND_COLOR)
        noisy = base + rng.normal(0.0, cfg.color_noise_sigma, size=base.shape)
        frames[t] = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)

    # grid superpixels split along the shape boundary
    ncols = (w + cfg.cell_size - 1) // cfg.cell_size
    xs = np.arange(w) // cfg.cell_size
    ys = np.arange(h) // cfg.cell_size
    cell = ys[:, None] * ncols + xs[None, :]
    sp = SuperpixelMap(cell * 2 + gt)

    flows = []
    for t in range(T - 1):
        flow = np.zeros((h, w, 2), dtype=np.float32)
        flow[gt[t], 0] = cfg.velocity[0]
        flow[gt[t], 1] = cfg.velocity[1]
        flows.append(flow)
    if cfg.flow_noise_sigma > 0:  # its own stream, so every other output stays as at sigma 0
        noise_rng = np.random.default_rng([cfg.seed, 1])
        for flow in flows:
            flow += noise_rng.normal(0.0, cfg.flow_noise_sigma, size=flow.shape)

    proposals = []
    for t in range(T):
        x = cfg.start_x + t * cfg.velocity[0]
        y = cfg.start_y + t * cfg.velocity[1]
        for _ in range(cfg.proposals_per_frame):
            ox, oy = rng.integers(-cfg.jitter_px, cfg.jitter_px + 1, size=2)
            mask = _shape_mask(cfg, x + int(ox), y + int(oy), h, w)
            appearance = float(np.clip(0.7 + SCORE_NOISE * rng.normal(), 0.0, 1.0))
            confidence = float(
                np.clip(cfg.confidence_base + cfg.confidence_noise_sigma * rng.normal(), 0.0, 1.0)
            )
            if not mask.any():  # jittered fully out of frame; its draws are still taken
                continue
            proposals.append(
                ScoredProposal(
                    frame=t,
                    mask=mask,
                    appearance_score=appearance,
                    class_confidences={cfg.class_id: confidence},
                )
            )

    return Clip(frames=frames, superpixels=sp, flows=flows, motion_masks=gt.copy(),
                proposals=proposals, gt_masks=dict(enumerate(gt)))


def write_dataset(clip: Clip, out_dir):
    """Write the clip in the pipeline's input formats; returns the path map.

    Layout: frames/, superpixels/ (16-bit PGM), flow/ (.flo), motion/, gt/,
    proposals/manifest.jsonl with mask PGMs alongside. Every label map fits a
    16-bit PGM: generate's SuperpixelMap rejects a frame with more superpixels. A
    per-frame file or proposal mask that this clip would not overwrite, as another
    clip's, is a DataError raised before any file is written.
    """
    paths = {
        "video_dir": os.path.join(out_dir, "frames"),
        "superpixel_dir": os.path.join(out_dir, "superpixels"),
        "flow_dir": os.path.join(out_dir, "flow"),
        "motion_dir": os.path.join(out_dir, "motion"),
        "gt_dir": os.path.join(out_dir, "gt"),
        "proposal_manifest": os.path.join(out_dir, "proposals", "manifest.jsonl"),
    }
    dirs = dict(paths, proposal_dir=os.path.dirname(paths["proposal_manifest"]))
    # (key in dirs, file name, writer, array) of each file but the manifest, in write order
    files = []
    for t in range(len(clip.frames)):
        name = f"frame_{t:04d}"
        files += [("video_dir", name + ".ppm", write_ppm, clip.frames[t]),
                  ("superpixel_dir", name + ".pgm", write_pgm, clip.superpixels.labels[t]),
                  ("motion_dir", name + ".pgm", write_mask, clip.motion_masks[t])]
    files += [("gt_dir", f"frame_{t:04d}.pgm", write_mask, mask)
              for t, mask in sorted(clip.gt_masks.items())]
    files += [("flow_dir", f"flow_{t:04d}.flo", write_flow, flow)
              for t, flow in enumerate(clip.flows)]
    files += [("proposal_dir", f"mask_{idx:05d}.pgm", write_mask, p.mask)
              for idx, p in enumerate(clip.proposals)]
    written = {os.path.join(dirs[key], name) for key, name, _, _ in files}
    for key, suffixes in (("video_dir", FRAME_SUFFIXES), ("superpixel_dir", ".pgm"),
                          ("motion_dir", ".pgm"), ("gt_dir", ".pgm"), ("flow_dir", ".flo"),
                          ("proposal_dir", ".pgm")):
        stale = os.path.isdir(dirs[key]) and set(list_frames(dirs[key], suffixes)) - written
        if stale:
            raise DataError(f"{min(stale)} is not a file of this clip and would be taken for "
                            f"one; write the clip into a new directory")

    os.makedirs(paths["flow_dir"], exist_ok=True)  # a one-frame clip writes no flow
    for key, name, write, array in files:
        write(os.path.join(dirs[key], name), array)

    lines = [json.dumps({"frame": p.frame, "mask": f"mask_{idx:05d}.pgm",
                         "appearance": p.appearance_score,
                         "confidences": p.class_confidences}, sort_keys=True) + "\n"
             for idx, p in enumerate(clip.proposals)]
    write_file(paths["proposal_manifest"], lines)
    return paths
