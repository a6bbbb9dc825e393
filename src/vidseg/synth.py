"""Deterministic synthetic video generator and brute-force oracles.

Generates a desk-scale moving-shape video with exact optical flow,
boundary-respecting grid superpixels, motion cue masks, jittered box
proposals with noisy classifier confidences, and ground truth, all in the
formats the pipeline ingests. Also hosts the independent oracles used to
verify the diffusion solvers and the min-cut labeler.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .mrf import Labeling, MRFProblem, mrf_energy
from .pnm import write_pgm, write_ppm
from .proposals import ScoredProposal
from .video import SuperpixelMap, VideoVolume, check_id, write_flow, write_mask

DENSE_ORACLE_LIMIT = 1000
ENUMERATION_LIMIT = 16
# SynthConfig field -> its least usable value; -inf admits every number but NaN
SYNTH_MINIMA = {"width": 1, "height": 1, "frame_count": 1, "cell_size": 1, "shape_width": 1,
                "shape_height": 1, "proposals_per_frame": 1, "jitter_px": 0,
                "color_noise_sigma": 0, "confidence_noise_sigma": 0,
                "confidence_base": -math.inf}


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
    background_color: tuple = (60, 70, 160)
    object_color: tuple = (200, 70, 60)
    color_noise_sigma: float = 3.0
    cell_size: int = 8
    proposals_per_frame: int = 1
    jitter_px: int = 5
    score_noise: float = 0.1
    confidence_base: float = 0.05
    confidence_noise_sigma: float = 0.2
    class_id: str = "object"
    seed: int = 0

    def validate(self):
        """Raise ValueError naming the first field that would make an unusable clip."""
        for name, least in SYNTH_MINIMA.items():
            if not getattr(self, name) >= least:  # a NaN fails too
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        check_id("class", self.class_id)
        for t in (0, self.frame_count - 1):
            x = self.start_x + t * self.velocity[0]
            y = self.start_y + t * self.velocity[1]
            if x < 0 or y < 0 or x + self.shape_width > self.width or y + self.shape_height > self.height:
                raise ValueError(f"shape exits frame at t={t}")


@dataclass
class SynthDataset:
    config: SynthConfig
    video: VideoVolume
    superpixels: SuperpixelMap
    flows: list  # (H, W, 2) float32, one per consecutive frame pair
    motion_masks: np.ndarray  # (T, H, W) bool
    proposals: list  # ScoredProposal with raw appearance + confidences
    gt_masks: np.ndarray  # (T, H, W) bool


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


def generate(cfg: SynthConfig) -> SynthDataset:
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
    bg = np.asarray(cfg.background_color, dtype=np.float64)
    obj = np.asarray(cfg.object_color, dtype=np.float64)
    for t in range(T):
        base = np.where(gt[t][:, :, None], obj, bg)
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

    proposals = []
    for t in range(T):
        x = cfg.start_x + t * cfg.velocity[0]
        y = cfg.start_y + t * cfg.velocity[1]
        for _ in range(cfg.proposals_per_frame):
            ox, oy = rng.integers(-cfg.jitter_px, cfg.jitter_px + 1, size=2)
            mask = _shape_mask(cfg, x + int(ox), y + int(oy), h, w)
            appearance = float(np.clip(0.7 + cfg.score_noise * rng.normal(), 0.0, 1.0))
            confidence = float(
                np.clip(cfg.confidence_base + cfg.confidence_noise_sigma * rng.normal(), 0.0, 1.0)
            )
            proposals.append(
                ScoredProposal(
                    frame=t,
                    mask=mask,
                    appearance_score=appearance,
                    class_confidences={cfg.class_id: confidence},
                )
            )

    return SynthDataset(
        config=cfg,
        video=VideoVolume(frames),
        superpixels=sp,
        flows=flows,
        motion_masks=gt.copy(),
        proposals=proposals,
        gt_masks=gt,
    )


def write_dataset(ds: SynthDataset, out_dir):
    """Write the dataset tree in the pipeline's input formats.

    Layout: frames/, superpixels/ (16-bit PGM), flow/ (.flo), motion/, gt/,
    proposals/manifest.jsonl with mask PGMs alongside. Returns the path map.
    """
    cfg = ds.config
    paths = {
        "video_dir": os.path.join(out_dir, "frames"),
        "superpixel_dir": os.path.join(out_dir, "superpixels"),
        "flow_dir": os.path.join(out_dir, "flow"),
        "motion_dir": os.path.join(out_dir, "motion"),
        "gt_dir": os.path.join(out_dir, "gt"),
        "proposal_manifest": os.path.join(out_dir, "proposals", "manifest.jsonl"),
    }
    for key in ("video_dir", "superpixel_dir", "flow_dir", "motion_dir", "gt_dir"):
        os.makedirs(paths[key], exist_ok=True)
    os.makedirs(os.path.dirname(paths["proposal_manifest"]), exist_ok=True)

    for t in range(ds.video.frame_count):
        write_ppm(os.path.join(paths["video_dir"], f"frame_{t:04d}.ppm"), ds.video.frames[t])
        write_pgm(
            os.path.join(paths["superpixel_dir"], f"frame_{t:04d}.pgm"),
            ds.superpixels.labels[t].astype(np.uint16),
        )
        write_mask(os.path.join(paths["motion_dir"], f"frame_{t:04d}.pgm"), ds.motion_masks[t])
        write_mask(os.path.join(paths["gt_dir"], f"frame_{t:04d}.pgm"), ds.gt_masks[t])
    for t, flow in enumerate(ds.flows):
        write_flow(os.path.join(paths["flow_dir"], f"flow_{t:04d}.flo"), flow)

    manifest_dir = os.path.dirname(paths["proposal_manifest"])
    with open(paths["proposal_manifest"], "w", encoding="utf-8") as fh:
        for idx, p in enumerate(ds.proposals):
            mask_name = f"mask_{idx:05d}.pgm"
            write_mask(os.path.join(manifest_dir, mask_name), p.mask)
            fh.write(
                json.dumps(
                    {
                        "frame": p.frame,
                        "mask": mask_name,
                        "appearance": p.appearance_score,
                        "confidences": p.class_confidences,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return paths


def dense_solve_oracle(graph, c, mu):
    """Reference solution of (I - (1 - eta) S) X = eta C by dense LU solve.

    Independent of the sparse solvers; refuses graphs above 1000 nodes.
    """
    n = graph.n_nodes
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} nodes")
    eta = mu / (1.0 + mu)
    m = np.eye(n) - (1.0 - eta) * graph.operator.toarray()
    return np.linalg.solve(m, eta * np.asarray(c, dtype=np.float64))


def enumerate_labelings_oracle(problem: MRFProblem):
    """Exhaustive minimum of the binary MRF energy.

    Enumerates labelings in lexicographic order (background first), so the
    first minimum reproduces the ties-to-background rule. Refuses more than
    16 nodes.
    """
    n = problem.n_nodes
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle limited to {ENUMERATION_LIMIT} nodes")
    codes = np.arange(2**n, dtype=np.uint32)
    # bit k encodes node k, most significant first: row order is lexicographic
    bits = (codes[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    labels = bits.astype(bool)
    energies = labels @ problem.cost_object + (~labels) @ problem.cost_background
    if len(problem.edges):
        disagree = labels[:, problem.edges[:, 0]] != labels[:, problem.edges[:, 1]]
        energies = energies + disagree @ problem.edge_weight
    best = int(np.argmin(energies))
    labeling = Labeling(labels=labels[best].copy())
    return labeling, float(mrf_energy(problem, labeling.labels))
