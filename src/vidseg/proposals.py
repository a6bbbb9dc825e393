"""Region-proposal scoring, confidence filtering, and spatial average pooling.

Proposals arrive pre-scored for appearance; this module adds the motion
context score, normalizes per frame, gates on classifier confidence, and
pools the survivors into per-superpixel confidence fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from itertools import zip_longest

import numpy as np

from .video import DataError, SuperpixelMap, check_id, load_mask

CONFIDENCE_THRESHOLD = 0.01


@dataclass
class ScoredProposal:
    frame: int
    mask: np.ndarray  # (H, W) bool
    appearance_score: float
    context_score: float = 0.0
    combined_score: float = 0.0
    class_confidences: dict = field(default_factory=dict)


@dataclass
class ConfidenceField:
    """Per-superpixel confidence in [0, 1] for one class over all frames."""

    class_id: str
    values: list  # per frame, (n_t,) float arrays

    def flat(self) -> np.ndarray:
        return np.concatenate([np.asarray(v, dtype=np.float64) for v in self.values])

    def check_counts(self, counts):
        """Raise DataError naming the first frame t that does not hold counts[t] values."""
        have = [len(v) for v in self.values]
        for t, (got, want) in enumerate(zip_longest(have, counts, fillvalue=0)):
            if got != want:
                raise DataError(
                    f"class {self.class_id!r}: frame {t} has {got} confidence values "
                    f"for {want} superpixels"
                )

    @staticmethod
    def from_flat(class_id, flat, counts):
        bounds = np.cumsum(counts)[:-1]
        return ConfidenceField(class_id, np.split(np.asarray(flat, dtype=np.float64), bounds))


def context_score(mask, motion) -> float:
    """Avg(M(r)) * Sum(M(r)): mean times total motion-cue overlap of a proposal."""
    mask = np.asarray(mask, dtype=bool)
    motion = np.asarray(motion, dtype=bool)
    if mask.shape != motion.shape:
        raise DataError("proposal and motion mask dimensions differ")
    area = int(np.count_nonzero(mask))
    if area == 0:
        raise DataError("empty proposal")
    overlap = int(np.count_nonzero(mask & motion))
    return (overlap / area) * overlap


def normalize_and_combine(proposals):
    """Max-normalize appearance and context scores within one frame's proposals.

    Returns new proposals with scores in [0, 1] and combined_score set to the
    max-normalized sum of the two normalized scores. An all-zero score column
    stays zero.
    """
    if not proposals:
        return []
    app = np.array([p.appearance_score for p in proposals], dtype=np.float64)
    ctx = np.array([p.context_score for p in proposals], dtype=np.float64)
    app_n = app / app.max() if app.max() > 0 else np.zeros_like(app)
    ctx_n = ctx / ctx.max() if ctx.max() > 0 else np.zeros_like(ctx)
    comb = app_n + ctx_n
    comb_n = comb / comb.max() if comb.max() > 0 else np.zeros_like(comb)
    return [
        replace(p, appearance_score=a, context_score=c, combined_score=s)
        for p, a, c, s in zip(proposals, app_n, ctx_n, comb_n)
    ]


def score_proposals(proposals, motion_masks):
    """Attach context scores from per-frame motion cues, then normalize per frame.

    motion_masks: sequence of (H, W) bool, indexed by frame.
    """
    by_frame = {}
    for p in proposals:
        by_frame.setdefault(p.frame, []).append(p)
    out = []
    for t in sorted(by_frame):
        scored = [
            replace(p, context_score=context_score(p.mask, motion_masks[t]))
            for p in by_frame[t]
        ]
        out.extend(normalize_and_combine(scored))
    return out


def filter_by_confidence(proposals, class_id, threshold=CONFIDENCE_THRESHOLD):
    """Keep proposals whose confidence for class_id is strictly above threshold."""
    return [
        p
        for p in proposals
        if p.class_confidences.get(class_id, 0.0) > threshold
    ]


def pool_frame(proposals, class_id, frame_labels, n_superpixels):
    """Pool one frame's retained proposals into per-superpixel confidences.

    The pixel map is sum(mask_i * s_i) / sum(s_i) with s_i the combined score
    rescored by class confidence; 0/0 is defined as the all-zero map. Each
    superpixel takes the mean of its member pixels.
    """
    pixel_map = np.zeros(frame_labels.shape, dtype=np.float64)
    total = 0.0
    for p in proposals:
        s = p.combined_score * p.class_confidences.get(class_id, 0.0)
        if s <= 0:
            continue
        pixel_map += s * p.mask
        total += s
    if total > 0:
        pixel_map /= total
    labels = frame_labels.ravel()
    sums = np.bincount(labels, weights=pixel_map.ravel(), minlength=n_superpixels)
    counts = np.bincount(labels, minlength=n_superpixels)
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return values, pixel_map


def pool_confidence(proposals, class_id, sp: SuperpixelMap) -> ConfidenceField:
    """Pool retained proposals of every frame into a ConfidenceField."""
    by_frame = {}
    for p in proposals:
        by_frame.setdefault(p.frame, []).append(p)
    values = []
    for t in range(sp.frame_count):
        frame_vals, _ = pool_frame(
            by_frame.get(t, []), class_id, sp.labels[t], sp.counts[t]
        )
        values.append(frame_vals)
    return ConfidenceField(class_id, values)


def load_proposal_manifest(path, frame_count, shape):
    """Load a JSON-lines proposal manifest; mask paths resolve against it.

    Each line: {"frame": int, "mask": "rel/path.pgm", "appearance": float,
    "confidences": {"class": float}}. The frame must lie in 0..frame_count-1
    and the mask must be of (H, W) shape.
    """
    base = os.path.dirname(os.path.abspath(path))
    proposals = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                frame = int(rec["frame"])
                mask_rel = rec["mask"]
                appearance = float(rec["appearance"])
                confidences = {
                    check_id("class", str(k)): float(v) for k, v in rec["confidences"].items()
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"malformed manifest line {lineno}: {exc}") from exc
            if not 0 <= frame < frame_count:
                raise DataError(f"proposal frame {frame} out of range on manifest line {lineno}")
            for cls, conf in confidences.items():
                if not 0.0 <= conf <= 1.0:
                    raise DataError(
                        f"confidence out of range on line {lineno}: {cls}={conf}"
                    )
            mask_path = os.path.join(base, mask_rel)
            if not os.path.exists(mask_path):
                raise DataError(f"missing mask file: {mask_path}")
            proposals.append(
                ScoredProposal(
                    frame=frame,
                    mask=load_mask(mask_path, shape),
                    appearance_score=appearance,
                    class_confidences=confidences,
                )
            )
    return proposals
