"""Region-proposal scoring, confidence filtering, and spatial average pooling.

Proposals arrive pre-scored for appearance; this module adds the motion
context score, normalizes per frame, gates on classifier confidence, and
pools the survivors into one node-indexed confidence array per class.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import zip_longest

import numpy as np

from .pnm import DataError
from .video import SuperpixelMap, check_id, load_mask

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
    """Per-superpixel confidence in [0, 1] for one class over all frames, by global node id."""

    class_id: str
    flat: np.ndarray  # (N,) float64
    counts: list | np.ndarray  # (F,) superpixels per frame, summing to N

    @property
    def values(self):
        """Per-frame views of flat."""
        return np.split(self.flat, np.cumsum(self.counts)[:-1])

    def check_counts(self, counts):
        """Raise DataError naming the first frame t that does not hold counts[t] values."""
        for t, (got, want) in enumerate(zip_longest(self.counts, counts, fillvalue=0)):
            if got != want:
                raise DataError(
                    f"class {self.class_id!r}: frame {t} has {got} confidence values "
                    f"for {want} superpixels"
                )


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
    flat, offsets = np.empty(sp.total_count), sp.frame_offsets()
    for t in range(sp.frame_count):
        rows = slice(offsets[t], offsets[t + 1])
        flat[rows], _ = pool_frame(by_frame.get(t, []), class_id, sp.labels[t], sp.counts[t])
    return ConfidenceField(class_id, flat, sp.counts)


def load_proposal_manifest(path, frame_count, shape):
    """Load a JSON-lines proposal manifest; mask paths resolve against it.

    Each line: {"frame": int, "mask": "rel/path.pgm", "appearance": float,
    "confidences": {"class": float}}. The frame must be a JSON integer in
    0..frame_count-1, the mask path a string, the appearance score and every
    confidence JSON numbers (not true, not "0.9"), the appearance finite and
    >= 0, and the mask of (H, W) shape.
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
                frame, mask_rel = rec["frame"], rec["mask"]
                if type(mask_rel) is not str:
                    raise TypeError(f"mask {mask_rel!r} is not a string")
                for value in [rec["appearance"], *rec["confidences"].values()]:
                    if type(value) not in (int, float):  # a JSON number: not true, not "0.9"
                        raise TypeError(f"{value!r} is not a JSON number")
                appearance = float(rec["appearance"])
                confidences = {
                    check_id("class", str(k)): float(v) for k, v in rec["confidences"].items()
                }
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise DataError(f"malformed manifest line {lineno}: {exc}") from exc
            if type(frame) is not int or not 0 <= frame < frame_count:  # not 1.9, not true
                raise DataError(f"proposal frame {frame!r} out of range on manifest line {lineno}")
            if not 0.0 <= appearance < math.inf:
                raise DataError(f"appearance {appearance} out of range on manifest line {lineno}")
            for cls, conf in confidences.items():
                if not 0.0 <= conf <= 1.0:
                    raise DataError(
                        f"confidence out of range on manifest line {lineno}: {cls}={conf}"
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
