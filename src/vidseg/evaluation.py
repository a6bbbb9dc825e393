"""Segmentation metrics and report/overlay output."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .pnm import write_ppm
from .video import DataError

OVERLAY_COLOR = (255, 64, 64)


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)  # dicts: video, class, metrics

    def add(self, video_id, class_id, iou_micro, iou_macro, mean_pixel_error):
        self.rows.append(
            {
                "video": video_id,
                "class": class_id,
                "iou_micro": iou_micro,
                "iou_macro": iou_macro,
                "mean_pixel_error": mean_pixel_error,
            }
        )

    def summary(self):
        if not self.rows:
            return {"iou_micro": 0.0, "iou_macro": 0.0, "mean_pixel_error": 0.0}
        return {
            key: float(np.mean([r[key] for r in self.rows]))
            for key in ("iou_micro", "iou_macro", "mean_pixel_error")
        }

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("video,class,iou_micro,iou_macro,mean_pixel_error\n")
            for r in self.rows:
                fh.write(
                    f"{r['video']},{r['class']},{r['iou_micro']:.17g},"
                    f"{r['iou_macro']:.17g},{r['mean_pixel_error']:.17g}\n"
                )
            s = self.summary()
            fh.write(
                f"mean,,{s['iou_micro']:.17g},{s['iou_macro']:.17g},"
                f"{s['mean_pixel_error']:.17g}\n"
            )


def frame_counts(pred_masks, gt_masks, annotated=None):
    """(F, 3) pixel counts |pred & gt|, |pred | gt|, |pred ^ gt| per annotated frame."""
    if annotated is None:
        annotated = range(len(gt_masks))
    counts = []
    for t in annotated:
        pred = np.asarray(pred_masks[t], dtype=bool)
        gt = np.asarray(gt_masks[t], dtype=bool)
        if pred.shape != gt.shape:
            raise DataError("prediction and ground-truth dimensions differ")
        counts.append(
            [np.count_nonzero(pred & gt), np.count_nonzero(pred | gt), np.count_nonzero(pred ^ gt)]
        )
    return np.array(counts, dtype=np.int64).reshape(-1, 3)


def _scores(counts):
    """Micro IoU, macro IoU and mean pixel error of frame_counts rows; (1, 1, 0) if none."""
    inter, union, error = counts.T
    micro = 1.0 if union.sum() == 0 else float(inter.sum() / union.sum())
    per_frame = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    macro = float(np.mean(per_frame)) if len(counts) else 1.0
    mean_error = float(np.mean(error)) if len(counts) else 0.0
    return micro, macro, mean_error


def iou(pred_masks, gt_masks, annotated=None):
    """Micro intersection-over-union over the annotated frames.

    IoU = sum |pred & gt| / sum |pred | gt|; if every annotated frame is
    empty in both, the ratio is defined as 1.
    """
    return _scores(frame_counts(pred_masks, gt_masks, annotated))[0]


def iou_macro(pred_masks, gt_masks, annotated=None):
    """Mean of per-frame IoU over the annotated frames (empty-empty frame = 1)."""
    return _scores(frame_counts(pred_masks, gt_masks, annotated))[1]


def pixel_error(pred_masks, gt_masks, annotated=None):
    """Mean count of incorrect pixels per annotated frame."""
    return _scores(frame_counts(pred_masks, gt_masks, annotated))[2]


def score_masks(video_id, masks, gt_masks):
    """EvalReport with one row per class of `masks` on the annotated frames.

    masks: class -> per-frame predicted masks; gt_masks: frame -> mask.
    """
    report = EvalReport()
    annotated = sorted(gt_masks)
    for cls, pred in sorted(masks.items()):
        report.add(video_id, cls, *_scores(frame_counts(pred, gt_masks, annotated)))
    return report


def render_overlay(video, masks, out_dir, color=OVERLAY_COLOR):
    """Write per-frame PPM overlays with object pixels 50% blended in `color`.

    Integer blending ((frame + color) // 2) keeps the output bytes
    deterministic.
    """
    os.makedirs(out_dir, exist_ok=True)
    color_arr = np.asarray(color, dtype=np.uint16)
    paths = []
    for t in range(video.frame_count):
        frame = video.frames[t].astype(np.uint16)
        mask = np.asarray(masks[t], dtype=bool)
        blended = frame.copy()
        blended[mask] = (frame[mask] + color_arr) // 2
        path = os.path.join(out_dir, f"frame_{t:04d}.ppm")
        write_ppm(path, blended.astype(np.uint8))
        paths.append(path)
    return paths
