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

    def add(self, video_id, class_id, iou_micro, iou_macro, mean_pixel_error,
            frame_errors=None):
        self.rows.append(
            {
                "video": video_id,
                "class": class_id,
                "iou_micro": iou_micro,
                "iou_macro": iou_macro,
                "mean_pixel_error": mean_pixel_error,
                "frame_errors": list(frame_errors) if frame_errors is not None else None,
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


def _check_pair(pred, gt):
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise DataError("prediction and ground-truth dimensions differ")
    return pred, gt


def iou(pred_masks, gt_masks, annotated=None):
    """Micro intersection-over-union over the annotated frames.

    IoU = sum |pred & gt| / sum |pred | gt|; if every annotated frame is
    empty in both, the ratio is defined as 1.
    """
    if annotated is None:
        annotated = range(len(gt_masks))
    inter = union = 0
    for t in annotated:
        pred, gt = _check_pair(pred_masks[t], gt_masks[t])
        inter += int(np.count_nonzero(pred & gt))
        union += int(np.count_nonzero(pred | gt))
    return 1.0 if union == 0 else inter / union


def iou_macro(pred_masks, gt_masks, annotated=None):
    """Mean of per-frame IoU over the annotated frames (empty-empty frame = 1)."""
    if annotated is None:
        annotated = range(len(gt_masks))
    scores = []
    for t in annotated:
        pred, gt = _check_pair(pred_masks[t], gt_masks[t])
        union = int(np.count_nonzero(pred | gt))
        inter = int(np.count_nonzero(pred & gt))
        scores.append(1.0 if union == 0 else inter / union)
    return float(np.mean(scores)) if scores else 1.0


def frame_pixel_errors(pred_masks, gt_masks, annotated=None):
    """Incorrect-pixel count per annotated frame."""
    if annotated is None:
        annotated = range(len(gt_masks))
    errors = []
    for t in annotated:
        pred, gt = _check_pair(pred_masks[t], gt_masks[t])
        errors.append(int(np.count_nonzero(pred ^ gt)))
    return errors


def pixel_error(pred_masks, gt_masks, annotated=None):
    """Mean count of incorrect pixels per annotated frame."""
    errors = frame_pixel_errors(pred_masks, gt_masks, annotated)
    return float(np.mean(errors)) if errors else 0.0


def score_masks(video_id, masks, gt_masks):
    """EvalReport with one row per class of `masks` on the annotated frames.

    masks: class -> per-frame predicted masks; gt_masks: frame -> mask.
    """
    report = EvalReport()
    annotated = sorted(gt_masks)
    for cls, pred in sorted(masks.items()):
        report.add(
            video_id,
            cls,
            iou(pred, gt_masks, annotated),
            iou_macro(pred, gt_masks, annotated),
            pixel_error(pred, gt_masks, annotated),
            frame_errors=frame_pixel_errors(pred, gt_masks, annotated),
        )
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
