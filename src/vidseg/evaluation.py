"""Segmentation metrics and report/overlay output."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .pnm import DataError, write_file, write_ppm

OVERLAY_COLOR = (255, 64, 64)
COLUMNS = ("video", "class", "iou_micro", "iou_macro", "mean_pixel_error")  # of report.csv


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)  # dicts keyed by COLUMNS

    def add(self, video_id, class_id, iou_micro, iou_macro, mean_pixel_error):
        values = (video_id, class_id, iou_micro, iou_macro, mean_pixel_error)
        self.rows.append(dict(zip(COLUMNS, values)))

    def summary(self):
        """Mean of each score over the rows; a report with no rows has no summary."""
        return {key: float(np.mean([r[key] for r in self.rows])) for key in COLUMNS[2:]}

    def write_csv(self, path):
        """The header, a row per scored class and, if there is one, their mean."""
        rows = [tuple(r[c] for c in COLUMNS) for r in self.rows]
        if rows:
            rows.append(("mean", "", *self.summary().values()))
        lines = ("%s,%s,%.17g,%.17g,%.17g\n" % row for row in rows)
        write_file(path, [",".join(COLUMNS) + "\n", *lines])


def frame_counts(pred_masks, gt_masks, annotated=None):
    """(F, 3) pixel counts |pred & gt|, |pred | gt|, |pred ^ gt| per annotated frame."""
    if annotated is None:
        annotated = range(len(gt_masks))
    counts = []
    for t in annotated:
        pred = np.asarray(pred_masks[t], dtype=bool)
        gt = np.asarray(gt_masks[t], dtype=bool)
        if pred.shape != gt.shape:
            raise DataError(f"prediction and ground-truth dimensions differ in frame {t}: "
                            f"{pred.shape} and {gt.shape}")
        counts.append(
            [np.count_nonzero(pred & gt), np.count_nonzero(pred | gt), np.count_nonzero(pred ^ gt)]
        )
    return np.array(counts, dtype=np.int64).reshape(-1, 3)


def mask_scores(pred_masks, gt_masks, annotated=None):
    """(micro IoU, macro IoU, mean pixel error) of the masks over the annotated frames.

    Micro IoU is sum |pred & gt| / sum |pred | gt|, macro IoU the mean
    per-frame IoU, and the pixel error the mean count of wrong pixels per
    frame. A frame empty in both counts as IoU 1; no frames give (1, 1, 0).
    """
    inter, union, error = frame_counts(pred_masks, gt_masks, annotated).T
    micro = 1.0 if union.sum() == 0 else float(inter.sum() / union.sum())
    per_frame = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    macro = float(np.mean(per_frame)) if len(union) else 1.0
    mean_error = float(np.mean(error)) if len(union) else 0.0
    return micro, macro, mean_error


def score_masks(video_id, masks, gt_masks):
    """EvalReport with one row per class of `masks` on the annotated frames.

    masks: class -> per-frame predicted masks; gt_masks: frame -> mask.
    """
    report = EvalReport()
    annotated = sorted(gt_masks)
    for cls, pred in sorted(masks.items()):
        report.add(video_id, cls, *mask_scores(pred, gt_masks, annotated))
    return report


def render_overlay(frames, masks, out_dir):
    """Write a PPM overlay per frame of frames, object pixels 50% blended in OVERLAY_COLOR.

    Integer blending ((frame + color) // 2) keeps the output bytes
    deterministic.
    """
    color = np.asarray(OVERLAY_COLOR, dtype=np.uint16)
    for t, frame in enumerate(frames):
        mask = np.asarray(masks[t], dtype=bool)
        blended = frame.copy()
        blended[mask] = (frame[mask] + color) // 2  # in uint16; the halves fit in uint8
        write_ppm(os.path.join(out_dir, f"frame_{t:04d}.ppm"), blended)
