import numpy as np
import pytest

from vidseg.evaluation import (
    EvalReport,
    frame_counts,
    iou,
    iou_macro,
    pixel_error,
    render_overlay,
)
from vidseg.pnm import read_pnm
from vidseg.video import DataError, VideoVolume


def _mask1d(width, lo, hi):
    m = np.zeros((1, width), dtype=bool)
    m[0, lo:hi] = True
    return m


def test_iou_perfect():
    gt = [_mask1d(10, 2, 8)]
    assert iou(gt, gt) == 1.0


def test_iou_disjoint():
    assert iou([_mask1d(10, 0, 3)], [_mask1d(10, 5, 8)]) == 0.0


def test_iou_one_third():
    pred = [_mask1d(200, 50, 150)]
    gt = [_mask1d(200, 0, 100)]
    assert iou(pred, gt) == pytest.approx(1 / 3)


def test_iou_both_empty_is_one():
    empty = [np.zeros((2, 2), dtype=bool)]
    assert iou(empty, empty) == 1.0
    assert iou_macro(empty, empty) == 1.0


def test_iou_annotated_subset():
    pred = [_mask1d(10, 0, 5), _mask1d(10, 0, 5)]
    gt = [_mask1d(10, 0, 5), _mask1d(10, 5, 10)]
    assert iou(pred, gt, annotated=[0]) == 1.0
    assert iou(pred, gt, annotated=[1]) == 0.0


def test_iou_dimension_mismatch():
    with pytest.raises(DataError):
        iou([_mask1d(10, 0, 5)], [_mask1d(8, 0, 5)])


def test_pixel_error_values():
    gt = [_mask1d(20, 0, 10), _mask1d(20, 0, 10)]
    assert pixel_error(gt, gt) == 0.0
    pred = [_mask1d(20, 0, 16), _mask1d(20, 0, 14)]  # 6 + 4 wrong pixels
    assert pixel_error(pred, gt) == 5.0
    assert frame_counts(pred, gt)[:, 2].tolist() == [6, 4]
    inv = [~np.zeros((4, 4), dtype=bool)]
    assert pixel_error(inv, [np.zeros((4, 4), dtype=bool)]) == 16.0


def test_metrics_symmetric(rng):
    a = [rng.random((5, 5)) < 0.5]
    b = [rng.random((5, 5)) < 0.5]
    assert iou(a, b) == iou(b, a)
    assert pixel_error(a, b) == pixel_error(b, a)


def test_iou_one_iff_zero_error(rng):
    for _ in range(10):
        a = [rng.random((4, 6)) < 0.5]
        b = [rng.random((4, 6)) < 0.5]
        assert (iou(a, b) == 1.0) == (pixel_error(a, b) == 0.0)


def test_iou_monotone_in_correct_pixels():
    gt = [_mask1d(10, 0, 6)]
    worse = [_mask1d(10, 0, 4)]
    better = [_mask1d(10, 0, 5)]
    assert iou(better, gt) > iou(worse, gt)


def test_render_overlay_empty_equals_source(tmp_path, rng):
    frames = rng.integers(0, 255, size=(2, 4, 4, 3)).astype(np.uint8)
    video = VideoVolume(frames)
    masks = np.zeros((2, 4, 4), dtype=bool)
    paths = render_overlay(video, masks, tmp_path / "ov")
    for t, p in enumerate(paths):
        assert np.array_equal(read_pnm(p), frames[t])


def test_render_overlay_blends_and_is_deterministic(tmp_path):
    frames = np.full((1, 2, 2, 3), 100, dtype=np.uint8)
    video = VideoVolume(frames)
    masks = np.ones((1, 2, 2), dtype=bool)
    p1 = render_overlay(video, masks, tmp_path / "a", color=(255, 64, 64))[0]
    p2 = render_overlay(video, masks, tmp_path / "b", color=(255, 64, 64))[0]
    img = read_pnm(p1)
    assert np.all(img == [(100 + 255) // 2, (100 + 64) // 2, (100 + 64) // 2])
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_report_csv(tmp_path):
    report = EvalReport()
    report.add("vid0", "cat", 0.75, 0.8, 12.5)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "video,class,iou_micro,iou_macro,mean_pixel_error"
    assert lines[1].startswith("vid0,cat,0.75,")
    assert lines[2].startswith("mean,,0.75,")
