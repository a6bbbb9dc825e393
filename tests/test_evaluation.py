import numpy as np
import pytest

from vidseg.evaluation import (
    EvalReport,
    frame_counts,
    mask_scores,
    render_overlay,
)
from vidseg.pnm import DataError, read_pnm
from vidseg.video import VideoVolume


def _mask1d(width, lo, hi):
    m = np.zeros((1, width), dtype=bool)
    m[0, lo:hi] = True
    return m


def test_iou_perfect():
    gt = [_mask1d(10, 2, 8)]
    assert mask_scores(gt, gt)[0] == 1.0


def test_iou_disjoint():
    assert mask_scores([_mask1d(10, 0, 3)], [_mask1d(10, 5, 8)])[0] == 0.0


def test_iou_one_third():
    pred = [_mask1d(200, 50, 150)]
    gt = [_mask1d(200, 0, 100)]
    assert mask_scores(pred, gt)[0] == pytest.approx(1 / 3)


def test_iou_both_empty_is_one():
    empty = [np.zeros((2, 2), dtype=bool)]
    assert mask_scores(empty, empty) == (1.0, 1.0, 0.0)


def test_iou_annotated_subset():
    pred = [_mask1d(10, 0, 5), _mask1d(10, 0, 5)]
    gt = [_mask1d(10, 0, 5), _mask1d(10, 5, 10)]
    assert mask_scores(pred, gt, annotated=[0])[0] == 1.0
    assert mask_scores(pred, gt, annotated=[1])[0] == 0.0


def test_iou_dimension_mismatch():
    with pytest.raises(DataError, match=r"differ in frame 0: \(1, 10\) and \(1, 8\)$"):
        mask_scores([_mask1d(10, 0, 5)], [_mask1d(8, 0, 5)])


def test_pixel_error_values():
    gt = [_mask1d(20, 0, 10), _mask1d(20, 0, 10)]
    assert mask_scores(gt, gt)[2] == 0.0
    pred = [_mask1d(20, 0, 16), _mask1d(20, 0, 14)]  # 6 + 4 wrong pixels
    assert mask_scores(pred, gt)[2] == 5.0
    assert frame_counts(pred, gt)[:, 2].tolist() == [6, 4]
    inv = [~np.zeros((4, 4), dtype=bool)]
    assert mask_scores(inv, [np.zeros((4, 4), dtype=bool)])[2] == 16.0


def test_metrics_symmetric(rng):
    a = [rng.random((5, 5)) < 0.5]
    b = [rng.random((5, 5)) < 0.5]
    assert mask_scores(a, b) == mask_scores(b, a)


def test_iou_one_iff_zero_error(rng):
    for _ in range(10):
        a = [rng.random((4, 6)) < 0.5]
        b = [rng.random((4, 6)) < 0.5]
        micro, _, error = mask_scores(a, b)
        assert (micro == 1.0) == (error == 0.0)


def test_iou_monotone_in_correct_pixels():
    gt = [_mask1d(10, 0, 6)]
    worse = [_mask1d(10, 0, 4)]
    better = [_mask1d(10, 0, 5)]
    assert mask_scores(better, gt)[0] > mask_scores(worse, gt)[0]


def test_render_overlay_empty_equals_source(tmp_path, rng):
    frames = rng.integers(0, 255, size=(2, 4, 4, 3)).astype(np.uint8)
    video = VideoVolume(frames)
    masks = np.zeros((2, 4, 4), dtype=bool)
    render_overlay(video, masks, tmp_path / "ov")
    for t in range(2):
        assert np.array_equal(read_pnm(tmp_path / "ov" / f"frame_{t:04d}.ppm"), frames[t])


def test_render_overlay_blends_and_is_deterministic(tmp_path):
    frames = np.full((1, 2, 2, 3), 100, dtype=np.uint8)
    video = VideoVolume(frames)
    masks = np.ones((1, 2, 2), dtype=bool)
    render_overlay(video, masks, tmp_path / "a")
    render_overlay(video, masks, tmp_path / "b")
    p1, p2 = tmp_path / "a" / "frame_0000.ppm", tmp_path / "b" / "frame_0000.ppm"
    img = read_pnm(p1)
    assert np.all(img == [(100 + 255) // 2, (100 + 64) // 2, (100 + 64) // 2])
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_report_csv(tmp_path):
    report = EvalReport()
    report.add("vid0", "cat", 0.1, 1 / 3, 12.5)
    report.add("vid0", "dog", 1.0, 0.0, 3)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    assert path.read_bytes() == (
        b"video,class,iou_micro,iou_macro,mean_pixel_error\n"
        b"vid0,cat,0.10000000000000001,0.33333333333333331,12.5\n"
        b"vid0,dog,1,0,3\n"
        b"mean,,0.55000000000000004,0.16666666666666666,7.75\n"
    )
