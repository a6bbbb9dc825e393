import json

import numpy as np
import pytest

from vidseg.pnm import DataError, write_pgm
from vidseg.proposals import (
    ScoredProposal,
    context_score,
    filter_by_confidence,
    load_proposal_manifest,
    normalize_and_combine,
    pool_frame,
)


def _mask(shape, coords):
    m = np.zeros(shape, dtype=bool)
    for y, x in coords:
        m[y, x] = True
    return m


def test_context_score_half_overlap():
    mask = _mask((2, 4), [(0, 0), (0, 1), (0, 2), (0, 3)])
    motion = _mask((2, 4), [(0, 0), (0, 1)])
    assert context_score(mask, motion) == 1.0  # 0.5 * 2


def test_context_score_zero_overlap():
    mask = _mask((2, 2), [(0, 0)])
    motion = _mask((2, 2), [(1, 1)])
    assert context_score(mask, motion) == 0.0


def test_context_score_full_overlap():
    mask = np.ones((3, 3), dtype=bool)
    assert context_score(mask, np.ones((3, 3), dtype=bool)) == 9.0


def test_context_score_empty_proposal():
    with pytest.raises(DataError, match="empty proposal"):
        context_score(np.zeros((2, 2), dtype=bool), np.ones((2, 2), dtype=bool))


def test_context_score_rejects_masks_of_other_shapes():
    with pytest.raises(DataError, match="proposal and motion mask dimensions differ"):
        context_score(np.ones((2, 2), dtype=bool), np.ones((2, 3), dtype=bool))


def test_context_score_monotone_in_overlap(rng):
    mask = np.ones((4, 4), dtype=bool)
    prev = -1.0
    motion = np.zeros((4, 4), dtype=bool)
    for y, x in np.ndindex(4, 4):
        motion[y, x] = True
        score = context_score(mask, motion)
        assert score > prev
        prev = score


def _prop(appearance, context, frame=0, conf=None):
    return ScoredProposal(
        frame=frame,
        mask=np.ones((1, 1), dtype=bool),
        appearance_score=appearance,
        context_score=context,
        class_confidences=conf or {},
    )


def test_normalize_context_scores():
    out = normalize_and_combine([_prop(0.0, 0.0), _prop(0.0, 9.0)])
    assert [p.context_score for p in out] == [0.0, 1.0]


def test_normalize_all_zero_context():
    out = normalize_and_combine([_prop(1.0, 0.0), _prop(2.0, 0.0)])
    assert [p.context_score for p in out] == [0.0, 0.0]


def test_normalize_combined_example():
    out = normalize_and_combine([_prop(1.0, 0.0), _prop(1.0, 1.0)])
    assert [p.combined_score for p in out] == [0.5, 1.0]


def test_filter_by_confidence_strict():
    props = [_prop(1, 1, conf={"cat": c}) for c in (0.005, 0.02, 0.5)]
    assert len(filter_by_confidence(props, "cat", 0.01)) == 2
    assert len(filter_by_confidence(props, "cat", 0.0)) == 3
    assert filter_by_confidence(props, "cat", 0.9) == []


def test_filter_idempotent(rng):
    props = [_prop(1, 1, conf={"c": float(v)}) for v in rng.random(20)]
    once = filter_by_confidence(props, "c", 0.3)
    assert filter_by_confidence(once, "c", 0.3) == once


def _box_prop(shape, y0, y1, x0, x1, score, conf=1.0, frame=0):
    mask = np.zeros(shape, dtype=bool)
    mask[y0:y1, x0:x1] = True
    return ScoredProposal(
        frame=frame,
        mask=mask,
        appearance_score=score,
        combined_score=score,
        class_confidences={"c": conf},
    )


def test_pool_single_proposal_equals_mask():
    labels = np.arange(16, dtype=np.int32).reshape(4, 4)
    p = _box_prop((4, 4), 0, 2, 0, 2, score=0.5)
    values, pixel_map = pool_frame([p], "c", labels, 16)
    assert np.array_equal(pixel_map, p.mask.astype(float))
    assert np.array_equal(values, p.mask.astype(float).ravel())


def test_pool_two_proposal_overlap():
    labels = np.arange(12, dtype=np.int32).reshape(3, 4)
    a = _box_prop((3, 4), 0, 3, 0, 2, score=0.6)  # columns 0-1
    b = _box_prop((3, 4), 0, 3, 1, 3, score=0.4)  # columns 1-2
    _, pixel_map = pool_frame([a, b], "c", labels, 12)
    assert np.all(pixel_map[:, 1] == 1.0)
    assert np.all(pixel_map[:, 0] == 0.6)
    assert np.all(pixel_map[:, 2] == 0.4)
    assert np.all(pixel_map[:, 3] == 0.0)


def test_pool_empty_is_zero():
    labels = np.zeros((2, 2), dtype=np.int32)
    values, pixel_map = pool_frame([], "c", labels, 1)
    assert not pixel_map.any()
    assert not values.any()


def test_pool_scale_invariance(rng):
    labels = rng.integers(0, 4, size=(5, 5)).astype(np.int32)
    props = [
        _box_prop((5, 5), 0, 3, 0, 3, score=0.3),
        _box_prop((5, 5), 2, 5, 2, 5, score=0.9),
    ]
    scaled = [
        _box_prop((5, 5), 0, 3, 0, 3, score=0.3 * 7.5),
        _box_prop((5, 5), 2, 5, 2, 5, score=0.9 * 7.5),
    ]
    v1, m1 = pool_frame(props, "c", labels, 4)
    v2, m2 = pool_frame(scaled, "c", labels, 4)
    assert np.allclose(m1, m2, atol=1e-14)
    assert np.allclose(v1, v2, atol=1e-14)


def test_pool_pixel_value_at_most_one(rng):
    labels = np.zeros((6, 6), dtype=np.int32)
    props = [
        _box_prop((6, 6), 0, 4, 0, 4, score=float(rng.uniform(0.1, 1))),
        _box_prop((6, 6), 2, 6, 2, 6, score=float(rng.uniform(0.1, 1))),
        _box_prop((6, 6), 1, 5, 1, 5, score=float(rng.uniform(0.1, 1))),
    ]
    _, pixel_map = pool_frame(props, "c", labels, 1)
    assert pixel_map.max() <= 1.0 + 1e-15
    covered_by_all = props[0].mask & props[1].mask & props[2].mask
    assert np.all((pixel_map >= 1.0 - 1e-12) == covered_by_all)


def _write_manifest(tmp_path, lines, masks=("m0.pgm",)):
    for name in masks:
        write_pgm(tmp_path / name, np.full((2, 2), 255, dtype=np.uint8))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_manifest_round_trip(tmp_path):
    line = json.dumps(
        {"frame": 0, "mask": "m0.pgm", "appearance": 0.7, "confidences": {"cat": 0.3}}
    )
    props = load_proposal_manifest(_write_manifest(tmp_path, [line]), 1, (2, 2))
    assert len(props) == 1
    assert props[0].appearance_score == 0.7
    assert props[0].class_confidences == {"cat": 0.3}
    assert props[0].mask.all()


def test_manifest_confidence_out_of_range(tmp_path):
    line = json.dumps(
        {"frame": 0, "mask": "m0.pgm", "appearance": 0.7, "confidences": {"cat": 1.5}}
    )
    with pytest.raises(DataError, match="confidence out of range"):
        load_proposal_manifest(_write_manifest(tmp_path, [line]), 1, (2, 2))


def test_manifest_missing_mask(tmp_path):
    line = json.dumps(
        {"frame": 0, "mask": "gone.pgm", "appearance": 0.7, "confidences": {"cat": 0.3}}
    )
    with pytest.raises(DataError, match="gone.pgm"):
        load_proposal_manifest(_write_manifest(tmp_path, [line]), 1, (2, 2))


def test_manifest_malformed_line(tmp_path):
    with pytest.raises(DataError, match="line 1"):
        load_proposal_manifest(_write_manifest(tmp_path, ['{"frame": 0}']), 1, (2, 2))


@pytest.mark.parametrize("frame", [-1, 2])
def test_manifest_rejects_frame_out_of_range(tmp_path, frame):
    ok = json.dumps({"frame": 0, "mask": "m0.pgm", "appearance": 0.7, "confidences": {"c": 0.3}})
    bad = json.dumps(
        {"frame": frame, "mask": "m0.pgm", "appearance": 0.7, "confidences": {"c": 0.3}}
    )
    with pytest.raises(DataError, match=f"frame {frame} out of range on manifest line 2"):
        load_proposal_manifest(_write_manifest(tmp_path, [ok, bad]), 2, (2, 2))
