import tracemalloc
import warnings

import numpy as np
import pytest

from vidseg.graph import spatial_edges, temporal_edges
from vidseg.mrf import Labeling, rasterize
from vidseg.pnm import DataError, write_pgm, write_ppm
from vidseg.synth import SynthConfig, generate
from vidseg.video import (
    SuperpixelMap,
    VideoVolume,
    compute_superpixel_stats,
    load_mask,
    load_superpixels,
    load_video,
    warp_pixels,
    write_mask,
)


def _write_frames(path, count=3, size=(8, 8), fmt="ppm"):
    path.mkdir(exist_ok=True)
    for t in range(count):
        img = np.full((size[1], size[0], 3), 40, dtype=np.uint8)
        if fmt == "ppm":
            write_ppm(path / f"frame_{t:04d}.ppm", img)
        else:
            write_pgm(path / f"frame_{t:04d}.pgm", img[:, :, 0])


def test_load_video_basic(tmp_path):
    _write_frames(tmp_path / "v", count=3)
    video = load_video(tmp_path / "v")
    assert video.frame_count == 3
    assert (video.width, video.height) == (8, 8)


def test_load_video_pgm_replicates_channels(tmp_path):
    _write_frames(tmp_path / "v", count=2, fmt="pgm")
    video = load_video(tmp_path / "v")
    assert video.frames.shape == (2, 8, 8, 3)
    assert np.all(video.frames[:, :, :, 0] == video.frames[:, :, :, 2])


def test_load_video_empty(tmp_path):
    (tmp_path / "v").mkdir()
    with pytest.raises(DataError, match="no frames"):
        load_video(tmp_path / "v")


def test_load_video_rejects_a_frame_order_manifest(tmp_path):
    # superpixels, flow and masks are read in file-name order, so frames are too
    d = tmp_path / "v"
    d.mkdir()
    for name, value in (("a.pgm", 1), ("b.pgm", 2)):
        write_pgm(d / name, np.full((4, 4), value, dtype=np.uint8))
    (d / "frames.txt").write_text("b.pgm\na.pgm\n")
    with pytest.raises(DataError, match="frames.txt"):
        load_video(d)


def test_load_video_dimension_mismatch(tmp_path):
    _write_frames(tmp_path / "v", count=1, size=(8, 8))
    img = np.zeros((16, 16, 3), dtype=np.uint8)
    write_ppm(tmp_path / "v" / "frame_9999.ppm", img)
    with pytest.raises(DataError, match="dimension mismatch"):
        load_video(tmp_path / "v")


def test_load_superpixels_remaps_labels(tmp_path):
    d = tmp_path / "sp"
    d.mkdir()
    write_pgm(d / "f0.pgm", np.array([[5, 5], [9, 9]], dtype=np.uint16))
    sp = load_superpixels(d, expected_frames=1)
    assert sp.counts == [2]
    assert np.array_equal(sp.labels[0], [[0, 0], [1, 1]])


def test_load_superpixels_count_mismatch(tmp_path):
    d = tmp_path / "sp"
    d.mkdir()
    for t in range(2):
        write_pgm(d / f"f{t}.pgm", np.zeros((2, 2), dtype=np.uint16))
    with pytest.raises(DataError, match="mismatch"):
        load_superpixels(d, expected_frames=3)


def test_remap_preserves_partition(tmp_path):
    d = tmp_path / "sp"
    d.mkdir()
    raw = np.array([[3, 3, 11], [11, 7, 7]], dtype=np.uint16)
    write_pgm(d / "f0.pgm", raw)
    sp = load_superpixels(d, expected_frames=1)
    # two pixels share a label before iff after
    for a in np.ndindex(raw.shape):
        for b in np.ndindex(raw.shape):
            assert (raw[a] == raw[b]) == (sp.labels[0][a] == sp.labels[0][b])


@pytest.mark.parametrize(
    "raw",
    [
        np.array([[7, 7, 200], [0, 255, 200], [31, 7, 0]], dtype=np.uint8),
        np.array([[65535, 3, 3], [40000, 65535, 9], [3, 1, 40000]], dtype=np.uint16),
    ],
)
def test_load_superpixels_remap_matches_unique(tmp_path, raw):
    d = tmp_path / "sp"
    d.mkdir()
    write_pgm(d / "f0.pgm", raw)
    write_pgm(d / "f1.pgm", raw[::-1].copy())
    sp = load_superpixels(d, expected_frames=2)
    assert sp.labels.dtype == np.uint16
    before = raw.copy()
    for t, frame in enumerate((raw, raw[::-1])):
        uniq, inverse = np.unique(frame, return_inverse=True)
        assert sp.counts[t] == uniq.size
        assert np.array_equal(sp.labels[t], inverse.reshape(frame.shape))
        # an array passed in directly is renumbered the same way, and left as it was
        direct = SuperpixelMap(frame[None])
        assert direct.labels.dtype == np.uint16 and direct.counts == [uniq.size]
        assert np.array_equal(direct.labels[0], sp.labels[t])
    assert np.array_equal(raw, before)


def _reference_spatial_pairs(labels):
    """Sorted distinct (min, max) label pairs of 4-neighbours, by int64 np.unique."""
    labels = labels.astype(np.int64)
    a = np.concatenate([labels[:, :-1].ravel(), labels[:-1].ravel()])
    b = np.concatenate([labels[:, 1:].ravel(), labels[1:].ravel()])
    differ = a != b
    return np.unique(np.stack([np.minimum(a, b)[differ], np.maximum(a, b)[differ]], 1), axis=0)


def _reference_temporal_pairs(src_labels, dst_labels, flow):
    """(source, target, overlap ratio) rows of temporal_edges, by int64 np.unique."""
    dest = warp_pixels(flow).ravel()
    valid = dest >= 0
    src = src_labels.astype(np.int64).ravel()[valid]
    union = np.unique(np.stack([src, dest[valid]], 1), axis=0)  # each landing pixel once
    warp_size = np.bincount(union[:, 0])
    pairs, counts = np.unique(np.stack([union[:, 0], dst_labels.astype(np.int64).ravel()[
        union[:, 1]]], 1), axis=0, return_counts=True)
    return pairs, counts / warp_size[pairs[:, 0]]


def test_a_frame_of_65536_ids_from_a_16_bit_pgm(tmp_path, rng):
    # 256x256 at 1 px per superpixel: every id a 16-bit PGM can hold, in random places
    d = tmp_path / "sp"
    d.mkdir()
    raw = [rng.permutation(65536).reshape(256, 256).astype(np.uint16) for _ in range(2)]
    for t, frame in enumerate(raw):
        write_pgm(d / f"f{t}.pgm", frame)
    sp = load_superpixels(d, expected_frames=2)
    assert sp.labels.dtype == np.uint16 and sp.counts == [65536, 65536]
    for t in range(2):  # every value is present, so the value-order renumbering keeps it
        assert np.array_equal(sp.labels[t], raw[t])
    si, sj = spatial_edges(sp)
    reference = np.concatenate([_reference_spatial_pairs(f) + 65536 * t for t, f in enumerate(raw)])
    assert np.array_equal(np.stack([si, sj], 1), reference)
    flow = rng.integers(-3, 4, size=(256, 256, 2)).astype(np.float32)
    ti, tj, rho = temporal_edges(sp, 0, flow)
    pairs, ratio = _reference_temporal_pairs(raw[0], raw[1], flow)
    assert np.array_equal(np.stack([ti, tj - 65536], 1), pairs)
    assert np.array_equal(rho, ratio)


@pytest.mark.parametrize("as_list", [False, True])
def test_superpixel_map_rejects_65537_ids_and_leaves_the_input(as_list):
    labels = np.stack([np.zeros((1, 65537), np.int64), np.arange(65537)[None]])
    before = labels.copy()
    with pytest.raises(DataError, match=r"65537 superpixels in a frame; .* \(frame 1\)"):
        SuperpixelMap(list(labels) if as_list else labels)
    assert np.array_equal(labels, before)


def test_superpixel_map_rejects_non_integer_labels():
    with pytest.raises(DataError, match="frame 0 has non-integer superpixel labels"):
        SuperpixelMap(np.zeros((1, 2, 2)))


def _video_of(frame_arrays):
    return VideoVolume(np.stack(frame_arrays))


def test_stats_uniform_frame():
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    frame[:, :, 0] = 255
    video = _video_of([frame])
    sp = SuperpixelMap(np.zeros((1, 8, 8), dtype=np.int32))
    mean_color, centroid = compute_superpixel_stats(video, sp)
    assert np.allclose(mean_color, [[255, 0, 0]])
    assert np.allclose(centroid, [[3.5, 3.5]])


def test_stats_mean_of_two_pixels():
    frame = np.array([[[0, 0, 0], [255, 255, 255]]], dtype=np.uint8)
    video = _video_of([frame])
    sp = SuperpixelMap(np.zeros((1, 1, 2), dtype=np.int32))
    mean_color, _ = compute_superpixel_stats(video, sp)
    assert np.allclose(mean_color, [[127.5, 127.5, 127.5]])


def test_stats_single_pixel_superpixels():
    frame = np.zeros((1, 2, 3), dtype=np.uint8)
    video = _video_of([frame])
    sp = SuperpixelMap(np.array([[[0, 1]]], dtype=np.int32))
    _, centroid = compute_superpixel_stats(video, sp)
    assert np.allclose(centroid, [[0, 0], [1, 0]])


def test_stats_match_brute_force_over_frames(rng):
    counts = [5, 3, 6]
    labels = np.stack([rng.integers(0, n, size=(9, 7)) for n in counts]).astype(np.int32)
    for t, n in enumerate(counts):
        labels[t, 0, :n] = np.arange(n)  # every label present
    frames = rng.integers(0, 256, size=(3, 9, 7, 3)).astype(np.uint8)
    mean_color, centroid = compute_superpixel_stats(VideoVolume(frames), SuperpixelMap(labels))
    assert mean_color.shape == (sum(counts), 3)
    node = 0
    for t, n in enumerate(counts):
        for s in range(n):
            ys, xs = np.nonzero(labels[t] == s)
            assert np.allclose(mean_color[node], frames[t, ys, xs].mean(axis=0))
            assert np.allclose(centroid[node], [xs.mean(), ys.mean()])
            node += 1


def _transient_bytes(fn, *args):
    """tracemalloc's peak during fn(*args), less what its result keeps alive."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841 -- alive while the memory is read
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - live


@pytest.mark.parametrize(
    "layer",
    [
        lambda ds: (compute_superpixel_stats, ds.video, ds.superpixels),
        lambda ds: (rasterize, Labeling(np.ones(ds.superpixels.total_count, bool)), ds.superpixels),
    ],
    ids=["compute_superpixel_stats", "rasterize"],
)
def test_ingest_transient_memory_does_not_grow_with_the_clip_pixels(layer):
    """Both layers work one frame at a time: 28 more frames add no per-pixel temporary."""
    transient = {}
    for frames in (4, 32):
        ds = generate(SynthConfig(frame_count=frames, cell_size=4))  # 128x128, 1024 nodes a frame
        transient[frames] = _transient_bytes(*layer(ds))
    added_pixels = 28 * 128 * 128
    # a float64 per node is 0.5 B a pixel here; a clip-sized int64 or float64 is 8
    assert (transient[32] - transient[4]) / added_pixels < 2.0, transient


def test_superpixel_map_rejects_a_negative_label():
    with pytest.raises(DataError, match="frame 1 has a negative superpixel label"):
        SuperpixelMap([[[0, 0], [0, 0]], [[0, -1], [0, 0]]])


@pytest.mark.parametrize(
    "frames, message",
    [
        (np.zeros((2, 4, 4), np.uint8), r"frames must have shape \(T, H, W, 3\)"),
        (np.zeros((0, 4, 4, 3), np.uint8), "no frames"),
    ],
    ids=["grey", "zero-frames"],
)
def test_video_volume_rejects_frames_it_cannot_hold(frames, message):
    with pytest.raises(DataError, match=message):
        VideoVolume(frames)


def test_superpixel_map_rejects_zero_frames():
    with pytest.raises(DataError, match="at least one frame"):
        SuperpixelMap(np.zeros((0, 4, 4), dtype=np.int32))


def test_write_mask_round_trips_through_load_mask(tmp_path, rng):
    mask = rng.random((5, 7)) < 0.5
    path = tmp_path / "mask.pgm"
    write_mask(path, mask)
    raster = np.where(mask, 255, 0).astype(np.uint8).tobytes()
    assert path.read_bytes() == b"P5\n7 5\n255\n" + raster
    back = load_mask(path, (5, 7))
    assert back.dtype == bool and np.array_equal(back, mask)


def test_warp_translation():
    flow = np.zeros((4, 4, 2))
    flow[..., 0] = 1.0
    assert warp_pixels(flow)[1, 1] == 1 * 4 + 2


def test_warp_clips_out_of_frame():
    flow = np.zeros((4, 4, 2))
    flow[..., 0] = 1.0
    assert warp_pixels(flow)[3, 3] == -1


def test_warp_union_semantics():
    flow = np.zeros((1, 3, 2))
    flow[0, 0, 0] = 1.0  # both land on x=1
    assert warp_pixels(flow)[0, :2].tolist() == [1, 1]


def test_warp_zero_flow_identity(rng):
    ys, xs = np.nonzero(rng.random((6, 5)) < 0.4)
    assert np.array_equal(warp_pixels(np.zeros((6, 5, 2)))[ys, xs], ys * 5 + xs)


def test_warp_far_off_flow_leaves_the_frame_without_warning():
    # up to float32's largest, the most any .flo holds: -1, and no cast out of int64 range
    flow = np.zeros((2, 3, 2), np.float32)
    flow[0, :, 0] = [1e30, -1e30, np.finfo(np.float32).max]
    flow[1, :, 1] = [1e30, -1e30, -np.finfo(np.float32).max]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dest = warp_pixels(flow)
    assert dest.dtype == np.int64
    assert dest.tolist() == [[-1, -1, -1], [-1, -1, -1]]
