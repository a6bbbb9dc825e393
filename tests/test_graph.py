import math

import numpy as np
import pytest

from conftest import graph_from_edges, random_graph
from vidseg.graph import (
    build_graph,
    color_distance,
    histogram_entropy,
    motion_noncoherence,
    spatial_affinity,
    spatial_edges,
    temporal_affinity,
    temporal_edges,
)
from vidseg.video import DataError, SuperpixelMap, VideoVolume

LN2 = 0.6931471805599453
LN32 = 3.4657359027997265


def _sp(label_frames):
    labels = np.stack([np.asarray(f, dtype=np.int32) for f in label_frames])
    counts = [int(f.max()) + 1 for f in labels]
    return SuperpixelMap(labels, counts)


def test_spatial_edges_two_halves():
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[:, 2:] = 1
    i, j = spatial_edges(_sp([labels]))
    assert list(zip(i, j)) == [(0, 1)]


def test_spatial_edges_grid_no_diagonals():
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[:2, 2:] = 1
    labels[2:, :2] = 2
    labels[2:, 2:] = 3
    i, j = spatial_edges(_sp([labels]))
    assert set(zip(i, j)) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_spatial_edges_single_superpixel():
    i, j = spatial_edges(_sp([np.zeros((3, 3), dtype=np.int32)]))
    assert len(i) == 0


def test_temporal_edges_overlap_ratio():
    # frame 0: superpixel 0 is a 10-px block, zero flow; frame 1 splits that
    # block 6/4 between two superpixels
    f0 = np.ones((4, 5), dtype=np.int32)
    f0[:2, :] = 0
    f1 = np.ones((4, 5), dtype=np.int32)
    f1[0, :] = 0
    f1[1, 0] = 0
    sp = _sp([f0, f1])
    flow = np.zeros((4, 5, 2))
    i, j, rho = temporal_edges(sp, [flow])
    offsets = sp.frame_offsets()
    pairs = {(int(a - offsets[0]), int(b - offsets[1])): r for a, b, r in zip(i, j, rho)}
    assert pairs[(0, 0)] == pytest.approx(0.6)
    assert pairs[(0, 1)] == pytest.approx(0.4)


def test_temporal_edges_identity_twins():
    labels = np.arange(4, dtype=np.int32).reshape(2, 2)
    sp = _sp([labels, labels])
    i, j, rho = temporal_edges(sp, [np.zeros((2, 2, 2))])
    offsets = sp.frame_offsets()
    assert np.array_equal(i - offsets[0], j - offsets[1])
    assert np.allclose(rho, 1.0)


def test_temporal_edges_warp_exits_frame():
    labels = np.zeros((2, 2), dtype=np.int32)
    labels[:, 1] = 1
    sp = _sp([labels, labels])
    flow = np.zeros((2, 2, 2))
    flow[:, 1, 0] = 5.0  # superpixel 1 leaves the frame
    i, j, rho = temporal_edges(sp, [flow])
    assert 1 not in set(i)  # no edges from node 1
    assert np.all(rho > 0) and np.all(rho <= 1.0)


def test_temporal_rho_sums_to_at_most_one(rng):
    labels0 = rng.integers(0, 6, size=(8, 8)).astype(np.int32)
    labels0[0, :6] = np.arange(6)
    labels1 = rng.integers(0, 6, size=(8, 8)).astype(np.int32)
    labels1[0, :6] = np.arange(6)
    sp = _sp([labels0, labels1])
    flow = rng.normal(0, 2, size=(8, 8, 2))
    i, j, rho = temporal_edges(sp, [flow])
    assert np.all(rho > 0) and np.all(rho <= 1.0 + 1e-12)
    for node in set(i):
        assert rho[i == node].sum() <= 1.0 + 1e-12


def test_color_distance_single_pair_self_normalizes():
    d = color_distance([0, 0, 0], [10, 0, 0], mean_sq=100.0)
    assert d == pytest.approx(0.5)


def test_color_distance_identical_colors():
    assert color_distance([5, 5, 5], [5, 5, 5], mean_sq=3.0) == 0.0


def test_color_distance_three_pairs():
    sq = np.array([1.0, 2.0, 3.0])
    mean = sq.mean()
    a = np.zeros((3, 3))
    b = np.stack([np.sqrt(sq), np.zeros(3), np.zeros(3)], axis=1)
    assert np.allclose(color_distance(a, b, mean), [0.25, 0.5, 0.75])


def test_spatial_affinity_values():
    assert spatial_affinity(0.0, 1.0) == 1.0
    assert spatial_affinity(0.5, 0.5) == pytest.approx(1.2130613194252668, abs=1e-12)
    assert spatial_affinity(0.0, 1e-9) == pytest.approx(1e6)  # clamped denominator


def test_temporal_affinity_values():
    assert temporal_affinity(0.0, 0.5, 1.0) == pytest.approx(2.0)
    assert temporal_affinity(0.0, 1.0, 1.0) == pytest.approx(1.0)
    assert temporal_affinity(LN2, 0.25, 0.25) == pytest.approx(0.5)


def test_motion_noncoherence_uniform_flow():
    flow = np.ones((4, 4, 2))
    pi, m = motion_noncoherence(np.ones((4, 4), dtype=bool), flow)
    assert pi == 0.0
    assert m == 1.0


def test_motion_noncoherence_two_bins():
    flow = np.zeros((2, 2, 2))
    flow[0, :, 0] = 1.0  # orientation 0, magnitude bin 1
    flow[1, :, 1] = 1.0  # orientation pi/2, same magnitude bin
    pi, m = motion_noncoherence(np.ones((2, 2), dtype=bool), flow)
    assert pi == pytest.approx(LN2, abs=1e-12)
    assert m == pytest.approx(0.25, abs=1e-12)


def test_motion_noncoherence_empty_superpixel():
    with pytest.raises(DataError, match="empty superpixel"):
        motion_noncoherence(np.zeros((2, 2), dtype=bool), np.zeros((2, 2, 2)))


def test_entropy_uniform_32_bins():
    assert histogram_entropy(np.ones(32)) == pytest.approx(LN32, abs=1e-12)


def test_entropy_row_wise():
    ent = histogram_entropy([[1, 1, 0], [0, 5, 0], [1, 1, 2]])
    assert np.allclose(ent, [LN2, 0.0, 1.5 * LN2], rtol=0, atol=1e-12)
    with pytest.raises(DataError, match="empty histogram"):
        histogram_entropy([[1, 1], [0, 0]])


def test_assemble_two_nodes():
    g = graph_from_edges(2, spatial=[(0, 1, 1.0)])
    assert np.allclose(g.degrees, [1.0, 1.0])
    assert np.allclose(g.operator.toarray(), [[0, 1], [1, 0]])


def test_assemble_isolated_node():
    g = graph_from_edges(3, spatial=[(0, 1, 1.0)])
    s = g.operator.toarray()
    assert np.all(s[2] == 0) and np.all(s[:, 2] == 0)
    assert g.degrees[2] == 0


def test_assemble_three_chain():
    g = graph_from_edges(3, spatial=[(0, 1, 1.0), (1, 2, 1.0)])
    s = g.operator.toarray()
    assert s[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert s[1, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_assemble_rejects_self_loops():
    with pytest.raises(DataError, match="self-loop"):
        graph_from_edges(2, spatial=[(0, 0, 1.0), (0, 1, 1.0)])
    with pytest.raises(DataError, match="self-loop"):
        graph_from_edges(2, spatial=[(0, 1, 1.0)], temporal=[(1, 1, 0.5)])


def test_assemble_rejects_bad_weights():
    with pytest.raises(DataError):
        graph_from_edges(2, spatial=[(0, 1, -1.0)])
    with pytest.raises(DataError):
        graph_from_edges(2, spatial=[(0, 1, float("inf"))])


def test_operator_exactly_symmetric(rng):
    for _ in range(10):
        g = random_graph(rng, max_nodes=40)
        diff = (g.operator - g.operator.T).tocoo()
        assert len(diff.data) == 0 or np.max(np.abs(diff.data)) == 0.0


def test_operator_spectrum_bounded(rng):
    for _ in range(10):
        g = random_graph(rng, max_nodes=30)
        eigvals = np.linalg.eigvalsh(g.operator.toarray())
        assert np.max(np.abs(eigvals)) <= 1.0 + 1e-10


def test_affinities_strictly_positive(rng):
    g = random_graph(rng, max_nodes=30)
    assert np.all(g.spatial_w > 0) and np.all(g.temporal_w > 0)


def _tiny_scene():
    frames = np.zeros((3, 8, 8, 3), dtype=np.uint8)
    frames[:, :, 4:] = 200
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[:, 4:] = 1
    labels2 = labels + 2 * (np.arange(8)[:, None] >= 4)
    sp = _sp([labels2, labels2, labels2])
    flows = [np.zeros((8, 8, 2), dtype=np.float32)] * 2
    return VideoVolume(frames), sp, flows


def test_build_graph_deterministic():
    video, sp, flows = _tiny_scene()
    g1 = build_graph(video, sp, flows)
    g2 = build_graph(video, sp, flows)
    assert np.array_equal(g1.spatial_i, g2.spatial_i)
    assert np.array_equal(g1.spatial_w, g2.spatial_w)
    assert np.array_equal(g1.temporal_w, g2.temporal_w)
    assert np.array_equal(g1.operator.toarray(), g2.operator.toarray())


def test_build_graph_dump_csv(tmp_path):
    video, sp, flows = _tiny_scene()
    g = build_graph(video, sp, flows)
    path = tmp_path / "graph.csv"
    g.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,frame_i,sp_i,frame_j,sp_j,weight"
    assert len(lines) == 1 + len(g.spatial_i) + len(g.temporal_i)


def test_build_graph_operator_has_zero_diagonal():
    video, sp, flows = _tiny_scene()
    g = build_graph(video, sp, flows)
    assert len(g.temporal_i) and np.all(g.operator.diagonal() == 0.0)
