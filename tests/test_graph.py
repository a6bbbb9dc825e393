import math
import warnings
import weakref

import numpy as np
import pytest

from conftest import graph_from_edges, random_graph
from oracles import degrees, dense_operator
from vidseg.graph import (
    MAGNITUDE_EDGES,
    assemble,
    build_graph,
    color_distance,
    flow_bin_index,
    histogram_entropy,
    motion_reliability,
    spatial_affinity,
    spatial_edges,
    temporal_affinity,
    temporal_edges,
)
from vidseg.mrf import pairwise_weights
from vidseg.pnm import DataError
from vidseg.propagation import diffusion_operator
from vidseg.synth import SynthConfig, generate
from vidseg.video import SuperpixelMap, compute_superpixel_stats

LN2 = 0.6931471805599453
LN32 = 3.4657359027997265


def _sp(label_frames):
    return SuperpixelMap(label_frames)


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
    i, j, rho = temporal_edges(sp, 0, flow)
    offsets = sp.frame_offsets()
    pairs = {(int(a - offsets[0]), int(b - offsets[1])): r for a, b, r in zip(i, j, rho)}
    assert pairs[(0, 0)] == pytest.approx(0.6)
    assert pairs[(0, 1)] == pytest.approx(0.4)


def test_temporal_edges_identity_twins():
    labels = np.arange(4, dtype=np.int32).reshape(2, 2)
    sp = _sp([labels, labels])
    i, j, rho = temporal_edges(sp, 0, np.zeros((2, 2, 2)))
    offsets = sp.frame_offsets()
    assert np.array_equal(i - offsets[0], j - offsets[1])
    assert np.allclose(rho, 1.0)


def test_temporal_edges_warp_exits_frame():
    labels = np.zeros((2, 2), dtype=np.int32)
    labels[:, 1] = 1
    sp = _sp([labels, labels])
    flow = np.zeros((2, 2, 2))
    flow[:, 1, 0] = 5.0  # superpixel 1 leaves the frame
    i, j, rho = temporal_edges(sp, 0, flow)
    assert 1 not in set(i)  # no edges from node 1
    assert np.all(rho > 0) and np.all(rho <= 1.0)


def test_temporal_rho_sums_to_at_most_one(rng):
    labels0 = rng.integers(0, 6, size=(8, 8)).astype(np.int32)
    labels0[0, :6] = np.arange(6)
    labels1 = rng.integers(0, 6, size=(8, 8)).astype(np.int32)
    labels1[0, :6] = np.arange(6)
    sp = _sp([labels0, labels1])
    flow = rng.normal(0, 2, size=(8, 8, 2))
    i, j, rho = temporal_edges(sp, 0, flow)
    assert np.all(rho > 0) and np.all(rho <= 1.0 + 1e-12)
    for node in set(i):
        assert rho[i == node].sum() <= 1.0 + 1e-12


def _edges_oracle(labels, counts, flows):
    """Spatial and temporal edges by pixel loops over Python sets and dicts."""
    offsets = [0]
    for n in counts:
        offsets.append(offsets[-1] + n)
    frames, height, width = labels.shape
    spatial = set()
    for t in range(frames):
        for y in range(height):
            for x in range(width):
                for ny, nx in ((y, x + 1), (y + 1, x)):
                    if ny < height and nx < width and labels[t, y, x] != labels[t, ny, nx]:
                        a, b = sorted((int(labels[t, y, x]), int(labels[t, ny, nx])))
                        spatial.add((a + offsets[t], b + offsets[t]))
    temporal, exits, collisions = [], 0, 0
    for t in range(1, frames):
        warped = {}
        for y in range(height):
            for x in range(width):
                dx, dy = flows[t - 1][y, x]
                ty, tx = math.floor(y + dy + 0.5), math.floor(x + dx + 0.5)
                if not (0 <= ty < height and 0 <= tx < width):
                    exits += 1
                    continue
                dest = warped.setdefault(int(labels[t - 1, y, x]), set())
                collisions += (ty, tx) in dest
                dest.add((ty, tx))
        for src in sorted(warped):
            overlap = {}
            for ty, tx in warped[src]:
                dst = int(labels[t, ty, tx])
                overlap[dst] = overlap.get(dst, 0) + 1
            for dst in sorted(overlap):
                rho = overlap[dst] / len(warped[src])
                temporal.append((src + offsets[t - 1], dst + offsets[t], rho))
    i, j = (np.array(v, dtype=np.int64) for v in zip(*sorted(spatial)))
    ti, tj, rho = zip(*temporal)
    expected_t = (np.array(ti, np.int64), np.array(tj, np.int64), np.array(rho, np.float64))
    return (i, j), expected_t, exits, collisions


def test_edges_match_set_oracle():
    rng = np.random.default_rng(8)
    counts = [5, 11, 3]
    frames = []
    for n in counts:
        f = rng.integers(0, n, size=(9, 13)).astype(np.int32)
        f.ravel()[:n] = np.arange(n)
        frames.append(f)
    sp = SuperpixelMap(np.stack(frames))
    assert sp.counts == counts
    flows = [rng.normal(0.0, 2.5, size=(9, 13, 2)) for _ in range(2)]
    expected_s, expected_t, exits, collisions = _edges_oracle(sp.labels, counts, flows)
    assert exits > 0 and collisions > 0
    temporal = [temporal_edges(sp, t, flow) for t, flow in enumerate(flows)]
    got_all = (*spatial_edges(sp), *(np.concatenate(column) for column in zip(*temporal)))
    for got, want in zip(got_all, (*expected_s, *expected_t)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_color_distance_single_pair_self_normalizes():
    d = color_distance([[0, 0, 0], [10, 0, 0]], [0], [1])
    assert d == pytest.approx([0.5])


def test_color_distance_identical_colors():
    assert color_distance([[5, 5, 5], [5, 5, 5]], [0], [1]).tolist() == [0.0]


def test_color_distance_three_pairs():
    sq = np.array([1.0, 2.0, 3.0])
    colors = np.zeros((4, 3))
    colors[1:, 0] = np.sqrt(sq)
    assert np.allclose(color_distance(colors, [0, 0, 0], [1, 2, 3]), [0.25, 0.5, 0.75])


def test_color_distance_equals_the_row_sum_bit_for_bit(rng):
    colors = rng.uniform(0.0, 255.0, size=(50, 3))
    i, j = rng.integers(0, 50, size=(2, 400))
    sq = np.sum((colors[i] - colors[j]) ** 2, axis=-1)  # (m, 3) gathers, summed per row
    assert np.array_equal(color_distance(colors, i, j), sq / (2.0 * (sq.sum() / sq.size)))


def test_spatial_affinity_values():
    assert spatial_affinity(0.0, 1.0) == 1.0
    assert spatial_affinity(0.5, 0.5) == pytest.approx(1.2130613194252668, abs=1e-12)
    assert spatial_affinity(0.0, 1e-9) == pytest.approx(1e6)  # clamped denominator


def test_temporal_affinity_values():
    assert temporal_affinity(0.0, 0.5, 1.0) == pytest.approx(2.0)
    assert temporal_affinity(0.0, 1.0, 1.0) == pytest.approx(1.0)
    assert temporal_affinity(LN2, 0.25, 0.25) == pytest.approx(0.5)


def _one_superpixel(size):
    """One frame of one superpixel."""
    return SuperpixelMap(np.zeros((1, size, size), dtype=np.int32))


def test_motion_noncoherence_uniform_flow():
    flow = np.ones((4, 4, 2))
    pi = -math.log(motion_reliability(_one_superpixel(4), 0, flow, w_c=1.0)[0])
    m = motion_reliability(_one_superpixel(4), 0, flow)
    assert pi == 0.0
    assert m.tolist() == [1.0]


def test_motion_noncoherence_two_bins():
    flow = np.zeros((2, 2, 2))
    flow[0, :, 0] = 1.0  # orientation 0, magnitude bin 1
    flow[1, :, 1] = 1.0  # orientation pi/2, same magnitude bin
    pi = -math.log(motion_reliability(_one_superpixel(2), 0, flow, w_c=1.0)[0])
    m = motion_reliability(_one_superpixel(2), 0, flow)
    assert pi == pytest.approx(LN2, abs=1e-12)
    assert m.tolist() == [pytest.approx(0.25, abs=1e-12)]


def _flow_bins_by_formula(vectors):
    """8 orientation x 4 magnitude bins, written out with digitize and arctan2."""
    v = np.asarray(vectors, dtype=np.float64)
    mag_bin = np.digitize(np.hypot(v[..., 0], v[..., 1]), MAGNITUDE_EDGES)
    angle = np.arctan2(v[..., 1], v[..., 0])
    orient = np.floor((angle + np.pi) / (2.0 * np.pi / 8) + 0.5).astype(np.int64) % 8
    return np.where(mag_bin == 0, 0, mag_bin * 8 + orient)


def _entropy_by_formula(hist):
    """Row entropies in nats, written out with np.where over every bin."""
    h = np.asarray(hist, dtype=np.float64)
    p = h / h.sum(axis=-1, keepdims=True)
    return -np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0), axis=-1) + 0.0


def test_flow_bin_index_matches_formula_on_axes_edges_and_random(rng):
    # exact axes and diagonals sit at orientation-bin centres, midway between two edges
    units = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    axes = [(c * ux, c * uy) for c in (0.25, 0.5, 1, 2, 3, 8, 10) for ux, uy in units]
    below = [np.nextafter(edge, 0.0) for edge in MAGNITUDE_EDGES]
    edges = [
        (sx * e, 0.0) if axis == 0 else (0.0, sx * e)
        for e in (*MAGNITUDE_EDGES, *below)
        for sx in (1, -1)
        for axis in (0, 1)
    ]
    fixed = np.array([*axes, *edges, (0, 0), (-0.0, -1.0), (0.0, -0.0)], dtype=np.float64)
    normal = rng.normal(0.0, 4.0, size=(10_000, 2)).astype(np.float32)
    integer = rng.integers(-12, 13, size=(10_000, 2)).astype(np.float32)
    for vectors in (fixed, fixed.astype(np.float32), normal, integer, integer.reshape(100, 100, 2)):
        got = flow_bin_index(vectors)
        assert got.dtype == np.int64 and got.shape == vectors.shape[:-1]
        assert np.array_equal(got, _flow_bins_by_formula(vectors))
    assert flow_bin_index(np.array([[1, 1], [-1, 0], [0.0, 0.0], [8, -8]])).tolist() == [
        13, 8, 0, 27,
    ]
    assert [flow_bin_index([e, 0.0]) // 8 for e in (*below, *MAGNITUDE_EDGES)] == [0, 1, 2, 1, 2, 3]


def test_motion_reliability_matches_full_histogram_oracle(rng):
    """Static, one-, two- and many-bin superpixels against the entropy of all 32 bins."""
    height, width, n, w_c = 18, 20, 12, 1.7
    labels = np.stack([rng.permutation(np.arange(height * width) % n).reshape(height, width)
                       for _ in range(3)])
    sp = SuperpixelMap(labels)
    flows = []
    for t in range(2):
        per_label = rng.uniform(1.0, 6.0, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
        per_label[:4] = 0.0  # labels 0..3 static: bin 0 only
        flow = per_label[labels[t]]  # labels 4..6: one vector each, so one bin
        flow[(labels[t] >= 7) & (labels[t] <= 8) & (rng.random((height, width)) < 0.5)] = 0.0
        many = labels[t] >= 9
        flow[many] = rng.normal(0.0, 4.0, size=(np.count_nonzero(many), 2))
        flows.append(flow.astype(np.float32))
    want = np.empty(2 * n)
    occupied = []
    for t, flow in enumerate(flows):
        hist = np.zeros((n, 32))
        np.add.at(hist, (labels[t].ravel(), _flow_bins_by_formula(flow).ravel()), 1)
        occupied.append(np.count_nonzero(hist, axis=1))
        want[t * n : (t + 1) * n] = np.exp(-w_c * _entropy_by_formula(hist))
    occupied = np.concatenate(occupied)
    assert [np.count_nonzero(occupied == k) for k in (1, 2)] == [14, 4]
    assert (occupied > 2).sum() == 6
    got = np.concatenate([motion_reliability(sp, t, flow, w_c=w_c) for t, flow in enumerate(flows)])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.all(got[np.flatnonzero(occupied == 1)] == 1.0)
    static = np.zeros((height, width, 2), np.float32)
    assert all(motion_reliability(sp, t, static, w_c=w_c).tolist() == [1.0] * n for t in (0, 1))


@pytest.mark.parametrize("vectors, bins, m", [
    ([(1, 0), (1.5, 0.5)], [12, 12], 1.0),
    ([(-1, 0), (-1.5, 0.5)], [8, 8], 1.0),  # mirrored x
    ([(0, 1), (0.5, 1.5)], [14, 14], 1.0),  # transposed
], ids=["as-is", "mirrored", "transposed"])
def test_motion_reliability_of_a_vector_on_a_bin_boundary(vectors, bins, m):
    # The orientation bins are centred on the axes, so a flow along an axis
    # sits mid-bin: mirrored or transposed, a superpixel whose pixels move
    # along (1, 0) and (1.5, 0.5) still fills one bin, m = 1.
    sp = SuperpixelMap(np.zeros((2, 1, 2), np.int32))
    flow = np.array([vectors], np.float32)
    assert flow_bin_index(flow).ravel().tolist() == bins
    assert motion_reliability(sp, 0, flow).tolist() == [m]


def test_temporal_edges_collision_counts_a_shared_pixel_once():
    # frame 0: superpixel 0 = x 0..2, superpixel 1 = x 3..4. Pixels 0 and 1
    # (superpixel 0) and pixel 3 (superpixel 1) all land on x = 3.
    sp = SuperpixelMap(np.array([[[0, 0, 0, 1, 1]], [[0, 0, 0, 1, 2]]], np.int32))
    flow = np.zeros((1, 5, 2), np.float32)
    flow[0, :2, 0] = [3, 2]
    i, j, rho = temporal_edges(sp, 0, flow)
    # superpixel 0 covers {2, 3}: warp size 2, not 3
    assert (i.dtype, j.dtype, rho.dtype) == (np.int64, np.int64, np.float64)
    assert i.tolist() == [0, 0, 1, 1]
    assert j.tolist() == [2, 3, 3, 4]
    assert rho.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_entropy_uniform_32_bins():
    assert histogram_entropy(np.ones(32)) == pytest.approx(LN32, abs=1e-12)


def test_entropy_matches_formula_bit_for_bit(rng):
    # sparse rows (one to a few occupied bins) and dense rows, as motion_reliability builds them
    hist = rng.integers(0, 20, size=(500, 32)) * (rng.random((500, 32)) < rng.random((500, 1)))
    hist[np.arange(500), rng.integers(0, 32, 500)] += 1
    hist[:50] = 0
    hist[:50, 7] = 16
    want = _entropy_by_formula(hist)
    assert histogram_entropy(hist).tobytes() == want.tobytes()
    assert np.all(want[:50] == 0.0) and not np.signbit(want).any()


def test_entropy_row_wise():
    ent = histogram_entropy([[1, 1, 0], [0, 5, 0], [1, 1, 2]])
    assert np.allclose(ent, [LN2, 0.0, 1.5 * LN2], rtol=0, atol=1e-12)
    with pytest.raises(DataError, match="empty histogram"):
        histogram_entropy([[1, 1], [0, 0]])


def test_assemble_two_nodes():
    g = graph_from_edges(2, spatial=[(0, 1, 1.0)])
    assert np.allclose(degrees(g), [1.0, 1.0])
    assert np.allclose(dense_operator(diffusion_operator(g)), [[0, 1], [1, 0]])


def test_assemble_isolated_node():
    g = graph_from_edges(3, spatial=[(0, 1, 1.0)])
    s = dense_operator(diffusion_operator(g))
    assert np.all(s[2] == 0) and np.all(s[:, 2] == 0)
    assert degrees(g)[2] == 0


def test_assemble_three_chain():
    g = graph_from_edges(3, spatial=[(0, 1, 1.0), (1, 2, 1.0)])
    s = dense_operator(diffusion_operator(g))
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


@pytest.mark.parametrize("i, j, w, n_spatial", [
    ([0, 1], [1], [1.0, 1.0], 1),  # one j short
    ([0], [1], [1.0, 2.0], 1),  # one weight too many
    ([0], [1], [1.0], 2),  # more spatial edges than edges
    ([0], [1], [1.0], -1),
])
def test_assemble_rejects_a_malformed_edge_list(i, j, w, n_spatial):
    with pytest.raises(DataError, match="i, j and w of"):
        assemble([0, 2], i, j, w, n_spatial)


def test_assemble_sums_duplicate_pairs():
    # pair (0, 1) is listed three times, once reversed and once in the other pool
    g = graph_from_edges(3, spatial=[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 0.25)],
                         temporal=[(0, 1, 0.5)])
    assert degrees(g).tolist() == [3.5, 3.75, 0.25]
    s = dense_operator(diffusion_operator(g))
    assert np.array_equal(s, s.T)
    assert s[0, 1] == pytest.approx(3.5 / math.sqrt(3.5 * 3.75), rel=1e-15)


def test_operator_exactly_symmetric(rng):
    for _ in range(10):
        s = dense_operator(diffusion_operator(random_graph(rng, max_nodes=40)))
        assert np.array_equal(s, s.T)


def test_operator_spectrum_bounded(rng):
    for _ in range(10):
        g = random_graph(rng, max_nodes=30)
        eigvals = np.linalg.eigvalsh(dense_operator(diffusion_operator(g)))
        assert np.max(np.abs(eigvals)) <= 1.0 + 1e-10


def test_affinities_strictly_positive(rng):
    g = random_graph(rng, max_nodes=30)
    assert np.all(g.w > 0)


def _tiny_scene():
    frames = np.zeros((3, 8, 8, 3), dtype=np.uint8)
    frames[:, :, 4:] = 200
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[:, 4:] = 1
    labels2 = labels + 2 * (np.arange(8)[:, None] >= 4)
    sp = _sp([labels2, labels2, labels2])
    flows = [np.zeros((8, 8, 2), dtype=np.float32)] * 2
    return frames, sp, flows


def test_build_graph_deterministic():
    frames, sp, flows = _tiny_scene()
    g1 = build_graph(sp, flows, *compute_superpixel_stats(frames, sp))
    g2 = build_graph(sp, flows, *compute_superpixel_stats(frames, sp))
    assert g1.n_spatial == g2.n_spatial
    assert np.array_equal(g1.i, g2.i)
    assert np.array_equal(g1.w, g2.w)
    assert np.array_equal(dense_operator(diffusion_operator(g1)),
                          dense_operator(diffusion_operator(g2)))


def test_build_graph_dump_csv(tmp_path):
    frames, sp, flows = _tiny_scene()
    g = build_graph(sp, flows, *compute_superpixel_stats(frames, sp))
    path = tmp_path / "graph.csv"
    g.dump_csv(path)
    text = path.read_bytes().decode()
    assert text.endswith("\n") and "\r" not in text
    header, *rows = text[:-1].split("\n")
    assert header == "kind,frame_i,sp_i,frame_j,sp_j,weight"
    offsets, ns = g.frame_offsets.tolist(), g.n_spatial

    def local(node):
        frame = max(t for t in range(len(offsets) - 1) if offsets[t] <= node)
        return frame, node - offsets[frame]

    expected = [
        (kind, *local(i), *local(j), w)
        for kind, ii, jj, ww in (
            ("spatial", g.i[:ns], g.j[:ns], g.w[:ns]),
            ("temporal", g.i[ns:], g.j[ns:], g.w[ns:]),
        )
        for i, j, w in zip(ii.tolist(), jj.tolist(), ww.tolist())
    ]
    parsed = []
    for row in rows:
        kind, fi, si, fj, sj, w = row.split(",")
        parsed.append((kind, int(fi), int(si), int(fj), int(sj), float(w)))
    assert len(g.i) > ns and {r[1] for r in parsed} == {0, 1, 2}
    assert parsed == expected


def test_build_graph_operator_has_zero_diagonal():
    frames, sp, flows = _tiny_scene()
    g = build_graph(sp, flows, *compute_superpixel_stats(frames, sp))
    assert len(g.i) > g.n_spatial and np.all(np.diag(dense_operator(diffusion_operator(g))) == 0.0)


def test_build_graph_lists_spatial_edges_then_temporal_ones_frame_by_frame():
    ds = generate(SynthConfig(velocity=(1, 1)))
    sp = ds.superpixels
    g = build_graph(sp, ds.flows, *compute_superpixel_stats(ds.frames, sp))
    ns = g.n_spatial
    fi, fj = np.searchsorted(g.frame_offsets, np.stack([g.i, g.j]), side="right") - 1
    assert 0 < ns < len(g.i)
    assert np.array_equal(fi[:ns], fj[:ns])  # spatial: both ends in one frame
    assert np.array_equal(fi[ns:] + 1, fj[ns:])  # temporal: i in frame t, j in frame t+1
    assert np.unique(fi[ns:]).tolist() == list(range(sp.frame_count - 1))
    edges, weights = pairwise_weights(g, lambda_spatial=1000.0, lambda_temporal=2000.0)
    assert np.array_equal(edges, np.stack([g.i, g.j], axis=1))
    assert np.array_equal(weights, np.concatenate([1000.0 * g.w[:ns], 2000.0 * g.w[ns:]]))


def _noisy_flow(t):
    return np.random.default_rng(t).normal(0.0, 2.0, size=(8, 8, 2)).astype(np.float32)


def test_build_graph_holds_one_flow_field_at_a_time():
    frames, sp, _ = _tiny_scene()
    refs = []

    def fields():
        for t in range(2):
            assert all(ref() is None for ref in refs), f"a field before {t} is still alive"
            flow = _noisy_flow(t)
            refs.append(weakref.ref(flow))
            yield flow
            del flow
        assert all(ref() is None for ref in refs), "the last field is still alive"

    stats = compute_superpixel_stats(frames, sp)
    streamed = build_graph(sp, fields(), *stats)
    listed = build_graph(sp, [_noisy_flow(t) for t in range(2)], *stats)
    assert len(refs) == 2 and len(streamed.i) > streamed.n_spatial == listed.n_spatial
    for name in ("i", "j", "w"):
        assert np.array_equal(getattr(streamed, name), getattr(listed, name))
    assert np.array_equal(degrees(streamed), degrees(listed))
    assert np.array_equal(dense_operator(diffusion_operator(streamed)),
                          dense_operator(diffusion_operator(listed)))


@pytest.mark.parametrize("count", [0, 1, 3, 4])
def test_build_graph_flow_count_error_is_the_same_for_an_iterator(count):
    frames, sp, _ = _tiny_scene()
    flows = [np.zeros((8, 8, 2), np.float32)] * count
    messages = []
    for given in (flows, iter(flows), (flow for flow in flows)):
        with pytest.raises(DataError) as raised:
            build_graph(sp, given, *compute_superpixel_stats(frames, sp))
        messages.append(str(raised.value))
    assert messages == [f"expected 2 flow fields, got {count}"] * 3


@pytest.mark.parametrize("clip", ["one frame", "one superpixel per frame"])
def test_build_graph_with_an_empty_pool(clip):
    frames, sp, flows = _tiny_scene()
    if clip == "one frame":
        frames, sp, flows = frames[:1], _sp(sp.labels[:1]), []
        empty, full = "temporal", "spatial"
    else:
        sp = _sp(np.zeros_like(sp.labels))
        empty, full = "spatial", "temporal"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_graph(sp, flows, *compute_superpixel_stats(frames, sp))
    pools = {"spatial": slice(None, g.n_spatial), "temporal": slice(g.n_spatial, None)}
    for name, dtype in (("i", np.int64), ("j", np.int64), ("w", np.float64)):
        arr = getattr(g, name)
        assert arr[pools[empty]].shape == (0,) and arr.dtype == dtype
        assert len(arr[pools[full]]) > 0
    assert np.all(degrees(g) > 0) and dense_operator(diffusion_operator(g)).shape == (g.n_nodes, g.n_nodes)
