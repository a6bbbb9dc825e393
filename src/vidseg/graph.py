"""Weighted space-time superpixel graph construction.

Nodes are superpixels across all frames; spatial edges join 4-connected
superpixels of one frame, temporal edges join superpixels of consecutive
frames linked by flow-warped overlap. Affinities combine self-normalized
color distances with centroid distances (spatial) or overlap ratio and
motion reliability (temporal). The graph is one edge list, spatial edges
first, whose dot is A @ x; mrf.pairwise_weights reads the Potts terms from it.
propagation.diffusion_operator returns S as the same graph with normalized
weights, sharing i, j and frame_offsets: no caller may write them in place.
Nothing here uses SciPy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pnm import DataError, write_file
from .video import SuperpixelMap, warp_pixels

MOTION_COHERENCE_WEIGHT = 2.0  # w_c in m = exp(-w_c * entropy)
DISTANCE_CLAMP = 1e-6

ORIENTATION_BINS = 8
MAGNITUDE_EDGES = (0.5, 2.0, 8.0)  # pixels; below 0.5 is one static bin
N_FLOW_BINS = ORIENTATION_BINS * (len(MAGNITUDE_EDGES) + 1)


@dataclass
class SpaceTimeGraph:
    frame_offsets: np.ndarray  # (T+1,) global node-id offsets
    # one edge list of int64 node ids and float64 affinities: the first n_spatial edges
    # join two nodes of one frame, each later one i in frame t to j in frame t+1
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    n_spatial: int

    # read-only views, kept for the edge counter of perfbench/layers.py:77
    spatial_i = property(lambda self: self.i[: self.n_spatial])
    temporal_i = property(lambda self: self.i[self.n_spatial :])

    @property
    def n_nodes(self):
        return int(self.frame_offsets[-1])

    def dot(self, x):
        """A @ x: each edge adds w * x_j to row i and w * x_i to row j."""
        return (np.bincount(self.i, self.w * x[self.j], self.n_nodes)
                + np.bincount(self.j, self.w * x[self.i], self.n_nodes))

    def dump_csv(self, path):
        """Debug dump: kind, frame_i, sp_i, frame_j, sp_j, weight per edge."""
        ends = np.stack([self.i, self.j])
        frames = np.searchsorted(self.frame_offsets, ends, side="right") - 1
        (fi, fj), (si, sj) = frames, ends - self.frame_offsets[frames]
        kinds = ["spatial"] * self.n_spatial + ["temporal"] * (len(self.i) - self.n_spatial)
        rows = zip(kinds, fi.tolist(), si.tolist(), fj.tolist(), sj.tolist(), self.w.tolist())
        lines = ("%s,%d,%d,%d,%d,%.17g\n" % row for row in rows)
        write_file(path, itertools.chain(["kind,frame_i,sp_i,frame_j,sp_j,weight\n"], lines))


def spatial_edges(sp: SuperpixelMap):
    """Undirected same-frame adjacency under 4-connectivity.

    Returns (i, j) arrays of global node ids with i < j.
    """
    offsets = sp.frame_offsets()
    out_i, out_j = [], []
    for t in range(sp.frame_count):
        labels, n = sp.labels[t], sp.counts[t]
        right, down = labels[:, :-1] != labels[:, 1:], labels[:-1] != labels[1:]
        a = np.concatenate([labels[:, :-1][right], labels[:-1][down]])
        b = np.concatenate([labels[:, 1:][right], labels[1:][down]])
        # distinct pairs in row-major order; int64 before the product, as in temporal_edges
        key = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]
        out_i.append(key // n + offsets[t])
        out_j.append(key % n + offsets[t])
    return np.concatenate(out_i), np.concatenate(out_j)


def temporal_edges(sp: SuperpixelMap, t, flow):
    """Flow-linked adjacency from frame t to frame t+1, along flow.

    Returns (i, j, rho): global source node i, global target node j and the overlap
    ratio rho = |warp(s_i) ∩ s_j| / |warp(s_i)|, where warp(s_i) is the union of the
    rounded in-frame destinations of s_i's pixels. One sort of (source, target,
    destination pixel) keys gives all three: equal keys count once (the union), each
    run of one (source, target) is an overlap, and a source's runs sum to its warp.
    """
    offsets, size, n = sp.frame_offsets(), sp.labels[t].size, sp.counts[t + 1]
    dest = warp_pixels(flow).ravel()
    valid = dest >= 0
    dest = dest[valid]
    # int64 before the products: numpy 2 keeps uint16 * int in uint16
    pair = sp.labels[t].ravel()[valid].astype(np.int64) * n + sp.labels[t + 1].ravel()[dest]
    key = np.sort(pair * size + dest)
    pair = key[np.diff(key, prepend=-1) != 0] // size
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    counts = np.diff(starts, append=len(pair)).astype(np.float64)
    pi, pj = pair[starts] // n, pair[starts] % n
    return pi + offsets[t], pj + offsets[t + 1], counts / np.bincount(pi, counts, sp.counts[t])[pi]


def color_distance(colors, i, j):
    """Squared RGB distance of colors[i] and colors[j], over twice its own mean.

    Gathers one channel at a time, summed in np.sum's order over a row.
    """
    colors = np.asarray(colors, float)
    sq = sum((colors[i, k] - colors[j, k]) ** 2 for k in range(3))
    mean_sq = float(sq.sum() / max(sq.size, 1))
    if mean_sq <= 0:
        return np.zeros_like(sq)
    return sq / (2.0 * mean_sq)


def spatial_affinity(d_c, d_s):
    """exp(-color distance) / centroid distance, with the denominator clamped."""
    return np.exp(-np.asarray(d_c, float)) / np.maximum(d_s, DISTANCE_CLAMP)


def temporal_affinity(d_c, rho, m):
    """exp(-color distance) / temporal distance, d_t = rho / m of the source."""
    return np.exp(-np.asarray(d_c, float)) * m / np.maximum(rho, DISTANCE_CLAMP)


def flow_bin_index(flow_vectors):
    """Quantize flow vectors into 8 orientation x 4 magnitude bins.

    Vectors below 0.5 px magnitude all share bin 0 (orientation of
    near-static flow is noise); remaining magnitude bands are [0.5, 2),
    [2, 8), and [8, inf). The orientation bins are centred on the axes and
    diagonals, with edges at pi/8 + k*pi/4, so a mirrored or transposed flow
    fills the mirrored or transposed bins.
    """
    v = np.asarray(flow_vectors, dtype=np.float64)
    mag = np.hypot(v[..., 0], v[..., 1])
    mag_bin = sum(mag >= edge for edge in MAGNITUDE_EDGES)  # np.digitize for finite mag
    # the angle of a static pixel is never used: it stays -pi, orientation 0
    angle = np.arctan2(v[..., 1], v[..., 0], out=np.full(mag.shape, -np.pi), where=mag_bin > 0)
    orient = np.floor((angle + np.pi) / (2.0 * np.pi / ORIENTATION_BINS) + 0.5).astype(np.int64)
    # % ORIENTATION_BINS (a power of two) on 0..8, without an int64 division
    return mag_bin * ORIENTATION_BINS + (orient & (ORIENTATION_BINS - 1))


def histogram_entropy(hist):
    """Shannon entropy in nats of each row (last axis) of mass histograms."""
    h = np.asarray(hist, dtype=np.float64)
    total = h.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise DataError("empty histogram")
    p = h / total
    plogp = np.log(p, out=np.zeros_like(p), where=p > 0)  # an empty bin adds 0
    plogp *= p
    return -plogp.sum(axis=-1) + 0.0  # avoid -0.0


def motion_reliability(sp: SuperpixelMap, t, flow, w_c=MOTION_COHERENCE_WEIGHT):
    """Reliability m = exp(-w_c * entropy) of each superpixel of frame t, warped along flow."""
    n = sp.counts[t]
    key = sp.labels[t].ravel().astype(np.int64) * N_FLOW_BINS + flow_bin_index(flow).ravel()
    hist = np.bincount(key, minlength=n * N_FLOW_BINS).reshape(n, N_FLOW_BINS)
    return np.exp(-w_c * histogram_entropy(hist))  # one bin: p = 1, log 1 = 0, m exactly 1.0


def assemble(frame_offsets, i, j, w, n_spatial) -> SpaceTimeGraph:
    """Check a weighted edge list, spatial edges first, and hold it as a graph.

    The arrays are kept as given, of one length of at least n_spatial. Weights
    must be finite and non-negative; self-loops are rejected.
    """
    i, j, w = np.asarray(i, np.int64), np.asarray(j, np.int64), np.asarray(w, np.float64)
    if not len(i) == len(j) == len(w) >= n_spatial >= 0:
        raise DataError(f"i, j and w of {len(i)}, {len(j)}, {len(w)} edges, {n_spatial} spatial")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("edge weights must be finite and non-negative")
    if np.any(i == j):
        raise DataError("self-loop edges are not allowed")
    return SpaceTimeGraph(np.asarray(frame_offsets, dtype=np.int64), i, j, w, int(n_spatial))


def build_graph(sp: SuperpixelMap, flows, colors, centroids, w_c=MOTION_COHERENCE_WEIGHT):
    """Construct the full space-time graph of a clip from its node arrays.

    colors (N, 3) and centroids (N, 2) are indexed by global node id, as
    video.compute_superpixel_stats returns them. flows is any iterable of the
    T-1 flow fields, field t warping frame t to frame t+1. It is consumed
    once, one frame pair at a time, and no field is held past its own pair,
    so a generator that loads each field on demand keeps one resident. Color
    distances are self-normalized separately over the spatial and temporal
    adjacency pools; centroid distances over the spatial pool.
    """
    offsets = sp.frame_offsets()
    pairs, shape = sp.frame_count - 1, sp.labels.shape[1:]

    si, sj = spatial_edges(sp)
    # the empty head gives a one-frame clip, which has no pairs, the dtypes of the others
    temporal = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    m = np.ones(sp.total_count)
    flows = iter(flows)
    for flow in flows:  # not enumerate: its reused result tuple would hold the last field
        t = len(temporal) - 1
        if t == pairs:
            raise DataError(f"expected {pairs} flow fields, got {t + 1 + sum(1 for _ in flows)}")
        flow = np.asarray(flow)
        if flow.shape[:2] != shape:
            raise DataError(f"flow of frames {t}-{t + 1} is {flow.shape[:2]}, frames are {shape}")
        temporal.append(temporal_edges(sp, t, flow))
        m[offsets[t] : offsets[t + 1]] = motion_reliability(sp, t, flow, w_c)
        del flow  # before the next field is made
    if len(temporal) - 1 != pairs:
        raise DataError(f"expected {pairs} flow fields, got {len(temporal) - 1}")
    ti, tj, rho = zip(*temporal)
    del temporal
    n_spatial = len(si)
    i = np.concatenate([si, *ti])  # spatial edges first
    del si, ti  # each join releases its pieces before the next
    j = np.concatenate([sj, *tj])
    del sj, tj
    rho = np.concatenate(rho)
    si, sj, ti, tj = i[:n_spatial], j[:n_spatial], i[n_spatial:], j[n_spatial:]

    d_c_s = color_distance(colors, si, sj)
    # np.linalg.norm(axis=1)'s value, without (m, 2) gathers
    cent_d = np.sqrt(sum((centroids[si, k] - centroids[sj, k]) ** 2 for k in range(2)))
    mean_cent = cent_d.sum() / max(len(cent_d), 1)
    d_s = cent_d / mean_cent if mean_cent > 0 else np.zeros_like(cent_d)
    sw = spatial_affinity(d_c_s, d_s)
    del d_c_s, cent_d, d_s  # the spatial per-edge temporaries, before the temporal ones

    d_c_t = color_distance(colors, ti, tj)
    tw = temporal_affinity(d_c_t, rho, m[ti])
    del d_c_t, rho, m

    return assemble(offsets, i, j, np.concatenate([sw, tw]), n_spatial)
