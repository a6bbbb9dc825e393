"""Anatomy of the space-time superpixel graph.

Builds the graph for a short synthetic clip and inspects its parts: spatial
adjacency, flow-linked temporal edges with overlap ratios, and motion
reliability from flow-histogram entropy; then the spectrum of the diffusion
operator S, the graph's one edge list with normalized weights, spelled out as
a dense matrix.
"""

import numpy as np

from vidseg.graph import MOTION_COHERENCE_WEIGHT, build_graph, motion_reliability, temporal_edges
from vidseg.propagation import diffusion_operator
from vidseg.synth import SynthConfig, generate
from vidseg.video import SuperpixelMap, compute_superpixel_stats


def main():
    ds = generate(SynthConfig(width=64, height=64, frame_count=6, shape_width=24,
                              shape_height=24, start_x=6, start_y=8, seed=1))
    sp = ds.superpixels
    print(f"{ds.config.frame_count} frames, {sp.total_count} superpixels total "
          f"({sp.counts[0]} in frame 0)")

    graph = build_graph(sp, ds.flows, *compute_superpixel_stats(ds.video, sp))
    spatial, temporal = graph.w[: graph.n_spatial], graph.w[graph.n_spatial :]
    print(f"\nspatial edges:  {len(spatial):5d}  "
          f"weights {spatial.min():.3g} .. {spatial.max():.3g}")
    print(f"temporal edges: {len(temporal):5d}  "
          f"weights {temporal.min():.3g} .. {temporal.max():.3g}")
    rho = np.concatenate([temporal_edges(sp, t, flow)[2] for t, flow in enumerate(ds.flows)])
    print(f"overlap ratios rho: {rho.min():.2f} .. {rho.max():.2f}")

    # same-region edges keep near-unit color affinity; boundary edges collapse
    strong = (spatial > 0.5).sum()
    weak = (spatial < 0.05).sum()
    print(f"\nspatial edges with affinity > 0.5: {strong} (inside object or inside "
          f"background)")
    print(f"spatial edges with affinity < 0.05: {weak} (across the color boundary)")

    s = diffusion_operator(graph)
    if graph.n_nodes <= 1500:
        # S is the graph with normalized weights; spelled out as a matrix, it is U + U.T
        upper = np.zeros((s.n_nodes, s.n_nodes))
        np.add.at(upper, (s.i, s.j), s.w)
        eigs = np.linalg.eigvalsh(upper + upper.T)
        print(f"\nnormalized operator spectrum: [{eigs.min():.4f}, {eigs.max():.4f}] "
              "(inside [-1, 1], so diffusion converges)")

    # motion reliability of one 8x8 superpixel: coherent flow vs. scrambled flow
    one = SuperpixelMap(np.zeros((1, 8, 8), dtype=np.int32))
    rng = np.random.default_rng(0)
    print("\nmotion reliability m = exp(-w_c * entropy):")
    for name, flow in (("coherent", np.ones((8, 8, 2))),
                       ("scrambled", rng.normal(0, 3.0, size=(8, 8, 2)))):
        m = motion_reliability(one, 0, flow)[0]
        print(f"  {name} flow: entropy={np.log(1 / m) / MOTION_COHERENCE_WEIGHT:.3f} -> m={m:.3f}")
    print("Unreliable flow weakens a superpixel's temporal links instead of "
          "propagating bad correspondences.")


if __name__ == "__main__":
    main()
