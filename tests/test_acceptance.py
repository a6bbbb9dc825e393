"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import dataclasses
import functools
import math
import time

import numpy as np

from conftest import random_graph, tree_digest
from oracles import dense_solve_oracle, enumerate_labelings_oracle, propagate_iterative
from vidseg.gmm import fit_gmm, sample_training_sets
from vidseg.graph import (
    histogram_entropy,
    motion_reliability,
    spatial_affinity,
    temporal_affinity,
)
from vidseg.mrf import MRFProblem, mrf_energy, solve_binary
from vidseg.pipeline import PipelineConfig, run_pipeline
from vidseg.proposals import ScoredProposal, pool_frame
from vidseg.propagation import (
    PropagationConfig,
    adapt_confidence,
    diffusion_operator,
    propagate,
    stationarity_residual,
)
from vidseg.synth import SynthConfig, generate, write_dataset
from vidseg.video import SuperpixelMap, compute_superpixel_stats


def _report(name, ok, detail=""):
    print(f"[acceptance] {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_solver_equivalence_and_stationarity():
    rng = np.random.default_rng(42)
    cfg = PropagationConfig(tolerance=1e-12)
    start = time.monotonic()
    max_it_lin = max_lin_dense = max_it_dense = 0.0
    max_stationarity = 0.0
    for _ in range(50):
        graph = random_graph(rng, max_nodes=200)
        c = rng.random(graph.n_nodes)
        s = diffusion_operator(graph)
        x_it = propagate_iterative(s, c, cfg).x
        x_lin = propagate(s, c, cfg).x
        x_dense = dense_solve_oracle(graph, c, cfg.mu)
        max_it_lin = max(max_it_lin, np.max(np.abs(x_it - x_lin)))
        max_lin_dense = max(max_lin_dense, np.max(np.abs(x_lin - x_dense)))
        max_it_dense = max(max_it_dense, np.max(np.abs(x_it - x_dense)))
        for x in (x_it, x_lin):
            max_stationarity = max(
                max_stationarity, stationarity_residual(x, s, c, cfg.mu)
            )
    elapsed = time.monotonic() - start
    _report(
        "solver equivalence (50 graphs, N<=200)",
        max_it_lin <= 1e-6
        and max_lin_dense <= 1e-8
        and max_it_dense <= 1e-8
        and elapsed < 30.0,
        f"max|it-lin|={max_it_lin:.2e} max|lin-dense|={max_lin_dense:.2e} "
        f"max|it-dense|={max_it_dense:.2e} time={elapsed:.1f}s",
    )
    _report(
        "stationarity residual ||X - SX + mu(X - C)||_inf <= 1e-7",
        max_stationarity <= 1e-7,
        f"max={max_stationarity:.2e}",
    )


def test_mincut_exactness():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        pairs = {
            tuple(sorted(rng.integers(0, n, size=2).tolist()))
            for _ in range(int(rng.integers(0, 3 * n)))
        }
        pairs = [p for p in pairs if p[0] != p[1]]
        edges = (
            np.array(sorted(pairs), dtype=np.int64)
            if pairs
            else np.empty((0, 2), dtype=np.int64)
        )
        problem = MRFProblem(
            cost_object=rng.integers(0, 25, size=n).astype(np.float64),
            cost_background=rng.integers(0, 25, size=n).astype(np.float64),
            edges=edges,
            edge_weight=rng.integers(0, 20, size=len(edges)).astype(np.float64),
        )
        labeling = solve_binary(problem)
        _, best = enumerate_labelings_oracle(problem)
        worst = max(worst, abs(mrf_energy(problem, labeling.labels) - best))
    elapsed = time.monotonic() - start
    _report(
        "min-cut exactness (200 instances, N<=12, integer costs)",
        worst == 0.0 and elapsed < 10.0,
        f"max energy gap={worst} time={elapsed:.1f}s",
    )


def test_mincut_certificate_at_scale():
    # 100 frames of 32x32 grids linked frame to frame: 102,400 nodes and
    # 299,776 Potts edges, the size of the L benchmark clip, with a seeded
    # static square favoured by the unaries
    rng = np.random.default_rng(11)
    frames, side = 100, 32
    ids = np.arange(frames * side * side).reshape(frames, side, side)
    spatial = np.concatenate(
        [
            np.stack([ids[:, :, :-1].ravel(), ids[:, :, 1:].ravel()], axis=1),
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        ]
    )
    temporal = np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1)
    inside = np.zeros((side, side), dtype=bool)
    inside[11:21, 11:21] = True
    inside = np.broadcast_to(inside, ids.shape).ravel()
    confidence = np.clip(
        np.where(inside, 0.7, 0.3) + rng.normal(0.0, 0.25, size=ids.size), 1e-6, 1 - 1e-6
    )
    edges = np.concatenate([spatial, temporal])
    crossing = inside[edges[:, 0]] != inside[edges[:, 1]]
    weights = np.where(crossing, 1.0, 100.0) * rng.uniform(0.5, 1.0, size=len(edges))
    problem = MRFProblem(-np.log(confidence), -np.log1p(-confidence), edges, weights)
    start = time.monotonic()
    labeling = solve_binary(problem)
    elapsed = time.monotonic() - start
    energy = mrf_energy(problem, labeling.labels)
    gap = abs(energy - labeling.flow_value)
    _report(
        "min-cut certificate at scale (102,400 nodes, <= 2 s)",
        gap <= 1e-9 * energy
        and elapsed < 2.0
        and np.array_equal(labeling.labels, inside),
        f"edges={len(edges)} rounds={labeling.rounds} energy={energy:.6f} "
        f"gap={gap:.1e} time={elapsed:.2f}s",
    )


def test_pooling_identities():
    labels = np.arange(20, dtype=np.int32).reshape(4, 5)

    mask = np.zeros((4, 5), dtype=bool)
    mask[1:3, 1:4] = True
    single = ScoredProposal(
        frame=0, mask=mask, appearance_score=1.0, combined_score=0.5,
        class_confidences={"c": 1.0},
    )
    _, field = pool_frame([single], "c", labels, 20)
    single_ok = np.max(np.abs(field - mask)) == 0.0

    mask_a = np.zeros((4, 5), dtype=bool)
    mask_a[:, :3] = True
    mask_b = np.zeros((4, 5), dtype=bool)
    mask_b[:, 2:] = True
    a = ScoredProposal(frame=0, mask=mask_a, appearance_score=1.0,
                       combined_score=0.6, class_confidences={"c": 1.0})
    b = ScoredProposal(frame=0, mask=mask_b, appearance_score=1.0,
                       combined_score=0.4, class_confidences={"c": 1.0})
    _, field2 = pool_frame([a, b], "c", labels, 20)
    overlap_ok = (
        np.all(field2[:, 2] == 1.0)
        and np.all(field2[:, :2] == 0.6)
        and np.all(field2[:, 3:] == 0.4)
    )
    _report(
        "pooling identities (single-proposal, 1.0/0.6/0.4 overlap)",
        single_ok and overlap_ok,
        f"single={single_ok} overlap={overlap_ok}",
    )


def test_entropy_and_affinity_spot_values():
    def pi_and_m(flow):
        """Entropy pi (m = exp(-pi) at w_c = 1) and m of the one superpixel of frame 0 of two."""
        sp = SuperpixelMap(np.zeros((2, *flow.shape[:2]), dtype=np.int32))
        pi = -math.log(motion_reliability(sp, 0, flow, w_c=1.0)[0])
        return pi, motion_reliability(sp, 0, flow)[0]

    pi_one, m_one = pi_and_m(np.ones((3, 3, 2)))

    flow_two = np.zeros((2, 2, 2))
    flow_two[0, :, 0] = 1.0
    flow_two[1, :, 1] = 1.0
    pi_two, m_two = pi_and_m(flow_two)

    aff = spatial_affinity(0.5, 0.5)
    checks = {
        "pi(1 bin)=0": pi_one == 0.0 and m_one == 1.0,
        "pi(2 bins)=ln2": abs(pi_two - math.log(2)) <= 1e-12,
        "m=0.25": abs(m_two - 0.25) <= 1e-12,
        "affinity=1.21306": abs(aff - 1.21306) <= 1e-5,
        # w_t = exp(-d_c) * m / rho: a thinner overlap weighs more
        "temporal=2.42612": abs(temporal_affinity(0.5, 0.25, 1.0) - 2.42612) <= 1e-5,
        "temporal(rho=1/64)=64x": temporal_affinity(0.0, 1 / 64, 1.0)
        == 64 * temporal_affinity(0.0, 1.0, 1.0),
        "entropy(uniform 32)=ln32": abs(histogram_entropy(np.ones(32)) - math.log(32))
        <= 1e-12,
    }
    _report(
        "entropy/affinity spot values",
        all(checks.values()),
        " ".join(k for k, v in checks.items() if not v) or "all spot values match",
    )


def test_gmm_em_monotone_and_recovery():
    rng = np.random.default_rng(11)
    base_a = np.array([20.0, 40.0, 60.0])
    base_b = np.array([220.0, 180.0, 200.0])
    worst_drop = 0.0
    worst_mean_err = 0.0
    for seed in range(20):
        a = base_a + rng.normal(0, 4.0, size=(100, 3))
        b = base_b + rng.normal(0, 4.0, size=(100, 3))
        colors = np.concatenate([a, b])
        weights = rng.uniform(0.5, 1.0, size=200)
        history = []
        gmm = fit_gmm(colors, weights, n_components=2, seed=seed, history=history)
        drops = np.diff(history)
        if len(drops):
            worst_drop = max(worst_drop, float(-drops.min()))
        order = np.argsort(gmm.means[:, 0])
        err_a = np.max(np.abs(gmm.means[order[0]] - a.mean(axis=0)))
        err_b = np.max(np.abs(gmm.means[order[1]] - b.mean(axis=0)))
        worst_mean_err = max(worst_mean_err, err_a, err_b)
    _report(
        "GMM EM monotone log-likelihood + two-cluster recovery",
        worst_drop <= 1e-9 and worst_mean_err < 5.0,
        f"worst LL drop={worst_drop:.2e} worst mean error={worst_mean_err:.2f} RGB",
    )


def _synthetic_pipeline_config(root, out_dir):
    ds = generate(SynthConfig(seed=7))  # 128x128, 20 frames, 40x40 square, v=(2,1)
    paths = write_dataset(ds, root)
    return PipelineConfig(
        video_dir=paths["video_dir"],
        superpixel_dir=paths["superpixel_dir"],
        flow_dir=paths["flow_dir"],
        motion_dir=paths["motion_dir"],
        proposal_manifest=paths["proposal_manifest"],
        gt_dir=paths["gt_dir"],
        out_dir=out_dir,
    )


def test_end_to_end_synthetic_and_ablation(tmp_path):
    cfg = _synthetic_pipeline_config(str(tmp_path / "data"), str(tmp_path / "full"))
    start = time.monotonic()
    full = run_pipeline(cfg).rows[0]
    elapsed = time.monotonic() - start
    skip_cfg = dataclasses.replace(
        cfg, skip_adaptation=True, out_dir=str(tmp_path / "skip")
    )
    skip = run_pipeline(skip_cfg).rows[0]
    _report(
        "end-to-end synthetic (mean IoU >= 0.90, runtime < 60 s)",
        full["iou_macro"] >= 0.90 and full["iou_micro"] >= 0.90 and elapsed < 60.0,
        f"iou_micro={full['iou_micro']:.3f} iou_macro={full['iou_macro']:.3f} "
        f"time={elapsed:.1f}s",
    )
    _report(
        "ablation direction (skip-adaptation strictly lower IoU)",
        skip["iou_macro"] < full["iou_macro"] and skip["iou_micro"] < full["iou_micro"],
        f"full={full['iou_micro']:.3f} baseline={skip['iou_micro']:.3f}",
    )


def test_pipeline_determinism(tmp_path):
    cfg = _synthetic_pipeline_config(str(tmp_path / "data"), str(tmp_path / "run1"))
    run_pipeline(cfg)
    cfg2 = dataclasses.replace(cfg, out_dir=str(tmp_path / "run2"))
    run_pipeline(cfg2)
    d1 = tree_digest(str(tmp_path / "run1"))
    d2 = tree_digest(str(tmp_path / "run2"))
    _report(
        "determinism (byte-identical masks and reports)",
        d1 == d2,
        f"digest={d1[:16]}",
    )


@functools.cache
def _scale_l_clip():
    """The L clip: 100 static frames at ~1000 superpixels per frame, the
    diffusion operator of its graph and its pooled confidence."""
    from vidseg.graph import build_graph
    from vidseg.proposals import pool_confidence, score_proposals, filter_by_confidence

    cfg = SynthConfig(
        frame_count=100,
        velocity=(0, 0),
        start_x=44,
        start_y=44,
        cell_size=4,
        confidence_base=0.6,
        seed=5,
    )
    ds = generate(cfg)
    sp = ds.superpixels
    s = diffusion_operator(build_graph(sp, ds.flows, *compute_superpixel_stats(ds.frames, sp)))
    scored = score_proposals(ds.proposals, ds.motion_masks)
    retained = filter_by_confidence(scored, cfg.class_id, 0.01)
    pooled = pool_confidence(retained, cfg.class_id, ds.superpixels)
    return cfg, ds, s, pooled


def test_propagation_speed_at_scale():
    cfg, ds, s, pooled = _scale_l_clip()
    per_frame = ds.superpixels.total_count / cfg.frame_count
    start = time.monotonic()
    adapted = adapt_confidence(pooled, s, PropagationConfig())
    elapsed = time.monotonic() - start
    values = adapted.flat
    _report(
        "propagation speed (100 frames, ~1000 superpixels/frame, <= 30 s)",
        elapsed <= 30.0 and per_frame >= 1000 and np.all(np.isfinite(values)),
        f"nodes={s.n_nodes} ({per_frame:.0f}/frame) adapt time={elapsed:.2f}s",
    )


def test_diffusion_certificate_at_scale():
    # adapt_confidence certifies L at the default tolerance and past the round-off floor
    _, ds, s, pooled = _scale_l_clip()
    for tolerance in (PropagationConfig.tolerance, 1e-17):
        adapt_confidence(pooled, s, PropagationConfig(tolerance=tolerance))
    cfg = PropagationConfig()
    c = pooled.flat
    residual = stationarity_residual(propagate(s, c, cfg).x, s, c, cfg.mu)
    bound = (1 + cfg.mu) * cfg.tolerance * cfg.eta * np.linalg.norm(c)
    _report(
        "diffusion certificate at scale (stationarity residual within CG's bound)",
        residual <= bound,
        f"residual={residual:.2e} bound={bound:.2e}",
    )


def test_graph_build_speed_at_scale():
    # a fresh build of the L clip's graph, superpixel stats included
    from vidseg.graph import build_graph

    _, ds, _, _ = _scale_l_clip()
    sp = ds.superpixels
    start = time.monotonic()
    graph = build_graph(sp, ds.flows, *compute_superpixel_stats(ds.frames, sp))
    elapsed = time.monotonic() - start
    edges = len(graph.i)
    _report(
        "graph build speed at scale (102,400 nodes, 299,776 edges, < 1.5 s)",
        graph.n_nodes == 102_400 and edges == 299_776 and elapsed < 1.5,
        f"nodes={graph.n_nodes} edges={edges} time={elapsed:.2f}s",
    )


def test_gmm_fit_speed_at_scale():
    # both color models of the L clip, as segment_class fits them
    _, ds, s, pooled = _scale_l_clip()
    adapted = adapt_confidence(pooled, s, PropagationConfig())
    colors, _ = compute_superpixel_stats(ds.frames, ds.superpixels)
    (obj_colors, obj_w), (bg_colors, bg_w) = sample_training_sets(adapted.flat, colors)
    histories = ([], [])
    start = time.monotonic()
    fit_gmm(obj_colors, obj_w, seed=0, history=histories[0])
    fit_gmm(bg_colors, bg_w, seed=1, history=histories[1])
    elapsed = time.monotonic() - start
    worst_drop = max(0.0, *(float(-np.diff(h).min()) for h in histories))
    _report(
        "GMM fit speed at scale (both L color models, monotone EM, <= 15 iterations each, < 2 s)",
        elapsed < 2.0 and worst_drop <= 1e-9 and max(map(len, histories)) <= 15,
        f"samples={len(obj_colors)}+{len(bg_colors)} "
        f"iterations={len(histories[0])}+{len(histories[1])} "
        f"worst LL drop={worst_drop:.2e} time={elapsed:.2f}s",
    )
