import numpy as np
import pytest

from conftest import graph_from_edges
from oracles import enumerate_labelings_oracle
from vidseg.gmm import GaussianMixture, log_likelihoods
from vidseg.mrf import (
    CERTIFICATE_RTOL,
    LAMBDA_SPATIAL,
    LAMBDA_TEMPORAL,
    MAX_ROUNDS,
    MRFProblem,
    Labeling,
    _network,
    color_unary,
    mrf_energy,
    pairwise_weights,
    rasterize,
    semantic_unary,
    solve_binary,
)
from vidseg.video import SuperpixelMap

LOG_HALF = 0.6931471805599453
LOG_EPS = 13.815510557964274  # -log(1e-6)


def test_semantic_unary_values():
    cost_obj, cost_bg = semantic_unary(0.5)
    assert cost_obj == pytest.approx(LOG_HALF, abs=1e-12)
    assert cost_bg == pytest.approx(LOG_HALF, abs=1e-12)
    cost_obj, cost_bg = semantic_unary(1.0)
    assert cost_obj == pytest.approx(0.0, abs=2e-6)
    assert cost_bg == pytest.approx(LOG_EPS, abs=1e-9)
    cost_obj, _ = semantic_unary(0.0)
    assert cost_obj == pytest.approx(LOG_EPS, abs=1e-9)


def _flat_gmm(mean, scale=1.0):
    return GaussianMixture(
        weights=np.array([1.0]),
        means=np.array([mean], dtype=np.float64),
        covariances=np.array([np.eye(3) * scale]),
    )


def test_color_unary_equal_likelihoods():
    g = _flat_gmm([100.0, 100.0, 100.0])
    cost_obj, cost_bg = color_unary(g, g, np.array([[100.0, 100.0, 100.0]]))
    assert cost_obj[0] == pytest.approx(LOG_HALF, abs=1e-12)
    assert cost_bg[0] == pytest.approx(LOG_HALF, abs=1e-12)


def test_color_unary_dominant_object():
    obj = _flat_gmm([50.0, 50.0, 50.0])
    bg = _flat_gmm([200.0, 200.0, 200.0])
    cost_obj, cost_bg = color_unary(obj, bg, np.array([[50.0, 50.0, 50.0]]))
    assert cost_obj[0] < 1e-8
    assert cost_bg[0] > 10


def test_color_unary_both_floored():
    obj = _flat_gmm([0.0, 0.0, 0.0])
    bg = _flat_gmm([255.0, 255.0, 255.0])
    cost_obj, cost_bg = color_unary(obj, bg, np.array([[128.0, 128.0, 128.0]]))
    assert cost_obj[0] == pytest.approx(LOG_HALF, abs=1e-12)
    assert cost_bg[0] == pytest.approx(LOG_HALF, abs=1e-12)


def test_color_unary_matches_separate_log_likelihoods(rng):
    def random_gmm(k):
        q = np.linalg.qr(rng.normal(size=(k, 3, 3)))[0]
        covs = (q * rng.uniform(1.0, 2500.0, size=(k, 1, 3))) @ np.swapaxes(q, 1, 2)
        return GaussianMixture(rng.dirichlet(np.ones(k)), rng.uniform(0, 255, (k, 3)), covs)

    obj, bg = random_gmm(3), random_gmm(5)
    colors = rng.uniform(-50, 305, size=(500, 3))  # 25 of them floored by both models
    (lo,), (lb,) = log_likelihoods([obj], colors), log_likelihoods([bg], colors)
    denom = np.logaddexp(lo, lb)
    cost_obj, cost_bg = color_unary(obj, bg, colors)
    np.testing.assert_allclose(cost_obj, denom - lo, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cost_bg, denom - lb, rtol=1e-12, atol=1e-12)


def test_pairwise_weights_reuse_affinities():
    g = graph_from_edges(3, spatial=[(0, 1, 1.2130613194252668)],
                         temporal=[(1, 2, 0.4)])
    edges, weights = pairwise_weights(g, lambda_spatial=1000.0, lambda_temporal=2000.0)
    assert edges.shape == (2, 2)
    assert weights[0] == pytest.approx(1213.0613194252668)
    assert weights[1] == pytest.approx(800.0)


def test_potts_zero_on_agreement():
    problem = MRFProblem(
        cost_object=np.zeros(2),
        cost_background=np.zeros(2),
        edges=np.array([[0, 1]]),
        edge_weight=np.array([10.0]),
    )
    assert mrf_energy(problem, [True, True]) == 0.0
    assert mrf_energy(problem, [False, False]) == 0.0
    assert mrf_energy(problem, [True, False]) == 10.0


def test_solve_unary_only():
    problem = MRFProblem(
        cost_object=np.array([0.0, 5.0]),
        cost_background=np.array([5.0, 0.0]),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    labels = solve_binary(problem).labels
    assert labels.tolist() == [True, False]


def test_solve_strong_coupling_tie_goes_background():
    # opposite unary margins of 1, pairwise 10: both uniform labelings tie
    problem = MRFProblem(
        cost_object=np.array([0.0, 1.0]),
        cost_background=np.array([1.0, 0.0]),
        edges=np.array([[0, 1]]),
        edge_weight=np.array([10.0]),
    )
    labels = solve_binary(problem).labels
    assert labels.tolist() == [False, False]
    assert mrf_energy(problem, labels) == 1.0


def _random_problem(rng, n, integer=True, max_edges=None):
    m = int(rng.integers(0, (n * (n - 1)) // 2 + 1 if max_edges is None else max_edges))
    pairs = set()
    while len(pairs) < m:
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if i != j:
            pairs.add((i, j))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    if integer:
        cost_obj = rng.integers(0, 20, size=n).astype(np.float64)
        cost_bg = rng.integers(0, 20, size=n).astype(np.float64)
        weights = rng.integers(0, 15, size=len(edges)).astype(np.float64)
    else:
        cost_obj = rng.uniform(0, 20, size=n)
        cost_bg = rng.uniform(0, 20, size=n)
        weights = rng.uniform(0, 15, size=len(edges))
    return MRFProblem(cost_obj, cost_bg, edges, weights)


def test_solve_matches_enumeration_integer(rng):
    for _ in range(30):
        n = int(rng.integers(2, 13))
        problem = _random_problem(rng, n, integer=True)
        labeling = solve_binary(problem)
        _, best = enumerate_labelings_oracle(problem)
        assert mrf_energy(problem, labeling.labels) == best


def test_solve_matches_enumeration_float(rng):
    for _ in range(20):
        n = int(rng.integers(2, 13))
        problem = _random_problem(rng, n, integer=False)
        labeling = solve_binary(problem)
        _, best = enumerate_labelings_oracle(problem)
        assert mrf_energy(problem, labeling.labels) <= best + 1e-9


def test_solution_beats_uniform_labelings(rng):
    for _ in range(10):
        problem = _random_problem(rng, 10, integer=False)
        labels = solve_binary(problem).labels
        e = mrf_energy(problem, labels)
        assert e <= mrf_energy(problem, np.zeros(10, dtype=bool)) + 1e-12
        assert e <= mrf_energy(problem, np.ones(10, dtype=bool)) + 1e-12


def test_huge_coupling_forces_uniform(rng):
    n = 8
    edges = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64)
    cost_obj = rng.uniform(0, 5, size=n)
    cost_bg = rng.uniform(0, 5, size=n)
    problem = MRFProblem(cost_obj, cost_bg, edges, np.full(n - 1, 1e6))
    labels = solve_binary(problem).labels
    assert labels.all() or not labels.any()
    expected_object = cost_obj.sum() < cost_bg.sum()
    assert labels.all() == expected_object


def test_scale_invariance_of_argmin(rng):
    problem = _random_problem(rng, 9, integer=False)
    labels1 = solve_binary(problem).labels
    scaled = MRFProblem(
        problem.cost_object * 37.5,
        problem.cost_background * 37.5,
        problem.edges,
        problem.edge_weight * 37.5,
    )
    labels2 = solve_binary(scaled).labels
    assert np.array_equal(labels1, labels2)


def test_rejects_negative_weights():
    with pytest.raises(ValueError):
        MRFProblem(np.zeros(2), np.zeros(2), np.array([[0, 1]]), np.array([-1.0]))


@pytest.mark.parametrize(
    "cost_bg, edges, weights",
    [
        (np.zeros(3), [[0, -1]], [1.0]),
        (np.zeros(3), [[0, 3]], [1.0]),
        (np.zeros(3), [[0, 1], [1, 2]], [1.0]),
        (np.zeros(3), [[0, 1]], [1.0, 2.0]),
        (np.zeros(1), [[0, 1]], [1.0]),
        (np.array([0.0, np.nan, 0.0]), [[0, 1]], [1.0]),
    ],
    ids=["negative-id", "id-past-n", "too-few-weights", "too-many-weights", "short-costs",
         "nan-cost"],
)
def test_rejects_malformed_problems(cost_bg, edges, weights):
    with pytest.raises(ValueError):
        MRFProblem(np.zeros(3), cost_bg, np.array(edges), np.array(weights))


def _grid_edges(height, width):
    ids = np.arange(height * width).reshape(height, width)
    return np.concatenate(
        [
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
            np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
        ]
    )


def test_certificate_on_large_grid(rng):
    edges = _grid_edges(100, 100)
    problem = MRFProblem(
        rng.uniform(0, 20, size=10000),
        rng.uniform(0, 20, size=10000),
        edges,
        rng.uniform(0, 15, size=len(edges)),
    )
    labeling = solve_binary(problem)
    energy = mrf_energy(problem, labeling.labels)
    assert labeling.rounds >= 1
    assert abs(labeling.flow_value - energy) <= CERTIFICATE_RTOL * energy
    assert 0 < labeling.labels.sum() < 10000


def test_certificate_over_wide_weight_range_at_scale(rng):
    # 30 frames of 32x32 grid nodes, each linked to itself in the next frame at
    # lambda_temporal x log-uniform[1e-3, 1e3], up to 2e6: the range thin flow
    # overlaps of large superpixels reach; the unaries favour object in a square
    frames, side = 30, 32
    per = side * side
    n = frames * per
    spatial = np.concatenate([_grid_edges(side, side) + t * per for t in range(frames)])
    temporal = np.stack([np.arange(n - per), np.arange(per, n)], axis=1)
    weights = np.concatenate([
        LAMBDA_SPATIAL * rng.uniform(0, 0.01, size=len(spatial)),
        LAMBDA_TEMPORAL * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=len(temporal))),
    ])
    inner = np.abs(np.mgrid[0:side, 0:side] - side / 2) < side / 4  # per axis
    square = np.tile(inner.all(axis=0).ravel(), frames)
    problem = MRFProblem(
        rng.uniform(0, 100, size=n) + 60 * ~square,
        rng.uniform(0, 100, size=n) + 60 * square,
        np.concatenate([spatial, temporal]),
        weights,
    )
    assert weights.max() > 1e6
    labeling = solve_binary(problem)
    energy = mrf_energy(problem, labeling.labels)
    assert abs(labeling.flow_value - energy) <= CERTIFICATE_RTOL * energy
    assert 1 <= labeling.rounds <= MAX_ROUNDS
    assert 0 < labeling.labels.sum() < n


def test_exact_tie_on_grid_goes_background(rng):
    # coupling outweighs every unary margin, so only the uniform labelings
    # compete, and permuted integer costs make them tie exactly
    edges = _grid_edges(30, 30)
    cost_obj = rng.integers(0, 10, size=900).astype(np.float64)
    problem = MRFProblem(
        cost_obj, rng.permutation(cost_obj), edges, np.full(len(edges), 1e5)
    )
    labeling = solve_binary(problem)
    assert not labeling.labels.any()
    assert mrf_energy(problem, labeling.labels) == cost_obj.sum()
    assert labeling.flow_value == pytest.approx(cost_obj.sum(), rel=CERTIFICATE_RTOL)


def test_solve_extreme_weight_range_exact(rng):
    # Potts weights up to the distance clamp's ~2e9 next to unaries near 1e2
    for _ in range(200):
        n = int(rng.integers(2, 13))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        weights = np.exp(rng.uniform(np.log(1e-9), np.log(2e9), size=len(edges)))
        problem = MRFProblem(
            rng.uniform(0, 100, size=n), rng.uniform(0, 100, size=n), edges, weights
        )
        labels = solve_binary(problem).labels
        _, best = enumerate_labelings_oracle(problem)
        assert mrf_energy(problem, labels) <= best + 1e-9 * max(best, 1.0)


def test_tiny_bottleneck_solved_in_a_second_round():
    # the first round's integer capacities floor the 1e-9 edge to zero
    problem = MRFProblem(
        np.array([0.0, 50.0]), np.array([50.0, 0.0]), np.array([[0, 1]]), np.array([1e-9])
    )
    labeling = solve_binary(problem)
    assert labeling.labels.tolist() == [True, False]
    assert labeling.rounds == 2
    assert labeling.flow_value == pytest.approx(1e-9, rel=1e-9)


def test_sub_threshold_arcs_still_certified():
    # ten paths of 5e-10 each, every arc below the reachability threshold:
    # the labeling is found at once, but its certificate needs another round
    k = 10
    cost_obj = np.zeros(k + 2)
    cost_bg = np.zeros(k + 2)
    cost_bg[0] = cost_obj[1] = 1000.0
    mid = np.arange(2, k + 2)
    edges = np.concatenate(
        [np.stack([np.zeros(k, int), mid], axis=1), np.stack([mid, np.ones(k, int)], axis=1)]
    )
    problem = MRFProblem(cost_obj, cost_bg, edges, np.full(2 * k, 5e-10))
    labeling = solve_binary(problem)
    assert labeling.labels.tolist() == [True] + [False] * (k + 1)
    assert labeling.flow_value == pytest.approx(k * 5e-10, rel=CERTIFICATE_RTOL)


def _tied_problem(rng, n):
    """Integer costs, equal on about a third of the nodes; random edges, so self-loops,
    repeated pairs (either way round) and zero weights all occur."""
    cost_obj = rng.integers(0, 20, size=n).astype(np.float64)
    cost_bg = rng.integers(0, 20, size=n).astype(np.float64)
    tied = rng.random(n) < 1 / 3
    cost_bg[tied] = cost_obj[tied]
    edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
    weights = rng.integers(0, 15, size=len(edges)).astype(np.float64)
    return MRFProblem(cost_obj, cost_bg, edges, weights)


def test_network_holds_one_terminal_arc_per_node_with_unequal_costs(rng):
    for _ in range(50):
        n = int(rng.integers(1, 17))
        problem = _tied_problem(rng, n)
        base = np.minimum(problem.cost_object, problem.cost_background)
        to_source, to_sink = problem.cost_background - base, problem.cost_object - base
        cap, indices, indptr = _network(problem, to_source, to_sink)
        source, sink = n, n + 1
        pairs = {tuple(sorted(e)) for e in problem.edges.tolist() if e[0] != e[1]}
        expected = np.zeros((n + 2, n + 2))
        for (i, j), w in zip(problem.edges.tolist(), problem.edge_weight):
            if i != j:
                expected[i, j] += w
                expected[j, i] += w
        arcs = {pair for i, j in pairs for pair in ((i, j), (j, i))}
        for i in np.flatnonzero(to_source > 0).tolist():
            expected[source, i] = to_source[i]
            arcs |= {(source, i), (i, source)}
        for i in np.flatnonzero(to_sink > 0).tolist():
            expected[i, sink] = to_sink[i]
            arcs |= {(i, sink), (sink, i)}
        # 2 arcs per Potts pair and 2 per node whose costs differ, none for a tied node
        terminal = np.count_nonzero(problem.cost_object != problem.cost_background)
        assert len(cap) == len(indices) == 2 * len(pairs) + 2 * terminal
        tails = np.repeat(np.arange(n + 2), np.diff(indptr))
        assert set(zip(tails.tolist(), indices.tolist())) == arcs
        dense = np.zeros((n + 2, n + 2))
        dense[tails, indices] = cap
        assert np.array_equal(dense, expected)


def test_solve_with_tied_costs_matches_enumeration(rng):
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 17))
        problem = _tied_problem(rng, n)
        i, j = problem.edges.T
        pairs = [tuple(sorted(e)) for e in problem.edges.tolist()]
        seen |= {"tie"} if np.any(problem.cost_object == problem.cost_background) else set()
        seen |= {"self-loop"} if np.any(i == j) else set()
        seen |= {"repeated pair"} if len(set(pairs)) < len(pairs) else set()
        seen |= {"zero weight"} if np.any(problem.edge_weight == 0) else set()
        labeling = solve_binary(problem)
        oracle, best = enumerate_labelings_oracle(problem)
        # the oracle's first minimum in background-first order is the one whose object
        # nodes every other minimum contains: ties go to background
        assert np.array_equal(labeling.labels, oracle.labels)
        assert mrf_energy(problem, labeling.labels) == best
        assert labeling.flow_value == pytest.approx(best, rel=CERTIFICATE_RTOL, abs=1e-12)
    assert seen == {"tie", "self-loop", "repeated pair", "zero weight"}


def test_tied_nodes_get_no_terminal_arc_and_go_background():
    problem = MRFProblem(
        np.array([3.0, 0.0, 2.0]), np.array([3.0, 1.0, 2.0]), np.array([[2, 2]]), np.array([5.0])
    )
    cap, _, _ = _network(problem, np.array([0.0, 1.0, 0.0]), np.zeros(3))
    assert len(cap) == 2  # node 1's source arc and its reverse; self-loops are never cut
    labeling = solve_binary(problem)
    assert labeling.labels.tolist() == [False, True, False]
    assert labeling.flow_value == 5.0


def test_rasterize():
    labels_img = np.array([[[0, 0], [1, 1]]], dtype=np.int32)
    sp = SuperpixelMap(labels_img)
    full = rasterize(Labeling(np.array([True, True])), sp)
    assert full.all()
    empty = rasterize(Labeling(np.array([False, False])), sp)
    assert not empty.any()
    one = rasterize(Labeling(np.array([True, False])), sp)
    assert np.array_equal(one[0], [[True, True], [False, False]])


def test_rasterize_rejects_a_labeling_short_of_the_superpixels():
    sp = SuperpixelMap(np.array([[[0, 0], [1, 1]]], dtype=np.int32))
    with pytest.raises(ValueError, match="labeling does not cover all superpixels"):
        rasterize(Labeling(np.array([True])), sp)


def test_rasterize_frames_with_unequal_superpixel_counts():
    labels_img = np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[2, 1], [0, 2]]], dtype=np.int32)
    sp = SuperpixelMap(labels_img)  # nodes 0-1, 2, 3-5
    assert sp.counts == [2, 1, 3]
    masks = rasterize(Labeling(np.array([False, True, True, False, True, False])), sp)
    assert masks.dtype == bool
    assert masks.tolist() == [
        [[False, True], [True, False]],
        [[True, True], [True, True]],
        [[False, True], [False, False]],
    ]
