import numpy as np
import pytest

from conftest import graph_from_edges, random_graph
from oracles import dense_operator, dense_solve_oracle, energy
from vidseg.graph import build_graph
from vidseg.proposals import (
    ConfidenceField,
    filter_by_confidence,
    pool_confidence,
    score_proposals,
)
from vidseg.propagation import (
    ConvergenceError,
    PropagationConfig,
    adapt_confidence,
    diffusion_operator,
    propagate,
    propagate_iterative,
    stationarity_residual,
)
from vidseg.synth import SynthConfig, generate
from vidseg.video import compute_superpixel_stats


def two_node_graph():
    return graph_from_edges(2, spatial=[(0, 1, 1.0)])


def operator_from_edges(n, spatial):
    return diffusion_operator(graph_from_edges(n, spatial=spatial))


def test_config_eta_alpha():
    cfg = PropagationConfig(mu=0.5)
    assert cfg.eta == pytest.approx(1 / 3)
    assert cfg.alpha == pytest.approx(2 / 3)
    assert cfg.alpha == pytest.approx(1 - cfg.eta)


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(mu=-1)
    with pytest.raises(ValueError):
        PropagationConfig(tolerance=0)
    with pytest.raises(ValueError, match="mu"):  # 1 - eta rounds to 1: no fit term
        PropagationConfig(mu=1e-17)
    PropagationConfig(mu=1e-15)


def _dense_normalized_affinity(n, edges):
    """D^-1/2 A D^-1/2 built entry by entry from (i, j, w) triples."""
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] += w
        a[j, i] += w
    d = a.sum(axis=1)
    dinv = np.array([1.0 / np.sqrt(v) if v > 0 else 0.0 for v in d])
    return dinv[:, None] * a * dinv[None, :]


def test_operator_matches_a_dense_normalized_affinity(rng):
    for _ in range(30):
        n = int(rng.integers(4, 40))
        # node 0 has no edge and node 1 only a zero-weight one: both rows of S are zero
        edges = [(1, 2, 0.0)]
        for _ in range(int(rng.integers(1, 3 * n))):
            i, j = (int(v) for v in rng.choice(np.arange(2, n), size=2, replace=False))
            edges.append((i, j, 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 3.0))))
        # repeated pairs, in the same and in the reversed order
        edges += edges[1:3] + [(j, i, w) for i, j, w in edges[1:4]]
        order = rng.permutation(len(edges))
        half = len(edges) // 2
        g = graph_from_edges(n, spatial=[edges[k] for k in order[:half]],
                             temporal=[edges[k] for k in order[half:]])
        s = diffusion_operator(g)
        want_s = _dense_normalized_affinity(n, edges)
        x = rng.standard_normal(n)
        # the unnormalized graph's own dot is A @ x
        got_a, want_a = g.dot(x), dense_operator(g) @ x
        assert np.max(np.abs(got_a - want_a)) <= 1e-15 * np.max(np.abs(want_a))
        got, want = s.dot(x), want_s @ x
        assert np.all(got[:2] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        dense = dense_operator(s)
        assert np.array_equal(dense, dense.T) and np.all(np.diag(dense) == 0.0)
        assert np.allclose(dense, want_s, rtol=1e-15, atol=0.0)


def test_energy_zero_at_fit_without_edges():
    g = graph_from_edges(2, spatial=[(0, 1, 0.0)])
    c = np.array([0.3, 0.9])
    assert energy(c, g, c, mu=0.5) == 0.0


def test_energy_symmetric_case():
    g = two_node_graph()
    x = np.array([1.0, 1.0])
    assert energy(x, g, x, mu=0.5) == pytest.approx(0.0, abs=1e-15)


def test_energy_double_counted_sum():
    g = two_node_graph()
    x = np.array([1.0, 0.0])
    assert energy(x, g, x, mu=0.5) == pytest.approx(2.0, abs=1e-15)


def test_iterative_single_step():
    s = diffusion_operator(two_node_graph())
    c = np.array([1.0, 0.0])
    cfg = PropagationConfig(mu=0.5, tolerance=1e-300, max_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        propagate_iterative(s, c, cfg)
    assert np.allclose(err.value.x, [1 / 3, 2 / 3], atol=1e-15)


def test_two_node_fixed_point_both_routes():
    s = diffusion_operator(two_node_graph())
    c = np.array([1.0, 0.0])
    cfg = PropagationConfig(mu=0.5, tolerance=1e-12)
    for solve in (propagate_iterative, propagate):
        res = solve(s, c, cfg)
        assert np.allclose(res.x, [0.6, 0.4], atol=1e-10)


def test_isolated_node_solution():
    s = operator_from_edges(3, spatial=[(0, 1, 1.0)])
    c = np.array([0.0, 0.0, 0.9])
    cfg = PropagationConfig(mu=0.5, tolerance=1e-12)
    res = propagate(s, c, cfg)
    assert res.x[2] == pytest.approx(0.3, abs=1e-12)  # eta * C on zero rows


def test_zero_input_zero_output():
    s = diffusion_operator(two_node_graph())
    cfg = PropagationConfig()
    for solve in (propagate_iterative, propagate):
        res = solve(s, np.zeros(2), cfg)
        assert np.all(res.x == 0)


def test_uniform_input_on_regular_graph():
    # 4-cycle: every node has degree 2, S row sums are 1
    s = operator_from_edges(
        4, spatial=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    )
    c = np.full(4, 0.7)
    res = propagate(s, c, PropagationConfig(tolerance=1e-12))
    assert np.allclose(res.x, 0.7, atol=1e-10)


def test_solver_equivalence_and_oracle(rng):
    cfg = PropagationConfig(tolerance=1e-12)
    for _ in range(10):
        g = random_graph(rng, max_nodes=60)
        c = rng.random(g.n_nodes)
        s = diffusion_operator(g)
        x_it = propagate_iterative(s, c, cfg).x
        x_lin = propagate(s, c, cfg).x
        x_dense = dense_solve_oracle(g, c, cfg.mu)
        assert np.max(np.abs(x_it - x_lin)) <= 1e-6
        assert np.max(np.abs(x_lin - x_dense)) <= 1e-8


def _s_clip_pooled():
    synth = SynthConfig(seed=7)
    ds = generate(synth)
    sp = ds.superpixels
    s = diffusion_operator(build_graph(sp, ds.flows, *compute_superpixel_stats(ds.video, sp)))
    scored = score_proposals(ds.proposals, ds.motion_masks)
    pooled = pool_confidence(filter_by_confidence(scored, synth.class_id, 0.01),
                             synth.class_id, ds.superpixels)
    return s, pooled


def test_solver_equivalence_at_clip_scale():
    # the S clip's graph (5,450 nodes) and pooled field: past the dense oracle's reach
    s, pooled = _s_clip_pooled()
    c = pooled.flat
    cfg = PropagationConfig(tolerance=1e-10)
    x_cg = propagate(s, c, cfg).x
    x_it = propagate_iterative(s, c, cfg).x
    assert np.max(np.abs(x_cg - x_it)) <= 10 * cfg.tolerance
    for x in (x_cg, x_it):
        assert stationarity_residual(x, s, c, cfg.mu) <= 10 * cfg.tolerance


def test_adapt_confidence_certifies_the_s_clip():
    s, pooled = _s_clip_pooled()
    c = pooled.flat
    # CG's stopping rule alone bounds the residual (it read 0.09 of that bound)
    cfg = PropagationConfig()
    residual = stationarity_residual(propagate(s, c, cfg).x, s, c, cfg.mu)
    assert residual <= (1 + cfg.mu) * cfg.tolerance * cfg.eta * np.linalg.norm(c)
    adapt_confidence(pooled, s, cfg)
    # CG run on past the round-off floor: only the round-off slack certifies it
    adapt_confidence(pooled, s, PropagationConfig(tolerance=1e-17))


def test_adapt_confidence_rejects_an_uncertified_solution(monkeypatch):
    import vidseg.propagation

    s, pooled = _s_clip_pooled()
    solve = vidseg.propagation.propagate

    def off_by(delta):
        def solve_off(s, c, cfg):
            result = solve(s, c, cfg)
            result.x[0] += delta
            return result
        return solve_off

    cfg = PropagationConfig()
    monkeypatch.setattr(vidseg.propagation, "propagate", off_by(1e-9))  # within the bound
    adapt_confidence(pooled, s, cfg)
    monkeypatch.setattr(vidseg.propagation, "propagate", off_by(1e-6))
    with pytest.raises(ConvergenceError, match="diffusion uncertified") as err:
        adapt_confidence(pooled, s, cfg)
    assert err.value.residual > 1e-6 and err.value.iterations > 0


def test_stationarity_residual_small(rng):
    cfg = PropagationConfig(tolerance=1e-12)
    for _ in range(5):
        s = diffusion_operator(random_graph(rng, max_nodes=50))
        c = rng.random(s.n_nodes)
        x = propagate(s, c, cfg).x
        assert stationarity_residual(x, s, c, cfg.mu) <= 1e-7


def test_optimality_of_linear_solution(rng):
    # Eq-(6) fixed points minimize half the double-sum smoothness plus mu*fit
    cfg = PropagationConfig(tolerance=1e-14)
    g = random_graph(rng, max_nodes=30)
    c = rng.random(g.n_nodes)
    x = propagate(diffusion_operator(g), c, cfg).x

    def objective(v):
        return 0.5 * energy(v, g, c, mu=0.0) + cfg.mu * float(np.sum((v - c) ** 2))

    base = objective(x)
    for _ in range(100):
        delta = rng.normal(size=len(x))
        delta *= 1e-3 / np.linalg.norm(delta)
        assert objective(x + delta) >= base - 1e-12


def test_iteration_residual_contracts(rng):
    s = diffusion_operator(random_graph(rng, max_nodes=40))
    c = rng.random(s.n_nodes)
    cfg = PropagationConfig(mu=0.5)
    x_prev = c.copy()
    x = cfg.alpha * s.dot(x_prev) + (1 - cfg.alpha) * c
    prev_res = np.max(np.abs(x - x_prev))
    for _ in range(30):
        x_next = cfg.alpha * s.dot(x) + (1 - cfg.alpha) * c
        res = np.max(np.abs(x_next - x))
        assert res <= (1 - cfg.eta) * prev_res + 1e-15
        x, prev_res = x_next, res


def test_maximum_principle(rng):
    cfg = PropagationConfig(tolerance=1e-12)
    for _ in range(10):
        s = diffusion_operator(random_graph(rng, max_nodes=50))
        c = rng.random(s.n_nodes)
        x = propagate(s, c, cfg).x
        assert x.min() >= -1e-10
        assert x.max() <= 1.0 + 1e-10


def test_convergence_error_carries_state():
    s = operator_from_edges(3, spatial=[(0, 1, 1.0), (1, 2, 1.0)])
    cfg = PropagationConfig(tolerance=1e-300, max_iterations=3)
    with pytest.raises(ConvergenceError) as err:
        propagate_iterative(s, np.array([1.0, 0.0, 0.5]), cfg)
    assert err.value.iterations == 3
    assert err.value.residual > 0
    assert err.value.x.shape == (3,)


def test_adapt_confidence_tags_and_clamps():
    s = diffusion_operator(two_node_graph())
    field = ConfidenceField("cat", np.array([1.0, 0.0]), [2])
    adapted = adapt_confidence(field, s, PropagationConfig(tolerance=1e-12))
    assert adapted.class_id == "cat"
    assert np.allclose(adapted.values[0], [0.6, 0.4], atol=1e-10)


def test_adapt_confidence_dimension_guard():
    s = diffusion_operator(two_node_graph())
    field = ConfidenceField("cat", np.array([1.0, 0.0, 0.5]), [3])
    with pytest.raises(ValueError, match="superpixels"):
        adapt_confidence(field, s, PropagationConfig())


def test_disconnected_components_solve_independently(rng):
    a = [(0, 1, 1.5), (1, 2, 0.5)]
    b = [(3, 4, 2.0)]
    s_all = operator_from_edges(5, spatial=a + b)
    s_a = operator_from_edges(3, spatial=a)
    s_b = operator_from_edges(2, spatial=[(0, 1, 2.0)])
    c = rng.random(5)
    cfg = PropagationConfig(tolerance=1e-13)
    x_all = propagate(s_all, c, cfg).x
    x_a = propagate(s_a, c[:3], cfg).x
    x_b = propagate(s_b, c[3:], cfg).x
    assert np.allclose(x_all, np.concatenate([x_a, x_b]), atol=1e-10)
