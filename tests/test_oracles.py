"""Self-tests of the references in oracles.py, on cases small enough to work by hand."""

import numpy as np
import pytest

from conftest import graph_from_edges
from oracles import dense_solve_oracle, enumerate_labelings_oracle
from vidseg.mrf import MRFProblem, mrf_energy, solve_binary


def test_dense_oracle_two_node():
    g = graph_from_edges(2, spatial=[(0, 1, 1.0)])
    x = dense_solve_oracle(g, np.array([1.0, 0.0]), mu=0.5)
    assert np.allclose(x, [0.6, 0.4], atol=1e-14)


def test_dense_oracle_no_edges_gives_eta_c():
    g = graph_from_edges(3, spatial=[])
    c = np.array([0.9, 0.3, 0.0])
    x = dense_solve_oracle(g, c, mu=0.5)
    assert np.allclose(x, c / 3.0, atol=1e-15)


def test_dense_oracle_size_limit():
    g = graph_from_edges(2, spatial=[(0, 1, 1.0)])
    g.frame_offsets = np.array([0, 1001])
    with pytest.raises(ValueError, match="1000"):
        dense_solve_oracle(g, np.zeros(1001), mu=0.5)


def test_enumeration_unary_only():
    problem = MRFProblem(
        cost_object=np.array([0.0, 3.0, 1.0]),
        cost_background=np.array([2.0, 1.0, 5.0]),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    labeling, best = enumerate_labelings_oracle(problem)
    assert labeling.labels.tolist() == [True, False, True]
    assert best == 2.0


def test_enumeration_tie_prefers_background():
    problem = MRFProblem(
        cost_object=np.ones(3),
        cost_background=np.ones(3),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    labeling, best = enumerate_labelings_oracle(problem)
    assert not labeling.labels.any()
    assert best == 3.0


def test_enumeration_refuses_large():
    problem = MRFProblem(
        cost_object=np.zeros(17),
        cost_background=np.zeros(17),
        edges=np.empty((0, 2), dtype=np.int64),
        edge_weight=np.empty(0),
    )
    with pytest.raises(ValueError, match="16"):
        enumerate_labelings_oracle(problem)


def test_enumeration_agrees_with_mincut(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        edges = []
        for i in range(n - 1):
            edges.append((i, i + 1))
        problem = MRFProblem(
            cost_object=rng.integers(0, 10, size=n).astype(float),
            cost_background=rng.integers(0, 10, size=n).astype(float),
            edges=np.array(edges, dtype=np.int64),
            edge_weight=rng.integers(0, 8, size=len(edges)).astype(float),
        )
        _, best = enumerate_labelings_oracle(problem)
        assert mrf_energy(problem, solve_binary(problem).labels) == best
