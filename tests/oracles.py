"""Independent references the solver tests check vidseg against.

None of these is on a vidseg route: the dense solve shares its fixed point
with the diffusion iteration and the CG solve, enumeration finds the exact
minimum the min-cut must reach, `energy` is the objective the diffusion
minimizes, `degrees` sums the affinities the diffusion normalizes by,
`dense_operator` spells out S as a matrix, and `responsibilities` exposes the
E-step posteriors.
"""

import numpy as np

from vidseg.gmm import GaussianMixture, _coefficients, _features, _log_normalize
from vidseg.mrf import Labeling, MRFProblem, mrf_energy
from vidseg.propagation import diffusion_operator

DENSE_ORACLE_LIMIT = 1000
ENUMERATION_LIMIT = 16


def dense_solve_oracle(graph, c, mu):
    """Reference solution of (I - (1 - eta) S) X = eta C by dense LU solve.

    Independent of the sparse solvers; refuses graphs above 1000 nodes.
    """
    n = graph.n_nodes
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} nodes")
    eta = mu / (1.0 + mu)
    m = np.eye(n) - (1.0 - eta) * dense_operator(diffusion_operator(graph))
    return np.linalg.solve(m, eta * np.asarray(c, dtype=np.float64))


def enumerate_labelings_oracle(problem: MRFProblem):
    """Exhaustive minimum of the binary MRF energy.

    Enumerates labelings in lexicographic order (background first), so the
    first minimum reproduces the ties-to-background rule. Refuses more than
    16 nodes.
    """
    n = problem.n_nodes
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle limited to {ENUMERATION_LIMIT} nodes")
    codes = np.arange(2**n, dtype=np.uint32)
    # bit k encodes node k, most significant first: row order is lexicographic
    bits = (codes[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    labels = bits.astype(bool)
    energies = labels @ problem.cost_object + (~labels) @ problem.cost_background
    if len(problem.edges):
        disagree = labels[:, problem.edges[:, 0]] != labels[:, problem.edges[:, 1]]
        energies = energies + disagree @ problem.edge_weight
    best = int(np.argmin(energies))
    labeling = Labeling(labels=labels[best].copy())
    return labeling, float(mrf_energy(problem, labeling.labels))


def dense_operator(s):
    """S as a dense (n, n) array: U + U.T, with U summing each listed (i, j)'s s,
    so the result is exactly symmetric."""
    upper = np.zeros((s.n_nodes, s.n_nodes))
    np.add.at(upper, (s.i, s.j), s.s)
    return upper + upper.T


def degrees(graph):
    """Row sums of the affinity matrix A, summed straight from the graph's edge lists."""
    n = graph.n_nodes
    i = np.concatenate([graph.spatial_i, graph.temporal_i])
    j = np.concatenate([graph.spatial_j, graph.temporal_j])
    w = np.concatenate([graph.spatial_w, graph.temporal_w])
    return np.bincount(i, w, n) + np.bincount(j, w, n)


def energy(x, graph, c, mu):
    """Smoothness + fit objective over the normalized graph.

    The smoothness term is the full double sum over ordered pairs
    sum_ij A_ij (x_i d_i^-1/2 - x_j d_j^-1/2)^2, with d^-1/2 taken as 0 on
    isolated nodes; the fit term is mu * ||x - c||^2.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    active = degrees(graph) > 0
    smooth = 2.0 * (float(x[active] @ x[active]) - float(x @ diffusion_operator(graph).dot(x)))
    fit = mu * float(np.sum((x - c) ** 2))
    return smooth + fit


def responsibilities(gmm: GaussianMixture, colors):
    """E-step posteriors (n, K) and per-sample mixture log-likelihood (n,)."""
    feats, center = _features(np.atleast_2d(np.asarray(colors, dtype=np.float64)).T)
    post, log_norm = _log_normalize(_coefficients(gmm, center) @ feats)
    return post.T, log_norm
