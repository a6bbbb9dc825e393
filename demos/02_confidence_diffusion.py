"""Confidence diffusion on a small graph, three ways.

Solves the smoothness+fit problem on a 6-node chain by (a) the damped
diffusion iteration, (b) conjugate gradients on the stationarity system,
and (c) a dense direct solve, and shows they agree.
"""

import numpy as np

from vidseg.graph import assemble
from vidseg.propagation import (
    PropagationConfig,
    energy,
    propagate_iterative,
    propagate_linear,
    stationarity_residual,
)
from vidseg.synth import dense_solve_oracle


def chain_graph(n):
    i = np.arange(n - 1)
    return assemble(
        np.array([0, n]),
        (i, i + 1, np.ones(n - 1)),
        (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)),
    )


def main():
    n = 6
    graph = chain_graph(n)
    c = np.zeros(n)
    c[0] = 1.0  # one confidently detected node; the rest are unlabeled
    print(f"Chain of {n} superpixels, initial confidence C = {c}")

    cfg = PropagationConfig(mu=0.5, tolerance=1e-12)
    print(f"mu={cfg.mu} -> eta={cfg.eta:.4f}, damping alpha={cfg.alpha:.4f}\n")

    it = propagate_iterative(graph, c, cfg)
    lin = propagate_linear(graph, c, cfg)
    dense = dense_solve_oracle(graph, c, cfg.mu)

    with np.printoptions(precision=4, suppress=True):
        print(f"iterative ({it.iterations:3d} steps): X = {it.x}")
        print(f"conjgrad  ({lin.iterations:3d} steps): X = {lin.x}")
        print(f"dense LU solve:              X = {dense}")

    print(f"\nmax |iterative - linear| = {np.max(np.abs(it.x - lin.x)):.2e}")
    print(f"max |linear - dense|     = {np.max(np.abs(lin.x - dense)):.2e}")
    print(f"stationarity residual    = {stationarity_residual(lin.x, graph, c, cfg.mu):.2e}")
    print(f"\nenergy at C:        {energy(c, graph, c, cfg.mu):.4f}")
    print(f"energy at solution: {energy(lin.x, graph, c, cfg.mu):.4f}")
    print("\nConfidence decays smoothly along the chain instead of staying a spike.")


if __name__ == "__main__":
    main()
