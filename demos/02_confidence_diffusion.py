"""Confidence diffusion on a small graph, two ways.

Solves the smoothness+fit problem on a 6-node chain by (a) the damped
diffusion iteration and (b) conjugate gradients on the stationarity system,
and shows they agree and that the solution is stationary. Both read the
graph through its normalized operator S = D^-1/2 A D^-1/2, which
diffusion_operator keeps as the graph's edge list: S @ x is two bincounts.
"""

import numpy as np

from vidseg.graph import assemble
from vidseg.propagation import (
    PropagationConfig,
    diffusion_operator,
    propagate,
    propagate_iterative,
    stationarity_residual,
)


def chain_graph(n):
    i = np.arange(n - 1)
    return assemble(
        np.array([0, n]),
        (i, i + 1, np.ones(n - 1)),
        (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)),
    )


def main():
    n = 6
    s = diffusion_operator(chain_graph(n))
    c = np.zeros(n)
    c[0] = 1.0  # one confidently detected node; the rest are unlabeled
    print(f"Chain of {n} superpixels, initial confidence C = {c}")

    cfg = PropagationConfig(mu=0.5, tolerance=1e-12)
    print(f"mu={cfg.mu} -> eta={cfg.eta:.4f}, damping alpha={cfg.alpha:.4f}\n")

    it = propagate_iterative(s, c, cfg)
    cg = propagate(s, c, cfg)

    with np.printoptions(precision=4, suppress=True):
        print(f"iterative ({it.iterations:3d} steps): X = {it.x}")
        print(f"conjgrad  ({cg.iterations:3d} steps): X = {cg.x}")

    print(f"\nmax |iterative - conjgrad| = {np.max(np.abs(it.x - cg.x)):.2e}")
    print(f"stationarity residual      = {stationarity_residual(cg.x, s, c, cfg.mu):.2e}")
    print("\nConfidence decays smoothly along the chain instead of staying a spike.")


if __name__ == "__main__":
    main()
