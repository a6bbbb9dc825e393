"""Confidence diffusion on a small graph, two ways.

Solves the smoothness+fit problem on a 6-node chain by (a) the paper's damped
diffusion iteration, written out below, and (b) vidseg's conjugate-gradient
solve of the stationarity system, and shows they agree and that the solution
is stationary. Both read the graph through its normalized operator
S = D^-1/2 A D^-1/2, which diffusion_operator returns as the graph itself
with normalized weights: S @ x is two bincounts over the one edge list.
"""

import numpy as np

from vidseg.graph import assemble
from vidseg.propagation import (
    PropagationConfig,
    diffusion_operator,
    propagate,
    stationarity_residual,
)


def chain_graph(n):
    """n nodes in one frame, joined in a path by n - 1 unit-weight spatial edges."""
    i = np.arange(n - 1)
    return assemble(np.array([0, n]), i, i + 1, np.ones(n - 1), n - 1)


def main():
    n = 6
    s = diffusion_operator(chain_graph(n))
    c = np.zeros(n)
    c[0] = 1.0  # one confidently detected node; the rest are unlabeled
    print(f"Chain of {n} superpixels, initial confidence C = {c}")

    cfg = PropagationConfig(mu=0.5, tolerance=1e-12)
    alpha = 1.0 / (1.0 + cfg.mu)
    print(f"mu={cfg.mu} -> eta={cfg.eta:.4f}, damping alpha={alpha:.4f}\n")

    # X <- alpha S X + (1 - alpha) C from X = C, until successive iterates agree
    x, steps, change = c.copy(), 0, np.inf
    while change > cfg.tolerance:
        x_next = alpha * s.dot(x) + (1.0 - alpha) * c
        x, steps, change = x_next, steps + 1, np.max(np.abs(x_next - x))
    cg = propagate(s, c, cfg)

    with np.printoptions(precision=4, suppress=True):
        print(f"iterative ({steps:3d} steps): X = {x}")
        print(f"conjgrad  ({cg.iterations:3d} steps): X = {cg.x}")

    print(f"\nmax |iterative - conjgrad| = {np.max(np.abs(x - cg.x)):.2e}")
    print(f"stationarity residual      = {stationarity_residual(cg.x, s, c, cfg.mu):.2e}")
    print("\nConfidence decays smoothly along the chain instead of staying a spike.")


if __name__ == "__main__":
    main()
