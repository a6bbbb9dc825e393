"""Exact binary labeling by min-cut, checked by its certificate.

Builds random object/background labeling problems, solves them with the
s-t min-cut, and checks each labeling's energy against the max-flow value:
a cut whose energy equals a flow's value is a minimum. Also shows the
ties-to-background rule and the effect of huge coupling.
"""

import numpy as np

from vidseg.mrf import MRFProblem, mrf_energy, solve_binary


def random_problem(rng, n):
    pairs = sorted(
        {tuple(sorted(rng.integers(0, n, size=2).tolist())) for _ in range(2 * n)}
    )
    pairs = [p for p in pairs if p[0] != p[1]]
    edges = np.array(pairs, dtype=np.int64) if pairs else np.empty((0, 2), np.int64)
    return MRFProblem(
        cost_object=rng.integers(0, 20, size=n).astype(float),
        cost_background=rng.integers(0, 20, size=n).astype(float),
        edges=edges,
        edge_weight=rng.integers(0, 12, size=len(edges)).astype(float),
    )


def main():
    rng = np.random.default_rng(4)
    print("25 random 12-node problems, min-cut energy vs. max-flow value:")
    worst = 0.0
    for k in range(25):
        problem = random_problem(rng, 12)
        labeling = solve_binary(problem)
        got = mrf_energy(problem, labeling.labels)
        worst = max(worst, abs(got - labeling.flow_value))
        if k < 5:
            print(f"  instance {k:2d}: energy {got:7.1f} = max-flow value {labeling.flow_value:7.1f}")
    print(f"  ... largest |energy - flow value| of the 25: {worst:.1e}; each cut is a global minimum.")

    print("\nTie-breaking: equal unary totals under strong coupling")
    tie = MRFProblem(
        cost_object=np.array([0.0, 1.0]),
        cost_background=np.array([1.0, 0.0]),
        edges=np.array([[0, 1]]),
        edge_weight=np.array([10.0]),
    )
    labels = solve_binary(tie).labels
    print(f"  labels = {labels}  (both background: ties resolve to background)")

    print("\nCoupling sweep on a 6-chain with mixed unaries:")
    rng = np.random.default_rng(9)
    cost_obj = rng.uniform(0, 5, size=6)
    cost_bg = rng.uniform(0, 5, size=6)
    edges = np.array([(i, i + 1) for i in range(5)])
    for w in (0.0, 1.0, 100.0):
        problem = MRFProblem(cost_obj, cost_bg, edges, np.full(5, w))
        labels = solve_binary(problem).labels
        print(f"  pairwise weight {w:6.1f}: labels = {labels.astype(int)}")
    print("Stronger coupling smooths the labeling until it is uniform.")


if __name__ == "__main__":
    main()
