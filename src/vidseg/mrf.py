"""Binary MRF segmentation over the space-time superpixel graph.

The energy combines color and semantic unaries with Potts pairwise terms
that reuse the graph affinities:

    E(x) = sum_i (psi_c + lambda_o * psi_o)
         + lambda_s * sum_spatial  w_ij [x_i != x_j]
         + lambda_t * sum_temporal w_ij [x_i != x_j]

With two labels and non-negative pairwise weights the energy is submodular,
so a single s-t min-cut gives the exact global minimum; ties resolve to
background (the minimal source side of the cut). solve_binary finds the cut
with SciPy's compiled max-flow and certifies it against the energy. The
network holds two arcs per Potts edge (one each way) and two per node whose
costs differ (its one terminal arc and that arc's zero-capacity reverse), as
in Kolmogorov & Zabih, TPAMI 2004. SciPy is imported inside the functions
that use it, so importing mrf loads none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import log_likelihoods
from .propagation import ConvergenceError

LAMBDA_OBJECT = 10.0
LAMBDA_SPATIAL = 1000.0
LAMBDA_TEMPORAL = 2000.0
CONFIDENCE_CLAMP = 1e-6
FLOW_SCALE = 2**29  # int32 headroom: a reverse residual is capacity plus flow
MINCUT_EPS = 1e-12  # residual arcs below this share of the terminal total are cut
CERTIFICATE_RTOL = 1e-9
MAX_ROUNDS = 32  # each round shrinks the flow still missing ~2**29 / arcs-fold


@dataclass
class MRFProblem:
    cost_object: np.ndarray  # (n,)
    cost_background: np.ndarray  # (n,)
    # (m, 2) int32 and (m,) non-negative Potts weights; int32 and float64 input is
    # kept, not copied, so every class's problem shares the run's pairwise_weights
    edges: np.ndarray
    edge_weight: np.ndarray

    def __post_init__(self):
        self.cost_object = np.asarray(self.cost_object, dtype=np.float64)
        self.cost_background = np.asarray(self.cost_background, dtype=np.float64)
        edges = np.asarray(self.edges).reshape(-1, 2)
        self.edge_weight = np.asarray(self.edge_weight, dtype=np.float64)
        n = len(self.cost_object)
        if len(self.cost_background) != n or self.edge_weight.shape != (len(edges),):
            raise ValueError("MRF needs two costs per node and one weight per edge")
        if len(edges) and (edges.min() < 0 or edges.max() >= n):  # before a cast could wrap
            raise ValueError(f"MRF edges must join node ids in [0, {n})")
        self.edges = edges.astype(np.int32, copy=False)
        if np.any(self.edge_weight < 0):
            raise ValueError("pairwise weights must be non-negative")
        if not (
            np.all(np.isfinite(self.cost_object))
            and np.all(np.isfinite(self.cost_background))
            and np.all(np.isfinite(self.edge_weight))
        ):
            raise ValueError("MRF costs must be finite")

    @property
    def n_nodes(self):
        return len(self.cost_object)


@dataclass
class Labeling:
    """Per-superpixel object/background assignment; True = object."""

    labels: np.ndarray  # (n,) bool
    flow_value: float | None = None  # max-flow plus unary constant; = energy
    rounds: int = 0  # scaled max-flow rounds that produced it


def semantic_unary(c):
    """(-log c, -log(1-c)) with c clamped into [1e-6, 1 - 1e-6]."""
    c = np.clip(np.asarray(c, dtype=np.float64), CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP)
    return -np.log(c), -np.log(1.0 - c)


def color_unary(gmm_object, gmm_background, colors):
    """Color costs from the two mixtures, normalized per node to a posterior.

    Raw mixture densities are not comparable across models, so the
    likelihood is normalized two-way before the negative log:
    U(obj) = p_obj / (p_obj + p_bg).
    """
    lo, lb = log_likelihoods([gmm_object, gmm_background], colors)
    denom = np.logaddexp(lo, lb)
    return denom - lo, denom - lb


def pairwise_weights(graph, lambda_spatial=LAMBDA_SPATIAL, lambda_temporal=LAMBDA_TEMPORAL):
    """Potts terms of the segmentation energy, reusing graph affinities: (m, 2) int32 edges,
    spatial then temporal, and their (m,) weights. No class enters them."""
    edges = np.empty((len(graph.i), 2), dtype=np.int32)
    edges[:, 0], edges[:, 1] = graph.i, graph.j
    ns = graph.n_spatial
    weights = np.concatenate([lambda_spatial * graph.w[:ns], lambda_temporal * graph.w[ns:]])
    return edges, weights


def build_problem(
    potts, confidence, colors, gmm_object, gmm_background, lambda_object=LAMBDA_OBJECT
) -> MRFProblem:
    """Assemble one class's unaries over potts, the (edges, weights) of pairwise_weights,
    whose arrays the problem shares."""
    sem_obj, sem_bg = semantic_unary(confidence)
    col_obj, col_bg = color_unary(gmm_object, gmm_background, colors)
    edges, weights = potts
    return MRFProblem(
        cost_object=col_obj + lambda_object * sem_obj,
        cost_background=col_bg + lambda_object * sem_bg,
        edges=edges,
        edge_weight=weights,
    )


def mrf_energy(problem: MRFProblem, labels):
    """Evaluate the labeling energy (True = object)."""
    labels = np.asarray(labels, dtype=bool)
    unary = np.where(labels, problem.cost_object, problem.cost_background).sum()
    disagree = labels[problem.edges[:, 0]] != labels[problem.edges[:, 1]]
    return float(unary + problem.edge_weight[disagree].sum())


def solve_binary(problem: MRFProblem) -> Labeling:
    """Exact global minimum of the binary Potts energy via s-t min-cut.

    Source side = object: source->i carries the background cost and i->sink
    the object cost, both less their minimum (a shift shared by every cut),
    so each node has at most one terminal arc, the one of positive capacity;
    each Potts edge is an arc each way. SciPy's Dinic takes integer
    capacities, so rounds floor the float residual scaled to a cut's residual
    (a bound on the flow still missing) and subtract the integer flow, until
    the nodes reachable over arcs above MINCUT_EPS of the smaller terminal
    total exclude the sink and their cut's residual, their energy less the
    flow, is within the certificate. Those nodes are labeled object, so ties
    go to background. ConvergenceError is raised if
    |energy - flow| > CERTIFICATE_RTOL * max(energy, 1), after MAX_ROUNDS, or if
    maximum_flow returns its flow on another sparsity pattern than the network's.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    n = problem.n_nodes
    source, sink = n, n + 1
    base = np.minimum(problem.cost_object, problem.cost_background)
    to_source, to_sink = problem.cost_background - base, problem.cost_object - base
    eps = MINCUT_EPS * min(to_source.sum(), to_sink.sum())
    cap, indices, indptr = _network(problem, to_source, to_sink)
    offset = base.sum()
    del base, to_source, to_sink  # not live while maximum_flow runs

    flow_value, rounds = 0.0, 0
    side = np.arange(n + 2) == source  # later the source side of a cut
    while True:
        reached = _reachable(indptr, indices, cap > eps, source)
        if not reached[sink]:
            side = reached
        bound = cap[np.repeat(side, np.diff(indptr)) & ~side[indices]].sum()
        # bound is now the labeling's energy less the flow; half the
        # tolerance is left for round-off in the energy
        if not reached[sink] and bound <= 0.5 * CERTIFICATE_RTOL * max(flow_value + offset, 1):
            break
        if rounds == MAX_ROUNDS:
            message = f"min-cut uncertified after {rounds} rounds"
            raise ConvergenceError(message, reached[:n], bound, rounds)
        # no flow still missing exceeds bound, so no int32 capacity, flow or
        # residual overflows
        scale = FLOW_SCALE / bound
        icap = (np.clip(cap, 0.0, bound) * scale).astype(np.int32)
        graph = csr_array((icap, indices, indptr), shape=(n + 2, n + 2))
        result = maximum_flow(graph, source, sink, method="dinic")
        flow = result.flow
        if not (np.array_equal(flow.indptr, indptr) and np.array_equal(flow.indices, indices)):
            message = "maximum_flow returned its flow on another sparsity pattern"
            raise ConvergenceError(message, reached[:n], bound, rounds)
        rounds += 1
        cap -= flow.data / scale
        flow_value += result.flow_value / scale
        side = _reachable(indptr, indices, icap > flow.data, source)
        del graph, result, flow, icap

    labels = reached[:n].copy()
    flow_value = float(flow_value + offset)
    energy = mrf_energy(problem, labels)
    if abs(energy - flow_value) > CERTIFICATE_RTOL * max(energy, 1.0):
        raise ConvergenceError(
            f"min-cut certificate failed: energy {energy!r}, flow {flow_value!r}",
            labels, abs(energy - flow_value), rounds,
        )
    return Labeling(labels=labels, flow_value=flow_value, rounds=rounds)


def _network(problem, to_source, to_sink):
    """Capacities, indices and indptr of the CSR network; source n, sink n + 1.

    Arcs: source->i for each node with to_source > 0, i->sink for each with
    to_sink > 0 (a node with both 0 has no terminal arc), and i->j and j->i
    for each Potts edge that is not a self-loop; repeated pairs are summed.
    Every arc's reverse is stored (terminal ones at capacity 0), so that
    maximum_flow returns its flow on exactly this pattern.
    """
    from scipy.sparse import csr_array

    n = problem.n_nodes
    s = np.flatnonzero(to_source > 0).astype(np.int32)
    t = np.flatnonzero(to_sink > 0).astype(np.int32)
    s_ids, t_ids = np.full(len(s), n, dtype=np.int32), np.full(len(t), n + 1, dtype=np.int32)
    keep = problem.edges[:, 0] != problem.edges[:, 1]  # self-loops never cut
    i, j = problem.edges[keep].T
    w = problem.edge_weight[keep]
    net = csr_array(
        (
            np.concatenate([to_source[s], np.zeros(len(s)), to_sink[t], np.zeros(len(t)), w, w]),
            (np.concatenate([s_ids, s, t, t_ids, i, j]),
             np.concatenate([s, s_ids, t_ids, t, j, i])),
        ),
        shape=(n + 2, n + 2),
    )
    return net.data, net.indices, net.indptr


def _reachable(indptr, indices, live, start):
    """Boolean mask of the nodes reachable from start over the live arcs."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    # own copies: csgraph counts stored zeros as arcs, and pruning them
    # compacts the index arrays in place
    size = len(indptr) - 1
    graph = csr_array((live.astype(np.float64), indices.copy(), indptr.copy()), shape=(size, size))
    graph.eliminate_zeros()
    reached = np.zeros(size, dtype=bool)
    reached[breadth_first_order(graph, start, return_predecessors=False)] = True
    return reached


def rasterize(labeling: Labeling, sp) -> np.ndarray:
    """Per-frame boolean masks: pixel set where its superpixel is object.

    Fills the (T, H, W) masks one frame at a time.
    """
    labels = np.asarray(labeling.labels, dtype=bool)
    if len(labels) != sp.total_count:
        raise ValueError("labeling does not cover all superpixels")
    offsets = sp.frame_offsets()
    masks = np.empty(sp.labels.shape, dtype=bool)
    for t, frame in enumerate(sp.labels):
        masks[t] = labels[offsets[t]:offsets[t + 1]][frame]
    return masks
