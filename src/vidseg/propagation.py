"""Confidence adaptation by diffusion on the space-time graph.

Minimizes a smoothness + fit energy over per-superpixel confidences by
solving the stationarity system

    (I - (1 - eta) S) X = eta C,   eta = mu / (1 + mu)

with conjugate gradients. The paper's damped diffusion iteration

    X_{k+1} = alpha * S @ X_k + (1 - alpha) * C

with alpha = 1 / (1 + mu) has the same fixed point; it is kept as the
reference the solve is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proposals import ConfidenceField

DEFAULT_MU = 0.5
# round-off floor of stationarity_residual, in units of eps * (1 + mu) * max|c|: it read
# 4.7 on the S clip and 7.3 on the L clip, with CG run on to a tolerance of 1e-17
STATIONARITY_ROUNDOFF = 64.0


class ConvergenceError(RuntimeError):
    """Solver failed to reach tolerance; carries the last iterate."""

    def __init__(self, message, x, residual, iterations):
        super().__init__(message)
        self.x = x
        self.residual = residual
        self.iterations = iterations


@dataclass
class PropagationConfig:
    mu: float = DEFAULT_MU
    tolerance: float = 1e-8
    max_iterations: int = 10000

    def __post_init__(self):
        for name in ("mu", "tolerance", "max_iterations"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be positive and finite")

    @property
    def eta(self):
        return self.mu / (1.0 + self.mu)

    @property
    def alpha(self):
        return 1.0 / (1.0 + self.mu)


@dataclass
class PropagationResult:
    x: np.ndarray
    iterations: int
    residual: float


def stationarity_residual(x, graph, c, mu):
    """Max-norm residual of the optimality condition X - SX + mu (X - C)."""
    r = x - graph.operator.dot(x) + mu * (x - c)
    return float(np.max(np.abs(r), initial=0.0))


def propagate_iterative(graph, c, cfg: PropagationConfig) -> PropagationResult:
    """Run the diffusion iteration from X0 = C to its fixed point.

    Converged when the max-norm of successive iterates is within tolerance;
    raises ConvergenceError (carrying the last iterate) past max_iterations.
    """
    c = np.asarray(c, dtype=np.float64)
    s = graph.operator
    alpha = cfg.alpha
    x = c.copy()
    residual = np.inf
    for k in range(1, cfg.max_iterations + 1):
        x_next = alpha * s.dot(x) + (1.0 - alpha) * c
        residual = float(np.max(np.abs(x_next - x), initial=0.0))
        x = x_next
        if residual <= cfg.tolerance:
            return PropagationResult(x, k, residual)
    raise ConvergenceError(
        f"diffusion did not converge in {cfg.max_iterations} iterations "
        f"(residual {residual:.3e})",
        x,
        residual,
        cfg.max_iterations,
    )


def propagate(graph, c, cfg: PropagationConfig) -> PropagationResult:
    """Solve (I - (1 - eta) S) X = eta C by conjugate gradients.

    The system matrix is symmetric positive definite (the spectrum of S lies
    in [-1, 1] and 1 - eta < 1). Converged at relative 2-norm residual
    <= tolerance. The graph has no self-loops, so the system's diagonal is 1
    and Jacobi scaling would be the identity: CG runs unpreconditioned.
    """
    c = np.asarray(c, dtype=np.float64)
    s = graph.operator
    eta = cfg.eta
    gamma = 1.0 - eta
    b = eta * c
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return PropagationResult(np.zeros_like(c), 0, 0.0)

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    residual = 1.0
    for k in range(1, cfg.max_iterations + 1):
        ap = p - gamma * s.dot(p)
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        residual = float(np.linalg.norm(r)) / norm_b
        if residual <= cfg.tolerance:
            return PropagationResult(x, k, residual)
        rr_next = float(r @ r)
        p = r + (rr_next / rr) * p
        rr = rr_next
    raise ConvergenceError(
        f"conjugate gradient did not converge in {cfg.max_iterations} iterations "
        f"(relative residual {residual:.3e})",
        x,
        residual,
        cfg.max_iterations,
    )


def adapt_confidence(field: ConfidenceField, graph, cfg: PropagationConfig) -> ConfidenceField:
    """Diffuse a pooled confidence field over the graph; clamp into [0, 1].

    The unclipped solution is certified first. Its stationarity residual is
    (1 + mu) times CG's residual, so CG's stopping rule bounds it by
    (1 + mu) * tolerance * ||eta c||_2, plus STATIONARITY_ROUNDOFF for
    round-off; past that, ConvergenceError is raised.
    """
    counts = np.diff(graph.frame_offsets)
    field.check_counts(counts)
    c = field.flat()
    result = propagate(graph, c, cfg)
    residual = stationarity_residual(result.x, graph, c, cfg.mu)
    roundoff = STATIONARITY_ROUNDOFF * np.finfo(np.float64).eps * np.max(np.abs(c), initial=0.0)
    bound = (1.0 + cfg.mu) * (cfg.tolerance * cfg.eta * float(np.linalg.norm(c)) + roundoff)
    if not residual <= bound:  # NaN fails too
        raise ConvergenceError(
            f"diffusion uncertified: stationarity residual {residual:.3e} exceeds {bound:.3e}",
            result.x,
            residual,
            result.iterations,
        )
    adapted = np.clip(result.x, 0.0, 1.0)
    return ConfidenceField.from_flat(field.class_id, adapted, counts)
