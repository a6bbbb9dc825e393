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


def energy(x, graph, c, mu):
    """Smoothness + fit objective over the normalized graph.

    The smoothness term is the full double sum over ordered pairs
    sum_ij A_ij (x_i d_i^-1/2 - x_j d_j^-1/2)^2, with d^-1/2 taken as 0 on
    isolated nodes; the fit term is mu * ||x - c||^2.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    active = graph.degrees > 0
    smooth = 2.0 * (float(x[active] @ x[active]) - float(x @ graph.operator.dot(x)))
    fit = mu * float(np.sum((x - c) ** 2))
    return smooth + fit


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
    """Diffuse a pooled confidence field over the graph; clamp into [0, 1]."""
    counts = np.diff(graph.frame_offsets)
    field.check_counts(counts)
    result = propagate(graph, field.flat(), cfg)
    adapted = np.clip(result.x, 0.0, 1.0)
    return ConfidenceField.from_flat(field.class_id, adapted, counts)
