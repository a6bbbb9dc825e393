"""Confidence adaptation by diffusion on the space-time graph.

Minimizes a smoothness + fit energy over per-superpixel confidences by
solving the stationarity system

    (I - (1 - eta) S) X = eta C,   eta = mu / (1 + mu)

with conjugate gradients: the fixed point of the paper's damped diffusion
X_{k+1} = (1 - eta) S X_k + eta C (Zhou et al., NIPS 2004). S comes from
diffusion_operator as the graph with normalized weights, sharing its i, j and
frame_offsets (no caller may write them in place), so S @ x is two bincounts,
without SciPy. C and X are a ConfidenceField's one (N,) array, indexed by
S's node ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if 1.0 - self.eta == 1.0:  # the fit term would round away
            raise ValueError(f"mu {self.mu!r} is too small: 1 - mu / (1 + mu) rounds to 1")

    @property
    def eta(self):
        return self.mu / (1.0 + self.mu)


@dataclass
class PropagationResult:
    """CG's iterate, its iteration count and the recurrence residual that stopped
    the solve, not the true residual of x."""

    x: np.ndarray
    iterations: int
    residual: float


def _dot(a, b):
    """a . b by einsum, not BLAS, whose summation order moves with its thread count."""
    return float(np.einsum("i,i->", a, b))


def diffusion_operator(graph):
    """S = D^-1/2 A D^-1/2 as the graph with weights w_e * dinv_i * dinv_j, sharing its
    i, j and frame_offsets, which no caller may write in place. assemble rejects
    self-loops, so diag(S) = 0; isolated nodes get zero rows."""
    degrees = graph.dot(np.ones(graph.n_nodes))
    dinv = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    return replace(graph, w=graph.w * (dinv[graph.i] * dinv[graph.j]))


def stationarity_residual(x, s, c, mu):
    """Max-norm residual of the optimality condition X - SX + mu (X - C)."""
    r = x - s.dot(x) + mu * (x - c)
    return float(np.max(np.abs(r), initial=0.0))


def propagate(s, c, cfg: PropagationConfig) -> PropagationResult:
    """Solve (I - (1 - eta) S) X = eta C by conjugate gradients.

    The system matrix is symmetric positive definite (the spectrum of S lies
    in [-1, 1] and 1 - eta < 1). Converged at relative 2-norm residual
    <= tolerance. The graph has no self-loops, so the system's diagonal is 1
    and Jacobi scaling would be the identity: CG runs unpreconditioned.

    The residual reported is CG's recurrence residual ||r_k|| / ||b||. Below
    about 1e-15 it no longer tracks the true residual of x, which stays at
    round-off; adapt_confidence's certificate bounds the true one.
    """
    c = np.asarray(c, dtype=np.float64)
    eta = cfg.eta
    gamma = 1.0 - eta
    b = eta * c
    norm_b = math.sqrt(_dot(b, b))
    if norm_b == 0.0:
        return PropagationResult(np.zeros_like(c), 0, 0.0)

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = _dot(r, r)
    residual = 1.0
    for k in range(1, cfg.max_iterations + 1):
        ap = p - gamma * s.dot(p)
        alpha = rr / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        rr_next = _dot(r, r)
        residual = math.sqrt(rr_next) / norm_b
        if residual <= cfg.tolerance:
            return PropagationResult(x, k, residual)
        p = r + (rr_next / rr) * p
        rr = rr_next
    raise ConvergenceError(
        f"conjugate gradient did not converge in {cfg.max_iterations} iterations "
        f"(relative residual {residual:.3e})",
        x,
        residual,
        cfg.max_iterations,
    )


def adapt_confidence(field: ConfidenceField, s, cfg: PropagationConfig) -> ConfidenceField:
    """Diffuse a pooled confidence field with S, whose frames it must match; clamp into [0, 1].

    The unclipped solution is certified first. Its stationarity residual is
    (1 + mu) times CG's residual, so CG's stopping rule bounds it by
    (1 + mu) * tolerance * ||eta c||_2, plus STATIONARITY_ROUNDOFF for
    round-off; past that, ConvergenceError is raised.
    """
    field.check_counts(np.diff(s.frame_offsets))
    c = field.flat
    result = propagate(s, c, cfg)
    residual = stationarity_residual(result.x, s, c, cfg.mu)
    roundoff = STATIONARITY_ROUNDOFF * np.finfo(np.float64).eps * np.max(np.abs(c), initial=0.0)
    bound = (1.0 + cfg.mu) * (cfg.tolerance * cfg.eta * math.sqrt(_dot(c, c)) + roundoff)
    if not residual <= bound:  # NaN fails too
        raise ConvergenceError(
            f"diffusion uncertified: stationarity residual {residual:.3e} exceeds {bound:.3e}",
            result.x,
            residual,
            result.iterations,
        )
    return ConfidenceField(field.class_id, np.clip(result.x, 0.0, 1.0), field.counts)
