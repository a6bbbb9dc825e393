"""Gaussian mixture color models fitted by weighted EM.

Object and background mixtures are trained on superpixel mean colors,
each sample weighted by the (adapted) confidence c_i for the object set
and 1 - c_i for the background set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

DEFAULT_COMPONENTS = 5
COVARIANCE_FLOOR = 1.0  # squared 8-bit units, on covariance eigenvalues
LIKELIHOOD_FLOOR = 1e-12
WEIGHT_CUTOFF = 1e-3
EM_TOLERANCE = 1e-6
EM_MAX_ITERATIONS = 200

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianMixture:
    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, 3)
    covariances: np.ndarray  # (K, 3, 3)

    def component_log_pdf(self, colors):
        """(n, K) log N(color; mean_k, cov_k)."""
        colors = np.atleast_2d(np.asarray(colors, dtype=np.float64))
        k = len(self.weights)
        out = np.empty((colors.shape[0], k))
        for idx in range(k):
            chol = np.linalg.cholesky(self.covariances[idx])
            diff = colors - self.means[idx]
            sol = np.linalg.solve(chol, diff.T)
            maha = np.sum(sol**2, axis=0)
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            out[:, idx] = -0.5 * (3.0 * _LOG_2PI + logdet + maha)
        return out

    def log_likelihood(self, colors):
        """log sum_k w_k N(color; ...), floored at log(1e-12). Scalar in, scalar out."""
        colors = np.asarray(colors, dtype=np.float64)
        ll = np.maximum(responsibilities(self, colors)[1], np.log(LIKELIHOOD_FLOOR))
        return float(ll[0]) if colors.ndim == 1 else ll

    def to_json(self):
        return json.dumps(
            {
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
            }
        )

    @staticmethod
    def from_json(text):
        rec = json.loads(text)
        return GaussianMixture(
            np.asarray(rec["weights"], dtype=np.float64),
            np.asarray(rec["means"], dtype=np.float64),
            np.asarray(rec["covariances"], dtype=np.float64),
        )


def responsibilities(gmm: GaussianMixture, colors):
    """E-step posteriors (n, K) and per-sample mixture log-likelihood (n,)."""
    log_comp = gmm.component_log_pdf(colors) + np.log(
        np.where(gmm.weights > 0, gmm.weights, 1e-300)
    )
    log_norm = logsumexp(log_comp, axis=1)
    return np.exp(log_comp - log_norm[:, None]), log_norm


def sample_training_sets(field, stats):
    """Confidence-weighted color samples for the object and background models.

    Every superpixel contributes its mean color to the object set with weight
    c_i and to the background set with weight 1 - c_i; weights below 1e-3 are
    omitted from that set.
    """
    colors = stats.mean_color
    conf = field.flat()
    if len(conf) != len(colors):
        raise ValueError("confidence field and stats cover different superpixels")
    w_obj = conf
    w_bg = 1.0 - conf
    keep_obj = w_obj >= WEIGHT_CUTOFF
    keep_bg = w_bg >= WEIGHT_CUTOFF
    if not keep_obj.any() or not keep_bg.any():
        raise ValueError("degenerate training set: one class has no samples")
    return (
        (colors[keep_obj], w_obj[keep_obj]),
        (colors[keep_bg], w_bg[keep_bg]),
    )


def _kmeanspp_init(colors, weights, k, rng):
    """Weighted k-means++ seeding over the sample colors."""
    n = len(colors)
    centers = np.empty((k, colors.shape[1]))
    prob = weights / weights.sum()
    first = rng.choice(n, p=prob)
    centers[0] = colors[first]
    closest = np.sum((colors - centers[0]) ** 2, axis=1)
    for idx in range(1, k):
        scores = weights * closest
        total = scores.sum()
        if total <= 0:
            centers[idx] = colors[rng.choice(n, p=prob)]
        else:
            centers[idx] = colors[rng.choice(n, p=scores / total)]
        closest = np.minimum(closest, np.sum((colors - centers[idx]) ** 2, axis=1))
    return centers


def _floor_covariance(cov):
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, COVARIANCE_FLOOR)
    return (vecs * vals) @ vecs.T


def fit_gmm(colors, weights, n_components=DEFAULT_COMPONENTS, seed=0, history=None):
    """Fit a Gaussian mixture to weighted color samples by EM.

    Starts from weighted k-means++ centers (seeded, deterministic), iterates
    until the weighted log-likelihood gain drops below 1e-6 or 200
    iterations, and floors covariance eigenvalues at 1.0 to keep components
    non-singular on flat-color data. If fewer distinct samples than
    components exist, the component count is reduced to match. Appends the
    per-iteration weighted log-likelihood to `history` when given.
    """
    colors = np.asarray(colors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if colors.ndim != 2 or len(colors) != len(weights):
        raise ValueError("colors must be (n, d) with one weight per sample")
    if np.any(weights <= 0):
        raise ValueError("sample weights must be positive")
    distinct = np.unique(colors, axis=0)
    k = min(n_components, len(distinct))
    rng = np.random.default_rng(seed)

    means = _kmeanspp_init(colors, weights, k, rng)
    covariances = np.array([np.eye(colors.shape[1]) * COVARIANCE_FLOOR] * k)
    mix = np.full(k, 1.0 / k)
    total_w = weights.sum()

    prev_ll = -np.inf
    for _ in range(EM_MAX_ITERATIONS):
        model = GaussianMixture(mix, means, covariances)
        resp, log_norm = responsibilities(model, colors)
        ll = float(weights @ log_norm)
        if history is not None:
            history.append(ll)
        if ll - prev_ll < EM_TOLERANCE and np.isfinite(prev_ll):
            break
        prev_ll = ll

        wr = resp * weights[:, None]  # (n, K)
        nk = wr.sum(axis=0)
        alive = nk > 1e-12 * total_w
        mix = np.where(alive, nk / total_w, 0.0)
        mix = mix / mix.sum()
        for idx in range(k):
            if not alive[idx]:
                continue
            means[idx] = wr[:, idx] @ colors / nk[idx]
            diff = colors - means[idx]
            cov = (wr[:, idx, None] * diff).T @ diff / nk[idx]
            covariances[idx] = _floor_covariance(cov)
    return GaussianMixture(mix, means, covariances)
