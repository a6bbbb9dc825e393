"""Gaussian mixture color models fitted by weighted EM.

Object and background mixtures are trained on superpixel mean colors,
each sample weighted by the (adapted) confidence c_i for the object set
and 1 - c_i for the background set.

One density kernel serves the E-step, `responsibilities` and
`GaussianMixture.log_likelihood` (hence the MRF color unaries). It works
component-major: colors are a (d, n) array and every per-sample quantity
is a (K, n) array, so sums over the K components or the d channels are
elementwise operations on whole rows. `_log_density` whitens all samples
against all components with one (K*d, d) @ (d, n) product by the inverse
Cholesky factors, and `_log_normalize` turns the (K, n) log-joint into
posteriors with one in-place max-shift log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def log_likelihood(self, colors):
        """(n,) log sum_k w_k N(color; ...) of (n, 3) colors, floored at log(1e-12)."""
        return np.maximum(responsibilities(self, colors)[1], np.log(LIKELIHOOD_FLOOR))


def _log_density(gmm: GaussianMixture, colors_t):
    """(K, n) log w_k N(x; mean_k, cov_k) for colors_t of shape (d, n)."""
    k, d = gmm.means.shape
    chol = np.linalg.cholesky(gmm.covariances)  # (K, d, d), lower
    inv_chol = np.linalg.inv(chol)
    # rows k*d .. k*d+d-1 hold L_k^-1 x; subtracting L_k^-1 mean_k whitens x
    z = (inv_chol.reshape(k * d, d) @ colors_t).reshape(k, d, -1)
    z -= inv_chol @ gmm.means[:, :, None]
    z *= z
    maha = z.sum(axis=1)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    maha += (d * _LOG_2PI + logdet)[:, None]
    maha *= -0.5
    maha += np.log(np.where(gmm.weights > 0, gmm.weights, 1e-300))[:, None]
    return maha


def _log_normalize(log_joint):
    """Posteriors (K, n) and log-normaliser (n,) of a (K, n) log-joint, in place."""
    shift = log_joint.max(axis=0)
    log_joint -= shift
    np.exp(log_joint, out=log_joint)
    total = log_joint.sum(axis=0)
    log_joint /= total
    return log_joint, np.log(total) + shift


def responsibilities(gmm: GaussianMixture, colors):
    """E-step posteriors (n, K) and per-sample mixture log-likelihood (n,)."""
    colors_t = np.atleast_2d(np.asarray(colors, dtype=np.float64)).T
    post, log_norm = _log_normalize(_log_density(gmm, colors_t))
    return post.T, log_norm


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


def _count_distinct(colors_t, limit):
    """min(limit, number of distinct columns of colors_t), without sorting them."""
    unseen = np.ones(colors_t.shape[1], dtype=bool)
    count = 0
    while count < limit and unseen.any():
        unseen &= ~(colors_t == colors_t[:, [np.argmax(unseen)]]).all(axis=0)
        count += 1
    return count


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
    colors_t = np.ascontiguousarray(colors.T)  # (d, n)
    k = _count_distinct(colors_t, n_components)
    rng = np.random.default_rng(seed)

    means = _kmeanspp_init(colors, weights, k, rng)
    covariances = np.array([np.eye(colors.shape[1]) * COVARIANCE_FLOOR] * k)
    mix = np.full(k, 1.0 / k)
    total_w = weights.sum()

    prev_ll = -np.inf
    for _ in range(EM_MAX_ITERATIONS):
        model = GaussianMixture(mix, means, covariances)
        wr, log_norm = _log_normalize(_log_density(model, colors_t))
        ll = float(weights @ log_norm)
        if history is not None:
            history.append(ll)
        if ll - prev_ll < EM_TOLERANCE and np.isfinite(prev_ll):
            break
        prev_ll = ll

        wr *= weights  # (K, n) weighted posteriors
        nk = wr.sum(axis=1)
        alive = nk > 1e-12 * total_w
        mix = np.where(alive, nk / total_w, 0.0)
        mix = mix / mix.sum()
        for idx in np.flatnonzero(alive):
            means[idx] = colors_t @ wr[idx] / nk[idx]
            diff = colors_t - means[idx][:, None]
            covariances[idx] = _floor_covariance((wr[idx] * diff) @ diff.T / nk[idx])
    return GaussianMixture(mix, means, covariances)
