"""Gaussian mixture color models fitted by weighted EM.

Object and background mixtures are trained on superpixel mean colors,
each sample weighted by the (adapted) confidence c_i for the object set
and 1 - c_i for the background set.

One feature kernel serves the E-step, the M-step and `log_likelihoods` (hence
the MRF color unaries). A Gaussian log-density is
linear in the 6 quadratic, 3 linear and 1 constant terms of a color (Bishop,
PRML 2.4 and 9.2), so `_features` builds those once per color set as a
(10, n) array centred on the (weighted) mean color, and `_coefficients`
makes each component one row of a (K, 10) matrix. The E-step's log-joint is
one (K, 10) @ (10, n) product, normalised in place by `_log_normalize`; the
M-step's counts and first and second moments of every component are one
(K, n) @ (n, 10) product with the weight-scaled features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import ConvergenceError, _dot

DEFAULT_COMPONENTS = 5
COVARIANCE_FLOOR = 1.0  # squared 8-bit units, on covariance eigenvalues
LIKELIHOOD_FLOOR = 1e-12
WEIGHT_CUTOFF = 1e-3
EM_TOLERANCE = 1e-6  # absolute: EM fails if its log-likelihood falls by more
EM_RELATIVE_GAIN = 1e-6  # EM stops once a gain is at most this times |log-likelihood|
EM_MAX_ITERATIONS = 200

_LOG_2PI = float(np.log(2.0 * np.pi))
_UPPER = np.triu_indices(3)  # the 6 channel pairs (a, b), a <= b, of an RGB color


@dataclass
class GaussianMixture:
    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, 3)
    covariances: np.ndarray  # (K, 3, 3)


def _features(colors_t, weights=None):
    """(10, n) rows y_a y_b (a <= b), y_a and 1 of y = x - centre for (3, n) colors x,
    and that centre, the (weighted) mean color."""
    center = np.average(colors_t, axis=1, weights=weights)
    y = colors_t - center[:, None]
    return np.concatenate([y[_UPPER[0]] * y[_UPPER[1]], y, np.ones((1, y.shape[1]))]), center


def _coefficients(gmm: GaussianMixture, center):
    """(K, 10) rows c_k with c_k @ _features(x)[0] = log w_k N(x; mean_k, cov_k)."""
    d = gmm.means.shape[1]
    chol = np.linalg.cholesky(gmm.covariances)  # (K, d, d), lower
    prec_chol = np.linalg.inv(chol)  # precision_k = prec_chol_k^T prec_chol_k
    quad = (np.swapaxes(prec_chol, 1, 2) @ prec_chol)[:, _UPPER[0], _UPPER[1]]
    quad *= np.where(_UPPER[0] == _UPPER[1], -0.5, -1.0)  # y^T P y counts off-diagonals twice
    z = prec_chol @ (gmm.means - center)[:, :, None]  # whitened centred means
    linear = (np.swapaxes(z, 1, 2) @ prec_chol)[:, 0]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    const = np.log(np.where(gmm.weights > 0, gmm.weights, 1e-300))
    const -= 0.5 * (d * _LOG_2PI + logdet + (z * z).sum(axis=(1, 2)))
    return np.column_stack([quad, linear, const])


def _log_normalize(log_joint):
    """Posteriors (K, n) and log-normaliser (n,) of a (K, n) log-joint, in place."""
    shift = log_joint.max(axis=0)
    log_joint -= shift
    np.exp(log_joint, out=log_joint)
    total = log_joint.sum(axis=0)
    log_joint /= total
    return log_joint, np.log(total) + shift


def log_likelihoods(models, colors):
    """(n,) floored mixture log-likelihoods of (n, 3) colors under each model."""
    feats, center = _features(np.atleast_2d(np.asarray(colors, dtype=np.float64)).T)
    floor = np.log(LIKELIHOOD_FLOOR)
    return [np.maximum(_log_normalize(_coefficients(m, center) @ feats)[1], floor) for m in models]


def sample_training_sets(conf, colors):
    """Confidence-weighted color samples for the object and background models.

    Every superpixel contributes its mean color (a row of the (N, 3) colors) to
    the object set with weight c_i and to the background set with weight
    1 - c_i; weights below 1e-3 are omitted from that set.
    """
    if len(conf) != len(colors):
        raise ValueError("confidence field and colors cover different superpixels")
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


def _kmeanspp_init(colors_t, weights, k, rng):
    """Weighted k-means++ seeding over the (3, n) sample colors."""
    n = colors_t.shape[1]
    centers = np.empty((k, len(colors_t)))
    prob = weights / weights.sum()
    first = rng.choice(n, p=prob)
    centers[0] = colors_t[:, first]
    closest = ((colors_t - centers[0][:, None]) ** 2).sum(axis=0)
    for idx in range(1, k):
        scores = weights * closest
        total = scores.sum()
        if total <= 0:
            centers[idx] = colors_t[:, rng.choice(n, p=prob)]
        else:
            centers[idx] = colors_t[:, rng.choice(n, p=scores / total)]
        closest = np.minimum(closest, ((colors_t - centers[idx][:, None]) ** 2).sum(axis=0))
    return centers


def _floor_covariance(cov):
    """(m, d, d) covariances with their eigenvalues floored at COVARIANCE_FLOOR."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, COVARIANCE_FLOOR)
    return (vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)


def _count_distinct(colors_t, limit):
    """min(limit, number of distinct columns of colors_t), without sorting them."""
    unseen = np.ones(colors_t.shape[1], dtype=bool)
    count = 0
    while count < limit and unseen.any():
        unseen &= ~(colors_t == colors_t[:, [np.argmax(unseen)]]).all(axis=0)
        count += 1
    return count


def _m_step(gmm: GaussianMixture, post, weighted, center, total_w):
    """Next mixture from (K, n) posteriors and the (n, 10) weight-scaled features.

    Moments about `center` lose about eps * |mean_k - center|^2 to cancellation.
    """
    moments = post @ weighted  # (K, 10)
    nk = moments[:, -1]
    alive = nk > 1e-12 * total_w
    mix = np.where(alive, nk / total_w, 0.0)
    scaled = moments[alive] / nk[alive, None]
    second = np.empty((len(scaled), 3, 3))
    second[:, _UPPER[0], _UPPER[1]] = second[:, _UPPER[1], _UPPER[0]] = scaled[:, :6]
    first = scaled[:, 6:9]  # centred means
    means, covariances = gmm.means.copy(), gmm.covariances.copy()
    means[alive] = center + first
    covariances[alive] = _floor_covariance(second - first[:, :, None] * first[:, None, :])
    return GaussianMixture(mix / mix.sum(), means, covariances)


def fit_gmm(colors, weights, n_components=DEFAULT_COMPONENTS, seed=0, history=None):
    """Fit a Gaussian mixture to weighted color samples by EM.

    Starts from weighted k-means++ centers (seeded, deterministic), iterates
    until an iteration gains at most 1e-6 * |ll| of weighted log-likelihood
    ll, or for 200 iterations, and floors covariance eigenvalues at 1.0 to
    keep components non-singular on flat-color data. That floor keeps every
    log-density at or below -1.5 log(2 pi), so ll < 0, and scaling every
    weight by a power of two leaves the stop where it was. If fewer distinct
    samples than components exist, the component count is reduced to match.
    Appends the per-iteration ll to `history` when given. EM never lowers it,
    so a fall of more than the absolute EM_TOLERANCE from one iteration to
    the next raises ConvergenceError, carrying the model that gave it.
    """
    colors = np.asarray(colors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if colors.ndim != 2 or colors.shape[1] != 3 or len(colors) != len(weights):
        raise ValueError("colors must be (n, 3) with one weight per sample")
    if not (np.all(weights > 0) and np.all(np.isfinite(weights))):
        raise ValueError("sample weights must be positive and finite")
    if not np.all(np.isfinite(colors)):
        raise ValueError("sample colors must be finite")
    colors_t = np.ascontiguousarray(colors.T)  # (3, n)
    k = _count_distinct(colors_t, n_components)
    rng = np.random.default_rng(seed)
    feats, center = _features(colors_t, weights)
    weighted = np.multiply(feats.T, weights[:, None], order="C")  # (n, 10), read by every M-step
    total_w = weights.sum()

    floored = np.array([np.eye(3) * COVARIANCE_FLOOR] * k)
    model = GaussianMixture(np.full(k, 1.0 / k), _kmeanspp_init(colors_t, weights, k, rng), floored)
    prev_ll = -np.inf
    for iteration in range(EM_MAX_ITERATIONS):
        post, log_norm = _log_normalize(_coefficients(model, center) @ feats)
        ll = _dot(weights, log_norm)
        if history is not None:
            history.append(ll)
        if prev_ll - ll > EM_TOLERANCE:
            raise ConvergenceError(f"EM log-likelihood fell by {prev_ll - ll:.3e} at iteration "
                                   f"{iteration}", model, prev_ll - ll, iteration)
        if ll - prev_ll <= EM_RELATIVE_GAIN * abs(ll):
            break
        prev_ll = ll
        model = _m_step(model, post, weighted, center, total_w)
    return model
