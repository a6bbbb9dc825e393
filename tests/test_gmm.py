import numpy as np
import pytest

from oracles import responsibilities
from vidseg.gmm import (
    COVARIANCE_FLOOR,
    EM_MAX_ITERATIONS,
    EM_RELATIVE_GAIN,
    EM_TOLERANCE,
    GaussianMixture,
    _count_distinct,
    _coefficients,
    _features,
    _m_step,
    fit_gmm,
    log_likelihoods,
    sample_training_sets,
)
from vidseg.propagation import ConvergenceError

LOG_STANDARD_NORMAL_3D_PEAK = -2.756815599614018  # log((2*pi)**-1.5)
LOG_FLOOR = -27.631021115928547  # log(1e-12)


def _colors(colors):
    return np.asarray(colors, dtype=np.float64)


def _conf(confidences):
    return np.asarray(confidences, dtype=np.float64)


def test_training_sets_all_object_degenerate():
    with pytest.raises(ValueError, match="degenerate training set"):
        sample_training_sets(_conf([1.0, 1.0]), _colors([[0, 0, 0], [1, 1, 1]]))


def test_training_sets_reject_a_field_and_colors_of_other_lengths():
    with pytest.raises(ValueError, match="cover different superpixels"):
        sample_training_sets(_conf([0.5, 0.5, 0.5]), _colors([[0, 0, 0], [9, 9, 9]]))


def test_training_sets_half_confidence():
    (oc, ow), (bc, bw) = sample_training_sets(
        _conf([0.5, 0.5]), _colors([[0, 0, 0], [9, 9, 9]])
    )
    assert len(oc) == len(bc) == 2
    assert np.allclose(ow, 0.5) and np.allclose(bw, 0.5)


def test_training_sets_complement_weights():
    (oc, ow), (bc, bw) = sample_training_sets(
        _conf([0.9, 0.1]), _colors([[0, 0, 0], [9, 9, 9]])
    )
    assert np.allclose(ow, [0.9, 0.1])
    assert np.allclose(bw, [0.1, 0.9])


def test_training_sets_weight_cutoff():
    (oc, ow), (bc, bw) = sample_training_sets(
        _conf([1e-4, 0.8]), _colors([[0, 0, 0], [9, 9, 9]])
    )
    assert len(oc) == 1 and ow[0] == 0.8  # first superpixel dropped from object set
    assert len(bc) == 2


def test_fit_identical_colors_reduces_components():
    colors = np.tile([40.0, 80.0, 120.0], (30, 1))
    gmm = fit_gmm(colors, np.ones(30), n_components=5, seed=0)
    assert len(gmm.weights) == 1
    assert np.allclose(gmm.means[0], [40, 80, 120])
    assert np.allclose(gmm.covariances[0], np.eye(3) * COVARIANCE_FLOOR)


def _two_cluster_data(rng, n=100, spread=4.0):
    a = rng.normal(0, spread, size=(n, 3)) + np.array([0.0, 0.0, 0.0])
    b = rng.normal(0, spread, size=(n, 3)) + np.array([255.0, 255.0, 255.0])
    return np.clip(a, 0, 255), np.clip(b, 0, 255)


def test_fit_two_clusters(rng):
    a, b = _two_cluster_data(rng)
    colors = np.concatenate([a, b])
    gmm = fit_gmm(colors, np.ones(len(colors)), n_components=2, seed=3)
    order = np.argsort(gmm.means[:, 0])
    assert np.all(np.abs(gmm.means[order[0]] - a.mean(axis=0)) < 5.0)
    assert np.all(np.abs(gmm.means[order[1]] - b.mean(axis=0)) < 5.0)
    assert np.allclose(gmm.weights, 0.5, atol=0.05)


def test_fit_weighted_cluster_mass(rng):
    a, b = _two_cluster_data(rng, n=200)
    colors = np.concatenate([a, b])
    weights = np.concatenate([np.full(200, 0.9), np.full(200, 0.1)])
    gmm = fit_gmm(colors, weights, n_components=2, seed=5)
    heavy = np.argmin(np.linalg.norm(gmm.means - a.mean(axis=0), axis=1))
    assert gmm.weights[heavy] == pytest.approx(0.9, abs=0.05)


def test_log_likelihood_at_mean_identity_covariance():
    gmm = GaussianMixture(
        weights=np.array([1.0]),
        means=np.array([[10.0, 20.0, 30.0]]),
        covariances=np.array([np.eye(3)]),
    )
    assert log_likelihoods([gmm], [[10.0, 20.0, 30.0]])[0][0] == pytest.approx(
        LOG_STANDARD_NORMAL_3D_PEAK, abs=1e-12
    )


def test_log_likelihood_floor():
    gmm = GaussianMixture(
        weights=np.array([1.0]),
        means=np.array([[0.0, 0.0, 0.0]]),
        covariances=np.array([np.eye(3)]),
    )
    assert log_likelihoods([gmm], [[255.0, 255.0, 255.0]])[0][0] == pytest.approx(LOG_FLOOR)


def test_log_likelihood_duplicate_components_collapse():
    one = GaussianMixture(
        weights=np.array([1.0]),
        means=np.array([[5.0, 5.0, 5.0]]),
        covariances=np.array([np.eye(3) * 2]),
    )
    two = GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]]),
        covariances=np.array([np.eye(3) * 2, np.eye(3) * 2]),
    )
    color = [[6.0, 4.0, 5.0]]
    lo, lt = log_likelihoods([one, two], color)
    assert lo == pytest.approx(lt, abs=1e-12)


def test_log_likelihood_permutation_invariant(rng):
    weights = np.array([0.2, 0.5, 0.3])
    means = rng.uniform(0, 255, size=(3, 3))
    covs = np.array([np.eye(3) * s for s in (2.0, 5.0, 9.0)])
    gmm = GaussianMixture(weights, means, covs)
    perm = np.array([2, 0, 1])
    gmm_p = GaussianMixture(weights[perm], means[perm], covs[perm])
    colors = rng.uniform(0, 255, size=(10, 3))
    ll, ll_p = log_likelihoods([gmm, gmm_p], colors)
    assert ll == pytest.approx(ll_p, abs=1e-12)


def test_em_loglik_monotone(rng):
    a, b = _two_cluster_data(rng, n=80)
    colors = np.concatenate([a, b])
    weights = rng.uniform(0.2, 1.0, size=len(colors))
    for seed in range(5):
        history = []
        fit_gmm(colors, weights, n_components=3, seed=seed, history=history)
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-9)


def test_em_stop_does_not_depend_on_the_weight_scale(rng):
    # a power-of-two factor scales every weighted product and sum exactly, so EM must
    # take the same steps to the same mixture, stopping at its first relative gain <= 1e-6
    a, b = _two_cluster_data(rng, n=150)
    colors = np.concatenate([a, b])
    weights = rng.uniform(0.2, 1.0, size=len(colors))
    histories = [], []
    fits = [fit_gmm(colors, w, n_components=3, seed=0, history=h)
            for w, h in zip((weights, weights * 1024), histories)]
    assert len(histories[0]) == len(histories[1]) < EM_MAX_ITERATIONS
    assert np.array_equal(np.multiply(histories[0], 1024), histories[1])
    for name in ("weights", "means", "covariances"):
        assert np.array_equal(getattr(fits[0], name), getattr(fits[1], name))
    ll = np.array(histories[0])
    gains, bounds = np.diff(ll), EM_RELATIVE_GAIN * np.abs(ll[1:])
    assert gains[-1] <= bounds[-1] and np.all(gains[:-1] > bounds[:-1])


def test_em_raises_when_the_log_likelihood_falls(rng, monkeypatch):
    import vidseg.gmm

    step, calls = vidseg.gmm._m_step, []

    def drifting(*args):  # the third M-step moves every mean 50 units off
        model = step(*args)
        calls.append(None)
        if len(calls) == 3:
            model = GaussianMixture(model.weights, model.means + 50.0, model.covariances)
        return model

    monkeypatch.setattr(vidseg.gmm, "_m_step", drifting)
    a, b = _two_cluster_data(rng, n=80)
    colors = np.concatenate([a, b])
    history = []
    with pytest.raises(ConvergenceError, match="EM log-likelihood fell by") as err:
        fit_gmm(colors, np.ones(len(colors)), n_components=3, seed=0, history=history)
    assert len(history) == 4 and err.value.iterations == 3
    assert err.value.residual == history[2] - history[3] > EM_TOLERANCE
    assert isinstance(err.value.x, GaussianMixture)


def test_fit_deterministic(rng):
    a, b = _two_cluster_data(rng)
    colors = np.concatenate([a, b])
    weights = np.ones(len(colors))
    g1 = fit_gmm(colors, weights, n_components=3, seed=11)
    g2 = fit_gmm(colors, weights, n_components=3, seed=11)
    assert np.array_equal(g1.weights, g2.weights)
    assert np.array_equal(g1.means, g2.means)
    assert np.array_equal(g1.covariances, g2.covariances)


def test_fit_two_colors_whose_squared_distance_underflows():
    # 1e-170 squared underflows to 0, so k-means++ seeds the second centre by weight alone
    colors = _colors([[0, 0, 0], [1e-170, 0, 0]])
    fits = [fit_gmm(colors, np.ones(2), n_components=2, seed=3) for _ in range(2)]
    for name in ("weights", "means", "covariances"):
        assert np.all(np.isfinite(getattr(fits[0], name)))
        assert np.array_equal(getattr(fits[0], name), getattr(fits[1], name))


def test_responsibilities_sum_to_one(rng):
    a, b = _two_cluster_data(rng, n=50)
    colors = np.concatenate([a, b])
    gmm = fit_gmm(colors, np.ones(len(colors)), n_components=3, seed=2)
    resp, _ = responsibilities(gmm, colors)
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)


def test_fit_rejects_colors_that_are_not_rgb():
    with pytest.raises(ValueError, match=r"colors must be \(n, 3\)"):
        fit_gmm(np.zeros((4, 2)), np.ones(4))


def test_fit_rejects_bad_weights():
    colors = np.zeros((3, 3))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            fit_gmm(colors, np.array([1.0, bad, 1.0]))
    colors[1, 2] = np.nan
    with pytest.raises(ValueError, match="colors must be finite"):
        fit_gmm(colors, np.ones(3))


def _reference_m_step(gmm, post, colors, weights):
    """The M-step written directly: a weighted mean and covariance per live component."""
    wr = post * weights
    nk = wr.sum(axis=1)
    total_w = weights.sum()
    alive = nk > 1e-12 * total_w
    mix = np.where(alive, nk / total_w, 0.0)
    means, covariances = gmm.means.copy(), gmm.covariances.copy()
    for idx in np.flatnonzero(alive):
        means[idx] = colors.T @ wr[idx] / nk[idx]
        diff = colors.T - means[idx][:, None]
        vals, vecs = np.linalg.eigh((wr[idx] * diff) @ diff.T / nk[idx])
        covariances[idx] = (vecs * np.maximum(vals, COVARIANCE_FLOOR)) @ vecs.T
    return mix / mix.sum(), means, covariances


@pytest.mark.parametrize("center, spread", [(240.0, 0.5), (128.0, 50.0)])
def test_em_step_matches_per_component_loop(rng, center, spread):
    # at spread 0.5 around 240 every eigenvalue is floored, and raw moments
    # about the origin would cancel to nothing; at spread 50 none is floored
    colors = rng.normal(center, spread, size=(300, 3))
    weights = rng.uniform(0.05, 1.0, size=300)
    # the fourth component is so far from every sample that its posterior
    # mass is zero, so it is dead and keeps its parameters
    means = np.vstack([colors[rng.choice(300, 3, replace=False)], np.full(3, -1e4)])
    covariances = np.array([np.eye(3) * spread**2] * 3 + [np.eye(3)])
    gmm = GaussianMixture(np.full(4, 0.25), means, covariances)
    post = responsibilities(gmm, colors)[0].T
    feats, feature_center = _features(colors.T, weights)
    step = _m_step(gmm, post, (feats * weights).T, feature_center, weights.sum())
    mix, ref_means, ref_covariances = _reference_m_step(gmm, post, colors, weights)
    np.testing.assert_allclose(step.weights, mix, rtol=1e-12, atol=0)
    np.testing.assert_allclose(step.means, ref_means, rtol=1e-12, atol=0)
    # off-diagonals of floored covariances are zero up to round-off on both
    # sides, so they are compared relative to the largest entry
    atol = 1e-12 * np.abs(ref_covariances).max()
    np.testing.assert_allclose(step.covariances, ref_covariances, rtol=1e-12, atol=atol)
    assert step.weights[3] == 0.0
    assert np.array_equal(step.means[3], means[3])
    assert np.array_equal(step.covariances[3], covariances[3])


def _random_spd(rng, d=3):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * np.exp(rng.uniform(0.0, np.log(1e4), size=d))) @ q.T  # eigenvalues 1..1e4


def test_log_density_matches_scipy_oracle(rng):
    from scipy.stats import multivariate_normal

    k = 4
    means = rng.uniform(0, 255, size=(k, 3))
    covs = np.array([_random_spd(rng) for _ in range(k)])
    weights = rng.dirichlet(np.ones(k))
    colors = rng.uniform(-50, 300, size=(200, 3))
    feats, center = _features(colors.T)
    log_joint = _coefficients(GaussianMixture(weights, means, covs), center) @ feats
    for idx in range(k):
        oracle = multivariate_normal(means[idx], covs[idx]).logpdf(colors)
        # relative: far samples have log-densities near -1e4, where both
        # routes carry round-off of a few 1e-12 relative
        np.testing.assert_allclose(
            log_joint[idx] - np.log(weights[idx]), oracle, rtol=1e-10, atol=1e-10
        )


def test_far_sample_posteriors_finite_and_normalised():
    # every component density underflows to 0 at 1e4 units from all means,
    # so only the max-shift keeps the posterior defined
    gmm = GaussianMixture(
        weights=np.array([0.3, 0.7]),
        means=np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]]),
        covariances=np.array([np.eye(3), np.eye(3) * 4.0]),
    )
    colors = np.array([[1e4, 1e4, 1e4], [-1e4, 5e3, 1e4]])
    resp, log_norm = responsibilities(gmm, colors)
    assert np.all(np.isfinite(resp)) and np.all(np.isfinite(log_norm))
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(log_norm < -1e7)


def test_fit_three_distinct_colors_uses_three_components():
    colors = np.repeat([[10.0, 20.0, 30.0], [200.0, 20.0, 30.0], [10.0, 20.0, 31.0]], 7, axis=0)
    gmm = fit_gmm(colors, np.ones(len(colors)), n_components=5, seed=0)
    assert len(gmm.weights) == 3


def test_count_distinct_matches_unique(rng):
    colors = rng.integers(0, 4, size=(300, 3)).astype(np.float64)
    distinct = len(np.unique(colors, axis=0))
    for limit in (1, 5, distinct - 1, distinct, distinct + 3):
        assert _count_distinct(np.ascontiguousarray(colors.T), limit) == min(limit, distinct)
