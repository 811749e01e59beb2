"""Tests for Gaussian containers, sigma points, and the linearized update."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack.gaussian import (
    DEGENERATE,
    ConditioningError,
    GaussianState,
    UnscentedSpread,
    cholesky_factor,
    draw_sigma_points,
    psd_repair,
    stacked_predict,
    stacked_psd_repair,
    stacked_sl_update,
    statistical_linearization_update,
)

# Frozen from scripts/oracle_quadratic_update.py (10^7-sample Monte-Carlo
# statistical linearization of h(x, v) = x^2 + v, batched for standard
# errors). Tolerances are 3 standard errors.
QUADRATIC_ORACLE_MEAN = 0.5196639725
QUADRATIC_ORACLE_MEAN_TOL = 3 * 6.627e-05
QUADRATIC_ORACLE_VAR = 0.0030480469
QUADRATIC_ORACLE_VAR_TOL = 3 * 1.713e-06


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


# ---------------------------------------------------------------------------
# GaussianState


def test_state_symmetrizes_cov():
    cov = np.array([[1.0, 0.3 + 5e-10], [0.3 - 5e-10, 2.0]])
    state = GaussianState([0.0, 0.0], cov)
    assert_allclose(state.cov, state.cov.T, rtol=0, atol=0)


def test_state_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GaussianState([0.0, 0.0], np.eye(3))


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        GaussianState([np.nan], [[1.0]])
    with pytest.raises(ValueError, match="finite"):
        GaussianState([0.0, 0.0], [[1e308, 1e308], [1e308, 1.0]])  # (C + C^T) / 2 overflows


# ---------------------------------------------------------------------------
# PSD repair and factorization


def test_psd_repair_leaves_psd_untouched():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert_allclose(psd_repair(cov), cov)


def test_psd_repair_lifts_negative_eigenvalue():
    cov = np.diag([1.0, -1e-6])
    repaired = psd_repair(cov)
    assert np.linalg.eigvalsh(repaired)[0] >= -1e-9


def test_cholesky_factor_handles_singular():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    root = cholesky_factor(cov)
    assert_allclose(root @ root.T, cov, atol=1e-6)


# ---------------------------------------------------------------------------
# Sigma points


def test_sigma_points_scalar_standard_normal():
    # kappa = 1 gives lambda = 1 in one dimension: points {0, +sqrt(2), -sqrt(2)}
    state = GaussianState([0.0], [[1.0]])
    sp = draw_sigma_points(state, UnscentedSpread(kappa=1.0))
    assert_allclose(np.sort(sp.points[:, 0]), [-np.sqrt(2), 0.0, np.sqrt(2)])
    assert_allclose(sp.mean_weights.sum(), 1.0, atol=1e-12)


def test_sigma_points_identity_cov_recombines():
    state = GaussianState([1.0, 2.0], np.eye(2))
    mean, cov = draw_sigma_points(state).recombine()
    assert_allclose(mean, [1.0, 2.0], atol=1e-9)
    assert_allclose(cov, np.eye(2), rtol=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12, 16])
def test_sigma_points_recombine_random_cov(dim):
    rng = np.random.default_rng(900 + dim)
    state = GaussianState(rng.normal(size=dim), random_spd(rng, dim))
    sp = draw_sigma_points(state)
    assert_allclose(sp.mean_weights.sum(), 1.0, atol=1e-12)
    mean, cov = sp.recombine()
    assert_allclose(mean, state.mean, atol=1e-9 * (1 + np.abs(state.mean).max()))
    assert_allclose(cov, state.cov, rtol=1e-6)


def test_sigma_point_weights_are_the_callers_own():
    # the weights are cached for the stacked update; each call hands out copies
    state = GaussianState(np.zeros(3), np.eye(3))
    first = draw_sigma_points(state)
    w_mean, w_cov = first.mean_weights.copy(), first.cov_weights.copy()
    first.mean_weights *= 2.0
    first.cov_weights += 1.0
    second = draw_sigma_points(state)
    assert np.array_equal(second.mean_weights, w_mean)
    assert np.array_equal(second.cov_weights, w_cov)


@pytest.mark.parametrize(
    "fields", [dict(alpha=np.nan), dict(beta=np.nan), dict(kappa=np.inf), dict(alpha=-np.inf)]
)
def test_spread_rejects_non_finite(fields):
    with pytest.raises(ValueError, match="finite"):
        UnscentedSpread(**fields)


def test_sigma_points_reject_nonpositive_scale():
    state = GaussianState(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError):
        draw_sigma_points(state, UnscentedSpread(alpha=1.0, kappa=-4.0))


# ---------------------------------------------------------------------------
# Statistical-linearization update


def kalman_reference(prior, obs_matrix, noise_cov, y):
    s = obs_matrix @ prior.cov @ obs_matrix.T + noise_cov
    gain = prior.cov @ obs_matrix.T @ np.linalg.inv(s)
    mean = prior.mean + gain @ (y - obs_matrix @ prior.mean)
    cov = prior.cov - gain @ s @ gain.T
    return mean, cov


def test_update_linear_scalar_matches_kalman():
    # h(x, v) = x + v with x ~ N(0,1), v ~ N(0,1): posterior N(0, 1/2).
    prior = GaussianState([0.0], [[1.0]])
    noise = GaussianState([0.0], [[1.0]])
    post = statistical_linearization_update(
        prior, lambda pts, y: pts[:, 0] + pts[:, 1], noise
    )
    assert_allclose(post.mean, [0.0], atol=1e-12)
    assert_allclose(post.cov, [[0.5]], rtol=1e-12)


def test_update_ignores_state_independent_h():
    prior = GaussianState([1.0, -2.0], np.diag([1.0, 4.0]))
    noise = GaussianState([0.0], [[1.0]])
    post = statistical_linearization_update(
        prior, lambda pts, y: pts[:, 2] + 3.0, noise
    )
    assert_allclose(post.mean, prior.mean, atol=1e-9)
    assert_allclose(post.cov, prior.cov, atol=1e-9)


def test_update_degenerate_innovation_returns_prior():
    prior = GaussianState([1.0], [[2.0]])
    noise = GaussianState([0.0], [[1.0]])
    _, _, status = stacked_sl_update(
        prior.mean[None],
        prior.cov[None],
        lambda pts: np.zeros(pts.shape[:2]),
        noise.mean,
        noise.cov,
    )
    assert status.tolist() == [DEGENERATE]
    post = statistical_linearization_update(prior, lambda pts, y: np.zeros(pts.shape[0]), noise)
    assert np.array_equal(post.mean, prior.mean)
    assert np.array_equal(post.cov, prior.cov)
    assert post.mean is not prior.mean and post.cov is not prior.cov


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_update_affine_matches_kalman(seed):
    rng = np.random.default_rng(1200 + seed)
    d, m = rng.integers(1, 7), rng.integers(1, 4)
    prior = GaussianState(rng.normal(size=d), random_spd(rng, d))
    noise_cov = random_spd(rng, m, scale=0.5)
    noise = GaussianState(np.zeros(m), noise_cov)
    obs = rng.normal(size=(m, d))
    y = rng.normal(size=m)

    def h(pts, meas):
        return pts[:, :d] @ obs.T + pts[:, d:] - meas

    post = statistical_linearization_update(prior, h, noise, measurement=y)
    ref_mean, ref_cov = kalman_reference(prior, obs, noise_cov, y)
    assert_allclose(post.mean, ref_mean, rtol=1e-9, atol=1e-9)
    assert_allclose(post.cov, ref_cov, rtol=1e-9, atol=1e-9)
    # information never decreases in the affine case
    assert np.trace(post.cov) <= np.trace(prior.cov) + 1e-12


def test_update_quadratic_matches_monte_carlo_oracle():
    prior = GaussianState([1.0], [[0.04]])
    noise = GaussianState([0.0], [[0.01]])
    post = statistical_linearization_update(
        prior, lambda pts, y: pts[:, 0] ** 2 + pts[:, 1], noise
    )
    assert abs(post.mean[0] - QUADRATIC_ORACLE_MEAN) < QUADRATIC_ORACLE_MEAN_TOL
    assert abs(post.cov[0, 0] - QUADRATIC_ORACLE_VAR) < QUADRATIC_ORACLE_VAR_TOL


def test_update_emits_valid_covariance():
    rng = np.random.default_rng(77)
    prior = GaussianState(rng.normal(size=3), random_spd(rng, 3))
    noise = GaussianState([0.0], [[0.1]])

    def h(pts, y):
        return pts[:, 0] * pts[:, 1] - pts[:, 2] ** 2 + pts[:, 3]

    post = statistical_linearization_update(prior, h, noise)
    assert_allclose(post.cov, post.cov.T, atol=0)
    assert np.linalg.eigvalsh(post.cov)[0] >= -1e-9


def test_stacked_update_rows_equal_lone_updates():
    rng = np.random.default_rng(78)
    d, n_runs = 4, 5
    means = rng.normal(size=(n_runs, d))
    covs = np.stack([random_spd(rng, d) for _ in range(n_runs)])
    noise = GaussianState([0.0, 0.0], np.diag([0.1, 0.2]))

    def h(pts):  # per run, two quadratic pseudo-measurements
        return np.stack([pts[..., 0] * pts[..., 1] + pts[..., 4], pts[..., 2] ** 2 - pts[..., 5]], -1)

    got_means, got_covs, status = stacked_sl_update(means, covs, h, noise.mean, noise.cov)
    assert not status.any()
    for r in range(n_runs):
        alone = statistical_linearization_update(
            GaussianState(means[r], covs[r]), lambda pts, y: h(pts), noise
        )
        assert np.array_equal(got_means[r], alone.mean)
        assert np.array_equal(got_covs[r], alone.cov)


def test_stacked_psd_repair_flags_rows():
    covs = np.stack([np.eye(2), [[1.0, 0.0], [0.0, -0.5]], [[np.nan, 0.0], [0.0, 1.0]]])
    repaired, ok = stacked_psd_repair(covs)
    assert ok.tolist() == [True, True, False]
    for r in range(2):
        assert np.array_equal(repaired[r], psd_repair(covs[r]))
    with pytest.raises(ConditioningError):
        psd_repair(covs[2])


# ---------------------------------------------------------------------------
# Time update (stacked_predict on one run)


def _predict(state, a, q):
    means, covs, ok = stacked_predict(state.mean[None], state.cov[None], a, q)
    assert ok[0]
    return GaussianState(means[0], covs[0])


def test_predict_identity_noise_free():
    state = GaussianState([1.0, 2.0], np.diag([3.0, 4.0]))
    out = _predict(state, np.eye(2), np.zeros((2, 2)))
    assert_allclose(out.mean, state.mean)
    assert_allclose(out.cov, state.cov)


def test_predict_additive_noise():
    state = GaussianState([0.0, 0.0], np.eye(2))
    out = _predict(state, np.eye(2), 0.3 * np.eye(2))
    assert_allclose(out.cov, 1.3 * np.eye(2))


def test_predict_constant_velocity_step():
    a = np.block(
        [[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]]
    )
    state = GaussianState([0.0, 0.0, 1.0, 1.0], np.eye(4))
    out = _predict(state, a, np.zeros((4, 4)))
    assert_allclose(out.mean[:2], [1.0, 1.0])


def test_predict_rejects_mismatched_shapes():
    state = GaussianState([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        _predict(state, np.eye(3), np.zeros((3, 3)))
