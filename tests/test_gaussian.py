"""Tests for Gaussian containers, sigma points, and the linearized update."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack.gaussian import (
    DEGENERATE,
    JITTER_FLOOR,
    PSD_TOL,
    ConditioningError,
    GaussianState,
    UnscentedSpread,
    _stacked_cholesky,
    draw_sigma_points,
    psd_repair,
    stacked_predict,
    stacked_psd_repair,
    stacked_sl_update,
    statistical_linearization_update,
    symmetrize,
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


def test_stacked_cholesky_handles_a_singular_matrix():
    # the rank-1 matrix fails the stacked factorization, so every matrix is
    # factorized alone and the singular one takes the jitter retry
    covs = np.stack([np.diag([2.0, 3.0]), [[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]])
    roots, ok = _stacked_cholesky(covs)
    assert ok.tolist() == [True, True, True]
    assert_allclose(roots[1] @ roots[1].T, covs[1], atol=1e-6)
    for r in (0, 2):
        assert np.array_equal(roots[r], np.linalg.cholesky(covs[r]))


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
    # each call builds its own weights, so editing them changes no later draw
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


def eigvalsh_psd_repair(covs):
    """The repair rule by `eigvalsh` on every finite matrix: the reference for
    the Cholesky check of `stacked_psd_repair`."""
    sym = symmetrize(np.asarray(covs, dtype=float))
    ok = np.isfinite(sym).reshape(len(sym), -1).all(axis=1)
    w_min = np.zeros(len(sym))
    w_min[ok] = np.linalg.eigvalsh(sym[ok])[:, 0]
    bad = (w_min < -PSD_TOL).nonzero()[0]
    if bad.size:
        eps = np.abs(w_min[bad]) + JITTER_FLOOR
        sym[bad] = sym[bad] + eps[:, None, None] * np.eye(sym.shape[-1])
        ok[bad] = np.linalg.eigvalsh(sym[bad])[:, 0] >= -PSD_TOL
    return sym, ok


def assert_repair_is_the_eigvalsh_rule(covs):
    repaired, ok = stacked_psd_repair(covs)
    want, want_ok = eigvalsh_psd_repair(covs)
    assert repaired.tobytes() == want.tobytes()  # bit for bit, NaN included
    assert ok.tolist() == want_ok.tolist()
    return repaired, ok


def factorizes(covs) -> bool:
    try:
        np.linalg.cholesky(symmetrize(covs))
    except np.linalg.LinAlgError:
        return False
    return True


def rotated(rng, w):
    """A symmetric matrix with eigenvalues w in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.normal(size=(len(w), len(w))))
    return (q * w) @ q.T


@pytest.mark.parametrize("d", [3, 5, 8, 17])
def test_psd_check_of_near_singular_stacks(d):
    # positive definite with condition numbers 1e12-1e15: the check agrees
    # with eigvalsh on every stack, and at least one stack factorizes, so
    # the Cholesky path runs
    rng = np.random.default_rng(d)
    cleared = 0
    for cond in (1e12, 1e13, 1e14, 1e15):
        covs = np.stack([rotated(rng, np.geomspace(1.0, 1.0 / cond, d)) for _ in range(6)])
        assert_repair_is_the_eigvalsh_rule(covs)
        cleared += factorizes(covs)
    assert cleared >= 1


def test_psd_check_at_the_tolerance():
    # smallest eigenvalue exactly 0, -0.5 PSD_TOL and -2 PSD_TOL, next to
    # positive definite matrices; alone, in a stack, diagonal and rotated
    rng = np.random.default_rng(4)
    edges = [np.diag([w, 1.0, 2.0]) for w in (0.0, -0.5 * PSD_TOL, -2.0 * PSD_TOL)]
    spd = [random_spd(rng, 3) for _ in range(2)]
    for cov in edges:
        for covs in ([cov], [spd[0], cov, spd[1]]):
            assert_repair_is_the_eigvalsh_rule(np.stack(covs))
    repaired, ok = assert_repair_is_the_eigvalsh_rule(np.stack(edges + spd))
    assert ok.all()
    assert [np.array_equal(r, c) for r, c in zip(repaired, edges)] == [True, True, False]
    turn = rotated(rng, [1.0, 1.0, 1.0])  # an orthonormal basis
    assert_repair_is_the_eigvalsh_rule(np.stack([turn @ c @ turn.T for c in edges + spd]))


def test_psd_check_of_a_large_norm_stack():
    # entries of 1e8-1e12, as a run near the divergence bound of its centre
    # can carry: every matrix factorizes, yet eigvalsh finds the smallest
    # eigenvalue of some below -PSD_TOL, which the norm bound must send to
    # the jitter
    rng = np.random.default_rng(9)
    covs = []
    while len(covs) < 40:
        b = rng.normal(size=(5, 4)) * 10 ** rng.uniform(4, 6, 4)
        cov = symmetrize(b @ b.T)  # rank 4: smallest eigenvalue 0 up to rounding
        if factorizes(cov[None]):
            covs.append(cov)
    covs = np.stack(covs)
    assert factorizes(covs)
    assert (np.linalg.eigvalsh(covs)[:, 0] < -PSD_TOL).sum() >= 3
    repaired, _ = assert_repair_is_the_eigvalsh_rule(covs)
    assert not np.array_equal(repaired, covs)


def test_psd_check_flags_non_finite_rows():
    # a NaN or inf matrix can factorize into a non-finite factor without an
    # error; it must still be flagged, and the others repaired as alone
    rng = np.random.default_rng(6)
    covs = np.stack([random_spd(rng, 4) for _ in range(5)])
    covs[1, 2, 3] = np.nan
    covs[3, 0, 0] = np.inf
    covs[4] = np.diag([1.0, 1.0, 1.0, -2.0 * PSD_TOL])
    for stack in (covs, covs[[1, 3]], covs[:4]):
        repaired, ok = assert_repair_is_the_eigvalsh_rule(stack)
        assert ok.tolist() == np.isfinite(stack).all(axis=(1, 2)).tolist()


@pytest.mark.parametrize("d", [1, 3])
def test_stacked_kernels_of_no_runs(d):
    repaired, ok = stacked_psd_repair(np.zeros((0, d, d)))
    assert repaired.shape == (0, d, d) and ok.shape == (0,)
    for m in (1, 2):  # a scalar and a stacked pseudo-measurement
        means, covs, status = stacked_sl_update(
            np.zeros((0, d)),
            np.zeros((0, d, d)),
            lambda p: np.repeat(p[..., :1], m, axis=-1),
            np.zeros(1),
            np.eye(1),
        )
        assert means.shape == (0, d) and covs.shape == (0, d, d) and status.shape == (0,)


# ---------------------------------------------------------------------------
# Time update (stacked_predict on one run)


def _predict(state, a, q):
    means, covs = stacked_predict(state.mean[None], state.cov[None], a, q)
    assert np.isfinite(means[0]).all() and np.isfinite(covs[0]).all()
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
