"""Tests for the pseudo-measurement functions and the recursive tracker."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from shapetrack import tracker as tracker_module
from shapetrack.ellipse import (
    EllipseParams,
    clamp_chols,
    ellipse_boundary_point,
    ellipse_closest_points,
    ellipse_scaled_implicit,
    from_semi_axes,
)
from shapetrack.gaussian import (
    DEGENERATE,
    FAILED,
    OK,
    GaussianState,
    statistical_linearization_update,
)
from shapetrack.starconvex import (
    FourierShapeParams,
    angle_point_estimate,
    fourier_basis,
    sc_scaled_implicit,
)
from shapetrack.tracker import (
    DynamicsSpec,
    ScalingModel,
    Tracker,
    TrackerConfig,
    _source_angles,
    ellipse_pseudo_measurement,
    sc_pseudo_measurement,
    shape_params,
    stacked_step,
    stacked_time_update,
    stacked_update,
)

ELL_CONFIG = TrackerConfig(shape_family="ellipse")
SC_CONFIG = TrackerConfig(shape_family="star_convex", n_fourier=7)


def ellipse_prior(mean=(0.5, 0.5, 1.6, 1.6, 0.6), cov_diag=(3, 3, 0.5, 0.5, 0.5)):
    return GaussianState(np.array(mean, dtype=float), np.diag(cov_diag).astype(float))


def circle_prior(radius=1.5, n_coeffs=15):
    mean = np.zeros(2 + n_coeffs)
    mean[2] = 2.0 * radius
    cov = np.diag([0.7, 0.7] + [0.1] * n_coeffs)
    return GaussianState(mean, cov)


def _update(prior, ys, rs, config):
    """`stacked_update` of one run on its k measurements ys (k, 2), noise rs (k, 2, 2)."""
    ys, rs = np.reshape(ys, (1, -1, 2)), np.reshape(rs, (-1, 2, 2))
    means, covs, status = stacked_update(prior.mean[None], prior.cov[None], ys, rs, config)
    assert status[0] == OK
    return GaussianState(means[0], covs[0])


def _predict(state, dyn, shape_dim):
    """`stacked_time_update` of one run."""
    means, covs, _ = stacked_time_update(state.mean[None], state.cov[None], dyn, shape_dim)
    return GaussianState(means[0], covs[0])


# ---------------------------------------------------------------------------
# Models


def test_scaling_model_defaults():
    sq = ScalingModel.squared_scale_uniform()
    assert (sq.mean, sq.variance) == (0.5, pytest.approx(1 / 12))
    sc = ScalingModel.scale_default()
    assert (sc.mean, sc.variance) == (0.7, 0.06)


def test_scaling_model_rejects_zero_variance():
    with pytest.raises(ValueError):
        ScalingModel("scale", 0.7, 0.0)


@pytest.mark.parametrize("mean, variance", [(np.nan, 0.06), (np.inf, 0.06), (0.7, np.inf)])
def test_scaling_model_rejects_non_finite(mean, variance):
    with pytest.raises(ValueError, match="finite"):
        ScalingModel("scale", mean, variance)


def test_scaling_noise_gaussian():
    # each measurement's noise block carries the scaling variable's Gaussian
    mean, cov = tracker_module._noise_block(
        np.stack([np.eye(2), 2.0 * np.eye(2)]), ScalingModel.squared_scale_uniform()
    )
    assert_allclose(mean, [0.0, 0.0, 0.5, 0.0, 0.0, 0.5])
    assert_allclose(cov, np.diag([1.0, 1.0, 1 / 12, 2.0, 2.0, 1 / 12]))


def test_config_family_scaling_consistency():
    with pytest.raises(ValueError):
        TrackerConfig(shape_family="ellipse", scaling=ScalingModel.scale_default())
    with pytest.raises(ValueError):
        TrackerConfig(shape_family="star_convex", n_fourier=0)


def test_dynamics_validation():
    with pytest.raises(ValueError):
        DynamicsSpec(step=0.0)
    with pytest.raises(ValueError):
        DynamicsSpec(q1=-1.0)


# ---------------------------------------------------------------------------
# Ellipse pseudo-measurement


def test_ellipse_pseudo_unit_circle_zero():
    # unit circle, measurement halfway out, squared scale 0.25, no noise
    aug = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.25])
    assert ellipse_pseudo_measurement(
        aug, [0.5, 0.0], [0.5, 0.0], trace_normalize=False
    ) == pytest.approx(0.0)
    assert ellipse_pseudo_measurement(
        aug, [0.5, 0.0], [0.5, 0.0], trace_normalize=True
    ) == pytest.approx(0.0)


def test_ellipse_pseudo_exact_model_consistency():
    # measurement on the true scaled boundary, v = 0, u = s^2 -> exactly 0
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = EllipseParams(
            rng.uniform(-2, 2, size=2),
            [rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(-1, 1)],
        )
        s = rng.uniform(0.05, 1.0)
        z = p.center + s * (
            ellipse_boundary_point(p, rng.uniform(0, 2 * np.pi)) - p.center
        )
        aug = np.concatenate([p.center, p.chol, [0.0, 0.0], [s**2]])
        val = ellipse_pseudo_measurement(aug, z, z - p.center, trace_normalize=False)
        assert abs(val) < 1e-12


def test_ellipse_pseudo_identity_oracle():
    # With the source offset substituted by its true value (y - v) - m, the
    # pseudo-measurement is an exact rewrite of the scaled implicit
    # function evaluated at the noise-free source.
    rng = np.random.default_rng(22)
    for _ in range(200):
        center = rng.uniform(-3, 3, size=2)
        chol = np.array([rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5), rng.uniform(-1.5, 1.5)])
        p = EllipseParams(center, chol)
        v = rng.normal(0, 0.5, size=2)
        u = rng.uniform(0.0, 1.0)
        y = center + rng.uniform(-3, 3, size=2)
        aug = np.concatenate([center, chol, v, [u]])
        direct = ellipse_pseudo_measurement(aug, y, (y - v) - center, trace_normalize=False)
        via_implicit = ellipse_scaled_implicit(p, y - v, np.sqrt(u))
        assert abs(direct - via_implicit) < 1e-10
        # trace normalization only rescales by the same positive constant
        scaled = ellipse_pseudo_measurement(aug, y, (y - v) - center, trace_normalize=True)
        assert abs(scaled * np.sum(chol**2) - direct) < 1e-10


def test_ellipse_pseudo_trace_normalization_pointwise():
    rng = np.random.default_rng(23)
    mean = np.array([0.5, 0.5, 1.6, 1.6, 0.6])
    trace = 1.6**2 + 1.6**2 + 0.6**2
    for _ in range(50):
        aug = np.concatenate([mean, rng.normal(size=2), rng.uniform(0, 1, size=1)])
        y = rng.uniform(-3, 3, size=2)
        offset = rng.uniform(-1, 1, size=2)
        on = ellipse_pseudo_measurement(aug, y, offset, trace_normalize=True)
        off = ellipse_pseudo_measurement(aug, y, offset, trace_normalize=False)
        assert abs(on - off / trace) < 1e-12


def test_ellipse_pseudo_batch_rows_match_scalar():
    rng = np.random.default_rng(24)
    augs = rng.normal(size=(7, 8)) + np.array([0, 0, 2, 2, 0, 0, 0, 0.5])
    y, offset = [1.0, -0.5], [0.3, 0.2]
    batch = ellipse_pseudo_measurement(augs, y, offset)
    singles = [ellipse_pseudo_measurement(a, y, offset) for a in augs]
    assert_allclose(batch, singles, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Star-convex pseudo-measurement


def test_sc_pseudo_circle_zero():
    coeffs = np.zeros(15)
    coeffs[0] = 3.0
    aug = np.concatenate([[0.0, 0.0], coeffs, [0.0, 0.0], [0.5]])
    val = sc_pseudo_measurement(aug, [0.75, 0.0], 0.0, n_coeffs=15)
    assert val == pytest.approx(0.0)


def test_sc_pseudo_noise_free_reduction():
    rng = np.random.default_rng(31)
    coeffs = np.zeros(11)
    coeffs[0] = 4.0
    coeffs[1:] = rng.normal(0, 0.2, size=10)
    p = FourierShapeParams(rng.uniform(-1, 1, size=2), coeffs)
    y = rng.uniform(-2, 2, size=2)
    s = rng.uniform(0.2, 1.0)
    phi = float(np.arctan2(y[1] - p.center[1], y[0] - p.center[0]))
    aug = np.concatenate([p.center, coeffs, [0.0, 0.0], [s]])
    val = sc_pseudo_measurement(aug, y, phi, n_coeffs=11)
    # equals the scaled implicit with the angle frozen at the true direction
    assert val == pytest.approx(-sc_scaled_implicit(p, y, s), abs=1e-12)


def test_sc_pseudo_identity_oracle():
    # h must match the expansion |s r e(phi) + v|^2 - |y - m|^2 exactly,
    # for arbitrary frozen angles.
    rng = np.random.default_rng(32)
    for _ in range(200):
        n_coeffs = 11
        center = rng.uniform(-3, 3, size=2)
        coeffs = rng.normal(0, 1, size=n_coeffs)
        v = rng.normal(0, 0.5, size=2)
        s = rng.normal(0.7, 0.25)
        y = rng.uniform(-4, 4, size=2)
        phi = rng.uniform(-np.pi, np.pi)
        aug = np.concatenate([center, coeffs, v, [s]])
        direct = sc_pseudo_measurement(aug, y, phi, n_coeffs)
        r = fourier_basis(phi, n_coeffs) @ coeffs
        e = np.array([np.cos(phi), np.sin(phi)])
        expansion = np.sum((s * r * e + v) ** 2) - np.sum((y - center) ** 2)
        assert abs(direct - expansion) < 1e-10


def _single_view(points, d, l):
    """The state part plus noise block l of stacked augmented points."""
    return np.hstack([points[:, :d], points[:, d + 3 * l : d + 3 * l + 3]])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ellipse_pseudo_stacked_columns_match_single(k):
    rng = np.random.default_rng(25 + k)
    d, n_runs = 7, 3
    runs = rng.normal(size=(n_runs, 2 * (d + 3 * k) + 1, d + 3 * k))
    runs[:, :, 4:6] += 2.0
    all_ys = rng.uniform(-3, 3, size=(n_runs, k, 2))
    all_offsets = rng.uniform(-1, 1, size=(n_runs, k, 2))
    points, ys, offsets = runs[0], all_ys[0], all_offsets[0]
    for normalize in (True, False):
        stacked = ellipse_pseudo_measurement(points, ys, offsets, normalize)
        assert stacked.shape == (len(points), k)
        for l in range(k):
            single = ellipse_pseudo_measurement(
                _single_view(points, d, l), ys[l], offsets[l], normalize
            )
            assert np.array_equal(stacked[:, l], single)
        # a leading run axis: each run's block equals its own call
        by_run = ellipse_pseudo_measurement(runs, all_ys, all_offsets, normalize)
        assert by_run.shape == (n_runs, len(points), k)
        for r in range(n_runs):
            own = ellipse_pseudo_measurement(runs[r], all_ys[r], all_offsets[r], normalize)
            assert np.array_equal(by_run[r], own)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_sc_pseudo_stacked_columns_match_single(k):
    rng = np.random.default_rng(35 + k)
    d, n_coeffs, n_runs = 17, 15, 3
    runs = rng.normal(size=(n_runs, 2 * (d + 3 * k) + 1, d + 3 * k))
    all_ys = rng.uniform(-3, 3, size=(n_runs, k, 2))
    all_phis = rng.uniform(-np.pi, np.pi, size=(n_runs, k))
    points, ys, phis = runs[0], all_ys[0], all_phis[0]
    stacked = sc_pseudo_measurement(points, ys, phis, n_coeffs)
    assert stacked.shape == (len(points), k)
    for l in range(k):
        single = sc_pseudo_measurement(_single_view(points, d, l), ys[l], phis[l], n_coeffs)
        assert np.array_equal(stacked[:, l], single)
    by_run = sc_pseudo_measurement(runs, all_ys, all_phis, n_coeffs)
    assert by_run.shape == (n_runs, len(points), k)
    for r in range(n_runs):
        assert np.array_equal(by_run[r], sc_pseudo_measurement(runs[r], all_ys[r], all_phis[r], n_coeffs))


# ---------------------------------------------------------------------------
# Measurement update


def test_update_layout_mismatch_rejected():
    with pytest.raises(ValueError):
        _update(circle_prior(), [0.0, 0.0], np.eye(2), ELL_CONFIG)


def test_update_center_measurement_moves_little():
    prior = GaussianState([0, 0, 1, 1, 0], np.diag([0.01, 0.01, 1e-4, 1e-4, 1e-4]))
    post = _update(prior, [0.0, 0.0], 0.04 * np.eye(2), ELL_CONFIG)
    assert np.linalg.norm(post.mean[:2]) < 0.2


def test_update_posterior_is_valid_gaussian():
    prior = ellipse_prior()
    post = _update(prior, [1.0, 0.5], np.eye(2), ELL_CONFIG)
    assert_allclose(post.cov, post.cov.T, atol=0)
    assert np.linalg.eigvalsh(post.cov)[0] >= -1e-9
    assert np.all(np.isfinite(post.mean))


def test_update_small_noise_innovation_reduction_ellipse():
    # With vanishing noise and scaling uncertainty, one update must shrink
    # the scaled-implicit residual of the measurement on a mismatched prior.
    config = TrackerConfig(
        shape_family="ellipse", scaling=ScalingModel("squared_scale", 0.5, 1e-12)
    )
    prior = GaussianState([0, 0, 1, 1, 0], np.diag([0.5, 0.5, 0.3, 0.3, 0.3]))
    y = np.array([2.0, 0.0])
    post = _update(prior, y, 1e-12 * np.eye(2), config)
    s_bar = np.sqrt(0.5)
    before = ellipse_scaled_implicit(EllipseParams([0, 0], [1, 1, 0]), y, s_bar)
    p_post = EllipseParams(post.mean[:2], post.mean[-3:])
    after = ellipse_scaled_implicit(p_post, y, s_bar)
    assert abs(after) < abs(before)


def test_update_small_noise_innovation_reduction_sc():
    config = TrackerConfig(
        shape_family="star_convex", n_fourier=7, scaling=ScalingModel("scale", 0.7, 1e-12)
    )
    prior = circle_prior()
    y = np.array([2.5, 0.0])
    post = _update(prior, y, 1e-12 * np.eye(2), config)
    before = sc_scaled_implicit(FourierShapeParams(prior.mean[:2], prior.mean[2:]), y, 0.7)
    after = sc_scaled_implicit(FourierShapeParams(post.mean[:2], post.mean[2:]), y, 0.7)
    assert abs(after) < abs(before)


def test_update_repeated_shrinks_shape_covariance():
    # 300 low-noise measurements of a fixed ellipse: the shape-parameter
    # covariance trace should fall in at least 95% of the steps.
    rng = np.random.default_rng(404)
    truth = EllipseParams([1.0, 1.0], [1.0, 0.5, 0.2])
    state = ellipse_prior(mean=(0.5, 0.5, 1.6, 1.6, 0.6))
    noise_cov = 0.01 * np.eye(2)
    drops = 0
    for _ in range(300):
        theta = rng.uniform(0, 2 * np.pi)
        s = np.sqrt(rng.uniform(0, 1))
        z = truth.center + s * (ellipse_boundary_point(truth, theta) - truth.center)
        y = z + rng.multivariate_normal(np.zeros(2), noise_cov)
        before = np.trace(state.cov[-3:, -3:])
        state = _update(state, y, noise_cov, ELL_CONFIG)
        drops += np.trace(state.cov[-3:, -3:]) < before
    assert drops >= 0.95 * 300


# ---------------------------------------------------------------------------
# Batch update


def test_batch_single_equals_sequential_exactly():
    for config, prior, y, r in [
        (ELL_CONFIG, ellipse_prior(), [1.2, 0.3], 0.5 * np.eye(2)),
        (SC_CONFIG, circle_prior(), [1.4, -0.6], 0.09 * np.eye(2)),
    ]:
        (a_mean, a_cov, *_), (b_mean, b_cov, *_) = [
            stacked_step(
                prior.mean[None], prior.cov[None], [np.array([y])], r[None],
                dataclasses.replace(config, batch_mode=batch),
            )
            for batch in (False, True)
        ]
        assert_allclose(a_mean, b_mean, rtol=0, atol=0)
        assert_allclose(a_cov, b_cov, rtol=0, atol=0)


def _oracle_batch_update(prior, ys, rs, config):
    """Per-measurement closures stacked column by column, with a block-diagonal noise.

    The reference form of the stacked update; the source estimates are the
    same closest points / angles the update under test computes.
    """
    d = prior.dim
    noise_blocks, hs = [], []
    for y, r in zip(ys, rs):
        y = np.asarray(y, dtype=float)
        noise_blocks += [r, [[config.scaling.variance]]]
        if config.shape_family == "ellipse":
            chols, _ = clamp_chols(prior.mean[None, -3:])
            closest = ellipse_closest_points(prior.mean[None, :2], chols, y.reshape(1, 1, 2))
            offset = closest.reshape(2) - prior.mean[:2]
            hs.append(
                lambda pts, y=y, o=offset: ellipse_pseudo_measurement(
                    pts, y, o, config.trace_normalize
                )
            )
        else:
            phi = angle_point_estimate(y, prior.mean[:2])
            hs.append(
                lambda pts, y=y, phi=phi: sc_pseudo_measurement(pts, y, phi, config.shape_dim)
            )

    def h(points, _y):
        return np.column_stack([hl(_single_view(points, d, l)) for l, hl in enumerate(hs)])

    noise_mean = np.tile([0.0, 0.0, config.scaling.mean], len(hs))
    noise = GaussianState(noise_mean, block_diag(*noise_blocks))
    return statistical_linearization_update(
        prior, h, noise, measurement=None, spread=config.unscented
    )


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_batch_matches_closure_oracle(k):
    rng = np.random.default_rng(60 + k)
    cases = [
        (ELL_CONFIG, ellipse_prior(), 0.0),
        (TrackerConfig(shape_family="ellipse", trace_normalize=False), ellipse_prior(), 0.0),
        (SC_CONFIG, circle_prior(), 1e-12),
    ]
    for config, prior, tol in cases:
        ys = rng.uniform(-2.5, 2.5, size=(k, 2))
        rs = [s * s * np.eye(2) for s in rng.uniform(0.1, 0.6, size=k)]
        got = _update(prior, ys, rs, config)
        want = _oracle_batch_update(prior, ys, rs, config)
        if tol == 0.0:
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)
        else:
            assert_allclose(got.mean, want.mean, rtol=0, atol=tol * (1 + np.abs(want.mean).max()))
            assert_allclose(got.cov, want.cov, rtol=0, atol=tol * (1 + np.abs(want.cov).max()))


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_update_rows_equal_lone_updates(k):
    rng = np.random.default_rng(80 + k)
    for config, prior in [(ELL_CONFIG, ellipse_prior()), (SC_CONFIG, circle_prior())]:
        n_runs = 4
        means = prior.mean + rng.normal(0.0, 0.05, size=(n_runs, prior.dim))
        covs = np.stack([prior.cov * s for s in rng.uniform(0.5, 2.0, n_runs)])
        ys = rng.uniform(-2.5, 2.5, size=(n_runs, k, 2))
        rs = np.stack([s * s * np.eye(2) for s in rng.uniform(0.1, 0.6, size=k)])
        got_means, got_covs, status = stacked_update(means, covs, ys, rs, config)
        assert np.array_equal(status, np.full(n_runs, OK))
        for r in range(n_runs):
            alone = _update(GaussianState(means[r], covs[r]), ys[r], rs, config)
            assert np.array_equal(got_means[r], alone.mean)
            assert np.array_equal(got_covs[r], alone.cov)


def test_source_angles_equal_angle_point_estimate():
    # signed zeros included: -pi maps to pi, and an exact-center
    # measurement (either sign of zero) gets 0
    values = [0.0, -0.0, 1.0, -1.0, 2.5e-300]
    zero_offsets = [[x, y] for x in values for y in values]
    rng = np.random.default_rng(31)
    measurements = np.stack([zero_offsets, rng.normal(size=(25, 2)) * 3.0])
    centers = np.array([[0.0, 0.0], [0.4, -1.3]])
    measurements[1] += centers[1]
    got = _source_angles(measurements, centers)
    want = [[angle_point_estimate(y, c) for y in ys] for c, ys in zip(centers, measurements)]
    assert got.shape == (2, 25)
    assert np.array_equal(got, want)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


def test_stacked_update_solves_all_closest_points_in_one_call(monkeypatch):
    calls = []
    kernel = tracker_module.ellipse_closest_points

    def counted(centers, chols, queries):
        calls.append(queries.shape)
        return kernel(centers, chols, queries)

    monkeypatch.setattr(tracker_module, "ellipse_closest_points", counted)
    rng = np.random.default_rng(32)
    prior = ellipse_prior()
    means = prior.mean + rng.normal(0.0, 0.05, size=(5, prior.dim))
    covs = np.stack([prior.cov] * 5)
    ys = rng.uniform(-2.5, 2.5, size=(5, 3, 2))
    stacked_update(means, covs, ys, np.stack([0.25 * np.eye(2)] * 3), ELL_CONFIG)
    assert calls == [(5, 3, 2)]


def test_stacked_update_status_is_per_run():
    config = TrackerConfig(
        shape_family="ellipse", scaling=ScalingModel("squared_scale", 0.5, 1e-18)
    )
    prior = ellipse_prior()
    means = np.stack([prior.mean, [0, 0, 1, 1, 0], [1e200, 0, 1, 1, 0]]).astype(float)
    covs = np.stack([prior.cov, 1e-18 * np.eye(5), prior.cov])
    ys = np.array([[[1.2, 0.3]], [[0.0, 0.0]], [[1.0, 0.0]]])
    rs = 1e-18 * np.eye(2)[None]
    with np.errstate(all="ignore"):
        got_means, got_covs, status = stacked_update(means, covs, ys, rs, config)
    assert status.tolist() == [OK, DEGENERATE, FAILED]
    alone = _update(prior, ys[0], rs, config)
    assert np.array_equal(got_means[0], alone.mean)
    assert np.array_equal(got_covs[0], alone.cov)
    # the degenerate and the failed run keep their priors
    assert np.array_equal(got_means[1:], means[1:])
    assert np.array_equal(got_covs[1:], covs[1:])


@pytest.mark.parametrize("batch", [False, True])
def test_stacked_step_rows_equal_lone_steps(batch):
    rng = np.random.default_rng(95)
    counts = [2, 0, 3, 1, 2]
    for base, prior in [(ELL_CONFIG, ellipse_prior()), (SC_CONFIG, circle_prior())]:
        config = TrackerConfig(
            shape_family=base.shape_family, n_fourier=base.n_fourier, batch_mode=batch
        )
        means = prior.mean + rng.normal(0.0, 0.05, size=(len(counts), prior.dim))
        covs = np.stack([prior.cov * s for s in rng.uniform(0.5, 2.0, len(counts))])
        ys = [rng.uniform(-2.5, 2.5, size=(k, 2)) for k in counts]
        rs = np.stack([s * s * np.eye(2) for s in rng.uniform(0.1, 0.6, size=max(counts))])
        got_means, got_covs, failed, degenerate = stacked_step(means, covs, ys, rs, config)
        assert not failed.any() and not degenerate.any()
        for r, k in enumerate(counts):
            alone = GaussianState(means[r], covs[r])
            if k and batch:
                alone = _update(alone, ys[r], rs[:k], config)
            for j in range(0 if batch else k):
                alone = _update(alone, ys[r][j], rs[j], config)
            assert np.array_equal(got_means[r], alone.mean)
            assert np.array_equal(got_covs[r], alone.cov)


def test_stacked_step_stops_a_run_at_its_failed_update():
    config = TrackerConfig(shape_family="ellipse")
    prior = ellipse_prior()
    means = np.stack([prior.mean, [1e200, 0, 1, 1, 0]]).astype(float)
    covs = np.stack([prior.cov, prior.cov])
    ys = [np.array([[1.2, 0.3], [-0.4, 1.0]])] * 2
    rs = np.stack([0.25 * np.eye(2)] * 2)
    with np.errstate(all="ignore"):
        got_means, got_covs, failed, degenerate = stacked_step(means, covs, ys, rs, config)
    assert failed.tolist() == [False, True]
    assert degenerate.tolist() == [0, 0]
    assert np.array_equal(got_means[1], means[1]) and np.array_equal(got_covs[1], covs[1])
    tracker = Tracker(config, prior)
    tracker.update(ys[0], rs)
    assert np.array_equal(got_means[0], tracker.state.mean)
    # the inputs are not written to
    assert np.array_equal(means[0], prior.mean) and np.array_equal(covs[0], prior.cov)


def test_batch_malformed_measurement_rejected():
    tracker = Tracker(TrackerConfig(shape_family="ellipse", batch_mode=True), ellipse_prior())
    for ys in ([[1.0, 0.0, 2.0]], [[1.0, 0.0], [1.0]], [[[1.0, 0.0]] * 2]):
        with pytest.raises(ValueError):
            tracker.update(ys, [np.eye(2)] * len(ys))
    with pytest.raises(ValueError):
        tracker.update([[1.0, 0.0]], [])
    with pytest.raises(ValueError):
        tracker.update([[1.0, 0.0]], [np.eye(3)])
    assert np.array_equal(tracker.state.mean, ellipse_prior().mean)


def test_batch_order_insensitive_sanity():
    # Batch and both sequential orders land near each other; the tight
    # calibrated bound lives in the acceptance suite.
    prior = ellipse_prior()
    ys = [np.array([1.0, 0.2]), np.array([-0.3, 1.1])]
    r = 0.5 * np.eye(2)
    stacked = _update(prior, ys, [r, r], ELL_CONFIG)
    fwd = _update(_update(prior, ys[0], r, ELL_CONFIG), ys[1], r, ELL_CONFIG)
    rev = _update(_update(prior, ys[1], r, ELL_CONFIG), ys[0], r, ELL_CONFIG)
    scale = np.sqrt(np.diag(stacked.cov))
    assert np.all(np.abs(fwd.mean - rev.mean) < scale)
    assert np.all(np.abs(stacked.mean - fwd.mean) < scale)


def test_batch_runs_with_three_measurements():
    prior = circle_prior()
    ys = [[1.5, 0.0], [0.0, 1.4], [-1.2, 0.1]]
    rs = [0.09 * np.eye(2)] * 3
    post = _update(prior, ys, rs, SC_CONFIG)
    assert post.dim == prior.dim
    assert not np.allclose(post.mean, prior.mean)


# ---------------------------------------------------------------------------
# Time update


def test_time_update_static_random_walk():
    state = GaussianState([0, 0, 1, 1, 0], np.eye(5))
    out = _predict(state, DynamicsSpec(model="static_random_walk", q1=0.1), 3)
    assert_allclose(out.mean, state.mean)
    assert_allclose(out.cov, np.eye(5) + 0.1 * np.eye(5))


def test_time_update_static_noise_free_identity():
    state = GaussianState([0, 0, 1, 1, 0], np.diag([1, 2, 3, 4, 5.0]))
    out = _predict(state, DynamicsSpec(), 3)
    assert_allclose(out.mean, state.mean)
    assert_allclose(out.cov, state.cov)


def test_time_update_constant_velocity_moves_center():
    dyn = DynamicsSpec(model="constant_velocity_plus_random_walk", step=1.0)
    mean = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    state = GaussianState(mean, np.eye(7))
    out = _predict(state, dyn, 3)
    assert_allclose(out.mean[:2], [1.0, 0.0])
    assert_allclose(out.mean[2:], mean[2:])


def test_time_update_cv_noise_blocks():
    dyn = DynamicsSpec(
        model="constant_velocity_plus_random_walk", step=2.0, q1=0.1, q2=0.5
    )
    state = GaussianState(np.zeros(7), np.zeros((7, 7)))
    out = _predict(state, dyn, 3)
    t = 2.0
    assert_allclose(out.cov[0, 0], 0.5 * t**3 / 3)
    assert_allclose(out.cov[0, 2], 0.5 * t**2 / 2)
    assert_allclose(out.cov[2, 2], 0.5 * t)
    assert_allclose(out.cov[4:, 4:], 0.1 * np.eye(3))
    assert_allclose(out.cov[:4, 4:], 0.0)


def test_stacked_time_update_rows_equal_lone_predictions():
    dyn = DynamicsSpec("constant_velocity_plus_random_walk", step=0.5, q1=0.01, q2=0.2)
    rng = np.random.default_rng(90)
    means = rng.normal(size=(3, 7))
    covs = np.stack([np.diag(rng.uniform(0.1, 1.0, 7)) for _ in range(3)])
    covs[2, 0, 0] = 1e308  # overflows in A P A^T
    got_means, got_covs, ok = stacked_time_update(means, covs, dyn, 3)
    assert ok.tolist() == [True, True, False]
    config = TrackerConfig(dynamics=dyn)
    for r in range(2):
        alone = Tracker(config, GaussianState(means[r], covs[r]))
        alone.predict()
        assert np.array_equal(got_means[r], alone.state.mean)
        assert np.array_equal(got_covs[r], alone.state.cov)
    with pytest.raises(ValueError, match="finite"):
        Tracker(config, GaussianState(means[2], covs[2])).predict()


def test_time_update_layout_mismatch():
    with pytest.raises(ValueError):
        _predict(GaussianState(np.zeros(5), np.eye(5)),
                 DynamicsSpec(model="constant_velocity_plus_random_walk"), 3)
    with pytest.raises(ValueError):
        _predict(GaussianState(np.zeros(7), np.eye(7)), DynamicsSpec(), 3)


# ---------------------------------------------------------------------------
# Tracker wrapper


def test_tracker_runs_and_estimates():
    # sequential single-point updates at sensor noise comparable to the
    # extent, the regime the quadratic linearization is built for
    rng = np.random.default_rng(50)
    truth = from_semi_axes([1.0, 1.0], [2.0, 1.0], angle=0.5)
    tracker = Tracker(ELL_CONFIG, ellipse_prior())
    for _ in range(300):
        tracker.predict()
        theta = rng.uniform(0, 2 * np.pi)
        s = np.sqrt(rng.uniform(0, 1))
        z = truth.center + s * (ellipse_boundary_point(truth, theta) - truth.center)
        tracker.update([z + rng.normal(0, 0.6, size=2)], [0.36 * np.eye(2)])
    est = tracker.shape_estimate()
    assert np.linalg.norm(est.center - truth.center) < 0.3
    assert_allclose(est.semi_axes, truth.semi_axes, atol=0.5)
    assert tracker.degenerate_updates == 0


def test_tracker_counts_clamp_repairs():
    # a collapsed diagonal entry (not a flipped sign) is a genuine repair
    prior = GaussianState([0, 0, 1e-9, 1.0, 0.0], np.diag([1, 1, 0.5, 0.5, 0.5]))
    tracker = Tracker(ELL_CONFIG, prior)
    tracker.update([[1.0, 0.0]], [np.eye(2)])
    assert tracker.clamp_repairs == 1


def test_tracker_ignores_sign_flips():
    prior = GaussianState([0, 0, -1.0, 1.0, 0.0], np.diag([1, 1, 0.5, 0.5, 0.5]))
    tracker = Tracker(ELL_CONFIG, prior)
    tracker.update([[1.0, 0.0]], [np.eye(2)])
    assert tracker.clamp_repairs == 0


def test_tracker_counts_degenerate_updates():
    config = TrackerConfig(
        shape_family="ellipse", scaling=ScalingModel("squared_scale", 0.5, 1e-18)
    )
    prior = GaussianState([0, 0, 1, 1, 0], 1e-18 * np.eye(5))
    tracker = Tracker(config, prior)
    tracker.update([[0.0, 0.0]], [1e-18 * np.eye(2)])
    assert tracker.degenerate_updates == 1
    assert_allclose(tracker.state.mean, prior.mean)


def test_shape_params_clamp_ellipse_triples_only():
    states = np.array([[0.5, -1.0, -0.2, 1.0, 0.3], [2.0, 1.0, 1e-9, 1.0, 0.3]])
    centers, params, clamped = shape_params(states, ELL_CONFIG)
    want, repaired = clamp_chols(states[:, -3:])
    assert np.array_equal(centers, states[:, :2])
    assert np.array_equal(params, want) and np.array_equal(clamped, repaired)
    assert clamped.tolist() == [False, True]
    sc_states = np.stack([circle_prior().mean, -circle_prior().mean])
    centers, params, clamped = shape_params(sc_states, SC_CONFIG)
    assert np.array_equal(centers, sc_states[:, :2])
    assert np.array_equal(params, sc_states[:, 2:]) and not clamped.any()


def test_tracker_estimate_family_guard():
    # the one shape estimate takes its type from the configured family
    ell = Tracker(ELL_CONFIG, GaussianState([0, 0, -1.0, 1.0, 0.2], np.eye(5))).shape_estimate()
    assert isinstance(ell, EllipseParams)
    assert np.array_equal(ell.chol, [1.0, 1.0, -0.2])
    prior = circle_prior()
    contour = Tracker(SC_CONFIG, prior).shape_estimate()
    assert isinstance(contour, FourierShapeParams)
    assert np.array_equal(contour.coeffs, prior.mean[2:])
