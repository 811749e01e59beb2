from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack import gaussian, simulate, targets
from shapetrack import tracker as tracker_module
from shapetrack.ellipse import EllipseParams, from_semi_axes
from shapetrack.gaussian import ConditioningError, GaussianState, UnscentedSpread
from shapetrack.metrics import shape_iou
from shapetrack.simulate import (
    DIVERGENCE_CENTER_BOUND,
    MeasurementCountModel,
    NoiseMixture,
    ScenarioConfig,
    Trajectory,
    measurement_count,
    posed_target,
    run_scenario,
)
from shapetrack.targets import (
    RejectionBudgetError,
    _box_chunk_size,
    _round_size,
    builtin_data_path,
    ellipse_target,
    group_target,
    load_geometry,
    load_waypoints,
    polygon_target,
    psd_root,
    sample_measurement_sources,
    stacked_sample_sources,
)
from shapetrack.tracker import DynamicsSpec, ScalingModel, Tracker, TrackerConfig

STATIC = DynamicsSpec("static_random_walk", q1=0.001)


def ellipse_scenario(**overrides):
    """A small low-noise stationary scenario; overrides patch single fields."""
    fields = dict(
        target=ellipse_target(from_semi_axes([0.0, 0.0], [2.0, 1.0], 0.5)),
        noise_mixture=NoiseMixture.isotropic([0.6]),
        meas_count_model=MeasurementCountModel("fixed_per_step", 1),
        n_steps=40,
        n_runs=5,
        prior=GaussianState(
            np.array([0.5, 0.5, 1.6, 1.6, 0.6]),
            np.diag([3.0, 3.0, 0.5, 0.5, 0.5]),
        ),
        tracker=TrackerConfig(shape_family="ellipse", dynamics=STATIC),
        rng_seed=91,
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


# ---------------------------------------------------------------------------
# noise mixture


def test_mixture_mean_covariance():
    mix = NoiseMixture.isotropic([0.2, 0.4], [0.75, 0.25])
    assert_allclose(mix.mean_covariance, 0.07 * np.eye(2), rtol=1e-14)


def test_mixture_single_level():
    mix = NoiseMixture.single(np.diag([0.36, 0.36]))
    assert mix.covariances.shape == (1, 2, 2)
    assert_allclose(mix.mean_covariance, np.diag([0.36, 0.36]))


def test_mixture_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        NoiseMixture.isotropic([0.2, 0.4], [0.8, 0.1])
    with pytest.raises(ValueError):
        NoiseMixture.isotropic([0.2, 0.4], [1.2, -0.2])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_mixture_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        NoiseMixture.single(np.diag([bad, 1.0]))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
        NoiseMixture.isotropic([1e160])  # the variance overflows
    with pytest.raises(ValueError):
        NoiseMixture.isotropic([0.2, 0.4], [bad, 0.5])


def test_mixture_rejects_bad_shapes():
    with pytest.raises(ValueError):
        NoiseMixture(np.eye(2), np.array([1.0]))
    with pytest.raises(ValueError):
        NoiseMixture(np.eye(2)[None], np.array([0.5, 0.5]))


def test_mixture_empirical_mixing_fraction():
    mix = NoiseMixture.isotropic([0.2, 0.4], [0.75, 0.25])
    rng = np.random.Generator(np.random.Philox(7))
    cdf = mix.probabilities.cumsum()
    levels = simulate._levels(cdf / cdf[-1], rng.random(100_000))
    assert abs(np.mean(levels == 0) - 0.75) < 0.01


# ---------------------------------------------------------------------------
# measurement counts


def test_fixed_count_is_constant():
    model = MeasurementCountModel("fixed_per_step", 1)
    rng = np.random.Generator(np.random.Philox(0))
    assert all(measurement_count(model, rng) == 1 for _ in range(200))


def test_shifted_poisson_mean():
    model = MeasurementCountModel("shifted_poisson", 4.0)
    rng = np.random.Generator(np.random.Philox(1))
    draws = np.array([measurement_count(model, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 5.0) < 0.05


def test_shifted_poisson_never_zero():
    model = MeasurementCountModel("shifted_poisson", 7.0)
    rng = np.random.Generator(np.random.Philox(2))
    draws = np.array([measurement_count(model, rng) for _ in range(100_000)])
    assert draws.min() >= 1


def test_count_model_validation():
    with pytest.raises(ValueError):
        MeasurementCountModel("per_scan", 3)
    with pytest.raises(ValueError):
        MeasurementCountModel("fixed_per_step", 2.5)
    with pytest.raises(ValueError):
        MeasurementCountModel("fixed_per_step", 0)
    with pytest.raises(ValueError):
        MeasurementCountModel("shifted_poisson", -1.0)
    for kind in ("fixed_per_step", "shifted_poisson"):
        with pytest.raises(ValueError, match="at most"):
            MeasurementCountModel(kind, simulate.MAX_MEASUREMENTS_PER_STEP + 1)


@pytest.mark.parametrize("kind", ["fixed_per_step", "shifted_poisson"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_count_model_rejects_non_finite_value(kind, value):
    # int(inf) raised OverflowError, and a NaN Poisson mean failed at the first draw
    with pytest.raises(ValueError, match="finite"):
        MeasurementCountModel(kind, value)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="rng_seed"):
        ellipse_scenario(rng_seed=-1)


def test_stacked_count_sizes_a_batch_step():
    assert MeasurementCountModel("fixed_per_step", 7).stacked_count() == 7
    # 1 + ceil(4 + 6 * 2): a draw above it has probability about 1e-6
    assert MeasurementCountModel("shifted_poisson", 4.0).stacked_count() == 17
    assert MeasurementCountModel("shifted_poisson", 0.0).stacked_count() == 1

# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_constant_speed_resampling():
    wp = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]])
    traj = Trajectory.from_waypoints(wp, 50)
    assert len(traj) == 50
    steps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
    assert_allclose(steps, steps.mean(), rtol=0.02)
    assert_allclose(traj.positions[0], wp[0], atol=1e-9)
    assert_allclose(traj.positions[-1], wp[-1], atol=1e-9)


def test_trajectory_headings_follow_travel_direction():
    wp = np.array([[0.0, 0.0], [10.0, 0.0]])
    traj = Trajectory.from_waypoints(wp, 5)
    assert_allclose(traj.headings, 0.0, atol=1e-9)


def test_trajectory_rejects_misaligned_fields():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((4, 2)), np.zeros(3))


def test_trajectory_rejects_coincident_waypoints():
    with pytest.raises(ValueError):
        Trajectory.from_waypoints(np.zeros((3, 2)), 10)


@pytest.mark.parametrize(
    "waypoints, n_steps, message",
    [
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 1.0]], 10, "waypoints 2 and 3 coincide"),
        ([[0.0, 0.0], [1e20, 0.0], [1e20 + 1.0, 0.0]], 10, "waypoints 2 and 3 coincide"),
        ([[0.0, 0.0], [np.nan, 0.0], [2.0, 1.0]], 10, "finite"),
        ([[0.0, 0.0], [1.0, np.inf], [2.0, 1.0]], 10, "finite"),
        ([[0.0, 0.0], [1e308, 1e308], [2.0, 1.0]], 10, "path length"),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 10, "shape"),
        ([[0.0, 0.0], [1.0, 0.0]], 0, "n_steps"),
    ],
)
def test_trajectory_rejects_bad_waypoints(waypoints, n_steps, message):
    with pytest.raises(ValueError, match=message):
        Trajectory.from_waypoints(np.array(waypoints), n_steps)


def _oracle_from_waypoints(waypoints, n_steps):
    """Positions and headings of the scipy CubicSpline construction, the reference."""
    from scipy.interpolate import CubicSpline

    wp = np.asarray(waypoints, dtype=float)
    chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
    spline = CubicSpline(chord, wp, axis=0)
    u = np.linspace(0.0, chord[-1], 4096)
    pts = spline(u)
    arc = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
    targets = np.linspace(0.0, arc[-1], n_steps)
    u_at = np.interp(targets, arc, u)
    deriv = spline(u_at, 1)
    return spline(u_at), np.arctan2(deriv[:, 1], deriv[:, 0])


def _random_waypoints(rng, n):
    """A path of n waypoints with uneven legs, sharp turns and reversals."""
    legs = rng.uniform(0.05, 5.0, n - 1) * 10.0 ** rng.uniform(-2, 2)
    turns = rng.uniform(-np.pi, np.pi, n - 1)  # up to a full reversal
    heading = np.cumsum(turns)
    steps = legs[:, None] * np.c_[np.cos(heading), np.sin(heading)]
    return np.vstack([rng.uniform(-50, 50, (1, 2)), steps]).cumsum(axis=0)


def _assert_matches_oracle(waypoints, n_steps, rtol=0.0):
    traj = Trajectory.from_waypoints(waypoints, n_steps)
    positions, headings = _oracle_from_waypoints(waypoints, n_steps)
    if rtol == 0.0:
        assert np.array_equal(traj.positions, positions)
        assert np.array_equal(traj.headings, headings)
    else:
        assert_allclose(traj.positions, positions, rtol=rtol, atol=rtol)
        assert_allclose(traj.headings, headings, rtol=rtol, atol=rtol)


@pytest.mark.parametrize("n_steps", [1, 2, 60, 140, 301])
def test_trajectory_matches_scipy_spline_on_flight_path(n_steps):
    waypoints = load_waypoints(builtin_data_path("flight_path.txt"))
    _assert_matches_oracle(waypoints, n_steps)


def test_trajectory_matches_scipy_spline_on_random_paths():
    rng = np.random.default_rng(20130418)
    for _ in range(240):
        waypoints = _random_waypoints(rng, int(rng.integers(4, 31)))
        _assert_matches_oracle(waypoints, int(rng.integers(2, 200)))
    backtrack = np.array([[0.0, 0.0], [5.0, 0.0], [1.0, 0.1], [6.0, 0.2], [6.0, -3.0]])
    _assert_matches_oracle(backtrack, 77)


def test_trajectory_matches_scipy_spline_on_two_and_three_waypoints():
    rng = np.random.default_rng(5084)
    for _ in range(50):
        _assert_matches_oracle(_random_waypoints(rng, 2), 33)
        # the parabola comes from a dense 3 x 3 LAPACK solve in both
        _assert_matches_oracle(_random_waypoints(rng, 3), 33, rtol=1e-12)


def test_spline_matches_scipy_at_and_between_knots():
    # the resampling grid almost never lands on a knot, where the segment choice matters
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(1304)
    for n in [2] + list(range(4, 31)):
        wp = _random_waypoints(rng, n)
        chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
        reference = CubicSpline(chord, wp, axis=0)
        coeffs = simulate._not_a_knot_spline(chord, wp)
        assert np.array_equal(coeffs, reference.c)
        u = np.sort(np.r_[chord, rng.uniform(0.0, chord[-1], 64)])
        assert np.array_equal(simulate._eval_spline(chord, coeffs, u), reference(u))
        assert np.array_equal(
            simulate._eval_spline(chord, coeffs, u, derivative=True), reference(u, 1)
        )


# ---------------------------------------------------------------------------
# scenario validation


def test_config_rejects_zero_runs():
    with pytest.raises(ValueError):
        ellipse_scenario(n_runs=0)


def test_config_rejects_trajectory_length_mismatch():
    traj = Trajectory.from_waypoints(np.array([[0.0, 0.0], [1.0, 0.0]]), 7)
    with pytest.raises(ValueError):
        ellipse_scenario(trajectory=traj)  # n_steps stays 40


def test_config_rejects_prior_layout_mismatch():
    bad = GaussianState(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError):
        ellipse_scenario(prior=bad)


# ---------------------------------------------------------------------------
# run_scenario


def test_zero_steps_echoes_prior():
    cfg = ellipse_scenario(n_steps=0, n_runs=1)
    report = run_scenario(cfg)
    assert_allclose(report.prior.mean, cfg.prior.mean, rtol=0, atol=0)
    assert_allclose(report.prior.cov, cfg.prior.cov, rtol=0, atol=0)
    assert report.estimates.shape == (1, 0, 5)
    assert report.n_diverged == 0


def test_same_seed_bit_identical():
    cfg = ellipse_scenario(n_steps=15, n_runs=3)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert np.array_equal(a.estimates, b.estimates, equal_nan=True)
    assert np.array_equal(a.run_iou, b.run_iou, equal_nan=True)
    assert np.array_equal(a.mean_iou, b.mean_iou, equal_nan=True)
    assert np.array_equal(a.center_rmse, b.center_rmse, equal_nan=True)
    assert len(a.example_measurements) == len(b.example_measurements)
    for ya, yb in zip(a.example_measurements, b.example_measurements):
        assert np.array_equal(ya, yb)


def test_repeated_passes_make_the_same_calls(monkeypatch):
    # the update constants belong to the scenario, so a second identical
    # pass in one process builds its sigma-point weights again, as the first
    # did; a spread no other test uses keeps the first pass's count whole
    calls = []
    original = UnscentedSpread.scaling
    monkeypatch.setattr(
        UnscentedSpread, "scaling", lambda self, dim: calls.append(dim) or original(self, dim)
    )
    tracker = TrackerConfig(
        shape_family="ellipse", dynamics=STATIC, unscented=UnscentedSpread(kappa=-2.375)
    )
    config = ellipse_scenario(n_steps=6, n_runs=2, tracker=tracker)
    counts = []
    for _ in range(2):
        calls.clear()
        run_scenario(config)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_different_seeds_differ():
    a = run_scenario(ellipse_scenario(n_steps=10, n_runs=1))
    b = run_scenario(ellipse_scenario(n_steps=10, n_runs=1, rng_seed=92))
    assert not np.array_equal(a.estimates, b.estimates)


def test_stationary_ellipse_learns():
    report = run_scenario(ellipse_scenario())
    assert report.n_diverged == 0
    assert report.mean_iou[-1] > report.mean_iou[0]
    assert report.center_rmse[-1] < report.center_rmse[0]
    finite = report.run_iou[np.isfinite(report.run_iou)]
    assert np.all((finite >= 0.0) & (finite <= 1.0))
    assert np.all(report.run_center_error >= 0.0)


def test_single_run_mean_matches_run():
    cfg = ellipse_scenario(n_steps=12, n_runs=1)
    report = run_scenario(cfg, run_iou_resolution=512, mean_iou_resolution=512)
    assert np.array_equal(report.mean_estimates, report.estimates[0])
    assert_allclose(report.mean_iou, report.run_iou[0], rtol=0, atol=0)
    assert_allclose(report.center_rmse, report.run_center_error[0], rtol=0, atol=0)


def test_divergence_is_counted_and_masked():
    # a center prior far outside the plausible region trips the runaway guard
    prior = GaussianState(
        np.array([2e6, 0.0, 1.6, 1.6, 0.6]), np.diag([0.1, 0.1, 0.1, 0.1, 0.1])
    )
    report = run_scenario(ellipse_scenario(prior=prior, n_steps=3, n_runs=2))
    assert report.n_diverged == 2
    assert np.all(report.diverged_at == 0)
    assert np.isnan(report.estimates).all()
    assert np.isnan(report.mean_iou).all()
    assert not report.completed.any()


def test_zero_noise_group_rides_trajectory():
    grp = group_target(np.array([[0.0, 0.0]]))
    traj = Trajectory(
        np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.5]]), np.array([0.0, 0.3, 0.9])
    )
    cfg = ellipse_scenario(
        target=grp,
        noise_mixture=NoiseMixture.single(np.zeros((2, 2))),
        meas_count_model=MeasurementCountModel("fixed_per_step", 2),
        n_steps=3,
        n_runs=1,
        prior=GaussianState(
            np.array([0.0, 0.0, 1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.2, 0.2, 0.2])
        ),
        trajectory=traj,
    )
    report = run_scenario(cfg)
    for k, ys in enumerate(report.example_measurements):
        assert np.array_equal(ys, np.tile(traj.positions[k], (2, 1)))


def test_heading_rotates_target_about_anchor():
    grp = group_target(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    traj = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, np.pi / 2]))
    cfg = ellipse_scenario(
        target=grp,
        noise_mixture=NoiseMixture.single(np.zeros((2, 2))),
        meas_count_model=MeasurementCountModel("fixed_per_step", 4),
        n_steps=2,
        n_runs=1,
        prior=GaussianState(
            np.array([0.0, 0.0, 1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.2, 0.2, 0.2])
        ),
        trajectory=traj,
    )
    report = run_scenario(cfg)
    rotated = np.array([[1.0, 1.0], [1.0, -1.0]])
    for y in report.example_measurements[1]:
        assert min(np.linalg.norm(y - rotated, axis=1)) < 1e-9


def test_truths_posed_once_per_step(monkeypatch):
    import shapetrack.simulate as simulate

    calls = []
    original = simulate.posed_target
    monkeypatch.setattr(
        simulate, "posed_target", lambda cfg, k: calls.append(k) or original(cfg, k)
    )
    traj = Trajectory(np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.5]]), np.zeros(3))
    report = run_scenario(ellipse_scenario(n_steps=3, n_runs=4, trajectory=traj))
    assert calls == [0, 1, 2]
    assert report.n_diverged == 0


def test_heading_rotation_can_be_disabled():
    grp = group_target(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    traj = Trajectory(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, np.pi / 2]))
    cfg = ellipse_scenario(
        target=grp,
        noise_mixture=NoiseMixture.single(np.zeros((2, 2))),
        meas_count_model=MeasurementCountModel("fixed_per_step", 4),
        n_steps=2,
        n_runs=1,
        prior=GaussianState(
            np.array([0.0, 0.0, 1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.2, 0.2, 0.2])
        ),
        trajectory=traj,
        rotate_with_heading=False,
    )
    report = run_scenario(cfg)
    unrotated = np.array([[2.0, 0.0], [0.0, 0.0]])
    for y in report.example_measurements[1]:
        assert min(np.linalg.norm(y - unrotated, axis=1)) < 1e-9


@pytest.mark.parametrize("prior_var", [0.5, 1e307], ids=["in_update", "in_predict"])
def test_overflowing_runs_diverge_instead_of_raising(prior_var):
    # q1 = 1e308 passes validation, but the covariance overflows within the
    # first steps; each run must be marked diverged, not crash the scenario
    tracker = TrackerConfig(shape_family="ellipse", dynamics=DynamicsSpec(q1=1e308))
    prior = GaussianState(np.array([0.5, 0.5, 1.6, 1.6, 0.6]), prior_var * np.eye(5))
    report = run_scenario(ellipse_scenario(tracker=tracker, prior=prior, n_steps=4, n_runs=3))
    assert report.n_diverged == 3
    assert np.isnan(report.estimates[:, report.diverged_at.max():]).all()


def test_update_overflow_is_reported_and_diverges(monkeypatch):
    # an overflow in an update is no modelled divergence, so numpy reports
    # it (and the invalid operations on its infinities); the runs still
    # diverge through their FAILED status
    original = tracker_module.ellipse_pseudo_measurement
    monkeypatch.setattr(
        tracker_module, "ellipse_pseudo_measurement", lambda *a: original(*a) * 1e308 * 1e308
    )
    with pytest.warns(RuntimeWarning) as caught:
        report = run_scenario(ellipse_scenario(n_steps=3, n_runs=2))
    assert any("overflow" in str(w.message) for w in caught)
    assert report.n_diverged == 2


# ---------------------------------------------------------------------------
# lockstep runs against the per-run loop they replaced


def _oracle_run_single(config: ScenarioConfig, truths, rng: np.random.Generator, collect):
    """One Monte-Carlo run against the posed truths of every step.

    Returns (estimates, diverged_at, measurements).
    """
    n_steps, dim = config.n_steps, config.prior.dim
    estimates = np.full((n_steps, dim), np.nan)
    measurements = [] if collect else None
    tracker = Tracker(config.tracker, config.prior)
    told_cov = config.noise_mixture.mean_covariance
    n_levels = len(config.noise_mixture.probabilities)
    factors = np.stack([psd_root(c) for c in config.noise_mixture.covariances])
    for k, truth_k in enumerate(truths):
        n_k = measurement_count(config.meas_count_model, rng)
        sources = sample_measurement_sources(truth_k, n_k, rng)
        if n_levels == 1:
            levels = np.zeros(n_k, dtype=int)
        else:
            levels = rng.choice(n_levels, size=n_k, p=config.noise_mixture.probabilities)
        noise = rng.standard_normal((n_k, 2))
        ys = sources + np.einsum("lij,lj->li", factors[levels], noise)
        if measurements is not None:
            measurements.append(ys.copy())
        try:
            tracker.predict()
            tracker.update(list(ys), [told_cov] * n_k)
        except (ConditioningError, np.linalg.LinAlgError, FloatingPointError):
            return estimates, k, measurements
        state = tracker.state
        bad = (
            not np.isfinite(state.mean).all()
            or not np.isfinite(state.cov).all()
            or np.linalg.norm(state.mean[:2]) > DIVERGENCE_CENTER_BOUND
        )
        if bad:
            return estimates, k, measurements
        estimates[k] = state.mean
    return estimates, -1, measurements


def _oracle_runs(config: ScenarioConfig):
    """The runs one after another, each with its own spawned stream."""
    seeds = np.random.SeedSequence(config.rng_seed).spawn(config.n_runs)
    truths = [posed_target(config, k) for k in range(config.n_steps)]
    out = [
        _oracle_run_single(
            config, truths, np.random.Generator(np.random.Philox(seed)), collect=(r == 0)
        )
        for r, seed in enumerate(seeds)
    ]
    return np.stack([o[0] for o in out]), np.array([o[1] for o in out]), out[0][2]


def _near_bound_scenario(**overrides):
    # a target 0.2 inside DIVERGENCE_CENTER_BOUND: some runs step over it
    x0 = DIVERGENCE_CENTER_BOUND - 0.2
    fields = dict(
        target=ellipse_target(from_semi_axes([x0, 0.0], [2.0, 1.0], 0.5)),
        n_steps=20,
        n_runs=8,
        prior=GaussianState(
            np.array([x0, 0.5, 1.6, 1.6, 0.6]), np.diag([0.3, 0.3, 0.5, 0.5, 0.5])
        ),
        rng_seed=86,  # run 0 diverges too, which ends the example measurements
    )
    fields.update(overrides)
    return ellipse_scenario(**fields)


def _moving_scenario(geometry):
    # a bundled geometry on the bundled flight path: one posed truth per
    # step, and so for the aircraft one bounding box and one inside-or-out
    # test per step
    n_steps = 20
    return ellipse_scenario(
        target=load_geometry(builtin_data_path(geometry)),
        trajectory=Trajectory.from_waypoints(
            load_waypoints(builtin_data_path("flight_path.txt")), n_steps
        ),
        noise_mixture=NoiseMixture.isotropic([0.2, 0.4], [0.75, 0.25]),
        meas_count_model=MeasurementCountModel("shifted_poisson", 4.0),
        tracker=TrackerConfig(
            shape_family="ellipse",
            batch_mode=True,
            unscented=UnscentedSpread(kappa=0.0),
            dynamics=DynamicsSpec("constant_velocity_plus_random_walk", q1=0.0015, q2=0.005),
        ),
        prior=GaussianState(
            np.array([0.0, 0.0, 0.2, 0.0, 0.7, 0.7, 0.0]),
            np.diag([0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5]),
        ),
        n_steps=n_steps,
        n_runs=4,
    )


ZERO_NOISE = NoiseMixture.single(np.zeros((2, 2)))
ORACLE_CASES = {
    "ellipse_sequential_k1": lambda: ellipse_scenario(n_steps=30, n_runs=3),
    "ellipse_sequential_poisson": lambda: ellipse_scenario(
        meas_count_model=MeasurementCountModel("shifted_poisson", 1.5),
        n_steps=20,
        n_runs=4,
    ),
    "ellipse_batch_poisson": lambda: ellipse_scenario(
        noise_mixture=NoiseMixture.isotropic([0.3, 0.8], [0.7, 0.3]),
        meas_count_model=MeasurementCountModel("shifted_poisson", 2.0),
        tracker=TrackerConfig(shape_family="ellipse", batch_mode=True, dynamics=STATIC),
        n_steps=25,
        n_runs=4,
    ),
    "star_convex_sequential_k3": lambda: ellipse_scenario(
        meas_count_model=MeasurementCountModel("fixed_per_step", 3),
        tracker=TrackerConfig(shape_family="star_convex", n_fourier=3, dynamics=STATIC),
        prior=GaussianState(
            np.r_[0.5, 0.5, 2.4, np.zeros(6)], np.diag([1.0, 1.0, 0.4] + [0.1] * 6)
        ),
        n_steps=15,
        n_runs=3,
    ),
    "zero_noise": lambda: ellipse_scenario(noise_mixture=ZERO_NOISE, n_steps=15, n_runs=3),
    "degenerate_innovation": lambda: ellipse_scenario(
        target=group_target(np.array([[0.0, 0.0]])),
        noise_mixture=NoiseMixture.isotropic([1e-9]),
        prior=GaussianState(np.array([0.0, 0.0, 1.0, 1.0, 0.0]), 1e-18 * np.eye(5)),
        tracker=TrackerConfig(
            shape_family="ellipse", scaling=ScalingModel(0.5, 1e-18)
        ),
        n_steps=5,
        n_runs=2,
    ),
    "some_runs_diverge": _near_bound_scenario,
    "moving_aircraft_batch": lambda: _moving_scenario("aircraft.txt"),
    # multi-member point groups: member picks drawn a block at a time
    "stationary_group_poisson": lambda: ellipse_scenario(
        target=load_geometry(builtin_data_path("group.txt")),
        noise_mixture=NoiseMixture.isotropic([0.2, 0.4], [0.75, 0.25]),
        meas_count_model=MeasurementCountModel("shifted_poisson", 3.0),
        n_steps=20,
        n_runs=4,
    ),
    "moving_group_batch": lambda: _moving_scenario("group.txt"),
    # 0.56% of its bounding box: most first rejection rounds fall short, and
    # those runs are redrawn
    "thin_ellipse": lambda: ellipse_scenario(
        target=ellipse_target(from_semi_axes([0.0, 0.0], [3.0, 0.01], 0.7)),
        n_steps=20,
        n_runs=4,
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_lockstep_runs_equal_per_run_loop(case):
    _check_lockstep_case(case)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_lockstep_runs_equal_per_run_loop_in_3_step_blocks(case, monkeypatch):
    # blocks of 3 steps while all runs are live end inside every case, and
    # some_runs_diverge diverges mid-block
    config = ORACLE_CASES[case]()
    chunk = _round_size(config.target, config.meas_count_model.stacked_count())
    monkeypatch.setattr(simulate, "DRAW_AHEAD_POINTS", 3 * config.n_runs * chunk)
    assert simulate._block_steps(config, config.n_runs) == 3
    _check_lockstep_case(case)


def _check_lockstep_case(case):
    config = ORACLE_CASES[case]()
    report = run_scenario(config)
    estimates, diverged_at, example = _oracle_runs(config)
    assert np.array_equal(report.estimates, estimates, equal_nan=True)
    assert np.array_equal(report.diverged_at, diverged_at)
    assert len(report.example_measurements) == len(example)
    for got, want in zip(report.example_measurements, example):
        assert np.array_equal(got, want)
    if case == "some_runs_diverge":
        assert 0 < report.n_diverged < config.n_runs
        assert len(set(report.diverged_at[report.diverged_at >= 0])) > 1
        assert len(example) == report.diverged_at[0] + 1
    if case == "degenerate_innovation":
        # every update was skipped: the estimate never leaves the prior mean
        assert np.array_equal(report.estimates, np.broadcast_to(config.prior.mean, report.estimates.shape))


def test_zero_noise_takes_the_cholesky_jitter_path(monkeypatch):
    calls = []
    original = gaussian._jittered_cholesky
    monkeypatch.setattr(gaussian, "_jittered_cholesky", lambda c: calls.append(1) or original(c))
    report = run_scenario(ORACLE_CASES["zero_noise"]())
    assert report.n_diverged == 0
    assert len(calls) >= report.config.n_steps * report.config.n_runs


def test_center_errors_equal_per_row_norms():
    # the diverged runs leave NaN rows, which keep a NaN error
    # (a moving truth, so that each step has its own anchor)
    path = np.linspace(0.0, 0.1, 20)
    positions = np.c_[DIVERGENCE_CENTER_BOUND - 0.2 + path, path]
    config = replace(_near_bound_scenario(), trajectory=Trajectory(positions, np.zeros(20)))
    report = run_scenario(config)
    assert 0 < report.n_diverged < config.n_runs
    want = np.full((config.n_runs, config.n_steps), np.nan)
    for r in range(config.n_runs):
        for k in range(config.n_steps):
            if np.isfinite(report.estimates[r, k, 0]):
                anchor = posed_target(config, k).anchor
                want[r, k] = np.linalg.norm(report.estimates[r, k, :2] - anchor)
    assert np.array_equal(report.run_center_error, want, equal_nan=True)


def _counting_sampler(monkeypatch, fail_at=None):
    """Patch the scenario loop's multi-round sampler to record the count of
    each (run, step) pair it draws; the pair numbered fail_at (from 1) gets
    a RejectionBudgetError in place of its sources."""
    calls = []
    original = simulate.stacked_sample_sources

    def sample(truth, counts, rngs):
        got = original(truth, counts, rngs)
        for r, n in enumerate(counts):
            calls.append(n)
            if len(calls) == fail_at:
                got[r] = RejectionBudgetError(f"budget spent at draw {fail_at}")
        return got

    monkeypatch.setattr(simulate, "stacked_sample_sources", sample)
    return calls


@pytest.mark.parametrize("case", ["stationary_group_poisson", "moving_group_batch"])
def test_group_runs_are_drawn_a_block_at_a_time(monkeypatch, case):
    # member picks never fall short, so no run is redrawn
    calls = _counting_sampler(monkeypatch)
    run_scenario(ORACLE_CASES[case]())
    assert calls == []


def test_thin_target_redraws_the_short_runs(monkeypatch):
    calls = _counting_sampler(monkeypatch)
    monkeypatch.setattr(simulate, "DRAW_AHEAD_POINTS", 1)  # 1-step blocks
    config = ORACLE_CASES["thin_ellipse"]()
    run_scenario(config)
    # some (run, step) pairs are filled by their first round, the others redrawn
    assert 0 < len(calls) < config.n_runs * config.n_steps


@pytest.mark.parametrize("diverges", [False, True], ids=["live", "diverged"])
def test_budget_error_is_raised_only_at_a_live_step(monkeypatch, diverges):
    # one run, every first round short (100 sources from 0.56% of the box),
    # so the block is redrawn; its third step exhausts the budget. A run
    # whose first prediction overflows diverges and never reaches that step.
    calls = _counting_sampler(monkeypatch, fail_at=3)
    config = replace(
        ORACLE_CASES["thin_ellipse"](),
        meas_count_model=MeasurementCountModel("fixed_per_step", 100),
        n_steps=5,
        n_runs=1,
    )
    if diverges:
        tracker = TrackerConfig(shape_family="ellipse", dynamics=DynamicsSpec(q1=1e308))
        prior = GaussianState(config.prior.mean, 1e307 * np.eye(5))
        report = run_scenario(replace(config, tracker=tracker, prior=prior))
        assert report.diverged_at[0] == 0
    else:
        predicts = []
        original = simulate.stacked_predict
        monkeypatch.setattr(
            simulate, "stacked_predict", lambda *a: predicts.append(1) or original(*a)
        )
        with pytest.raises(RejectionBudgetError, match="draw 3"):
            run_scenario(config)
        assert len(predicts) == 2  # steps 0 and 1 were filtered, step 2 raised
    # the run draws no more after its budget error
    assert len(calls) == 3


def test_draw_ahead_block_is_bounded():
    config = ellipse_scenario()
    one_run = simulate.DRAW_AHEAD_POINTS // _box_chunk_size(1)
    assert one_run > 1
    assert simulate._block_steps(config, 1) == one_run
    assert simulate._block_steps(replace(config, n_steps=3000), 1) == one_run
    assert simulate._block_steps(config, 2) == one_run // 2
    assert simulate._block_steps(config, 170_000) == 1


def test_group_blocks_are_sized_by_member_picks():
    # a point-group run draws its n member indices per step, not a box chunk
    config = ORACLE_CASES["stationary_group_poisson"]()
    n = config.meas_count_model.stacked_count()
    assert _round_size(config.target, n) == n < _box_chunk_size(n)
    assert simulate._block_steps(config, 4) == simulate.DRAW_AHEAD_POINTS // (4 * n)


def test_inside_test_points_per_call_are_bounded(monkeypatch):
    # 300 runs of a polygon truth, 16 sources a step, send 300 box chunks of
    # 64 points, 19,200 in all, to the first test of one rejection round:
    # the block's first round and each round of the multi-round sampler
    # (a run's first 4 * 16 draws are its whole chunk). The stacked polygon
    # test takes them in slices, and the draws are those of one unsliced test.
    truth = load_geometry(builtin_data_path("aircraft.txt"))
    n = 16
    config = ellipse_scenario(
        target=truth,
        meas_count_model=MeasurementCountModel("fixed_per_step", n),
        n_runs=300,
        n_steps=1,
    )
    factors = psd_root(config.noise_mixture.covariances[0])[None]
    sizes = []
    original = targets._inside_polygons
    monkeypatch.setattr(
        targets,
        "_inside_polygons",
        lambda s, w, p: sizes.append(len(p)) or original(s, w, p),
    )

    def rngs():
        return [np.random.Generator(np.random.Philox(s)) for s in range(config.n_runs)]

    def draws():
        block, errors = simulate._draw_block(config, [truth], rngs(), factors, None)
        assert not errors
        sources = stacked_sample_sources(truth, [n] * config.n_runs, rngs())
        return [run[0] for run in block], sources

    sliced = draws()
    assert max(sizes) <= simulate.DRAW_AHEAD_POINTS < config.n_runs * _box_chunk_size(n)
    monkeypatch.setattr(targets, "INSIDE_TEST_POINTS", 1 << 30)
    sizes.clear()
    whole = draws()
    assert max(sizes) == config.n_runs * _box_chunk_size(n)
    for got, want in zip(sliced, whole):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("case", ["ellipse_batch_poisson", "some_runs_diverge", "thin_ellipse"])
def test_run_results_do_not_depend_on_run_count(case):
    config = ORACLE_CASES[case]()
    full = run_scenario(config)
    for n_runs in (1, 2, 3):
        part = run_scenario(replace(config, n_runs=n_runs))
        assert np.array_equal(part.estimates, full.estimates[:n_runs], equal_nan=True)
        assert np.array_equal(part.diverged_at, full.diverged_at[:n_runs])
        assert np.array_equal(part.run_iou, full.run_iou[:n_runs], equal_nan=True)


def test_state_constructions_do_not_grow_with_steps(monkeypatch):
    counts = []
    original = GaussianState.__post_init__

    def counting(self):
        counts[-1] += 1
        original(self)

    config = ORACLE_CASES["ellipse_batch_poisson"]()
    monkeypatch.setattr(GaussianState, "__post_init__", counting)
    for n_steps in (3, 12):
        counts.append(0)
        run_scenario(replace(config, n_steps=n_steps))
    assert counts[0] == counts[1]


def test_score_gives_an_empty_union_zero():
    # an estimate speck and a truth speck in opposite corners of their box
    # cover no cell; the pair scores 0 where shape_iou raises
    config = ellipse_scenario()
    speck = polygon_target([[5.0, 5.0], [5.001, 5.0], [5.0, 5.001]])
    square = polygon_target([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    states = np.array([[0.0, 0.0, 1e4, 1e4, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0]])
    got = simulate._score(config, states, [speck, square], np.array([0, 1]), 256)
    assert got[0] == 0.0 and got[1] > 0.0
    with pytest.raises(ValueError, match="zero area"):
        shape_iou(EllipseParams(states[0, :2], states[0, 2:]), speck, resolution=256)
