"""Recursive extended-object tracker for randomly scaled shape boundaries.

Measurements y = z + v are noisy observations of sources z drawn from a
randomly scaled version of the target boundary. Substituting the source
into the scaled implicit shape function yields a polynomial
pseudo-measurement in the state, the measurement noise v, and the scaling
variable; conditioning on pseudo-measurement = 0 with a Gaussian
statistical linearization gives the measurement update. Both the elliptic
(Cholesky triple) and star-convex (Fourier radius) families are handled.

Every update runs one kernel, `stacked_update`, over a leading run axis:
R states, each conditioned on its own k measurements. The source
estimates of all R * k measurements come from one call: the closest
points on the prior-mean ellipses of the raw triples (`ellipse_closest_points`,
a bracketed secular-equation root per measurement), or one arctan2 over the
(R, k) offsets from the prior centers. Then one pseudo-measurement
evaluation covers all runs, sigma points and k columns, and
`gaussian.stacked_sl_update` conditions all runs at once.
Failures come back as a per-run status. The constants of the updates
belong to their owner (a scenario, a `Tracker`, or one call of a public
kernel), which builds them and shares them read-only: the transition
(`_transition`) once, and a `_Constants` of noise block and weights.

`stacked_step` applies one time step's measurements, batch or sequential
as the config asks, in rounds of updates (see its docstring). The
scenario loop and `Tracker.update` (its R = 1 case) both go through its
kernel `_step`, the one place that decides whether a run has failed.
Each update stops short of the PSD repair of its posterior covariances
(`_update_posterior`), so that a round repairs them all in one
`gaussian.stacked_psd_repair`. When the runs are not already in order of
falling measurement count, the step sorts them once, so that each count
group and each round is a contiguous slice, taken as a view; the results
are put back in run order at the end. A step whose runs are in order
copies nothing up front: an update that every run takes part in gets the
moments as they are, and its new arrays become the step's. The step's
results never share memory with its inputs, and the inputs are left as
they were.

State layout is fixed as [center(2); velocity(2, only with the
constant-velocity dynamics); shape parameters]. `shape_params` turns
states into shapes (centers, clamped Cholesky triples or Fourier
coefficients) for every caller: the tracker, the scoring and the plots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .ellipse import EllipseParams, clamp_chols, ellipse_closest_points
from .gaussian import (
    DEFAULT_SPREAD,
    DEGENERATE,
    FAILED,
    ConditioningError,
    GaussianState,
    UnscentedSpread,
    _finite_rows,
    _sl_conclude,
    _sl_posterior,
    _unscented_weights,
    stacked_predict,
)
from .starconvex import FourierShapeParams, fourier_basis

__all__ = [
    "ScalingModel",
    "DynamicsSpec",
    "TrackerConfig",
    "Tracker",
    "shape_params",
    "shape_estimate",
    "ellipse_pseudo_measurement",
    "sc_pseudo_measurement",
    "stacked_update",
    "stacked_step",
    "stacked_time_update",
]

TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class ScalingModel:
    """Gaussian model of the boundary scaling variable.

    The shape family says what the scalar in the augmented state
    represents: s^2 for the elliptic family (where uniform sources over the
    extent make s^2 uniform on [0, 1]), s itself for the star-convex one.
    """

    mean: float
    variance: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.variance)):
            raise ValueError("scaling mean and variance must be finite")
        if not self.variance > 0:
            raise ValueError("scaling variance must be positive")

    @classmethod
    def squared_scale_uniform(cls) -> "ScalingModel":
        """Moments of s^2 for s^2 ~ U[0, 1]: mean 1/2, variance 1/12 (the
        elliptic family's default)."""
        return cls(0.5, 1.0 / 12.0)

    @classmethod
    def scale_default(cls) -> "ScalingModel":
        """Default Gaussian scale for star-convex boundaries."""
        return cls(0.7, 0.06)


@dataclass(frozen=True)
class DynamicsSpec:
    """Temporal model: static with a random walk, or constant velocity.

    q1 is the shape (random-walk) noise intensity, q2 the kinematic noise
    intensity of the constant-velocity block.
    """

    model: str = "static_random_walk"
    step: float = 1.0
    q1: float = 0.0
    q2: float = 0.0

    def __post_init__(self):
        if self.model not in ("static_random_walk", "constant_velocity_plus_random_walk"):
            raise ValueError(f"unknown dynamics model {self.model!r}")
        if not (0 < self.step < np.inf):
            raise ValueError("time step must be positive and finite")
        if not (0 <= self.q1 < np.inf and 0 <= self.q2 < np.inf):
            raise ValueError("noise intensities must be non-negative and finite")

    @property
    def has_velocity(self) -> bool:
        return self.model == "constant_velocity_plus_random_walk"


@dataclass(frozen=True)
class TrackerConfig:
    """Shape family, noise models, and update options of one tracker."""

    shape_family: str = "ellipse"
    n_fourier: int = 7
    scaling: ScalingModel | None = None
    trace_normalize: bool = True
    batch_mode: bool = False
    unscented: UnscentedSpread = DEFAULT_SPREAD
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)

    def __post_init__(self):
        if self.shape_family not in ("ellipse", "star_convex"):
            raise ValueError(f"unknown shape family {self.shape_family!r}")
        if self.shape_family == "star_convex" and self.n_fourier < 1:
            raise ValueError("star-convex tracking needs at least one harmonic")
        if self.scaling is None:
            default = (
                ScalingModel.squared_scale_uniform()
                if self.shape_family == "ellipse"
                else ScalingModel.scale_default()
            )
            object.__setattr__(self, "scaling", default)

    @property
    def shape_dim(self) -> int:
        return 3 if self.shape_family == "ellipse" else 2 * self.n_fourier + 1

    def state_dim(self) -> int:
        return 2 + (2 if self.dynamics.has_velocity else 0) + self.shape_dim

    def augmented_dim(self, k: int) -> int:
        """Dimension of an update on k measurements: the state, then a noise
        2-vector and a scaling variable per measurement (`_noise_block`)."""
        return self.state_dim() + 3 * k

    def check_layout(self, dim: int) -> None:
        if dim != self.state_dim():
            raise ValueError(
                f"state dimension {dim} does not match layout "
                f"[center(2); velocity({2 if self.dynamics.has_velocity else 0}); "
                f"shape({self.shape_dim})]"
            )


def shape_params(states, config: TrackerConfig):
    """The shapes of N states (N, d) laid out as config says.

    Returns (centers (N, 2), params, clamped (N,)). For ellipses, params
    are the (N, 3) Cholesky triples canonicalized by `clamp_chols`, and
    clamped marks the rows that needed a real clamp. For star-convex
    shapes, params are the (N, shape_dim) Fourier coefficients, and no row
    is clamped.
    """
    params = states[:, -config.shape_dim :]
    if config.shape_family == "ellipse":
        params, clamped = clamp_chols(params)
    else:
        clamped = np.zeros(len(states), dtype=bool)
    return states[:, :2], params, clamped


def shape_estimate(mean, config: TrackerConfig) -> EllipseParams | FourierShapeParams:
    """The shape of one state vector (d,): the one-row case of `shape_params`."""
    centers, params, _ = shape_params(np.asarray(mean, dtype=float)[None], config)
    if config.shape_family == "ellipse":
        return EllipseParams(centers[0], params[0])
    return FourierShapeParams(centers[0], params[0])


# ---------------------------------------------------------------------------
# Pseudo-measurement functions


def ellipse_pseudo_measurement(
    state, measurement, source_offset, trace_normalize: bool = True
):
    """Elliptic pseudo-measurement; zero when measurement, state, and noise agree.

    Args:
        state: augmented vector(s) [x; v_1; u_1; ...; v_k; u_k] of shape
            (d,), (n, d), or (R, n, d) for R runs; each measurement l owns
            a noise block of its noise v_l (2) and squared scaling factor
            u_l (1); the state part x ends with the Cholesky triple
            (a, b, c) and starts with the center.
        measurement: observed 2-vector y, k of them as (k, 2), or (R, k, 2)
            with a run axis (then `state` has one too).
        source_offset: fixed estimate(s) of (source - center), shaped like
            `measurement`, taken from the closest point on the prior-mean
            ellipse to each y.
        trace_normalize: divide by the trace of L L^T (computed per state
            vector), which levels the innovation scale across shape sizes.

    Returns:
        Scalar for a single vector and measurement, else one value per
        state vector, with a trailing axis of k for (k, 2) measurements
        and a leading run axis for (R, n, d) states. Every entry is
        computed exactly as a single-vector, single-measurement call
        computes it.
    """
    x, y, noise = _stacked(state, measurement)
    offsets = np.asarray(source_offset, dtype=float).reshape(y.shape)
    r0, r1 = offsets[:, None, :, 0], offsets[:, None, :, 1]  # each (R, 1, k)
    v0, v1, u = noise[..., 0], noise[..., 1], noise[..., 2]  # each (R, n, k)
    # y - m, each (R, n, k)
    w0 = y[:, None, :, 0] - x[..., 0, None]
    w1 = y[:, None, :, 1] - x[..., 1, None]
    a, b, c = x[..., -3, None], x[..., -2, None], x[..., -1, None]  # each (R, n, 1)

    # L L^T entries for L = [[a, 0], [c, b]]
    q11 = a * a
    q12 = a * c
    q22 = b * b + c * c

    quad = q11 * w0**2 + 2.0 * q12 * w0 * w1 + q22 * w1**2
    cross = q11 * r0 * v0 + q12 * (r0 * v1 + r1 * v0) + q22 * r1 * v1
    noise_quad = q11 * v0**2 + 2.0 * q12 * v0 * v1 + q22 * v1**2

    vals = quad - 2.0 * cross - noise_quad - u
    if trace_normalize:
        vals = vals / np.maximum(q11 + q22, TRACE_FLOOR)
    return _unstacked(vals, state, measurement)


def sc_pseudo_measurement(state, measurement, phi_hat, n_coeffs: int):
    """Star-convex pseudo-measurement with the source angle frozen at phi_hat.

    Args:
        state: augmented vector(s) [x; v_1; s_1; ...; v_k; s_k], shape
            (d,), (n, d), or (R, n, d) for R runs; the state part x ends
            with the n_coeffs Fourier coefficients, and measurement l owns
            the noise block (v_l, s_l).
        measurement: observed 2-vector y, k of them as (k, 2), or (R, k, 2)
            with a run axis (then `state` has one too).
        phi_hat: point estimate of the source angle (from the prior
            center), one per measurement, shaped like `measurement`
            without its last axis.
        n_coeffs: length of the coefficient block.

    Returns:
        s^2 r^2 + 2 s r e(phi)^T v + |v|^2 - |y - m|^2 per vector, with a
        trailing axis of k for (k, 2) measurements and a leading run axis
        for (R, n, d) states.
    """
    x, y, noise = _stacked(state, measurement)
    phi = np.asarray(phi_hat, dtype=float).reshape(y.shape[:2])
    s, v = noise[..., 2], noise[..., :2]
    coeffs = x[..., -n_coeffs:]

    # One matrix-vector product per run and measurement, (R, k, n, 1) ->
    # (R, n, k), so each column is computed exactly as a single-measurement
    # call computes it.
    basis = fourier_basis(phi, n_coeffs)[..., None]
    r = np.matmul(coeffs[:, None], basis)[..., 0].swapaxes(-1, -2)
    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    ve = np.matmul(v.swapaxes(1, 2), e[..., None])[..., 0].swapaxes(-1, -2)
    w = y[:, None] - x[:, :, None, :2]
    vals = (s * r) ** 2 + 2.0 * s * r * ve + np.sum(v * v, axis=-1) - np.sum(w * w, axis=-1)
    return _unstacked(vals, state, measurement)


def _stacked(state, measurement):
    """Views (state part x (R, n, d), y (R, k, 2), noise blocks (R, n, k, 3))
    of augmented vectors; missing run, row and measurement axes get length 1."""
    aug = np.asarray(state, dtype=float)
    aug = aug.reshape((1,) * (3 - aug.ndim) + aug.shape)
    y = np.asarray(measurement, dtype=float)
    y = y.reshape((1,) * (3 - y.ndim) + y.shape)
    n_runs, n, width = aug.shape
    split = width - 3 * y.shape[1]
    return aug[..., :split], y, aug[..., split:].reshape(n_runs, n, y.shape[1], 3)


def _unstacked(vals, state, measurement):
    """Drop the measurement axis for a single 2-vector, and the run and row
    axes the state did not have."""
    if np.ndim(measurement) == 1:
        vals = vals[..., 0]
    return vals[(0,) * (3 - np.ndim(state))]


# ---------------------------------------------------------------------------
# Updates


def _noise_block(noise_covs, scaling: ScalingModel):
    """Mean and covariance of [v_1; scaling_1; ...; v_k; scaling_k] for the
    noise covariances (k, 2, 2), read-only. The covariance is block-diagonal,
    so the block of columns a..b is its [3a:3b, 3a:3b] sub-block."""
    covs = np.asarray(noise_covs, dtype=float).reshape(-1, 2, 2)
    k = len(covs)
    each = np.arange(k)
    cov = np.zeros((k, 3, k, 3))
    cov[each, :2, each, :2] = covs
    cov[each, 2, each, 2] = scaling.variance
    return _read_only(np.tile([0.0, 0.0, scaling.mean], k), cov.reshape(3 * k, 3 * k))


def _read_only(*arrays):
    """The arrays, marked read-only: an owner shares them among its updates."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Constants:
    """The update constants of one owner: the `_noise_block` of its noise
    covariances (K, 2, 2), and the sigma-point weights of each count k, built
    at its first update on k (a count never taken may have none)."""

    def __init__(self, config: TrackerConfig, noise_covs=()):
        self.config, self.weights, self._key = config, {}, None
        self.set_noise(noise_covs)

    def set_noise(self, noise_covs) -> None:
        """Build the noise block, unless noise_covs has the kept bytes."""
        key = np.ascontiguousarray(noise_covs, dtype=float).tobytes()
        if key != self._key:
            self._key = key
            self.noise_mean, self.noise_cov = _noise_block(noise_covs, self.config.scaling)


def _source_angles(measurements, centers) -> np.ndarray:
    """`angle_point_estimate` of every measurement (R, k, 2) from its run's
    center (R, 2), in one pass: (R, k) angles in (-pi, pi]. A measurement on
    its center gets angle 0, the convention of `angle_point_estimate`."""
    w = measurements - centers[:, None]
    at_center = (w[..., 0] == 0.0) & (w[..., 1] == 0.0)
    phis = np.where(at_center, 0.0, np.arctan2(w[..., 1], w[..., 0]))
    phis[phis <= -np.pi] = np.pi
    return phis


def stacked_update(means, covs, measurements, noise_covs, config: TrackerConfig):
    """Condition R states, each on its own k measurements, in one stacked update.

    Each run's augmented density [prior_r; v_1; scaling_1; ...; v_k;
    scaling_k] carries an independent noise block per measurement. The
    source estimates (closest boundary points or angles) are computed for
    all runs in one call from their prior means and held fixed; the family's
    pseudo-measurement is evaluated for all runs and all k at once and
    linearized statistically against the target 0
    (`gaussian.stacked_sl_update`).

    Args:
        means: (R, d) prior means, finite.
        covs: (R, d, d) symmetric prior covariances, finite.
        measurements: (R, k, 2), run r's k measurements.
        noise_covs: (k, 2, 2) measurement noise covariances, shared by all
            runs.
        config: tracker configuration; d must match its state layout.

    Returns:
        (means, covs, status) as `gaussian.stacked_sl_update` returns them:
        a run with a degenerate innovation (`DEGENERATE`) or a failed
        update (`FAILED`) keeps its prior moments.
    """
    posterior = _update_posterior(means, covs, measurements, _Constants(config, noise_covs), 0)
    return _sl_conclude([posterior])[0]


def _update_posterior(means, covs, measurements, constants: _Constants, first: int):
    """`stacked_update` up to the PSD repair of its posterior covariances
    (`gaussian._sl_posterior`), on (R, k, 2) measurements of columns first on."""
    config = constants.config
    config.check_layout(means.shape[1])
    k = np.shape(measurements)[1]
    if k not in constants.weights:
        constants.weights[k] = _unscented_weights(config.augmented_dim(k), config.unscented)
    cols = slice(3 * first, 3 * (first + k))  # the block of these columns
    noise_mean, noise_cov = constants.noise_mean[cols], constants.noise_cov[cols, cols]
    centers = means[:, :2]
    if config.shape_family == "ellipse":
        # an overflowing run gets NaN offsets, so its pseudo-measurements are
        # NaN and only that run is FAILED
        offsets = ellipse_closest_points(centers, means[:, -3:], measurements) - centers[:, None]

        def h(points):
            return ellipse_pseudo_measurement(points, measurements, offsets, config.trace_normalize)

    else:
        phis = _source_angles(measurements, centers)

        def h(points):
            return sc_pseudo_measurement(points, measurements, phis, config.shape_dim)

    return _sl_posterior(means, covs, h, noise_mean, noise_cov, constants.weights[k])


def stacked_step(means, covs, measurements, noise_covs, config: TrackerConfig):
    """Apply one time step's measurements to R runs, batch or sequential per config.

    Batch mode conditions each run on all its k_r measurements in one
    update, with one update per group of runs that share k_r, all in one
    round. Sequential mode conditions on the measurements one at a time,
    in order: round j takes measurement j of every run with k_r > j. Each
    round repairs the posterior covariances of all its updates in one
    `gaussian.stacked_psd_repair` call. Every run's results are those of
    `stacked_update` on it alone, bit for bit. A run stops at its first
    failed update, and its later updates are skipped.

    Args:
        means: (R, d) prior means.
        covs: (R, d, d) symmetric prior covariances. A run whose mean or
            covariance is not finite is failed: it joins no update and
            comes back unchanged.
        measurements: R arrays (k_r, 2), run r's measurements; k_r may be 0.
        noise_covs: (K, 2, 2) with K >= max k_r, else a ValueError;
            noise_covs[j] is the noise covariance of every run's measurement j.
        config: tracker configuration.

    Returns:
        (means, covs, failed, degenerate), new arrays: the posterior
        moments, whether each run failed (a prior that is not finite, or a
        failed update, and then its moments are those before that update),
        and how many of each run's updates had a degenerate innovation and
        were skipped. The moments of every run not failed are finite.
    """
    noise_covs = np.asarray(noise_covs, dtype=float)
    most = max((len(y) for y in measurements), default=0)
    if noise_covs.shape[1:] != (2, 2) or len(noise_covs) < most:
        raise ValueError(f"noise_covs {noise_covs.shape} is not (K, 2, 2), K >= max k_r = {most}")
    return _step(means, covs, measurements, _Constants(config, noise_covs))


def _step(means, covs, measurements, constants: _Constants):
    """`stacked_step` with its owner's constants, whose noise block covers every column."""
    n_runs = len(measurements)
    failed = ~(_finite_rows(means) & _finite_rows(covs))
    # the measurements each run takes: none for a run failed from the start
    takes = [0 if bad else len(y) for bad, y in zip(failed.tolist(), measurements)]
    order = None
    if any(a < b for a, b in zip(takes, takes[1:])):
        # most measurements first, so that each count and each round is a run of rows
        order = np.array(sorted(range(n_runs), key=takes.__getitem__, reverse=True))
        means, covs, failed = means[order], covs[order], failed[order]
        takes = [takes[i] for i in order]
        measurements = [measurements[i] for i in order]
    # each round's parts: the rows (lo, hi) of an update and its measurement columns
    if constants.config.batch_mode:  # one round, a part per count
        sizes = [len(list(group)) for _, group in itertools.groupby(takes)]
        bounds = list(itertools.accumulate(sizes, initial=0))
        rounds = [[(lo, hi, slice(0, takes[lo])) for lo, hi in zip(bounds, bounds[1:]) if takes[lo]]]
    else:  # round j takes measurement j of the runs with more than j
        rounds = [
            [(0, sum(k > j for k in takes), slice(j, j + 1))] for j in range(max(takes, default=0))
        ]
    degenerate = np.zeros(n_runs, dtype=int)
    owned = order is not None  # whether means and covs are this call's own arrays yet
    failures = False  # whether an update of this step has failed a run
    for parts in rounds:
        spans = []
        for lo, hi, cols in parts:
            rows = slice(lo, hi)
            if failures:  # a run failed in an earlier round takes no later one
                rows = lo + np.flatnonzero(~failed[rows])
                if not rows.size:
                    continue
            spans.append((rows, cols))
        if not spans:
            continue
        posteriors = []
        for rows, cols in spans:
            taking = measurements[rows] if isinstance(rows, slice) else [measurements[i] for i in rows]
            ys = np.array([y[cols] for y in taking])
            posteriors.append(
                _update_posterior(means[rows], covs[rows], ys, constants, cols.start)
            )
        for (rows, _), (new_means, new_covs, status) in zip(spans, _sl_conclude(posteriors)):
            if not owned and isinstance(rows, slice) and rows == slice(0, n_runs):
                # the update's arrays are new: take them as they are
                means, covs = new_means, new_covs
            else:
                if not owned:
                    means, covs = means.copy(), covs.copy()
                means[rows], covs[rows] = new_means, new_covs
            owned = True
            if status.any():  # OK is 0: some run's update is not OK
                bad = status == FAILED
                failed[rows] |= bad
                failures |= bool(bad.any())
                degenerate[rows] += status == DEGENERATE
    if not owned:
        means, covs = means.copy(), covs.copy()
    if order is not None:
        back = np.empty_like(order)
        back[order] = np.arange(n_runs)
        means, covs, failed, degenerate = means[back], covs[back], failed[back], degenerate[back]
    return means, covs, failed, degenerate


def _measurement_arrays(measurements, noise_covs):
    """Measurements as (k, 2) and their noise covariances as (k, 2, 2)."""
    ys = np.array([np.asarray(y, dtype=float).reshape(2) for y in measurements])
    covs = np.array([np.asarray(r, dtype=float).reshape(2, 2) for r in noise_covs])
    if len(covs) != len(ys):
        raise ValueError("one noise covariance per measurement required")
    return ys.reshape(-1, 2), covs.reshape(-1, 2, 2)


def _transition(dyn: DynamicsSpec, dim: int, shape_dim: int):
    """System matrix A and process noise Q of one step (see `stacked_time_update`).

    Built once per scenario and once per `Tracker`, and shared read-only.
    The static model's A = I is returned as None, which `stacked_predict`
    applies without a product. Q is built from q1 + 0.0 and q2 + 0.0, so it
    holds no -0.0 and a -0.0 intensity gives the floats of 0.0.
    """
    q1, q2 = dyn.q1 + 0.0, dyn.q2 + 0.0
    if not dyn.has_velocity:
        if dim != 2 + shape_dim:
            raise ValueError(
                f"static layout [center(2); shape({shape_dim})] expects dimension "
                f"{2 + shape_dim}, got {dim}"
            )
        return None, *_read_only(q1 * np.eye(dim))

    if dim != 4 + shape_dim:
        raise ValueError(
            f"constant-velocity layout [center(2); velocity(2); shape({shape_dim})] "
            f"expects dimension {4 + shape_dim}, got {dim}"
        )
    t = dyn.step
    eye2 = np.eye(2)
    a = np.eye(dim)
    a[:2, 2:4] = t * eye2
    q = np.zeros((dim, dim))
    q[:2, :2] = q2 * t**3 / 3.0 * eye2
    q[:2, 2:4] = q2 * t**2 / 2.0 * eye2
    q[2:4, :2] = q2 * t**2 / 2.0 * eye2
    q[2:4, 2:4] = q2 * t * eye2
    q[4:, 4:] = q1 * np.eye(shape_dim)
    return _read_only(a, q)


def stacked_time_update(means, covs, dyn: DynamicsSpec, shape_dim: int):
    """Predict R states (R, d) forward one step.

    Static mode applies a pure random walk (A = I, Q = q1 I) to the
    [center; shape] state. Constant-velocity mode applies the standard CV
    block to [center; velocity] with white-acceleration noise of intensity
    q2, and a q1 random walk to the shape block.

    Returns (means, covs) as `gaussian.stacked_predict` returns them; a
    prediction that overflows is not finite, and `stacked_step` marks its
    run failed.
    """
    return stacked_predict(means, covs, *_transition(dyn, means.shape[1], shape_dim))


# ---------------------------------------------------------------------------
# Stateful wrapper


class Tracker:
    """One target's recursive estimator: holds the state, counts anomalies.

    All heavy lifting is delegated to the pure functions above; this class
    adds the predict/update loop plumbing and diagnostics (Cholesky-triple
    clamp repairs, skipped degenerate updates).
    """

    def __init__(self, config: TrackerConfig, prior: GaussianState):
        config.check_layout(prior.dim)
        self.config = config
        self.state = prior.copy()
        self.clamp_repairs = 0
        self.degenerate_updates = 0
        self._transition = _transition(config.dynamics, prior.dim, config.shape_dim)
        self._constants = _Constants(config)

    def predict(self) -> None:
        """Predict one step ahead (`stacked_time_update` on one run).

        Raises:
            ValueError: the prediction is not finite.
        """
        state = self.state
        means, covs = stacked_predict(state.mean[None], state.cov[None], *self._transition)
        self.state = GaussianState(means[0], covs[0])

    def update(self, measurements, noise_covs) -> None:
        """Apply one step's measurements (batch or sequential per config).

        The R = 1 case of `stacked_step`: one update over all measurements
        in batch mode, else one per measurement in order. A degenerate
        update keeps the state and is counted.

        Raises:
            ValueError: not one noise covariance per measurement.
            ConditioningError: an update failed; the state is left as it
                was before the call.
        """
        ys, covs = _measurement_arrays(measurements, noise_covs)
        if not len(ys):
            return
        self._constants.set_noise(covs)
        self.clamp_repairs += int(shape_params(self.state.mean[None], self.config)[2][0])
        means, cov, failed, degenerate = _step(
            self.state.mean[None], self.state.cov[None], [ys], self._constants
        )
        self.degenerate_updates += int(degenerate[0])
        if failed[0]:
            raise ConditioningError("update failed; state left unchanged")
        self.state = GaussianState(means[0], cov[0])

    @property
    def center(self) -> np.ndarray:
        return self.state.mean[:2]

    def shape_estimate(self) -> EllipseParams | FourierShapeParams:
        """The shape of the current mean (see `shape_estimate`)."""
        return shape_estimate(self.state.mean, self.config)
