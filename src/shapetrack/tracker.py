"""Recursive extended-object tracker for randomly scaled shape boundaries.

Measurements y = z + v are noisy observations of sources z drawn from a
randomly scaled version of the target boundary. Substituting the source
into the scaled implicit shape function yields a polynomial
pseudo-measurement in the state, the measurement noise v, and the scaling
variable; conditioning on pseudo-measurement = 0 with a Gaussian
statistical linearization gives the measurement update. Both the elliptic
(Cholesky triple) and star-convex (Fourier radius) families are handled.

Every update runs one kernel, `batch_update`: one source-estimate pass
over the step's k measurements (one closest-point call on the clamped
prior-mean ellipse, or one angle per measurement), then one stacked
pseudo-measurement evaluation of all k columns per sigma-point set. A
sequential update is the case k = 1.

State layout is fixed as [center(2); velocity(2, only with the
constant-velocity dynamics); shape parameters].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ellipse import EllipseParams, clamp_chol, ellipse_closest_point
from .gaussian import (
    DEFAULT_SPREAD,
    DegenerateInnovationWarning,
    GaussianState,
    UnscentedSpread,
    kalman_predict,
    statistical_linearization_update,
)
from .starconvex import FourierShapeParams, angle_point_estimate, fourier_basis

__all__ = [
    "ScalingModel",
    "DynamicsSpec",
    "TrackerConfig",
    "Tracker",
    "scaling_noise_gaussian",
    "ellipse_pseudo_measurement",
    "sc_pseudo_measurement",
    "measurement_update",
    "batch_update",
    "time_update",
]

TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class ScalingModel:
    """Gaussian model of the boundary scaling variable.

    variable selects what the scalar in the augmented state represents:
    "squared_scale" treats it as s^2 (the elliptic family, where uniform
    sources over the extent make s^2 uniform on [0, 1]), "scale" as s
    itself (the star-convex family).
    """

    variable: str
    mean: float
    variance: float

    def __post_init__(self):
        if self.variable not in ("squared_scale", "scale"):
            raise ValueError(f"unknown scaling variable {self.variable!r}")
        if not self.variance > 0:
            raise ValueError("scaling variance must be positive")

    @classmethod
    def squared_scale_uniform(cls) -> "ScalingModel":
        """Moments of s^2 for s^2 ~ U[0, 1]: mean 1/2, variance 1/12."""
        return cls("squared_scale", 0.5, 1.0 / 12.0)

    @classmethod
    def scale_default(cls) -> "ScalingModel":
        """Default Gaussian scale for star-convex boundaries."""
        return cls("scale", 0.7, 0.06)


def scaling_noise_gaussian(model: ScalingModel) -> GaussianState:
    """Scalar Gaussian of the scaling variable, ready for state augmentation."""
    return GaussianState([model.mean], [[model.variance]])


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
        if not self.step > 0:
            raise ValueError("time step must be positive")
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("noise intensities must be non-negative")

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
        expected = "squared_scale" if self.shape_family == "ellipse" else "scale"
        if self.scaling.variable != expected:
            raise ValueError(
                f"{self.shape_family} tracking requires scaling variable {expected!r}, "
                f"got {self.scaling.variable!r}"
            )

    @property
    def shape_dim(self) -> int:
        return 3 if self.shape_family == "ellipse" else 2 * self.n_fourier + 1

    def state_dim(self) -> int:
        return 2 + (2 if self.dynamics.has_velocity else 0) + self.shape_dim

    def check_layout(self, dim: int) -> None:
        if dim != self.state_dim():
            raise ValueError(
                f"state dimension {dim} does not match layout "
                f"[center(2); velocity({2 if self.dynamics.has_velocity else 0}); "
                f"shape({self.shape_dim})]"
            )


# ---------------------------------------------------------------------------
# Pseudo-measurement functions


def ellipse_pseudo_measurement(
    state, measurement, source_offset, trace_normalize: bool = True
):
    """Elliptic pseudo-measurement; zero when measurement, state, and noise agree.

    Args:
        state: augmented vector(s) [x; v_1; u_1; ...; v_k; u_k] of shape
            (d,) or (n, d); each measurement l owns a noise block of its
            noise v_l (2) and squared scaling factor u_l (1); the state part
            x ends with the Cholesky triple (a, b, c) and starts with the
            center.
        measurement: observed 2-vector y, or k of them as (k, 2).
        source_offset: fixed estimate(s) of (source - center), shaped like
            `measurement`, taken from the closest point on the prior-mean
            ellipse to each y.
        trace_normalize: divide by the trace of L L^T (computed per state
            vector), which levels the innovation scale across shape sizes.

    Returns:
        Scalar for a single vector and measurement, else one value per
        state vector, with a trailing axis of k for (k, 2) measurements.
    """
    x, y, noise = _stacked(state, measurement)
    r0, r1 = np.asarray(source_offset, dtype=float).reshape(y.shape).T
    v0, v1, u = np.ascontiguousarray(noise.transpose(2, 0, 1))  # each (n, k)
    w0, w1 = y.T[:, None, :] - x[:, :2].T[:, :, None]  # y - m, each (n, k)
    a, b, c = np.ascontiguousarray(x[:, -3:].T)[:, :, None]  # each (n, 1)

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
        state: augmented vector(s) [x; v_1; s_1; ...; v_k; s_k], shape (d,)
            or (n, d); the state part x ends with the n_coeffs Fourier
            coefficients, and measurement l owns the noise block (v_l, s_l).
        measurement: observed 2-vector y, or k of them as (k, 2).
        phi_hat: point estimate of the source angle (from the prior
            center), one per measurement.
        n_coeffs: length of the coefficient block.

    Returns:
        s^2 r^2 + 2 s r e(phi)^T v + |v|^2 - |y - m|^2 per vector, with a
        trailing axis of k for (k, 2) measurements.
    """
    x, y, noise = _stacked(state, measurement)
    phi = np.asarray(phi_hat, dtype=float).reshape(len(y))
    s, v = noise[..., 2], noise[..., :2]
    m = x[:, None, :2]
    coeffs = x[:, -n_coeffs:]

    # One matrix-vector product per measurement, (k, n, 1) -> (n, k), so each
    # column is computed exactly as a single-measurement call computes it.
    r = np.matmul(coeffs, fourier_basis(phi, n_coeffs)[:, :, None])[..., 0].T
    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    ve = np.matmul(v.swapaxes(0, 1), e[:, :, None])[..., 0].T
    w = y - m
    vals = (s * r) ** 2 + 2.0 * s * r * ve + np.sum(v * v, axis=-1) - np.sum(w * w, axis=-1)
    return _unstacked(vals, state, measurement)


def _stacked(state, measurement):
    """Views (state part x (n, d), y (k, 2), noise blocks (n, k, 3)) of augmented vectors."""
    aug = np.atleast_2d(np.asarray(state, dtype=float))
    y = np.asarray(measurement, dtype=float)
    y = y.reshape(len(y) if y.ndim == 2 else 1, 2)
    split = aug.shape[1] - 3 * len(y)
    return aug[:, :split], y, aug[:, split:].reshape(len(aug), len(y), 3)


def _unstacked(vals, state, measurement):
    """Drop the measurement axis for a single 2-vector and the row axis for a single state."""
    if np.ndim(measurement) == 1:
        vals = vals[:, 0]
    return vals[0] if np.ndim(state) == 1 else vals


# ---------------------------------------------------------------------------
# Updates


def measurement_update(
    prior: GaussianState, measurement, noise_cov, config: TrackerConfig
) -> GaussianState:
    """Condition the state on one measurement: `batch_update` with k = 1."""
    return batch_update(prior, [measurement], [noise_cov], config)


def batch_update(
    prior: GaussianState, measurements, noise_covs, config: TrackerConfig
) -> GaussianState:
    """Condition the state on k measurements in one stacked update.

    The augmented density [prior; v_1; scaling_1; ...; v_k; scaling_k]
    carries an independent noise block per measurement. The source
    estimates (closest boundary points or angles) are computed in one pass
    from the prior mean and held fixed; the family's pseudo-measurement is
    evaluated for all k at once and linearized statistically against the
    target 0.

    Returns the posterior; on a degenerate innovation the prior is
    returned unchanged (a DegenerateInnovationWarning is emitted by the
    underlying update).
    """
    config.check_layout(prior.dim)
    ys = np.array([np.asarray(y, dtype=float).reshape(2) for y in measurements])
    if len(ys) == 0:
        raise ValueError("batch_update needs at least one measurement")
    covs = [np.asarray(r, dtype=float).reshape(2, 2) for r in noise_covs]
    if len(covs) != len(ys):
        raise ValueError("one noise covariance per measurement required")

    k = len(ys)
    noise_cov = np.zeros((3 * k, 3 * k))
    for l, r in enumerate(covs):
        noise_cov[3 * l : 3 * l + 2, 3 * l : 3 * l + 2] = r
        noise_cov[3 * l + 2, 3 * l + 2] = config.scaling.variance
    noise_aug = GaussianState(np.tile([0.0, 0.0, config.scaling.mean], k), noise_cov)

    center = prior.mean[:2]
    if config.shape_family == "ellipse":
        ell, _ = clamp_chol(center, prior.mean[-3:])
        offsets = ellipse_closest_point(ell, ys) - center

        def h(points, _y):
            return ellipse_pseudo_measurement(points, ys, offsets, config.trace_normalize)

    else:
        phis = [angle_point_estimate(y, center) for y in ys]

        def h(points, _y):
            return sc_pseudo_measurement(points, ys, phis, config.shape_dim)

    return statistical_linearization_update(
        prior, h, noise_aug, measurement=None, spread=config.unscented
    )


def time_update(state: GaussianState, dyn: DynamicsSpec, shape_dim: int) -> GaussianState:
    """Predict the state forward one step.

    Static mode applies a pure random walk (A = I, Q = q1 I) to the
    [center; shape] state. Constant-velocity mode applies the standard CV
    block to [center; velocity] with white-acceleration noise of intensity
    q2, and a q1 random walk to the shape block.
    """
    if not dyn.has_velocity:
        if state.dim != 2 + shape_dim:
            raise ValueError(
                f"static layout [center(2); shape({shape_dim})] expects dimension "
                f"{2 + shape_dim}, got {state.dim}"
            )
        return kalman_predict(state, np.eye(state.dim), dyn.q1 * np.eye(state.dim))

    if state.dim != 4 + shape_dim:
        raise ValueError(
            f"constant-velocity layout [center(2); velocity(2); shape({shape_dim})] "
            f"expects dimension {4 + shape_dim}, got {state.dim}"
        )
    t = dyn.step
    eye2 = np.eye(2)
    a = np.eye(state.dim)
    a[:2, 2:4] = t * eye2
    q = np.zeros((state.dim, state.dim))
    q[:2, :2] = dyn.q2 * t**3 / 3.0 * eye2
    q[:2, 2:4] = dyn.q2 * t**2 / 2.0 * eye2
    q[2:4, :2] = dyn.q2 * t**2 / 2.0 * eye2
    q[2:4, 2:4] = dyn.q2 * t * eye2
    q[4:, 4:] = dyn.q1 * np.eye(shape_dim)
    return kalman_predict(state, a, q)


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

    def predict(self) -> None:
        self.state = time_update(self.state, self.config.dynamics, self.config.shape_dim)

    def update(self, measurements, noise_covs) -> None:
        """Apply one step's measurements (batch or sequential per config)."""
        measurements = list(measurements)
        noise_covs = list(noise_covs)
        if not measurements:
            return
        if self.config.shape_family == "ellipse":
            _, clamped = clamp_chol(self.state.mean[:2], self.state.mean[-3:])
            self.clamp_repairs += int(clamped)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if self.config.batch_mode:
                self.state = batch_update(
                    self.state, measurements, noise_covs, self.config
                )
            else:
                for y, r in zip(measurements, noise_covs):
                    self.state = measurement_update(self.state, y, r, self.config)
        self.degenerate_updates += sum(
            issubclass(w.category, DegenerateInnovationWarning) for w in caught
        )

    @property
    def center(self) -> np.ndarray:
        return self.state.mean[:2]

    def ellipse_estimate(self) -> EllipseParams:
        if self.config.shape_family != "ellipse":
            raise ValueError("not an ellipse tracker")
        ell, _ = clamp_chol(self.state.mean[:2], self.state.mean[-3:])
        return ell

    def contour_estimate(self) -> FourierShapeParams:
        if self.config.shape_family != "star_convex":
            raise ValueError("not a star-convex tracker")
        return FourierShapeParams(
            self.state.mean[:2], self.state.mean[-self.config.shape_dim :]
        )
