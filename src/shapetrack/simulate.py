"""Scenario execution: measurement streams, Monte-Carlo runs, averaging.

A scenario poses a ground-truth target (optionally along a waypoint
trajectory), feeds noisy point measurements to a tracker, and repeats
over independent runs whose random streams are spawned from one master
seed, so reports are reproducible bit for bit regardless of scheduling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ellipse import clamp_chol
from .gaussian import ConditioningError, GaussianState
from .metrics import shape_iou
from .starconvex import FourierShapeParams
from .targets import (
    GroundTruthTarget,
    psd_root,
    sample_measurement_sources,
)
from .tracker import Tracker, TrackerConfig

__all__ = [
    "NoiseMixture",
    "MeasurementCountModel",
    "Trajectory",
    "ScenarioConfig",
    "ScenarioReport",
    "measurement_count",
    "mean_shape",
    "posed_target",
    "run_scenario",
]

RUN_IOU_RESOLUTION = 256
MEAN_IOU_RESOLUTION = 1024
DIVERGENCE_CENTER_BOUND = 1e6


@dataclass(frozen=True)
class NoiseMixture:
    """Measurement noise as a finite mixture of Gaussian covariance levels."""

    covariances: np.ndarray  # (L, 2, 2)
    probabilities: np.ndarray  # (L,)

    def __post_init__(self):
        covs = np.asarray(self.covariances, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if covs.ndim != 3 or covs.shape[1:] != (2, 2):
            raise ValueError("covariances must have shape (L, 2, 2)")
        if probs.shape != (covs.shape[0],):
            raise ValueError("one probability per covariance level")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def single(cls, cov) -> "NoiseMixture":
        return cls(np.asarray(cov, dtype=float)[None, :, :], np.array([1.0]))

    @classmethod
    def isotropic(cls, stds, probs=None) -> "NoiseMixture":
        stds = np.atleast_1d(np.asarray(stds, dtype=float))
        if probs is None:
            probs = np.ones(len(stds)) / len(stds)
        covs = np.stack([s * s * np.eye(2) for s in stds])
        return cls(covs, probs)

    @property
    def mean_covariance(self) -> np.ndarray:
        """Marginal covariance of the mixture; what the tracker is told."""
        return np.einsum("l,lij->ij", self.probabilities, self.covariances)

    def draw_level(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.probabilities), p=self.probabilities))


@dataclass(frozen=True)
class MeasurementCountModel:
    """Measurements per step: a fixed count or 1 + Poisson(mean)."""

    kind: str  # "fixed_per_step" | "shifted_poisson"
    value: float

    def __post_init__(self):
        if self.kind not in ("fixed_per_step", "shifted_poisson"):
            raise ValueError(f"unknown count model {self.kind!r}")
        if self.kind == "fixed_per_step":
            if self.value < 1 or self.value != int(self.value):
                raise ValueError("fixed count must be a positive integer")
        elif self.value < 0:
            raise ValueError("Poisson mean must be nonnegative")


def measurement_count(model: MeasurementCountModel, rng: np.random.Generator) -> int:
    """Draw the number of measurements for one time step (always >= 1)."""
    if model.kind == "fixed_per_step":
        return int(model.value)
    return 1 + int(rng.poisson(model.value))


@dataclass(frozen=True)
class Trajectory:
    """Per-step target poses: anchor positions and headings."""

    positions: np.ndarray  # (n_steps, 2)
    headings: np.ndarray  # (n_steps,)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        head = np.asarray(self.headings, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or head.shape != (pos.shape[0],):
            raise ValueError("positions (n, 2) and headings (n,) must align")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "headings", head)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def from_waypoints(cls, waypoints, n_steps: int) -> "Trajectory":
        """Constant-speed resampling of a spline through the waypoints."""
        from scipy.interpolate import CubicSpline  # loaded only for moving scenarios

        wp = np.asarray(waypoints, dtype=float)
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
        if chord[-1] <= 0:
            raise ValueError("waypoints are coincident")
        spline = CubicSpline(chord, wp, axis=0)
        # arc-length table on a fine parameter grid, then invert
        u = np.linspace(0.0, chord[-1], 4096)
        pts = spline(u)
        arc = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
        targets = np.linspace(0.0, arc[-1], n_steps)
        u_at = np.interp(targets, arc, u)
        positions = spline(u_at)
        deriv = spline(u_at, 1)
        headings = np.arctan2(deriv[:, 1], deriv[:, 0])
        return cls(positions, headings)


@dataclass(frozen=True)
class ScenarioConfig:
    target: GroundTruthTarget
    noise_mixture: NoiseMixture
    meas_count_model: MeasurementCountModel
    n_steps: int
    n_runs: int
    prior: GaussianState
    tracker: TrackerConfig
    rng_seed: int
    trajectory: Trajectory | None = None
    rotate_with_heading: bool = True

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        self.tracker.check_layout(self.prior.dim)
        if self.trajectory is not None and len(self.trajectory) != self.n_steps:
            raise ValueError(
                f"trajectory has {len(self.trajectory)} poses for {self.n_steps} steps"
            )


@dataclass
class ScenarioReport:
    """Everything a scenario produced, merged in run-index order."""

    config: ScenarioConfig
    prior: GaussianState
    estimates: np.ndarray  # (n_runs, n_steps, state_dim), NaN after divergence
    diverged_at: np.ndarray  # (n_runs,), -1 where the run completed
    run_iou: np.ndarray  # (n_runs, n_steps)
    run_center_error: np.ndarray  # (n_runs, n_steps)
    mean_estimates: np.ndarray  # (n_steps, state_dim) over completed runs
    mean_iou: np.ndarray  # (n_steps,), IoU of the mean shape vs truth
    center_rmse: np.ndarray  # (n_steps,) over completed runs
    example_measurements: list = field(default_factory=list)  # run 0, per step

    @property
    def n_diverged(self) -> int:
        return int(np.count_nonzero(self.diverged_at >= 0))

    @property
    def completed(self) -> np.ndarray:
        return self.diverged_at < 0


def _safe_iou(shape, truth, resolution) -> float:
    """IoU that treats a degenerate (zero-union) estimate as zero overlap."""
    try:
        return shape_iou(shape, truth, resolution=resolution)
    except ValueError:
        return 0.0


def posed_target(config: ScenarioConfig, step: int) -> GroundTruthTarget:
    """Ground truth at one step: the target moved/rotated along the trajectory."""
    if config.trajectory is None:
        return config.target
    pos = config.trajectory.positions[step]
    heading = config.trajectory.headings[step] if config.rotate_with_heading else 0.0
    return config.target.transformed(
        rotation=heading, translation=pos - config.target.anchor
    )


def _shape_from_state(config: ScenarioConfig, mean: np.ndarray):
    """Shape value from a raw state vector (used for run-averaged states)."""
    shape_dim = config.tracker.shape_dim
    if config.tracker.shape_family == "ellipse":
        shape, _ = clamp_chol(mean[:2], mean[-shape_dim:])
        return shape
    return FourierShapeParams(mean[:2], mean[-shape_dim:])


def mean_shape(report: "ScenarioReport", step: int):
    """Shape value of the run-averaged state at one step."""
    return _shape_from_state(report.config, report.mean_estimates[step])


def _run_single(config: ScenarioConfig, truths, rng: np.random.Generator, collect):
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
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


def run_scenario(
    config: ScenarioConfig,
    run_iou_resolution: int = RUN_IOU_RESOLUTION,
    mean_iou_resolution: int = MEAN_IOU_RESOLUTION,
) -> ScenarioReport:
    """Execute all Monte-Carlo runs and assemble the averaged report.

    Per-run random streams are spawned from the master seed, so the
    report is identical for identical configs no matter how runs would
    be scheduled. A run whose tracker diverges (non-finite state or a
    conditioning failure) is cut short, keeps NaN rows from that step
    on, and is excluded from the averaged columns.
    """
    seeds = np.random.SeedSequence(config.rng_seed).spawn(config.n_runs)
    n_runs, n_steps, dim = config.n_runs, config.n_steps, config.prior.dim

    truths = [posed_target(config, k) for k in range(n_steps)]
    estimates = np.full((n_runs, n_steps, dim), np.nan)
    diverged_at = np.full(n_runs, -1, dtype=int)
    example = None
    for r in range(n_runs):
        rng = np.random.Generator(np.random.Philox(seeds[r]))
        est, died, meas = _run_single(config, truths, rng, collect=(r == 0))
        estimates[r] = est
        diverged_at[r] = died
        if r == 0:
            example = meas

    run_iou = np.full((n_runs, n_steps), np.nan)
    run_center_error = np.full((n_runs, n_steps), np.nan)
    for r in range(n_runs):
        last = n_steps if diverged_at[r] < 0 else diverged_at[r]
        for k in range(last):
            shape = _shape_from_state(config, estimates[r, k])
            run_iou[r, k] = _safe_iou(shape, truths[k], run_iou_resolution)
            run_center_error[r, k] = np.linalg.norm(
                estimates[r, k, :2] - truths[k].anchor
            )

    completed = diverged_at < 0
    mean_estimates = np.full((n_steps, dim), np.nan)
    mean_iou = np.full(n_steps, np.nan)
    center_rmse = np.full(n_steps, np.nan)
    if completed.any() and n_steps:
        mean_estimates = estimates[completed].mean(axis=0)
        errs = run_center_error[completed]
        center_rmse = np.sqrt(np.mean(errs * errs, axis=0))
        for k in range(n_steps):
            shape = _shape_from_state(config, mean_estimates[k])
            mean_iou[k] = _safe_iou(shape, truths[k], mean_iou_resolution)

    return ScenarioReport(
        config=config,
        prior=config.prior.copy(),
        estimates=estimates,
        diverged_at=diverged_at,
        run_iou=run_iou,
        run_center_error=run_center_error,
        mean_estimates=mean_estimates,
        mean_iou=mean_iou,
        center_rmse=center_rmse,
        example_measurements=example or [],
    )
