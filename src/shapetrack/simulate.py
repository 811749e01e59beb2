"""Scenario execution: measurement streams, Monte-Carlo runs, averaging.

A scenario poses a ground-truth target (optionally along a waypoint
trajectory), feeds noisy point measurements to a tracker, and repeats
over independent runs.

All runs advance in lockstep, one time step at a time. Each run owns a
Philox stream spawned from the master seed, and at every step each live
run draws from its own stream, in this order: the measurement count, the
sources, the noise levels, the noise. The sources of all live runs are
rejection-sampled together (`stacked_sample_sources`): each run draws its
box chunks from its own stream, and one inside-or-out test per round
covers every run's chunk. Then the live runs are predicted together and
updated together as stacked arrays (`stacked_time_update`,
`stacked_step`): in batch mode one update per group of runs with the
same measurement count; in sequential mode one update per measurement
index j, taken by the runs with more than j measurements. A run's draws
and arithmetic do not depend on the other runs, so its results are the
same bit for bit whatever the number of runs.

Scoring is stacked as well: every (run, step) pair is scored in one
`shape_ious` call, which traces each step's truth once, and the
run-averaged shapes in another.

Divergence is a per-run mask. A run diverges at a step when its update
fails (a covariance cannot be factorized or repaired), its mean or
covariance is not finite, or its centre leaves DIVERGENCE_CENTER_BOUND;
it then leaves the live set, and the others continue untouched.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianState
from .metrics import shape_ious
from .starconvex import DegenerateAngleWarning
from .targets import GroundTruthTarget, psd_root, stacked_sample_sources
from .tracker import TrackerConfig, shape_params, stacked_step, stacked_time_update

__all__ = [
    "NoiseMixture",
    "MeasurementCountModel",
    "Trajectory",
    "ScenarioConfig",
    "ScenarioReport",
    "measurement_count",
    "posed_target",
    "run_scenario",
]

RUN_IOU_RESOLUTION = 256
MEAN_IOU_RESOLUTION = 1024
DIVERGENCE_CENTER_BOUND = 1e6
# Bound on the fixed count and on the Poisson mean. A batch update on k
# measurements augments each run's state to d = state_dim + 3k and holds
# its (2d + 1, d) sigma points, its (d, d) covariance and the (2d + 1, k)
# pseudo-measurements with their intermediates. At the bound (d <= 320 for
# the bundled layouts) that is about 10 MB a run; the total over the runs
# stacked in one step is bounded by MAX_STEP_BYTES.
MAX_MEASUREMENTS_PER_STEP = 100
# Bound on the estimated peak memory of one update step over all runs,
# STEP_BYTES_PER_D2 * d^2 a run at the augmented dimension d of the step.
# Traced batch steps of 8 runs at k = 30 and k = 100, on the ellipse,
# moving-ellipse and star-convex layouts, peaked at 62-82 d^2 bytes a run.
MAX_STEP_BYTES = 1 << 30
STEP_BYTES_PER_D2 = 96
# Bound on the estimated size of a scenario report: its per-run arrays hold
# dim + 2 floats a run and step (the estimate, its IoU and centre error).
# It admits the config's own 300 steps at the largest run count one
# sequential update step allows. The CSV text written from a report takes
# more memory than the report.
MAX_REPORT_BYTES = 1 << 32


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
        if not np.all(np.isfinite(covs)):
            raise ValueError("noise covariances must be finite")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
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
        if not math.isfinite(self.value):
            raise ValueError(f"count value must be finite, got {self.value}")
        if self.kind not in ("fixed_per_step", "shifted_poisson"):
            raise ValueError(f"unknown count model {self.kind!r}")
        if self.kind == "fixed_per_step":
            if self.value < 1 or self.value != int(self.value):
                raise ValueError("fixed count must be a positive integer")
        elif self.value < 0:
            raise ValueError("Poisson mean must be nonnegative")
        if self.value > MAX_MEASUREMENTS_PER_STEP:
            raise ValueError(
                f"measurements per step must be at most {MAX_MEASUREMENTS_PER_STEP}, "
                f"got {self.value:g}"
            )

    def stacked_count(self) -> int:
        """The largest count a batch step is sized for: the fixed count, or
        1 + mean + 6 standard deviations for Poisson counts. A Poisson draw
        exceeds that with probability below 2e-4 (1e-5 for a mean of at
        least 0.5), and a count that rare comes to few runs at once."""
        if self.kind == "fixed_per_step":
            return int(self.value)
        return 1 + math.ceil(self.value + 6.0 * math.sqrt(self.value))


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
        """Constant-speed resampling of a spline through the waypoints.

        The curve is the not-a-knot cubic spline through the waypoints,
        parametrized by cumulative chord length (de Boor, *A Practical
        Guide to Splines*, 1978): a straight line for two waypoints, the
        parabola for three. `_not_a_knot_spline` and `_eval_spline` do the
        arithmetic of scipy's ``CubicSpline(chord, waypoints, axis=0)`` in
        the same order, so positions and headings equal scipy's bit for bit
        (three-waypoint parabolas to within rounding of the dense solve).

        Raises:
            ValueError: n_steps < 1, waypoints not of shape (n, 2), a
                non-finite waypoint or path length, coincident waypoints,
                or two consecutive waypoints that coincide.
        """
        wp = np.asarray(waypoints, dtype=float)
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        if wp.ndim != 2 or wp.shape[1] != 2:
            raise ValueError("waypoints must have shape (n, 2)")
        if not np.all(np.isfinite(wp)):
            raise ValueError("waypoints must be finite")
        with np.errstate(over="ignore"):  # an overflowing path is reported just below
            chord = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(wp, axis=0), axis=1))]
        if not np.isfinite(chord[-1]):
            raise ValueError("waypoint path length is not finite")
        if chord[-1] <= 0:
            raise ValueError("waypoints are coincident")
        repeats = np.flatnonzero(np.diff(chord) <= 0)
        if repeats.size:
            i = repeats[0] + 1  # counting waypoints from 1
            raise ValueError(f"consecutive waypoints {i} and {i + 1} coincide")
        coeffs = _not_a_knot_spline(chord, wp)
        # arc-length table on a fine parameter grid, then invert
        u = np.linspace(0.0, chord[-1], 4096)
        pts = _eval_spline(chord, coeffs, u)
        arc = np.r_[0.0, np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
        targets = np.linspace(0.0, arc[-1], n_steps)
        u_at = np.interp(targets, arc, u)
        positions = _eval_spline(chord, coeffs, u_at)
        deriv = _eval_spline(chord, coeffs, u_at, derivative=True)
        headings = np.arctan2(deriv[:, 1], deriv[:, 0])
        return cls(positions, headings)


def _tridiagonal_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system, as LAPACK dgtsv does it.

    Gaussian elimination with partial pivoting (a row swap whenever the
    sub-diagonal entry is larger in magnitude than the pivot; a swap fills
    the second super-diagonal), then back-substitution, on every column of
    rhs (n, k), n >= 2. lower and upper have n - 1 entries, diag n. The steps
    follow dgtsv line by line, so the result is the one
    ``scipy.linalg.solve_banded((1, 1), ...)`` returns.
    """
    dl, d, du = list(map(float, lower)), list(map(float, diag)), list(map(float, upper))
    du2 = [0.0] * len(dl)
    b = np.array(rhs, dtype=float)
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("singular spline system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
            temp = b[i].copy()
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("singular spline system")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return b


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Piecewise-cubic coefficients (4, n - 1, m) of the not-a-knot spline.

    x (n,) strictly increasing, y (n, m). Segment i is
    ``c[0] s³ + c[1] s² + c[2] s + c[3]`` with ``s = u - x[i]``. The slopes
    at the knots solve the tridiagonal system of de Boor's not-a-knot
    spline (two waypoints: both end slopes are the chord slope, a straight
    line; three: the parabola through them, a dense 3 × 3 solve). Every
    expression keeps the operation order of scipy's CubicSpline and
    CubicHermiteSpline, so the coefficients are the same floats.
    """
    n = x.shape[0]
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        s = slope[[0, 0]]
    elif n == 3:
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.stack(
            (2 * slope[0], 3 * (dxr[0] * slope[1] + dxr[1] * slope[0]), 2 * slope[1])
        )
        s = np.linalg.solve(a, b)
    else:
        diag = np.empty(n)
        upper = np.empty(n - 1)
        lower = np.empty(n - 1)
        b = np.empty(y.shape)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        d = x[2] - x[0]
        diag[0] = dx[1]
        upper[0] = d
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        diag[-1] = dx[-2]
        lower[-1] = d
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = _tridiagonal_solve(lower, diag, upper, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _eval_spline(
    x: np.ndarray, coeffs: np.ndarray, u: np.ndarray, derivative: bool = False
) -> np.ndarray:
    """Values (or first derivatives) (len(u), m) of a `_not_a_knot_spline`.

    Each u falls in the segment i with x[i] <= u < x[i + 1], the last
    segment also taking u = x[-1] and beyond; the terms are summed lowest
    power first from 0.0, as scipy's PPoly evaluates them.
    """
    i = np.clip(np.searchsorted(x, u, "right") - 1, 0, x.shape[0] - 2)
    s = (u - x[i])[:, None]
    c = coeffs[:, i]
    if derivative:
        return 0.0 + c[2] + c[1] * s * 2.0 + c[0] * (s * s) * 3.0
    return 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)


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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")
        self.tracker.check_layout(self.prior.dim)
        k = self.meas_count_model.stacked_count() if self.tracker.batch_mode else 1
        d = self.tracker.augmented_dim(k)
        per_run = STEP_BYTES_PER_D2 * d * d
        if self.n_runs * per_run > MAX_STEP_BYTES:
            raise ValueError(
                f"n_runs = {self.n_runs} needs about {self.n_runs * per_run / 2**30:.1f} GiB "
                f"in one update step at augmented dimension d = {d}; at most "
                f"{MAX_STEP_BYTES // per_run} runs fit in {MAX_STEP_BYTES / 2**30:g} GiB"
            )
        check_report_size(self.n_runs, self.n_steps, self.prior.dim)
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


def check_report_size(n_runs: int, n_steps: int, dim: int) -> None:
    """Raise ValueError when the report of n_runs x n_steps filter states of
    dimension dim would exceed MAX_REPORT_BYTES."""
    per_step = 8 * n_runs * (dim + 2)
    if n_steps * per_step > MAX_REPORT_BYTES:
        raise ValueError(
            f"n_steps = {n_steps} with n_runs = {n_runs} needs about "
            f"{n_steps * per_step / 2**30:.1f} GiB for the report; at most "
            f"{MAX_REPORT_BYTES // per_step} steps fit in {MAX_REPORT_BYTES / 2**30:g} GiB"
        )


def posed_target(config: ScenarioConfig, step: int) -> GroundTruthTarget:
    """Ground truth at one step: the target moved/rotated along the trajectory."""
    if config.trajectory is None:
        return config.target
    pos = config.trajectory.positions[step]
    heading = config.trajectory.headings[step] if config.rotate_with_heading else 0.0
    return config.target.transformed(
        rotation=heading, translation=pos - config.target.anchor
    )


def _score(config: ScenarioConfig, states, truths, steps, resolution) -> np.ndarray:
    """IoU of each state's shape (`tracker.shape_params`) against the truth
    of its step, all pairs stacked (`metrics.shape_ious`); a pair with an
    empty union scores 0."""
    centers, params, _ = shape_params(states, config.tracker)
    return shape_ious(centers, params, truths, steps, config.tracker.shape_family, resolution)


def _draw_measurements(config: ScenarioConfig, truth, rngs, factors) -> list:
    """One step's measurements of several runs. Each run draws from its own
    stream, in the order count, sources, noise levels, noise; the sources
    of all the runs are rejection-sampled together."""
    mix = config.noise_mixture
    counts = [measurement_count(config.meas_count_model, rng) for rng in rngs]
    sources = stacked_sample_sources(truth, counts, rngs)
    levels, noise = [], []
    for rng, n_k in zip(rngs, counts):
        if len(mix.probabilities) == 1:
            levels.append(np.zeros(n_k, dtype=int))
        else:
            levels.append(rng.choice(len(mix.probabilities), size=n_k, p=mix.probabilities))
        noise.append(rng.standard_normal((n_k, 2)))
    offsets = np.einsum("lij,lj->li", factors[np.concatenate(levels)], np.concatenate(noise))
    return np.split(np.concatenate(sources) + offsets, np.cumsum(counts)[:-1])


def _filter_runs(config: ScenarioConfig, truths, seeds):
    """All Monte-Carlo runs in lockstep against the posed truths of every step.

    Returns (estimates (n_runs, n_steps, dim), diverged_at (n_runs,), the
    measurements of run 0 per step while it is live).
    """
    n_runs, n_steps, dim = config.n_runs, config.n_steps, config.prior.dim
    tracker = config.tracker
    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    told_cov = config.noise_mixture.mean_covariance
    factors = np.stack([psd_root(c) for c in config.noise_mixture.covariances])

    estimates = np.full((n_runs, n_steps, dim), np.nan)
    diverged_at = np.full(n_runs, -1, dtype=int)
    example = []
    live = np.arange(n_runs)  # runs still tracking, with their moments below
    means = np.tile(config.prior.mean, (n_runs, 1))
    covs = np.tile(config.prior.cov, (n_runs, 1, 1))
    for k, truth in enumerate(truths):
        if not live.size:
            break
        ys = _draw_measurements(config, truth, [rngs[r] for r in live], factors)
        if live[0] == 0:
            example.append(ys[0])
        means, covs, predicted = stacked_time_update(
            means, covs, tracker.dynamics, tracker.shape_dim
        )
        failed = ~predicted
        go = np.flatnonzero(predicted)
        noise_covs = np.broadcast_to(told_cov, (max(map(len, ys)), 2, 2))
        means[go], covs[go], failed[go], _ = stacked_step(
            means[go], covs[go], [ys[i] for i in go], noise_covs, tracker
        )
        centre = np.linalg.norm(means[:, :2], axis=1)
        bad = (
            failed
            | ~np.isfinite(means).all(axis=1)
            | ~np.isfinite(covs).all(axis=(1, 2))
            | (centre > DIVERGENCE_CENTER_BOUND)
        )
        diverged_at[live[bad]] = k
        live, means, covs = live[~bad], means[~bad], covs[~bad]
        estimates[live, k] = means
    return estimates, diverged_at, example


def run_scenario(
    config: ScenarioConfig,
    run_iou_resolution: int = RUN_IOU_RESOLUTION,
    mean_iou_resolution: int = MEAN_IOU_RESOLUTION,
) -> ScenarioReport:
    """Execute all Monte-Carlo runs and assemble the averaged report.

    The runs advance in lockstep (see the module docstring); per-run
    random streams are spawned from the master seed, so the report is
    identical for identical configs, and run r's results do not depend
    on n_runs. A run whose tracker diverges (non-finite state, a centre
    beyond DIVERGENCE_CENTER_BOUND, or a conditioning failure) is cut
    short, keeps NaN rows from that step on, and is excluded from the
    averaged columns.
    """
    seeds = np.random.SeedSequence(config.rng_seed).spawn(config.n_runs)
    n_runs, n_steps, dim = config.n_runs, config.n_steps, config.prior.dim

    truths = [posed_target(config, k) for k in range(n_steps)]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # a measurement on the centre estimate gets angle 0, as the warning says
        warnings.simplefilter("ignore", DegenerateAngleWarning)
        estimates, diverged_at, example = _filter_runs(config, truths, seeds)

    run_iou = np.full((n_runs, n_steps), np.nan)
    run_center_error = np.full((n_runs, n_steps), np.nan)
    runs, steps = np.nonzero(np.isfinite(estimates[:, :, 0]))
    for r, k in zip(runs, steps):
        run_center_error[r, k] = np.linalg.norm(estimates[r, k, :2] - truths[k].anchor)
    run_iou[runs, steps] = _score(config, estimates[runs, steps], truths, steps, run_iou_resolution)

    completed = diverged_at < 0
    mean_estimates = np.full((n_steps, dim), np.nan)
    mean_iou = np.full(n_steps, np.nan)
    center_rmse = np.full(n_steps, np.nan)
    if completed.any() and n_steps:
        mean_estimates = estimates[completed].mean(axis=0)
        errs = run_center_error[completed]
        center_rmse = np.sqrt(np.mean(errs * errs, axis=0))
        mean_iou = _score(config, mean_estimates, truths, np.arange(n_steps), mean_iou_resolution)

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
        example_measurements=example,
    )
