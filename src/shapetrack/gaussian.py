"""Gaussian state containers, sigma points, and the statistical-linearization update.

Everything downstream (shape estimators, trackers, the simulation harness)
manipulates Gaussian densities through the small set of primitives in this
module: `GaussianState`, deterministic sigma-point generation, a generic
measurement update based on statistical linearization of a (pseudo-)
measurement function, and the linear Kalman time update.

The numerical work runs in stacked kernels over a leading run axis: means
(R, d), covariances (R, d, d) and sigma points (R, 2d+1, d), factorized
with stacked `cholesky`/`eigvalsh`/`solve` (`stacked_predict`,
`stacked_psd_repair`, `stacked_sl_update`, and the sigma-point draw they
share). Each run's arithmetic is the same as a lone call's, bit for bit.
Each kernel returns its outcome as a value: `stacked_predict` a per-run
finite flag, the others a per-run status (`OK`, `DEGENERATE`, `FAILED`)
or success flag. One failing run leaves the others untouched. The
sigma-point weights are computed once per dimension and spread
(`_unscented_weights`, cached and read-only), and a scalar innovation
variance is its own smallest eigenvalue, so a sequential update runs no
eigenvalue solver on it. `psd_repair`, `draw_sigma_points` and
`statistical_linearization_update` work on one state: `FAILED` becomes the
`ConditioningError` of the single-state API, and a `DEGENERATE` update
returns a copy of the prior.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConditioningError",
    "GaussianState",
    "UnscentedSpread",
    "SigmaPointSet",
    "DEFAULT_SPREAD",
    "symmetrize",
    "psd_repair",
    "cholesky_factor",
    "draw_sigma_points",
    "statistical_linearization_update",
    "OK",
    "DEGENERATE",
    "FAILED",
    "stacked_psd_repair",
    "stacked_sl_update",
    "stacked_predict",
]


class ConditioningError(RuntimeError):
    """Covariance could not be factorized even after jitter repair."""


# Repair thresholds. A covariance is accepted as PSD when its smallest
# eigenvalue is >= -PSD_TOL; anything worse gets a single jitter retry.
PSD_TOL = 1e-9
JITTER_FLOOR = 1e-12
INNOVATION_TOL = 1e-12

# Per-run status of a stacked kernel: the update was applied; the innovation
# covariance was degenerate and the run keeps its prior; the run failed (a
# covariance could not be factorized or repaired, or a value is not finite).
OK, DEGENERATE, FAILED = 0, 1, 2


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """Return the symmetric part (C + C^T) / 2 of a matrix or of a stack of them."""
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _finite_rows(a: np.ndarray) -> np.ndarray:
    """Per leading index, whether every entry is finite."""
    return np.isfinite(a).reshape(len(a), -1).all(axis=1)


def stacked_psd_repair(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`psd_repair` over a stack of covariances (R, d, d).

    Returns the repaired stack and a per-matrix flag, False where a matrix
    is not finite or is still indefinite after the jitter.
    """
    sym = symmetrize(np.asarray(covs, dtype=float))
    ok = _finite_rows(sym)
    w_min = np.zeros(len(sym))
    w_min[ok] = np.linalg.eigvalsh(sym[ok])[:, 0]
    bad = np.flatnonzero(w_min < -PSD_TOL)
    if bad.size:
        eps = np.abs(w_min[bad]) + JITTER_FLOOR
        sym[bad] = sym[bad] + eps[:, None, None] * np.eye(sym.shape[-1])
        ok[bad] = np.linalg.eigvalsh(sym[bad])[:, 0] >= -PSD_TOL
    return sym, ok


def psd_repair(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and, if needed, jitter a covariance back to PSD.

    The R = 1 case of `stacked_psd_repair`.

    Args:
        cov: square matrix, approximately symmetric PSD.

    Returns:
        Symmetrized matrix, with eps * I added when the smallest eigenvalue
        is below -1e-9 (eps = |min eigenvalue| + 1e-12).

    Raises:
        ConditioningError: still indefinite after one jitter attempt, or
            not finite.
    """
    repaired, ok = stacked_psd_repair(np.asarray(cov, dtype=float)[None])
    if not ok[0]:
        raise ConditioningError("covariance indefinite after jitter, or not finite")
    return repaired[0]


def cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with a single jitter retry.

    Deterministic (no randomized pivoting), so repeated runs of a seeded
    simulation factorize identically.
    """
    sym = symmetrize(np.asarray(cov, dtype=float))
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    w_min = float(np.linalg.eigvalsh(sym)[0])
    eps = max(abs(min(w_min, 0.0)) + JITTER_FLOOR, JITTER_FLOOR)
    try:
        return np.linalg.cholesky(sym + eps * np.eye(sym.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"Cholesky failed after jitter retry (min eigenvalue {w_min:.3e})"
        ) from exc


@dataclass
class GaussianState:
    """Mean vector and covariance matrix of a Gaussian density.

    The covariance is symmetrized on construction. Positive
    semi-definiteness (smallest eigenvalue >= -1e-9) is maintained by the
    operations in this module, which route every emitted covariance
    through `psd_repair`.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = self.mean.shape[0]
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if self.cov.shape != (d, d):
            raise ValueError(
                f"cov shape {self.cov.shape} does not match mean dimension {d}"
            )
        # checked after symmetrizing: (C + C^T) / 2 overflows for entries near the float max
        with np.errstate(over="ignore"):
            self.cov = symmetrize(self.cov)
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise ValueError("mean and cov must be finite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def copy(self) -> "GaussianState":
        return GaussianState(self.mean.copy(), self.cov.copy())


@dataclass(frozen=True)
class UnscentedSpread:
    """Scaled unscented-transform parameters (alpha, beta, kappa).

    kappa=None resolves to 3 - d at draw time, which makes d + lambda = 3
    for alpha = 1 and matches fourth moments of a Gaussian for quadratic
    nonlinearities.
    """

    alpha: float = 1.0
    beta: float = 0.0
    kappa: float | None = None

    def __post_init__(self):
        values = (self.alpha, self.beta) + (() if self.kappa is None else (self.kappa,))
        if not np.all(np.isfinite(values)):
            raise ValueError("unscented alpha, beta and kappa must be finite")

    def resolved_kappa(self, dim: int) -> float:
        return 3.0 - dim if self.kappa is None else float(self.kappa)

    def scaling(self, dim: int) -> tuple[float, float]:
        """(d + lambda, lambda) of the sigma points of a dim-dimensional
        Gaussian; the points exist only where d + lambda > 0."""
        lam = self.alpha**2 * (dim + self.resolved_kappa(dim)) - dim
        return dim + lam, lam


DEFAULT_SPREAD = UnscentedSpread()


@dataclass
class SigmaPointSet:
    """2d+1 deterministic sample points with recombination weights."""

    points: np.ndarray  # (2d+1, d)
    mean_weights: np.ndarray  # (2d+1,)
    cov_weights: np.ndarray  # (2d+1,)

    def recombine(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted mean and covariance recomputed from the points."""
        mean = self.mean_weights @ self.points
        diff = self.points - mean
        cov = symmetrize((self.cov_weights * diff.T) @ diff)
        return mean, cov


def _stacked_cholesky(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of finite covariances, and per-matrix success.

    One stacked factorization; if any matrix is not positive definite, each
    matrix is factorized alone by `cholesky_factor` with its jitter retry.
    A matrix that fails even then gets a zero factor and the flag False.
    """
    sym = symmetrize(covs)
    ok = np.ones(len(sym), dtype=bool)
    try:
        return np.linalg.cholesky(sym), ok
    except np.linalg.LinAlgError:
        pass
    roots = np.zeros_like(sym)
    for i, cov in enumerate(sym):
        try:
            roots[i] = cholesky_factor(cov)
        except ConditioningError:
            ok[i] = False
    return roots, ok


def _stacked_sigma_points(
    means: np.ndarray, covs: np.ndarray, spread: UnscentedSpread = DEFAULT_SPREAD
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw the 2d+1 scaled symmetric sigma points of R Gaussians at once.

    Args:
        means: (R, d) means.
        covs: (R, d, d) finite covariances.
        spread: unscented parameters; the default keeps d + lambda = 3.

    Returns:
        (points (R, 2d+1, d), mean weights (2d+1,), covariance weights
        (2d+1,), ok (R,)); ok is False where a covariance cannot be
        factorized, and that run's points all sit at its mean.

    Raises:
        ValueError: spread yields d + lambda <= 0.
    """
    n_runs, d = means.shape
    root_scale, w_mean, w_cov = _unscented_weights(d, spread)
    roots, ok = _stacked_cholesky(covs)
    root_t = np.swapaxes(roots * root_scale, -1, -2)
    points = np.empty((n_runs, 2 * d + 1, d))
    points[:, 0] = means
    points[:, 1 : d + 1] = means[:, None, :] + root_t
    points[:, d + 1 :] = means[:, None, :] - root_t
    return points, w_mean, w_cov, ok


@functools.lru_cache(maxsize=64)
def _unscented_weights(d: int, spread: UnscentedSpread):
    """(sqrt(d + lambda), mean weights, covariance weights) of the 2d+1
    sigma points, computed once per dimension and spread; the weight
    arrays are read-only because every caller shares them.

    Raises:
        ValueError: spread yields d + lambda <= 0.
    """
    scale, lam = spread.scaling(d)
    if scale <= 0:
        raise ValueError(f"d + lambda = {scale} must be positive")
    w_mean = np.full(2 * d + 1, 1.0 / (2.0 * scale))
    w_mean[0] = lam / scale
    w_cov = w_mean.copy()
    w_cov[0] += 1.0 - spread.alpha**2 + spread.beta
    w_mean.flags.writeable = False
    w_cov.flags.writeable = False
    return np.sqrt(scale), w_mean, w_cov


def draw_sigma_points(
    state: GaussianState, spread: UnscentedSpread = DEFAULT_SPREAD
) -> SigmaPointSet:
    """Draw the 2d+1 scaled symmetric sigma points of a Gaussian.

    The R = 1 case of `_stacked_sigma_points`, with its own copies of the
    shared weights, so a caller may edit them.

    Args:
        state: source density, dimension d >= 1.
        spread: unscented parameters; the default keeps d + lambda = 3.

    Returns:
        SigmaPointSet whose weighted mean/covariance reproduce the input
        moments (exactly in exact arithmetic).

    Raises:
        ValueError: spread yields d + lambda <= 0.
        ConditioningError: covariance cannot be factorized.
    """
    points, w_mean, w_cov, ok = _stacked_sigma_points(
        state.mean[None], state.cov[None], spread
    )
    if not ok[0]:
        raise ConditioningError("Cholesky failed after jitter retry")
    return SigmaPointSet(points[0], w_mean.copy(), w_cov.copy())


def stacked_sl_update(
    means: np.ndarray,
    covs: np.ndarray,
    h,
    noise_mean: np.ndarray,
    noise_cov: np.ndarray,
    spread: UnscentedSpread = DEFAULT_SPREAD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condition R Gaussian priors on h(state, noise) = 0 in one stacked pass.

    Each run's augmented density [prior_r; noise] (the noise density is
    shared by all runs and independent of the state) gets its joint sigma
    points; h maps them to pseudo-measurement values, and the resulting
    cross- and innovation covariances feed a Kalman-style update against
    the constant pseudo-measurement 0.

    Args:
        means: (R, d) prior means.
        covs: (R, d, d) finite, symmetric prior covariances.
        h: callable h(points) -> values, with points of shape (R, n, D)
            laid out [state, noise] per row, and values (R, n) for a scalar
            pseudo-measurement or (R, n, m) for a stacked one.
        noise_mean, noise_cov: the appended noise density, (m0,), (m0, m0).
        spread: unscented parameters for the joint density.

    Returns:
        (means, covs, status): posterior moments, and per run `OK`,
        `DEGENERATE` (innovation covariance below tolerance; the run keeps
        its prior) or `FAILED` (a factorization or the PSD repair failed,
        or a value is not finite; the run keeps its prior values).
    """
    n_runs, d = means.shape
    m0 = len(noise_mean)
    aug_mean = np.empty((n_runs, d + m0))
    aug_mean[:, :d] = means
    aug_mean[:, d:] = noise_mean
    aug_cov = np.zeros((n_runs, d + m0, d + m0))
    aug_cov[:, :d, :d] = covs
    aug_cov[:, d:, d:] = noise_cov
    points, w_m, w_c, ok = _stacked_sigma_points(aug_mean, aug_cov, spread)
    status = np.where(ok, OK, FAILED)

    values = np.asarray(h(points), dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    if values.shape[:2] != points.shape[:2]:
        raise ValueError("h must return one value (or row) per sigma point")

    # Every product keeps the operand layout of a lone update, so each run's
    # posterior is bit-identical to the one it would get alone.
    x_pts = points[:, :, :d]
    mean_h = np.matmul(w_m, values)
    mean_x = np.matmul(w_m, x_pts)
    dh = values - mean_h[:, None, :]
    dx = x_pts - mean_x[:, None, :]
    cov_hh = symmetrize(np.swapaxes(w_c[:, None] * dh, -1, -2) @ dh)
    cov_xh = np.swapaxes(w_c[:, None] * dx, -1, -2) @ dh

    ok &= _finite_rows(cov_hh) & _finite_rows(cov_xh)
    status[~ok] = FAILED
    live = np.flatnonzero(ok)
    if cov_hh.shape[-1] == 1:
        # the eigenvalue of a 1 x 1 matrix is its entry (LAPACK returns it as is)
        smallest = cov_hh[live, 0, 0]
    else:
        smallest = np.linalg.eigvalsh(cov_hh[live])[:, 0]
    degenerate = smallest < INNOVATION_TOL
    status[live[degenerate]] = DEGENERATE
    go = live[~degenerate]

    out_means, out_covs = means.copy(), covs.copy()
    if go.size:
        gain, solved = _stacked_gain(cov_hh[go], cov_xh[go])
        innovation = (0.0 - mean_h[go])[..., None]
        mean_post = means[go] + np.matmul(gain, innovation)[..., 0]
        cov_post, repaired = stacked_psd_repair(
            covs[go] - gain @ cov_hh[go] @ np.swapaxes(gain, -1, -2)
        )
        good = solved & repaired & _finite_rows(mean_post)
        status[go[~good]] = FAILED
        out_means[go[good]] = mean_post[good]
        out_covs[go[good]] = cov_post[good]
    return out_means, out_covs, status


def _stacked_gain(cov_hh: np.ndarray, cov_xh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gains cov_xh cov_hh^{-1} of a stack, and per-run success.

    One stacked solve; if any innovation covariance is singular, each run
    is solved alone and the singular ones are flagged.
    """
    rhs = np.swapaxes(cov_xh, -1, -2)
    ok = np.ones(len(cov_hh), dtype=bool)
    try:
        solved = np.linalg.solve(cov_hh, rhs)
    except np.linalg.LinAlgError:
        solved = np.zeros(rhs.shape)
        for i in range(len(cov_hh)):
            try:
                solved[i] = np.linalg.solve(cov_hh[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    return np.swapaxes(solved, -1, -2), ok


def statistical_linearization_update(
    prior: GaussianState,
    h,
    noise_aug: GaussianState,
    measurement: np.ndarray | None = None,
    spread: UnscentedSpread = DEFAULT_SPREAD,
) -> GaussianState:
    """Condition a Gaussian prior on h(state, noise; measurement) = 0.

    The R = 1 case of `stacked_sl_update`: joint sigma points are drawn
    over the stacked vector [state; noise], propagated through h, and the
    resulting cross- and innovation covariances feed a Kalman-style update
    against the constant pseudo-measurement 0.

    Args:
        prior: state density to be updated.
        noise_aug: density of the stacked noise variables appended to the
            state (measurement noise, scaling variables, ...).
        h: callable h(aug_points, measurement) -> values. aug_points has
            one row per sigma point, laid out [state, noise]; values has
            shape (n_points,) for a scalar pseudo-measurement or
            (n_points, m) for a stacked batch.
        measurement: constant forwarded to h untouched.
        spread: unscented parameters for the joint density.

    Returns:
        Posterior GaussianState; a copy of the prior if the innovation
        covariance is degenerate (the status `stacked_sl_update` reports
        as `DEGENERATE`).

    Raises:
        ConditioningError: a covariance cannot be factorized or repaired,
            or the posterior is not finite.
    """
    means, covs, status = stacked_sl_update(
        prior.mean[None],
        prior.cov[None],
        lambda points: np.asarray(h(points[0], measurement), dtype=float)[None],
        noise_aug.mean,
        noise_aug.cov,
        spread,
    )
    if status[0] == FAILED:
        raise ConditioningError(
            "update failed: covariance not factorizable or repairable, or not finite"
        )
    if status[0] == DEGENERATE:
        return prior.copy()
    return GaussianState(means[0], covs[0])


def stacked_predict(
    means: np.ndarray, covs: np.ndarray, system_matrix: np.ndarray, process_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear time update of R states: mean -> A mean, cov -> A cov A^T + Q.

    Returns (means (R, d), covs (R, d, d), ok (R,)); ok is False where the
    predicted moments are not finite. The flag reports an overflowing
    prediction, so numpy's overflow and invalid-value reports are off here.
    """
    a = np.asarray(system_matrix, dtype=float)
    q = np.asarray(process_noise_cov, dtype=float)
    d = means.shape[1]
    if a.shape != (d, d) or q.shape != (d, d):
        raise ValueError(
            f"system matrix {a.shape} / noise {q.shape} do not match state dim {d}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out_means = np.matmul(a, means[..., None])[..., 0]
        out_covs = symmetrize(a @ covs @ a.T + q)
    return out_means, out_covs, _finite_rows(out_means) & _finite_rows(out_covs)

