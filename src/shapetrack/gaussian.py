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
The update kernels return their outcome as a value, a per-run status
(`OK`, `DEGENERATE`, `FAILED`) or success flag; a Cholesky factorization
that fails even after its jitter retry is flagged, not raised. One
failing run leaves the others untouched. `stacked_predict` returns the
predicted moments only, finite or not: whether a run has failed is
decided by the caller that updates it (`tracker.stacked_step`).
`_sl_posterior` takes the sigma-point weights (`_unscented_weights`) from
its caller, so an owner of many updates builds them once per dimension
(`tracker._Constants`), and a scalar innovation variance is its own
smallest eigenvalue, so a sequential update runs no eigenvalue solver on it.

No kernel copies its inputs, writes to them, or returns an array that
shares memory with them. When every run takes part, a kernel works on the
whole stack as it is: `stacked_psd_repair` clears all finite matrices
with one stacked `cholesky` and a norm bound, and runs `eigvalsh` only on
those it does not clear; `stacked_sl_update` checks every run's
innovation and, when every run is `OK`, returns its posterior arrays
themselves. Only a subset of runs (a non-finite matrix, a `DEGENERATE` or
`FAILED` run) is gathered, and its results are scattered into copies of
the priors. `stacked_sl_update` is the one-update case of two private
pieces: `_sl_posterior` computes an update's posterior up to the PSD
repair, and `_sl_conclude` repairs the posteriors of several updates of
one state dimension in one `stacked_psd_repair` call, as
`tracker.stacked_step` does once per round of updates. `psd_repair`,
`draw_sigma_points` and `statistical_linearization_update` work on one
state: `FAILED` becomes the `ConditioningError` of the single-state API,
and a `DEGENERATE` update returns a copy of the prior.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConditioningError",
    "GaussianState",
    "UnscentedSpread",
    "SigmaPointSet",
    "DEFAULT_SPREAD",
    "symmetrize",
    "psd_repair",
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
    cov = np.asarray(cov)
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def _finite_rows(a: np.ndarray) -> np.ndarray:
    """Per leading index, whether every entry is finite."""
    return np.isfinite(a).all(axis=tuple(range(1, a.ndim)))


def _rows(mask: np.ndarray):
    """The index of the rows where mask holds: the whole slice when it holds
    in every row, so that indexing with it takes a view, not a gathered copy."""
    return slice(None) if mask.all() else mask.nonzero()[0]


def stacked_psd_repair(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`psd_repair` over a stack of covariances (R, d, d).

    A matrix is jittered where `eigvalsh` finds its smallest eigenvalue
    w_min below -PSD_TOL. That eigensolve runs only on the finite matrices
    that one stacked Cholesky factorization does not clear: all of them
    when it fails, else those whose factor's squared norm exceeds
    `_cholesky_norm_bound`. The bound puts the others' w_min at or above
    -PSD_TOL, so the result is that of `eigvalsh` on every finite matrix.

    Returns the repaired stack and a per-matrix flag, False where a matrix
    is not finite or is still indefinite after the jitter.
    """
    sym = symmetrize(np.asarray(covs, dtype=float))
    ok = _finite_rows(sym)
    check = ok.nonzero()[0]  # the rows whose w_min is not known to be >= -PSD_TOL
    try:
        # a non-finite matrix may factorize without an error, so it joins no factorization
        low = np.linalg.cholesky(sym[_rows(ok)])
    except np.linalg.LinAlgError:
        pass
    else:
        check = check[np.einsum("rij,rij->r", low, low) > _cholesky_norm_bound(low.shape[-1])]
    if check.size:
        w_min = np.linalg.eigvalsh(sym[check])[:, 0]
        neg = w_min < -PSD_TOL
        bad = check[neg]
        if bad.size:
            eps = np.abs(w_min[neg]) + JITTER_FLOOR
            sym[bad] = sym[bad] + eps[:, None, None] * np.eye(sym.shape[-1])
            ok[bad] = np.linalg.eigvalsh(sym[bad])[:, 0] >= -PSD_TOL
    return sym, ok


def _cholesky_norm_bound(n: int) -> float:
    """The squared Frobenius norm ||L||_F^2 up to which a Cholesky factor L of
    an n x n symmetric A clears A: PSD_TOL / (gamma_{n+1} + n^2 u), with u
    the unit roundoff and gamma_k = k u / (1 - k u).

    A Cholesky factorization that runs to completion gives L L^T = A + E
    with |E| <= gamma_{n+1} |L| |L^T| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3), so ||E||_2 <= gamma_{n+1}
    ||L||_F^2 and A's smallest eigenvalue is proved to be at least
    -gamma_{n+1} ||L||_F^2. The n^2 u ||L||_F^2 term is an assumed
    allowance, not a proof, for the error of `eigvalsh` itself: LAPACK
    bounds each computed eigenvalue's error by p(n) u ||A||_2 with p(n) "a
    modestly growing function of n" that it does not state (LAPACK Users'
    Guide, 3rd ed., Sec. 4.7), and ||A||_2 <= (1 + gamma_{n+1}) ||L||_F^2,
    so the allowance takes p(n) (1 + gamma_{n+1}) <= n^2. The largest
    ||L||_F^2 of the bundled scenarios is about 146, against a bound of
    about 3.7e4 at n = 15.
    """
    u = 2.0**-53
    return PSD_TOL / ((n + 1) * u / (1 - (n + 1) * u) + n * n * u)


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
    matrix is factorized alone with its jitter retry (`_jittered_cholesky`).
    Deterministic (no randomized pivoting), so repeated runs of a seeded
    simulation factorize identically.
    """
    sym = symmetrize(covs)
    ok = np.ones(len(sym), dtype=bool)
    try:
        return np.linalg.cholesky(sym), ok
    except np.linalg.LinAlgError:
        pass
    roots = np.empty_like(sym)
    for i, cov in enumerate(sym):
        roots[i], ok[i] = _jittered_cholesky(cov)
    return roots, ok


def _jittered_cholesky(sym: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of one symmetric matrix and whether it exists,
    retried once with eps * I added (eps = |smallest eigenvalue, if
    negative| + JITTER_FLOOR); a zero factor when the retry fails too."""
    try:
        return np.linalg.cholesky(sym), True
    except np.linalg.LinAlgError:
        pass
    w_min = float(np.linalg.eigvalsh(sym)[0])
    eps = max(abs(min(w_min, 0.0)) + JITTER_FLOOR, JITTER_FLOOR)
    try:
        return np.linalg.cholesky(sym + eps * np.eye(sym.shape[0])), True
    except np.linalg.LinAlgError:
        return np.zeros_like(sym), False


def _stacked_sigma_points(means: np.ndarray, covs: np.ndarray, root_scale: float):
    """Draw the 2d+1 scaled symmetric sigma points of R Gaussians at once.

    Args:
        means: (R, d) means.
        covs: (R, d, d) finite covariances.
        root_scale: sqrt(d + lambda), from `_unscented_weights`.

    Returns:
        (points (R, 2d+1, d), ok (R,)); ok is False where a covariance
        cannot be factorized, and that run's points all sit at its mean.
    """
    n_runs, d = means.shape
    roots, ok = _stacked_cholesky(covs)
    root_t = (roots * root_scale).swapaxes(-1, -2)
    points = np.empty((n_runs, 2 * d + 1, d))
    points[:, 0] = means
    points[:, 1 : d + 1] = means[:, None, :] + root_t
    points[:, d + 1 :] = means[:, None, :] - root_t
    return points, ok


def _unscented_weights(d: int, spread: UnscentedSpread):
    """(sqrt(d + lambda), mean weights, covariance weights) of the 2d+1
    sigma points of a d-dimensional Gaussian, new arrays.

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
    return np.sqrt(scale), w_mean, w_cov


def draw_sigma_points(
    state: GaussianState, spread: UnscentedSpread = DEFAULT_SPREAD
) -> SigmaPointSet:
    """Draw the 2d+1 scaled symmetric sigma points of a Gaussian.

    The R = 1 case of `_stacked_sigma_points`.

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
    root_scale, w_mean, w_cov = _unscented_weights(state.dim, spread)
    points, ok = _stacked_sigma_points(state.mean[None], state.cov[None], root_scale)
    if not ok[0]:
        raise ConditioningError("Cholesky failed after jitter retry")
    return SigmaPointSet(points[0], w_mean, w_cov)


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
    weights = _unscented_weights(means.shape[1] + len(noise_mean), spread)
    (result,) = _sl_conclude([_sl_posterior(means, covs, h, noise_mean, noise_cov, weights)])
    return result


class _Posterior(NamedTuple):
    """An update's results before the PSD repair of its posterior
    covariances (`_sl_posterior`)."""

    means: np.ndarray  # (R, d) the priors
    covs: np.ndarray  # (R, d, d)
    status: np.ndarray  # (R,) OK where the update goes on
    sel: slice | np.ndarray | None  # the rows whose status is OK (`_rows`), None if none
    mean: np.ndarray  # their posterior means
    cov: np.ndarray  # their posterior covariances, not yet repaired
    solved: np.ndarray  # whether their gain was solved


def _sl_posterior(means, covs, h, noise_mean, noise_cov, weights) -> _Posterior:
    """`stacked_sl_update` up to the PSD repair of its posterior covariances."""
    n_runs, d = means.shape
    m0 = len(noise_mean)
    aug_mean = np.empty((n_runs, d + m0))
    aug_mean[:, :d] = means
    aug_mean[:, d:] = noise_mean
    aug_cov = np.zeros((n_runs, d + m0, d + m0))
    aug_cov[:, :d, :d] = covs
    aug_cov[:, d:, d:] = noise_cov
    root_scale, w_m, w_c = weights
    points, ok = _stacked_sigma_points(aug_mean, aug_cov, root_scale)

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
    cov_hh = symmetrize((w_c[:, None] * dh).swapaxes(-1, -2) @ dh)
    cov_xh = (w_c[:, None] * dx).swapaxes(-1, -2) @ dh

    ok &= _finite_rows(cov_hh) & _finite_rows(cov_xh)
    live = _rows(ok)
    if cov_hh.shape[-1] == 1:
        # the eigenvalue of a 1 x 1 matrix is its entry (LAPACK returns it as is)
        smallest = cov_hh[live, 0, 0]
    else:
        smallest = np.linalg.eigvalsh(cov_hh[live])[:, 0]
    go = ok.copy()
    go[live] = ~(smallest < INNOVATION_TOL)
    status = np.where(go, OK, np.where(ok, DEGENERATE, FAILED))
    if not go.any():
        return _Posterior(means, covs, status, None, means[:0], covs[:0], go[:0])
    sel = _rows(go)
    gain, solved = _stacked_gain(cov_hh[sel], cov_xh[sel])
    mean_post = means[sel] + np.matmul(gain, (0.0 - mean_h[sel])[..., None])[..., 0]
    cov_post = covs[sel] - gain @ cov_hh[sel] @ gain.swapaxes(-1, -2)
    return _Posterior(means, covs, status, sel, mean_post, cov_post, solved)


def _sl_conclude(posteriors) -> list:
    """Each update's (means, covs, status) as `stacked_sl_update` returns
    them, from its `_sl_posterior`. The posterior covariances of all the
    updates, which share d, are repaired in one `stacked_psd_repair`: each
    matrix's repair does not depend on the others in the stack."""
    if len(posteriors) == 1:
        return [_sl_result(posteriors[0], *stacked_psd_repair(posteriors[0].cov))]
    repaired_covs, repaired = stacked_psd_repair(np.concatenate([p.cov for p in posteriors]))
    bounds = list(itertools.accumulate((len(p.cov) for p in posteriors), initial=0))
    return [
        _sl_result(post, repaired_covs[lo:hi], repaired[lo:hi])
        for post, lo, hi in zip(posteriors, bounds, bounds[1:])
    ]


def _sl_result(post: _Posterior, cov_post, repaired):
    """One update's (means, covs, status) from its posterior and the repair
    of its posterior covariances."""
    status, sel = post.status, post.sel
    if sel is None:
        return post.means.copy(), post.covs.copy(), status
    good = post.solved & repaired & _finite_rows(post.mean)
    if isinstance(sel, slice) and good.all():
        return post.mean, cov_post, status  # every run updated; both arrays are new
    status[sel] = np.where(good, OK, FAILED)
    updated = status == OK
    out_means, out_covs = post.means.copy(), post.covs.copy()
    out_means[updated] = post.mean[good]
    out_covs[updated] = cov_post[good]
    return out_means, out_covs, status


def _stacked_gain(cov_hh: np.ndarray, cov_xh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gains cov_xh cov_hh^{-1} of a stack, and per-run success.

    One stacked solve; if any innovation covariance is singular, each run
    is solved alone and the singular ones are flagged.
    """
    rhs = cov_xh.swapaxes(-1, -2)
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
    return solved.swapaxes(-1, -2), ok


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
    means: np.ndarray,
    covs: np.ndarray,
    system_matrix: np.ndarray | None,
    process_noise_cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear time update of R states: mean -> A mean, cov -> A cov A^T + Q.

    A system_matrix of None stands for A = I (a random walk): nothing is
    multiplied, and the moments become `means + 0.0` and `covs + Q`. For
    finite moments and a Q with no -0.0 entry (`tracker._transition` builds
    its Q so), these are the floats of the products with I: each product's
    sum starts from +0.0, so it turns a -0.0 into 0.0, as adding 0.0 does.

    Returns (means (R, d), covs (R, d, d)), new arrays. A run whose
    prediction overflows gets non-finite moments, which is a modelled
    divergence: numpy's overflow and invalid-value reports are off here,
    and the step that follows (`tracker.stacked_step`) marks the run failed.
    """
    d = means.shape[1]
    a = None if system_matrix is None else np.asarray(system_matrix, dtype=float)
    q = np.asarray(process_noise_cov, dtype=float)
    if q.shape != (d, d) or (a is not None and a.shape != (d, d)):
        raise ValueError(
            f"system matrix {(d, d) if a is None else a.shape} / noise {q.shape} "
            f"do not match state dim {d}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        if a is None:
            out_means = means + 0.0
            out_covs = symmetrize(covs + q)
        else:
            out_means = np.matmul(a, means[..., None])[..., 0]
            out_covs = symmetrize(a @ covs @ a.T + q)
    return out_means, out_covs
