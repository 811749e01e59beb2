"""Elliptic extents parameterized by the Cholesky factor of the inverse shape matrix.

An ellipse with center m is written as {z : (z - m)^T L L^T (z - m) = 1}
where L = [[a, 0], [c, b]] is lower triangular with positive diagonal. The
free parameters (a, b, c) enter the state vector directly, which keeps the
shape matrix positive definite by construction and the measurement model
polynomial in the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipseParams",
    "from_semi_axes",
    "clamp_chol",
    "clamp_chols",
    "ellipse_implicit",
    "ellipse_scaled_implicit",
    "ellipse_boundary_point",
    "ellipse_closest_point",
]

CHOL_FLOOR = 1e-6
# boundary angles of the closest-point scan guard
_SCAN_ANGLES = np.linspace(0.0, 2 * np.pi, 16, endpoint=False).tolist()


@dataclass(frozen=True)
class EllipseParams:
    """Ellipse center and Cholesky triple (a, b, c) of the inverse shape matrix."""

    center: np.ndarray
    chol: np.ndarray  # (a, b, c) with L = [[a, 0], [c, b]]

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(2)
        )
        object.__setattr__(self, "chol", np.asarray(self.chol, dtype=float).reshape(3))
        a, b, _ = self.chol
        if not np.all(np.isfinite(self.center)) or not np.all(np.isfinite(self.chol)):
            raise ValueError("ellipse parameters must be finite")
        if a <= 0 or b <= 0:
            raise ValueError(f"diagonal Cholesky entries must be positive, got {a}, {b}")

    @property
    def matrix_l(self) -> np.ndarray:
        a, b, c = self.chol
        return np.array([[a, 0.0], [c, b]])

    @property
    def quad_form(self) -> np.ndarray:
        """L L^T, the inverse of the shape matrix."""
        l = self.matrix_l
        return l @ l.T

    @property
    def inv_l_t(self) -> np.ndarray:
        """L^{-T}, mapping the unit circle onto the boundary."""
        a, b, c = self.chol
        return np.array([[1.0 / a, -c / (a * b)], [0.0, 1.0 / b]])

    @property
    def semi_axes(self) -> np.ndarray:
        """Semi-axis lengths, longest first."""
        w = np.linalg.eigvalsh(self.quad_form)  # ascending
        return 1.0 / np.sqrt(w)

    @property
    def orientation(self) -> float:
        """Angle of the major axis against the x-axis, in (-pi/2, pi/2]."""
        w, v = np.linalg.eigh(self.quad_form)
        major = v[:, 0]  # smallest eigenvalue of L L^T = longest axis
        angle = np.arctan2(major[1], major[0])
        if angle <= -np.pi / 2:
            angle += np.pi
        elif angle > np.pi / 2:
            angle -= np.pi
        return float(angle)

    @property
    def area(self) -> float:
        a, b, _ = self.chol
        return float(np.pi / (a * b))


def from_semi_axes(center, semi_axes, angle: float = 0.0) -> EllipseParams:
    """Build EllipseParams from semi-axis lengths and a rotation angle.

    Args:
        center: ellipse center.
        semi_axes: pair (s1, s2) of semi-axis lengths along the rotated
            x/y directions.
        angle: rotation of the axes against the x-axis, radians.
    """
    s1, s2 = np.asarray(semi_axes, dtype=float)
    if s1 <= 0 or s2 <= 0:
        raise ValueError("semi-axes must be positive")
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    quad = rot @ np.diag([s1**-2, s2**-2]) @ rot.T
    low = np.linalg.cholesky(quad)
    return EllipseParams(center, [low[0, 0], low[1, 1], low[1, 0]])


def clamp_chols(chols, floor: float = CHOL_FLOOR) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize a stack of Cholesky triples that drifted mid-filter.

    The quadratic form L L^T is invariant under b -> -b and under jointly
    flipping the signs of (a, c), so estimators (whose measurement models
    only see L L^T) may settle in a mirrored sign mode. Such triples are
    mapped to the positive-diagonal representative of the same matrix,
    which is exact. Diagonal magnitudes below `floor` describe a genuinely
    degenerate ellipse and are clamped to `floor`.

    Args:
        chols: (N, 3) triples (a, b, c).

    Returns:
        (clamped (N, 3), repaired (N,)); repaired marks the triples where a
        (non-exact) clamp was applied, so callers can count true repairs.
    """
    a, b, c = np.asarray(chols, dtype=float).reshape(-1, 3).T
    flip = a < 0
    a = np.where(flip, -a, a)
    c = np.where(flip, -c, c)
    b = np.where(b < 0, -b, b)
    repaired = (a < floor) | (b < floor)
    a = np.where(a < floor, floor, a)
    b = np.where(b < floor, floor, b)
    return np.stack([a, b, c], axis=1), repaired


def clamp_chol(center, chol, floor: float = CHOL_FLOOR) -> tuple[EllipseParams, bool]:
    """The ellipse of one Cholesky triple, canonicalized by `clamp_chols`.

    Returns the EllipseParams and whether a (non-exact) clamp was applied.
    """
    chols, repaired = clamp_chols(np.asarray(chol, dtype=float).reshape(1, 3), floor)
    return EllipseParams(center, chols[0]), bool(repaired[0])


def ellipse_implicit(p: EllipseParams, z) -> float | np.ndarray:
    """Implicit boundary function (z-m)^T L L^T (z-m) - 1.

    Negative inside, zero on the boundary, positive outside. Accepts a
    single point of shape (2,) or a batch (..., 2).
    """
    w = np.asarray(z, dtype=float) - p.center
    vals = np.einsum("...i,ij,...j->...", w, p.quad_form, w) - 1.0
    return float(vals) if vals.ndim == 0 else vals


def ellipse_scaled_implicit(p: EllipseParams, z, s) -> float | np.ndarray:
    """Implicit function of the boundary shrunk by scale s: quadratic form minus s^2."""
    w = np.asarray(z, dtype=float) - p.center
    vals = np.einsum("...i,ij,...j->...", w, p.quad_form, w) - np.square(s)
    return float(vals) if vals.ndim == 0 else vals


def ellipse_boundary_point(p: EllipseParams, theta) -> np.ndarray:
    """Boundary point m + L^{-T} (cos theta, sin theta)^T; theta may be an array."""
    theta = np.asarray(theta, dtype=float)
    circ = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return p.center + circ @ p.inv_l_t.T


def ellipse_closest_point(p: EllipseParams, query) -> np.ndarray:
    """Point(s) on the ellipse boundary closest to a query (2,) or to k queries (k, 2).

    Damped Newton iteration on the boundary angle minimizing squared
    distance, initialized from the unit-circle pullback of the query. A
    coarse 16-angle scan guards against convergence to a non-global
    critical point; when a scan angle beats Newton's, Newton restarts from
    it. The scan table is built once per call (one ellipse) and each
    query's Newton runs in scalar float arithmetic on the entries of
    L^{-T}. A query at the exact center returns the boundary point at
    angle 0. The result has the shape of `query`.
    """
    q = np.asarray(query, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != 2:
        raise ValueError(f"query must have shape (2,) or (k, 2), got {q.shape}")
    a, b, c = p.chol.tolist()
    cx, cy = p.center.tolist()
    ell = (cx, cy, 1.0 / a, -c / (a * b), 1.0 / b)  # center; L^{-T} = [[m00, m01], [0, m11]]
    scan = [(t, _boundary(ell, t)) for t in _SCAN_ANGLES]
    out = []
    for qx, qy in q.reshape(-1, 2).tolist():
        wx, wy = qx - cx, qy - cy
        theta = 0.0
        if wx != 0.0 or wy != 0.0:
            theta = _newton_angle(ell, qx, qy, math.atan2(b * wy, a * wx + c * wy))
            best, t_best = min(((px - qx) ** 2 + (py - qy) ** 2, t) for t, (px, py) in scan)
            if best < _sqdist(ell, qx, qy, theta) - 1e-12:
                theta = _newton_angle(ell, qx, qy, t_best)
        out.append(_boundary(ell, theta))
    return np.array(out).reshape(q.shape)


def _boundary(ell, theta):
    cx, cy, m00, m01, m11 = ell
    co, si = math.cos(theta), math.sin(theta)
    return cx + (m00 * co + m01 * si), cy + m11 * si


def _sqdist(ell, qx, qy, theta):
    px, py = _boundary(ell, theta)
    return (px - qx) ** 2 + (py - qy) ** 2


def _newton_angle(ell, qx, qy, theta, max_iter=50, res_tol=1e-13):
    """Damped Newton on f(theta) = |m + L^{-T} e(theta) - q|^2.

    Convergence is judged on the normalized first-order condition (the
    residual vector must be orthogonal to the boundary tangent), not on
    the step size.
    """
    cx, cy, m00, m01, m11 = ell
    for _ in range(max_iter):
        co, si = math.cos(theta), math.sin(theta)
        ex, ey = m00 * co + m01 * si, m11 * si  # L^{-T} e, which is -u''
        ux, uy = cx + ex - qx, cy + ey - qy
        dux, duy = m01 * co - m00 * si, m11 * co  # L^{-T} e'
        uu, dd, ud = ux * ux + uy * uy, dux * dux + duy * duy, ux * dux + uy * duy
        denom = math.sqrt(uu * dd)
        if denom < 1e-28 or abs(ud) < res_tol * denom:
            break
        hess = 2.0 * (dd - (ux * ex + uy * ey))
        # walk downhill out of concave stretches
        step = math.copysign(0.1, -ud) if hess <= 0 else -2.0 * ud / hess
        # Accept steps that do not increase f beyond evaluation noise;
        # near the optimum true decreases are smaller than machine eps.
        slack = 1e-14 * (1.0 + uu)
        while abs(step) > 1e-15 and _sqdist(ell, qx, qy, theta + step) > uu + slack:
            step *= 0.5
        theta += step
        if abs(step) < 1e-15:
            break
    return theta
