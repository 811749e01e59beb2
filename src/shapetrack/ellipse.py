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
    "clamp_chols",
    "ellipse_implicit",
    "ellipse_scaled_implicit",
    "ellipse_boundary_point",
    "ellipse_closest_points",
]

CHOL_FLOOR = 1e-6
_ROOT_STEPS, _ROOT_TOL = 64, 1e-15  # step cap and tolerance of the closest-point root


@dataclass(frozen=True)
class EllipseParams:
    """Ellipse center and Cholesky triple (a, b, c) of the inverse shape matrix."""

    center: np.ndarray
    chol: np.ndarray  # (a, b, c) with L = [[a, 0], [c, b]]

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(2))
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
        s0, s1, _ = _principal_frame(*self.chol.tolist())
        return np.array([1.0 / s0, 1.0 / s1])

    @property
    def orientation(self) -> float:
        """Angle of the major axis against the x-axis, in (-pi/2, pi/2]."""
        ux, uy = _principal_frame(*self.chol.tolist())[2]
        return math.atan2(uy, ux) if ux > 0.0 or (ux == 0.0 and uy > 0.0) else math.atan2(-uy, -ux)

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


def clamp_chols(chols) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize a stack of Cholesky triples that drifted mid-filter.

    The quadratic form L L^T is invariant under b -> -b and under jointly
    flipping the signs of (a, c), so estimators (whose measurement models
    only see L L^T) may settle in a mirrored sign mode. Such triples are
    mapped to the positive-diagonal representative of the same matrix,
    which is exact. Diagonal magnitudes below CHOL_FLOOR describe a
    genuinely degenerate ellipse and are clamped to CHOL_FLOOR.

    Args:
        chols: (N, 3) triples (a, b, c).

    Returns:
        (clamped (N, 3), repaired (N,)); repaired marks the triples where a
        (non-exact) clamp was applied, so callers can count true repairs.
    """
    a, b, c = np.asarray(chols, dtype=float).reshape(-1, 3).T
    flip = a < 0
    a, b, c = np.where(flip, -a, a), np.abs(b), np.where(flip, -c, c)
    clamped = np.stack([np.maximum(a, CHOL_FLOOR), np.maximum(b, CHOL_FLOOR), c], axis=1)
    return clamped, (a < CHOL_FLOOR) | (b < CHOL_FLOOR)


def ellipse_implicit(p: EllipseParams, z) -> float | np.ndarray:
    """Implicit boundary function (z-m)^T L L^T (z-m) - 1.

    Negative inside, zero on the boundary, positive outside. Accepts a
    single point of shape (2,) or a batch (..., 2).
    """
    return ellipse_scaled_implicit(p, z, 1.0)


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


def ellipse_closest_points(centers, chols, queries) -> np.ndarray:
    """Boundary points of R ellipses (centers (R, 2), triples (R, 3)) closest
    to their k queries each (R, k, 2), all in one call.

    In the principal frame of L L^T (eigenvalues l0 <= l1), a query y with
    z_i = |y_i| sqrt(l_i) and r0 = l1 / l0 has the closest point
    (r0 y_0 / (u + r0 - 1), y_1 / u), u the root that `_secular_root` finds
    (Eberly, "Distance from a Point to an Ellipse, an Ellipsoid, or a
    Hyperellipsoid", Geometric Tools 2013). On the major axis (z_1 = 0) it
    is the vertex, or inside the evolute the point on the positive minor
    side; at the exact center, the angle-0 point center + (1/a, 0). Queries
    are solved in scalar float arithmetic; an ellipse whose arithmetic
    overflows gets NaN rows.
    """
    queries = np.asarray(queries, dtype=float)
    rows = zip(np.reshape(centers, (-1, 2)).tolist(), np.reshape(chols, (-1, 3)).tolist())
    flat = []
    for ((cx, cy), (a, b, c)), qs in zip(rows, queries.tolist()):
        try:
            flat += _closest_on_ellipse(cx, cy, a, b, c, qs)
        except ArithmeticError:  # an overflow or a division by an underflowed 0
            flat += [(math.nan, math.nan)] * len(qs)
    out = np.array(flat, dtype=float).reshape(queries.shape)
    out[~np.isfinite(out).all(axis=(1, 2))] = np.nan
    return out


def _principal_frame(a, b, c):
    """sqrt(l0), sqrt(l1) for the eigenvalues l0 <= l1 of L L^T and the unit major
    axis, in forms free of cancellation (an axis-aligned ellipse keeps an exact frame)."""
    p, q, s = a * a, a * c, b * b + c * c  # L L^T = [[p, q], [q, s]]
    h = 0.5 * (p - s)
    d = math.hypot(h, q)
    s1 = math.sqrt(0.5 * (p + s) + d)
    vx, vy = (d - h, -q) if h <= 0.0 else (-q, h + d)
    n = math.hypot(vx, vy)
    return a * b / s1, s1, ((vx / n, vy / n) if n > 0.0 else (1.0, 0.0))  # a circle: any


def _closest_on_ellipse(cx, cy, a, b, c, queries) -> list:
    """Closest boundary points of one ellipse to a list of (x, y) queries."""
    s0, s1, (ux, uy) = _principal_frame(a, b, c)
    r0 = max((s1 / s0) * (s1 / s0), 1.0)
    out = []
    for qx, qy in queries:
        wx, wy = qx - cx, qy - cy
        if wx == 0.0 and wy == 0.0:
            out.append((cx + 1.0 / a, cy + 0.0))
            continue
        y0, y1 = ux * wx + uy * wy, ux * wy - uy * wx
        z0, z1 = abs(y0) * s0, abs(y1) * s1
        if z1 != 0.0:
            u = _secular_root(r0 * z0, r0 - 1.0, z1)[0]
            x0, x1 = r0 * y0 / (u + r0 - 1.0), y1 / u
        elif r0 * z0 < r0 - 1.0:  # on the major axis, inside the evolute
            x0 = r0 * y0 / (r0 - 1.0)
            x1 = math.sqrt(max((1.0 - x0 * s0) * (1.0 + x0 * s0), 0.0)) / s1
        else:  # on the major axis, beyond the evolute: the vertex
            x0, x1 = math.copysign(1.0 / s0, y0), 0.0
        out.append((cx + ux * x0 - uy * x1, cy + uy * x0 + ux * x1))
    return out


def _secular_root(g0, alpha, z1):
    """Root u in [z1, hypot(g0, z1)] of (g0 / (u + alpha))^2 + (z1 / u)^2 = 1
    (g0, alpha >= 0, z1 > 0) and the steps taken. The left side to the power
    -1/2 is concave in u, so Newton from z1 climbs to the root without
    overshooting; a step that leaves the bracket bisects it instead."""
    lo, hi, u = z1, math.hypot(g0, z1), z1
    for step in range(1, _ROOT_STEPS + 1):
        t0, t1 = g0 / (u + alpha), z1 / u
        phi = t0 * t0 + t1 * t1
        if abs(phi - 1.0) <= _ROOT_TOL:
            return u, step
        lo, hi = (u, hi) if phi > 1.0 else (lo, u)
        nxt = u + phi * (math.sqrt(phi) - 1.0) / (t0 * t0 / (u + alpha) + t1 * t1 / u)
        nxt = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        if abs(nxt - u) <= _ROOT_TOL * u:
            return nxt, step
        u = nxt
    return u, _ROOT_STEPS
