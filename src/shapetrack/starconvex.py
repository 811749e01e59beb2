"""Star-convex contours described by a truncated Fourier radius function.

The boundary is the set {m + r(phi) (cos phi, sin phi)} where the radius
r(phi) = R(phi) . p is linear in the coefficient vector
p = [a0, a1, b1, ..., aN, bN] with basis
R(phi) = [1/2, cos phi, sin phi, ..., cos N phi, sin N phi]. Linearity in
p is what lets the shape coefficients ride along in a Gaussian state
vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierShapeParams",
    "fourier_basis",
    "radius",
    "sc_implicit",
    "sc_scaled_implicit",
    "sc_boundary_point",
    "angle_point_estimate",
    "radius_validity",
    "fit_fourier_coeffs",
]

VALIDITY_GRID = 3600


@dataclass(frozen=True)
class FourierShapeParams:
    """Center and Fourier radius coefficients of a star-convex contour.

    The coefficient vector has odd length 2 * n_harmonics + 1. Ground
    truth shapes must have positive radius everywhere (see
    `radius_validity`); estimator states may transiently violate this.
    """

    center: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(2)
        )
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=float).reshape(-1)
        )
        if self.coeffs.shape[0] % 2 == 0 or self.coeffs.shape[0] < 1:
            raise ValueError("coefficient vector length must be odd and >= 1")
        if not np.all(np.isfinite(self.center)) or not np.all(np.isfinite(self.coeffs)):
            raise ValueError("shape parameters must be finite")

    @property
    def n_harmonics(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2


def fourier_basis(phi, n_coeffs: int) -> np.ndarray:
    """Evaluate the radius basis [1/2, cos phi, sin phi, cos 2 phi, ...].

    Args:
        phi: angle or array of angles, radians.
        n_coeffs: odd number of coefficients (2 * n_harmonics + 1).

    Returns:
        Array of shape (n_coeffs,) for scalar phi, else (..., n_coeffs).
    """
    if n_coeffs % 2 == 0 or n_coeffs < 1:
        raise ValueError(f"n_coeffs must be odd and >= 1, got {n_coeffs}")
    phi = np.asarray(phi, dtype=float)
    n_harmonics = (n_coeffs - 1) // 2
    out = np.empty(phi.shape + (n_coeffs,))
    out[..., 0] = 0.5
    for j in range(1, n_harmonics + 1):
        out[..., 2 * j - 1] = np.cos(j * phi)
        out[..., 2 * j] = np.sin(j * phi)
    return out


def radius(p: FourierShapeParams, phi) -> float | np.ndarray:
    """Radius of the contour at angle phi (2-pi periodic)."""
    vals = fourier_basis(phi, p.coeffs.shape[0]) @ p.coeffs
    return float(vals) if np.ndim(vals) == 0 else vals


def _offset_angles(p: FourierShapeParams, z) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(z, dtype=float) - p.center
    return np.einsum("...i,...i->...", w, w), np.arctan2(w[..., 1], w[..., 0])


def sc_implicit(p: FourierShapeParams, z) -> float | np.ndarray:
    """Implicit contour function |m - z|^2 - r(angle(z - m))^2.

    Negative inside, zero on the boundary, positive outside (for shapes
    with positive radius). The angle of z = m is taken as 0.
    """
    sq, phi = _offset_angles(p, z)
    vals = sq - np.square(fourier_basis(phi, p.coeffs.shape[0]) @ p.coeffs)
    return float(vals) if np.ndim(vals) == 0 else vals


def sc_scaled_implicit(p: FourierShapeParams, z, s) -> float | np.ndarray:
    """Implicit function of the boundary shrunk by scale s."""
    sq, phi = _offset_angles(p, z)
    vals = sq - np.square(s) * np.square(fourier_basis(phi, p.coeffs.shape[0]) @ p.coeffs)
    return float(vals) if np.ndim(vals) == 0 else vals


def sc_boundary_point(p: FourierShapeParams, phi) -> np.ndarray:
    """Boundary point m + r(phi) (cos phi, sin phi); phi may be an array."""
    phi = np.asarray(phi, dtype=float)
    r = fourier_basis(phi, p.coeffs.shape[0]) @ p.coeffs
    return p.center + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def angle_point_estimate(measurement, center_mean) -> float:
    """Most-likely source angle: direction from the center estimate to the measurement.

    Returns the angle in (-pi, pi]. A measurement exactly at the center
    has no direction, and gets angle 0 by convention.
    """
    w = np.asarray(measurement, dtype=float) - np.asarray(center_mean, dtype=float)
    if w[0] == 0.0 and w[1] == 0.0:
        return 0.0
    angle = float(np.arctan2(w[1], w[0]))
    if angle <= -np.pi:
        angle = np.pi
    return angle


def radius_validity(p: FourierShapeParams, n_grid: int = VALIDITY_GRID) -> bool:
    """Whether the radius stays positive on a dense angular grid."""
    phi = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    return bool(np.min(radius(p, phi)) > 0.0)


def fit_fourier_coeffs(angles, radii, n_coeffs: int) -> np.ndarray:
    """Least-squares Fourier coefficients reproducing sampled radii.

    Used to project arbitrary radius functions (polygon contours, ellipse
    boundaries) onto the truncated basis, e.g. for ground-truth
    comparisons.
    """
    basis = fourier_basis(np.asarray(angles, dtype=float), n_coeffs)
    coeffs, *_ = np.linalg.lstsq(basis, np.asarray(radii, dtype=float), rcond=None)
    return coeffs
