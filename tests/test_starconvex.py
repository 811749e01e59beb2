"""Tests for the Fourier star-convex shape representation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack.ellipse import EllipseParams, ellipse_boundary_point
from shapetrack.starconvex import (
    FourierShapeParams,
    angle_point_estimate,
    fit_fourier_coeffs,
    fourier_basis,
    radius,
    radius_validity,
    sc_boundary_point,
    sc_implicit,
    sc_scaled_implicit,
)


def circle(radius_value, center=(0.0, 0.0), n_coeffs=15):
    coeffs = np.zeros(n_coeffs)
    coeffs[0] = 2.0 * radius_value
    return FourierShapeParams(center, coeffs)


_rng = np.random.default_rng(314)
RANDOM_SHAPES = []
for _ in range(6):
    coeffs = np.zeros(11)
    coeffs[0] = _rng.uniform(2.0, 5.0)
    coeffs[1:] = _rng.normal(0, 0.1, size=10)  # small harmonics keep r > 0
    RANDOM_SHAPES.append(FourierShapeParams(_rng.uniform(-3, 3, size=2), coeffs))


# ---------------------------------------------------------------------------
# Basis and radius


def test_basis_values():
    assert_allclose(fourier_basis(0.0, 5), [0.5, 1, 0, 1, 0], atol=1e-15)
    assert_allclose(fourier_basis(np.pi / 2, 5), [0.5, 0, 1, -1, 0], atol=1e-15)
    assert_allclose(
        fourier_basis(np.pi / 4, 3), [0.5, np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15
    )


def test_basis_rejects_even_length():
    with pytest.raises(ValueError):
        fourier_basis(0.0, 4)


def test_params_reject_even_length():
    with pytest.raises(ValueError):
        FourierShapeParams([0.0, 0.0], [1.0, 0.0])


def test_constant_coefficient_gives_circle():
    p = circle(1.5)
    phi = np.linspace(0, 2 * np.pi, 100)
    assert_allclose(radius(p, phi), 1.5, rtol=0, atol=1e-14)


def test_radius_single_harmonic():
    p = FourierShapeParams([0.0, 0.0], [2.0, 1.0, 0.0])
    assert radius(p, 0.0) == pytest.approx(2.0)


def test_radius_periodicity():
    rng = np.random.default_rng(5)
    p = RANDOM_SHAPES[0]
    phi = rng.uniform(-10, 10, size=50)
    assert_allclose(radius(p, phi + 2 * np.pi), radius(p, phi), atol=1e-12)


def test_single_coefficient_basis():
    p = FourierShapeParams([0.0, 0.0], [4.0])
    phi = np.linspace(0, 2 * np.pi, 17)
    assert_allclose(radius(p, phi), 2.0, atol=0)


# ---------------------------------------------------------------------------
# Implicit functions


def test_implicit_circle_values():
    p = circle(1.5)
    assert sc_implicit(p, [1.5, 0.0]) == pytest.approx(0.0)
    assert sc_implicit(p, [0.0, 0.0]) == pytest.approx(-2.25)
    assert sc_implicit(p, [3.0, 0.0]) == pytest.approx(6.75)


def test_scaled_implicit_circle_values():
    p = circle(1.5)
    assert sc_scaled_implicit(p, [0.75, 0.0], 0.5) == pytest.approx(0.0)
    assert sc_scaled_implicit(p, [1.5, 0.0], 0.5) == pytest.approx(1.6875)


@pytest.mark.parametrize("p", RANDOM_SHAPES)
def test_scaled_implicit_reduces_at_s1(p):
    z = p.center + np.array([0.4, 1.1])
    assert sc_scaled_implicit(p, z, 1.0) == pytest.approx(sc_implicit(p, z), abs=1e-12)


@pytest.mark.parametrize("p", RANDOM_SHAPES)
def test_boundary_point_on_implicit_zero_set(p):
    phi = np.linspace(-np.pi, np.pi, 73)
    pts = sc_boundary_point(p, phi)
    assert np.max(np.abs(sc_implicit(p, pts))) < 1e-10


@pytest.mark.parametrize("p", RANDOM_SHAPES)
@pytest.mark.parametrize("s", [0.2, 0.6, 1.0])
def test_scaled_boundary_identity(p, s):
    phi = np.linspace(0, 2 * np.pi, 41)
    pts = p.center + s * (sc_boundary_point(p, phi) - p.center)
    assert np.max(np.abs(sc_scaled_implicit(p, pts, s))) < 1e-10


def test_implicit_batch_matches_scalar():
    p = RANDOM_SHAPES[1]
    pts = np.array([[0.1, 0.2], [3.0, -1.0], [-2.0, 2.5]]) + p.center
    batch = sc_implicit(p, pts)
    singles = [sc_implicit(p, z) for z in pts]
    assert_allclose(batch, singles, atol=1e-14)


# ---------------------------------------------------------------------------
# Angle estimate


def test_angle_estimate_values():
    assert angle_point_estimate([1.0, 1.0], [0.0, 0.0]) == pytest.approx(np.pi / 4)
    assert angle_point_estimate([-1.0, 0.0], [0.0, 0.0]) == pytest.approx(np.pi)
    assert angle_point_estimate([2.0, 3.0], [2.0, 2.0]) == pytest.approx(np.pi / 2)


def test_angle_estimate_range_half_open():
    angle = angle_point_estimate([-1.0, -0.0], [0.0, 0.0])
    assert angle == pytest.approx(np.pi)
    assert -np.pi < angle <= np.pi


def test_angle_estimate_degenerate():
    # a measurement on the center has no direction: angle 0 by convention,
    # also for the offset (-0, -0), whose arctan2 is -pi
    assert angle_point_estimate([1.0, 2.0], [1.0, 2.0]) == 0.0
    angle = angle_point_estimate([-0.0, -0.0], [0.0, 0.0])
    assert angle == 0.0 and not np.signbit(angle)


# ---------------------------------------------------------------------------
# Validity and projection


def test_radius_validity():
    assert radius_validity(circle(1.0))
    bad = FourierShapeParams([0.0, 0.0], [0.5, 1.0, 0.0])  # r(pi) = 0.25 - 1 < 0
    assert not radius_validity(bad)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ellipse_projects_onto_fifteen_coefficients(seed):
    # Radius functions of ellipses are well inside the truncated basis:
    # resampling and a 15-coefficient least-squares fit reproduce the
    # radius to better than 1% of its mean. Fourier decay slows with
    # eccentricity; the 1% bound holds up to roughly 2:1 aspect ratio,
    # which covers every elliptic target the estimators face here.
    from shapetrack.ellipse import from_semi_axes

    rng = np.random.default_rng(80 + seed)
    major = rng.uniform(0.8, 2.4)
    ell = from_semi_axes(
        [0.0, 0.0],
        [major, major / rng.uniform(1.0, 2.0)],
        angle=rng.uniform(0, np.pi),
    )
    phi = np.linspace(0, 2 * np.pi, 3600, endpoint=False)
    boundary = ellipse_boundary_point(ell, phi)
    offsets = boundary - ell.center
    angles = np.arctan2(offsets[:, 1], offsets[:, 0])
    radii = np.linalg.norm(offsets, axis=1)
    coeffs = fit_fourier_coeffs(angles, radii, 15)
    fitted = fourier_basis(angles, 15) @ coeffs
    assert np.max(np.abs(fitted - radii)) < 0.01 * np.mean(radii)
