"""Tests for the Cholesky-parameterized ellipse geometry."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack.ellipse import (
    EllipseParams,
    clamp_chol,
    clamp_chols,
    ellipse_boundary_point,
    ellipse_closest_point,
    ellipse_implicit,
    ellipse_scaled_implicit,
    from_semi_axes,
)

UNIT_CIRCLE = EllipseParams([0.0, 0.0], [1.0, 1.0, 0.0])
NARROW = EllipseParams([0.0, 0.0], [2.0, 1.0, 0.0])  # semi-axes 0.5 and 1

_rng = np.random.default_rng(42)
RANDOM_PARAMS = [
    EllipseParams(
        _rng.uniform(-5, 5, size=2),
        [_rng.uniform(0.3, 3), _rng.uniform(0.3, 3), _rng.uniform(-2, 2)],
    )
    for _ in range(8)
]


def boundary_oracle(p, query, n=3600):
    """Distance from query to the closest of n uniformly sampled boundary points."""
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = ellipse_boundary_point(p, theta)
    return np.min(np.linalg.norm(pts - query, axis=1))


# ---------------------------------------------------------------------------
# Parameter container


def test_params_reject_nonpositive_diagonal():
    with pytest.raises(ValueError):
        EllipseParams([0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        EllipseParams([0.0, 0.0], [1.0, -0.5, 0.0])


def test_quad_form_layout():
    p = EllipseParams([0.0, 0.0], [2.0, 3.0, 0.5])
    # L L^T for L = [[a, 0], [c, b]] is [[a^2, a c], [a c, b^2 + c^2]]
    assert_allclose(p.quad_form, [[4.0, 1.0], [1.0, 9.25]])


def test_semi_axes_and_orientation_roundtrip():
    p = from_semi_axes([1.0, -2.0], [2.0, 0.7], angle=0.4)
    assert_allclose(p.semi_axes, [2.0, 0.7], rtol=1e-12)
    assert_allclose(p.orientation, 0.4, atol=1e-12)
    assert_allclose(p.area, np.pi * 2.0 * 0.7, rtol=1e-12)


def test_clamp_chol_canonicalizes_signs_exactly():
    # flipped signs describe the same ellipse; canonicalization negates
    # entries exactly (no repair counted) and so preserves the form
    cases = [
        ([-0.2, 1.0, 0.3], [0.2, 1.0, -0.3]),
        ([0.5, -1.2, 0.4], [0.5, 1.2, 0.4]),
        ([-0.7, -0.9, -0.1], [0.7, 0.9, 0.1]),
    ]
    for chol, expected in cases:
        p, clamped = clamp_chol([0.0, 0.0], chol)
        assert not clamped
        assert np.array_equal(p.chol, expected)
        a, b, c = chol
        direct = np.array([[a * a, a * c], [a * c, b * b + c * c]])
        assert_allclose(p.quad_form, direct, rtol=1e-15, atol=0.0)


def test_clamp_chols_rows_equal_clamp_chol():
    rng = np.random.default_rng(61)
    chols = rng.uniform(-2.0, 2.0, size=(40, 3))
    chols[::7, 1] = 1e-9
    chols[::11, 0] = -0.0
    clamped, repaired = clamp_chols(chols)
    for row, flag, chol in zip(clamped, repaired, chols):
        p, one = clamp_chol([0.0, 0.0], chol)
        assert np.array_equal(row, p.chol) and flag == one


def test_clamp_chol_floors_degenerate_diagonal():
    p, clamped = clamp_chol([0.0, 0.0], [1e-9, 1.0, 0.3])
    assert clamped
    assert p.chol[0] == pytest.approx(1e-6)
    _, untouched = clamp_chol([0.0, 0.0], [1.0, 1.0, 0.0])
    assert not untouched


# ---------------------------------------------------------------------------
# Implicit functions


def test_implicit_unit_circle_values():
    assert ellipse_implicit(UNIT_CIRCLE, [1.0, 0.0]) == pytest.approx(0.0)
    assert ellipse_implicit(UNIT_CIRCLE, [0.0, 0.0]) == pytest.approx(-1.0)
    assert ellipse_implicit(NARROW, [0.5, 0.0]) == pytest.approx(0.0)


def test_scaled_implicit_values():
    assert ellipse_scaled_implicit(UNIT_CIRCLE, [0.5, 0.0], 0.5) == pytest.approx(0.0)
    assert ellipse_scaled_implicit(NARROW, [0.25, 0.0], 0.5) == pytest.approx(0.0)


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_scaled_implicit_reduces_to_implicit_at_s1(p):
    z = p.center + np.array([0.3, -0.7])
    assert ellipse_scaled_implicit(p, z, 1.0) == pytest.approx(
        ellipse_implicit(p, z), abs=1e-14
    )


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_boundary_point_lies_on_boundary(p):
    theta = np.linspace(0.0, 2 * np.pi, 64)
    vals = ellipse_implicit(p, ellipse_boundary_point(p, theta))
    assert np.max(np.abs(vals)) < 1e-12


def test_boundary_point_trivials():
    assert_allclose(ellipse_boundary_point(UNIT_CIRCLE, 0.0), [1.0, 0.0], atol=1e-15)
    assert_allclose(
        ellipse_boundary_point(UNIT_CIRCLE, np.pi / 2), [0.0, 1.0], atol=1e-15
    )
    assert_allclose(ellipse_boundary_point(NARROW, 0.0), [0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("p", RANDOM_PARAMS)
@pytest.mark.parametrize("s", [0.1, 0.5, 1.0])
def test_scaled_boundary_identity(p, s):
    # Points on the boundary shrunk toward the center by s satisfy the
    # scaled implicit function exactly.
    theta = np.linspace(0.0, 2 * np.pi, 32)
    pts = p.center + s * (ellipse_boundary_point(p, theta) - p.center)
    vals = ellipse_scaled_implicit(p, pts, s)
    assert np.max(np.abs(vals)) < 1e-12


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_implicit_sign_trichotomy(p):
    rng = np.random.default_rng(7)
    theta = rng.uniform(0, 2 * np.pi, size=50)
    boundary = ellipse_boundary_point(p, theta)
    inside = p.center + rng.uniform(0.05, 0.95, size=(50, 1)) * (boundary - p.center)
    outside = p.center + rng.uniform(1.05, 3.0, size=(50, 1)) * (boundary - p.center)
    assert np.all(ellipse_implicit(p, inside) < 0)
    assert np.all(ellipse_implicit(p, outside) > 0)


# ---------------------------------------------------------------------------
# Closest point


def test_closest_point_circle_radial():
    assert_allclose(ellipse_closest_point(UNIT_CIRCLE, [2.0, 0.0]), [1.0, 0.0], atol=1e-12)


def test_closest_point_major_axis():
    assert_allclose(ellipse_closest_point(NARROW, [1.0, 0.0]), [0.5, 0.0], atol=1e-12)


def test_closest_point_on_boundary_query():
    # (0.3, 0.8) lies exactly on the boundary of NARROW, so the answer is
    # the query itself and beats a dense boundary sampling.
    query = np.array([0.3, 0.8])
    out = ellipse_closest_point(NARROW, query)
    dist = np.linalg.norm(out - query)
    assert dist <= boundary_oracle(NARROW, query) + 1e-12
    assert_allclose(out, query, atol=1e-8)


def test_closest_point_center_tiebreak():
    p = RANDOM_PARAMS[0]
    assert_allclose(
        ellipse_closest_point(p, p.center), ellipse_boundary_point(p, 0.0), atol=0
    )


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_closest_point_beats_dense_sampling(p):
    rng = np.random.default_rng(hash(tuple(p.chol)) % 2**32)
    for query in p.center + rng.uniform(-4, 4, size=(10, 2)):
        out = ellipse_closest_point(p, query)
        assert abs(ellipse_implicit(p, out)) < 1e-10
        assert np.linalg.norm(out - query) <= boundary_oracle(p, query) + 1e-9


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_closest_point_first_order_optimality(p):
    rng = np.random.default_rng(11)
    for query in p.center + rng.uniform(-4, 4, size=(10, 2)):
        out = ellipse_closest_point(p, query)
        offset = query - out
        if np.linalg.norm(offset) < 1e-9:
            continue  # query on the boundary: optimality is trivial
        normal = p.quad_form @ (out - p.center)
        cosangle = (offset[0] * normal[1] - offset[1] * normal[0]) / (
            np.linalg.norm(offset) * np.linalg.norm(normal)
        )
        assert abs(cosangle) < 1e-10


# ---------------------------------------------------------------------------
# Closest point against the scalar numpy reference


def _oracle_closest_point(p: EllipseParams, query) -> np.ndarray:
    """Scalar numpy closest-point solver kept as the reference implementation."""
    query = np.asarray(query, dtype=float).reshape(2)
    w = query - p.center
    if w[0] == 0.0 and w[1] == 0.0:
        return ellipse_boundary_point(p, 0.0)

    inv_l_t = p.inv_l_t
    pull = p.matrix_l.T @ w
    theta = float(np.arctan2(pull[1], pull[0]))
    theta = _oracle_newton_angle(p.center, inv_l_t, query, theta)

    # Guard: restart from the best of a coarse scan if that beats Newton.
    scan = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    dists = np.sum((ellipse_boundary_point(p, scan) - query) ** 2, axis=1)
    best = float(scan[np.argmin(dists)])
    if np.min(dists) < _oracle_sqdist(p.center, inv_l_t, query, theta) - 1e-12:
        theta = _oracle_newton_angle(p.center, inv_l_t, query, best)

    return ellipse_boundary_point(p, theta)


def _oracle_sqdist(center, inv_l_t, query, theta):
    pt = center + inv_l_t @ np.array([np.cos(theta), np.sin(theta)])
    return float(np.sum((pt - query) ** 2))


def _oracle_newton_angle(center, inv_l_t, query, theta, max_iter=50, res_tol=1e-13):
    """Damped Newton on f(theta) = |m + L^{-T} e(theta) - q|^2.

    Convergence is judged on the normalized first-order condition (the
    residual vector must be orthogonal to the boundary tangent), not on
    the step size.
    """
    for _ in range(max_iter):
        e = np.array([np.cos(theta), np.sin(theta)])
        de = np.array([-e[1], e[0]])
        u = center + inv_l_t @ e - query
        du = inv_l_t @ de
        ddu = -inv_l_t @ e
        denom = np.sqrt((u @ u) * (du @ du))
        if denom < 1e-28 or abs(u @ du) < res_tol * denom:
            break
        grad = 2.0 * (u @ du)
        hess = 2.0 * (du @ du + u @ ddu)
        if hess <= 0:
            step = -np.sign(grad) * 0.1  # walk downhill out of concave stretches
        else:
            step = -grad / hess
        # Accept steps that do not increase f beyond evaluation noise;
        # near the optimum true decreases are smaller than machine eps.
        f0 = float(u @ u)
        slack = 1e-14 * (1.0 + f0)
        while abs(step) > 1e-15 and (
            _oracle_sqdist(center, inv_l_t, query, theta + step) > f0 + slack
        ):
            step *= 0.5
        theta += step
        if abs(step) < 1e-15:
            break
    return theta


def _oracle_cases(seed=2024, n_ellipses=60):
    """Seeded ellipses with aspect ratios up to 1e3 and queries of every kind."""
    rng = np.random.default_rng(seed)
    for _ in range(n_ellipses):
        major = rng.uniform(0.1, 5.0)
        p = from_semi_axes(
            rng.uniform(-10, 10, size=2),
            [major, major / 10 ** rng.uniform(0.0, 3.0)],
            angle=rng.uniform(-np.pi, np.pi),
        )
        theta = rng.uniform(0, 2 * np.pi, size=6)
        boundary = ellipse_boundary_point(p, theta)
        spokes = boundary - p.center
        queries = np.concatenate(
            [
                p.center + rng.uniform(0.0, 0.99, size=(6, 1)) * spokes,  # inside
                p.center + rng.uniform(1.01, 3.0, size=(6, 1)) * spokes,  # outside
                p.center + rng.uniform(50.0, 1e3, size=(6, 1)) * spokes,  # far away
                boundary,  # on the boundary
                p.center[None, :],  # the exact center
            ]
        )
        yield p, queries


def test_closest_point_matches_oracle():
    for p, queries in _oracle_cases():
        for query in queries:
            got = ellipse_closest_point(p, query)
            want = _oracle_closest_point(p, query)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
            # never farther than the reference beyond one rounding of the
            # coordinates (a boundary query's distance is 0 or a few ulps)
            d_got = np.linalg.norm(got - query)
            d_want = np.linalg.norm(want - query)
            assert d_got <= d_want + 1e-15 * (1.0 + np.max(np.abs(query)))


def test_closest_point_stacked_equals_single_calls():
    for p, queries in _oracle_cases(seed=7, n_ellipses=20):
        stacked = ellipse_closest_point(p, queries)
        assert stacked.shape == queries.shape
        singles = np.array([ellipse_closest_point(p, q) for q in queries])
        assert np.array_equal(stacked, singles)


def test_closest_point_scan_restart_matches_oracle():
    # Inside a thin axis-aligned ellipse on its major axis, the pullback
    # start sits exactly on the vertex at angle 0, a critical point that
    # is not the minimum; only the scan restart finds the minor-axis side.
    p = EllipseParams([0.0, 0.0], [1.0 / 3.0, 1.0 / 0.2, 0.0])
    query = np.array([0.4, 0.0])
    first = _oracle_newton_angle(p.center, p.inv_l_t, query, 0.0)
    scan = ellipse_boundary_point(p, np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    assert np.min(np.sum((scan - query) ** 2, axis=1)) < _oracle_sqdist(
        p.center, p.inv_l_t, query, first
    ) - 1e-12
    got = ellipse_closest_point(p, query)
    want = _oracle_closest_point(p, query)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert abs(abs(got[1]) - 0.2) < 0.05  # the minor-axis side, not the vertex


def test_closest_point_rejects_malformed_queries():
    for bad in ([1.0, 2.0, 3.0], np.zeros((2, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(ValueError):
            ellipse_closest_point(UNIT_CIRCLE, bad)
