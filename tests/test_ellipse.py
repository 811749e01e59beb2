"""Tests for the Cholesky-parameterized ellipse geometry."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack import ellipse as ellipse_module
from shapetrack.ellipse import (
    EllipseParams,
    clamp_chols,
    ellipse_boundary_point,
    ellipse_closest_points,
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


def _closest(p, query):
    """`ellipse_closest_points` of one ellipse, for a query (2,) or k queries (k, 2)."""
    q = np.asarray(query, dtype=float)
    out = ellipse_closest_points(p.center[None], p.chol[None], q.reshape(1, -1, 2))
    return out.reshape(q.shape)


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
        (row,), (clamped,) = clamp_chols([chol])
        assert not clamped
        assert np.array_equal(row, expected)
        a, b, c = chol
        direct = np.array([[a * a, a * c], [a * c, b * b + c * c]])
        assert_allclose(EllipseParams([0.0, 0.0], row).quad_form, direct, rtol=1e-15, atol=0.0)


def test_clamp_chols_rows_equal_clamp_chol():
    rng = np.random.default_rng(61)
    chols = rng.uniform(-2.0, 2.0, size=(40, 3))
    chols[::7, 1] = 1e-9
    chols[::11, 0] = -0.0
    clamped, repaired = clamp_chols(chols)
    for row, flag, chol in zip(clamped, repaired, chols):
        (alone,), (one,) = clamp_chols(chol[None])
        assert np.array_equal(row, alone) and flag == one


def test_clamp_chol_floors_degenerate_diagonal():
    (row,), (clamped,) = clamp_chols([[1e-9, 1.0, 0.3]])
    assert clamped
    assert row[0] == pytest.approx(1e-6)
    _, (untouched,) = clamp_chols([[1.0, 1.0, 0.0]])
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
    assert_allclose(_closest(UNIT_CIRCLE, [2.0, 0.0]), [1.0, 0.0], atol=1e-12)


def test_closest_point_major_axis():
    assert_allclose(_closest(NARROW, [1.0, 0.0]), [0.5, 0.0], atol=1e-12)


def test_closest_point_on_boundary_query():
    # (0.3, 0.8) lies exactly on the boundary of NARROW, so the answer is
    # the query itself and beats a dense boundary sampling.
    query = np.array([0.3, 0.8])
    out = _closest(NARROW, query)
    dist = np.linalg.norm(out - query)
    assert dist <= boundary_oracle(NARROW, query) + 1e-12
    assert_allclose(out, query, atol=1e-8)


def test_closest_point_center_tiebreak():
    p = RANDOM_PARAMS[0]
    assert_allclose(
        _closest(p, p.center), ellipse_boundary_point(p, 0.0), atol=0
    )


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_closest_point_beats_dense_sampling(p):
    rng = np.random.default_rng(hash(tuple(p.chol)) % 2**32)
    for query in p.center + rng.uniform(-4, 4, size=(10, 2)):
        out = _closest(p, query)
        assert abs(ellipse_implicit(p, out)) < 1e-10
        assert np.linalg.norm(out - query) <= boundary_oracle(p, query) + 1e-9


@pytest.mark.parametrize("p", RANDOM_PARAMS)
def test_closest_point_first_order_optimality(p):
    rng = np.random.default_rng(11)
    for query in p.center + rng.uniform(-4, 4, size=(10, 2)):
        out = _closest(p, query)
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


def _dense_min_distance(p: EllipseParams, queries, n=4096, rounds=60) -> np.ndarray:
    """Distance from each query (m, 2) to the boundary by brute force.

    A dense sampling of the boundary angle, then a golden-section search in
    the two-sample bracket of every sampled local minimum.
    """
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dist = np.linalg.norm(ellipse_boundary_point(p, theta)[None] - queries[:, None], axis=2)
    local = (dist <= np.roll(dist, 1, axis=1)) & (dist <= np.roll(dist, -1, axis=1))
    rows, cols = np.nonzero(local)
    lo, hi = theta[cols] - 2 * np.pi / n, theta[cols] + 2 * np.pi / n

    def at(t):
        return np.linalg.norm(ellipse_boundary_point(p, t) - queries[rows], axis=1)

    golden = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(rounds):
        left, right = hi - golden * (hi - lo), lo + golden * (hi - lo)
        closer = at(left) < at(right)
        hi, lo = np.where(closer, right, hi), np.where(closer, lo, left)
    best = dist.min(axis=1)
    np.minimum.at(best, rows, at(0.5 * (lo + hi)))
    return best


def test_closest_point_matches_oracle():
    # The oracle's scan guard misses the global minimum at some inside
    # queries; the bracketed root finds it there and agrees elsewhere.
    oracle_misses = 0
    for p, queries in _oracle_cases():
        queries = queries[:-1]  # the exact center follows the angle-0 convention
        truth = _dense_min_distance(p, queries)
        for query, d_true in zip(queries, truth):
            got = _closest(p, query)
            want = _oracle_closest_point(p, query)
            d_got = np.linalg.norm(got - query)
            d_want = np.linalg.norm(want - query)
            # never farther than the oracle beyond one rounding of the
            # coordinates (a boundary query's distance is 0 or a few ulps)
            assert d_got <= d_want + 1e-15 * (1.0 + np.max(np.abs(query)))
            if d_want <= d_true + 1e-12:
                assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(got)))
            else:
                assert d_got < d_want
                oracle_misses += 1
    assert oracle_misses == 30


@pytest.mark.parametrize(
    "center, chol, query, d_oracle, d_true",
    [
        (
            [0.6644843060018201, 0.13327559209175563],
            [0.6101799105043216, 0.9332408444671242, -1.2102987297779657],
            [-0.36753852286959954, -0.24941762642512666],
            0.60615,
            0.53468,
        ),
        (
            [-0.14774070114205423, -0.03738736227845443],
            [0.715526580001417, 0.753417418963187, -0.7632390339337025],
            [-0.19943585004177333, -0.08439002885537616],
            0.84118,
            0.81112,
        ),
        (
            [0.9944016461595149, -0.11289017636773147],
            [0.6958700957743738, 0.702265766055984, -0.13156805337633254],
            [0.7612235815818551, -0.315676831397913],
            1.21956,
            1.21874,
        ),
        (
            [8.72645366797231, 6.979700216479165],
            [0.2934965617469543, 0.6389441321490723, -0.11024119708656559],
            [7.599726092042756, 6.8629129180005],
            1.43972,
            1.42267,
        ),
    ],
)
def test_closest_point_finds_the_minimum_the_oracle_missed(center, chol, query, d_oracle, d_true):
    # inside queries from the bundled ellipse scenarios where Newton kept
    # the farther of two local minima and no scan angle beat it
    p = EllipseParams(center, chol)
    query = np.asarray(query)
    assert np.linalg.norm(_oracle_closest_point(p, query) - query) == pytest.approx(
        d_oracle, abs=1e-5
    )
    d_got = np.linalg.norm(_closest(p, query) - query)
    assert d_got == pytest.approx(d_true, abs=1e-5)
    assert abs(d_got - _dense_min_distance(p, query)[0]) <= 1e-12


def test_closest_point_stacked_equals_single_calls():
    for p, queries in _oracle_cases(seed=7, n_ellipses=20):
        stacked = _closest(p, queries)
        assert stacked.shape == queries.shape
        singles = np.array([_closest(p, q) for q in queries])
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
    got = _closest(p, query)
    want = _oracle_closest_point(p, query)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert abs(abs(got[1]) - 0.2) < 0.05  # the minor-axis side, not the vertex


def test_closest_points_runs_equal_single_ellipse_calls():
    cases = list(_oracle_cases(seed=9, n_ellipses=12))
    centers = np.array([p.center for p, _ in cases])
    chols = np.array([p.chol for p, _ in cases])
    queries = np.stack([q for _, q in cases])
    got = ellipse_closest_points(centers, chols, queries)
    assert got.shape == queries.shape
    for (p, q), row in zip(cases, got):
        assert np.array_equal(row, _closest(p, q))


def test_closest_points_overflowing_run_gets_nan_rows():
    centers = np.zeros((4, 2))
    chols = np.array([[1.0, 0.5, 0.2], [1e200, 1e200, 0.0], [1e-170, 1e-170, 0.0], [2.0, 1.0, -0.3]])
    queries = np.tile([[0.3, -1.2], [2.0, 0.5]], (4, 1, 1))
    got = ellipse_closest_points(centers, chols, queries)
    assert np.isnan(got[1:3]).all()
    for r in (0, 3):
        alone = _closest(EllipseParams(centers[r], chols[r]), queries[r])
        assert np.array_equal(got[r], alone)


def test_closest_point_root_steps_stay_under_the_cap_at_aspect_1e6(monkeypatch):
    steps = []
    root = ellipse_module._secular_root

    def counted(*args):
        u, n = root(*args)
        steps.append(n)
        return u, n

    monkeypatch.setattr(ellipse_module, "_secular_root", counted)
    rng = np.random.default_rng(12)
    for angle in (0.0, 0.3, -1.1):
        p = from_semi_axes([1.0, -2.0], [1.0, 1e-6], angle=angle)
        spokes = ellipse_boundary_point(p, rng.uniform(0, 2 * np.pi, size=40)) - p.center
        scale = np.concatenate([rng.uniform(0.0, 0.999, 20), rng.uniform(1.001, 1e3, 20)])
        queries = p.center + scale[:, None] * spokes
        got = _closest(p, queries)
        # on the boundary |L^T (x - m)| = 1; the implicit function would
        # carry rounding near 1e-4 from the 1e12 entries of L L^T
        radius = np.linalg.norm((got - p.center) @ p.matrix_l, axis=1)
        assert np.max(np.abs(radius - 1.0)) < 1e-8
        d_got = np.linalg.norm(got - queries, axis=1)
        assert np.all(d_got <= _dense_min_distance(p, queries) + 1e-12)
    assert len(steps) == 120
    assert max(steps) < ellipse_module._ROOT_STEPS


def test_closest_point_near_the_major_axis_of_a_rotated_ellipse():
    # 1e-17 off the axis the root sits near its lower bracket end; it must
    # keep full precision there, inside and beyond the evolute
    p = from_semi_axes([0.5, -1.5], [3.0, 0.2], angle=0.7)
    major, minor = np.array([np.cos(0.7), np.sin(0.7)]), np.array([-np.sin(0.7), np.cos(0.7)])
    along = np.array([-4.0, -2.9, -1.0, 0.3, 2.0, 2.95, 5.0])
    queries = np.array(
        [p.center + t * major + off * minor for off in (1e-17, -1e-17) for t in along]
    )
    got = _closest(p, queries)
    assert np.max(np.abs(ellipse_implicit(p, got))) < 1e-12
    d_got = np.linalg.norm(got - queries, axis=1)
    assert np.all(np.abs(d_got - _dense_min_distance(p, queries)) <= 1e-12)
