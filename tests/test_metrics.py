import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack import metrics
from shapetrack.ellipse import EllipseParams, from_semi_axes
from shapetrack.ellipse import clamp_chol, clamp_chols
from shapetrack.metrics import CONTOUR_SAMPLES, ellipse_ious, shape_iou, shape_polyline
from shapetrack.starconvex import FourierShapeParams
from shapetrack.targets import (
    GroundTruthTarget,
    builtin_data_path,
    ellipse_target,
    group_target,
    load_geometry,
    polygon_target,
)

UNIT_CIRCLE = EllipseParams([0.0, 0.0], [1.0, 1.0, 0.0])
SQUARE = polygon_target([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def circle_params(radius, center=(0.0, 0.0)):
    return EllipseParams(center, [1.0 / radius, 1.0 / radius, 0.0])


def fourier_circle(radius, center=(0.0, 0.0), n=7):
    coeffs = np.zeros(n)
    coeffs[0] = 2.0 * radius
    return FourierShapeParams(center, coeffs)


def test_identical_shapes_score_one():
    assert shape_iou(UNIT_CIRCLE, UNIT_CIRCLE) == 1.0
    air = load_geometry(builtin_data_path("aircraft.txt"))
    assert shape_iou(air, air) == 1.0


def test_disjoint_shapes_score_zero():
    far = circle_params(1.0, center=(10.0, 0.0))
    assert shape_iou(UNIT_CIRCLE, far) == 0.0
    far = polygon_target([[10.0, 10.0], [12.0, 10.0], [11.0, 12.0]])
    for shape in (UNIT_CIRCLE, fourier_circle(1.0), SQUARE):
        for res in (17, 256):
            assert shape_iou(shape, far, resolution=res) == 0.0 == dense_iou(shape, far, res)


def test_concentric_circles_area_ratio():
    outer = circle_params(np.sqrt(2.0))
    assert shape_iou(UNIT_CIRCLE, outer) == pytest.approx(0.5, abs=0.005)


def test_symmetry():
    ell = from_semi_axes([0.3, -0.2], [2.0, 0.8], 0.7)
    assert shape_iou(UNIT_CIRCLE, ell) == shape_iou(ell, UNIT_CIRCLE)


def test_fourier_circle_matches_ellipse_circle():
    v = shape_iou(fourier_circle(1.0), UNIT_CIRCLE)
    assert v == pytest.approx(1.0, abs=0.01)


def test_half_overlapping_squares():
    a = polygon_target([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    b = polygon_target([[1.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.0, 2.0]])
    # overlap 2 of union 6
    assert shape_iou(a, b) == pytest.approx(1.0 / 3.0, abs=0.005)


def test_square_inscribed_circle():
    # circle radius 1 inside the 2x2 square: pi/4
    assert shape_iou(SQUARE, UNIT_CIRCLE) == pytest.approx(np.pi / 4.0, abs=0.005)


def test_group_scored_via_hull():
    grp = group_target([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert shape_iou(grp, SQUARE) == pytest.approx(1.0, abs=0.005)


def test_degenerate_group_rejected():
    grp = group_target([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="no area"):
        shape_iou(grp, UNIT_CIRCLE)


def test_negative_fourier_radius_clamped():
    # strongly negative mean radius zone: contour must stay finite and the
    # polyline must not cross to the far side of the center
    coeffs = np.zeros(5)
    coeffs[0] = 1.0  # mean radius 0.5
    coeffs[1] = 1.2  # cos term drives the radius negative near phi=pi
    shape = FourierShapeParams([0.0, 0.0], coeffs)
    poly = shape_polyline(shape)
    r = np.linalg.norm(poly, axis=1)
    assert np.isfinite(poly).all()
    assert r.min() >= 0.0
    v = shape_iou(shape, UNIT_CIRCLE)
    assert 0.0 < v < 1.0


def test_polyline_kinds():
    air = load_geometry(builtin_data_path("aircraft.txt"))
    assert shape_polyline(air).shape == (12, 2)
    assert shape_polyline(ellipse_target(UNIT_CIRCLE), n=64).shape == (64, 2)
    r = np.linalg.norm(shape_polyline(UNIT_CIRCLE, n=128), axis=1)
    assert_allclose(r, 1.0, rtol=1e-12)


def test_polyline_rejects_unknown_type():
    with pytest.raises(TypeError):
        shape_polyline("circle")


def test_resolution_validation():
    with pytest.raises(ValueError):
        shape_iou(UNIT_CIRCLE, UNIT_CIRCLE, resolution=1)


def test_low_resolution_still_close():
    outer = circle_params(np.sqrt(2.0))
    coarse = shape_iou(UNIT_CIRCLE, outer, resolution=256)
    assert coarse == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# Exactness against a dense even-odd raster
#
# The reference below fills a full (res x res) boolean grid per region the
# way shape_iou used to: ellipse rows from the quadratic roots, polylines by
# marking each row's crossing cells and taking the parity of a running sum.
# shape_iou counts the same cells from per-row spans, so the two must agree
# exactly, not approximately.


def _dense_ellipse_mask(ell, ys, xlo, dx, res):
    quad = ell.quad_form
    v = ys - ell.center[1]
    a = quad[0, 0]
    b = 2.0 * quad[0, 1] * v
    c = quad[1, 1] * v * v - 1.0
    disc = b * b - 4.0 * a * c
    i0 = np.zeros(len(ys), dtype=int)
    i1 = np.zeros(len(ys), dtype=int)
    rows = disc > 0.0
    if rows.any():
        root = np.sqrt(disc[rows])
        x0 = ell.center[0] + (-b[rows] - root) / (2.0 * a)
        x1 = ell.center[0] + (-b[rows] + root) / (2.0 * a)
        i0[rows] = np.clip(np.ceil((x0 - xlo) / dx - 0.5).astype(int), 0, res)
        i1[rows] = np.clip(np.ceil((x1 - xlo) / dx - 0.5).astype(int), 0, res)
    cols = np.arange(res)
    return (cols >= i0[:, None]) & (cols < i1[:, None])


def _dense_polyline_mask(poly, ys, xlo, dx, res):
    p0 = poly
    p1 = np.roll(poly, -1, axis=0)
    y0, y1 = p0[:, 1], p1[:, 1]
    crosses = (y0[None, :] <= ys[:, None]) != (y1[None, :] <= ys[:, None])
    rows, edges = np.nonzero(crosses)
    if rows.size == 0:
        return np.zeros((res, res), dtype=bool)
    frac = (ys[rows] - y0[edges]) / (y1[edges] - y0[edges])
    xs = p0[edges, 0] + frac * (p1[edges, 0] - p0[edges, 0])
    idx = np.clip(np.ceil((xs - xlo) / dx - 0.5).astype(int), 0, res)
    marks = np.zeros((res, res + 1), dtype=np.int32)
    np.add.at(marks, (rows, idx), 1)
    return (np.cumsum(marks, axis=1)[:, :res] % 2).astype(bool)


def _dense_bbox(shape):
    if isinstance(shape, EllipseParams):
        half = np.sqrt(np.diag(np.linalg.inv(shape.quad_form)))
        return shape.center - half, shape.center + half
    pts = shape_polyline(shape)
    return pts.min(axis=0), pts.max(axis=0)


def _dense_mask(shape, ys, xlo, dx, res):
    if isinstance(shape, EllipseParams):
        return _dense_ellipse_mask(shape, ys, xlo, dx, res)
    samples = min(CONTOUR_SAMPLES, max(256, 2 * res))
    return _dense_polyline_mask(shape_polyline(shape, samples), ys, xlo, dx, res)


def dense_iou(a, b, res):
    a, b = (s.ellipse if isinstance(s, GroundTruthTarget) and s.kind == "ellipse" else s
            for s in (a, b))
    lo_a, hi_a = _dense_bbox(a)
    lo_b, hi_b = _dense_bbox(b)
    lo = np.minimum(lo_a, lo_b)
    span = np.maximum(np.maximum(hi_a, hi_b) - lo, 1e-12)
    dx, dy = span / res
    ys = lo[1] + (np.arange(res) + 0.5) * dy
    mask_a = _dense_mask(a, ys, lo[0], dx, res)
    mask_b = _dense_mask(b, ys, lo[0], dx, res)
    union = np.count_nonzero(mask_a | mask_b)
    if union == 0:
        raise ValueError("both regions rasterize to zero area")
    return np.count_nonzero(mask_a & mask_b) / union


def random_shape(rng, kind):
    center = rng.normal(0.0, 1.0, 2)
    if kind == "ellipse":
        return from_semi_axes(center, rng.uniform(0.2, 2.0, 2), rng.uniform(0, np.pi))
    if kind == "ellipse_target":
        return ellipse_target(random_shape(rng, "ellipse"))
    if kind == "fourier":
        coeffs = rng.normal(0.0, 0.3, 2 * int(rng.integers(0, 6)) + 1)
        coeffs[0] = rng.uniform(0.5, 3.0)  # sometimes below the harmonics: clamped radii
        return FourierShapeParams(center, coeffs)
    if kind == "polygon":
        while True:
            n = int(rng.integers(3, 14))
            phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            r = rng.uniform(0.3, 2.0, n)
            try:
                return polygon_target(center + r[:, None] * np.c_[np.cos(phi), np.sin(phi)])
            except ValueError:
                continue
    if kind == "group":
        return group_target(center + rng.normal(0.0, 1.0, (int(rng.integers(3, 9)), 2)))
    raise AssertionError(kind)


KINDS = ("ellipse", "ellipse_target", "fourier", "polygon", "group")


def iou_or_error(fn, a, b, res):
    try:
        return fn(a, b, res)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("res,n_pairs", [(2, 150), (3, 150), (17, 150), (256, 60), (1024, 12)])
def test_span_counts_match_dense_raster(res, n_pairs):
    rng = np.random.default_rng(20260817 + res)
    for _ in range(n_pairs):
        a = random_shape(rng, KINDS[rng.integers(len(KINDS))])
        b = random_shape(rng, KINDS[rng.integers(len(KINDS))])
        # on coarse grids both may miss every cell centre and raise alike
        assert iou_or_error(shape_iou, a, b, res) == iou_or_error(dense_iou, a, b, res)


@pytest.mark.parametrize("res", [2, 3, 4, 8, 17, 256])
def test_span_edge_cases_match_dense_raster(res):
    # grid-aligned shapes in a 0..4 box: horizontal edges, vertices and a V
    # vertex on row centres (y = 1.5 and 2.5 at res 4), and rightmost
    # crossings clipped to index res
    rect = polygon_target([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    house = polygon_target([[0.0, 0.0], [4.0, 0.0], [4.0, 1.5], [2.0, 4.0], [0.0, 1.5]])
    notch = polygon_target([[0.0, 0.0], [2.0, 1.5], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    steps = polygon_target(
        [[0.0, 0.0], [4.0, 0.0], [4.0, 2.5], [3.0, 2.5], [3.0, 4.0], [1.0, 4.0],
         [1.0, 2.5], [0.0, 2.5]]
    )
    clamped = FourierShapeParams([2.0, 2.0], [1.0, 1.2, 0.0, 0.3, -0.4])
    shapes = [rect, house, notch, steps, clamped, circle_params(2.0, (2.0, 2.0)),
              fourier_circle(1.5, (2.5, 1.5))]
    for a in shapes:
        for b in shapes:
            assert shape_iou(a, b, resolution=res) == dense_iou(a, b, res)


def test_zero_union_still_raises():
    collapsed = FourierShapeParams([0.0, 0.0], [-1.0, 0.0, 0.0])  # radius clamped to 0
    with pytest.raises(ValueError, match="zero area"):
        shape_iou(collapsed, collapsed)
    # tiny shapes in opposite corners of the joint box miss every row centre
    speck = polygon_target([[0.0, 0.0], [1e-3, 0.0], [0.0, 1e-3]])
    dot = fourier_circle(1e-4, (5.0, 5.0))
    with pytest.raises(ValueError, match="zero area"):
        shape_iou(speck, dot, resolution=17)
    with pytest.raises(ValueError, match="zero area"):
        dense_iou(speck, dot, 17)


@pytest.mark.parametrize("n_pairs", [1, 16, 17])
@pytest.mark.parametrize("res", [17, 256])
def test_stacked_ellipse_ious_equal_shape_iou(n_pairs, res):
    rng = np.random.default_rng(700 + n_pairs + res)
    centers = rng.uniform(-1.0, 1.0, size=(n_pairs, 2))
    # raw filter triples: mirrored signs and collapsed diagonals get clamped
    chols = rng.uniform(-2.0, 2.0, size=(n_pairs, 3))
    chols[::5, 0] = 1e-9
    truths = [
        from_semi_axes(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.3, 2.0, 2), rng.uniform(0, np.pi))
        for _ in range(n_pairs)
    ]
    # one pair in the middle: two specks in opposite corners of their box cover no cell
    z = n_pairs // 2
    centers[z] = [0.0, 0.0]
    chols[z] = [1e4, 1e4, 0.0]
    truths[z] = circle_params(1e-4, (5.0, 5.0))
    got = ellipse_ious(centers, clamp_chols(chols)[0], truths, resolution=res)
    assert got.shape == (n_pairs,)
    for i in range(n_pairs):
        est, _ = clamp_chol(centers[i], chols[i])
        if i == z:
            with pytest.raises(ValueError, match="zero area"):
                shape_iou(est, truths[i], resolution=res)
            assert got[i] == 0.0
        else:
            assert got[i] == shape_iou(est, truths[i], resolution=res)
            assert got[i] == shape_iou(est, ellipse_target(truths[i]), resolution=res)


def test_cached_trace_arrays_are_read_only():
    phi, e = metrics._directions(64)
    basis = metrics._radius_basis(64, 5)
    for arr in (phi, e, basis):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("shape", [fourier_circle(1.0), UNIT_CIRCLE, SQUARE])
def test_mutating_polyline_leaves_later_results_alone(shape):
    poly = shape_polyline(shape)
    before = poly.copy()
    iou = shape_iou(shape, UNIT_CIRCLE, resolution=256)
    poly[:] = 7.0
    assert_allclose(shape_polyline(shape), before, rtol=0, atol=0)
    assert shape_iou(shape, UNIT_CIRCLE, resolution=256) == iou
