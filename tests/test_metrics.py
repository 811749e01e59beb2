import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack import metrics
from shapetrack.ellipse import EllipseParams, clamp_chols, from_semi_axes
from shapetrack.metrics import CONTOUR_SAMPLES, shape_iou, shape_ious, shape_polyline
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
    clamped = clamp_chols(chols)[0]
    got = shape_ious(centers, clamped, truths, resolution=res)
    assert got.shape == (n_pairs,)
    for i in range(n_pairs):
        est = EllipseParams(centers[i], clamped[i])
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


# ---------------------------------------------------------------------------
# Stacked scoring against the per-pair scoring it replaced
#
# The oracle below is the per-pair `shape_iou` that scored every (run, step)
# pair one at a time, kept verbatim apart from the names. `shape_ious` must
# give the same floats for every estimate family against every truth kind.


def _oracle_quad_forms(chols):
    a, b, c = chols.T
    low = np.zeros((len(chols), 2, 2))
    low[:, 0, 0], low[:, 1, 0], low[:, 1, 1] = a, c, b
    return low @ np.swapaxes(low, -1, -2)


def _oracle_ellipse_boxes(centers, quads):
    half = np.sqrt(np.diagonal(np.linalg.inv(quads), axis1=-2, axis2=-1))
    return centers - half, centers + half


def _oracle_boundary(shape, resolution):
    if isinstance(shape, EllipseParams):
        lo, hi = _oracle_ellipse_boxes(shape.center[None], _oracle_quad_forms(shape.chol[None]))
        return lo[0], hi[0], shape
    pts = shape_polyline(shape)
    xy = pts.T.copy()
    lo, hi = xy.min(axis=1), xy.max(axis=1)
    samples = min(CONTOUR_SAMPLES, max(256, 2 * resolution))
    if samples != CONTOUR_SAMPLES and not isinstance(shape, GroundTruthTarget):
        pts = shape_polyline(shape, samples)
    return lo, hi, pts


def _oracle_ellipse_row_cells(centers, quads, ys, xlo, dx, res):
    v = ys - centers[:, 1:2]
    a = quads[:, 0, 0, None]
    b = 2.0 * quads[:, 0, 1, None] * v
    c = quads[:, 1, 1, None] * v * v - 1.0
    disc = b * b - 4.0 * a * c
    rows = disc > 0.0
    root = np.sqrt(np.where(rows, disc, 0.0))
    x0 = centers[:, 0:1] + (-b - root) / (2.0 * a)
    x1 = centers[:, 0:1] + (-b + root) / (2.0 * a)
    xlo, dx = xlo[:, None], dx[:, None]
    i0 = np.clip(np.ceil((x0 - xlo) / dx - 0.5).astype(int), 0, res)
    i1 = np.clip(np.ceil((x1 - xlo) / dx - 0.5).astype(int), 0, res)
    return np.where(rows, i0, 0), np.where(rows, i1, 0)


def _oracle_ellipse_pair_counts(centers_a, chols_a, centers_b, chols_b, res):
    quads_a, quads_b = _oracle_quad_forms(chols_a), _oracle_quad_forms(chols_b)
    lo_a, hi_a = _oracle_ellipse_boxes(centers_a, quads_a)
    lo_b, hi_b = _oracle_ellipse_boxes(centers_b, quads_b)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    span = np.maximum(hi - lo, 1e-12)
    dx, dy = (span / res).T
    ys = lo[:, 1:2] + (np.arange(res) + 0.5) * dy[:, None]
    a0, a1 = _oracle_ellipse_row_cells(centers_a, quads_a, ys, lo[:, 0], dx, res)
    b0, b1 = _oracle_ellipse_row_cells(centers_b, quads_b, ys, lo[:, 0], dx, res)
    inter = np.sum(np.clip(np.minimum(a1, b1) - np.maximum(a0, b0), 0, None), axis=1)
    union = np.sum(a1 - a0, axis=1) + np.sum(b1 - b0, axis=1) - inter
    return inter, union


def _oracle_crossing_keys(boundary, ys, xlo, dx, res):
    if isinstance(boundary, EllipseParams):
        i0, i1 = _oracle_ellipse_row_cells(
            boundary.center[None],
            _oracle_quad_forms(boundary.chol[None]),
            ys[None],
            np.array([xlo]),
            np.array([dx]),
            res,
        )
        i0, i1 = i0[0], i1[0]
        rows = np.flatnonzero(i1 > i0)
        base = rows * (res + 1)
        return np.concatenate([base + i0[rows], base + i1[rows]])
    p0 = boundary
    p1 = np.roll(boundary, -1, axis=0)
    y0, y1 = p0[:, 1], p1[:, 1]
    r0 = np.searchsorted(ys, np.minimum(y0, y1))
    counts = np.searchsorted(ys, np.maximum(y0, y1)) - r0
    edges = np.repeat(np.arange(len(p0)), counts)
    rows = np.arange(edges.size) + np.repeat(r0 - (np.cumsum(counts) - counts), counts)
    frac = (ys[rows] - y0[edges]) / (y1[edges] - y0[edges])
    xs = p0[edges, 0] + frac * (p1[edges, 0] - p0[edges, 0])
    idx = np.clip(np.ceil((xs - xlo) / dx - 0.5).astype(int), 0, res)
    return rows * (res + 1) + idx


def _oracle_sweep_counts(keys_a, keys_b):
    keys = np.concatenate([keys_a, keys_b])
    order = np.argsort(keys, kind="stable")
    state = np.bitwise_xor.accumulate(np.where(order < keys_a.size, 1, 2))[:-1]
    gaps = np.diff(keys[order])
    return int(gaps[state == 3].sum()), int(gaps[state != 0].sum())


def oracle_shape_iou(a, b, resolution=1024):
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    a, b = (
        s.ellipse if isinstance(s, GroundTruthTarget) and s.kind == "ellipse" else s
        for s in (a, b)
    )
    if isinstance(a, EllipseParams) and isinstance(b, EllipseParams):
        inter, union = _oracle_ellipse_pair_counts(
            a.center[None], a.chol[None], b.center[None], b.chol[None], resolution
        )
        inter, union = inter[0], union[0]
    else:
        lo_a, hi_a, a = _oracle_boundary(a, resolution)
        lo_b, hi_b, b = _oracle_boundary(b, resolution)
        lo = np.minimum(lo_a, lo_b)
        hi = np.maximum(hi_a, hi_b)
        span = np.maximum(hi - lo, 1e-12)
        dx, dy = span / resolution
        ys = lo[1] + (np.arange(resolution) + 0.5) * dy
        inter, union = _oracle_sweep_counts(
            _oracle_crossing_keys(a, ys, lo[0], dx, resolution),
            _oracle_crossing_keys(b, ys, lo[0], dx, resolution),
        )
    if union == 0:
        raise ValueError("both regions rasterize to zero area")
    return float(inter / union)


def oracle_scores(centers, params, truths, which, family, res):
    """One oracle call per pair; a zero-union pair scores 0."""
    out = []
    for center, p, k in zip(centers, params, which):
        est = EllipseParams(center, p) if family == "ellipse" else FourierShapeParams(center, p)
        out.append(iou_or_error(oracle_shape_iou, est, truths[k], res))
    return np.array([0.0 if isinstance(v, str) else v for v in out])


def _truth_steps(kind, rng, n_steps):
    """A truth of the given kind, posed anew at each step."""
    if kind == "ellipse":
        base = ellipse_target(from_semi_axes([0.0, 0.0], [2.0, 0.8], 0.3))
    elif kind == "polygon":
        base = load_geometry(builtin_data_path("aircraft.txt"))
    else:
        base = group_target(rng.normal(0.0, 1.5, (9, 2)))
    return [
        base.transformed(rng.uniform(0, 2 * np.pi), rng.normal(0.0, 0.5, 2))
        for _ in range(n_steps)
    ]


def _estimates(family, rng, n, truths, which):
    """Raw filter-like estimates near their truths, clamped as `_score` clamps them."""
    centers = np.array([truths[k].anchor for k in which]) + rng.normal(0.0, 0.7, (n, 2))
    if family == "ellipse":
        chols = rng.uniform(-1.5, 1.5, (n, 3))
        chols[::4, 1] = 1e-9  # collapsed diagonals, clamped to the floor
        chols[1::4, 0] = -0.2  # mirrored sign mode
        return centers, clamp_chols(chols)[0]
    coeffs = rng.normal(0.0, 0.4, (n, 7))
    coeffs[:, 0] = rng.uniform(0.3, 5.0, n)  # sometimes below the harmonics: clamped radii
    return centers, coeffs


def _zero_union_pair(family):
    """An estimate speck and a truth speck in opposite corners of their box:
    neither covers a row centre of the joint grid."""
    truth = polygon_target([[5.0, 5.0], [5.001, 5.0], [5.0, 5.001]])
    if family == "ellipse":
        return np.zeros(2), np.array([1e4, 1e4, 0.0]), truth
    return np.zeros(2), np.r_[2e-4, np.zeros(6)], truth


@pytest.mark.parametrize("res", [256, 1024])
@pytest.mark.parametrize("kind", ["ellipse", "polygon", "group"])
@pytest.mark.parametrize("family", ["ellipse", "star_convex"])
def test_stacked_scores_equal_per_pair_oracle(family, kind, res):
    rng = np.random.default_rng([res, len(kind), len(family)])
    chunk = metrics.ROWS_PER_CALL // res
    n_steps = 5
    truths = _truth_steps(kind, rng, n_steps)
    # mixed steps; the pair count crosses two chunk boundaries
    n = 2 * chunk + 3
    which = rng.integers(0, n_steps, n)
    centers, params = _estimates(family, rng, n, truths, which)
    # the last truth is a speck: its pair has an empty union
    center, param, speck = _zero_union_pair(family)
    truths.append(speck)
    which[chunk] = n_steps
    centers[chunk], params[chunk] = center, param

    got = metrics.shape_ious(centers, params, truths, which, family, res)
    want = oracle_scores(centers, params, truths, which, family, res)
    np.testing.assert_array_equal(got, want)
    assert got[chunk] == 0.0
    assert 0.0 < got.max() <= 1.0
    est = (EllipseParams if family == "ellipse" else FourierShapeParams)(center, param)
    with pytest.raises(ValueError, match="zero area"):
        shape_iou(est, speck, resolution=res)


@pytest.mark.parametrize("family", ["ellipse", "star_convex"])
def test_stacked_scores_mix_truth_kinds(family):
    # one call over ellipse, polygon and group truths at once
    rng = np.random.default_rng(5)
    truths = [t for kind in ("ellipse", "polygon", "group") for t in _truth_steps(kind, rng, 2)]
    n = 40
    which = rng.integers(0, len(truths), n)
    centers, params = _estimates(family, rng, n, truths, which)
    got = metrics.shape_ious(centers, params, truths, which, family, 256)
    np.testing.assert_array_equal(got, oracle_scores(centers, params, truths, which, family, 256))


def test_shape_iou_is_the_one_pair_case():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = random_shape(rng, KINDS[rng.integers(len(KINDS))])
        b = random_shape(rng, KINDS[rng.integers(len(KINDS))])
        for res in (17, 256):
            assert iou_or_error(shape_iou, a, b, res) == iou_or_error(oracle_shape_iou, a, b, res)


def test_group_hull_once_per_distinct_truth(monkeypatch):
    calls = []
    hull = metrics._group_hull

    def counted(members):
        calls.append(len(members))
        return hull(members)

    monkeypatch.setattr(metrics, "_group_hull", counted)
    rng = np.random.default_rng(3)
    groups = _truth_steps("group", rng, 3)
    # the same objects again, as a stationary scenario repeats its target
    truths = groups + groups[::-1]
    which = rng.integers(0, len(truths), 50)
    centers, params = _estimates("ellipse", rng, 50, truths, which)
    metrics.shape_ious(centers, params, truths, which, "ellipse", 256)
    assert len(calls) == 3


def test_shape_ious_validation():
    with pytest.raises(ValueError, match="resolution"):
        metrics.shape_ious(np.zeros((1, 2)), [[1.0, 1.0, 0.0]], [UNIT_CIRCLE], resolution=1)
    with pytest.raises(ValueError, match="family"):
        metrics.shape_ious(np.zeros((1, 2)), [[1.0, 1.0, 0.0]], [UNIT_CIRCLE], family="square")
    with pytest.raises(ValueError, match="one truth and one parameter row per estimate"):
        metrics.shape_ious(np.zeros((2, 2)), np.ones((2, 3)), [UNIT_CIRCLE])
    with pytest.raises(ValueError, match="one truth and one parameter row per estimate"):
        metrics.shape_ious(np.zeros((2, 2)), np.ones((1, 3)), [UNIT_CIRCLE] * 2)
    assert metrics.shape_ious(np.zeros((0, 2)), np.zeros((0, 3)), []).shape == (0,)


def test_flat_group_truths_score_zero():
    # a group whose members span no area has no hull to score against:
    # every pair with it scores 0, as when the per-pair error was caught
    truths = [group_target([[0.0, 0.0]]), group_target([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])]
    rng = np.random.default_rng(8)
    which = np.array([0, 1, 0, 1])
    for family in ("ellipse", "star_convex"):
        centers, params = _estimates(family, rng, 4, truths, which)
        got = metrics.shape_ious(centers, params, truths, which, family, 256)
        np.testing.assert_array_equal(got, np.zeros(4))
        want = oracle_scores(centers, params, truths, which, family, 256)
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="no area"):
        shape_iou(truths[1], UNIT_CIRCLE)


@pytest.mark.parametrize("res", [2, 17, 256, 1024])
def test_row_index_is_searchsorted_on_row_centres(res):
    # the inverse of the grid formula is off by one at ~10% of the values on
    # or next to a row centre; the row index must still be searchsorted's
    rng = np.random.default_rng(res)
    for _ in range(50):
        ylo = rng.normal(0.0, 10 ** rng.uniform(-3, 4))
        dy = 10 ** rng.uniform(-6, 2) / res
        ys = ylo + (np.arange(res) + 0.5) * dy
        y = np.concatenate(
            [ys, np.nextafter(ys, np.inf), np.nextafter(ys, -np.inf),
             [np.nan, np.inf, -np.inf, ylo, ys[-1] + dy]]
        )
        got = metrics._row_index(y, np.full(y.shape, ylo), np.full(y.shape, dy), res)
        np.testing.assert_array_equal(got, np.searchsorted(ys, y))
