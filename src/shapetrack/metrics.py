"""Shape-overlap scoring between estimates and ground truth.

shape_iou scores both regions on a shared grid of row-centre scanlines
spanning their joint bounding box, without building the grid. Each region
yields the cell indices where its boundary crosses each row: ellipses from
the exact quadratic roots; polygons, Fourier contours and group hulls from
their boundary polyline under a half-open crossing rule, which keeps every
row's count even. Cell ``i`` of a row is inside a region when an odd number
of its crossings lie at or before ``i`` (even-odd fill), so non-convex
star-shaped regions with several spans per row come out right. Both
regions' crossings are swept together in one sorted pass, which counts the
union and the intersection cells at O(rows + crossings log crossings) per
call.

Two ellipses have one span per row each, so their counts come from a
per-row min/max of the quadratic roots instead of the sweep.
`ellipse_ious` counts many ellipse pairs at once, PAIRS_PER_CALL per
stacked call, and the ellipse/ellipse case of `shape_iou` is its
one-pair case.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ellipse import EllipseParams
from .starconvex import FourierShapeParams, fourier_basis
from .targets import GroundTruthTarget

__all__ = ["shape_iou", "ellipse_ious", "shape_polyline", "DEFAULT_RESOLUTION"]

DEFAULT_RESOLUTION = 1024
CONTOUR_SAMPLES = 2048
# Ellipse pairs per stacked count: bounds the (pairs x resolution) row arrays.
PAIRS_PER_CALL = 16


def _group_hull(members: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull, QhullError  # loaded only for point groups

    try:
        hull = ConvexHull(members)
    except QhullError as err:
        raise ValueError(
            "point group spans no area; overlap scoring needs at least "
            "three non-collinear members"
        ) from err
    return members[hull.vertices]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample angles and unit directions of an n-point boundary trace."""
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return _read_only(phi), _read_only(e)


@lru_cache(maxsize=16)
def _radius_basis(n: int, n_coeffs: int) -> np.ndarray:
    return _read_only(fourier_basis(_directions(n)[0], n_coeffs))


def shape_polyline(shape, n: int = CONTOUR_SAMPLES) -> np.ndarray:
    """Closed boundary polyline (last vertex != first; edges wrap around).

    Accepts EllipseParams, FourierShapeParams, or a GroundTruthTarget.
    Polygons return their own vertices; point groups their convex hull.
    Negative Fourier radii are clamped to zero.
    """
    if isinstance(shape, GroundTruthTarget):
        if shape.kind == "polygon":
            return shape.vertices.copy()
        if shape.kind == "point_group":
            return _group_hull(shape.members)
        shape = shape.ellipse
    if isinstance(shape, EllipseParams):
        e = _directions(n)[1]
        quad = np.einsum("ni,ij,nj->n", e, shape.quad_form, e)
        return shape.center + e / np.sqrt(quad)[:, None]
    if isinstance(shape, FourierShapeParams):
        e = _directions(n)[1]
        r = np.clip(_radius_basis(n, shape.coeffs.shape[0]) @ shape.coeffs, 0.0, None)
        return shape.center + r[:, None] * e
    raise TypeError(f"cannot trace a boundary for {type(shape).__name__}")


def _quad_forms(chols: np.ndarray) -> np.ndarray:
    """L L^T of each Cholesky triple (N, 3), as `EllipseParams.quad_form` computes it."""
    a, b, c = chols.T
    low = np.zeros((len(chols), 2, 2))
    low[:, 0, 0], low[:, 1, 0], low[:, 1, 1] = a, c, b
    return low @ np.swapaxes(low, -1, -2)


def _ellipse_boxes(centers: np.ndarray, quads: np.ndarray):
    """Bounding boxes (lo, hi), each (N, 2): the extremes of w^T Q w = 1 are sqrt(diag(Q^-1))."""
    half = np.sqrt(np.diagonal(np.linalg.inv(quads), axis1=-2, axis2=-1))
    return centers - half, centers + half


def _boundary(shape, resolution: int):
    """Bounding box and scoring boundary of one region.

    Returns (lo, hi, boundary) where boundary is the EllipseParams itself
    or a closed polyline. The box of a traced region comes from a
    CONTOUR_SAMPLES trace; the scoring trace is coarser on coarse grids,
    since boundary sampling finer than the grid adds nothing, and is
    shared with the box trace otherwise.
    """
    if isinstance(shape, EllipseParams):
        lo, hi = _ellipse_boxes(shape.center[None], _quad_forms(shape.chol[None]))
        return lo[0], hi[0], shape
    pts = shape_polyline(shape)
    # contiguous rows reduce ~10x faster than axis 0 of an (n, 2) array
    xy = pts.T.copy()
    lo, hi = xy.min(axis=1), xy.max(axis=1)
    samples = min(CONTOUR_SAMPLES, max(256, 2 * resolution))
    if samples != CONTOUR_SAMPLES and not isinstance(shape, GroundTruthTarget):
        pts = shape_polyline(shape, samples)
    return lo, hi, pts


def _ellipse_row_cells(centers, quads, ys, xlo, dx, res):
    """Per ellipse and row, the filled cell range [i0, i1) from the exact
    quadratic roots of Q00 u^2 + 2 Q01 u v + Q11 v^2 = 1.

    centers (N, 2), quads (N, 2, 2), ys (N, rows), xlo and dx (N,); returns
    i0, i1 of shape (N, rows), both 0 on rows the ellipse misses.
    """
    v = ys - centers[:, 1:2]
    a = quads[:, 0, 0, None]
    b = 2.0 * quads[:, 0, 1, None] * v
    c = quads[:, 1, 1, None] * v * v - 1.0
    disc = b * b - 4.0 * a * c
    rows = disc > 0.0
    root = np.sqrt(np.where(rows, disc, 0.0))
    x0 = centers[:, 0:1] + (-b - root) / (2.0 * a)
    x1 = centers[:, 0:1] + (-b + root) / (2.0 * a)
    # first cell center at or beyond each crossing
    xlo, dx = xlo[:, None], dx[:, None]
    i0 = np.clip(np.ceil((x0 - xlo) / dx - 0.5).astype(int), 0, res)
    i1 = np.clip(np.ceil((x1 - xlo) / dx - 0.5).astype(int), 0, res)
    return np.where(rows, i0, 0), np.where(rows, i1, 0)


def _ellipse_pair_counts(centers_a, chols_a, centers_b, chols_b, res):
    """(intersection, union) cell counts of N ellipse pairs, each on the grid
    over its own joint bounding box."""
    quads_a, quads_b = _quad_forms(chols_a), _quad_forms(chols_b)
    lo_a, hi_a = _ellipse_boxes(centers_a, quads_a)
    lo_b, hi_b = _ellipse_boxes(centers_b, quads_b)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    span = np.maximum(hi - lo, 1e-12)
    dx, dy = (span / res).T
    ys = lo[:, 1:2] + (np.arange(res) + 0.5) * dy[:, None]
    a0, a1 = _ellipse_row_cells(centers_a, quads_a, ys, lo[:, 0], dx, res)
    b0, b1 = _ellipse_row_cells(centers_b, quads_b, ys, lo[:, 0], dx, res)
    inter = np.sum(np.clip(np.minimum(a1, b1) - np.maximum(a0, b0), 0, None), axis=1)
    union = np.sum(a1 - a0, axis=1) + np.sum(b1 - b0, axis=1) - inter
    return inter, union


def ellipse_ious(centers, chols, truths, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """IoU of N ellipse estimates against N ellipses, pair by pair.

    Each pair is scored exactly as `shape_iou` scores it, and the pairs
    are counted PAIRS_PER_CALL at a time.

    Args:
        centers: (N, 2) estimate centers.
        chols: (N, 3) estimate Cholesky triples with positive diagonals,
            as `clamp_chols` returns them.
        truths: N EllipseParams, the second region of each pair.
        resolution: cells per axis of each pair's grid.

    Returns:
        (N,) IoUs in [0, 1]; a pair that covers no grid cell scores 0.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    chols = np.asarray(chols, dtype=float).reshape(-1, 3)
    truth_centers = np.array([t.center for t in truths]).reshape(-1, 2)
    truth_chols = np.array([t.chol for t in truths]).reshape(-1, 3)
    out = np.zeros(len(centers))
    for at in range(0, len(out), PAIRS_PER_CALL):
        part = slice(at, at + PAIRS_PER_CALL)
        inter, union = _ellipse_pair_counts(
            centers[part], chols[part], truth_centers[part], truth_chols[part], resolution
        )
        out[part] = np.divide(inter, union, out=np.zeros(len(inter)), where=union > 0)
    return out


def _crossing_keys(boundary, ys, xlo, dx, res) -> np.ndarray:
    """Flat keys row * (res + 1) + idx of every boundary crossing, where
    idx in [0, res] is the first cell centre at or beyond the crossing."""
    if isinstance(boundary, EllipseParams):
        i0, i1 = _ellipse_row_cells(
            boundary.center[None],
            _quad_forms(boundary.chol[None]),
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
    # half-open crossing rule keeps the parity even at shared vertices:
    # an edge crosses the rows whose centre lies in [min(y0, y1), max(y0, y1))
    r0 = np.searchsorted(ys, np.minimum(y0, y1))
    counts = np.searchsorted(ys, np.maximum(y0, y1)) - r0
    edges = np.repeat(np.arange(len(p0)), counts)
    rows = np.arange(edges.size) + np.repeat(r0 - (np.cumsum(counts) - counts), counts)
    frac = (ys[rows] - y0[edges]) / (y1[edges] - y0[edges])
    xs = p0[edges, 0] + frac * (p1[edges, 0] - p0[edges, 0])
    idx = np.clip(np.ceil((xs - xlo) / dx - 0.5).astype(int), 0, res)
    return rows * (res + 1) + idx


def _sweep_counts(keys_a: np.ndarray, keys_b: np.ndarray) -> tuple[int, int]:
    """(intersection, union) cell counts of two even-odd filled key sets.

    Sweeping the merged sorted keys, the running parity of each set's keys
    says whether the cells up to the next key are inside that region.
    Every row holds an even number of each set's keys, so both parities
    are back to zero at each row end.
    """
    keys = np.concatenate([keys_a, keys_b])
    # tied keys may come in any order (their gap is 0); the stable sort is
    # chosen for speed, as it merges the keys' partly sorted runs
    order = np.argsort(keys, kind="stable")
    # bit 0 toggles on a's keys, bit 1 on b's
    state = np.bitwise_xor.accumulate(np.where(order < keys_a.size, 1, 2))[:-1]
    gaps = np.diff(keys[order])
    return int(gaps[state == 3].sum()), int(gaps[state != 0].sum())


def shape_iou(a, b, resolution: int = DEFAULT_RESOLUTION) -> float:
    """Intersection-over-union of two regions on a shared raster grid.

    Args:
        a, b: EllipseParams, FourierShapeParams, or GroundTruthTarget.
        resolution: cells per axis of the grid over the joint bounding box.

    Returns:
        |a & b| / |a | b| as a float in [0, 1].

    Raises:
        ValueError: if neither region covers any grid cell.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    a, b = (
        s.ellipse if isinstance(s, GroundTruthTarget) and s.kind == "ellipse" else s
        for s in (a, b)
    )
    if isinstance(a, EllipseParams) and isinstance(b, EllipseParams):
        # one span per row each: a per-row min/max is cheaper than the sweep
        inter, union = _ellipse_pair_counts(
            a.center[None], a.chol[None], b.center[None], b.chol[None], resolution
        )
        inter, union = inter[0], union[0]
    else:
        lo_a, hi_a, a = _boundary(a, resolution)
        lo_b, hi_b, b = _boundary(b, resolution)
        lo = np.minimum(lo_a, lo_b)
        hi = np.maximum(hi_a, hi_b)
        span = np.maximum(hi - lo, 1e-12)
        dx, dy = span / resolution
        ys = lo[1] + (np.arange(resolution) + 0.5) * dy
        inter, union = _sweep_counts(
            _crossing_keys(a, ys, lo[0], dx, resolution),
            _crossing_keys(b, ys, lo[0], dx, resolution),
        )
    if union == 0:
        raise ValueError("both regions rasterize to zero area")
    return float(inter / union)
