"""Shape-overlap scoring between estimates and ground truth.

A pair of regions is scored on a grid of row-centre scanlines spanning its
joint bounding box, without building the grid. Each region yields the cell
indices where its boundary crosses each row: ellipses from the exact
quadratic roots; polygons, Fourier contours and group hulls from their
boundary polyline under a half-open crossing rule, which keeps every row's
count even. Cell ``i`` of a row is inside a region when an odd number of
its crossings lie at or before ``i`` (even-odd fill), so non-convex
star-shaped regions with several spans per row come out right.

Scoring is stacked. `shape_ious` takes N estimates (ellipse Cholesky
triples or Fourier coefficients) and the truths they are paired with. It
traces each distinct truth once, a point group's convex hull included,
and counts the pairs a chunk at a time, with ROWS_PER_CALL bounding the
grid rows of a chunk. The crossing keys of a chunk are offset by pair, so
one sorted sweep of both regions' keys counts every pair's union and
intersection. An ellipse fills one span per row, so where one region of
every pair in a chunk is an ellipse, the other region's sorted keys,
taken two by two as spans, are clipped to it instead of swept, and two
ellipses are counted from a per-row min/max of their roots. An ellipse's
spans are computed in place, in one buffer for all pairs and rows of a
chunk, and cast to int once (`_ellipse_row_cells`); the counts of the
ellipse paths are taken in place as well. `shape_iou` is the one-pair
case of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ellipse import EllipseParams, _box_half_widths
from .starconvex import FourierShapeParams, fourier_basis
from .targets import GroundTruthTarget

__all__ = ["shape_iou", "shape_ious", "shape_polyline", "DEFAULT_RESOLUTION"]

DEFAULT_RESOLUTION = 1024
CONTOUR_SAMPLES = 2048
# Grid rows per stacked count (16 pairs at resolution 256): bounds the
# (pairs x resolution) row arrays and the traces of a chunk.
ROWS_PER_CALL = 1 << 12


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
    """Sample angles (n,) and unit directions (2, n) of an n-point boundary trace."""
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return _read_only(phi), _read_only(np.stack([np.cos(phi), np.sin(phi)]))


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
        e = _directions(n)[1].T
        quad = np.einsum("ni,ij,nj->n", e, shape.quad_form, e)
        return shape.center + e / np.sqrt(quad)[:, None]
    if isinstance(shape, FourierShapeParams):
        return shape.center + _fourier_offsets(shape.coeffs[None], n)[0].T
    raise TypeError(f"cannot trace a boundary for {type(shape).__name__}")


def _quad_forms(chols: np.ndarray) -> np.ndarray:
    """L L^T of each Cholesky triple (N, 3), as `EllipseParams.quad_form` computes it."""
    a, b, c = chols.T
    low = np.zeros((len(chols), 2, 2))
    low[:, 0, 0], low[:, 1, 0], low[:, 1, 1] = a, c, b
    return low @ np.swapaxes(low, -1, -2)


@dataclass(frozen=True)
class _Outlines:
    """N traced regions: their bounding boxes and scoring boundaries.

    Region i is the exact ellipse (centers[i], quads[i]) where ellipse[i]
    is set, and otherwise the closed polyline with abscissae polys[i, 0]
    and ordinates polys[i, 1]. Shorter polylines are padded with copies of
    their last vertex, which add only empty edges.
    """

    lo: np.ndarray  # (N, 2)
    hi: np.ndarray  # (N, 2)
    ellipse: np.ndarray  # (N,) bool
    centers: np.ndarray  # (N, 2)
    quads: np.ndarray  # (N, 2, 2)
    polys: np.ndarray  # (N, 2, n)

    def take(self, idx) -> "_Outlines":
        return _Outlines(*(getattr(self, f)[idx] for f in self.__dataclass_fields__))


def _ellipse_outlines(centers: np.ndarray, chols: np.ndarray) -> _Outlines:
    quads = _quad_forms(chols)
    half = _box_half_widths(quads)
    n = len(centers)
    return _Outlines(
        centers - half, centers + half, np.ones(n, bool), centers, quads, np.empty((n, 2, 0))
    )


def _polyline_outlines(polys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> _Outlines:
    n = len(polys)
    return _Outlines(
        lo, hi, np.zeros(n, bool), np.full((n, 2), np.nan), np.full((n, 2, 2), np.nan), polys
    )


def _fourier_offsets(coeffs, n: int) -> np.ndarray:
    """(N, 2, n) boundary points of N Fourier contours relative to their
    centres, negative radii clamped to zero (one contour: `shape_polyline`)."""
    basis = _radius_basis(n, coeffs.shape[1])
    # one product per contour: the same arithmetic as a single trace
    radii = np.clip(np.array([basis @ c for c in coeffs]).reshape(-1, 1, n), 0.0, None)
    return radii * _directions(n)[1]


def _fourier_outlines(centers, coeffs, resolution: int) -> _Outlines:
    """Fourier contours, boxed by a CONTOUR_SAMPLES trace and scored on one
    that is coarser on coarse grids (boundary sampling finer than the grid
    adds nothing)."""
    offsets = _fourier_offsets(coeffs, CONTOUR_SAMPLES)
    # adding the centre is monotone in the offset, so the trace's box is
    # the centre plus the offsets' box; rows reduce fast
    lo, hi = centers + offsets.min(axis=2), centers + offsets.max(axis=2)
    samples = min(CONTOUR_SAMPLES, max(256, 2 * resolution))
    if samples != CONTOUR_SAMPLES:
        offsets = _fourier_offsets(coeffs, samples)
    return _polyline_outlines(centers[:, :, None] + offsets, lo, hi)


def _concat(parts: list) -> _Outlines:
    """One stack of several; polylines padded to the longest."""
    n = max(p.polys.shape[2] for p in parts)

    def padded(polys):
        if not polys.shape[2]:
            return np.full((len(polys), 2, n), np.nan)  # ellipses: never read
        last = np.repeat(polys[:, :, -1:], n - polys.shape[2], axis=2)
        return np.concatenate([polys, last], axis=2)

    fields = {
        f: np.concatenate([padded(p.polys) if f == "polys" else getattr(p, f) for p in parts])
        for f in _Outlines.__dataclass_fields__
    }
    return _Outlines(**fields)


def _outline(shape, resolution: int, flat_groups: bool = False) -> _Outlines:
    """One region: EllipseParams, FourierShapeParams or GroundTruthTarget.

    A point group whose members span no area raises ValueError, or with
    flat_groups is traced as an empty region: one vertex, no edge.
    """
    if isinstance(shape, GroundTruthTarget) and shape.kind == "ellipse":
        shape = shape.ellipse
    if isinstance(shape, EllipseParams):
        return _ellipse_outlines(shape.center[None], shape.chol[None])
    if isinstance(shape, FourierShapeParams):
        return _fourier_outlines(shape.center[None], shape.coeffs[None], resolution)
    if flat_groups and isinstance(shape, GroundTruthTarget) and shape.kind == "point_group":
        try:
            pts = _group_hull(shape.members)
        except ValueError:  # the members span no area
            pts = shape.members[:1]
    else:
        pts = shape_polyline(shape)
    xy = pts.T.copy()
    return _polyline_outlines(xy[None], xy.min(axis=1)[None], xy.max(axis=1)[None])


def _row_centres(lo, dy, res):
    """(N, res) row-centre ordinates of N grids with lowest ordinates lo[:, 1]."""
    return lo[:, 1:2] + (np.arange(res) + 0.5) * dy[:, None]


def _ellipse_row_cells(centers, quads, ys, xlo, dx, res):
    """Per ellipse and row, the filled cell range [i0, i1) from the exact
    quadratic roots of Q00 u^2 + 2 Q01 u v + Q11 v^2 = 1.

    centers (N, 2), quads (N, 2, 2), ys (N, rows), xlo and dx (N,); returns
    i0, i1 of shape (N, rows). A row the ellipse misses gets the root 0, so
    i0 == i1 there: an empty span, which every count takes as no cell.

    The roots are computed in place in one (2, N, rows) buffer, with
    the floats of the textbook expressions ``cx + (-b -/+ root) / (2 a)``,
    and clipped to [0, res] as floats before their one cast to int.
    """
    a = quads[:, 0, 0, None]
    x = np.empty((2,) + ys.shape)
    lo, hi = x  # the lower and upper root, each first holding an intermediate
    v = ys - centers[:, 1:2]
    np.multiply(2.0 * quads[:, 0, 1, None], v, out=hi)  # b
    np.multiply(quads[:, 1, 1, None], v, out=lo)
    lo *= v
    lo -= 1.0  # c
    lo *= 4.0 * a
    np.multiply(hi, hi, out=v)
    v -= lo  # b^2 - 4 a c
    np.maximum(v, 0.0, out=v)
    np.sqrt(v, out=v)
    np.negative(hi, out=hi)
    np.subtract(hi, v, out=lo)
    hi += v
    x /= 2.0 * a
    x += centers[:, 0:1]
    # first cell center at or beyond each crossing
    x -= xlo[:, None]
    x /= dx[:, None]
    x -= 0.5
    np.ceil(x, out=x)
    np.clip(x, 0, res, out=x)
    i0, i1 = x.astype(int)
    return i0, i1


def _row_index(y, ylo, dy, res):
    """np.searchsorted(ys, y) for each entry's own row centres
    ys = ylo + (j + 0.5) dy, j < res, without building them.

    The inverse of the grid formula gives the index up to rounding; it is
    then moved to where the row centres, computed exactly as the grid
    computes them, compare as searchsorted compares them.
    """
    guess = np.nan_to_num(np.ceil((y - ylo) / dy - 0.5), nan=res)  # NaN sorts last
    j = np.clip(guess, 0, res).astype(int)
    while True:
        down = (j > 0) & (ylo + (j - 0.5) * dy >= y)
        up = (j < res) & (ylo + (j + 0.5) * dy < y)
        if not (down.any() or up.any()):
            return j
        j = j - down + up


def _polyline_keys(polys, pairs, lo, dx, dy, res):
    """Crossing keys (see `_crossing_keys`) of closed polylines (P, 2, n),
    polyline i belonging to pair pairs[i]."""
    x0, y0 = polys[:, 0].ravel(), polys[:, 1].ravel()
    ends = np.roll(polys, -1, axis=2)
    x1, y1 = ends[:, 0].ravel(), ends[:, 1].ravel()
    edge_pair = np.repeat(pairs, polys.shape[2])
    ylo, step = lo[edge_pair, 1], dy[edge_pair]
    # half-open crossing rule keeps the parity even at shared vertices:
    # an edge crosses the rows whose centre lies in [min(y0, y1), max(y0, y1))
    r0 = _row_index(np.minimum(y0, y1), ylo, step, res)
    counts = _row_index(np.maximum(y0, y1), ylo, step, res) - r0

    def each(per_edge):  # the edge's value at each of its crossings
        return np.repeat(per_edge, counts)

    rows = np.arange(counts.sum()) + each(r0 - (np.cumsum(counts) - counts))
    frac = (each(ylo) + (rows + 0.5) * each(step) - each(y0)) / each(y1 - y0)
    xs = each(x0) + frac * each(x1 - x0)
    cells = np.ceil((xs - each(lo[edge_pair, 0])) / each(dx[edge_pair]) - 0.5)
    return (each(edge_pair * res) + rows) * (res + 1) + np.clip(cells.astype(int), 0, res)


def _crossing_keys(outlines: _Outlines, lo, dx, dy, res) -> np.ndarray:
    """Flat keys (pair * res + row) * (res + 1) + idx of every boundary
    crossing of each pair's region, where idx in [0, res] is the first
    cell centre at or beyond the crossing."""
    keys = []
    ell = np.flatnonzero(outlines.ellipse)
    if ell.size:
        i0, i1 = _ellipse_row_cells(
            outlines.centers[ell],
            outlines.quads[ell],
            _row_centres(lo[ell], dy[ell], res),
            lo[ell, 0],
            dx[ell],
            res,
        )
        base = (ell[:, None] * res + np.arange(res)) * (res + 1)
        keys.append(np.stack([base + i0, base + i1], axis=-1)[i1 > i0].ravel())
    poly = np.flatnonzero(~outlines.ellipse)
    if poly.size:
        keys.append(_polyline_keys(outlines.polys[poly], poly, lo, dx, dy, res))
    return np.concatenate(keys)


def _sweep_counts(keys_a: np.ndarray, keys_b: np.ndarray, n_pairs: int, res: int):
    """(intersection, union) cell counts per pair of two even-odd filled key sets.

    Sweeping the merged sorted keys, the running parity of each set's keys
    says whether the cells up to the next key are inside that region.
    Every row of every pair holds an even number of each set's keys, so
    both parities are back to zero at each row end.
    """
    keys = np.concatenate([keys_a, keys_b])
    # tied keys may come in any order (their gap is 0); the stable sort is
    # chosen for speed, as it merges the keys' partly sorted runs
    order = np.argsort(keys, kind="stable")
    # bit 0 toggles on a's keys, bit 1 on b's
    state = np.bitwise_xor.accumulate(np.where(order < keys_a.size, 1, 2))[:-1]
    keys = keys[order]
    gaps = np.diff(keys)
    pair = keys[:-1] // (res * (res + 1))
    inside, both = state != 0, state == 3
    union = np.bincount(pair[inside], gaps[inside], minlength=n_pairs)
    inter = np.bincount(pair[both], gaps[both], minlength=n_pairs)
    return inter.astype(int), union.astype(int)


def _pair_counts(a: _Outlines, b: _Outlines, res: int):
    """(intersection, union) cell counts of the pairs (a[i], b[i]), each on
    the grid over its own joint bounding box."""
    lo = np.minimum(a.lo, b.lo)
    hi = np.maximum(a.hi, b.hi)
    span = np.maximum(hi - lo, 1e-12)
    dx, dy = (span / res).T
    if not a.ellipse.all():
        a, b = b, a  # both counts are symmetric in the pair
    if not a.ellipse.all():
        return _sweep_counts(
            _crossing_keys(a, lo, dx, dy, res), _crossing_keys(b, lo, dx, dy, res), len(lo), res
        )
    # a fills one span [a0, a1) per row, so b's spans are clipped to it
    # instead of sweeping both regions' keys: about half the time of the
    # sweep for ellipse estimates against polygon and group truths
    ys = _row_centres(lo, dy, res)
    a0, a1 = _ellipse_row_cells(a.centers, a.quads, ys, lo[:, 0], dx, res)
    if b.ellipse.all():
        b0, b1 = _ellipse_row_cells(b.centers, b.quads, ys, lo[:, 0], dx, res)
        inter = np.minimum(a1, b1)
        inter -= np.maximum(a0, b0)
        np.maximum(inter, 0, out=inter)
        inter = inter.sum(axis=1)
        a1 -= a0
        b1 -= b0
        return inter, a1.sum(axis=1) + b1.sum(axis=1) - inter
    # b's sorted keys, taken two by two, bound its filled spans [s, e) (even-odd fill)
    keys = np.sort(_crossing_keys(b, lo, dx, dy, res))
    row, start = np.divmod(keys[0::2], res + 1)
    end = keys[1::2] % (res + 1)
    pair = row // res
    overlap = np.minimum(end, a1.ravel()[row])
    overlap -= np.maximum(start, a0.ravel()[row])
    np.maximum(overlap, 0, out=overlap)
    inter = np.bincount(pair, overlap, minlength=len(lo)).astype(int)
    end -= start
    filled_b = np.bincount(pair, end, minlength=len(lo)).astype(int)
    a1 -= a0
    return inter, a1.sum(axis=1) + filled_b - inter


def shape_ious(
    centers,
    params,
    truths,
    which=None,
    family: str = "ellipse",
    resolution: int = DEFAULT_RESOLUTION,
) -> np.ndarray:
    """IoU of N estimates against their truths, pair by pair.

    Each pair is scored exactly as `shape_iou` scores it. Each distinct
    truth object is traced once, and the pairs are counted a chunk of
    ROWS_PER_CALL // resolution at a time.

    Args:
        centers: (N, 2) estimate centers.
        params: (N, 3) Cholesky triples with positive diagonals, as
            `clamp_chols` returns them, for family "ellipse"; (N, n_coeffs)
            Fourier radius coefficients for family "star_convex".
        truths: regions the estimates are scored against: GroundTruthTarget,
            EllipseParams or FourierShapeParams. A point group whose
            members span no area covers no cell, so its pairs score 0.
        which: (N,) index into truths of each estimate's truth; None pairs
            estimate i with truths[i].
        family: "ellipse" or "star_convex", the kind of the estimates.
        resolution: cells per axis of each pair's grid.

    Returns:
        (N,) IoUs in [0, 1]; a pair that covers no grid cell scores 0.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if family not in ("ellipse", "star_convex"):
        raise ValueError(f"unknown estimate family {family!r}")
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    params = np.atleast_2d(np.asarray(params, dtype=float))
    which = np.arange(len(truths)) if which is None else np.asarray(which, dtype=int)
    if which.shape != (len(centers),) or len(params) != len(centers):
        raise ValueError("one truth and one parameter row per estimate required")
    out = np.zeros(len(centers))
    if not len(out):
        return out
    slots, distinct = [], {}
    for truth in truths:
        slots.append(distinct.setdefault(id(truth), (len(distinct), truth))[0])
    traced = _concat([_outline(t, resolution, flat_groups=True) for _, t in distinct.values()])
    slot = np.asarray(slots)[which]
    chunk = max(1, ROWS_PER_CALL // resolution)
    for at in range(0, len(out), chunk):
        part = slice(at, at + chunk)
        if family == "ellipse":
            est = _ellipse_outlines(centers[part], params[part])
        else:
            est = _fourier_outlines(centers[part], params[part], resolution)
        inter, union = _pair_counts(est, traced.take(slot[part]), resolution)
        out[part] = np.divide(inter, union, out=np.zeros(len(inter)), where=union > 0)
    return out


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
    inter, union = _pair_counts(_outline(a, resolution), _outline(b, resolution), resolution)
    if union[0] == 0:
        raise ValueError("both regions rasterize to zero area")
    return float(inter[0] / union[0])
