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
into a stack of its kind, exact ellipses or polylines, and counts the
pairs of each kind a chunk at a time. ROWS_PER_CALL bounds the grid rows
of a chunk of Fourier estimates; an ellipse-estimate pair holds row
arrays only, no traces or edge table, so a chunk of ellipse estimates
takes four times the rows, and their outlines are built once per call.
The crossing keys of two polyline stacks are offset by pair, so one
sorted sweep of both counts every pair's union and intersection. An
ellipse fills one span per row, so a polyline's sorted keys, taken two
by two as spans, are clipped to it instead, and two ellipses are counted
from a per-row min/max of their roots; all three take the same integer
row cells.

Every array that grows with a chunk (per edge, crossing, row or sample)
is written in place into one grow-only arena per thread (`_arena`, a
`_Workspace` held in a `threading.local`). It outlives the call, so a
repeated pass reuses the pages it has and does not fault them in again.
Its size is bounded by one chunk's needs (ROWS_PER_CALL grid rows), not
by the number of pairs. Nothing kept past one chunk may be a view into
it: truths are traced into workspaces of their own. `shape_iou` is the
one-pair case of the same path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ellipse import EllipseParams, _box_half_widths
from .starconvex import FourierShapeParams, fourier_basis
from .targets import GroundTruthTarget

__all__ = ["shape_iou", "shape_ious", "shape_polyline", "DEFAULT_RESOLUTION"]

DEFAULT_RESOLUTION = 1024
CONTOUR_SAMPLES = 2048
# Grid rows per stacked count of Fourier estimates (16 pairs at resolution
# 256), four times as many of ellipse estimates (64 pairs): bounds the
# (pairs x resolution) row arrays and the traces of a chunk.
ROWS_PER_CALL = 1 << 12


class _NoArea(ValueError):
    """A point group whose members span no area, so it has no hull."""


def _group_hull(members: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull, QhullError  # loaded only for point groups

    try:
        hull = ConvexHull(members)
    except QhullError as err:
        raise _NoArea(
            "point group spans no area; overlap scoring needs at least "
            "three non-collinear members"
        ) from err
    return members[hull.vertices]


class _Workspace(dict):
    """Grow-only arrays by name: ``ws(name, shape, dtype)`` views the first
    prod(shape) entries of the array under name, made by ``fill`` anew only
    when it is too small or of another dtype. A view is valid until the
    next request of its name, and one of "scratch" (floats) or "scratch
    ints" until the next call given the workspace.

    `shape_ious` and `shape_iou` take their workspace from `_arena`, one per
    thread, which lives as long as its thread. It holds no values across
    requests: every view is written before it is read, apart from the
    "arange" index, which only its fill writes. Its size is bounded by the
    largest chunk it served (ROWS_PER_CALL grid rows, a quarter more for
    growth), whatever the number of pairs. Outlines that outlive a chunk,
    such as the traced truths, use workspaces of their own, never the arena.
    """

    def __call__(self, name: str, shape: tuple, dtype=float, fill=np.empty) -> np.ndarray:
        size, dtype = math.prod(shape), np.dtype(dtype)
        have = self.get(name)
        if have is None or have.size < size or have.dtype != dtype:
            self[name] = have = fill(size + size // 4, dtype=dtype)  # room for later chunks
        return have[:size].reshape(shape)


_THREAD = threading.local()


def _arena() -> _Workspace:
    """This thread's scoring workspace, made on its first use."""
    try:
        return _THREAD.workspace
    except AttributeError:
        _THREAD.workspace = _Workspace()
        return _THREAD.workspace


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
        return shape.center + _fourier_offsets(shape.coeffs[None], n, _Workspace(), "trace")[0].T
    raise TypeError(f"cannot trace a boundary for {type(shape).__name__}")


def _quad_forms(chols: np.ndarray) -> np.ndarray:
    """L L^T of each Cholesky triple (N, 3), as `EllipseParams.quad_form` computes it."""
    a, b, c = chols.T
    low = np.zeros((len(chols), 2, 2))
    low[:, 0, 0], low[:, 1, 0], low[:, 1, 1] = a, c, b
    return low @ np.swapaxes(low, -1, -2)


@dataclass(frozen=True)
class _Outlines:
    """N traced regions of one kind: their bounding boxes and scoring boundaries.

    With ellipse set, region i is the exact ellipse (centers[i], quads[i]);
    otherwise it is the closed polyline with abscissae polys[i, 0] and
    ordinates polys[i, 1]. Shorter polylines are padded with copies of
    their last vertex, which add only empty edges.
    """

    ellipse: bool
    lo: np.ndarray  # (N, 2)
    hi: np.ndarray  # (N, 2)
    centers: np.ndarray | None = None  # (N, 2), ellipses
    quads: np.ndarray | None = None  # (N, 2, 2), ellipses
    polys: np.ndarray | None = None  # (N, 2, n), polylines

    def take(self, idx, ws: _Workspace) -> "_Outlines":
        if self.ellipse:
            return _Outlines(True, self.lo[idx], self.hi[idx], self.centers[idx], self.quads[idx])
        polys = ws("taken polylines", (len(idx),) + self.polys.shape[1:])
        np.take(self.polys, idx, axis=0, out=polys, mode="clip")
        return _Outlines(False, self.lo[idx], self.hi[idx], polys=polys)


def _ellipse_outlines(centers: np.ndarray, chols: np.ndarray) -> _Outlines:
    quads = _quad_forms(chols)
    half = _box_half_widths(quads)
    return _Outlines(True, centers - half, centers + half, centers, quads)


def _fourier_offsets(coeffs, n: int, ws: _Workspace, name: str) -> np.ndarray:
    """(N, 2, n) boundary points of N Fourier contours relative to their centres,
    negative radii clamped to zero, in ws under name (one contour: `shape_polyline`)."""
    basis = _radius_basis(n, coeffs.shape[1])
    offsets = ws(name, (len(coeffs), 2, n))
    radii = offsets[:, 0]
    for c, r in zip(coeffs, radii):  # one product per contour, the arithmetic of a single trace
        np.matmul(basis, c, out=r)
    np.multiply(np.clip(radii, 0.0, None, out=radii), _directions(n)[1][1], out=offsets[:, 1])
    radii *= _directions(n)[1][0]
    return offsets


def _fourier_outlines(centers, coeffs, resolution: int, ws: _Workspace) -> _Outlines:
    """Fourier contours, boxed by a CONTOUR_SAMPLES trace and scored on one
    that is coarser on coarse grids (boundary sampling finer than the grid
    adds nothing), both in ws under "trace". When the coarser sample count
    divides CONTOUR_SAMPLES, its trace is every k-th sample of the box
    trace: the same angles, basis rows and floats as a trace of its own."""
    samples = min(CONTOUR_SAMPLES, max(256, 2 * resolution))
    offsets = _fourier_offsets(coeffs, CONTOUR_SAMPLES, ws, "trace")
    # adding the centre is monotone in the offset, so the trace's box is
    # the centre plus the offsets' box; rows reduce fast
    lo, hi = centers + offsets.min(axis=2), centers + offsets.max(axis=2)
    if CONTOUR_SAMPLES % samples:
        offsets = _fourier_offsets(coeffs, samples, ws, "trace")
    else:
        offsets = offsets[:, :, :: CONTOUR_SAMPLES // samples]
    return _Outlines(False, lo, hi, polys=np.add(offsets, centers[:, :, None], out=offsets))


def _concat(parts: list) -> _Outlines:
    """One stack of regions of one kind; polylines padded to the longest."""

    def join(field):
        return np.concatenate([getattr(p, field) for p in parts])

    if parts[0].ellipse:
        return _Outlines(True, join("lo"), join("hi"), join("centers"), join("quads"))
    # "clip" reads a shorter polyline's last vertex past its end
    vertex = np.arange(max(p.polys.shape[2] for p in parts))
    polys = np.concatenate([np.take(p.polys, vertex, axis=2, mode="clip") for p in parts])
    return _Outlines(False, join("lo"), join("hi"), polys=polys)


def _outline(shape, resolution: int) -> _Outlines:
    """One region: EllipseParams, FourierShapeParams or GroundTruthTarget.
    A point group whose members span no area raises ValueError (`_NoArea`)."""
    if isinstance(shape, GroundTruthTarget) and shape.kind == "ellipse":
        shape = shape.ellipse
    if isinstance(shape, EllipseParams):
        return _ellipse_outlines(shape.center[None], shape.chol[None])
    if isinstance(shape, FourierShapeParams):
        return _fourier_outlines(shape.center[None], shape.coeffs[None], resolution, _Workspace())
    xy = shape_polyline(shape).T.copy()
    return _Outlines(False, xy.min(axis=1)[None], xy.max(axis=1)[None], polys=xy[None])


def _row_centres(lo, dy, res, out):
    """(N, res) row-centre ordinates of N grids with lowest ordinates lo[:, 1], into out."""
    return np.add(np.multiply(np.arange(res) + 0.5, dy[:, None], out=out), lo[:, 1:2], out=out)


def _ellipse_row_cells(centers, quads, ys, xlo, dx, res, ws, name):
    """Per ellipse and row, the filled cell range [i0, i1) from the exact
    quadratic roots of Q00 u^2 + 2 Q01 u v + Q11 v^2 = 1.

    centers (N, 2), quads (N, 2, 2), ys (N, rows), xlo and dx (N,); returns
    i0, i1 of shape (N, rows), ints (2, N, rows) in ws under name. A row the
    ellipse misses gets the root 0, so i0 == i1 there: an empty span, which
    every count takes as no cell.

    The roots are computed in place in the scratch of ws, with the floats
    of the textbook expressions ``cx + (-b -/+ root) / (2 a)``, and clipped
    to [0, res] as floats before their one cast to int.
    """
    a = quads[:, 0, 0, None]
    scratch = ws("scratch", (3,) + ys.shape)
    x, v = scratch[:2], scratch[2]
    lo, hi = x  # the lower and upper root, each first holding an intermediate
    np.subtract(ys, centers[:, 1:2], out=v)
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
    out = ws(name, x.shape, int)
    np.copyto(out, x, casting="unsafe")
    return out


def _row_index(y, ylo, dy, res, ws):
    """np.searchsorted(ys, y) for each entry's own row centres
    ys = ylo + (j + 0.5) dy, j < res, without building them; in ws.

    The inverse of the grid formula gives the index up to rounding; it is
    then moved to where the row centres, computed exactly as the grid
    computes them, compare as searchsorted compares them.
    """
    t, j = ws("scratch", y.shape), ws("row index", y.shape, int)
    down, up, ok = ws("row moves", (3,) + y.shape, bool)

    def centre(shift):  # ylo + (j + shift) dy
        return np.add(np.multiply(np.add(j, shift, out=t), dy, out=t), ylo, out=t)

    np.ceil(np.subtract(np.divide(np.subtract(y, ylo, out=t), dy, out=t), 0.5, out=t), out=t)
    np.maximum(np.fmin(t, res, out=t), 0, out=t)  # NaN sorts last
    np.copyto(j, t, casting="unsafe")
    while True:
        np.logical_and(np.less_equal(y, centre(-0.5), out=down), np.greater(j, 0, out=ok), out=down)
        np.logical_and(np.less(centre(0.5), y, out=up), np.less(j, res, out=ok), out=up)
        if not (down.any() or up.any()):
            return j
        j -= down
        j += up


def _polyline_keys(polys, lo, dx, dy, res, ws, name):
    """Flat keys (pair * res + row) * (res + 1) + idx of every boundary
    crossing of the closed polylines (N, 2, n), polyline i that of pair i,
    where idx in [0, res] is the first cell centre at or beyond the
    crossing, in ws under name. Each crossing gathers its edge's and pair's
    values with np.take, y before x."""
    n = polys.shape[2]
    edges = ws("edges", (6, len(polys), n))  # spare, y0, y1 - y0, x0, x1 - x0, y1
    edges[1], edges[3] = polys[:, 1], polys[:, 0]
    edges[4:, :, :-1], edges[4:, :, -1] = polys.transpose(1, 0, 2)[:, :, 1:], polys[:, :, 0].T
    edges[4] -= edges[3]
    np.subtract(edges[5], edges[1], out=edges[2])
    # half-open crossing rule keeps the parity even at shared vertices:
    # an edge crosses the rows whose centre lies in [min(y0, y1), max(y0, y1))
    np.minimum(edges[1], edges[5], out=edges[0])
    np.maximum(edges[1], edges[5], out=edges[5])
    grid = np.stack([lo[:, 1], dy, lo[:, 0], dx])  # ylo, dy, xlo, dx per pair
    r0, counts = _row_index(edges[::5], grid[0, :, None], grid[1, :, None], res, ws)
    ends = np.cumsum(np.subtract(counts, r0, out=counts).ravel(), out=counts.ravel())
    edge = ws("scratch ints", (ends[-1] + 1,), int)  # one more at each edge's first crossing
    edge.fill(0)
    np.add.at(edge, ends[:-1], 1)
    edge = np.cumsum(edge, out=edge)[:-1]  # each crossing's edge
    r0.ravel()[1:] -= ends[:-1]  # less the index of its first crossing, which brings back the row
    np.add(r0, 0.5, out=edges[0])  # row + 0.5 once a crossing adds its index, exact in floats
    r0 += np.arange(0, len(polys) * res, res)[:, None]  # and the pair's first row, for the key
    t, term = ws("scratch", (2, len(edge)))
    keys = np.floor_divide(edge, n, out=ws(name, edge.shape, int))  # the crossing's pair
    index = ws("arange", edge.shape, int, np.arange)

    def gathered(table, at):  # each crossing's value of a per-edge or per-pair table, in term
        return np.take(table.ravel(), at, out=term, mode="clip")

    np.take(edges[0].ravel(), edge, out=t, mode="clip")
    t += index
    t *= gathered(grid[1], keys)  # dy
    t += gathered(grid[0], keys)  # ylo: the row centre
    t -= gathered(edges[1], edge)  # y0
    t /= gathered(edges[2], edge)  # y1 - y0: the fraction of the edge at the row centre
    t *= gathered(edges[4], edge)  # x1 - x0
    t += gathered(edges[3], edge)  # x0: the abscissa
    t -= gathered(grid[2], keys)  # xlo
    t /= gathered(grid[3], keys)  # dx
    t -= 0.5
    np.take(r0.ravel(), edge, out=keys, mode="clip")
    np.multiply(np.add(keys, index, out=keys), res + 1, out=keys)
    np.copyto(edge, np.ceil(t, out=t), casting="unsafe")  # the cells, over the gathered edges
    keys += np.clip(edge, 0, res, out=edge)
    return keys


def _sweep_counts(keys_a: np.ndarray, keys_b: np.ndarray, n_pairs: int, res: int, ws):
    """(intersection, union) cell counts per pair of two even-odd filled key sets.

    Sweeping the merged sorted keys, the running parity of each set's keys
    says whether the cells up to the next key are inside that region.
    Every row of every pair holds an even number of each set's keys, so
    both parities are back to zero at each row end.
    """
    # 2 key + (the key is b's), sorted in place, has a's keys before b's
    # equal ones, as a stable argsort of the keys has them
    keys = ws("sweep keys", (keys_a.size + keys_b.size,), int)
    np.multiply(keys_a, 2, out=keys[: keys_a.size])
    np.add(np.multiply(keys_b, 2, out=keys[keys_a.size :]), 1, out=keys[keys_a.size :])
    keys.sort()
    state = ws("sweep state", keys.shape, np.int8)  # bit 0 toggles on a's keys, bit 1 on b's
    np.add(np.bitwise_and(keys, 1, out=state), 1, out=state)
    state = np.bitwise_xor.accumulate(state, out=state)[:-1]
    keys >>= 1
    gaps = np.subtract(keys[1:], keys[:-1], out=ws("scratch", state.shape))
    pair = np.floor_divide(keys[:-1], res * (res + 1), out=keys[:-1])
    inside = np.not_equal(state, 0, out=ws("sweep inside", state.shape, bool))
    union = np.bincount(pair, np.multiply(gaps, inside, out=gaps), minlength=n_pairs)
    gaps *= np.equal(state, 3, out=inside)  # both
    inter = np.bincount(pair, gaps, minlength=n_pairs)
    return inter.astype(int), union.astype(int)


def _pair_counts(a: _Outlines, b: _Outlines, res: int, ws: _Workspace):
    """(intersection, union) cell counts of the pairs (a[i], b[i]), each on
    the grid over its own joint bounding box; temporaries in ws. Two
    polyline stacks are swept, a polyline stack is clipped to an ellipse
    stack's row spans, and two ellipse stacks are counted span by span."""
    lo = np.minimum(a.lo, b.lo)
    hi = np.maximum(a.hi, b.hi)
    span = np.maximum(hi - lo, 1e-12)
    dx, dy = (span / res).T
    if not a.ellipse:
        a, b = b, a  # both counts are symmetric in the pair
    if not a.ellipse:  # two polylines
        keys_a = _polyline_keys(a.polys, lo, dx, dy, res, ws, "a keys")
        keys_b = _polyline_keys(b.polys, lo, dx, dy, res, ws, "b keys")
        return _sweep_counts(keys_a, keys_b, len(lo), res, ws)
    # a fills one span [a0, a1) per row, so b's spans are clipped to it
    # instead of sweeping both regions' keys: about half the time of the
    # sweep for ellipse estimates against polygon and group truths
    ys = _row_centres(lo, dy, res, ws("row centres", (len(lo), res)))
    a0, a1 = _ellipse_row_cells(a.centers, a.quads, ys, lo[:, 0], dx, res, ws, "a cells")
    if b.ellipse:
        b0, b1 = _ellipse_row_cells(b.centers, b.quads, ys, lo[:, 0], dx, res, ws, "b cells")
        inter = np.minimum(a1, b1, out=ws("scratch ints", ys.shape, int))
        b1 -= b0
        inter -= np.maximum(a0, b0, out=b0)
        inter = np.maximum(inter, 0, out=inter).sum(axis=1)
        a1 -= a0
        return inter, a1.sum(axis=1) + b1.sum(axis=1) - inter
    # b's sorted keys, taken two by two, bound its filled spans [s, e) (even-odd fill)
    keys = _polyline_keys(b.polys, lo, dx, dy, res, ws, "b keys")
    keys.sort()
    start, end = keys[0::2], keys[1::2]
    row, cut = ws("scratch ints", (2, len(start)), int)  # each span's row, and a cell of a's
    overlap, filled_b = ws("scratch", (2, len(start)))  # float weights, as np.bincount takes
    np.divmod(start, res + 1, out=(row, start))
    np.remainder(end, res + 1, out=end)
    np.minimum(end, np.take(a1.ravel(), row, out=cut, mode="clip"), out=overlap)
    overlap -= np.maximum(start, np.take(a0.ravel(), row, out=cut, mode="clip"), out=cut)
    np.maximum(overlap, 0, out=overlap)
    np.subtract(end, start, out=filled_b)
    pair = np.floor_divide(row, res, out=row)
    inter = np.bincount(pair, overlap, minlength=len(lo)).astype(int)
    filled_b = np.bincount(pair, filled_b, minlength=len(lo)).astype(int)
    a1 -= a0
    return inter, a1.sum(axis=1) + filled_b - inter


def _chunk_pairs(family: str, resolution: int) -> int:
    """Pairs of one stacked count: ROWS_PER_CALL grid rows of Fourier
    estimates, four times as many of ellipse estimates, whose pairs hold no
    trace or edge table."""
    rows = ROWS_PER_CALL << 2 if family == "ellipse" else ROWS_PER_CALL
    return max(1, rows // resolution)


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
    truth object is traced once, and ellipse estimates are outlined once.
    The pairs whose truth is an ellipse and those whose truth is a polyline
    are counted in two passes, each a chunk of `_chunk_pairs` pairs at a
    time (ROWS_PER_CALL // resolution of Fourier estimates, four times as
    many of ellipse estimates), in this thread's workspace (`_arena`).

    Args:
        centers: (N, 2) estimate centers.
        params: (N, 3) Cholesky triples with positive diagonals, as
            `clamp_chols` returns them, for family "ellipse"; (N, n_coeffs)
            Fourier radius coefficients for family "star_convex".
        truths: regions the estimates are scored against: GroundTruthTarget,
            EllipseParams or FourierShapeParams. A point group whose
            members span no area covers no cell, so its pairs score 0.
        which: (N,) index into truths of each estimate's truth, each in
            [0, len(truths)); None pairs estimate i with truths[i].
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
    if ((which < 0) | (which >= len(truths))).any():
        raise ValueError(f"truth indices must lie in [0, {len(truths)})")
    out = np.zeros(len(centers))
    if not len(out):
        return out
    stacks, traced = ([], []), {}  # polylines, ellipses; by id: (kind, index in its stack)
    for truth in truths:
        if id(truth) not in traced:
            try:
                region = _outline(truth, resolution)
            except _NoArea:  # a point group that covers no cell: its pairs stay 0
                traced[id(truth)] = (-1, 0)
                continue
            traced[id(truth)] = (int(region.ellipse), len(stacks[region.ellipse]))
            stacks[region.ellipse].append(region)
    kind, slot = np.array([traced[id(t)] for t in truths])[which].T
    chunk = _chunk_pairs(family, resolution)
    ws = _arena()
    ellipses = _ellipse_outlines(centers, params) if family == "ellipse" else None
    for ellipse, stack in enumerate(stacks):
        pairs = np.flatnonzero(kind == ellipse)
        regions = _concat(stack) if pairs.size else None
        for at in range(0, pairs.size, chunk):
            part = pairs[at : at + chunk]
            if ellipses is not None:
                est = ellipses.take(part, ws)
            else:
                est = _fourier_outlines(centers[part], params[part], resolution, ws)
            inter, union = _pair_counts(est, regions.take(slot[part], ws), resolution, ws)
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
    outlines = _outline(a, resolution), _outline(b, resolution)
    inter, union = _pair_counts(*outlines, resolution, _arena())
    if union[0] == 0:
        raise ValueError("both regions rasterize to zero area")
    return float(inter[0] / union[0])
