"""Ground-truth targets: elliptic regions, star-convex polygons, point groups.

Targets produce measurement sources drawn uniformly over their extent
(uniformly among members for groups). For star-convex geometries the
radius function along a ray from the star center is exposed, which both
drives the rejection sampling and lets tests extract the radial scaling
fraction of each sample. It is found by a sector lookup
(`_polygon_sectors`): a ray is tested against the edge of its angular
sector and that edge's two neighbours only, which the polygon builder's
exact star-convexity check makes enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple
from importlib import resources
from pathlib import Path

import numpy as np

from .ellipse import EllipseParams, _box_half_widths, ellipse_implicit

__all__ = [
    "RejectionBudgetError",
    "GroundTruthTarget",
    "ellipse_target",
    "polygon_target",
    "group_target",
    "polygon_radius",
    "polygon_centroid",
    "boundary_radius",
    "radial_fraction",
    "sample_measurement_sources",
    "stacked_sample_sources",
    "generate_measurement",
    "psd_root",
    "load_geometry",
    "load_waypoints",
    "builtin_data_path",
]

MAX_REJECTION_ATTEMPTS = 10**6
# Points per call of an inside-or-out test (`_inside_rows`). The sector
# lookup of the polygon test holds about 330 bytes a point whatever the
# number of edges, about 2.7 MB at the bound, however many runs draw in one
# rejection round.
INSIDE_TEST_POINTS = 1 << 13


class RejectionBudgetError(RuntimeError):
    """Rejection sampling exhausted its draw budget (malformed geometry)."""


# ---------------------------------------------------------------------------
# Polygon geometry


def polygon_centroid(vertices: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-12:
        raise ValueError("degenerate polygon with zero area")
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return np.array([cx, cy])


class _Sectors(NamedTuple):
    """The edges of T star-convex polygons in flat (E,) arrays, polygon t's
    from start[t] to start[t + 1], with each polygon's vertex angles about
    its anchor sorted into sectors (`_polygon_sectors`)."""

    start: np.ndarray  # (T + 1,)
    anchors: np.ndarray  # (T, 2)
    angles: np.ndarray  # (E,) each polygon's vertex angles, sorted
    near: np.ndarray  # (E, 3) the edge of each sector and its two neighbours
    u0: np.ndarray  # edge vectors
    u1: np.ndarray
    w0: np.ndarray  # edge starts minus the anchor
    w1: np.ndarray
    cross_wu: np.ndarray


def _polygon_sectors(polygons, anchors) -> _Sectors:
    """The sector table of polygons (each (E_t, 2) vertices) about anchors
    (T, 2), each anchor strictly inside every edge of its polygon.

    A ray from such an anchor meets the boundary once: on the edge of its
    angular sector, the span between two neighbouring vertex angles, or
    at a vertex shared with a neighbour of that edge.
    """
    sizes = [len(v) for v in polygons]
    start = np.concatenate(([0], np.cumsum(sizes)))
    v = np.concatenate(polygons)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    nxt = np.arange(1, len(v) + 1)
    nxt[start[1:] - 1] = start[:-1]
    prv = np.arange(-1, len(v) - 1)
    prv[start[:-1]] = start[1:] - 1
    u = v[nxt] - v  # the floats of np.roll(v, -1, axis=0) - v
    w = v - anchors[owner]
    cross_wu = w[:, 0] * u[:, 1] - w[:, 1] * u[:, 0]
    phi = np.arctan2(w[:, 1], w[:, 0])
    low = np.lexsort((phi, owner))  # the vertex at the lower angle of each sector
    # cross_wu sums to twice the signed area: a clockwise edge runs down in angle
    ccw = np.add.reduceat(cross_wu, start[:-1]) > 0
    edge = np.where(ccw[owner], low, prv[low])
    near = np.stack([prv[edge], edge, nxt[edge]], axis=1)
    return _Sectors(start, anchors, phi[low], near, u[:, 0], u[:, 1], w[:, 0], w[:, 1], cross_wu)


def _sector_crossings(sectors: _Sectors, which, phi) -> np.ndarray:
    """The distance t > 0 at which each ray anchor + t e(phi) crosses the
    boundary of polygon which[i] of sectors; which is non-decreasing.

    Each ray is tested against the edge of its sector and that edge's two
    neighbours, with the half-open edge test of the full pass over every
    edge, and gets the smallest crossing. For an anchor strictly inside
    every edge, no other edge is crossed, so t is the float of that pass.

    Raises:
        ValueError: a ray crosses none of its three edges.
    """
    d0, d1 = np.cos(phi), np.sin(phi)
    # the sectors are searched at the angles in [-pi, pi] of the rays themselves
    wrapped = np.abs(phi) > np.pi
    look = np.where(wrapped, np.arctan2(d1, d0), phi) if wrapped.any() else phi
    row = np.empty(len(phi), dtype=np.intp)
    for lo, hi in _runs(which):
        first, stop = sectors.start[which[lo]], sectors.start[which[lo] + 1]
        k = np.searchsorted(sectors.angles[first:stop], look[lo:hi], side="right")
        # an angle below the first vertex angle lies in the last sector, which wraps
        row[lo:hi] = first + (k - 1) % (stop - first)
    near = np.take(sectors.near, row, axis=0)
    u0, u1 = np.take(sectors.u0, near), np.take(sectors.u1, near)
    w0, w1 = np.take(sectors.w0, near), np.take(sectors.w1, near)
    d0, d1 = d0[:, None], d1[:, None]
    # Solve t d = w + tau u per (ray, edge) pair via 2D cross products.
    denom = d0 * u1 - d1 * u0
    cross_wd = w0 * d1 - w1 * d0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.take(sectors.cross_wu, near) / denom
        tau = cross_wd / denom
    # small slack on the half-open edge interval so a ray through a shared
    # vertex still counts exactly once despite roundoff in tau
    slack = 1e-12
    valid = (
        (np.abs(denom) > 1e-14)
        & (tau >= -slack)
        & (tau < 1.0 - slack)
        & (t > 0.0)
    )
    if not valid.any(axis=1).all():
        raise ValueError("ray misses the polygon boundary; geometry not star-convex")
    return np.min(np.where(valid, t, np.inf), axis=1)


def _runs(which) -> list:
    """(lo, hi) of each run of equal values in which, in order."""
    cuts = [0, *(np.flatnonzero(np.diff(which)) + 1).tolist(), len(which)]
    return list(zip(cuts, cuts[1:])) if len(which) else []


def polygon_radius(vertices: np.ndarray, center: np.ndarray, phi) -> np.ndarray:
    """Boundary distance from `center` along angle(s) phi for a polygon that
    is star-convex about center (center strictly inside every edge)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    center = np.asarray(center, dtype=float)
    sectors = _polygon_sectors([np.asarray(vertices, dtype=float)], center[None])
    return _sector_crossings(sectors, np.zeros(len(phi), dtype=np.intp), phi)


def _segments_intersect(a0, a1, b0, b1) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1, d2 = orient(b0, b1, a0), orient(b0, b1, a1)
    d3, d4 = orient(a0, a1, b0), orient(a0, a1, b1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple(vertices: np.ndarray) -> None:
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent around the wrap
            if _segments_intersect(*edges[i], *edges[j]):
                raise ValueError(f"polygon self-intersects (edges {i} and {j})")


def _check_star_convex(vertices: np.ndarray, center: np.ndarray) -> None:
    """Raise unless center lies strictly on the inner side of every edge,
    the inner side taken from the orientation of the signed area."""
    x, y = vertices[:, 0], vertices[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    u = np.roll(vertices, -1, axis=0) - vertices
    w = vertices - center
    inner = np.sign(area2) * (w[:, 0] * u[:, 1] - w[:, 1] * u[:, 0]) > 0.0
    if not inner.all():
        raise ValueError(
            f"polygon is not star-convex about {center}: not strictly inside "
            f"edge(s) {np.flatnonzero(~inner).tolist()}"
        )


# ---------------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class GroundTruthTarget:
    """One simulated extended object.

    kind selects the payload: "ellipse" uses `ellipse`, "polygon" uses
    `vertices` (simple, star-convex about its centroid), "point_group"
    uses `members`. Construct through the ellipse_target / polygon_target /
    group_target helpers, which validate the geometry.
    """

    kind: str
    ellipse: EllipseParams | None = None
    vertices: np.ndarray | None = None
    members: np.ndarray | None = None

    @cached_property
    def anchor(self) -> np.ndarray:
        """Reference point: ellipse center, polygon centroid, member mean.

        Computed once per target; a moved target is a new target.
        """
        if self.kind == "ellipse":
            return self.ellipse.center
        if self.kind == "polygon":
            anchor = polygon_centroid(self.vertices)
        else:
            anchor = np.mean(self.members, axis=0)
        anchor.flags.writeable = False  # one array shared by every caller
        return anchor

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box (lo, hi) around the extent, or around the members.

        Computed once per target, like `anchor`; both arrays are read-only
        because they are shared.
        """
        if self.kind == "ellipse":
            half = _box_half_widths(self.ellipse.quad_form)
            lo, hi = self.ellipse.center - half, self.ellipse.center + half
        else:
            pts = self.vertices if self.kind == "polygon" else self.members
            lo, hi = pts.min(axis=0), pts.max(axis=0)
        lo.flags.writeable = False
        hi.flags.writeable = False
        return lo, hi

    def transformed(self, rotation: float = 0.0, translation=(0.0, 0.0)) -> "GroundTruthTarget":
        """Rigidly move the target: rotate about its anchor, then translate."""
        rot = np.array(
            [
                [np.cos(rotation), -np.sin(rotation)],
                [np.sin(rotation), np.cos(rotation)],
            ]
        )
        shift = np.asarray(translation, dtype=float)
        anchor = self.anchor
        if self.kind == "ellipse":
            quad = rot @ self.ellipse.quad_form @ rot.T
            low = np.linalg.cholesky(quad)
            moved = EllipseParams(
                anchor + shift, [low[0, 0], low[1, 1], low[1, 0]]
            )
            return GroundTruthTarget("ellipse", ellipse=moved)
        if self.kind == "polygon":
            verts = (self.vertices - anchor) @ rot.T + anchor + shift
            return GroundTruthTarget("polygon", vertices=verts)
        members = (self.members - anchor) @ rot.T + anchor + shift
        return GroundTruthTarget("point_group", members=members)


def ellipse_target(params: EllipseParams) -> GroundTruthTarget:
    return GroundTruthTarget("ellipse", ellipse=params)


def polygon_target(vertices) -> GroundTruthTarget:
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2 or vertices.shape[0] < 3:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    if not np.isfinite(vertices).all():
        raise ValueError("polygon_target: vertex coordinates must be finite")
    _check_simple(vertices)
    _check_star_convex(vertices, polygon_centroid(vertices))
    return GroundTruthTarget("polygon", vertices=vertices)


def group_target(members) -> GroundTruthTarget:
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if members.shape[0] < 1 or members.shape[1] != 2:
        raise ValueError("point group needs at least one (x, y) member")
    if not np.isfinite(members).all():
        raise ValueError("group_target: member coordinates must be finite")
    return GroundTruthTarget("point_group", members=members)


# ---------------------------------------------------------------------------
# Radius helpers (rejection sampling, scaling-fraction extraction, metrics)


def boundary_radius(target: GroundTruthTarget, phi) -> np.ndarray:
    """Boundary distance from the anchor along angle(s) phi (not for groups)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if target.kind == "ellipse":
        e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        quad = np.einsum("...i,ij,...j->...", e, target.ellipse.quad_form, e)
        return 1.0 / np.sqrt(quad)
    if target.kind == "polygon":
        return polygon_radius(target.vertices, target.anchor, phi)
    raise ValueError("point groups have no boundary radius")


def radial_fraction(target: GroundTruthTarget, points) -> np.ndarray:
    """Fraction of the boundary distance at which each point sits (0 at anchor, 1 on the boundary)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    offsets = pts - target.anchor
    rho = np.linalg.norm(offsets, axis=1)
    phi = np.arctan2(offsets[:, 1], offsets[:, 0])
    return rho / boundary_radius(target, phi)


def _box_chunk_size(short: int) -> int:
    """Box draws a run makes in one rejection round while `short` sources are missing."""
    return min(max(4 * short, 64), 1 << 17)


def _inside_polygons(sectors: _Sectors, which, points) -> np.ndarray:
    """Whether each point (N, 2) lies in polygon which[i] of sectors
    (boundary included); which is non-decreasing. The floats of
    ``radial_fraction(target, points) <= 1.0`` for each polygon's points."""
    offsets = points - np.take(sectors.anchors, which, axis=0)
    rho = np.linalg.norm(offsets, axis=1)
    phi = np.arctan2(offsets[:, 1], offsets[:, 0])
    return rho / _sector_crossings(sectors, which, phi) <= 1.0


def _inside_rows(truths, which, points) -> np.ndarray:
    """Whether each point (N, 2) lies in the extent (boundary included) of
    truths[which[i]], an ellipse or a polygon; which is non-decreasing.

    Each ellipse's points are tested in their own calls, and the points of
    all polygons together in one sector lookup (`_inside_polygons`); no
    call takes more than INSIDE_TEST_POINTS points. The test is pointwise,
    so neither the grouping nor the slicing changes a result.
    """
    inside = np.empty(len(points), dtype=bool)
    polygon = np.array([truth.kind == "polygon" for truth in truths])
    for lo, hi in _runs(which):
        truth = truths[which[lo]]
        if truth.kind == "ellipse":
            for start in range(lo, hi, INSIDE_TEST_POINTS):
                part = slice(start, min(start + INSIDE_TEST_POINTS, hi))
                inside[part] = ellipse_implicit(truth.ellipse, points[part]) <= 0.0
    if polygon.any():
        polygons = [truth for truth in truths if truth.kind == "polygon"]
        sectors = _polygon_sectors(
            [truth.vertices for truth in polygons], np.array([truth.anchor for truth in polygons])
        )
        rows = polygon[which]
        rows = slice(None) if rows.all() else rows.nonzero()[0]
        number = np.cumsum(polygon) - 1  # a polygon truth's index among the polygons
        which, points = number[which[rows]], points[rows]
        tested = np.empty(len(points), dtype=bool)
        for start in range(0, len(points), INSIDE_TEST_POINTS):
            part = slice(start, start + INSIDE_TEST_POINTS)
            tested[part] = _inside_polygons(sectors, which[part], points[part])
        inside[rows] = tested
    return inside


def _parts(a: np.ndarray, lengths) -> list:
    """The views `np.split` cuts a into at the cumulative lengths (which sum
    to len(a)), without its two `swapaxes` per part."""
    bounds = list(itertools.accumulate(lengths, initial=0))
    return [a[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _round_size(target: GroundTruthTarget, need: int) -> int:
    """How many indices or points `_round_draws` draws for `need` sources."""
    return need if target.kind == "point_group" else _box_chunk_size(need)


def _round_draws(target: GroundTruthTarget, rng: np.random.Generator, need: int) -> np.ndarray:
    """What a run still short of `need` sources draws from rng in one
    rejection round: need member indices of a point group, or else a box
    chunk of `_box_chunk_size(need)` uniform pairs in [0, 1)."""
    if target.kind == "point_group":
        return rng.integers(target.members.shape[0], size=need)
    return rng.random((_box_chunk_size(need), 2))


def _round_sources(truths, draws, needs) -> tuple[np.ndarray, np.ndarray]:
    """The sources one rejection round gives P pairs, laid out truth by
    truth, P // len(truths) to a truth: pair p made the `_round_draws`
    draws[p] for needs[p] sources. Member indices pick members; box draws
    u become lo + (hi - lo) * u in the truth's bounding box (the floats of
    ``rng.uniform(lo, hi)``), in place. A box pair's first
    min(len(draws[p]), 4 needs[p]) points are tested inside-or-out, and
    the rest only for the pairs that this leaves short, each pass in one
    `_inside_rows` call over all truths. Returns (sources, got): pair p's
    first got[p] = min(needs[p], inside points) points in draw order, pair
    after pair."""
    needs = np.asarray(needs, dtype=np.intp)
    per_truth = len(draws) // len(truths)
    sizes = np.array([len(d) for d in draws], dtype=np.intp)
    edges = np.concatenate(([0], np.cumsum(sizes)))  # the pairs' point ranges
    points = np.empty((edges[-1], 2))
    inside = np.ones(len(points), dtype=bool)  # box points: until tested
    stretch = np.empty(len(draws), dtype=np.intp)  # each pair's stretch of one truth
    boxed = np.zeros(len(draws), dtype=bool)
    firsts = [0] + [j for j in range(1, len(truths)) if truths[j] is not truths[j - 1]]
    for s, (j, stop) in enumerate(zip(firsts, firsts[1:] + [len(truths)])):
        truth, pairs = truths[j], slice(j * per_truth, stop * per_truth)
        part = slice(edges[pairs.start], edges[pairs.stop])
        stretch[pairs] = s
        if truth.kind == "point_group":
            points[part] = truth.members[np.concatenate(draws[pairs])]
        else:
            lo, hi = truth.bounding_box
            box = np.concatenate(draws[pairs], out=points[part])
            box *= hi - lo
            box += lo
            inside[part] = False
            boxed[pairs] = True
    distinct = [truths[j] for j in firsts]
    head = np.where(boxed, np.minimum(sizes, 4 * needs), 0)
    found = _test_spans(distinct, stretch, points, inside, edges[:-1], head)
    rest = np.where(boxed & (found < needs), sizes - head, 0)
    _test_spans(distinct, stretch, points, inside, edges[:-1] + head, rest)
    found = np.concatenate(([0], np.cumsum(inside)))
    before = found[edges[:-1]]  # inside points before each pair's draws
    got = np.minimum(found[edges[1:]] - before, needs)
    # pair p's sources are the inside points numbered before[p] to before[p] + got[p]
    nth = np.repeat(before - (np.cumsum(got) - got), got) + np.arange(got.sum())
    return points[np.flatnonzero(inside)[nth]], got


def _test_spans(truths, stretch, points, inside, starts, lengths) -> np.ndarray:
    """Test points starts[p] to starts[p] + lengths[p] of each pair p
    against its truth, truths[stretch[p]], in one `_inside_rows` call, and
    mark the inside ones in inside. Returns the inside points per pair."""
    offsets = np.cumsum(lengths) - lengths  # each pair's first tested point
    total = int(lengths.sum())
    if not total:
        return np.zeros(len(lengths), dtype=np.intp)
    rows = np.repeat(starts - offsets, lengths) + np.arange(total)
    hit = _inside_rows(truths, np.repeat(stretch, lengths), np.take(points, rows, axis=0))
    inside[rows] = hit
    counted = np.concatenate(([0], np.cumsum(hit)))
    return counted[offsets + lengths] - counted[offsets]


def stacked_sample_sources(target: GroundTruthTarget, counts, rngs) -> list:
    """Measurement sources of several runs, each drawn from its own generator.

    Run r gets counts[r] sources from rngs[r], uniform over the extent or
    among group members, with exactly the draws `sample_measurement_sources`
    makes for it alone. In each rejection round, every run still short of
    its count makes its own draws (`_round_draws`: a group's member picks
    never fall short), and one `_round_sources` call takes all their
    sources. A run that burns through MAX_REJECTION_ATTEMPTS box draws
    without filling its count gets a RejectionBudgetError in place of its
    sources and draws no more; the other runs go on.

    Args:
        target: the truth sampled from.
        counts: R non-negative source counts.
        rngs: R generators, run r drawing from rngs[r] only.

    Returns:
        R entries: run r's sources (counts[r], 2), or its RejectionBudgetError.
    """
    counts, rngs = list(counts), list(rngs)
    if len(counts) != len(rngs):
        raise ValueError(f"{len(counts)} counts for {len(rngs)} generators")
    if any(n < 0 for n in counts):
        raise ValueError("n must be non-negative")

    out = [np.empty((n, 2)) for n in counts]
    filled = [0] * len(counts)
    attempts = [0] * len(counts)
    short = [r for r, n in enumerate(counts) if n > 0]
    while short:
        needs = [counts[r] - filled[r] for r in short]
        draws = [_round_draws(target, rngs[r], need) for r, need in zip(short, needs)]
        sources, got = _round_sources([target], draws, needs)
        for r, drawn, taken in zip(short, draws, _parts(sources, got)):
            out[r][filled[r] : filled[r] + len(taken)] = taken
            filled[r] += len(taken)
            attempts[r] += len(drawn)
        short = [r for r in short if filled[r] < counts[r]]
        for r in short:
            if attempts[r] >= MAX_REJECTION_ATTEMPTS:
                out[r] = RejectionBudgetError(
                    f"only {filled[r]} of {counts[r]} interior points found in {attempts[r]} draws"
                )
        short = [r for r in short if attempts[r] < MAX_REJECTION_ATTEMPTS]
    return out


def sample_measurement_sources(
    target: GroundTruthTarget, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n measurement sources, uniform over the extent / among group members.

    The one-run case of `stacked_sample_sources`: interior points come
    from rejection sampling in the bounding box, and a call that burns
    through MAX_REJECTION_ATTEMPTS box draws without filling its quota
    raises RejectionBudgetError.
    """
    (sources,) = stacked_sample_sources(target, [n], [rng])
    if isinstance(sources, RejectionBudgetError):
        raise sources
    return sources


def psd_root(cov) -> np.ndarray:
    """A square root F with F Fᵀ = cov, accepting singular PSD matrices."""
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def generate_measurement(source, noise_cov, rng: np.random.Generator) -> np.ndarray:
    """Measurement = source + zero-mean Gaussian noise (noise_cov may be singular)."""
    source = np.asarray(source, dtype=float).reshape(2)
    factor = psd_root(np.asarray(noise_cov, dtype=float).reshape(2, 2))
    return source + factor @ rng.standard_normal(2)


# ---------------------------------------------------------------------------
# Geometry files


def _read_pairs(path, keyword: str | None = None) -> tuple[list, bool]:
    """The "x y" pairs of a text file, one per line; blank lines and "#"
    comments are ignored. Lines that read keyword (in any case) before the
    first pair are skipped; the flag says whether there was one."""
    rows, seen = [], False
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not rows and keyword is not None and line.lower() == keyword:
            seen = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'x y' per line, got {raw!r}")
        rows.append([float(parts[0]), float(parts[1])])
    return rows, seen


def load_geometry(path) -> GroundTruthTarget:
    """Read a polygon or point-group file.

    Format: one "x y" pair per line; blank lines and "#" comments are
    ignored. A file whose first meaningful line is the word "group" holds
    point-group members; otherwise the pairs are polygon vertices in
    boundary order.
    """
    rows, is_group = _read_pairs(path, "group")
    if not rows:
        raise ValueError(f"no coordinates in {path}")
    coords = np.array(rows)
    return group_target(coords) if is_group else polygon_target(coords)


def load_waypoints(path) -> np.ndarray:
    """Read an ordered "x y" waypoint list (same comment rules as load_geometry)."""
    rows, _ = _read_pairs(path)
    if len(rows) < 2:
        raise ValueError(f"need at least two waypoints in {path}")
    return np.array(rows)


def builtin_data_path(name: str) -> Path:
    """Path of a bundled data file (e.g. 'aircraft.txt')."""
    candidate = resources.files("shapetrack").joinpath("data", name)
    with resources.as_file(candidate) as concrete:
        return Path(concrete)
