"""Ground-truth targets: elliptic regions, star-convex polygons, point groups.

Targets produce measurement sources drawn uniformly over their extent
(uniformly among members for groups). For star-convex geometries the
radius function along a ray from the star center is exposed, which both
drives the rejection sampling and lets tests extract the radial scaling
fraction of each sample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
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

STAR_CHECK_GRID = 3600
MAX_REJECTION_ATTEMPTS = 10**6
# Points per call of an inside-or-out test (`_inside_extent`). The test of
# the bundled 12-edge polygon holds about 560 bytes a point, about 4.6 MB
# at the bound, however many runs draw in one rejection round.
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


def _ray_crossings(vertices: np.ndarray, center: np.ndarray, phi: np.ndarray):
    """Distances t >= 0 where rays center + t e(phi) cross polygon edges.

    Returns (t, hits): t of shape (len(phi),) holding the positive crossing
    distance per angle (nan where none), hits the number of crossings.
    Edge endpoints are treated half-open so shared vertices count once.
    """
    v = np.asarray(vertices, dtype=float)
    p = v
    u = np.roll(v, -1, axis=0) - v  # edge vectors
    w = p - center  # (E, 2)

    d = np.stack([np.cos(phi), np.sin(phi)], axis=-1)  # (A, 2)
    # Solve t d = w + tau u per (angle, edge) pair via 2D cross products.
    denom = d[:, None, 0] * u[None, :, 1] - d[:, None, 1] * u[None, :, 0]
    cross_wu = w[None, :, 0] * u[None, :, 1] - w[None, :, 1] * u[None, :, 0]
    cross_wd = w[None, :, 0] * d[:, None, 1] - w[None, :, 1] * d[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross_wu / denom
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
    hits = valid.sum(axis=1)
    t = np.where(valid, t, np.nan)
    t_first = np.where(hits > 0, np.nanmin(np.where(valid, t, np.inf), axis=1), np.nan)
    return t_first, hits


def polygon_radius(vertices: np.ndarray, center: np.ndarray, phi) -> np.ndarray:
    """Boundary distance from `center` along angle(s) phi for a star-convex polygon."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    t, hits = _ray_crossings(vertices, np.asarray(center, dtype=float), phi)
    if np.any(hits < 1):
        raise ValueError("ray misses the polygon boundary; geometry not star-convex")
    return t


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
    phi = np.linspace(0.0, 2 * np.pi, STAR_CHECK_GRID, endpoint=False)
    _, hits = _ray_crossings(vertices, center, phi)
    if np.any(hits != 1):
        bad = int(np.count_nonzero(hits != 1))
        raise ValueError(
            f"polygon is not star-convex about {center}: radius multi-valued or "
            f"undefined at {bad} of {STAR_CHECK_GRID} angles"
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


def _inside_extent(target: GroundTruthTarget, points) -> np.ndarray:
    """Whether each point (N, 2) lies in the extent (boundary included) of
    an ellipse or polygon target, tested INSIDE_TEST_POINTS points at a
    time. The test is pointwise, so the slicing changes no result."""
    inside = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), INSIDE_TEST_POINTS):
        part = slice(start, start + INSIDE_TEST_POINTS)
        if target.kind == "ellipse":
            inside[part] = ellipse_implicit(target.ellipse, points[part]) <= 0.0
        else:
            inside[part] = radial_fraction(target, points[part]) <= 1.0
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
    ``rng.uniform(lo, hi)``), in place, and are tested inside-or-out once
    per stretch of pairs with the same truth. Returns (sources, got): pair
    p's first got[p] = min(needs[p], inside points) points in draw order,
    pair after pair."""
    per_truth = len(draws) // len(truths)
    edges = np.cumsum([0, *map(len, draws)])  # the pairs' point ranges
    points = np.empty((edges[-1], 2))
    inside = np.ones(len(points), dtype=bool)
    firsts = [0] + [j for j in range(1, len(truths)) if truths[j] is not truths[j - 1]]
    for j, stop in zip(firsts, firsts[1:] + [len(truths)]):
        truth, pairs = truths[j], draws[j * per_truth : stop * per_truth]
        part = slice(edges[j * per_truth], edges[stop * per_truth])
        if truth.kind == "point_group":
            points[part] = truth.members[np.concatenate(pairs)]
        else:
            lo, hi = truth.bounding_box
            box = np.concatenate(pairs, out=points[part])
            box *= hi - lo
            box += lo
            inside[part] = _inside_extent(truth, box)
    found = np.concatenate(([0], np.cumsum(inside)))
    before = found[edges[:-1]]  # inside points before each pair's draws
    got = np.minimum(found[edges[1:]] - before, needs)
    # pair p's sources are the inside points numbered before[p] to before[p] + got[p]
    nth = np.repeat(before - (np.cumsum(got) - got), got) + np.arange(got.sum())
    return points[np.flatnonzero(inside)[nth]], got


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
