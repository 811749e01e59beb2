import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from shapetrack import targets
from shapetrack.ellipse import EllipseParams, ellipse_implicit, from_semi_axes
from shapetrack.targets import (
    GroundTruthTarget,
    RejectionBudgetError,
    builtin_data_path,
    boundary_radius,
    ellipse_target,
    generate_measurement,
    group_target,
    load_geometry,
    load_waypoints,
    polygon_centroid,
    polygon_radius,
    polygon_target,
    radial_fraction,
    sample_measurement_sources,
    stacked_sample_sources,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
DIAMOND = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0], [0.0, -1.0]])


def disk_target(radius=1.0, center=(0.0, 0.0)):
    return ellipse_target(EllipseParams(center, [1.0 / radius, 1.0 / radius, 0.0]))


def aircraft_target():
    return load_geometry(builtin_data_path("aircraft.txt"))


# ---------------------------------------------------------------------------
# polygon geometry


def test_centroid_unit_square():
    assert_allclose(polygon_centroid(UNIT_SQUARE), [0.5, 0.5])


def test_centroid_orientation_invariant():
    assert_allclose(polygon_centroid(UNIT_SQUARE[::-1]), [0.5, 0.5])


def test_centroid_translated_diamond():
    assert_allclose(polygon_centroid(DIAMOND + [3.0, -2.0]), [3.0, -2.0], atol=1e-12)


def test_polygon_radius_square():
    c = np.array([0.5, 0.5])
    assert_allclose(polygon_radius(UNIT_SQUARE, c, 0.0), [0.5])
    assert_allclose(polygon_radius(UNIT_SQUARE, c, np.pi / 2), [0.5])
    assert_allclose(polygon_radius(UNIT_SQUARE, c, np.pi / 4), [np.sqrt(0.5)])


def test_polygon_radius_batch_matches_scalar():
    c = polygon_centroid(DIAMOND)
    phi = np.linspace(-np.pi, np.pi, 37)
    batch = polygon_radius(DIAMOND, c, phi)
    singles = [polygon_radius(DIAMOND, c, p)[0] for p in phi]
    assert_allclose(batch, singles)


def test_polygon_radius_points_lie_on_boundary():
    tgt = aircraft_target()
    c = tgt.anchor
    phi = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    r = polygon_radius(tgt.vertices, c, phi)
    pts = c + r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    # every boundary point must sit at radial fraction 1
    assert_allclose(radial_fraction(tgt, pts), 1.0, atol=1e-9)


def test_polygon_target_rejects_self_intersection():
    bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="self-intersect"):
        polygon_target(bowtie)


def test_polygon_target_rejects_non_star_convex():
    # deep notch pointing at the centroid makes the radius multi-valued
    notched = np.array(
        [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 0.4], [0.0, 3.0]]
    )
    with pytest.raises(ValueError, match="star-convex"):
        polygon_target(notched)


def test_polygon_target_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        polygon_target([[0.0, 0.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# target construction and rigid moves


def test_group_target_requires_members():
    with pytest.raises(ValueError):
        group_target(np.empty((0, 2)))


def test_anchor_per_kind():
    assert_allclose(disk_target(center=(2.0, 3.0)).anchor, [2.0, 3.0])
    assert_allclose(polygon_target(UNIT_SQUARE).anchor, [0.5, 0.5])
    grp = group_target([[0.0, 0.0], [2.0, 0.0]])
    assert_allclose(grp.anchor, [1.0, 0.0])


def test_anchor_computed_once_per_target():
    tgt = polygon_target(UNIT_SQUARE)
    assert tgt.anchor is tgt.anchor
    assert not tgt.anchor.flags.writeable
    moved = tgt.transformed(rotation=0.3, translation=[1.0, 2.0])
    assert_allclose(moved.anchor, [1.5, 2.5], atol=1e-12)


@pytest.mark.parametrize(
    "tgt",
    [polygon_target(UNIT_SQUARE), disk_target(2.0, (1.0, -1.0)), group_target(DIAMOND)],
    ids=["polygon", "ellipse", "group"],
)
def test_bounding_box_computed_once_and_read_only(tgt):
    lo, hi = tgt.bounding_box
    assert tgt.bounding_box[0] is lo and tgt.bounding_box[1] is hi
    for arr in (lo, hi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7.0
    pts = {"polygon": UNIT_SQUARE, "point_group": DIAMOND}.get(tgt.kind)
    if pts is None:
        pts = np.array([[-1.0, -3.0], [3.0, 1.0]])  # the disk's extremes
    assert_allclose(lo, pts.min(axis=0), rtol=0, atol=1e-15)
    assert_allclose(hi, pts.max(axis=0), rtol=0, atol=1e-15)


def test_transformed_polygon_rotates_about_centroid():
    tgt = polygon_target(UNIT_SQUARE)
    moved = tgt.transformed(rotation=np.pi / 2, translation=[1.0, 0.0])
    assert_allclose(polygon_centroid(moved.vertices), [1.5, 0.5])
    # corners stay at distance sqrt(0.5) from the new centroid
    d = np.linalg.norm(moved.vertices - [1.5, 0.5], axis=1)
    assert_allclose(d, np.sqrt(0.5))


def test_transformed_ellipse_preserves_axes():
    ell = from_semi_axes([1.0, -1.0], [2.0, 1.0], 0.3)
    moved = ellipse_target(ell).transformed(rotation=0.4, translation=[0.5, 0.5])
    assert_allclose(moved.ellipse.center, [1.5, -0.5])
    assert_allclose(moved.ellipse.semi_axes, [2.0, 1.0], rtol=1e-12)
    assert_allclose(moved.ellipse.orientation, 0.7, atol=1e-12)


def test_transformed_group_moves_members():
    grp = group_target([[1.0, 0.0], [-1.0, 0.0]])
    moved = grp.transformed(rotation=np.pi / 2, translation=[0.0, 2.0])
    assert_allclose(moved.members, [[0.0, 3.0], [0.0, 1.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# boundary radius / radial fraction


def test_boundary_radius_circle():
    tgt = disk_target(radius=2.5)
    phi = np.linspace(-np.pi, np.pi, 17)
    assert_allclose(boundary_radius(tgt, phi), 2.5)


def test_boundary_radius_ellipse_axes():
    ell = from_semi_axes([0.0, 0.0], [3.0, 1.0], 0.0)
    tgt = ellipse_target(ell)
    assert_allclose(boundary_radius(tgt, 0.0), [3.0])
    assert_allclose(boundary_radius(tgt, np.pi / 2), [1.0])


def test_boundary_radius_rejected_for_groups():
    grp = group_target([[0.0, 0.0]])
    with pytest.raises(ValueError):
        boundary_radius(grp, 0.0)


def test_radial_fraction_known_points():
    tgt = disk_target(radius=2.0)
    fracs = radial_fraction(tgt, [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    assert_allclose(fracs, [0.5, 1.0, 0.0])


# ---------------------------------------------------------------------------
# sampling


def test_sources_inside_ellipse():
    ell = from_semi_axes([1.0, 2.0], [2.0, 0.7], 0.9)
    tgt = ellipse_target(ell)
    rng = np.random.Generator(np.random.Philox(3))
    pts = sample_measurement_sources(tgt, 5000, rng)
    assert pts.shape == (5000, 2)
    assert np.all(ellipse_implicit(ell, pts) <= 0.0)
    assert_allclose(pts.mean(axis=0), [1.0, 2.0], atol=0.1)


def test_sources_inside_polygon():
    tgt = aircraft_target()
    rng = np.random.Generator(np.random.Philox(4))
    pts = sample_measurement_sources(tgt, 5000, rng)
    assert np.all(radial_fraction(tgt, pts) <= 1.0)


def test_group_sampling_uniform_over_members():
    members = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tgt = group_target(members)
    rng = np.random.Generator(np.random.Philox(5))
    pts = sample_measurement_sources(tgt, 9000, rng)
    # every sample is an exact member and each member appears about equally
    matches = (pts[:, None, :] == members[None, :, :]).all(axis=2)
    assert matches.any(axis=1).all()
    counts = matches.sum(axis=0)
    assert counts.min() > 2700

def test_single_member_group_sampling():
    tgt = group_target([[4.0, -1.0]])
    rng = np.random.Generator(np.random.Philox(6))
    assert_allclose(sample_measurement_sources(tgt, 1, rng)[0], [4.0, -1.0])


def test_sampling_deterministic_given_generator_state():
    tgt = disk_target()
    a = sample_measurement_sources(tgt, 100, np.random.Generator(np.random.Philox(9)))
    b = sample_measurement_sources(tgt, 100, np.random.Generator(np.random.Philox(9)))
    assert np.array_equal(a, b)


def test_zero_request_returns_empty():
    tgt = disk_target()
    rng = np.random.Generator(np.random.Philox(10))
    assert sample_measurement_sources(tgt, 0, rng).shape == (0, 2)


@pytest.mark.parametrize(
    "make", [lambda: disk_target(radius=1.0), aircraft_target], ids=["disk", "aircraft"]
)
def test_squared_radial_fraction_uniform(make):
    # uniform sources over a star-convex region put the squared radial
    # fraction on U[0, 1]; check with a moderate sample here (the full
    # 1e5-sample version runs in the acceptance suite)
    tgt = make()
    rng = np.random.Generator(np.random.Philox(12))
    pts = sample_measurement_sources(tgt, 20_000, rng)
    s2 = radial_fraction(tgt, pts) ** 2
    assert stats.kstest(s2, "uniform").pvalue > 0.01


def test_generate_measurement_zero_noise():
    rng = np.random.Generator(np.random.Philox(13))
    y = generate_measurement([1.0, 2.0], np.zeros((2, 2)), rng)
    assert_allclose(y, [1.0, 2.0])


def test_generate_measurement_noise_statistics():
    rng = np.random.Generator(np.random.Philox(14))
    cov = np.diag([0.36, 0.04])
    ys = np.array([generate_measurement([0.0, 0.0], cov, rng) for _ in range(4000)])
    assert_allclose(ys.mean(axis=0), [0.0, 0.0], atol=0.05)
    assert_allclose(ys.var(axis=0), [0.36, 0.04], rtol=0.15)


# ---------------------------------------------------------------------------
# geometry files


def test_builtin_aircraft_loads_as_polygon():
    tgt = aircraft_target()
    assert tgt.kind == "polygon"
    assert tgt.vertices.shape == (12, 2)


def test_builtin_group_loads_with_header():
    tgt = load_geometry(builtin_data_path("group.txt"))
    assert tgt.kind == "point_group"
    assert tgt.members.shape == (5, 2)


def test_load_geometry_roundtrip(tmp_path):
    path = tmp_path / "shape.txt"
    path.write_text("# comment\n0 0\n2 0  # trailing comment\n\n1 2\n")
    tgt = load_geometry(path)
    assert tgt.kind == "polygon"
    assert_allclose(tgt.vertices, [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])


def test_load_geometry_group_roundtrip(tmp_path):
    path = tmp_path / "members.txt"
    path.write_text("group\n0 0\n1 1\n")
    tgt = load_geometry(path)
    assert tgt.kind == "point_group"
    assert tgt.members.shape == (2, 2)


def test_load_geometry_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 2 3\n")
    with pytest.raises(ValueError, match="x y"):
        load_geometry(path)


def test_load_geometry_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError):
        load_geometry(path)


def test_load_waypoints():
    wp = load_waypoints(builtin_data_path("flight_path.txt"))
    assert wp.shape[0] >= 2 and wp.shape[1] == 2


def test_load_waypoints_rejects_single_point(tmp_path):
    path = tmp_path / "wp.txt"
    path.write_text("0 0\n")
    with pytest.raises(ValueError):
        load_waypoints(path)


# ---------------------------------------------------------------------------
# stacked sampling against one run at a time


def oracle_sample(target, n, rng):
    """The one-run sampler that the stacked one replaced, kept verbatim
    apart from returning its number of rejection rounds as well."""
    if target.kind == "point_group":
        return target.members[rng.integers(target.members.shape[0], size=n)].copy(), 0
    lo, hi = target.bounding_box
    out = np.empty((n, 2))
    filled = 0
    attempts = 0
    rounds = 0
    while filled < n:
        if attempts >= targets.MAX_REJECTION_ATTEMPTS:
            raise RejectionBudgetError(
                f"only {filled} of {n} interior points found in {attempts} draws"
            )
        chunk = min(max(4 * (n - filled), 64), 1 << 17)
        draws = rng.uniform(lo, hi, size=(chunk, 2))
        attempts += chunk
        rounds += 1
        if target.kind == "ellipse":
            inside = ellipse_implicit(target.ellipse, draws) <= 0.0
        else:
            inside = radial_fraction(target, draws) <= 1.0
        accepted = draws[inside]
        take = min(accepted.shape[0], n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out, rounds


def thin_sliver():
    # a 1%-area diamond along the diagonal of a 20 x 20 box: runs need
    # several rejection rounds, and different numbers of them
    return polygon_target([[-10.0, -10.0], [0.1, -0.1], [10.0, 10.0], [-0.1, 0.1]])


def stream_state(rng):
    return repr(rng.bit_generator.state)  # Philox keeps arrays in its state dict


def spawned_generators(n, seed=77):
    seeds = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(s)) for s in seeds]


SAMPLED_TARGETS = {
    "ellipse": lambda: ellipse_target(from_semi_axes([1.0, 2.0], [2.0, 0.7], 0.9)),
    "aircraft": aircraft_target,
    "thin_sliver": thin_sliver,
    "group": lambda: group_target([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
}


@pytest.mark.parametrize("name", SAMPLED_TARGETS)
def test_stacked_sampling_equals_one_run_at_a_time(name):
    target = SAMPLED_TARGETS[name]()
    counts = [3, 0, 40, 1, 17, 5, 2]
    rngs = spawned_generators(len(counts))
    oracle_rngs = copy.deepcopy(rngs)
    single_rngs = copy.deepcopy(rngs)
    got = stacked_sample_sources(target, counts, rngs)
    assert len(got) == len(counts)
    rounds = []
    for r, n in enumerate(counts):
        want, used = oracle_sample(target, n, oracle_rngs[r])
        rounds.append(used)
        assert got[r].shape == (n, 2)
        assert_array_equal(got[r], want)
        assert_array_equal(sample_measurement_sources(target, n, single_rngs[r]), want)
        # each stream is left exactly where the run alone leaves it
        assert stream_state(rngs[r]) == stream_state(oracle_rngs[r])
        assert stream_state(single_rngs[r]) == stream_state(oracle_rngs[r])
    if name == "thin_sliver":
        assert max(rounds) > 2 and len(set(rounds)) > 2


def test_stacked_sampling_with_no_runs_or_no_sources():
    assert stacked_sample_sources(thin_sliver(), [], []) == []
    rngs = spawned_generators(2)
    before = [stream_state(g) for g in rngs]
    got = stacked_sample_sources(thin_sliver(), [0, 0], rngs)
    assert [a.shape for a in got] == [(0, 2), (0, 2)]
    assert [stream_state(g) for g in rngs] == before
    with pytest.raises(ValueError, match="non-negative"):
        stacked_sample_sources(thin_sliver(), [1, -1], rngs)


def test_rejection_budget_is_per_run(monkeypatch):
    # run 1 cannot find 50 interior points of the sliver in 1000 draws; the
    # error names its own counts, as the run alone reports them
    monkeypatch.setattr(targets, "MAX_REJECTION_ATTEMPTS", 1000)
    rngs = spawned_generators(2)
    alone = copy.deepcopy(rngs[1])
    with pytest.raises(RejectionBudgetError) as stacked:
        stacked_sample_sources(thin_sliver(), [1, 50], rngs)
    with pytest.raises(RejectionBudgetError) as single:
        oracle_sample(thin_sliver(), 50, alone)
    assert str(stacked.value) == str(single.value)
    assert "of 50 interior points found in 1" in str(single.value)
    # a run that stays under the budget is not stopped by another's count
    got = stacked_sample_sources(thin_sliver(), [1, 1], spawned_generators(2))
    assert [a.shape for a in got] == [(1, 2), (1, 2)]
