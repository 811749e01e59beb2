import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapetrack.config import (
    ConfigParseError,
    ConfigValidationError,
    apply_overrides,
    build_scenario,
    load_scenario_file,
    parse_config_text,
)

MINIMAL_ELLIPSE = {
    "target.kind": "ellipse",
    "target.center": "0 0",
    "target.semi_axes": "2 1",
    "tracker.family": "ellipse",
    "noise.std": "0.6",
    "counts.model": "fixed_per_step",
    "counts.value": "1",
    "prior.mean": "0.5 0.5 1.6 1.6 0.6",
    "prior.cov_diag": "3 3 0.5 0.5 0.5",
    "runs.n_steps": "10",
    "runs.n_runs": "2",
    "runs.seed": "42",
}


def with_keys(**changes):
    mapping = dict(MINIMAL_ELLIPSE)
    for key, value in changes.items():
        dotted = key.replace("__", ".")
        if value is None:
            mapping.pop(dotted, None)
        else:
            mapping[dotted] = value
    return mapping


# ---------------------------------------------------------------------------
# text parsing


def test_parse_basic_assignments():
    text = "a.b = 1\n# full comment\n\nc.d = hello  # trailing\n"
    assert parse_config_text(text) == {"a.b": "1", "c.d": "hello"}


def test_parse_later_assignment_wins():
    assert parse_config_text("a.b = 1\na.b = 2\n") == {"a.b": "2"}


def test_parse_rejects_line_without_equals():
    with pytest.raises(ConfigParseError, match="line 2|:2"):
        parse_config_text("a.b = 1\nnot an assignment\n")


def test_parse_rejects_malformed_key():
    with pytest.raises(ConfigParseError, match="malformed key"):
        parse_config_text("UPPER.case = 1\n")
    with pytest.raises(ConfigParseError, match="malformed key"):
        parse_config_text("nodots = 1\n")


def test_apply_overrides_merges_and_validates_syntax():
    merged = apply_overrides({"a.b": "1"}, ["a.b=2", "c.d=3"])
    assert merged == {"a.b": "2", "c.d": "3"}
    with pytest.raises(ConfigParseError):
        apply_overrides({}, ["missing equals"])


# ---------------------------------------------------------------------------
# scenario building


def test_build_minimal_ellipse_scenario():
    cfg = build_scenario(MINIMAL_ELLIPSE)
    assert cfg.tracker.shape_family == "ellipse"
    assert cfg.n_steps == 10 and cfg.n_runs == 2 and cfg.rng_seed == 42
    assert cfg.trajectory is None
    assert cfg.meas_count_model.kind == "fixed_per_step"
    assert_allclose(cfg.noise_mixture.mean_covariance, 0.36 * np.eye(2))
    assert_allclose(cfg.prior.mean, [0.5, 0.5, 1.6, 1.6, 0.6])
    # defaults
    assert cfg.tracker.trace_normalize is True
    assert cfg.tracker.batch_mode is False
    assert cfg.tracker.unscented.kappa is None
    assert cfg.tracker.scaling.mean == 0.5


def test_build_reports_unknown_keys():
    with pytest.raises(ConfigValidationError, match="tracker.typo"):
        build_scenario(with_keys(tracker__typo="1"))


def test_build_reports_missing_required_key():
    with pytest.raises(ConfigValidationError, match="prior.mean"):
        build_scenario(with_keys(prior__mean=None))


@pytest.mark.parametrize(
    "key, value, hint",
    [
        ("runs.n_steps", "many", "integer"),
        ("runs.seed", "1.5", "integer"),
        ("tracker.trace_normalize", "yes", "true or false"),
        ("tracker.family", "circle", "ellipse"),
        ("noise.std", "a b", "numbers"),
        ("dynamics.q1", "fast", "number"),
    ],
)
def test_build_reports_bad_values(key, value, hint):
    with pytest.raises(ConfigValidationError, match=hint):
        build_scenario(with_keys(**{key.replace(".", "__"): value}))


def test_ellipse_target_rejects_geometry_key():
    with pytest.raises(ConfigValidationError, match="polygon/group"):
        build_scenario(with_keys(target__geometry="aircraft.txt"))


def test_polygon_target_rejects_ellipse_keys():
    mapping = with_keys(
        target__kind="polygon", target__geometry="aircraft.txt", target__semi_axes=None
    )
    with pytest.raises(ConfigValidationError, match="ellipse targets only"):
        build_scenario(mapping)


def test_target_vector_lengths_checked():
    with pytest.raises(ConfigValidationError, match="two numbers"):
        build_scenario(with_keys(target__semi_axes="2 1 4"))
    with pytest.raises(ConfigValidationError, match="positive"):
        build_scenario(with_keys(target__semi_axes="2 0"))


def test_geometry_kind_mismatch_is_reported():
    mapping = with_keys(
        target__kind="polygon",
        target__geometry="group.txt",
        target__center=None,
        target__semi_axes=None,
    )
    with pytest.raises(ConfigValidationError, match="point_group"):
        build_scenario(mapping)


def test_geometry_file_not_found():
    mapping = with_keys(
        target__kind="polygon",
        target__geometry="not_a_real_file.txt",
        target__center=None,
        target__semi_axes=None,
    )
    with pytest.raises(ConfigValidationError, match="not found"):
        build_scenario(mapping)


def test_bundled_geometry_resolves_without_base_dir():
    mapping = with_keys(
        target__kind="polygon",
        target__geometry="aircraft.txt",
        target__center=None,
        target__semi_axes=None,
    )
    cfg = build_scenario(mapping)
    assert cfg.target.kind == "polygon"


def test_n_fourier_rejected_for_ellipse_family():
    with pytest.raises(ConfigValidationError, match="star_convex"):
        build_scenario(with_keys(tracker__n_fourier="5"))


def test_q2_rejected_for_static_model():
    with pytest.raises(ConfigValidationError, match="constant-velocity"):
        build_scenario(with_keys(dynamics__q2="0.005"))


def test_multi_level_noise_requires_probs():
    with pytest.raises(ConfigValidationError, match="noise.probs"):
        build_scenario(with_keys(noise__std="0.2 0.4"))


def test_noise_std_must_be_nonnegative():
    with pytest.raises(ConfigValidationError, match="nonnegative"):
        build_scenario(with_keys(noise__std="-0.2"))


def test_prior_vectors_must_align():
    with pytest.raises(ConfigValidationError, match="same length"):
        build_scenario(with_keys(prior__cov_diag="3 3 0.5"))
    with pytest.raises(ConfigValidationError, match="positive"):
        build_scenario(with_keys(prior__cov_diag="3 3 0.5 0.5 0"))


def test_prior_layout_mismatch_becomes_validation_error():
    with pytest.raises(ConfigValidationError, match="dimension"):
        build_scenario(with_keys(prior__mean="0 0 1", prior__cov_diag="1 1 1"))


def test_rotate_flag_requires_waypoints():
    with pytest.raises(ConfigValidationError, match="motion.waypoints"):
        build_scenario(with_keys(motion__rotate_with_heading="false"))


def test_moving_scenario_builds_trajectory():
    mapping = with_keys(
        motion__waypoints="flight_path.txt",
        dynamics__model="constant_velocity_plus_random_walk",
        dynamics__q1="0.0015",
        dynamics__q2="0.005",
        prior__mean="0 0 0.2 0 0.7 0.7 0",
        prior__cov_diag="1 1 0.25 0.25 0.5 0.5 0.5",
    )
    cfg = build_scenario(mapping)
    assert cfg.trajectory is not None
    assert len(cfg.trajectory) == cfg.n_steps
    assert cfg.rotate_with_heading is True


def test_scaling_overrides_replace_family_defaults():
    cfg = build_scenario(with_keys(scaling__mean="0.45", scaling__variance="0.1"))
    assert cfg.tracker.scaling.mean == 0.45
    assert cfg.tracker.scaling.variance == 0.1
    assert cfg.tracker.shape_family == "ellipse"


# ---------------------------------------------------------------------------
# files


def test_load_scenario_file_with_relative_geometry(tmp_path):
    geo = tmp_path / "square.txt"
    geo.write_text("0 0\n2 0\n2 2\n0 2\n")
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(
        "target.kind = polygon\n"
        "target.geometry = square.txt\n"
        "tracker.family = ellipse\n"
        "noise.std = 0.6\n"
        "counts.model = fixed_per_step\n"
        "counts.value = 1\n"
        "prior.mean = 0.5 0.5 1.6 1.6 0.6\n"
        "prior.cov_diag = 3 3 0.5 0.5 0.5\n"
        "runs.n_steps = 5\n"
        "runs.n_runs = 1\n"
        "runs.seed = 3\n"
    )
    cfg = load_scenario_file(cfg_file, overrides=["runs.n_steps=7"])
    assert cfg.target.kind == "polygon"
    assert cfg.n_steps == 7


def test_load_scenario_file_missing_is_parse_error(tmp_path):
    with pytest.raises(ConfigParseError, match="cannot read"):
        load_scenario_file(tmp_path / "absent.cfg")
