"""Scenario configuration files.

Flat, human-readable text: one ``key = value`` assignment per line, keys
in dotted sections (``tracker.family``), ``#`` starts a comment, blank
lines are ignored. Vector values are space-separated numbers. A later
assignment to the same key overrides an earlier one, which is also how
command-line ``key=value`` overrides are applied.

Two error layers so callers can distinguish exit codes: malformed text
raises ConfigParseError; well-formed text with unknown keys, bad values,
or inconsistent combinations raises ConfigValidationError.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .gaussian import GaussianState, UnscentedSpread
from .metrics import shape_polyline
from .simulate import (
    MeasurementCountModel,
    NoiseMixture,
    ScenarioConfig,
    Trajectory,
    check_report_size,
)
from .targets import (
    builtin_data_path,
    ellipse_target,
    load_geometry,
    load_waypoints,
)
from .ellipse import from_semi_axes
from .tracker import DynamicsSpec, ScalingModel, TrackerConfig

__all__ = [
    "ConfigParseError",
    "ConfigValidationError",
    "parse_config_file",
    "parse_config_text",
    "apply_overrides",
    "build_scenario",
    "load_scenario_file",
]

_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*(\.[a-z_][a-z0-9_]*)+$")


class ConfigParseError(ValueError):
    """The text is not a well-formed key/value file."""


class ConfigValidationError(ValueError):
    """The keys or values do not describe a valid scenario."""


def _split_assignment(line: str, where: str) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigParseError(f"{where}: expected 'key = value', got {line!r}")
    key, value = line.split("=", 1)
    key, value = key.strip(), value.strip()
    if not _KEY_RE.match(key):
        raise ConfigParseError(f"{where}: malformed key {key!r}")
    return key, value


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse assignments into an ordered {dotted key: raw string} mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _split_assignment(line, f"{source}:{lineno}")
        mapping[key] = value
    return mapping


def parse_config_file(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def apply_overrides(mapping: dict, overrides) -> dict:
    """Apply ``key=value`` strings on top of a parsed mapping."""
    merged = dict(mapping)
    for item in overrides:
        key, value = _split_assignment(item, "override")
        merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# typed value readers


def _bad(key: str, value: str, expected: str) -> ConfigValidationError:
    return ConfigValidationError(f"{key}: expected {expected}, got {value!r}")


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise _bad(key, value, "a number") from None


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _bad(key, value, "an integer") from None


def _as_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    raise _bad(key, value, "true or false")


def _as_floats(key: str, value: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in value.split()])
    except ValueError:
        raise _bad(key, value, "space-separated numbers") from None
    if vec.size == 0:
        raise _bad(key, value, "at least one number")
    return vec


def _as_choice(key: str, value: str, choices: tuple) -> str:
    if value not in choices:
        raise _bad(key, value, " or ".join(repr(c) for c in choices))
    return value


class _Reader:
    """Tracks key consumption so leftovers can be reported as unknown."""

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)

    def take(self, key: str, parse, default=None, required: bool = False):
        if key not in self.mapping:
            if required:
                raise ConfigValidationError(f"missing required key {key!r}")
            return default
        return parse(key, self.mapping.pop(key))

    def has(self, key: str) -> bool:
        return key in self.mapping

    def finish(self) -> None:
        if self.mapping:
            unknown = ", ".join(sorted(self.mapping))
            raise ConfigValidationError(f"unknown config keys: {unknown}")


def _resolve_data_file(key: str, name: str, base_dir: Path | None) -> Path:
    """Locate a geometry/waypoint file: absolute, next to the config, bundled."""
    p = Path(name)
    if p.is_absolute():
        if p.is_file():
            return p
    else:
        if base_dir is not None and (base_dir / p).is_file():
            return base_dir / p
        try:
            builtin = builtin_data_path(name)
            if builtin.is_file():
                return builtin
        except (FileNotFoundError, ModuleNotFoundError):
            pass
    raise ConfigValidationError(f"{key}: file {name!r} not found")


def _build_target(r: _Reader, base_dir: Path | None):
    kind = r.take(
        "target.kind",
        lambda k, v: _as_choice(k, v, ("ellipse", "polygon", "group")),
        required=True,
    )
    if kind == "ellipse":
        if r.has("target.geometry"):
            raise ConfigValidationError("target.geometry applies to polygon/group targets only")
        center = r.take("target.center", _as_floats, required=True)
        axes = r.take("target.semi_axes", _as_floats, required=True)
        angle = r.take("target.angle", _as_float, default=0.0)
        if center.shape != (2,) or axes.shape != (2,):
            raise ConfigValidationError("target.center and target.semi_axes need two numbers each")
        if np.any(axes <= 0):
            raise ConfigValidationError("target.semi_axes must be positive")
        return ellipse_target(from_semi_axes(center, axes, angle))

    for key in ("target.center", "target.semi_axes", "target.angle"):
        if r.has(key):
            raise ConfigValidationError(f"{key} applies to ellipse targets only")
    name = r.take("target.geometry", lambda k, v: v, required=True)
    target = load_geometry(_resolve_data_file("target.geometry", name, base_dir))
    expected = "polygon" if kind == "polygon" else "point_group"
    if target.kind != expected:
        raise ConfigValidationError(
            f"target.geometry: {name!r} holds a {target.kind} target, config says {kind}"
        )
    if kind == "group":
        # the group is scored through its convex hull, which needs an area
        try:
            shape_polyline(target)
        except ValueError as err:
            raise ConfigValidationError(f"target.geometry: {name!r}: {err}") from err
    return target


def _build_tracker(r: _Reader) -> TrackerConfig:
    family = r.take(
        "tracker.family",
        lambda k, v: _as_choice(k, v, ("ellipse", "star_convex")),
        required=True,
    )
    n_fourier = r.take("tracker.n_fourier", _as_int)
    if n_fourier is not None and family != "star_convex":
        raise ConfigValidationError("tracker.n_fourier applies to the star_convex family only")

    model = r.take(
        "dynamics.model",
        lambda k, v: _as_choice(
            k, v, ("static_random_walk", "constant_velocity_plus_random_walk")
        ),
        default="static_random_walk",
    )
    q2 = r.take("dynamics.q2", _as_float)
    if q2 is not None and model == "static_random_walk":
        raise ConfigValidationError("dynamics.q2 applies to the constant-velocity model only")
    dynamics = DynamicsSpec(
        model=model,
        step=r.take("dynamics.step", _as_float, default=1.0),
        q1=r.take("dynamics.q1", _as_float, default=0.0),
        q2=0.0 if q2 is None else q2,
    )

    base = (
        ScalingModel.squared_scale_uniform()
        if family == "ellipse"
        else ScalingModel.scale_default()
    )
    scaling = ScalingModel(
        base.variable,
        r.take("scaling.mean", _as_float, default=base.mean),
        r.take("scaling.variance", _as_float, default=base.variance),
    )

    spread = UnscentedSpread(
        alpha=r.take("tracker.ut_alpha", _as_float, default=1.0),
        beta=r.take("tracker.ut_beta", _as_float, default=0.0),
        kappa=r.take("tracker.ut_kappa", _as_float),
    )

    return TrackerConfig(
        shape_family=family,
        n_fourier=7 if n_fourier is None else n_fourier,
        scaling=scaling,
        trace_normalize=r.take("tracker.trace_normalize", _as_bool, default=True),
        batch_mode=r.take("tracker.batch", _as_bool, default=False),
        unscented=spread,
        dynamics=dynamics,
    )


def _build_noise(r: _Reader) -> NoiseMixture:
    stds = r.take("noise.std", _as_floats, required=True)
    if np.any(stds < 0):
        raise ConfigValidationError("noise.std entries must be nonnegative")
    probs = r.take("noise.probs", _as_floats)
    if probs is None:
        if len(stds) != 1:
            raise ConfigValidationError("noise.probs is required for multi-level noise")
        probs = np.array([1.0])
    return NoiseMixture.isotropic(stds, probs)


def _build_counts(r: _Reader) -> MeasurementCountModel:
    kind = r.take(
        "counts.model",
        lambda k, v: _as_choice(k, v, ("fixed_per_step", "shifted_poisson")),
        required=True,
    )
    value = r.take("counts.value", _as_float, required=True)
    try:
        return MeasurementCountModel(kind, value)
    except ValueError as err:
        raise ConfigValidationError(f"counts.value: {err}") from err


def _check_spread(tracker: TrackerConfig, counts: MeasurementCountModel) -> None:
    """Reject a sigma-point spread that has no sigma points in some update.

    d + lambda = alpha^2 (d + kappa) grows with the augmented dimension d,
    so it is checked at the smallest d the tracker uses: one measurement,
    or the fixed count when a batch update takes them all at once.
    """
    fixed_batch = tracker.batch_mode and counts.kind == "fixed_per_step"
    d = tracker.augmented_dim(int(counts.value) if fixed_batch else 1)
    scale, _ = tracker.unscented.scaling(d)
    if not scale > 0:
        raise ConfigValidationError(
            f"tracker.ut_alpha, tracker.ut_kappa: the sigma-point spread gives "
            f"d + lambda = {scale:g} at augmented dimension d = {d}; it must be positive"
        )


def build_scenario(mapping: dict, base_dir=None) -> ScenarioConfig:
    """Assemble a validated ScenarioConfig from a parsed key mapping.

    base_dir anchors relative geometry/waypoint file names (normally the
    config file's directory); bundled data files resolve as a fallback.

    Raises:
        ConfigValidationError: unknown keys, bad values, or a combination
            the scenario types reject (wrapped from their ValueErrors).
    """
    base_dir = None if base_dir is None else Path(base_dir)
    r = _Reader(mapping)
    try:
        target = _build_target(r, base_dir)
        tracker = _build_tracker(r)
        noise = _build_noise(r)
        counts = _build_counts(r)
        _check_spread(tracker, counts)

        mean = r.take("prior.mean", _as_floats, required=True)
        cov_diag = r.take("prior.cov_diag", _as_floats, required=True)
        if mean.shape != cov_diag.shape:
            raise ConfigValidationError(
                "prior.mean and prior.cov_diag must have the same length"
            )
        if np.any(cov_diag <= 0):
            raise ConfigValidationError("prior.cov_diag entries must be positive")
        try:
            prior = GaussianState(mean, np.diag(cov_diag))
        except ValueError as err:
            raise ConfigValidationError(f"prior.mean, prior.cov_diag: {err}") from err

        n_steps = r.take("runs.n_steps", _as_int, required=True)
        n_runs = r.take("runs.n_runs", _as_int, required=True)
        seed = r.take("runs.seed", _as_int, required=True)
        if seed < 0:
            raise _bad("runs.seed", str(seed), "a nonnegative integer")
        try:  # before a waypoint spline is built with n_steps poses
            check_report_size(n_runs, n_steps, prior.dim)
        except ValueError as err:
            raise ConfigValidationError(f"runs.n_steps: {err}") from err

        trajectory = None
        rotate = r.take("motion.rotate_with_heading", _as_bool)
        if r.has("motion.waypoints"):
            name = r.take("motion.waypoints", lambda k, v: v)
            path = _resolve_data_file("motion.waypoints", name, base_dir)
            if n_steps < 1:
                raise ConfigValidationError("runs.n_steps must be positive with motion.waypoints")
            try:
                trajectory = Trajectory.from_waypoints(load_waypoints(path), n_steps)
            except ValueError as err:
                raise ConfigValidationError(f"motion.waypoints: {name!r}: {err}") from err
        elif rotate is not None:
            raise ConfigValidationError(
                "motion.rotate_with_heading needs motion.waypoints"
            )
        r.finish()

        return ScenarioConfig(
            target=target,
            noise_mixture=noise,
            meas_count_model=counts,
            n_steps=n_steps,
            n_runs=n_runs,
            prior=prior,
            tracker=tracker,
            rng_seed=seed,
            trajectory=trajectory,
            rotate_with_heading=True if rotate is None else rotate,
        )
    except ConfigValidationError:
        raise
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc


def load_scenario_file(path, overrides=()) -> ScenarioConfig:
    """Parse a config file, apply overrides, and build the scenario."""
    path = Path(path)
    mapping = apply_overrides(parse_config_file(path), overrides)
    return build_scenario(mapping, base_dir=path.parent)
