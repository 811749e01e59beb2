"""Extended-object tracking with random hypersurface models.

A target is modelled as a spatially extended region (ellipse or star-convex
Fourier contour) that emits noisy point measurements from randomly scaled
boundary curves. The package provides Gaussian-filter estimators for the
joint kinematic/shape state, ground-truth targets and measurement
simulation, shape-overlap metrics, and a scenario-driven command line
interface.
"""

from .config import (
    ConfigParseError,
    ConfigValidationError,
    apply_overrides,
    build_scenario,
    load_scenario_file,
    parse_config_file,
    parse_config_text,
)
from .ellipse import (
    EllipseParams,
    ellipse_boundary_point,
    ellipse_implicit,
    ellipse_scaled_implicit,
    from_semi_axes,
)
from .gaussian import (
    ConditioningError,
    GaussianState,
    SigmaPointSet,
    UnscentedSpread,
    DEFAULT_SPREAD,
    draw_sigma_points,
    psd_repair,
    statistical_linearization_update,
    symmetrize,
)
from .metrics import DEFAULT_RESOLUTION, shape_iou, shape_polyline
from .simulate import (
    MeasurementCountModel,
    NoiseMixture,
    ScenarioConfig,
    ScenarioReport,
    Trajectory,
    measurement_count,
    posed_target,
    run_scenario,
)
from .starconvex import (
    FourierShapeParams,
    angle_point_estimate,
    fit_fourier_coeffs,
    fourier_basis,
    radius,
    radius_validity,
    sc_boundary_point,
    sc_implicit,
    sc_scaled_implicit,
)
from .svgplot import overlay_svg, scenario_plots, snippet_svg
from .targets import (
    GroundTruthTarget,
    RejectionBudgetError,
    boundary_radius,
    builtin_data_path,
    ellipse_target,
    generate_measurement,
    group_target,
    load_geometry,
    load_waypoints,
    polygon_centroid,
    polygon_radius,
    psd_root,
    radial_fraction,
    sample_measurement_sources,
)
from .tracker import (
    DynamicsSpec,
    ScalingModel,
    Tracker,
    TrackerConfig,
    ellipse_pseudo_measurement,
    sc_pseudo_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # estimation core
    "ConditioningError",
    "GaussianState",
    "SigmaPointSet",
    "UnscentedSpread",
    "DEFAULT_SPREAD",
    "draw_sigma_points",
    "psd_repair",
    "statistical_linearization_update",
    "symmetrize",
    # shape families
    "EllipseParams",
    "ellipse_boundary_point",
    "ellipse_implicit",
    "ellipse_scaled_implicit",
    "from_semi_axes",
    "FourierShapeParams",
    "angle_point_estimate",
    "fit_fourier_coeffs",
    "fourier_basis",
    "radius",
    "radius_validity",
    "sc_boundary_point",
    "sc_implicit",
    "sc_scaled_implicit",
    # tracking filter
    "DynamicsSpec",
    "ScalingModel",
    "Tracker",
    "TrackerConfig",
    "ellipse_pseudo_measurement",
    "sc_pseudo_measurement",
    # ground truth and measurements
    "GroundTruthTarget",
    "RejectionBudgetError",
    "boundary_radius",
    "builtin_data_path",
    "ellipse_target",
    "generate_measurement",
    "group_target",
    "load_geometry",
    "load_waypoints",
    "polygon_centroid",
    "polygon_radius",
    "psd_root",
    "radial_fraction",
    "sample_measurement_sources",
    # metrics
    "DEFAULT_RESOLUTION",
    "shape_iou",
    "shape_polyline",
    # scenarios
    "MeasurementCountModel",
    "NoiseMixture",
    "ScenarioConfig",
    "ScenarioReport",
    "Trajectory",
    "measurement_count",
    "posed_target",
    "run_scenario",
    # configuration and plots
    "ConfigParseError",
    "ConfigValidationError",
    "apply_overrides",
    "build_scenario",
    "load_scenario_file",
    "parse_config_file",
    "parse_config_text",
    "overlay_svg",
    "scenario_plots",
    "snippet_svg",
]
