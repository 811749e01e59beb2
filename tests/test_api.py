"""The public API: every exported name resolves, and the functions the
benchmark harness in perfbench/ traces, calls or reads keep their names and
parameters."""

import importlib
import inspect

import pytest

import shapetrack

MODULES = (
    "cli",
    "config",
    "ellipse",
    "gaussian",
    "metrics",
    "simulate",
    "starconvex",
    "svgplot",
    "targets",
    "tracker",
)

# Public functions with their parameters, in order. The first nine are the
# ones perfbench/run.py `probes()` takes work counts at; its tracer raises
# KeyError when one is missing, and the probes read arguments by position.
# The harness calls or times the next ones. When the probes move to the
# stacked kernels (ROADMAP item 1), update this list with them.
PERFBENCH_FUNCTIONS = {
    "gaussian.statistical_linearization_update": (
        "prior", "h", "noise_aug", "measurement", "spread"
    ),
    "gaussian.draw_sigma_points": ("state", "spread"),
    "gaussian.psd_repair": ("cov",),
    "tracker.Tracker.update": ("self", "measurements", "noise_covs"),
    "tracker.ellipse_pseudo_measurement": (
        "state", "measurement", "source_offset", "trace_normalize"
    ),
    "tracker.sc_pseudo_measurement": ("state", "measurement", "phi_hat", "n_coeffs"),
    "metrics.shape_iou": ("a", "b", "resolution"),
    "targets.sample_measurement_sources": ("target", "n", "rng"),
    "cli.write_outputs": ("report", "out_dir"),
    "cli.main": ("argv",),
    "cli.bundled_scenarios": (),
    "config.parse_config_file": ("path",),
    "config.apply_overrides": ("mapping", "overrides"),
    "config.build_scenario": ("mapping", "base_dir"),
    "simulate.run_scenario": ("config", "run_iou_resolution", "mean_iou_resolution"),
    "simulate.posed_target": ("config", "step"),
    "svgplot.scenario_plots": ("report",),
    "tracker.Tracker.predict": ("self",),
}
PERFBENCH_CONSTANTS = (
    "metrics.DEFAULT_RESOLUTION",
    "simulate.RUN_IOU_RESOLUTION",
    "simulate.MEAN_IOU_RESOLUTION",
)


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"shapetrack.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    mod = importlib.import_module(f"shapetrack.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_all_names_resolve():
    assert len(set(shapetrack.__all__)) == len(shapetrack.__all__)
    assert [name for name in shapetrack.__all__ if not hasattr(shapetrack, name)] == []


@pytest.mark.parametrize("dotted, params", PERFBENCH_FUNCTIONS.items())
def test_perfbench_functions_stay_public(dotted, params):
    fn = _resolve(dotted)
    assert inspect.isfunction(fn)
    # the tracer wraps only public functions defined in the layer's own module
    assert fn.__module__ == f"shapetrack.{dotted.split('.')[0]}"
    assert tuple(inspect.signature(fn).parameters) == params


def test_perfbench_class_and_constants_stay_public():
    assert inspect.isclass(shapetrack.gaussian.SigmaPointSet)
    for dotted in PERFBENCH_CONSTANTS:
        assert isinstance(_resolve(dotted), int)
