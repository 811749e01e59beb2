import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from shapetrack.ellipse import from_semi_axes
from shapetrack.gaussian import GaussianState
from shapetrack.simulate import (
    MeasurementCountModel,
    NoiseMixture,
    ScenarioConfig,
    Trajectory,
    run_scenario,
)
from shapetrack import svgplot
from shapetrack.svgplot import (
    ESTIMATE_STYLE,
    HEIGHT,
    MEASUREMENT_STYLE,
    WIDTH,
    overlay_svg,
    scenario_plots,
    snippet_svg,
)
from shapetrack.targets import ellipse_target
from shapetrack.tracker import DynamicsSpec, TrackerConfig, UnscentedSpread

SVG_NS = "{http://www.w3.org/2000/svg}"


def small_scenario(moving=False, n_steps=24):
    fields = dict(
        target=ellipse_target(from_semi_axes([0.0, 0.0], [2.0, 1.0], 0.3)),
        noise_mixture=NoiseMixture.isotropic([0.4]),
        meas_count_model=MeasurementCountModel("fixed_per_step", 2),
        n_steps=n_steps,
        n_runs=2,
        prior=GaussianState(
            np.array([0.5, 0.5, 1.6, 1.6, 0.6]),
            np.diag([3.0, 3.0, 0.5, 0.5, 0.5]),
        ),
        tracker=TrackerConfig(
            shape_family="ellipse",
            dynamics=DynamicsSpec("static_random_walk", q1=0.001),
        ),
        rng_seed=17,
    )
    if moving:
        waypoints = np.array([[0.0, 0.0], [6.0, 0.0], [6.0, 6.0]])
        fields["trajectory"] = Trajectory.from_waypoints(waypoints, n_steps)
        fields["prior"] = GaussianState(
            np.array([0.0, 0.0, 0.3, 0.0, 1.6, 1.6, 0.6]),
            np.diag([1.0, 1.0, 0.25, 0.25, 0.5, 0.5, 0.5]),
        )
        fields["tracker"] = TrackerConfig(
            shape_family="ellipse",
            dynamics=DynamicsSpec(
                "constant_velocity_plus_random_walk", step=1.0, q1=0.01, q2=0.01
            ),
            unscented=UnscentedSpread(kappa=0.0),
            batch_mode=True,
        )
    return ScenarioConfig(**fields)


STATIONARY = run_scenario(small_scenario())
MOVING = run_scenario(small_scenario(moving=True))


def element_counts(svg_text):
    root = ET.fromstring(svg_text)
    tags = [el.tag.removeprefix(SVG_NS) for el in root.iter()]
    return {tag: tags.count(tag) for tag in set(tags)}


def test_overlay_is_valid_svg_1_1():
    text = overlay_svg(STATIONARY)
    assert text.startswith("<?xml")
    root = ET.fromstring(text)
    assert root.tag == SVG_NS + "svg"
    assert root.get("version") == "1.1"
    assert root.get("viewBox") == f"0 0 {WIDTH} {HEIGHT}"


def test_overlay_layers():
    text = overlay_svg(STATIONARY)
    counts = element_counts(text)
    # truth outline + estimate outline
    assert counts["path"] == 2
    # one dot per run-0 measurement, 2 per step
    n_meas = sum(len(ys) for ys in STATIONARY.example_measurements)
    assert counts["circle"] == n_meas
    # legend: one swatch and one label per entry
    assert counts["rect"] == 1 + 3  # background + swatches
    assert counts["text"] == 3


def test_all_coordinates_inside_canvas():
    for _, text in scenario_plots(MOVING) + scenario_plots(STATIONARY):
        root = ET.fromstring(text)
        for el in root.iter():
            tag = el.tag.removeprefix(SVG_NS)
            if tag == "circle":
                xs = [float(el.get("cx"))]
                ys = [float(el.get("cy"))]
            elif tag == "path":
                nums = re.findall(r"-?\d+\.?\d*", el.get("d"))
                xs = [float(v) for v in nums[0::2]]
                ys = [float(v) for v in nums[1::2]]
            else:
                continue
            assert min(xs) >= 0.0 and max(xs) <= WIDTH
            assert min(ys) >= 0.0 and max(ys) <= HEIGHT


def test_scenario_plots_names():
    assert [name for name, _ in scenario_plots(STATIONARY)] == ["overlay.svg"]
    assert [name for name, _ in scenario_plots(MOVING)] == [
        "snippet_1.svg",
        "snippet_2.svg",
    ]


def test_snippet_selected_steps_are_drawn():
    steps = [4, 9, 14]
    text = snippet_svg(MOVING, steps)
    counts = element_counts(text)
    # one truth and one estimate outline per step, plus the trajectory dashes
    assert counts["path"] == 2 * len(steps) + 1
    # window label names the step range
    assert "steps 4-14" in text


@pytest.mark.parametrize("steps", [[], [24], [-1]])
def test_snippet_rejects_steps_outside_the_run(steps):
    # MOVING has 24 steps: an empty list or a step outside [0, 24) is refused
    with pytest.raises(ValueError, match="snippet steps"):
        snippet_svg(MOVING, steps)


@pytest.mark.parametrize("steps", [[14, 4], [4, 9, 9]])
def test_snippet_rejects_steps_out_of_order(steps):
    # the window runs from the first step to the last, so they must increase
    with pytest.raises(ValueError, match="strictly increasing"):
        snippet_svg(MOVING, steps)


def test_snippet_skips_steps_without_estimates():
    report = run_scenario(small_scenario(moving=True))
    report.mean_estimates[9] = np.nan
    text = snippet_svg(report, [4, 9, 14])
    # 3 truth outlines, 2 estimates, 1 trajectory: the NaN step keeps its
    # truth outline but contributes no estimate
    assert element_counts(text)["path"] == 3 + 2 + 1
    assert ESTIMATE_STYLE.split()[0] in text


def test_overlay_without_measurements_still_renders():
    report = run_scenario(small_scenario())
    report.example_measurements.clear()
    counts = element_counts(overlay_svg(report))
    assert counts.get("circle", 0) == 0
    assert counts["path"] == 2


def test_same_report_same_bytes():
    a = run_scenario(small_scenario(moving=True))
    b = run_scenario(small_scenario(moving=True))
    for (name_a, text_a), (name_b, text_b) in zip(
        scenario_plots(a), scenario_plots(b)
    ):
        assert name_a == name_b
        assert text_a == text_b


@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_element_lists_equal_per_point_formatting(n):
    # the one-call formats of _path and _dots against one f-string a point;
    # some pixel values round to -0.00 and some to 0.00
    rng = np.random.default_rng(n)
    frame = svgplot._Frame(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    px = rng.normal(0.0, 200.0, (n, 2))
    px[::3] = [-0.004, 0.004]
    points = np.c_[(px[:, 0] - frame.x0) / frame.scale, (frame.y0 - px[:, 1]) / frame.scale]
    exact = frame.to_px(points).tolist()
    if n:
        assert any(f"{v:.2f}" == "-0.00" for xy in exact for v in xy)
    for close in (False, True):
        coords = " L ".join(f"{x:.2f} {y:.2f}" for x, y in exact)
        want = f'<path d="M {coords}{" Z" if close else ""}" {ESTIMATE_STYLE}/>'
        assert svgplot._path(frame, points, ESTIMATE_STYLE, close) == want
    for radius in (2.0, 1.5):
        want = "\n".join(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius:.2f}" {MEASUREMENT_STYLE}/>'
            for x, y in exact
        )
        assert svgplot._dots(frame, points, radius) == want
