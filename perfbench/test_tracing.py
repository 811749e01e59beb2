"""Self-test of the benchmark's tracing: self-time arithmetic, exact work
counts and the metric catalogue. Run with ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import pytest

import run
import tracing

prog = run.import_program()


def test_self_time_and_own_layer_time_of_nested_spans():
    names = [
        "simulate.run_scenario",
        "tracker.Tracker.update",
        "ellipse.ellipse_closest_point",
        "gaussian.statistical_linearization_update",
        "tracker.ellipse_pseudo_measurement",
    ]
    # run_scenario [0, 10] > update [1, 9] > closest point [2, 3]
    #                                      > SL update [4, 8] > pseudo [5, 6]
    spans = [
        (0, 0.0, 10.0, -1, None),
        (1, 1.0, 9.0, 0, None),
        (2, 2.0, 3.0, 1, None),
        (3, 4.0, 8.0, 1, "d=8"),
        (4, 5.0, 6.0, 3, None),
    ]
    s = tracing.summarize(spans, names)
    assert s.layer_self == {"simulate": 2.0, "tracker": 4.0, "ellipse": 1.0, "gaussian": 3.0}
    assert sum(s.layer_self.values()) == s.root_time == 10.0
    # update minus the closest point and the SL update (which holds the pseudo-measurement)
    assert s.own_layer["tracker.Tracker.update"] == 3.0
    assert s.own_layer["gaussian.statistical_linearization_update"] == 3.0
    assert s.busy["tracker.Tracker.update"] == 8.0
    assert s.durations[("gaussian.statistical_linearization_update", "d=8")] == [4.0]


def _traced_pass(config_name, overrides):
    path = prog.cli.bundled_scenarios()[config_name]
    mapping = prog.config.apply_overrides(prog.config.parse_config_file(path), overrides)
    scenario = prog.config.build_scenario(mapping, base_dir=path.parent)
    tracer = tracing.Tracer(run.probes(prog.metrics))
    original = prog.simulate.run_scenario
    tracer.install()
    try:
        assert prog.simulate.run_scenario is not original
        report = prog.simulate.run_scenario(scenario)
        spans, counts, errors = tracer.take()
    finally:
        tracer.uninstall()
    assert prog.simulate.run_scenario is original
    summary = tracing.summarize(spans, tracer.names)
    values, _ = run.pass_layer_values(
        summary, counts, errors, prog.simulate.RUN_IOU_RESOLUTION, prog.simulate.MEAN_IOU_RESOLUTION
    )
    return report, summary, values


@pytest.mark.parametrize(
    "config_name, overrides",
    [
        ("stationary_ellipse_low.cfg", ["runs.n_runs=2", "runs.n_steps=6"]),
        ("moving_aircraft_ellipse.cfg", ["runs.n_runs=1", "runs.n_steps=6"]),
    ],
)
def test_work_counts_repeat_exactly(config_name, overrides):
    report, first, a = _traced_pass(config_name, overrides)
    _, second, b = _traced_pass(config_name, overrides)
    counts = [n for n, (_, kind) in run.PER_LAYER.items() if kind == "count" and n in a]
    assert counts
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert first.calls == second.calls
    n_steps = report.config.n_steps * report.config.n_runs
    assert a["tracker.update_calls"] == n_steps
    assert a["metrics.run_iou_calls"] == n_steps
    assert a["metrics.mean_iou_calls"] == report.config.n_steps
    assert a["tracker.measurements"] == a["targets.sources"]
    assert sum(first.layer_self.values()) == pytest.approx(first.root_time, rel=1e-9)
    assert a["tracker.update_self_s"] < a["tracker.update_s"]


def test_catalogue_matches_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: unit for n, (unit, _) in run.PER_LAYER.items()
    }
