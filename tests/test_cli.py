import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import shapetrack

from shapetrack import cli
from shapetrack.cli import bundled_scenarios, main
from shapetrack.config import load_scenario_file
from shapetrack.simulate import (
    MAX_MEASUREMENTS_PER_STEP,
    MAX_REPORT_BYTES,
    MAX_STEP_BYTES,
    STEP_BYTES_PER_D2,
    Trajectory,
    run_scenario,
)

REDUCED = ["--set", "runs.n_steps=12", "--set", "runs.n_runs=2"]


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# list


def test_list_names_all_bundles(capsys):
    assert run_cli("list") == 0
    names = capsys.readouterr().out.split()
    assert len(names) >= 8
    assert names == sorted(names)
    assert "stationary_ellipse_low.cfg" in names
    assert "moving_aircraft_ellipse.cfg" in names


def test_every_bundled_scenario_parses():
    scenarios = bundled_scenarios()
    assert len(scenarios) >= 8
    for path in scenarios.values():
        cfg = load_scenario_file(path)
        assert cfg.n_runs >= 1


# ---------------------------------------------------------------------------
# run: outputs


def test_run_writes_csvs_and_plot(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "stationary_ellipse_low.cfg", "--out", str(out), *REDUCED)
    assert code == 0
    header, rows = read_rows(out / "estimates.csv")
    assert header == [
        "step", "run", "center_x", "center_y", "chol_a", "chol_b", "chol_c",
        "iou", "center_error",
    ]
    assert len(rows) == 12 * 2
    header, rows = read_rows(out / "summary.csv")
    assert header[0] == "step" and header[-2:] == ["mean_iou", "center_rmse"]
    assert len(rows) == 12
    svg = (out / "overlay.svg").read_text()
    assert svg.startswith("<?xml") and 'version="1.1"' in svg
    assert "wrote" in capsys.readouterr().out


def test_run_moving_scenario_writes_snippets(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "moving_aircraft_ellipse.cfg", "--out", str(out),
        "--set", "runs.n_steps=24", "--set", "runs.n_runs=2",
    )
    assert code == 0
    assert (out / "snippet_1.svg").is_file()
    assert (out / "snippet_2.svg").is_file()
    header, rows = read_rows(out / "estimates.csv")
    assert "velocity_x" in header and len(rows) == 24 * 2


def test_run_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "stationary_ellipse_low.cfg", "--out", str(out_a), *REDUCED) == 0
    assert run_cli("run", "stationary_ellipse_low.cfg", "--out", str(out_b), *REDUCED) == 0
    for name in ("estimates.csv", "summary.csv", "overlay.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_changes_results(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "stationary_ellipse_low.cfg", "--out", str(out_a), *REDUCED)
    run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out_b), "--seed", "1", *REDUCED
    )
    assert (out_a / "estimates.csv").read_bytes() != (out_b / "estimates.csv").read_bytes()


def test_override_changes_run_without_editing_file(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "stationary_ellipse_low.cfg", "--out", str(out_a), *REDUCED)
    run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out_b), *REDUCED,
        "--set", "tracker.trace_normalize=false",
    )
    assert (out_a / "estimates.csv").read_bytes() != (out_b / "estimates.csv").read_bytes()


def test_env_var_sets_default_out_base(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHAPETRACK_OUT_DIR", str(tmp_path / "base"))
    assert run_cli("run", "stationary_ellipse_low.cfg", *REDUCED) == 0
    capsys.readouterr()
    expected = tmp_path / "base" / "stationary_ellipse_low"
    assert (expected / "estimates.csv").is_file()


# ---------------------------------------------------------------------------
# run: failure exits


def test_missing_file_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "definitely_absent.cfg", "--out", str(out))
    assert code == 2
    assert "not found" in capsys.readouterr().err
    assert not out.exists()


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not an assignment\n")
    assert run_cli("run", str(bad)) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


def test_validation_error_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out),
        "--set", "tracker.family=hexagon",
    )
    assert code == 3
    assert "tracker.family" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "noise.std=inf", "noise.std=nan", "noise.std=1e160", "dynamics.q1=nan", "dynamics.q1=inf",
        "scaling.mean=nan", "scaling.variance=inf", "tracker.ut_alpha=nan", "tracker.ut_beta=nan",
        "tracker.ut_kappa=inf", "counts.value=inf",
        pytest.param("prior.cov_diag=" + " ".join(["1e308"] * 5), id="prior.cov_diag=1e308"),
    ],
)
def test_non_finite_values_exit_3_without_outputs(tmp_path, capsys, override):
    # these passed validation and then crashed the run with a traceback, or
    # made every run diverge (exit 4)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(
            "run", "stationary_ellipse_low.cfg", "--out", str(out), "--set", override, *REDUCED
        )
    assert code == 3
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("batch", ["false", "true"])
def test_non_finite_poisson_mean_exits_3_naming_the_key(tmp_path, capsys, batch):
    # passed validation, then failed in the first Poisson draw with exit 1
    # (sequential) or exited 3 with a message naming no key (batch)
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out), "--set", f"tracker.batch={batch}",
        "--set", "counts.model=shifted_poisson", "--set", "counts.value=nan", *REDUCED,
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "counts.value" in err and "finite" in err
    assert not out.exists()


def test_negative_seed_exits_3_naming_the_key(tmp_path, capsys):
    # passed validation, then SeedSequence raised inside the run with exit 1
    out = tmp_path / "out"
    code = run_cli("run", "stationary_ellipse_low.cfg", "--out", str(out), "--seed", "-1", *REDUCED)
    assert code == 3
    assert "runs.seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "override,key",
    [
        ("tracker.ut_alpha=0", "tracker.ut_alpha"),
        ("tracker.ut_alpha=1e-200", "tracker.ut_alpha"),  # alpha^2 underflows to 0
        ("tracker.ut_kappa=-20", "tracker.ut_kappa"),
    ],
)
def test_spread_without_sigma_points_exits_3_without_outputs(tmp_path, capsys, override, key):
    # these passed validation and then died in the sigma-point draw with
    # "d + lambda = ... must be positive" and exit 1
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out), "--set", override, *REDUCED
    )
    assert code == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_spread_is_checked_at_the_smallest_update(tmp_path, capsys):
    # a batch update on a fixed 7 measurements augments the state to
    # d = 5 + 21, where kappa = -20 still leaves d + lambda = 6 > 0
    batch = ["--set", "tracker.batch=true", "--set", "counts.value=7"]
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out),
        "--set", "tracker.ut_kappa=-20", *batch, *REDUCED,
    )
    assert code == 0
    # Poisson counts reach a single measurement, d = 8, where it does not
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(tmp_path / "poisson"),
        "--set", "tracker.ut_kappa=-20", *batch, "--set", "counts.model=shifted_poisson",
        *REDUCED,
    )
    assert code == 3
    assert "d = 8" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["fixed_per_step", "shifted_poisson"])
def test_too_many_measurements_per_step_exit_3_before_any_run(
    tmp_path, capsys, monkeypatch, model
):
    # counts.value=1e9 passed validation and the first step asked for a
    # 14.9 GiB array; the bound is tested one above it, without a run
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out),
        "--set", f"counts.model={model}",
        "--set", f"counts.value={MAX_MEASUREMENTS_PER_STEP + 1}", *REDUCED,
    )
    assert code == 3
    assert "counts.value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, d",
    [
        # a fixed 100 per batch update: d = 5 + 3 * 100
        (["tracker.batch=true", "counts.value=100"], 305),
        # Poisson mean 100: sized for 1 + 100 + 6 * 10 = 161 measurements
        (["tracker.batch=true", "counts.model=shifted_poisson", "counts.value=100"], 488),
        # sequential updates take one measurement at a time: d = 5 + 3
        (["counts.value=100"], 8),
    ],
    ids=["batch_fixed", "batch_poisson", "sequential"],
)
def test_too_many_runs_for_one_step_exit_3_before_any_run(tmp_path, capsys, monkeypatch, mode, d):
    # runs.n_runs=2000 with 100 measurements per batch step passed
    # validation and then asked for about 20 GB; the bound is tested at the
    # last run count that fits and one above it, without a run
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    sets = [f"runs.n_runs={MAX_STEP_BYTES // (STEP_BYTES_PER_D2 * d * d)}", *mode]
    load_scenario_file(bundled_scenarios()["stationary_ellipse_low.cfg"], sets)
    sets[0] = f"runs.n_runs={MAX_STEP_BYTES // (STEP_BYTES_PER_D2 * d * d) + 1}"
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out),
        *[arg for s in sets for arg in ("--set", s)], "--set", "runs.n_steps=12",
    )
    assert code == 3
    assert f"n_runs = {sets[0].split('=')[1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, dim",
    [("stationary_ellipse_low.cfg", 5), ("moving_aircraft_ellipse.cfg", 7)],
    ids=["stationary", "waypoints"],
)
def test_too_many_steps_exit_3_before_any_run(tmp_path, capsys, monkeypatch, name, dim):
    # runs.n_steps=1000000000 passed validation and then asked for hundreds of
    # GB; the bound is tested one step above it, and the waypoint spline of
    # that many poses must not be built
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    def no_spline(cls, *args, **kwargs):
        raise AssertionError("the waypoint spline was built")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(Trajectory, "from_waypoints", classmethod(no_spline))
    n_steps = MAX_REPORT_BYTES // (8 * 2 * (dim + 2)) + 1
    out = tmp_path / "out"
    code = run_cli(
        "run", name, "--out", str(out),
        "--set", "runs.n_runs=2", "--set", f"runs.n_steps={n_steps}",
    )
    assert code == 3
    assert f"runs.n_steps: n_steps = {n_steps}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "waypoints",
    ["0 0\n1 0\n1 0\n3 1\n", "0 0\nnan 1\n3 1\n", "0 0\n1 inf\n3 1\n"],
    ids=["repeated", "nan", "inf"],
)
def test_bad_waypoints_exit_3_without_outputs(tmp_path, capsys, waypoints):
    (tmp_path / "path.txt").write_text(waypoints)
    out = tmp_path / "out"
    code = run_cli(
        "run", "moving_aircraft_ellipse.cfg", "--out", str(out),
        "--set", f"motion.waypoints={tmp_path / 'path.txt'}", *REDUCED,
    )
    assert code == 3
    assert "motion.waypoints" in capsys.readouterr().err
    assert not out.exists()


def test_collinear_group_exits_3_without_outputs(tmp_path, capsys):
    # a group with no hull area cannot be scored; it used to pass validation,
    # score every step 0 and crash while plotting after writing the CSVs
    (tmp_path / "line.txt").write_text("group\n0 0\n1 0\n2 0\n")
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_group_low.cfg", "--out", str(out),
        "--set", f"target.geometry={tmp_path / 'line.txt'}", *REDUCED,
    )
    assert code == 3
    assert "no area" in capsys.readouterr().err
    assert not out.exists()


def test_all_diverged_exits_4_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out),
        "--set", "prior.mean=2000000 0 1.6 1.6 0.6",
        "--set", "prior.cov_diag=0.1 0.1 0.1 0.1 0.1",
        "--set", "runs.n_steps=3", "--set", "runs.n_runs=2",
    )
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_runs_exit_4_without_outputs(tmp_path, capsys):
    # q1 = 1e308 is finite, but the covariance overflows: every run diverges
    out = tmp_path / "out"
    code = run_cli(
        "run", "stationary_ellipse_low.cfg", "--out", str(out),
        "--set", "dynamics.q1=1e308", *REDUCED,
    )
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# import cost


def test_cli_import_leaves_scipy_spatial_and_interpolate_unloaded():
    # point-group hulls import scipy.spatial on use; nothing imports scipy.interpolate
    code = (
        "import sys, shapetrack.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.spatial', 'scipy.interpolate'))))"
    )
    src = str(Path(shapetrack.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_moving_scenario_runs_without_scipy():
    # the waypoint spline is numpy only; scipy is loaded only for point-group hulls
    code = (
        "import sys\n"
        "from shapetrack.cli import bundled_scenarios\n"
        "from shapetrack.config import load_scenario_file\n"
        "from shapetrack.simulate import run_scenario\n"
        "cfg = load_scenario_file(bundled_scenarios()['moving_aircraft_ellipse.cfg'],"
        " ['runs.n_steps=3', 'runs.n_runs=2'])\n"
        "report = run_scenario(cfg)\n"
        "assert report.estimates.shape[:2] == (2, 3)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(shapetrack.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_write_outputs_memory_does_not_grow_with_the_runs(tmp_path):
    # the CSV rows are streamed to the files; building them all first took
    # 6x the memory for 10x the runs
    path = bundled_scenarios()["stationary_ellipse_low.cfg"]
    report = run_scenario(load_scenario_file(path, ["runs.n_runs=2"]))
    tiled = dataclasses.replace(
        report,
        config=dataclasses.replace(report.config, n_runs=20),
        estimates=np.tile(report.estimates, (10, 1, 1)),
        diverged_at=np.tile(report.diverged_at, 10),
        run_iou=np.tile(report.run_iou, (10, 1)),
        run_center_error=np.tile(report.run_center_error, (10, 1)),
    )
    peaks = []
    for name, rep in (("few", report), ("many", tiled)):
        tracemalloc.start()
        try:
            cli.write_outputs(rep, tmp_path / name)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "many" / "estimates.csv").read_text().count("\n") == 1 + 20 * 300
    assert peaks[1] < 2 * peaks[0]
