"""Command-line entry point.

``shapetrack run <config> [--out DIR] [--seed N] [--set key=value]...``
executes a scenario file (a path, or the name of a bundled scenario) and
writes estimates.csv, summary.csv, and SVG overlay plots into the output
directory. ``shapetrack list`` prints the bundled scenario names.

Exit codes: 0 success; 2 the config cannot be read or parsed; 3 the
config parses but fails validation; 4 every Monte-Carlo run diverged.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .config import (
    ConfigParseError,
    ConfigValidationError,
    apply_overrides,
    build_scenario,
    parse_config_file,
)
from .simulate import ScenarioConfig, ScenarioReport, run_scenario
from .svgplot import scenario_plots

__all__ = ["main", "bundled_scenarios"]

OUT_DIR_ENV = "SHAPETRACK_OUT_DIR"
DEFAULT_OUT_BASE = "shapetrack_out"


def bundled_scenarios() -> dict:
    """Mapping of bundled scenario file name to its concrete path."""
    root = resources.files("shapetrack").joinpath("scenarios")
    found = {}
    for entry in root.iterdir():
        if entry.name.endswith(".cfg"):
            with resources.as_file(entry) as concrete:
                found[entry.name] = Path(concrete)
    return dict(sorted(found.items()))


def _resolve_config_path(name: str) -> Path:
    path = Path(name)
    if path.is_file():
        return path
    if path.parent == Path("."):
        bundled = bundled_scenarios().get(name)
        if bundled is not None:
            return bundled
    raise ConfigParseError(f"config file {name!r} not found")


def _resolve_out_dir(arg: str | None, config_path: Path) -> Path:
    if arg is not None:
        return Path(arg)
    base = os.environ.get(OUT_DIR_ENV, DEFAULT_OUT_BASE)
    return Path(base) / config_path.stem


def _state_columns(config: ScenarioConfig) -> list:
    cols = ["center_x", "center_y"]
    if config.tracker.dynamics.has_velocity:
        cols += ["velocity_x", "velocity_y"]
    if config.tracker.shape_family == "ellipse":
        cols += ["chol_a", "chol_b", "chol_c"]
    else:
        cols += [f"fourier_{i}" for i in range(config.tracker.shape_dim)]
    return cols


def _cell(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list, rows) -> None:
    """Write the header and then each row as it comes, so a generator of
    rows is never held in memory whole."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_outputs(report: ScenarioReport, out_dir: Path) -> list:
    """Write the CSVs and plots; returns the created file paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = report.config
    state_cols = _state_columns(config)
    created = []

    est_rows = (
        [str(k), str(r)]
        + [_cell(v) for v in report.estimates[r, k]]
        + [_cell(report.run_iou[r, k]), _cell(report.run_center_error[r, k])]
        for k in range(config.n_steps)
        for r in range(config.n_runs)
    )
    path = out_dir / "estimates.csv"
    _write_csv(path, ["step", "run"] + state_cols + ["iou", "center_error"], est_rows)
    created.append(path)

    sum_rows = (
        [str(k)]
        + [_cell(v) for v in report.mean_estimates[k]]
        + [_cell(report.mean_iou[k]), _cell(report.center_rmse[k])]
        for k in range(config.n_steps)
    )
    path = out_dir / "summary.csv"
    _write_csv(path, ["step"] + state_cols + ["mean_iou", "center_rmse"], sum_rows)
    created.append(path)

    for name, text in scenario_plots(report):
        path = out_dir / name
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        created.append(path)
    return created


def _cmd_run(args) -> int:
    try:
        config_path = _resolve_config_path(args.config)
        mapping = parse_config_file(config_path)
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"runs.seed={args.seed}")
        mapping = apply_overrides(mapping, overrides)
        scenario = build_scenario(mapping, base_dir=config_path.parent)
    except ConfigParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report = run_scenario(scenario)
    if scenario.n_steps and not report.completed.any():
        print(
            f"error: all {scenario.n_runs} runs diverged "
            f"(first at step {int(report.diverged_at.min())}); no outputs written",
            file=sys.stderr,
        )
        return 4

    out_dir = _resolve_out_dir(args.out, config_path)
    created = write_outputs(report, out_dir)
    for path in created:
        print(f"wrote {path}")
    if report.n_diverged:
        print(f"note: {report.n_diverged}/{scenario.n_runs} runs diverged")
    if scenario.n_steps and report.completed.any():
        final_iou = report.mean_iou[-1]
        if np.isfinite(final_iou):
            print(f"final mean IoU {final_iou:.4f}")
    return 0


def _cmd_list(_args) -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapetrack",
        description="Extended-object tracking scenarios: run config files, "
        "write CSV results and SVG shape overlays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config file")
    run_p.add_argument("config", help="config file path or bundled scenario name")
    run_p.add_argument(
        "--out",
        help=f"output directory (default: ${OUT_DIR_ENV} or ./{DEFAULT_OUT_BASE}, "
        "plus the config name)",
    )
    run_p.add_argument("--seed", type=int, help="override runs.seed")
    run_p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list bundled scenario configs")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
