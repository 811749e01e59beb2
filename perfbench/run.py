"""Scenario benchmark for shapetrack.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload ellipse_filter [--seed N] \
        [--seconds S] [--trace 0|1]

Each workload is a bundled scenario config, resolved and run the way
``shapetrack run <cfg> --seed N`` runs it: ``config`` parses and builds the
scenario, ``simulate.run_scenario`` runs the Monte-Carlo runs and scores
them, ``cli.write_outputs`` writes the CSVs and SVG plots. The program
under test is imported from ``src/`` of the same checkout.

Every run first executes the real command line (``shapetrack.cli.main``)
once as the reference and warm-up pass, then repeats the scenario for
``--seconds``. Every pass must write byte-identical ``estimates.csv`` and
``summary.csv`` to the reference; ``correct`` is false otherwise.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes, where every public
function of each package module is wrapped (see ``tracing.py``), and
reports per-layer times and work counts. The last line of standard output
is one JSON object; a record with the environment, output hashes and the
per-function table is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Single-threaded BLAS, here and in every child process; set before numpy loads.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS settings)

SETUP_REPEATS = 3
MIN_PASSES = 3

# Host-speed probe. The shared host at times runs the same code up to twice
# as slowly, for seconds to minutes (NOTES.md). A helper process pinned to
# the benchmark's CPU times a fixed ~0.3 ms kernel every 20 ms: a small
# Newton-like loop of 2-vectors, the kind of interpreter-bound numpy work
# the filter does. Each timed call is scaled by the mean kernel time during
# it, to the speed at which the kernel takes PROBE_REF_S; wall times are kept
# in the record. Kernel times over three times their median (the helper was
# preempted) are left out.
PROBE_REF_S = 0.00028
PROBE_CODE = """
import math, sys, time
import numpy as np
m = np.array([[1.0, 0.2], [0.0, 0.9]])
while True:
    t0 = time.perf_counter()
    theta = 0.3
    for _ in range(60):
        e = np.array([math.cos(theta), math.sin(theta)])
        u = m @ e - 0.5
        theta += 0.01 * float(u @ u)
    sys.stdout.write(f"{t0!r} {time.perf_counter() - t0!r}\\n")
    sys.stdout.flush()
    time.sleep(0.02)
"""


class HostProbe:
    """Samples the speed of the one CPU the benchmark and its children run on."""

    def __init__(self, samples: Path):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.samples = samples
        with open(samples, "w") as out:
            self.proc = subprocess.Popen([sys.executable, "-c", PROBE_CODE], stdout=out)
        deadline = time.perf_counter() + 60
        while not self._read() and time.perf_counter() < deadline:
            time.sleep(0.05)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)

    def _read(self) -> list:
        with open(self.samples) as fh:
            return [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference speed."""
        if self.proc.poll() is not None:
            raise RuntimeError("host probe exited")
        kernel = [d for t, d in self._read() if t0 <= t < t1]
        if not kernel:
            raise RuntimeError("no host probe sample during a timed call")
        cap = 3.0 * statistics.median(kernel)
        return (t1 - t0) * PROBE_REF_S / statistics.fmean(d for d in kernel if d <= cap)


@dataclass(frozen=True)
class Workload:
    config: str
    n_runs: int
    n_steps: int | None = None  # None keeps the config's own runs.n_steps

    def overrides(self, seed: int) -> list:
        out = [f"runs.seed={seed}", f"runs.n_runs={self.n_runs}"]
        if self.n_steps is not None:
            out.append(f"runs.n_steps={self.n_steps}")
        return out


# Why each workload, and why the sizes are below the bundled ones: NOTES.md.
# A pass takes 1-6 s, so a run of 25 s holds 4 to 20 passes.
WORKLOADS = {
    "ellipse_filter": Workload("stationary_ellipse_low.cfg", n_runs=4),
    "contour_scoring": Workload("stationary_aircraft_sc_low.cfg", n_runs=2, n_steps=20),
    "moving_batch": Workload("moving_aircraft_ellipse.cfg", n_runs=8),
}

END_TO_END = {
    "setup_s": "s",
    "scenario_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}

# name -> (unit, kind); kind "time" takes the median over traced passes,
# "count" must repeat exactly across passes, "call" pools per-call times.
PER_LAYER = {
    "metrics.run_iou_s": ("s", "time"),
    "metrics.run_iou_calls": ("count", "count"),
    "metrics.run_iou_p50_us": ("us", "call"),
    "metrics.run_iou_p99_us": ("us", "call"),
    "metrics.mean_iou_s": ("s", "time"),
    "metrics.mean_iou_calls": ("count", "count"),
    "metrics.mean_iou_p50_us": ("us", "call"),
    "metrics.mean_iou_p99_us": ("us", "call"),
    "metrics.cells": ("count", "count"),
    "metrics.zero_union": ("count", "count"),
    "tracker.update_s": ("s", "time"),
    "tracker.update_self_s": ("s", "time"),
    "tracker.update_calls": ("count", "count"),
    "tracker.measurements": ("count", "count"),
    "tracker.pseudo_meas_s": ("s", "time"),
    "tracker.pseudo_meas_rows": ("count", "count"),
    "tracker.predict_s": ("s", "time"),
    "tracker.degenerate_updates": ("count", "count"),
    "tracker.clamp_repairs": ("count", "count"),
    "gaussian.sl_update_s": ("s", "time"),
    "gaussian.sl_update_p50_us": ("us", "call"),
    "gaussian.sl_update_p99_us": ("us", "call"),
    "gaussian.aug_dim_mean": ("count", "count"),
    "gaussian.sigma_points": ("count", "count"),
    "gaussian.psd_repair_s": ("s", "time"),
    "gaussian.psd_jitters": ("count", "count"),
    "gaussian.kalman_predict_s": ("s", "time"),
    "ellipse.closest_point_s": ("s", "time"),
    "ellipse.closest_point_calls": ("count", "count"),
    "ellipse.closest_point_p50_us": ("us", "call"),
    "targets.sample_s": ("s", "time"),
    "targets.sample_calls": ("count", "count"),
    "targets.sources": ("count", "count"),
    "simulate.posed_target_s": ("s", "time"),
    "simulate.final_mean_iou": ("ratio", "count"),
    "simulate.final_center_rmse": ("m", "count"),
    "simulate.diverged_frac": ("ratio", "count"),
    "config.parse_s": ("s", "time"),
    "cli.write_s": ("s", "time"),
    "svgplot.plots_s": ("s", "time"),
    "cli.bytes_written": ("B", "count"),
    "trace.overhead_frac": ("ratio", "time"),
    "trace.self_sum_frac": ("ratio", "time"),
}
PER_LAYER.update({f"{layer}.self_s": ("s", "time") for layer in tracing.LAYERS if layer != "config"})


class SourceMissing(RuntimeError):
    pass


def import_program():
    """Import shapetrack from this checkout's src/, never from elsewhere."""
    if not (SRC / "shapetrack" / "__init__.py").is_file():
        raise SourceMissing(f"no shapetrack package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shapetrack

    if Path(shapetrack.__file__).resolve().parent != (SRC / "shapetrack").resolve():
        raise SourceMissing(f"imported shapetrack from {shapetrack.__file__}")
    from shapetrack import cli, config, metrics, simulate

    return SimpleNamespace(cli=cli, config=config, metrics=metrics, simulate=simulate)


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_head() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy

    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_head": _git_head(),
        "seed": seed,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


# ---------------------------------------------------------------------------
# set-up, passes and output checks

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from shapetrack.cli import bundled_scenarios
from shapetrack.config import apply_overrides, build_scenario, parse_config_file
path = bundled_scenarios()[sys.argv[2]]
build_scenario(apply_overrides(parse_config_file(path), sys.argv[3:]), base_dir=path.parent)
"""


def fresh_setup(workload: Workload, overrides: list) -> tuple[float, float]:
    """Start and end of a new interpreter importing shapetrack and building the scenario."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), workload.config, *overrides],
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=120,
    )
    return t0, time.perf_counter()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, prog, workload: Workload, seed: int, work_dir: Path):
        self.cli, self.config = prog.cli, prog.config
        self.metrics, self.simulate = prog.metrics, prog.simulate
        self.workload = workload
        self.seed = seed
        self.overrides = workload.overrides(seed)
        self.config_path = self.cli.bundled_scenarios()[workload.config]
        self.work_dir = work_dir
        self.reference: dict = {}
        self.problems: list[str] = []

    def build(self):
        cfg = self.config
        mapping = cfg.apply_overrides(cfg.parse_config_file(self.config_path), self.overrides)
        return cfg.build_scenario(mapping, base_dir=self.config_path.parent)

    def reference_pass(self) -> dict:
        """Run the command line itself; its CSVs are what every pass must match."""
        out = self.work_dir / "reference"
        argv = ["run", self.workload.config, "--seed", str(self.seed), "--out", str(out)]
        for item in self.overrides[1:]:
            argv += ["--set", item]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"shapetrack run exited with {code}")
        self.reference = {n: sha256(out / n) for n in ("estimates.csv", "summary.csv")}
        return self.reference

    def timed_pass(self, scenario):
        """run_scenario + write_outputs; returns (start, end, report)."""
        out = self.work_dir / "pass"
        t0 = time.perf_counter()
        report = self.simulate.run_scenario(scenario)
        self.cli.write_outputs(report, out)
        return t0, time.perf_counter(), report

    def check(self, scenario, report) -> dict:
        """Validate one pass's outputs; returns its quality figures."""
        out = self.work_dir / "pass"
        rows = (out / "summary.csv").read_text().splitlines()
        if len(rows) != scenario.n_steps + 1:
            self.problems.append(f"summary.csv has {len(rows) - 1} rows, want {scenario.n_steps}")
        done = report.run_iou[report.completed]
        if not (np.isfinite(done).all() and (done >= 0).all() and (done <= 1).all()):
            self.problems.append("a completed run has an IoU outside [0, 1] or not finite")
        hashes = {n: sha256(out / n) for n in self.reference}
        if hashes != self.reference:
            self.problems.append("pass outputs differ from `shapetrack run` outputs")
        header, last = rows[0].split(","), rows[-1].split(",")
        final = dict(zip(header, last))
        return {
            "final_mean_iou": float(final["mean_iou"]),
            "final_center_rmse": float(final["center_rmse"]),
            "diverged_frac": report.n_diverged / scenario.n_runs,
        }


def _percentile(values, q):
    return float(np.percentile(values, q)) * 1e6 if values else 0.0


def untraced_run(bench: Bench, probe: HostProbe, seconds: float) -> dict:
    setup_walls, setups = [], []
    for _ in range(SETUP_REPEATS):
        t0, t1 = fresh_setup(bench.workload, bench.overrides)
        setup_walls.append(t1 - t0)
        setups.append(probe.scaled(t0, t1))
    bench.reference_pass()
    walls, times, attempted, failed, quality = [], [], 0, 0, None
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        scenario = bench.build()
        t0, t1, report = bench.timed_pass(scenario)
        walls.append(t1 - t0)
        times.append(probe.scaled(t0, t1))
        attempted += scenario.n_runs
        failed += report.n_diverged
        quality = bench.check(scenario, report)
    scenario_s = statistics.median(times)
    n = scenario.n_runs * scenario.n_steps
    metrics = {
        "setup_s": statistics.median(setups),
        "scenario_s": scenario_s,
        "steps_per_s": n / scenario_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": 1.0 - failed / attempted,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "setup_wall_s": setup_walls,
        "setup_s": setups,
        "pass_wall_s": walls,
        "pass_s": times,
        "quality": quality,
    }


# ---------------------------------------------------------------------------
# traced run


def _shape_kind(shape) -> str:
    kind = getattr(shape, "kind", None)
    return f"truth_{kind}" if kind else type(shape).__name__


def probes(metrics_mod):
    """Work counts and call tags taken at the traced functions that have them."""
    Probe = tracing.Probe

    def iou(_, args, kwargs, result):
        res = kwargs.get("resolution", args[2] if len(args) > 2 else metrics_mod.DEFAULT_RESOLUTION)
        pair = f"{_shape_kind(args[0])}/{_shape_kind(args[1])}"
        return f"{res}:{pair}", {"metrics.cells": res * res}

    def sl_update(_, args, kwargs, result):
        d = args[0].dim + args[2].dim
        return f"d={d}", {"gaussian.aug_dim_sum": d}

    def sigma(_, args, kwargs, result):
        return None, {"gaussian.sigma_points": 2 * args[0].dim + 1}

    def psd(_, args, kwargs, result):
        cov = np.asarray(args[0], dtype=float)
        return None, {"gaussian.psd_jitters": int(not np.array_equal(result, 0.5 * (cov + cov.T)))}

    def rows(_, args, kwargs, result):
        return None, {"tracker.pseudo_meas_rows": 1 if np.ndim(args[0]) == 1 else len(args[0])}

    def update_before(args, kwargs):
        return args[0].degenerate_updates, args[0].clamp_repairs

    def update(before, args, kwargs, result):
        tracker = args[0]
        return None, {
            "tracker.measurements": len(args[1]),
            "tracker.degenerate_updates": tracker.degenerate_updates - before[0],
            "tracker.clamp_repairs": tracker.clamp_repairs - before[1],
        }

    def sources(_, args, kwargs, result):
        return None, {"targets.sources": int(args[1])}

    def written(_, args, kwargs, result):
        return None, {"cli.bytes_written": sum(Path(p).stat().st_size for p in result)}

    return {
        "metrics.shape_iou": Probe(iou),
        "gaussian.statistical_linearization_update": Probe(sl_update),
        "gaussian.draw_sigma_points": Probe(sigma),
        "gaussian.psd_repair": Probe(psd),
        "tracker.ellipse_pseudo_measurement": Probe(rows),
        "tracker.sc_pseudo_measurement": Probe(rows),
        "tracker.Tracker.update": Probe(update, before=update_before),
        "targets.sample_measurement_sources": Probe(sources),
        "cli.write_outputs": Probe(written),
    }


def pass_layer_values(summary, counts, errors, run_res, mean_res) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and its per-call durations."""
    busy, calls = summary.busy, summary.calls
    iou = {run_res: [0.0, 0, []], mean_res: [0.0, 0, []]}
    for (name, tag), durs in summary.durations.items():
        if name == "metrics.shape_iou" and tag not in (None, "error"):
            slot = iou.get(int(tag.split(":", 1)[0]))
            if slot is not None:
                slot[0] += sum(durs)
                slot[1] += len(durs)
                slot[2].extend(durs)
    sl_calls = calls.get("gaussian.statistical_linearization_update", 0)
    values = {
        "metrics.run_iou_s": iou[run_res][0],
        "metrics.run_iou_calls": iou[run_res][1],
        "metrics.mean_iou_s": iou[mean_res][0],
        "metrics.mean_iou_calls": iou[mean_res][1],
        "metrics.cells": counts.get("metrics.cells", 0),
        "metrics.zero_union": errors.get("metrics.shape_iou", 0),
        "tracker.update_s": busy.get("tracker.Tracker.update", 0.0),
        "tracker.update_self_s": summary.own_layer.get("tracker.Tracker.update", 0.0),
        "tracker.update_calls": calls.get("tracker.Tracker.update", 0),
        "tracker.measurements": counts.get("tracker.measurements", 0),
        "tracker.pseudo_meas_s": busy.get("tracker.ellipse_pseudo_measurement", 0.0)
        + busy.get("tracker.sc_pseudo_measurement", 0.0),
        "tracker.pseudo_meas_rows": counts.get("tracker.pseudo_meas_rows", 0),
        "tracker.predict_s": busy.get("tracker.Tracker.predict", 0.0),
        "tracker.degenerate_updates": counts.get("tracker.degenerate_updates", 0),
        "tracker.clamp_repairs": counts.get("tracker.clamp_repairs", 0),
        "gaussian.sl_update_s": busy.get("gaussian.statistical_linearization_update", 0.0),
        "gaussian.aug_dim_mean": counts.get("gaussian.aug_dim_sum", 0) / max(sl_calls, 1),
        "gaussian.sigma_points": counts.get("gaussian.sigma_points", 0),
        "gaussian.psd_repair_s": busy.get("gaussian.psd_repair", 0.0),
        "gaussian.psd_jitters": counts.get("gaussian.psd_jitters", 0),
        "gaussian.kalman_predict_s": busy.get("gaussian.kalman_predict", 0.0),
        "ellipse.closest_point_s": busy.get("ellipse.ellipse_closest_point", 0.0),
        "ellipse.closest_point_calls": calls.get("ellipse.ellipse_closest_point", 0),
        "targets.sample_s": busy.get("targets.sample_measurement_sources", 0.0),
        "targets.sample_calls": calls.get("targets.sample_measurement_sources", 0),
        "targets.sources": counts.get("targets.sources", 0),
        "simulate.posed_target_s": busy.get("simulate.posed_target", 0.0),
        "cli.write_s": busy.get("cli.write_outputs", 0.0),
        "svgplot.plots_s": busy.get("svgplot.scenario_plots", 0.0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
    }
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            values[name] = summary.layer_self.get(layer, 0.0)
    per_call = {
        "metrics.run_iou": iou[run_res][2],
        "metrics.mean_iou": iou[mean_res][2],
        "gaussian.sl_update": [
            d
            for (n, tag), durs in summary.durations.items()
            if n == "gaussian.statistical_linearization_update" and tag != "error"
            for d in durs
        ],
        "ellipse.closest_point": summary.durations.get(("ellipse.ellipse_closest_point", None), []),
    }
    return values, per_call


def function_table(summary) -> list:
    """Calls, busy time and per-call percentiles by (function, tag)."""
    rows = []
    for (name, tag), durs in sorted(summary.durations.items(), key=lambda kv: -sum(kv[1])):
        arr = np.asarray(durs)
        rows.append(
            {
                "function": name,
                "tag": tag,
                "calls": len(durs),
                "busy_s": float(arr.sum()),
                "p50_us": float(np.percentile(arr, 50)) * 1e6,
                "p99_us": float(np.percentile(arr, 99)) * 1e6,
            }
        )
    return rows


CONFIG_STEPS = ("parse_config_file", "apply_overrides", "build_scenario")


def traced_run(bench: Bench, probe: HostProbe, seconds: float) -> dict:
    tracer = tracing.Tracer(probes(bench.metrics))
    run_res = bench.simulate.RUN_IOU_RESOLUTION
    mean_res = bench.simulate.MEAN_IOU_RESOLUTION
    bench.reference_pass()
    plain, traced, passes, pooled = [], [], [], {}
    attempted = failed = 0
    quality, table, self_sums, parse_times = None, None, [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        scenario = bench.build()
        t0, t1, report = bench.timed_pass(scenario)
        plain.append(probe.scaled(t0, t1))
        attempted += scenario.n_runs
        failed += report.n_diverged
        bench.check(scenario, report)

        tracer.install()
        try:
            scenario = bench.build()
            cfg_summary = tracing.summarize(tracer.take()[0], tracer.names)
            t0, t1, report = bench.timed_pass(scenario)
            spans, counts, errors = tracer.take()
        finally:
            tracer.uninstall()
        attempted += scenario.n_runs
        failed += report.n_diverged
        traced.append(probe.scaled(t0, t1))
        quality = bench.check(scenario, report)
        summary = tracing.summarize(spans, tracer.names)
        parse_times.append(
            sum(cfg_summary.busy.get(f"config.{f}", 0.0) for f in CONFIG_STEPS)
        )
        self_sums.append(sum(summary.layer_self.values()) / (t1 - t0))
        values, per_call = pass_layer_values(summary, counts, errors, run_res, mean_res)
        passes.append(values)
        for key, durs in per_call.items():
            pooled.setdefault(key, []).extend(durs)
        if table is None:
            table = function_table(summary)

    out = {}
    for name, (_, kind) in PER_LAYER.items():
        if kind == "time" and name in passes[0]:
            out[name] = statistics.median([p[name] for p in passes])
        elif kind == "count" and name in passes[0]:
            seen = {p[name] for p in passes}
            if len(seen) != 1:
                bench.problems.append(f"{name} differs between passes: {sorted(seen)}")
            out[name] = passes[0][name]
    for name, (_, kind) in PER_LAYER.items():
        if kind == "call":
            key, _, pct = name.rpartition("_p")
            out[name] = _percentile(pooled[key], int(pct.removesuffix("_us")))
    out["config.parse_s"] = statistics.median(parse_times)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    out["trace.self_sum_frac"] = statistics.median(self_sums)
    for key in ("final_mean_iou", "final_center_rmse", "diverged_frac"):
        out[f"simulate.{key}"] = quality[key]
    return {
        "metrics": {name: out[name] for name in PER_LAYER},
        "attempted": attempted,
        "failed": failed,
        "traced_pass_s": traced,
        "untraced_pass_s": plain,
        "quality": quality,
        "functions": table,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="scenario seed (default: the config's runs.seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        prog = import_program()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        path = prog.cli.bundled_scenarios()[workload.config]
        seed = int(prog.config.parse_config_file(path)["runs.seed"])

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    probe = None
    try:
        probe = HostProbe(work_dir / "probe.txt")
        bench = Bench(prog, workload, seed, work_dir)
        if args.trace:
            result = traced_run(bench, probe, args.seconds)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            result = untraced_run(bench, probe, args.seconds)
            units = END_TO_END
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "config": workload.config,
        "overrides": bench.overrides,
        "trace": args.trace,
        "environment": environment(seed),
        "output_sha256": bench.reference,
        "problems": bench.problems,
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": result["metrics"],
    }
    record_path = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: {workload.config} {' '.join(bench.overrides)}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    for name, digest in bench.reference.items():
        print(f"  sha256 {name}: {digest}")
    for key in ("setup_wall_s", "pass_wall_s"):
        if key in result:
            print(f"  uncorrected median {key}: {statistics.median(result[key]):.6g} s")
    for key, value in (result.get("quality") or {}).items():
        print(f"  quality {key}: {value:.6g}")
    for name, value in result["metrics"].items():
        print(f"  {name}: {value:.6g} {units[name]}")
    for problem in bench.problems:
        print(f"  problem: {problem}")
    print(f"  record: {record_path.relative_to(ROOT)}")

    line = {
        "correct": not bench.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
