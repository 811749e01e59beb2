"""Fingerprint the outputs of every bundled scenario.

Runs each bundled scenario through the CLI at a reduced size
(``runs.n_runs=3``, ``runs.n_steps=40``; ``--full`` keeps each config's own
sizes) into a temporary directory and prints one
``<sha256>  <scenario>/<file>`` line per estimates.csv and summary.csv, and
one per SVG plot the run wrote, in name order.
The listing starts with a ``# numpy <version>`` line, since the floats
(and so the hashes) can change with numpy and the OpenBLAS it bundles.
Saving the listing from one checkout and passing it to ``--against`` in
another checks that a change keeps every output byte-identical:

    PYTHONPATH=src python scripts/check_bundled_outputs.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python scripts/check_bundled_outputs.py --against before.txt

With ``--against``, every hash line that differs from the saved listing is
reported and the exit status is 1; a saved numpy version other than the
running one is reported too. The reduced-size listing is committed as
``tests/bundled_outputs.txt``, which ``tests/test_bundled_outputs.py``
checks; a change that alters an output regenerates it in the same commit
(``... check_bundled_outputs.py > tests/bundled_outputs.txt``).

``--keep DIR`` saves the hashed files as ``DIR/<scenario>/<file>``.
``--near DIR`` compares the current CSVs value by value with such a kept
tree: it prints the largest ``|Δ|`` and ``|Δ|/(1 + |x|)`` per file and
exits 1 when a relative difference exceeds 1e-12, when any ``iou`` or
``mean_iou`` cell changed at all, or when the tables differ in shape or
in a non-numeric cell. For a file over the tolerance or with a changed
``iou``/``mean_iou`` cell it also prints the step (and run, where the
file has one) of the first such row, where the change starts.

``--time`` prints each scenario's ``shapetrack run`` wall time, the
minor page faults the process took during it (the
``resource.getrusage(RUSAGE_SELF).ru_minflt`` delta around its
``cli.main`` call) and the process's peak resident set size after it
(``ru_maxrss``, which only grows, so a scenario that raises it holds the
peak so far), and then the totals as ``time total: ... s, ... minor
faults, peak RSS ... MB``, to standard error, so the listing and
``--against`` work as without it. The fault count of a scenario also
depends on what ran before it in the process, since the allocator keeps
or returns freed memory by its own history.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from shapetrack import cli

REDUCED = ["--set", "runs.n_runs=3", "--set", "runs.n_steps=40"]
FILES = ("estimates.csv", "summary.csv")
NEAR_TOL = 1e-12
EXACT_COLUMNS = ("iou", "mean_iou")
VERSION_LINE = f"# numpy {np.__version__}"


def listing(
    full: bool = False,
    keep: Path | None = None,
    near: Path | None = None,
    timed: bool = False,
):
    """Hash lines of every bundled output, and the problems found against ``near``."""
    lines, problems, total, total_faults = [], [], 0.0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.bundled_scenarios():
            out = Path(tmp) / Path(name).stem
            t0 = time.perf_counter()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", name, "--out", str(out), *([] if full else REDUCED)])
            if timed:
                elapsed = time.perf_counter() - t0
                usage = resource.getrusage(resource.RUSAGE_SELF)
                faults = usage.ru_minflt - faults
                total += elapsed
                total_faults += faults
                print(
                    f"time {name}: {elapsed:.3f} s, {faults} minor faults, "
                    f"peak RSS {_megabytes(usage.ru_maxrss)}",
                    file=sys.stderr,
                )
            if code != 0:
                raise SystemExit(f"{name}: shapetrack run exited with {code}")
            hashed = [*FILES, *sorted(p.name for p in out.glob("*.svg"))]
            for fname in hashed:
                digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{fname}")
            if near is not None:
                for fname in FILES:
                    kept = near / Path(name).stem / fname
                    problems += compare(kept, out / fname, f"{name}/{fname}")
            if keep is not None:
                dest = keep / Path(name).stem
                dest.mkdir(parents=True, exist_ok=True)
                for fname in hashed:
                    shutil.copyfile(out / fname, dest / fname)
    if timed:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(
            f"time total: {total:.3f} s, {total_faults} minor faults, "
            f"peak RSS {_megabytes(peak)}",
            file=sys.stderr,
        )
    return lines, problems


def _megabytes(maxrss: int) -> str:
    """ru_maxrss (kilobytes on Linux, bytes on macOS) in MB."""
    scale = 1 if sys.platform == "darwin" else 1024
    return f"{maxrss * scale / 1e6:.1f} MB"


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare(kept: Path, current: Path, label: str) -> list[str]:
    """Print the value-by-value distance of one CSV; return what breaks the check."""
    old, new = _rows(kept), _rows(current)
    if len(old) != len(new) or old[:1] != new[:1]:
        print(f"{label}: header or row count differs", file=sys.stderr)
        return [f"{label}: header or row count differs"]
    header = old[0]
    problems, max_abs, max_rel, iou_changed = [], 0.0, 0.0, 0
    first_bad = None  # the first row over the tolerance or with a changed iou cell
    for row_old, row_new in zip(old[1:], new[1:]):
        if len(row_old) != len(row_new):
            return [f"{label}: row length differs"]
        for col, a, b in zip(header, row_old, row_new):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                problems.append(f"{label}: {col} changed {a!r} -> {b!r}")
                continue
            if math.isnan(x) or math.isnan(y):
                problems.append(f"{label}: {col} changed {a!r} -> {b!r}")
                continue
            delta = abs(y - x)
            max_abs = max(max_abs, delta)
            max_rel = max(max_rel, delta / (1.0 + abs(x)))
            iou_changed += col in EXACT_COLUMNS
            if first_bad is None and (col in EXACT_COLUMNS or delta / (1.0 + abs(x)) > NEAR_TOL):
                first_bad = row_old
    print(
        f"{label}: max |d| {max_abs:.3g}  max |d|/(1+|x|) {max_rel:.3g}"
        f"  changed iou cells {iou_changed}",
        file=sys.stderr,
    )
    if max_rel > NEAR_TOL:
        problems.append(f"{label}: relative difference {max_rel:.3g} above {NEAR_TOL:g}")
    if iou_changed:
        problems.append(f"{label}: {iou_changed} iou cells changed")
    if first_bad is not None:
        keys = [key for key in ("step", "run") if key in header]
        where = "  ".join(f"{key} {first_bad[header.index(key)]}" for key in keys)
        print(f"{label}: first offending row: {where}", file=sys.stderr)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="saved listing to compare with")
    parser.add_argument("--full", action="store_true", help="run at the bundled sizes")
    parser.add_argument("--keep", type=Path, help="directory to save the CSVs in")
    parser.add_argument("--near", type=Path, help="kept CSV tree to compare values with")
    parser.add_argument(
        "--time", action="store_true", help="print each run's wall time and minor page faults"
    )
    args = parser.parse_args(argv)
    current, problems = listing(args.full, args.keep, args.near, args.time)
    print("\n".join([VERSION_LINE, *current]))
    for problem in problems:
        print(f"near: {problem}", file=sys.stderr)
    status = int(bool(problems))
    if args.against is None:
        return status
    saved = args.against.read_text().splitlines()
    versions = [line for line in saved if line.startswith("#")]
    if versions != [VERSION_LINE]:
        print(f"{args.against} records {versions}, running {VERSION_LINE!r}", file=sys.stderr)
    saved = [line for line in saved if not line.startswith("#")]
    if saved == current:
        print(f"all {len(current)} outputs match {args.against}", file=sys.stderr)
        return status
    for line in sorted(set(saved) ^ set(current), key=lambda line: line.split()[::-1]):
        mark = "-" if line in saved else "+"
        print(f"{mark} {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
