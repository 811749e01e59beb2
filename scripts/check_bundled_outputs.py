"""Fingerprint the CSV outputs of every bundled scenario.

Runs each bundled scenario through the CLI at a reduced size
(``runs.n_runs=3``, ``runs.n_steps=40``) into a temporary directory and
prints one ``<sha256>  <scenario>/<file>`` line per estimates.csv and
summary.csv. Saving the listing from one checkout and passing it to
``--against`` in another checks that a change keeps every output
byte-identical:

    PYTHONPATH=src python scripts/check_bundled_outputs.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python scripts/check_bundled_outputs.py --against before.txt

With ``--against``, every line that differs from the saved listing is
reported and the exit status is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from shapetrack import cli

REDUCED = ["--set", "runs.n_runs=3", "--set", "runs.n_steps=40"]
FILES = ("estimates.csv", "summary.csv")


def listing() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in cli.bundled_scenarios():
            out = Path(tmp) / Path(name).stem
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", name, "--out", str(out), *REDUCED])
            if code != 0:
                raise SystemExit(f"{name}: shapetrack run exited with {code}")
            for fname in FILES:
                digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{fname}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="saved listing to compare with")
    args = parser.parse_args(argv)
    current = listing()
    print("\n".join(current))
    if args.against is None:
        return 0
    saved = args.against.read_text().splitlines()
    if saved == current:
        print(f"all {len(current)} outputs match {args.against}", file=sys.stderr)
        return 0
    for line in sorted(set(saved) ^ set(current), key=lambda line: line.split()[::-1]):
        mark = "-" if line in saved else "+"
        print(f"{mark} {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
