"""Smoke tests of the examples: the demo scripts and the README quick start
run to the end without an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shapetrack

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(shapetrack.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script", ["track_stationary_ellipse.py", "order_vs_batch.py", "aircraft_contour.py"]
)
def test_demo_runs(tmp_path, script):
    writes_svg = script == "aircraft_contour.py"
    args = ["--out", str(tmp_path)] if writes_svg else []
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if writes_svg:
        assert (tmp_path / "overlay.svg").is_file()


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    iou = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= iou <= 1.0
