"""Every bundled scenario's outputs stay byte-identical to the committed listing.

`tests/bundled_outputs.txt` holds the reduced-size listing of
`scripts/check_bundled_outputs.py`: a ``# numpy <version>`` line, then one
sha256 per estimates.csv, summary.csv and SVG plot. A change that alters an
output regenerates it in the same commit:

    PYTHONPATH=src python scripts/check_bundled_outputs.py > tests/bundled_outputs.txt
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTING = Path(__file__).with_name("bundled_outputs.txt")


def _check_script():
    spec = importlib.util.spec_from_file_location(
        "check_bundled_outputs", ROOT / "scripts" / "check_bundled_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_outputs_match_the_committed_listing():
    header, *saved = LISTING.read_text().splitlines()
    recorded = header.removeprefix("# numpy ")
    if recorded != np.__version__:
        # other numpy builds (and the OpenBLAS they bundle) may round differently
        pytest.skip(f"listing recorded with numpy {recorded}, running numpy {np.__version__}")
    current, problems = _check_script().listing()
    assert not problems
    for want, got in zip(saved, current):
        assert got == want
    assert len(current) == len(saved)
