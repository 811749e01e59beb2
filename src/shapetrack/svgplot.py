"""Shape-overlay plots as self-contained SVG 1.1 documents.

Stationary scenarios get one overlay: the true shape outline, the
run-averaged final estimate (translucent fill), and every measurement of
run 0. Moving scenarios get two trajectory snippets, each overlaying
truth and mean estimate at a few evenly spaced steps along the window.
Output is plain generated markup with fixed number formatting, so equal
reports produce byte-equal documents.
"""

from __future__ import annotations

import numpy as np

from .metrics import shape_polyline
from .simulate import ScenarioReport, posed_target
from .tracker import shape_estimate

__all__ = ["overlay_svg", "snippet_svg", "scenario_plots"]

WIDTH = 640
HEIGHT = 520
MARGIN = 40.0

TRUTH_STYLE = 'fill="none" stroke="#222222" stroke-width="1.5"'
ESTIMATE_STYLE = (
    'fill="#4878a8" fill-opacity="0.35" stroke="#2f5f8f" stroke-width="1"'
)
MEASUREMENT_STYLE = 'fill="#b03030" fill-opacity="0.8"'
PATH_STYLE = 'fill="none" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """World-to-pixel transform: uniform scale, y axis flipped."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        xlo, ylo = pts.min(axis=0)
        xhi, yhi = pts.max(axis=0)
        span = max(xhi - xlo, yhi - ylo, 1e-9)
        self.scale = (min(WIDTH, HEIGHT) - 2.0 * MARGIN) / span
        # center the drawing in the canvas
        self.x0 = 0.5 * (WIDTH - self.scale * (xhi - xlo)) - self.scale * xlo
        self.y0 = 0.5 * (HEIGHT + self.scale * (yhi - ylo)) + self.scale * ylo

    def to_px(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty_like(pts)
        out[:, 0] = self.x0 + self.scale * pts[:, 0]
        out[:, 1] = self.y0 - self.scale * pts[:, 1]
        return out


def _path(frame: _Frame, points: np.ndarray, style: str, close: bool) -> str:
    coords = " L ".join(f"{x:.2f} {y:.2f}" for x, y in frame.to_px(points).tolist())
    tail = " Z" if close else ""
    return f'<path d="M {coords}{tail}" {style}/>'


def _dots(frame: _Frame, points: np.ndarray, radius: float = 2.0) -> list:
    r = _fmt(radius)
    return [
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" {MEASUREMENT_STYLE}/>'
        for x, y in frame.to_px(points).tolist()
    ]


def _legend(lines) -> list:
    out = []
    y = 22.0
    for swatch, label in lines:
        out.append(f'<rect x="14" y="{_fmt(y - 9)}" width="12" height="12" {swatch}/>')
        out.append(
            f'<text x="32" y="{_fmt(y + 2)}" font-family="sans-serif" '
            f'font-size="13" fill="#222222">{label}</text>'
        )
        y += 20.0
    return out


def _document(elements) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(elements) + "\n</svg>\n"


def _finite_steps(report: ScenarioReport, steps) -> list:
    return [
        int(k) for k in steps if np.isfinite(report.mean_estimates[k]).all()
    ]


def overlay_svg(report: ScenarioReport) -> str:
    """Stationary overlay: truth, final mean estimate, run-0 measurements."""
    cfg = report.config
    truth = shape_polyline(posed_target(cfg, 0) if cfg.n_steps else cfg.target)
    pieces = [truth]
    est = None
    finite = _finite_steps(report, range(cfg.n_steps))
    if finite:
        est = shape_polyline(shape_estimate(report.mean_estimates[finite[-1]], cfg.tracker))
        pieces.append(est)
    meas = (
        np.vstack(report.example_measurements)
        if report.example_measurements
        else np.empty((0, 2))
    )
    if meas.size:
        pieces.append(meas)
    frame = _Frame(np.vstack(pieces))

    elements = []
    if meas.size:
        elements.extend(_dots(frame, meas))
    if est is not None:
        elements.append(_path(frame, est, ESTIMATE_STYLE, close=True))
    elements.append(_path(frame, truth, TRUTH_STYLE, close=True))
    elements.extend(
        _legend(
            [
                (TRUTH_STYLE, "true shape"),
                (ESTIMATE_STYLE, "mean estimate"),
                (MEASUREMENT_STYLE, "measurements (run 0)"),
            ]
        )
    )
    return _document(elements)


def snippet_svg(report: ScenarioReport, steps) -> str:
    """Trajectory snippet: truth and mean estimate at the selected steps."""
    cfg = report.config
    steps = list(steps)
    shown = _finite_steps(report, steps)
    truths = [shape_polyline(posed_target(cfg, k)) for k in steps]
    ests = [shape_polyline(shape_estimate(report.mean_estimates[k], cfg.tracker)) for k in shown]
    lo, hi = steps[0], steps[-1]
    meas = [ys for k, ys in enumerate(report.example_measurements) if lo <= k <= hi]
    meas = np.vstack(meas) if meas else np.empty((0, 2))

    pieces = truths + ests
    if meas.size:
        pieces.append(meas)
    if cfg.trajectory is not None:
        pieces.append(cfg.trajectory.positions[lo : hi + 1])
    frame = _Frame(np.vstack(pieces))

    elements = []
    if cfg.trajectory is not None:
        elements.append(
            _path(frame, cfg.trajectory.positions[lo : hi + 1], PATH_STYLE, close=False)
        )
    if meas.size:
        elements.extend(_dots(frame, meas, radius=1.5))
    for est in ests:
        elements.append(_path(frame, est, ESTIMATE_STYLE, close=True))
    for truth in truths:
        elements.append(_path(frame, truth, TRUTH_STYLE, close=True))
    elements.extend(
        _legend(
            [
                (TRUTH_STYLE, f"true shape, steps {lo}-{hi}"),
                (ESTIMATE_STYLE, "mean estimate"),
                (MEASUREMENT_STYLE, "measurements (run 0)"),
            ]
        )
    )
    return _document(elements)


def scenario_plots(report: ScenarioReport) -> list:
    """(file name, svg text) pairs appropriate for the scenario kind."""
    cfg = report.config
    if cfg.trajectory is None or cfg.n_steps < 4:
        return [("overlay.svg", overlay_svg(report))]
    n = cfg.n_steps
    stride = max(1, n // 12)
    first = list(range(n // 6, n // 2, stride))
    second = list(range(n // 2, n, stride))
    return [
        ("snippet_1.svg", snippet_svg(report, first)),
        ("snippet_2.svg", snippet_svg(report, second)),
    ]
