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
    px = frame.to_px(points)
    # one format call for all points; %.2f writes the text {:.2f} does
    coords = " L ".join(["%.2f %.2f"] * len(px)) % tuple(px.ravel().tolist())
    tail = " Z" if close else ""
    return f'<path d="M {coords}{tail}" {style}/>'


def _dots(frame: _Frame, points: np.ndarray, radius: float) -> str:
    """One circle element a point, one per line, from one format call."""
    px = frame.to_px(points)
    dot = f'<circle cx="%.2f" cy="%.2f" r="{_fmt(radius)}" {MEASUREMENT_STYLE}/>'
    return "\n".join([dot] * len(px)) % tuple(px.ravel().tolist())


def _figure(truths, ests, meas, radius, truth_label, path=None) -> str:
    """One SVG document: the dashed path (if any), the measurement dots,
    the estimate fills and the truth outlines, in that order, framed to
    all of them, and the three-line legend."""
    paths = [] if path is None else [path]
    frame = _Frame(np.vstack(truths + ests + [meas] + paths))
    elements = [_path(frame, p, PATH_STYLE, close=False) for p in paths]
    if meas.size:
        elements.append(_dots(frame, meas, radius))
    elements += [_path(frame, est, ESTIMATE_STYLE, close=True) for est in ests]
    elements += [_path(frame, truth, TRUTH_STYLE, close=True) for truth in truths]
    legend = [
        (TRUTH_STYLE, truth_label),
        (ESTIMATE_STYLE, "mean estimate"),
        (MEASUREMENT_STYLE, "measurements (run 0)"),
    ]
    y = 22.0
    for swatch, label in legend:
        elements.append(f'<rect x="14" y="{_fmt(y - 9)}" width="12" height="12" {swatch}/>')
        elements.append(
            f'<text x="32" y="{_fmt(y + 2)}" font-family="sans-serif" '
            f'font-size="13" fill="#222222">{label}</text>'
        )
        y += 20.0
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(elements) + "\n</svg>\n"


def _finite_steps(report: ScenarioReport, steps) -> list:
    steps = np.asarray(steps, dtype=int)
    return steps[np.isfinite(report.mean_estimates[steps]).all(axis=1)].tolist()


def _stacked(points: list) -> np.ndarray:
    return np.vstack(points) if points else np.empty((0, 2))


def overlay_svg(report: ScenarioReport) -> str:
    """Stationary overlay: truth, final mean estimate, run-0 measurements."""
    cfg = report.config
    truth = shape_polyline(posed_target(cfg, 0) if cfg.n_steps else cfg.target)
    last = _finite_steps(report, range(cfg.n_steps))[-1:]
    ests = [shape_polyline(shape_estimate(report.mean_estimates[k], cfg.tracker)) for k in last]
    return _figure([truth], ests, _stacked(report.example_measurements), 2.0, "true shape")


def snippet_svg(report: ScenarioReport, steps) -> str:
    """Trajectory snippet: truth and mean estimate at the selected steps.

    Raises:
        ValueError: if steps is empty, not strictly increasing, or a step
            lies outside [0, n_steps).
    """
    cfg = report.config
    steps = list(steps)
    increasing = all(a < b for a, b in zip(steps, steps[1:]))
    if not (steps and increasing and 0 <= steps[0] and steps[-1] < cfg.n_steps):
        raise ValueError(
            f"snippet steps must be a non-empty, strictly increasing list in [0, {cfg.n_steps})"
        )
    truths = [shape_polyline(posed_target(cfg, k)) for k in steps]
    ests = [
        shape_polyline(shape_estimate(report.mean_estimates[k], cfg.tracker))
        for k in _finite_steps(report, steps)
    ]
    lo, hi = steps[0], steps[-1]
    meas = _stacked([ys for k, ys in enumerate(report.example_measurements) if lo <= k <= hi])
    path = None if cfg.trajectory is None else cfg.trajectory.positions[lo : hi + 1]
    return _figure(truths, ests, meas, 1.5, f"true shape, steps {lo}-{hi}", path)


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
