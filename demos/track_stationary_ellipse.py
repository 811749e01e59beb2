"""Track a stationary elliptic target from scattered point measurements.

A single filter run against one noisy measurement per step: the true
ellipse never moves, the estimate starts from a deliberately wrong prior
and contracts onto the target. Prints a convergence table and the final
overlap with the truth.

    python demos/track_stationary_ellipse.py [seed]
"""

import sys

import numpy as np

from shapetrack import (
    GaussianState,
    Tracker,
    TrackerConfig,
    ellipse_target,
    from_semi_axes,
    generate_measurement,
    sample_measurement_sources,
    shape_iou,
)

TRUTH = from_semi_axes([1.0, 1.0], [2.0, 1.0], angle=0.5)
NOISE_COV = 0.6**2 * np.eye(2)
REPORT_AT = (1, 10, 50, 100, 200, 300)


def main(seed: int = 11) -> None:
    rng = np.random.default_rng(seed)
    target = ellipse_target(TRUTH)
    tracker = Tracker(
        TrackerConfig(shape_family="ellipse"),
        GaussianState(
            np.array([0.5, 0.5, 1.6, 1.6, 0.6]),
            np.diag([3.0, 3.0, 0.5, 0.5, 0.5]),
        ),
    )

    print("truth: center (1.00, 1.00), semi-axes 2.00 / 1.00, angle 0.50 rad")
    print(f"{'step':>5} {'center err':>11} {'semi-axes':>13} {'angle':>7} {'IoU':>6}")
    for step in range(1, 301):
        source = sample_measurement_sources(target, 1, rng)[0]
        y = generate_measurement(source, NOISE_COV, rng)
        tracker.update([y], [NOISE_COV])
        if step in REPORT_AT:
            est = tracker.shape_estimate()
            err = np.linalg.norm(est.center - TRUTH.center)
            axes = est.semi_axes
            print(
                f"{step:>5} {err:>11.3f} {axes[0]:>6.2f} / {axes[1]:<5.2f}"
                f"{est.orientation:>7.2f} {shape_iou(est, target):>6.3f}"
            )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
