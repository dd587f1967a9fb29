"""Sign flips and transition widths of a scan line, read from its arrays.

A point of a scan is transitional where min(|Q0|, |Qpi|) < 0.25 or its
value is NaN (a degenerate gauge).  `swept` holds the angle each point
sweeps along the line, in scan order.
"""

import numpy as np

TRANSITIONAL = 0.25


def sign_flips(swept, q0, qpi) -> np.ndarray:
    """Swept-angle midpoints between consecutive points where sign(Q0 * Qpi)
    changes; points with a NaN or zero product are skipped."""
    sign = np.sign(q0 * qpi)
    keep = (sign != 0) & ~np.isnan(sign)
    sign, x = sign[keep], np.asarray(swept)[keep]
    return (0.5 * (x[:-1] + x[1:]))[sign[1:] != sign[:-1]]


def flip_width(swept, q0, qpi, center: float) -> float:
    """Swept-angle extent of the run of transitional points nearest to
    center, or one grid step where that run is a single point."""
    swept = np.asarray(swept)
    flags = ~(np.minimum(np.abs(q0), np.abs(qpi)) >= TRANSITIONAL)  # NaN counts
    edges = np.flatnonzero(np.diff(np.concatenate([[0], flags.astype(int), [0]])))
    runs = [(a, b - 1) for a, b in edges.reshape(-1, 2)]
    distance = [0.0 if swept[a] <= center <= swept[b]
                else min(abs(swept[a] - center), abs(swept[b] - center)) for a, b in runs]
    a, b = runs[int(np.argmin(distance))]
    return float(np.min(np.diff(swept))) if a == b else float(swept[b] - swept[a])
