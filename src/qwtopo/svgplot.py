"""Native SVG emission with fixed deterministic styling.

Plots are built from simple primitives so that identical data always
yields byte-identical files: coordinates are formatted with a fixed
precision, colors come from a fixed palette, and nothing depends on
wall-clock state or external plotting libraries.
"""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins


def _f(v: float) -> str:
    return f"{v:.2f}"


def _finite(values):
    arr = np.asarray(values, dtype=float).ravel()
    return arr[np.isfinite(arr)]


def _span(values, pad_frac=0.06):
    arr = _finite(values)
    if arr.size == 0:
        return 0.0, 1.0
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


class _Frame:
    """Axis frame mapping data coordinates onto the pixel canvas."""

    def __init__(self, x_span, y_span):
        self.x0, self.x1 = x_span
        self.y0, self.y1 = y_span

    def px(self, x):
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y):
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def axes(self, title, xlabel, ylabel):
        parts = [
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>'
        ]
        for i in range(5):
            xv = self.x0 + (self.x1 - self.x0) * i / 4
            yv = self.y0 + (self.y1 - self.y0) * i / 4
            xp, yp = self.px(xv), self.py(yv)
            parts.append(f'<line x1="{_f(xp)}" y1="{_H - _MB}" x2="{_f(xp)}" '
                         f'y2="{_H - _MB + 5}" stroke="#333"/>')
            parts.append(f'<text x="{_f(xp)}" y="{_H - _MB + 18}" font-size="11" '
                         f'text-anchor="middle">{xv:.3g}</text>')
            parts.append(f'<line x1="{_ML - 5}" y1="{_f(yp)}" x2="{_ML}" '
                         f'y2="{_f(yp)}" stroke="#333"/>')
            parts.append(f'<text x="{_ML - 8}" y="{_f(yp + 4)}" font-size="11" '
                         f'text-anchor="end">{yv:.3g}</text>')
        parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 14}" font-size="14" '
                     f'text-anchor="middle" font-weight="bold">{title}</text>')
        parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 14}" font-size="12" '
                     f'text-anchor="middle">{xlabel}</text>')
        parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 16 '
                     f'{(_MT + _H - _MB) / 2})">{ylabel}</text>')
        return parts


def _document(parts) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" '
            f'fill="white"/>\n{body}\n</svg>\n')


def line_plot(curves, title="", xlabel="", ylabel="") -> str:
    """Polyline plot; curves is a list of (xs, ys, label) triples.

    Points with non-finite y are skipped, breaking the line there.
    """
    all_x = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    all_y = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    frame = _Frame(_span(all_x), _span(all_y))
    parts = frame.axes(title, xlabel, ylabel)
    for ci, (xs, ys, label) in enumerate(curves):
        color = PALETTE[ci % len(PALETTE)]
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        run = []
        segments = []
        for x, y in zip(xs, ys):
            if np.isfinite(y):
                run.append(f"{_f(frame.px(x))},{_f(frame.py(y))}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) > 1:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            if np.isfinite(y):
                parts.append(f'<circle cx="{_f(frame.px(x))}" cy="{_f(frame.py(y))}" '
                             f'r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 18 + 16 * ci}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{label}</text>')
    return _document(parts)


def errorbar_plot(xs, means, stds, title="", xlabel="", ylabel="", label="") -> str:
    """Mean curve with vertical +-std bars."""
    xs = np.asarray(xs, dtype=float)
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    frame = _Frame(_span(xs), _span([means - stds, means + stds]))
    parts = frame.axes(title, xlabel, ylabel)
    color = PALETTE[0]
    for x, m, s in zip(xs, means, stds):
        xp = frame.px(x)
        parts.append(f'<line x1="{_f(xp)}" y1="{_f(frame.py(m - s))}" '
                     f'x2="{_f(xp)}" y2="{_f(frame.py(m + s))}" '
                     f'stroke="{color}" stroke-width="1"/>')
        for end in (m - s, m + s):
            yp = frame.py(end)
            parts.append(f'<line x1="{_f(xp - 4)}" y1="{_f(yp)}" x2="{_f(xp + 4)}" '
                         f'y2="{_f(yp)}" stroke="{color}" stroke-width="1"/>')
    pts = " ".join(f"{_f(frame.px(x))},{_f(frame.py(m))}" for x, m in zip(xs, means))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                 f'stroke-width="1.5"/>')
    for x, m in zip(xs, means):
        parts.append(f'<circle cx="{_f(frame.px(x))}" cy="{_f(frame.py(m))}" r="3" '
                     f'fill="{color}"/>')
    if label:
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 18}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    return _document(parts)


def _heat_color(v: float) -> str:
    """Fixed dark-blue -> yellow ramp for v in [0, 1]."""
    stops = ((13, 8, 135), (126, 3, 168), (204, 71, 120), (248, 149, 64),
             (240, 249, 33))
    v = min(max(float(v), 0.0), 1.0) * (len(stops) - 1)
    i = min(int(v), len(stops) - 2)
    f = v - i
    r, g, b = (round(a + (b_ - a) * f) for a, b_ in zip(stops[i], stops[i + 1]))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(matrix, title="", xlabel="", ylabel="", x_offset=0, y_offset=0) -> str:
    """Row 0 at the top; cell color scales with value / max."""
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    peak = float(m.max()) if m.size and m.max() > 0 else 1.0
    frame = _Frame((x_offset - 0.5, x_offset + cols - 0.5),
                   (y_offset + rows - 0.5, y_offset - 0.5))
    parts = frame.axes(title, xlabel, ylabel)
    cw = (_W - _ML - _MR) / cols
    ch = (_H - _MT - _MB) / rows
    size = f'width="{_f(cw + 0.5)}" height="{_f(ch + 0.5)}"'
    xs = [_f(_ML + j * cw) for j in range(cols)]
    values, index = np.unique(m / peak, return_inverse=True)
    colors = [_heat_color(v) for v in values.tolist()]
    for i, row in enumerate(index.reshape(rows, cols).tolist()):
        y = _f(_MT + i * ch)
        parts.extend(f'<rect x="{x}" y="{y}" {size} fill="{colors[k]}"/>'
                     for x, k in zip(xs, row))
    return _document(parts)
