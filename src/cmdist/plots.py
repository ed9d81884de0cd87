"""Static SVG plots: diagram scatter, distance-curve trace, contour grid.

Hand-rolled SVG so output is deterministic byte-for-byte; no plotting
dependency.
"""

from __future__ import annotations

import math

_W, _H, _PAD = 480, 480, 48


def _fmt(x: float) -> str:
    return format(x, ".6g")


class _Canvas:
    def __init__(self, x_range, y_range, title=""):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
            'fill="none" stroke="#444" stroke-width="1"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{_W // 2}" y="{_PAD - 14}" text-anchor="middle" '
                f'font-family="monospace" font-size="13">{title}</text>'
            )
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            xp, _ = self.to_px(xv, self.y0)
            _, yp = self.to_px(self.x0, yv)
            self.parts.append(
                f'<text x="{_fmt(xp)}" y="{_H - _PAD + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{_fmt(xv)}</text>'
            )
            self.parts.append(
                f'<text x="{_PAD - 6}" y="{_fmt(yp + 3)}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{_fmt(yv)}</text>'
            )

    def to_px(self, x, y):
        sx = _PAD + (x - self.x0) / (self.x1 - self.x0) * (_W - 2 * _PAD)
        sy = _H - _PAD - (y - self.y0) / (self.y1 - self.y0) * (_H - 2 * _PAD)
        return sx, sy

    def line(self, x0, y0, x1, y1, color="#888", width=1, dash=None):
        a = self.to_px(x0, y0)
        b = self.to_px(x1, y1)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
            f'stroke="{color}" stroke-width="{width}"{extra}/>'
        )

    def polyline(self, xs, ys, color="#1f4e9c", width=1.5):
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (self.to_px(x, y) for x, y in zip(xs, ys)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def dot(self, x, y, color="#b4231f", r=3.0):
        px, py = self.to_px(x, y)
        self.parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{r}" fill="{color}"/>')

    def marker_up(self, x, y, color="#b4231f", r=4.0):
        px, py = self.to_px(x, y)
        self.parts.append(
            f'<path d="M {_fmt(px - r)} {_fmt(py + r)} L {_fmt(px + r)} {_fmt(py + r)} '
            f'L {_fmt(px)} {_fmt(py - r)} Z" fill="{color}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _distinct(rows: list) -> list:
    """The first of each run of equal entries: one per distinct point of sorted rows."""
    return [row for i, row in enumerate(rows) if not i or row != rows[i - 1]]


def diagram_svg(diagram, path) -> None:
    """Scatter of birth/death pairs with the diagonal; essentials drawn as
    triangles pinned to the top edge."""
    finite = _distinct(diagram.finite.tolist())
    essential = _distinct(diagram.essential.tolist())
    coords = [b for b, _ in finite] + essential + [d for _, d in finite]
    lo = min(coords, default=0.0)
    hi = max(coords, default=1.0)
    span = (hi - lo) or 1.0
    lo, hi = lo - 0.1 * span, hi + 0.25 * span
    cv = _Canvas((lo, hi), (lo, hi), title=f"degree {diagram.degree} diagram")
    cv.line(lo, lo, hi, hi, color="#999", dash="4,3")
    for b, d in finite:
        cv.dot(b, d)
    for b in essential:
        cv.marker_up(b, hi - 0.05 * (hi - lo))
    with open(path, "w") as fh:
        fh.write(cv.render())


def trace_svg(trace, path, special_ts=(), title="g(t)") -> None:
    """Distance-curve evaluations against t, with special values marked."""
    pts = sorted((t, g) for t, g in trace if math.isfinite(g))
    gmax = max((g for _, g in pts), default=1.0)
    cv = _Canvas((0.0, 1.0), (0.0, gmax * 1.15 or 1.0), title=title)
    if pts:
        cv.polyline([t for t, _ in pts], [g for _, g in pts])
        for t, g in pts:
            cv.dot(t, g, color="#1f4e9c", r=1.6)
    for t in special_ts:
        cv.line(t, 0.0, t, gmax * 1.15 or 1.0, color="#b4231f", width=0.8, dash="2,3")
    with open(path, "w") as fh:
        fh.write(cv.render())


def contours_svg(contours, path, title="contour grid") -> None:
    """The planar contour curves on common axes."""
    xs = [x for c in contours for x in c.samples[:, 0]]
    ys = [y for c in contours for y in c.samples[:, 1]]
    lo = min(xs + ys, default=0.0)
    hi = max(xs + ys, default=1.0)
    span = (hi - lo) or 1.0
    cv = _Canvas((lo - 0.1 * span, hi + 0.1 * span), (lo - 0.1 * span, hi + 0.1 * span), title=title)
    palette = ("#1f4e9c", "#b4231f", "#1d7a33", "#8a4daa", "#b07a1e")
    for i, c in enumerate(contours):
        cv.polyline(c.samples[:, 0], c.samples[:, 1], color=palette[i % len(palette)])
    with open(path, "w") as fh:
        fh.write(cv.render())
