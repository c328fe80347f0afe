"""Minimal hand-rolled SVG line charts.

Plots are a convenience; the CSV files are the contract. No plotting
dependency, deterministic output.
"""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(round(t, 12))
        t += step
    return out


def line_chart(x: list[float], series: dict[str, list[float]],
               x_label: str = "") -> str:
    """SVG polyline chart of one or more y-series against x.

    None/NaN entries break the polyline.
    """
    finite = [v for ys in series.values() for v in ys
              if v is not None and math.isfinite(v)]
    if not finite or not x:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="720" '
                'height="480"><text x="20" y="40">no data</text></svg>')
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(finite), max(finite)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(v): return _ML + (v - x_lo) / (x_hi - x_lo) * pw
    def sy(v): return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" font-family="sans-serif" font-size="12">',
             f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
             f'fill="none" stroke="#333"/>']
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.2f}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                     f'y2="{py:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end">{t:g}</text>')
    if x_label:
        parts.append(f'<text x="{_ML + pw / 2:.2f}" y="{_H - 10}" '
                     f'text-anchor="middle">{x_label}</text>')
    for i, (name, ys) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        segs: list[list[str]] = [[]]
        for xv, yv in zip(x, ys):
            if yv is None or not math.isfinite(yv):
                if segs[-1]:
                    segs.append([])
                continue
            segs[-1].append(f"{sx(xv):.2f},{sy(yv):.2f}")
        for seg in segs:
            if len(seg) >= 2:
                parts.append(f'<polyline points="{" ".join(seg)}" '
                             f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + pw - 110}" y1="{ly - 4}" '
                     f'x2="{_ML + pw - 90}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + pw - 85}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
