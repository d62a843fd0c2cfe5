"""Minimal deterministic SVG line charts.

No plotting dependency: the outputs here are small result figures, and
hand-built SVG keeps bytes reproducible run to run. All coordinates are
formatted with fixed precision so identical data yields identical files.
"""
from __future__ import annotations

import math

__all__ = ["render_line_chart"]

PALETTE = ("#1f6fb2", "#d95f02", "#2a9d54", "#7b4baf")

WIDTH = 720.0
HEIGHT = 460.0
TICK_TARGET = 5  # ticks an axis aims for
MARGIN_LEFT = 64.0
MARGIN_RIGHT = 18.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 46.0


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis limits must be finite")
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= TICK_TARGET:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _label(value: float) -> str:
    return f"{value:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render labeled (x, y) series as a standalone SVG document string.

    Every series is a ``(label, xs, ys)`` triple with equal-length
    coordinate lists; at least one point must exist overall.
    """
    points = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not points:
        raise ValueError("nothing to plot")
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r} has mismatched x/y lengths")

    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(min(p[1] for p in points), 0.0)
    y_hi = max(p[1] for p in points)
    if x_hi <= x_lo:
        x_hi = x_lo + (abs(x_lo) if x_lo else 1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.05 * (y_hi - y_lo)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">'
    )
    out.append(f'<rect width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{_fmt(WIDTH / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#222">{_escape(title)}</text>'
        )

    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(MARGIN_TOP + plot_h)}" stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(MARGIN_TOP + plot_h + 18)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11" '
            f'fill="#444">{_label(tick)}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(MARGIN_LEFT + plot_w)}" y2="{_fmt(py)}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="#444">{_label(tick)}</text>'
        )

    frame = (
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" '
        f'stroke="#555" stroke-width="1"/>'
    )
    out.append(frame)

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if xs:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            if len(xs) <= 40:
                for x, y in zip(xs, ys):
                    out.append(
                        f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                        f'fill="{color}"/>'
                    )
        legend_y = MARGIN_TOP + 14 + 16 * i
        legend_x = MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{_fmt(legend_x)}" y1="{_fmt(legend_y - 4)}" '
            f'x2="{_fmt(legend_x + 22)}" y2="{_fmt(legend_y - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(legend_x + 28)}" y="{_fmt(legend_y)}" '
            f'font-family="sans-serif" font-size="11" fill="#222">{_escape(label)}</text>'
        )

    if x_label:
        out.append(
            f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'fill="#222">{_escape(x_label)}</text>'
        )
    if y_label:
        cx = 16.0
        cy = MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#222" '
            f'transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">{_escape(y_label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
