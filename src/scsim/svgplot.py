"""Minimal deterministic SVG line charts.

No plotting dependency: the outputs here are small result figures, and
hand-built SVG keeps bytes reproducible run to run. All coordinates are
formatted with fixed precision so identical data yields identical files.
One writer, ``_tag``, spells every element below the ``<svg>`` root.
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
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


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


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tag(name: str, body: str | None = None, /, **attrs) -> str:
    """One element with ``attrs`` in the order given, ``_`` in their names spelled ``-``.

    Floats are written with ``_fmt``, other values as given; an element
    without ``body`` closes itself, and a body is escaped.
    """
    spelled = " ".join(
        f'{key.replace("_", "-")}="{_fmt(value) if isinstance(value, float) else value}"'
        for key, value in attrs.items()
    )
    if body is None:
        return f"<{name} {spelled}/>"
    return f"<{name} {spelled}>{_escape(body)}</{name}>"


def _text(
    body: str, x: float, y: float | int, size: int, fill: str = "#222", anchor: str | None = None, **after
) -> str:
    """Sans-serif text; ``anchor`` goes before the font attributes, ``after`` behind them."""
    lead = {"text_anchor": anchor} if anchor else {}
    return _tag("text", body, x=x, y=y, **lead, font_family="sans-serif", font_size=size, fill=fill, **after)


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: int) -> str:
    return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=width)


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

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def sy(y: float) -> float:
        return MARGIN_TOP + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        _tag("rect", width=WIDTH, height=HEIGHT, fill="white"),
    ]
    if title:
        out.append(_text(title, WIDTH / 2, 20, 15, anchor="middle"))

    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(_line(px, MARGIN_TOP, px, MARGIN_TOP + PLOT_H, "#ddd", 1))
        out.append(_text(f"{tick:.6g}", px, MARGIN_TOP + PLOT_H + 18, 11, fill="#444", anchor="middle"))
    for tick in _nice_ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(_line(MARGIN_LEFT, py, MARGIN_LEFT + PLOT_W, py, "#ddd", 1))
        out.append(_text(f"{tick:.6g}", MARGIN_LEFT - 8, py + 4, 11, fill="#444", anchor="end"))
    out.append(_tag("rect", x=MARGIN_LEFT, y=MARGIN_TOP, width=PLOT_W, height=PLOT_H,
                    fill="none", stroke="#555", stroke_width=1))

    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if xs:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
            out.append(_tag("polyline", points=coords, fill="none", stroke=color, stroke_width=2))
            if len(xs) <= 40:
                out.extend(_tag("circle", cx=sx(x), cy=sy(y), r=3, fill=color) for x, y in zip(xs, ys))
        legend_y = MARGIN_TOP + 14 + 16 * i
        legend_x = MARGIN_LEFT + PLOT_W - 150
        out.append(_line(legend_x, legend_y - 4, legend_x + 22, legend_y - 4, color, 2))
        out.append(_text(label, legend_x + 28, legend_y, 11))

    if x_label:
        out.append(_text(x_label, MARGIN_LEFT + PLOT_W / 2, HEIGHT - 10, 12, anchor="middle"))
    if y_label:
        cx = 16.0
        cy = MARGIN_TOP + PLOT_H / 2
        out.append(_text(y_label, cx, cy, 12, anchor="middle", transform=f"rotate(-90 {_fmt(cx)} {_fmt(cy)})"))

    out.append("</svg>")
    return "\n".join(out) + "\n"
