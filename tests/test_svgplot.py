"""SVG line charts: tick ladder, input checks, escaping, markers and determinism."""
import math

import pytest

from scsim.svgplot import _nice_ticks, render_line_chart


def test_nice_ticks_walk_a_1_2_5_ladder():
    assert _nice_ticks(0, 24) == [0, 5, 10, 15, 20]
    assert _nice_ticks(-3, 7) == [-2, 0, 2, 4, 6]


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_nice_ticks_reject_a_non_finite_limit(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        _nice_ticks(lo, hi)


def test_chart_needs_a_point():
    with pytest.raises(ValueError, match="nothing to plot"):
        render_line_chart([])
    with pytest.raises(ValueError, match="nothing to plot"):
        render_line_chart([("empty", [], [])])


def test_chart_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="'short'"):
        render_line_chart([("ok", [0.0, 1.0], [0.0, 1.0]), ("short", [0.0, 1.0], [0.0])])


def test_chart_escapes_title_labels_and_legend():
    svg = render_line_chart(
        [("a & <b>", [0.0, 1.0], [0.0, 1.0])],
        title="t & <u>",
        x_label="x > 0 & y",
        y_label="<y>",
    )
    for text in ("a &amp; &lt;b&gt;", "t &amp; &lt;u&gt;", "x &gt; 0 &amp; y", "&lt;y&gt;"):
        assert f">{text}</text>" in svg
    for raw in ("<b>", "<u>", "<y>", "& "):
        assert raw not in svg


@pytest.mark.parametrize("n, circles", [(40, 40), (41, 0)])
def test_chart_marks_points_only_on_short_series(n, circles):
    xs = [float(i) for i in range(n)]
    svg = render_line_chart([("s", xs, [x * x for x in xs])])
    assert svg.count("<circle ") == circles
    assert svg.count("<polyline ") == 1


def test_chart_bytes_depend_only_on_input():
    series = [("one", [0.0, 0.5, 3.0], [1.0, -2.0, 7.5]), ("two", [1.0, 2.0], [0.25, 0.125])]
    kwargs = {"title": "t", "x_label": "x", "y_label": "y"}
    first = render_line_chart(series, **kwargs)
    assert render_line_chart(series, **kwargs) == first
    assert first.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="720.00" height="460.00"')
    assert first.endswith("</svg>\n")
