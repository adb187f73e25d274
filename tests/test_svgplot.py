import xml.dom.minidom
import xml.sax.saxutils

import numpy as np
import pytest

from descent_lab.errors import EmptySeriesError
from descent_lab.svgplot import render_line_svg


def parse(svg_text):
    return xml.dom.minidom.parseString(svg_text)


def test_minimal_plot_is_well_formed():
    svg = render_line_svg([([1, 2], [3, 4])])
    doc = parse(svg)
    assert doc.documentElement.tagName == "svg"
    assert len(doc.getElementsByTagName("polyline")) == 1


def test_one_polyline_per_series():
    svg = render_line_svg([([1, 2], [3, 4]), ([1, 2], [5, 6]), ([1, 2], [7, 8])])
    assert len(parse(svg).getElementsByTagName("polyline")) == 3


def test_marker_draws_dashed_line_with_label():
    svg = render_line_svg([([1, 2, 3], [1, 2, 3])], markers=[(2, "n = D = 2")])
    assert "stroke-dasharray" in svg
    assert "n = D = 2" in svg


def test_points_style_uses_circles():
    svg = render_line_svg(
        [([1, 2, 3], [1, 4, 9]), ([1, 2, 3], [2, 3, 4])],
        styles=["line", "points"],
    )
    doc = parse(svg)
    assert len(doc.getElementsByTagName("polyline")) == 1
    assert len(doc.getElementsByTagName("circle")) == 3


def test_legend_text_is_present():
    svg = render_line_svg([([1, 2], [3, 4])], labels=["median test MSE"])
    assert "median test MSE" in svg


def test_title_and_labels_are_escaped():
    svg = render_line_svg(
        [([1, 2], [3, 4])],
        labels=["a < b"],
        title="spikes & dips",
        x_label="n < D",
        y_label="err & co",
    )
    parse(svg)  # must stay well-formed despite the raw specials
    assert "spikes &amp; dips" in svg
    assert "a &lt; b" in svg


def test_text_is_escaped_as_xml_sax_escapes_it():
    # Only &, < and > are escaped; quotes in text content stay as they are.
    title = """R&D <"quoted"> 'single'"""
    svg = render_line_svg([([1, 2], [3, 4])], title=title)
    assert f">{xml.sax.saxutils.escape(title)}</text>" in svg


def test_rejects_unplottable_input():
    with pytest.raises(EmptySeriesError):
        render_line_svg([])
    with pytest.raises(EmptySeriesError):
        render_line_svg([([1, 2], [3])])  # ragged
    with pytest.raises(EmptySeriesError):
        render_line_svg([([], [])])
    with pytest.raises(EmptySeriesError):
        render_line_svg([([1, 2], [np.nan, 1])])
    with pytest.raises(EmptySeriesError):
        render_line_svg([([1, 2], [np.inf, 1])])


def test_log_scale_needs_positive_values():
    with pytest.raises(EmptySeriesError):
        render_line_svg([([1, 2], [0.0, 1.0])], log_y=True)
    with pytest.raises(EmptySeriesError):
        render_line_svg([([1, 2], [1.0, 2.0])], log_y=True, y_range=(-1.0, 2.0))
    parse(render_line_svg([([1, 2], [1e-6, 1e3])], log_y=True))


def test_log_ticks_cover_the_decades():
    svg = render_line_svg([([1, 2], [0.001, 100.0])], log_y=True)
    for tick in ("0.001", "0.1", "100"):
        assert tick in svg


@pytest.mark.parametrize("ys", [[1e300] * 3, [1e-300, 1.0, 1e300], [1.1e308, 1.79e308]],
                         ids=["flat", "wide", "no-decade"])
def test_log_axis_near_the_float_limits(ys):
    # the 5% padding takes the axis past 1e308; every tick label stays a
    # finite number and every y coordinate lands on the canvas
    doc = parse(render_line_svg([(range(len(ys)), ys)], log_y=True))
    labels = [float(t.firstChild.data) for t in doc.getElementsByTagName("text")]
    assert all(np.isfinite(labels)) and max(labels) >= 1e265
    (line,) = doc.getElementsByTagName("polyline")
    ys_px = [float(p.split(",")[1]) for p in line.getAttribute("points").split()]
    assert all(0 < y < 460 for y in ys_px)


def test_constant_series_still_renders():
    # degenerate y-range gets padded instead of dividing by zero
    parse(render_line_svg([([1, 2, 3], [5.0, 5.0, 5.0])]))
    parse(render_line_svg([([2], [5.0])]))


def test_fixed_y_range_is_respected():
    svg = render_line_svg([([1, 2], [1.0, 2.0])], y_range=(-4.0, 4.0))
    assert "-4" in svg and "4" in svg
