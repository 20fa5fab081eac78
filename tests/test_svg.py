import math
import re
import xml.etree.ElementTree as ET

import pytest

from sqspiral.arms import enumerate_arms, members, parse_group
from sqspiral.series import AnalysisSeries, square_band_ratio_series
from sqspiral.svg import (DEFAULT_STYLE, MARKER_COLOR, parse_style, render_report_figure,
                          render_svg)

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_render_deterministic(table400):
    groups = [(parse_group("squares"), MARKER_COLOR)]
    assert render_svg(table400, 300, groups) == render_svg(table400, 300, groups)


def test_base_triangle_vertices(table400):
    doc = render_svg(table400, 3)
    poly = re.search(r'<polyline points="([^"]+)"', doc).group(1)
    points = poly.split(" ")
    assert len(points) == 3
    assert points[0] == "20.000000,0.000000"   # ray 1 at unit radius, scale 20
    assert points[1] == "20.000000,-20.000000"  # ray 2 at 45 deg, y flipped on screen


def test_square_marker_count(table400):
    doc = render_svg(table400, 300, [(parse_group("squares"), MARKER_COLOR)])
    assert doc.count("<circle") == 17   # squares 1..289


def test_markers_sit_on_their_radii(table400):
    root = ET.fromstring(render_svg(table400, 300, [(parse_group("squares"), MARKER_COLOR)]))
    assert root.tag == f"{SVG_NS}svg" and "viewBox" in root.attrib
    circles = root.findall(f"{SVG_NS}circle")
    squares = [i * i for i in range(1, 18)]
    for node, n in zip(circles, squares):
        x = float(node.attrib["cx"]) / 20.0
        y = float(node.attrib["cy"]) / 20.0
        assert x * x + y * y == pytest.approx(n, rel=1e-6)


def test_mirror_flips_y(table400):
    plain = render_svg(table400, 5)
    mirrored = render_svg(table400, 5, mirror=True)
    p1 = re.search(r'<polyline points="([^"]+)"', plain).group(1).split(" ")[1]
    p2 = re.search(r'<polyline points="([^"]+)"', mirrored).group(1).split(" ")[1]
    assert p1.split(",")[0] == p2.split(",")[0]
    assert float(p1.split(",")[1]) == -float(p2.split(",")[1])


def test_render_range_and_scale_errors(table400):
    with pytest.raises(IndexError):
        render_svg(table400, 500)


def test_arm_overlay(table2000):
    group = parse_group("div:11")
    arms = enumerate_arms(table2000, group, 600)
    doc = render_svg(table2000, 600, arm_overlays=arms.member_tuples([0, 1]))
    assert doc.count("<polyline") == 3  # boundary + two arms


def test_each_drawn_ray_is_placed_once(table400, monkeypatch):
    """Markers and overlays reuse the boundary's placement of their rays: at
    most one cosine per ray of the boundary plus one per other ray drawn."""
    group = parse_group("squares")
    arms = enumerate_arms(table400, group, 300)
    overlays = arms.member_tuples(range(len(arms)))
    drawn = {*members(group, 300), *(n for arm in overlays for n in arm if n <= 300)}
    assert len(overlays) > 0 and len(drawn) == 17
    calls, cos = [], math.cos
    monkeypatch.setattr(math, "cos", lambda x: calls.append(x) or cos(x))
    render_svg(table400, 300, [(group, MARKER_COLOR)], overlays)
    assert len(calls) <= 300 + len(drawn)


@pytest.mark.parametrize("member", [0, -3])
def test_overlay_member_below_one_raises(table400, member):
    """A ray below 1 is no ray: it must not wrap round to the end of the spiral."""
    with pytest.raises(IndexError):
        render_svg(table400, 10, arm_overlays=[(4, member, 9)])


def test_style_parsing():
    style = parse_style("boundary.color = #102030\n# comment\n")
    assert style["boundary.color"] == "#102030"
    assert style["arm.width"] == DEFAULT_STYLE["arm.width"]
    with pytest.raises(ValueError, match="unknown key"):
        parse_style("nonsense = 1")
    with pytest.raises(ValueError, match="unknown key 'ray.color'"):
        parse_style("ray.color = #b0b0b0")  # a key nothing draws with
    with pytest.raises(ValueError, match="key=value"):
        parse_style("just words")
    assert parse_style("background = #FfF\narm.width = .5\nmarker.radius = 12")["arm.width"] == ".5"
    for line in ('background = #fff" onload="alert(1)', "boundary.color = red",
                 "boundary.color = #abcd", "boundary.width = 0.0", "marker.radius = -1",
                 "arm.width = 1e3", "arm.width = 2px"):
        with pytest.raises(ValueError, match="is not a valid"):
            parse_style(line)


@pytest.mark.parametrize("text,message", [
    ("arm.width = 2\nboundary.color = red\n",
     "style line 2: boundary.color: 'red' is not a valid color"),
    ("# widths\n\nmarker.radius = -1\nmarker.radius = 3\n",   # set again, still refused
     "style line 3: marker.radius: '-1' is not a valid radius"),
])
def test_bad_style_value_names_its_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_style(text)
    assert str(err.value) == message


def test_report_figure_limit_rule():
    series = square_band_ratio_series(60)
    doc = render_report_figure(series)
    assert doc == render_report_figure(series)
    root = ET.fromstring(doc)
    dashed = [n for n in root.findall(f"{SVG_NS}line")
              if n.attrib.get("stroke-dasharray")]
    assert len(dashed) == 1
    # limit 1.0 sits below every data point: the rule hugs the lower frame edge
    rule_y = float(dashed[0].attrib["y1"])
    poly = root.find(f"{SVG_NS}polyline")
    ys = [float(p.split(",")[1]) for p in poly.attrib["points"].split(" ")]
    assert all(y < rule_y for y in ys)


def test_report_figure_single_point_and_empty():
    one = AnalysisSeries("one", ((5, 2.0),))
    doc = render_report_figure(one)
    assert "<circle" in doc and "<polyline" not in doc
    with pytest.raises(ValueError):
        render_report_figure(AnalysisSeries("none", ()))


def test_report_figure_padded_range():
    series = AnalysisSeries("two", ((0, 0.0), (10, 1.0)))
    doc = render_report_figure(series)
    root = ET.fromstring(doc)
    poly = root.find(f"{SVG_NS}polyline")
    pts = [tuple(map(float, p.split(","))) for p in poly.attrib["points"].split(" ")]
    # 5% padding each side: data spans 90% of the 560x320 plot box
    assert pts[0][0] == pytest.approx(40 + 560 * 0.05 / 1.1, abs=1e-3)
    assert pts[1][0] == pytest.approx(640 - 40 - 560 * 0.05 / 1.1, abs=1e-3)
    assert pts[0][1] == pytest.approx(400 - 40 - 320 * 0.05 / 1.1, abs=1e-3)
