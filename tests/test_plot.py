"""SVG figure generation: validity, determinism, breakpoint fidelity."""
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from bnlocus.plotting import PlotSpec, _Viewport, render_svg, write_plot
from bnlocus.regions import bmno_boundary, bmno_tiles, parse_region_id, region_membership, teixidor_boundary

F = Fraction


def spec_for(g, tokens=("bmno", "teixidor"), **kw):
    return PlotSpec(genus=g, regions=tuple(parse_region_id(t) for t in tokens), **kw)


def test_svg_well_formed():
    svg = render_svg(spec_for(10))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("viewBox") == "0 0 900 620"
    assert root.get("version") == "1.1"
    assert not any(el.tag.endswith("script") for el in root.iter())


def test_render_deterministic():
    a = render_svg(spec_for(12))
    b = render_svg(spec_for(12))
    assert a == b


def test_write_plot_round_trip(tmp_path):
    out = tmp_path / "fig.svg"
    write_plot(spec_for(10, out_path=str(out)))
    data1 = out.read_bytes()
    write_plot(spec_for(10, out_path=str(out)))
    assert out.read_bytes() == data1


@pytest.mark.parametrize("g", [10, 12, 13])
def test_breakpoints_on_pixel_grid(g):
    spec = spec_for(g)
    vp = _Viewport(spec)
    svg = render_svg(spec)
    for fn in (bmno_boundary(g), teixidor_boundary(g)):
        for piece in fn.pieces:
            for mu in (piece.lo, piece.hi):
                lam = piece.value_at(mu)
                pix = f'{vp.x(mu):.6f}" y'  # x-coordinate printed at 6 decimals
                assert f'x1="{vp.x(mu):.6f}"' in svg or f'x2="{vp.x(mu):.6f}"' in svg
                assert (f'x1="{vp.x(mu):.6f}" y1="{vp.y(lam):.6f}"' in svg
                        or f'x2="{vp.x(mu):.6f}" y2="{vp.y(lam):.6f}"' in svg)


def test_empty_region_list_gives_frame_and_pentagon():
    svg = render_svg(PlotSpec(genus=6, regions=()))
    root = ET.fromstring(svg)
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    assert "frame" in ids and "bn-curve" in ids and "legend" in ids
    assert not any(i and i.startswith("region-") for i in ids)


def test_excluded_artifacts_present():
    svg = render_svg(spec_for(10, tokens=("bmno", "p")))
    assert "stroke-dasharray" in svg          # dashed excluded segments
    assert 'fill="#ffffff"/>' in svg and "<circle" in svg  # open circles


@pytest.mark.parametrize("token, corners", [
    # the corner of each BGN tile that is no reflected replacement
    ("bmno", lambda g: [(t.lo + 1, t.s) for t in bmno_tiles(g) if t.kind == "bgn"]),
    # the corner of each shifted BGN tile of the hyperelliptic region
    ("bmnoh", lambda g: [(2 * s - 1, s) for s in range(1, g)]),
])
def test_excluded_corners_are_open_circles(token, corners):
    g = 10
    spec = spec_for(g, tokens=(token,))
    vp = _Viewport(spec)
    circles = {(el.get("cx"), el.get("cy")) for el in ET.fromstring(render_svg(spec)).iter()
               if el.tag.endswith("circle") and el.get("fill") == "#ffffff"}
    for mu, lam in corners(g):
        assert not region_membership(g, parse_region_id(token), (mu, lam))
        assert (f"{vp.x(mu):.6f}", f"{vp.y(lam):.6f}") in circles, (token, mu, lam)


def test_spec_validation():
    with pytest.raises(ValueError):
        PlotSpec(genus=2)
    with pytest.raises(ValueError):
        PlotSpec(genus=5, width_px=0)
