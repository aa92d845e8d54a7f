"""Deterministic SVG figures of the slope-plane regions.

Output is byte-reproducible: coordinates are printed with exactly six
decimal places, elements are emitted in a fixed order (frame, curve,
regions sorted by identifier, legend), and nothing depends on dict order,
time, or environment.  Excluded boundary pieces are dashed; excluded
isolated points are drawn as open circles.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arith import _checked_make, _tuple_new, bn_curve, check_genus
from .regions import (
    PolySegment,
    RegionId,
    RegionKind,
    boundary_polyline,
)

# region kind -> (stroke colour, legend name)
_STYLES = {
    RegionKind.PENTAGON: ("#444444", "pentagon"),
    RegionKind.HALF: ("#666666", "left half"),
    RegionKind.BGN: ("#1f77b4", "low-slope trapezium"),
    RegionKind.MERCAT: ("#2ca02c", "mid-slope trapezium"),
    RegionKind.T_BGN: ("#1f77b4", "shifted low-slope tile"),
    RegionKind.T_M: ("#2ca02c", "shifted mid-slope tile"),
    RegionKind.BMNO: ("#d62728", "assembled existence region"),
    RegionKind.TEIXIDOR: ("#9467bd", "parallelogram region"),
    RegionKind.BMNO_H: ("#ff7f0e", "hyperelliptic region"),
}
_CURVE_COLOR = "#555555"
_MARGIN = 48.0


class PlotSpec(namedtuple("PlotSpec", "genus regions show_bn_curve width_px height_px out_path")):
    """One figure: the genus, the regions drawn (a tuple of :class:`RegionId`),
    whether to draw the expected-dimension curve, and the viewport."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, genus: int, regions: tuple[RegionId, ...] = (), show_bn_curve: bool = True,
                width_px: int = 900, height_px: int = 620, out_path: str = "figure.svg"):
        check_genus(genus, 3)
        if width_px <= 0 or height_px <= 0:
            raise ValueError("viewport dimensions must be positive")
        return _tuple_new(cls, (genus, regions, show_bn_curve, width_px, height_px, out_path))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _Viewport:
    """Affine map from (mu, lam) in [0, 2g-2] x [0, g] to pixels."""

    def __init__(self, spec: PlotSpec):
        g = spec.genus
        self.mu_span = float(2 * g - 2)
        self.lam_span = float(g)
        self.x0 = _MARGIN
        self.y0 = spec.height_px - _MARGIN
        self.xs = (spec.width_px - 2 * _MARGIN) / self.mu_span
        self.ys = (spec.height_px - 2 * _MARGIN) / self.lam_span

    def x(self, mu) -> float:
        return self.x0 + float(mu) * self.xs

    def y(self, lam) -> float:
        return self.y0 - float(lam) * self.ys


def _line(vp: _Viewport, seg: PolySegment, color: str, dashed: bool) -> str:
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<line x1="{_fmt(vp.x(seg.start.mu))}" y1="{_fmt(vp.y(seg.start.lam))}" '
        f'x2="{_fmt(vp.x(seg.end.mu))}" y2="{_fmt(vp.y(seg.end.lam))}" '
        f'stroke="{color}" stroke-width="1.5" fill="none"{dash}/>'
    )


def _open_circle(vp: _Viewport, mu, lam, color: str) -> str:
    return (
        f'<circle cx="{_fmt(vp.x(mu))}" cy="{_fmt(vp.y(lam))}" r="3.000000" '
        f'stroke="{color}" stroke-width="1.2" fill="#ffffff"/>'
    )


def _region_elements(vp: _Viewport, g: int, rid: RegionId) -> list[str]:
    segments = boundary_polyline(g, rid)  # first: it rejects the kinds _STYLES lacks
    color = _STYLES[rid.kind][0]
    out = [f'<g id="region-{rid.token().replace(":", "-")}">']
    circles = []
    for seg in segments:
        out.append(_line(vp, seg, color, dashed=not seg.include_interior))
        for p, included in ((seg.start, seg.include_start), (seg.end, seg.include_end)):
            if not included and seg.include_interior:
                circles.append(_open_circle(vp, p.mu, p.lam, color))
    out.extend(dict.fromkeys(circles))
    out.append("</g>")
    return out


def _frame_elements(vp: _Viewport, spec: PlotSpec) -> list[str]:
    g = spec.genus
    out = ['<g id="frame">']
    out.append(
        f'<rect x="0.000000" y="0.000000" width="{_fmt(float(spec.width_px))}" '
        f'height="{_fmt(float(spec.height_px))}" fill="#ffffff"/>'
    )
    # axes
    out.append(
        f'<line x1="{_fmt(vp.x(0))}" y1="{_fmt(vp.y(0))}" x2="{_fmt(vp.x(2 * g - 2))}" '
        f'y2="{_fmt(vp.y(0))}" stroke="#000000" stroke-width="1.0"/>'
    )
    out.append(
        f'<line x1="{_fmt(vp.x(0))}" y1="{_fmt(vp.y(0))}" x2="{_fmt(vp.x(0))}" '
        f'y2="{_fmt(vp.y(g))}" stroke="#000000" stroke-width="1.0"/>'
    )
    for m in range(0, 2 * g - 1):
        out.append(
            f'<line x1="{_fmt(vp.x(m))}" y1="{_fmt(vp.y(0))}" x2="{_fmt(vp.x(m))}" '
            f'y2="{_fmt(vp.y(0) + 4.0)}" stroke="#000000" stroke-width="0.8"/>'
        )
    for seg in boundary_polyline(g, RegionId(RegionKind.PENTAGON)):
        out.append(_line(vp, seg, _STYLES[RegionKind.PENTAGON][0], dashed=not seg.include_interior))
    out.append("</g>")
    return out


def _curve_elements(vp: _Viewport, spec: PlotSpec) -> list[str]:
    if not spec.show_bn_curve:
        return []
    g = spec.genus
    pts = []
    steps = 32 * (2 * g - 2)
    for i in range(steps + 1):
        mu = i / 32.0
        lam = bn_curve(g, Fraction(i, 32)).approx
        pts.append(f"{_fmt(vp.x0 + mu * vp.xs)},{_fmt(vp.y0 - lam * vp.ys)}")
    return [
        '<g id="bn-curve">',
        f'<polyline points="{" ".join(pts)}" stroke="{_CURVE_COLOR}" '
        'stroke-width="1.0" fill="none" stroke-dasharray="2,3"/>',
        "</g>",
    ]


def _legend_elements(spec: PlotSpec, regions: list[RegionId]) -> list[str]:
    out = ['<g id="legend" font-family="monospace" font-size="12">']
    out.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(20.0)}" fill="#000000">'
        f"genus {spec.genus}</text>"
    )
    y = 36.0
    for rid in regions:
        color, name = _STYLES[rid.kind]
        out.append(
            f'<text x="{_fmt(_MARGIN)}" y="{_fmt(y)}" fill="{color}">'
            f"{rid.token()}: {name}</text>"
        )
        y += 14.0
    out.append("</g>")
    return out


def render_svg(spec: PlotSpec) -> str:
    """Render the figure as a complete SVG 1.1 document string."""
    vp = _Viewport(spec)
    regions = sorted(set(spec.regions), key=lambda r: r.sort_key())
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">',
    ]
    parts.extend(_frame_elements(vp, spec))
    parts.extend(_curve_elements(vp, spec))
    for rid in regions:
        parts.extend(_region_elements(vp, spec.genus, rid))
    parts.extend(_legend_elements(spec, regions))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(spec: PlotSpec) -> None:
    data = render_svg(spec).encode("utf-8")
    with open(spec.out_path, "wb") as fh:
        fh.write(data)
