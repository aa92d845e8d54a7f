"""Golden digests of the figures, boundaries, memberships, verdicts and reports.

Each test hashes a canonical text form of one family of outputs and compares
it with a sha256 digest recorded before the tile geometry, the hyperelliptic
strips and the oracle's duality step were each reduced to a single source.
A mismatch is a change of behaviour, not of layout: a refactor of the region
algebra or the oracle must leave every digest here unchanged.
"""
import hashlib
import json
from fractions import Fraction

import pytest

from bnlocus.arith import BNPoint, Stability, Triple
from bnlocus.oracle import ContradictionError, CurveClass, classify
from bnlocus.plotting import PlotSpec, render_svg
from bnlocus.regions import (
    BmnoMode,
    bmno_boundary,
    bmno_tiles,
    hyper_boundary,
    in_bgn,
    in_bmno,
    in_bmno_h,
    in_hyper_strips,
    in_m,
    in_teixidor,
    in_translated_bgn,
    in_translated_m,
    in_u_bgn_half,
    in_u_m_half,
    parse_region_id,
    polyline_json_dict,
    teixidor_boundary,
)
from bnlocus.sweep import (
    compare_regions,
    verify_inclusions,
    verify_prop_4_11,
    verify_sigma,
    verify_teixidor_gap,
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _tokens(g: int) -> list[str]:
    """Every piecewise-linear region token, the shifted tiles at two (d', s)."""
    return ["p", "r", "bgn", "m", "tbgn:0:1", f"tbgn:{g - 2}:2", "tm:1:2", f"tm:{g - 3}:{g - 1}",
            "bmno", "teixidor", "bmnoh"]


SVG = {
    3: "5b2c1928338452dc2d2866ea174fc4ddc7d6d3164ece577f4c07808756bcc16a",
    4: "ff542e0b7718558c5babdb7ca357eadea78b4561f04c733b220da5fb91293322",
    5: "0d17cfe82c336a47238106145ad0de6de6b69a782d762af94503fda786b12eae",
    10: "5c1d21a8a92a280a926dfd8ca681d20043b5a0dbc03971c0e7d900ac3d9b203b",
    12: "514d7c5e9a2a282c846909a70f91957b239d459a507a6262954f675179f93aa4",
    13: "59b2110bc1dd279aec86a4408172a3bf0c360301ff5d0c9590d72f2ee4da7b63",
}


@pytest.mark.parametrize("g", sorted(SVG))
def test_svg_golden(g):
    spec = PlotSpec(genus=g, regions=tuple(parse_region_id(t) for t in _tokens(g)))
    assert hashlib.sha256(render_svg(spec).encode("utf-8")).hexdigest() == SVG[g]


def test_polyline_golden():
    lines = [json.dumps(polyline_json_dict(g, parse_region_id(t)))
             for g in range(3, 21) for t in _tokens(g)]
    assert _digest(lines) == "4f98f590ba2250c9c2bc612241cd583247f573a78b7ab91e8f6715cf0e38f4aa"


def test_boundary_pieces_and_tiles_golden():
    lines = []
    for g in range(3, 41):
        for name, fn in (("f", bmno_boundary), ("t", teixidor_boundary), ("h", hyper_boundary)):
            for p in fn(g).pieces:
                lines.append(f"{name} {g} {p.lo} {p.hi} {p.slope} {p.intercept} {p.include_lo} {p.include_hi}")
        for t in bmno_tiles(g):
            lines.append(f"tile {g} {t.kind} {t.lo} {t.s} {t.slope} {t.intercept}")
    assert _digest(lines) == "b830f0fb100d029b80c6b3c2b1410b890bba8eace953690552833ff745cbdf08"


def _membership_row(g, p):
    bits = [in_bmno(g, p, mode) for mode in BmnoMode]
    if p.lam > 0:
        bits += [in_teixidor(g, p, st) for st in Stability]
    bits += [in_bmno_h(g, p), in_hyper_strips(g, p), in_bgn(g, p), in_m(g, p)]
    for d_shift, s in ((0, 1), (1, 2), (g - 2, 2), (g - 1, g - 2)):
        bits += [fn(g, d_shift, s, p) for fn in (in_translated_bgn, in_translated_m, in_u_bgn_half, in_u_m_half)]
    return "".join("1" if b else "0" for b in bits)


MEMBERSHIP = {
    3: "6b3d3e2e6c62bd7ada4aaa482cd466dd5cfee95f4076be81e29d220de6ce68fe",
    4: "7e60f3dab00c39c48b6d4ea42a16595a0e356e77a97de265578050ce175a174b",
    5: "69287da601b77a9c74bc1977e4eb51c8c74c68314fb44653b1d4b2991c2fe096",
}


@pytest.mark.parametrize("g", sorted(MEMBERSHIP))
def test_membership_bitmap_golden(g):
    """Denominator-8 grid over the pentagon and a margin, with heights both on
    the grid and 1/(24g) off it, where the strict and weak edges differ."""
    off = Fraction(1, 24 * g)
    lines = []
    for i in range(-2, 16 * (g - 1) + 3):
        mu = Fraction(i, 8)
        row = []
        for j in range(-1, 8 * g + 3):
            for lam in (Fraction(j, 8), Fraction(j, 8) + off):
                row.append(_membership_row(g, BNPoint(mu, lam)))
        lines.append(" ".join(row))
    assert _digest(lines) == MEMBERSHIP[g]


def test_classify_golden():
    lines = []
    for g in range(2, 6):
        for c in CurveClass:
            if c is CurveClass.NON_HYPERELLIPTIC and g == 2:
                continue
            for m in Stability:
                for n in range(1, 4):
                    for d in range(0, 2 * n * (g - 1) + 1):
                        for k in range(1, n + d + 1):
                            try:
                                r = classify(g, Triple(n, d, k), c, m)
                            except ContradictionError as exc:
                                lines.append(f"contradiction {exc}")
                                continue
                            lines.append(json.dumps(r.to_json_dict()) + " " + ",".join(r.rules_attempted))
    assert _digest(lines) == "12e06c340dd28733e2d75e84d1c308dc891f8a27c659999cd4906d369c153093"


def test_sweep_reports_golden():
    reports = [
        verify_prop_4_11(3, 6, 6),
        verify_teixidor_gap(3, 6, 6),
        verify_sigma(3, 4, 4),
        verify_inclusions(4, 5, 4),
    ]
    lines = [json.dumps(r.to_json_dict()) for r in reports]
    lines += [json.dumps(compare_regions(g, 6).to_json_dict()) for g in (3, 4, 10, 12)]
    assert _digest(lines) == "ca60293cc7b406e36e86e644c686d65200b07138e5be66d0fa931dd36fe00ae9"
