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
from bnlocus.oracle import ContradictionError, CurveClass, _table, classify, h0_max
from bnlocus.plotting import PlotSpec, render_svg
from bnlocus.regions import (
    BmnoMode,
    bmno_boundary,
    bmno_tiles,
    hyper_boundary,
    hyper_strip,
    in_bmno,
    in_bmno_h,
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
    classification_csv,
    compare_regions,
    enumerate_classifications,
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


# the figures and the polylines of every token were recorded again when the
# graph regions' flags became region membership, cut at every integer slope;
# test_polygon_polyline_golden holds the polygon regions alone unchanged
SVG = {
    3: "195a9e011062fc98efed6bfe66fdcacf7e44555b51c1dcc09f984538d3349e6f",
    4: "1e3a40ded225fbe90cbe1c70764ae9275f18f6f00c4f9799be89e778666f75da",
    5: "76fbccda12b359d45189f47ab2ce8cbeacf9b9b0024ad92fdc0b0657913fa439",
    10: "59096e0bbac67a41888c3ad48a68a0a259f690c8819f5c22606960a296f9bbf1",
    12: "a4511b5eb4b270d84d7552ca4a8624e309ec52e3d327c4ae8addd5895a06b508",
    13: "c3d7cb4603e1eee77979180c7945a5aebcb3d6c9d1259ef880f5af336abe766b",
}


@pytest.mark.parametrize("g", sorted(SVG))
def test_svg_golden(g):
    spec = PlotSpec(genus=g, regions=tuple(parse_region_id(t) for t in _tokens(g)))
    assert hashlib.sha256(render_svg(spec).encode("utf-8")).hexdigest() == SVG[g]


def test_polyline_golden():
    lines = [json.dumps(polyline_json_dict(g, parse_region_id(t)))
             for g in range(3, 21) for t in _tokens(g)]
    assert _digest(lines) == "f3e0e04213900c22db2bf81d9a440a1c2d455fba648d0a13077df6655d66bca1"


def test_polygon_polyline_golden():
    """The polygon regions alone, the shifted tiles at the four (d', s) of
    the polyline flag test: their flags already equal their membership, so
    deriving the flags from membership leaves this digest unchanged."""
    lines = [json.dumps(polyline_json_dict(g, parse_region_id(t)))
             for g in range(3, 21)
             for t in ["p", "r", "bgn", "m"] + [f"{kind}:{d}:{s}" for kind in ("tbgn", "tm")
                                                for d, s in ((0, 1), (1, 2), (g - 2, 2), (g - 3, g - 1))]]
    assert _digest(lines) == "caa9b332dd18584798dcb9c0a1238da5e0919e2aae98b4cae71e6cc3ba73c8ce"


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
    bits += [in_bmno_h(g, p), hyper_strip(g, *p) is not None,
             in_translated_bgn(g, 0, 1, p), in_translated_m(g, 0, 1, p)]
    for d_shift, s in ((0, 1), (1, 2), (g - 2, 2), (g - 1, g - 2)):
        bits += [fn(g, d_shift, s, p) for fn in (in_translated_bgn, in_translated_m, in_u_bgn_half, in_u_m_half)]
    return "".join("1" if b else "0" for b in bits)


# genus -> (grid denominator, digest); genus 9 brings several chain levels,
# reflected tiles and threshold columns, on a coarser grid to keep it near 1 s
MEMBERSHIP = {
    3: (8, "6b3d3e2e6c62bd7ada4aaa482cd466dd5cfee95f4076be81e29d220de6ce68fe"),
    4: (8, "7e60f3dab00c39c48b6d4ea42a16595a0e356e77a97de265578050ce175a174b"),
    5: (8, "69287da601b77a9c74bc1977e4eb51c8c74c68314fb44653b1d4b2991c2fe096"),
    9: (4, "cbeee732ec0dbb88f74e52a3f106237d3ca0bdacae4d914356505629b8c65002"),
}


@pytest.mark.parametrize("g", sorted(MEMBERSHIP))
def test_membership_bitmap_golden(g):
    """Grid of denominator q over the pentagon and a margin, with heights both
    on the grid and 1/(24g) off it, where the strict and weak edges differ."""
    q, digest = MEMBERSHIP[g]
    off = Fraction(1, 24 * g)
    lines = []
    for i in range(-2, 2 * q * (g - 1) + 3):
        mu = Fraction(i, q)
        row = []
        for j in range(-1, q * g + 3):
            for lam in (Fraction(j, q), Fraction(j, q) + off):
                row.append(_membership_row(g, BNPoint(mu, lam)))
        lines.append(" ".join(row))
    assert _digest(lines) == digest


def _window(g: int, n: int):
    """The 0 <= mu <= 2g-2, 0 < k <= n + d window of one genus and rank."""
    for d in range(0, 2 * n * (g - 1) + 1):
        for k in range(1, n + d + 1):
            yield d, k


def _margins(g: int, n: int):
    """The triples just outside :func:`_window`: two degrees past each end
    of the slope range, and two section counts past each end of the window."""
    top = 2 * n * (g - 1)
    for d in range(-2, top + 3):
        ks = (-1, 0, n + d + 1, n + d + 2) if 0 <= d <= top else range(-1, n + d + 3)
        for k in ks:
            yield d, k


def _classify_lines(genera, ranks, window=_window) -> list[str]:
    """Every verdict, with its evidence and attempted rules, over the window
    of each genus and rank; a contradiction is recorded as its text."""
    lines = []
    for g in genera:
        for c in CurveClass:
            if c is CurveClass.NON_HYPERELLIPTIC and g == 2:
                continue
            for m in Stability:
                for n in ranks:
                    for d, k in window(g, n):
                        try:
                            r = classify(g, Triple(n, d, k), c, m)
                        except ContradictionError as exc:
                            lines.append(f"contradiction {exc}")
                            continue
                        lines.append(json.dumps(r.to_json_dict()) + " " + ",".join(r.rules_attempted))
    return lines


def test_classify_golden():
    lines = _classify_lines(range(2, 6), range(1, 4))
    assert _digest(lines) == "12e06c340dd28733e2d75e84d1c308dc891f8a27c659999cd4906d369c153093"


def test_classify_golden_larger_genera():
    """Genera 6..10, where most Teixidor columns and hyperelliptic strips lie."""
    lines = _classify_lines(range(6, 11), range(1, 3))
    assert _digest(lines) == "716ef11075aefc341f18fb266532cbce4210b5bade5ba096649a8a5a88bf287b"


def test_classify_golden_margins():
    """Negative and past-the-top degrees, and section counts at and beyond
    both ends of the window, where threshold ranges are clipped."""
    lines = _classify_lines(range(2, 9), range(1, 4), _margins)
    assert len(lines) == 20520
    assert _digest(lines) == "10af1d6d37989b1697f7b54ab4c8ae10757e3372f506c60eb1bca435ac3af4f1"


ENUMERATE = {
    2: "9b95473b30fc150dbea1c2ea89972b228a8537925a33bf1071fd2423c7e4a67a",
    3: "0c520e0327caac264699ec1aeb0a431c4469ce328a2377d516f931d67e7eb11f",
    4: "f7e05e3612174a1f2dfdf7cd6c77bf2ce2284c5ce28f54064f977790c2eabf3c",
    5: "b57bde6c01ddd62c24b1136758dc3d4b057fc7597443bbca4bac101cde6020a6",
    6: "971ddc6d0cb1c9145eb7a1d35b4d60b813464fa315e3e80d3107156c3fa8993b",
    7: "42ed44efe7280b354e21e495ebe075eb62f9c6f649cd88cf5a52d251472948da",
    8: "c157f4ccb20b3bab9225753722432f5f4f0057e7a1fd2fc4d04c6017c163fc63",
}


@pytest.mark.parametrize("g", sorted(ENUMERATE))
def test_enumerate_golden(g):
    """The enumerate CSV at rank <= 3 for every curve class valid at g and
    both stabilities."""
    lines = [classification_csv(enumerate_classifications(g, 3, c, m))
             for c in CurveClass if g > 2 or c is not CurveClass.NON_HYPERELLIPTIC for m in Stability]
    assert _digest(lines) == ENUMERATE[g]


def test_enumerate_golden_benchmark_table():
    """The enumerate CSV of the benchmark's oracle table: genus 9, rank <= 3,
    arbitrary curves, stable bundles (2,070 rows)."""
    rows = enumerate_classifications(9, 3, CurveClass.ARBITRARY, Stability.STABLE)
    assert len(rows) == 2070
    csv = classification_csv(rows)
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == \
        "e6434a2b818e524c5a2263a8737f5677e3be2dc59658680eba23e9a74fabd482"


TABLE_EVIDENCE = {
    2: "62acad914fe3fff387251398dccf5a8a81938930acf095c293249c111632639d",
    3: "37fd9385f33d05516a011c5146a4ecedc42dfe136e588712118bf653e80b5895",
    4: "1b7e306dc21e3a8cd9adb3dea506210c4c9a90681908346375eb8e9bc0360a49",
    5: "0b7b900b612dd6fd192ffbd3ebbad9f3af27dcb0b3e23c45e43c2f1cbc26c8f0",
    6: "7978c3032960021d181c69bd92f4e66fc42e6c67228753aed163fafb604c2a9b",
    7: "787d4f27b5344011a1c4f60812b8809e085b222499b06b759531c66a7aaf9187",
}


@pytest.mark.parametrize("g", sorted(TABLE_EVIDENCE))
def test_table_evidence_golden(g):
    """Every enumerate row at rank <= 3 with all of its evidence, the serre
    item's dual and dual rule included, and the verdict of each row's Serre
    dual as the table reads it, for every curve class valid at g and both
    stabilities."""
    lines = []
    for c in CurveClass:
        if g > 2 or c is not CurveClass.NON_HYPERELLIPTIC:
            for m in Stability:
                lines += [json.dumps(r.to_json_dict()) for r in enumerate_classifications(g, 3, c, m)]
                lines += [f"{n} {d} " + " ".join(v.value for v in duals) for n, d, _, duals in _table(g, 3, c, m)]
    assert _digest(lines) == TABLE_EVIDENCE[g]


def test_h0_max_golden():
    """The section bound, its status and its note over every class, with two
    degrees past each end of the slope range."""
    lines = [f"{g} {c.value} {n} {d} {h0_max(g, n, d, c)!r}"
             for g in range(2, 9) for c in CurveClass if g > 2 or c is not CurveClass.NON_HYPERELLIPTIC
             for n in range(1, 5) for d in range(-2, 2 * n * (g - 1) + 3)]
    assert len(lines) == 2760
    assert _digest(lines) == "b54de4de1eb6f855e52d4795d18735180ca537be713b79e5d016cc41ad52a6a1"


def test_sweep_reports_golden():
    reports = [
        verify_prop_4_11(3, 6),
        verify_teixidor_gap(3, 6),
        verify_sigma(3, 4, 4),
        verify_inclusions(4, 5, 4),
    ]
    lines = [json.dumps(r.to_json_dict()) for r in reports]
    lines += [json.dumps(compare_regions(g, 6).to_json_dict()) for g in (3, 4, 10, 12)]
    assert _digest(lines) == "06e862ab496e9b46eaf169574e65befefdeec43a80600f81cdeef551ab92651c"


# (suite, window) -> sha256 of the report JSON: the benchmark's sigma and
# inclusions window at genus 6, denominator 8 (32,982 + 9,378 checks), and
# two wider windows
SWEEP_REPORTS = {
    ("sigma", (6, 6, 8)): "8df447caf92783ee08b21dccefaaf4a1f1bd2bd72e32b9be2c9aa07bb3d9fe43",
    ("inclusions", (6, 6, 8)): "aa66ceea2f8cd9318861de8423adb7f277f30ea91504b6a4733596379ebbe275",
    ("sigma", (3, 8, 6)): "ed82ad688eb769c7895833adfb36a08a4c21144f3457114d6c423a6debcabbf4",
    ("inclusions", (4, 12, 8)): "796885210530c8c36632eaf34c6bd2dae4e894c0f221e748b90b555e31cb6d75",
}


@pytest.mark.parametrize("suite, window", sorted(SWEEP_REPORTS),
                         ids=[f"{s}-{'-'.join(map(str, w))}" for s, w in sorted(SWEEP_REPORTS)])
def test_sweep_report_digest(suite, window):
    """The report JSON of the duality and inclusion sweeps, byte for byte."""
    rep = {"sigma": verify_sigma, "inclusions": verify_inclusions}[suite](*window)
    assert rep.passed
    assert hashlib.sha256(json.dumps(rep.to_json_dict()).encode("utf-8")).hexdigest() == SWEEP_REPORTS[suite, window]
