"""Region membership, boundary functions and polylines."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlocus.arith import (
    Stability,
    bn_curve_gap_cmp,
    line_degree_bound,
    point,
    serre_dual_point,
)
from bnlocus.regions import (
    BmnoMode,
    BoundaryFn,
    Piece,
    RegionId,
    RegionKind,
    bmno_boundary,
    bmno_tiles,
    boundary_polyline,
    hyper_boundary,
    hyper_strip,
    in_bmno,
    in_bmno_h,
    in_half_pentagon,
    in_pentagon,
    in_teixidor,
    in_translated_bgn,
    in_translated_m,
    in_u_bgn_half,
    in_u_m_half,
    line_degree_bound_int,
    parse_region_id,
    polyline_json_dict,
    region_membership,
    teixidor_boundary,
    u_params,
)

F = Fraction


# -- elementary regions ------------------------------------------------------


def test_pentagon_examples():
    assert in_pentagon(2, point(1, 1))
    assert not in_pentagon(3, point(3, 1))     # duality edge is strict
    assert not in_pentagon(3, point(2, 3))     # above the Clifford edge
    assert in_pentagon(5, point(0, 1)) and not in_pentagon(5, point(0, F(11, 10)))


def test_half_pentagon_examples():
    assert in_half_pentagon(3, point(2, 1))
    assert not in_half_pentagon(3, point(F(5, 2), 1))
    assert not in_half_pentagon(3, point(2, 0))


def test_bgn_and_m_examples():
    assert not in_translated_bgn(3, 0, 1, point(1, 1))
    assert in_translated_bgn(3, 0, 1, point(F(1, 2), F(1, 2)))
    assert in_translated_m(3, 0, 1, point(2, F(1, 2)))
    assert not in_translated_m(3, 0, 1, point(2, 1))
    assert in_translated_bgn(10, 0, 1, point(1, F(9, 10)))
    assert not in_translated_bgn(10, 0, 1, point(1, F(11, 10)))
    with pytest.raises(ValueError):
        in_translated_bgn(2, 0, 1, point(1, 1))


def test_translated_tiles_examples():
    assert not in_translated_bgn(10, 6, 2, point(7, 2))           # excluded corner
    assert in_translated_bgn(10, 6, 2, point(F(13, 2), F(19, 10)))  # top boundary
    assert in_translated_m(10, 6, 2, point(8, F(3, 2)))           # right sliver
    for fn in (in_translated_bgn, in_translated_m, in_u_bgn_half, in_u_m_half):
        with pytest.raises(ValueError, match=r"^section multiplier must be >= 1, got 0$"):
            fn(10, 6, 0, point(7, 2))


def test_u_half_sets():
    # reflected tiles: anchor point is excluded, sliver heights are strict
    g, dp, s = 10, 9, 2
    d1, s1 = u_params(g, dp, s)
    assert (d1, s1) == (8, 1)
    assert not in_u_bgn_half(g, dp, s, point(8, 1))
    assert in_u_bgn_half(g, dp, s, point(F(17, 2), F(1, 2)))
    assert in_u_m_half(g, 8, 2, point(F(17, 2), 1))


# -- boundary functions ------------------------------------------------------


def test_bmno_boundary_examples():
    f10 = bmno_boundary(10)
    assert f10(6) == F(3, 2)
    assert f10(F(13, 2)) == F(19, 10)
    assert f10(12) == F(9, 2)
    f4 = bmno_boundary(4)
    assert f4(3) == F(3, 2)
    f3 = bmno_boundary(3)
    assert f3(2) == F(4, 3)


def test_teixidor_boundary_examples():
    t10 = teixidor_boundary(10)
    assert t10(F(13, 2)) == F(3, 2)
    assert t10(5) == 1
    assert t10(9) == 3


def test_hyper_boundary_examples():
    assert hyper_boundary(4)(4) == F(5, 2)


@pytest.mark.parametrize("maker", [bmno_boundary, teixidor_boundary, hyper_boundary])
@pytest.mark.parametrize("g", [3, 4, 5, 7, 10, 13, 20])
def test_boundary_tiling_invariants(maker, g):
    fn = maker(g)
    assert fn.domain_lo == 0 and fn.domain_hi == 2 * g - 2
    for a, b in zip(fn.pieces, fn.pieces[1:]):
        assert a.hi == b.lo
        assert a.include_hi != b.include_lo
    for x in fn.breakpoints():
        fn(x)  # every breakpoint evaluates via exactly one piece


def test_boundary_rejects_outside_domain():
    f = bmno_boundary(5)
    for mu in (0, 8, -1):
        with pytest.raises(ValueError):
            f(mu)


def test_boundary_rejects_a_breakpoint_that_is_not_an_integer():
    # the one owner rule reads a slope's cell from its integer part
    halves = (Piece(F(0), F(1, 2), F(1), F(0), False, True), Piece(F(1, 2), F(2), F(0), F(1, 2), False, False))
    with pytest.raises(ValueError, match=r"^breakpoint 1/2 is not an integer$"):
        BoundaryFn(halves, F(0), F(2))
    with pytest.raises(ValueError, match=r"^breakpoint 1/2 is not an integer$"):
        BoundaryFn(halves[1:], F(1, 2), F(2))
    assert BoundaryFn((Piece(F(1), F(2), F(0), F(1), False, False),), F(1), F(2))(F(3, 2)) == 1


def test_teixidor_boundary_continuity_and_monotone():
    for g in (3, 4, 10, 13, 19):
        t = teixidor_boundary(g)
        for a, b in zip(t.pieces, t.pieces[1:]):
            assert a.value_at(a.hi) == b.value_at(b.lo)
        vals = [t(F(i, 4)) for i in range(1, 4 * (g - 1) + 1)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_bmno_boundary_is_seesaw():
    # drops by s/g across interior integer slopes inside a chain
    f = bmno_boundary(10)
    assert f(3) == F(11, 10)
    after = f.piece_at(F(13, 4))
    assert after.value_at(3) == 1  # limit from the right is s
    assert after.slope == F(1, 10)


def test_boundary_closure_flags_split_at_reflection():
    # g=10: the value at slope 12 comes from the left-closed reflected piece
    f = bmno_boundary(10)
    piece = f.piece_at(12)
    assert piece.include_lo and piece.lo == 12
    assert f(12) == F(9, 2)


def test_piece_at_returns_the_owning_piece():
    # exactly one piece owns each abscissa: inside it, or at an endpoint it includes
    for g in range(3, 16):
        for f in (bmno_boundary(g), teixidor_boundary(g), hyper_boundary(g)):
            for i in range(1, 12 * (2 * g - 2)):
                mu = F(i, 12)
                owners = [p for p in f.pieces
                          if p.lo < mu < p.hi or (mu == p.lo and p.include_lo) or (mu == p.hi and p.include_hi)]
                assert owners == [f.piece_at(mu)], (g, mu)


# -- assembled region --------------------------------------------------------


def test_bmno_examples():
    assert in_bmno(10, point(F(13, 2), F(19, 10)))
    assert not in_bmno(10, point(7, 2))
    assert not in_bmno(10, point(F(13, 2), 2))


def test_bmno_integer_columns_default_mode():
    # integer slopes keep only heights strictly below the section level
    assert in_bmno(10, point(5, F(9, 10)))
    assert not in_bmno(10, point(5, 1))
    assert not in_bmno(10, point(4, F(11, 10)))


def test_bmno_modes_restore_points():
    g = 10
    # non-hyperelliptic mode restores the right-hand tile boundaries
    assert not in_bmno(g, point(5, 1))
    assert in_bmno(g, point(5, 1), BmnoMode.NON_HYPERELLIPTIC)
    assert in_bmno(g, point(5, F(11, 10)), BmnoMode.NON_HYPERELLIPTIC)
    # ... but not the threshold column above (s-1)(1+1/g) nor shifted corners
    assert not in_bmno(g, point(6, F(12, 10)), BmnoMode.NON_HYPERELLIPTIC)
    assert in_bmno(g, point(6, F(11, 10)), BmnoMode.NON_HYPERELLIPTIC)
    assert not in_bmno(g, point(7, 2), BmnoMode.NON_HYPERELLIPTIC)
    assert not in_bmno(g, point(1, 1), BmnoMode.NON_HYPERELLIPTIC)
    # semistable mode includes the whole seesaw plus threshold columns
    assert in_bmno(g, point(7, 2), BmnoMode.SEMISTABLE)
    assert in_bmno(g, point(6, 2), BmnoMode.SEMISTABLE)
    assert in_bmno(g, point(9, 3), BmnoMode.SEMISTABLE)
    assert in_bmno(g, point(0, 1), BmnoMode.SEMISTABLE)
    assert not in_bmno(g, point(0, 1))


def test_bmno_genus3_is_low_genus_classification():
    # boundary (mu+2)/3 on the left half, the unknown slope-2 window removed,
    # with (2,1) known in
    assert in_bmno(3, point(2, 1))
    assert in_bmno(3, point(F(3, 2), F(7, 6)))
    assert not in_bmno(3, point(2, F(7, 6)))
    assert not in_bmno(3, point(1, 1))
    assert not in_bmno(3, point(2, F(3, 2)))
    assert in_bmno(3, point(2, F(7, 6)), BmnoMode.NON_HYPERELLIPTIC)
    assert not in_bmno(3, point(2, F(3, 2)), BmnoMode.NON_HYPERELLIPTIC)


def test_bmno_implies_under_boundary():
    f = bmno_boundary(10)
    for mu_num in range(1, 18 * 4):
        mu = F(mu_num, 4)
        for lam_num in range(1, 44):
            lam = F(lam_num, 4)
            if in_bmno(10, point(mu, lam)):
                assert lam <= f(mu)


def _in_tile(g, t, p):
    """The image that tile ``t`` of ``bmno_tiles`` records, through the
    public tile tests; a reflected tile keeps the right edge of the M tile it
    replaces."""
    if t.reflected:
        return (in_u_bgn_half(g, t.d_shift, t.mult, p)
                or (p.mu == t.lo + 1 and in_translated_m(g, t.lo - 1, t.s, p)))
    image = in_translated_bgn if t.base == "bgn" else in_translated_m
    return image(g, t.d_shift, t.mult, p)


def _in_tile_union(g, p):
    def left(q):
        return 0 < q.mu <= g - 1 and any(_in_tile(g, t, q) for t in bmno_tiles(g))

    return left(p) or left(serre_dual_point(g, p)) or (g == 3 and p == point(2, 1))


def test_stable_membership_closed_form():
    # in_bmno's closed form (on or under the seesaw at fractional slopes,
    # strictly below the chain level at integer ones) is the union of the
    # tiles' T- and U-images with their reflection
    for g in (3, 4, 7, 9, 10, 13):
        f, tiles = bmno_boundary(g), bmno_tiles(g)
        levels = {F(t.s) for t in tiles}
        eps = F(1, 48 * g)
        for mu_num in range(1, 8 * (g - 1) + 1):
            mu = F(mu_num, 8)
            tops = {t.slope * mu + t.intercept for t in tiles}
            for base in tops | levels | {f(mu)}:
                for lam in (base - eps, base, base + eps):
                    if lam <= 0:
                        continue
                    for p in (point(mu, lam), serre_dual_point(g, point(mu, lam))):
                        assert in_bmno(g, p) == _in_tile_union(g, p), (g, p)


def test_bmno_tiles_cover_left_interval():
    for g in (4, 5, 6, 9, 10, 13, 20):
        tiles = bmno_tiles(g)
        assert tiles[0].lo == 0
        ends = [t.lo for t in tiles] + [tiles[-1].lo + 1]
        assert ends == sorted(ends)
        assert tiles[-1].lo + 1 == g - 1
        for a, b in zip(tiles, tiles[1:]):
            assert b.lo == a.lo + 1


# -- parallelogram region ----------------------------------------------------


def test_teixidor_examples():
    assert in_teixidor(10, point(F(13, 2), F(3, 2)))
    assert not in_teixidor(10, point(F(13, 2), F(8, 5)))
    assert in_teixidor(10, point(5, 1))
    with pytest.raises(ValueError, match=r"^requires lam > 0, got 0$"):
        in_teixidor(10, point(1, 0))


def test_teixidor_stable_exception():
    # (1,1) admits no stable bundle beyond rank one; both duality sides fail
    assert in_teixidor(10, point(1, 1), Stability.SEMISTABLE)
    assert not in_teixidor(10, point(1, 1), Stability.STABLE)
    # (5,1) survives in stable mode because its own left neighbour is fine
    assert in_teixidor(10, point(5, 1), Stability.STABLE)
    assert in_teixidor(10, point(13, 5), Stability.STABLE)
    # (9,3) sits on the curve with both exception tests negative
    assert in_teixidor(10, point(9, 3), Stability.SEMISTABLE)
    assert not in_teixidor(10, point(9, 3), Stability.STABLE)


def test_teixidor_matches_boundary():
    for g in (4, 10, 13):
        t = teixidor_boundary(g)
        for mu_num in range(1, (2 * g - 2) * 3, 2):
            mu = F(mu_num, 3)
            top = t(mu)
            if top > 0:
                assert in_teixidor(g, point(mu, top))
            assert not in_teixidor(g, point(mu, top + F(1, 7)))


# -- hyperelliptic region ----------------------------------------------------


def test_bmno_h_examples():
    assert in_bmno_h(4, point(F(7, 2), 2))
    assert hyper_strip(4, F(7, 2), 2) is not None
    assert in_bmno_h(4, point(4, 2))          # image of the known point (2,1)
    assert not in_bmno_h(4, point(4, F(9, 4)))
    assert not in_bmno_h(4, point(3, 2))      # odd-slope corner excluded
    assert in_bmno_h(4, point(2, 1))


def test_hyper_strips_shape():
    assert hyper_strip(4, F(5, 2), F(3, 2)) is not None  # dual strip: lam <= mu-s+1
    assert hyper_strip(4, F(5, 2), F(8, 5)) is None
    assert hyper_strip(4, 3, 2) is None                   # odd slopes excluded
    assert hyper_strip(5, F(19, 10), 1) is not None


def test_bmno_h_inside_boundary():
    h = hyper_boundary(6)
    for mu_num in range(1, 40):
        mu = F(mu_num, 4)
        for lam_num in range(1, 25):
            lam = F(lam_num, 4)
            if in_bmno_h(6, point(mu, lam)):
                assert lam <= h(mu)


# -- refined curve gap (exact nested-radical comparison) ----------------------


def test_refined_curve_gap_bound():
    # the gap between the curve and the assembled boundary is strictly below
    # the worst chain-end value, checked exactly
    for g in (6, 10, 12, 13):
        f = bmno_boundary(g)
        ends = []
        s = 1
        while line_degree_bound_int(g, s + 1) <= g - 1:
            ends.append((line_degree_bound_int(g, s + 1) - 1, s))
            s += 1
        assert ends, f"no chain ends for genus {g}"
        best = ends[0]
        for cand in ends[1:]:
            if bn_curve_gap_cmp(g, cand[0], -cand[1], best[0], -best[1]) > 0:
                best = cand
        mb, sb = best
        for mu_num in range(1, (g - 1) * 4):
            mu = F(mu_num, 4)
            assert bn_curve_gap_cmp(g, mu, -f(mu), mb, -sb) < 0


def _literal_seesaw(g, mu):
    """Direct transcription of the three-branch boundary definition."""
    import math
    half = mu if mu <= g - 1 else 2 * (g - 1) - mu
    s = 1
    while line_degree_bound_int(g, s + 1) < half:
        s += 1
    a = line_degree_bound_int(g, s)
    b = line_degree_bound_int(g, s + 1)
    ceil_mu = math.ceil(half)
    if half <= a + 1:
        val = F(s, g) * (half - ceil_mu) + s
    elif b <= g - 1 and half > b - 1:
        val = F(b - s, g) * (half - ceil_mu + 1) + s
    else:
        val = F(s, g) * (half - ceil_mu + 1) + s
    if mu <= g - 1:
        return val
    return val + mu - (g - 1)


def _literal_parallelogram(g, mu):
    import math
    from bnlocus.arith import line_degree_bound_strict
    s = 1
    while line_degree_bound_strict(g, s + 1) < mu:
        s += 1
    if mu <= line_degree_bound_strict(g, s) + 1:
        return mu - math.ceil(mu) + s
    return F(s)


def _literal_hyper(g, mu):
    import math
    s = math.ceil(F(mu, 2))
    return F(s, g) * (mu - 2 * s + 1) + s


@pytest.mark.parametrize("g", [3, 4, 5, 6, 9, 10, 12, 13, 17, 20])
def test_boundaries_match_literal_formulas(g):
    from bnlocus.sweep import rationals_between
    f, t, h = bmno_boundary(g), teixidor_boundary(g), hyper_boundary(g)
    grid = sorted(set(rationals_between(0, 2 * g - 2, 12)) | set(f.breakpoints()))
    for mu in grid:
        assert f(mu) == _literal_seesaw(g, mu), ("f", g, mu)
        assert t(mu) == _literal_parallelogram(g, mu), ("t", g, mu)
        assert h(mu) == _literal_hyper(g, mu), ("h", g, mu)


def test_boundary_comparison_near_thresholds():
    # around each integer threshold: the assembled boundary dominates when the
    # rational threshold is already integral, the parallelogram boundary wins
    # strictly otherwise
    for g in (10, 12, 13):
        f, t = bmno_boundary(g), teixidor_boundary(g)
        s = 2
        while line_degree_bound_int(g, s) <= g - 1:
            a = line_degree_bound_int(g, s)
            grid = [a - 1 + F(j, 8) for j in range(1, 16)]
            if line_degree_bound(g, s) == a:
                assert all(f(mu) >= t(mu) for mu in grid), (g, s)
            else:
                assert all(t(mu) > f(mu) for mu in grid), (g, s)
            s += 1


def test_chain_strictness_witness():
    # the shifted-M tile strictly exceeds the shifted-BGN tile it contains
    g = 10
    for s in (1, 2, 3):
        for dp in (0, 1, 5):
            p = point(dp + F(3, 2), s)
            assert in_translated_m(g, dp, s, p)
            assert not in_translated_bgn(g, dp + 1, s, p)


# -- polylines ----------------------------------------------------------------


def test_pentagon_polyline():
    segs = boundary_polyline(4, RegionId(RegionKind.PENTAGON))
    pts = {(s.start.mu, s.start.lam) for s in segs} | {(s.end.mu, s.end.lam) for s in segs}
    assert {(0, 0), (0, 1), (6, 4), (6, 3), (3, 0)} <= pts
    assert len(segs) == 5
    dashed = [s for s in segs if not s.include_interior]
    assert len(dashed) == 2  # bottom edge and the strict duality edge


# the interior points of a segment tested against its interior flag: every
# rational of denominator at most 8 strictly between 0 and 1, as a fraction
# of the way from its start to its end
_INTERIOR = sorted({F(i, q) for q in range(2, 9) for i in range(1, q)})


@pytest.mark.parametrize("g", range(3, 21))
def test_polygon_polyline_flags_match_membership(g):
    tokens = ["p", "r", "bgn", "m", "bmno", "teixidor", "bmnoh"] + [
        f"{kind}:{d}:{s}" for kind in ("tbgn", "tm") for d, s in ((0, 1), (1, 2), (g - 2, 2), (g - 3, g - 1))]
    for token in tokens:
        region = parse_region_id(token)
        for seg in boundary_polyline(g, region):
            interior = [point(seg.start.mu + t * (seg.end.mu - seg.start.mu),
                              seg.start.lam + t * (seg.end.lam - seg.start.lam)) for t in _INTERIOR]
            checks = [(seg.start, seg.include_start), (seg.end, seg.include_end)]
            for p, flag in checks + [(q, seg.include_interior) for q in interior]:
                # a point on or under lam = 0 is outside every region
                assert (p.lam > 0 and region_membership(g, region, p)) == flag, (token, seg, p)


def test_bmno_polyline_breakpoint():
    segs = boundary_polyline(10, parse_region_id("bmno"))
    assert any(s.end == point(6, F(3, 2)) or s.start == point(6, F(3, 2)) for s in segs)


def test_teixidor_polyline_integer_breakpoints():
    segs = boundary_polyline(10, parse_region_id("teixidor"))
    for s in segs:
        assert s.start.mu.denominator == 1 and s.end.mu.denominator == 1


def test_polyline_json_shape():
    d = polyline_json_dict(10, parse_region_id("bmno"))
    assert d["region"] == "bmno" and d["genus"] == 10
    seg = d["segments"][0]
    assert set(seg) == {"from", "to", "include_from", "include_to"}
    assert all(isinstance(c, str) for c in seg["from"] + seg["to"])


def test_polyline_rejects_curve_region():
    with pytest.raises(ValueError):
        boundary_polyline(10, parse_region_id("bncurve"))


def test_region_membership_dispatch():
    assert region_membership(10, parse_region_id("bmno"), point(F(13, 2), F(19, 10)))
    assert region_membership(10, parse_region_id("bncurve"), point(9, 3))
    assert not region_membership(10, parse_region_id("bncurve"), point(9, F(31, 10)))
    assert region_membership(10, parse_region_id("tbgn:6:2"), point(F(13, 2), F(19, 10)))


def test_parse_region_id_errors():
    with pytest.raises(ValueError):
        parse_region_id("nope")
    with pytest.raises(ValueError):
        parse_region_id("tbgn:1")


def test_region_id_rejects_a_kind_that_is_not_a_region_kind():
    # the dispatches in boundary_polyline and region_membership rely on it
    with pytest.raises(TypeError):
        RegionId("bgn")


# -- input checks of the kernel-backed membership tests -------------------------

# the seven Fraction membership tests whose body is the scale-1 kernel, each
# with arguments after the genus that are also wrong: a bad mode or
# stability, lam = 0, s = 0 or a point of three coordinates
KERNEL_BACKED = (
    (in_bmno, (point(1, 1), "no-such-mode")),
    (in_teixidor, (point(1, 0), "no-such-stability")),
    (in_bmno_h, ((1, 1, 1),)),
    (in_translated_bgn, (0, 0, (1, 1, 1))),
    (in_translated_m, (0, 0, (1, 1, 1))),
    (in_u_bgn_half, (0, 0, (1, 1, 1))),
    (in_u_m_half, (0, 0, (1, 1, 1))),
)


@pytest.mark.parametrize("fn, args", KERNEL_BACKED, ids=[fn.__name__ for fn, _ in KERNEL_BACKED])
@pytest.mark.parametrize("g, error, text", [
    (3.0, TypeError, "genus must be an integer, got 3.0"),
    (True, TypeError, "genus must be an integer, got True"),
    (2, ValueError, "genus must be >= 3, got 2"),
], ids=["float", "bool", "two"])
def test_kernel_backed_memberships_reject_a_bad_genus(fn, args, g, error, text):
    """The genus is checked first, before the cached kernel is looked up, and
    a cached genus-3 kernel does not answer for 3.0 or True."""
    in_bmno_h(3, point(1, 1))  # caches the genus-3 kernel that all seven read
    with pytest.raises(error) as exc:
        fn(g, *args)
    assert str(exc.value) == text


# -- duality invariance (property form) ---------------------------------------


@given(st.integers(4, 14),
       st.fractions(min_value=0, max_value=30, max_denominator=8),
       st.fractions(min_value=F(1, 8), max_value=15, max_denominator=8))
def test_memberships_duality_invariant(g, mu, lam):
    p = point(mu, lam)
    sp = serre_dual_point(g, p)
    for mode in BmnoMode:
        assert in_bmno(g, p, mode) == in_bmno(g, sp, mode)
    assert in_bmno_h(g, p) == in_bmno_h(g, sp)
    if sp.lam > 0:
        for m in Stability:
            assert in_teixidor(g, p, m) == in_teixidor(g, sp, m)


@given(st.integers(3, 14),
       st.fractions(min_value=0, max_value=30, max_denominator=6),
       st.fractions(min_value=F(1, 6), max_value=15, max_denominator=6))
def test_translate_equivariance(g, mu, lam):
    # tile membership only depends on the slope offset
    p = point(mu, lam)
    q = point(mu + 3, lam)
    for s in (1, 2, 3):
        assert in_translated_bgn(g, 2, s, p) == in_translated_bgn(g, 5, s, q)
        assert in_translated_m(g, 2, s, p) == in_translated_m(g, 5, s, q)


# -- reflected tiles against brute-force preimages -----------------------------


def _u_preimage(g, dp, s, p):
    """Invert the reflected shift map: sigma then the inverse shift."""
    sp = serre_dual_point(g, p)
    return point(sp.mu - dp, F(sp.lam, s))


@given(st.integers(4, 12), st.data())
def test_u_bgn_formula_matches_preimage(g, data):
    # the displayed half-plane form of the reflected tile agrees with pulling
    # the point back through the map and testing the original trapezium,
    # for every shift in the regime where the reflected tile meets the left half
    s = data.draw(st.integers(1, g - 1), label="s")
    lo = max(line_degree_bound_int(g, s), g - 1)
    hi = min(s + g - 2, 2 * g - 3)
    if lo > hi:
        return
    dp = data.draw(st.integers(lo, hi), label="dp")
    d1, _ = u_params(g, dp, s)
    mu = data.draw(st.fractions(min_value=d1 - F(1, 2), max_value=d1 + F(3, 2),
                                max_denominator=8), label="mu")
    lam = data.draw(st.fractions(min_value=F(1, 8), max_value=g, max_denominator=8),
                    label="lam")
    p = point(mu, lam)
    expected = in_translated_bgn(g, 0, 1, _u_preimage(g, dp, s, p)) and in_half_pentagon(g, p)
    assert in_u_bgn_half(g, dp, s, p) == expected


@given(st.integers(4, 12), st.data())
def test_u_m_formula_matches_preimage(g, data):
    s = data.draw(st.integers(1, g - 1), label="s")
    lo = max(line_degree_bound_int(g, s), g - 2)
    hi = s + g - 3
    if lo > hi:
        return
    dp = data.draw(st.integers(lo, hi), label="dp")
    d1, _ = u_params(g, dp, s)
    mu = data.draw(st.fractions(min_value=d1 - F(3, 2), max_value=d1 + F(1, 2),
                                max_denominator=8), label="mu")
    lam = data.draw(st.fractions(min_value=F(1, 8), max_value=g, max_denominator=8),
                    label="lam")
    p = point(mu, lam)
    expected = in_translated_m(g, 0, 1, _u_preimage(g, dp, s, p)) and in_half_pentagon(g, p)
    assert in_u_m_half(g, dp, s, p) == expected
