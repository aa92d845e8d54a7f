"""The membership kernel at scale D (integers) against scale 1 (Fractions).

``regions._IntKernel`` is the one body of every region and tile test, and
``BoundaryFn`` the one evaluator of each boundary.  The sweeps run them on
integers at a common denominator D, and the public Fraction functions run
them on their point at D = 1.  These tests hold the two scales together, on
the grid and on every edge, corner, sliver and threshold column where the
strict and weak inequalities differ, so a body that used a Fraction-only or
an integer-only operation would fail here.  The assembled region's
per-slope columns, which both the duality sweep and the public
:func:`in_bmno` read, are held at scale D to :func:`in_bmno` at the same
points, and the scaled boundary values to the pieces that own each slope.
The bodies themselves are checked independently by the tile-union,
preimage, duality and membership-bitmap tests.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlocus.arith import BNPoint, Stability, line_degree_bound_int, rho_tilde, serre_dual_point
from bnlocus.regions import (
    BmnoMode,
    _IntKernel,
    bmno_boundary,
    hyper_boundary,
    in_bmno,
    in_bmno_h,
    in_teixidor,
    in_translated_bgn,
    in_translated_m,
    in_u_bgn_half,
    in_u_m_half,
    teixidor_boundary,
)
from bnlocus.sweep import _scaled_grid

TILE_TESTS = (
    (in_translated_bgn, "shifted_tile", "bgn"),
    (in_translated_m, "shifted_tile", "m"),
    (in_u_bgn_half, "reflected_tile", "bgn"),
    (in_u_m_half, "reflected_tile", "m"),
)


def _denominator(g: int, max_den: int) -> int:
    return g * math.lcm(*range(1, max_den + 1), 8)


def _check_regions(k, M, L):
    g, D = k.g, k.D
    p = BNPoint(Fraction(M, D), Fraction(L, D))
    dual = serre_dual_point(g, p)
    assert k.dual(M, L) == (dual.mu * D, dual.lam * D)
    assert Fraction(k.rho_tilde(M, L), D * D) == rho_tilde(g, p)
    for mode in BmnoMode:
        assert k.in_bmno_col(k.bmno_column(M, mode), L) == in_bmno(g, p, mode), (p, mode)
    for stability in Stability:
        if L > 0:
            assert k.in_teixidor(M, L, stability) == in_teixidor(g, p, stability), (p, stability)
        else:
            with pytest.raises(ValueError):
                k.in_teixidor(M, L, stability)
    assert k.in_bmno_h(M, L) == in_bmno_h(g, p), p


def _offsets(x):
    return (x - 1, x, x + 1)


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_kernel_matches_on_lattice(g):
    """Scale D against scale 1 at every integer and half-integer column, 1/D
    either side, against the integer and half-integer levels, the threshold
    heights (s-1)(1+1/g) and the boundary values there, 1/D either side:
    this takes in every corner, sliver, isolated point and threshold column
    of the regions."""
    D = _denominator(g, 8)
    k = _IntKernel(g, D)
    levels = {j * D // 2 for j in range(-2, 2 * g + 3)}
    levels |= {(s - 1) * (g + 1) * D // g for s in range(1, g + 1)}
    for c in range(-2, 4 * g - 1):
        for M in _offsets(c * D // 2):
            mu = Fraction(M, D)
            heights = set(levels)
            if 0 < mu < 2 * g - 2:
                heights |= {math.floor(fn(g)(mu) * D)
                            for fn in (bmno_boundary, teixidor_boundary, hyper_boundary)}
            for L0 in heights:
                for L in _offsets(L0):
                    _check_regions(k, M, L)


@st.composite
def kernel_points(draw):
    """A genus, a common denominator D = g*lcm(1..max_den, 8) and a scaled
    point on the grid, a column or a level, or a boundary value, or its dual."""
    g = draw(st.integers(3, 12))
    D = _denominator(g, draw(st.integers(1, 8)))
    offset = draw(st.sampled_from((-1, 0, 0, 1)))
    where = draw(st.sampled_from(("grid", "column", "threshold")))
    if where == "grid":
        M = g * draw(st.integers(-D // g, (2 * g - 1) * D // g))
    elif where == "column":
        M = draw(st.integers(-1, 2 * g - 1)) * D + offset
    else:
        a = line_degree_bound_int(g, draw(st.integers(1, g)))
        M = draw(st.sampled_from((a, 2 * g - 2 - a))) * D + offset
    offset = draw(st.sampled_from((-1, 0, 0, 1)))
    height = draw(st.sampled_from(("free", "level", "boundary")))
    if height == "free":
        L = draw(st.integers(-D, (g + 1) * D))
    elif height == "level":
        L = draw(st.integers(-1, g + 1)) * D + offset
    else:
        fn = draw(st.sampled_from((bmno_boundary, teixidor_boundary, hyper_boundary)))(g)
        mu = Fraction(M, D)
        top = fn(mu) if 0 < mu < 2 * g - 2 else Fraction(g - 1)
        L = math.floor(top * D) + offset
    kernel = _IntKernel(g, D)
    if draw(st.booleans()):
        M, L = kernel.dual(M, L)
    return kernel, M, L


@settings(max_examples=300, deadline=None)
@given(kernel_points())
def test_kernel_matches_fraction_functions(case):
    """Scale D against scale 1 on random points near the features."""
    _check_regions(*case)


@st.composite
def tile_points(draw):
    """One of the four tile tests for a random shift and section count, and a
    point 1/D from its corner, its sliver, an end, its top or the lattice."""
    g = draw(st.integers(3, 12))
    D = _denominator(g, draw(st.integers(1, 8)))
    k = _IntKernel(g, D)
    reference, builder, kind = draw(st.sampled_from(TILE_TESTS))
    d_shift, s = draw(st.integers(-1, 2 * g)), draw(st.integers(1, g + 1))
    tile = getattr(k, builder)(kind, d_shift, s)
    near = st.sampled_from((-1, 0, 0, 1))
    den, n, c = tile.line
    feature = draw(st.sampled_from(("corner", "sliver", "end", "top", "lattice")))
    if feature in ("corner", "sliver") and getattr(tile, feature) is not None:
        M, L = getattr(tile, feature)
    else:
        if feature == "end":
            M = draw(st.sampled_from((tile.lo, tile.hi)))
        else:  # a multiple of g, where the top is a multiple of 1/D
            M = g * draw(st.integers(tile.lo // g, tile.hi // g))
        if feature == "lattice":
            M, L = M // D * D, draw(st.integers(-1, s + g + 1)) * D
        else:
            L = (n * M + c) // den
    return g, D, reference, tile, d_shift, s, M + draw(near), L + draw(near)


@settings(max_examples=400, deadline=None)
@given(tile_points())
def test_kernel_tiles_match_fraction_functions(case):
    """Each tile at scale D against its Fraction function at scale 1."""
    g, D, reference, tile, d_shift, s, M, L = case
    p = BNPoint(Fraction(M, D), Fraction(L, D))
    assert tile.contains(M, L) == reference(g, d_shift, s, p), (reference.__name__, d_shift, s, p)


@settings(max_examples=200, deadline=None)
@given(kernel_points())
def test_kernel_boundary_values(case):
    """Each boundary at scale D against the value of the piece that owns the
    slope by its flags, and the kernel's boundary against the assembled one."""
    k, M, _ = case
    g, D = k.g, k.D
    assert k.f is bmno_boundary(g)
    mu = Fraction(M, D)
    for fn in (bmno_boundary(g), teixidor_boundary(g), hyper_boundary(g)):
        if not 0 < mu < 2 * g - 2:
            with pytest.raises(ValueError, match="outside domain"):
                fn.scaled_bound(M, D)
            continue
        [owner] = [p for p in fn.pieces
                   if p.lo < mu < p.hi or (mu == p.lo and p.include_lo) or (mu == p.hi and p.include_hi)]
        want = owner.value_at(mu) * D
        den, num, piece = fn.scaled_bound(M, D)
        assert piece is owner and Fraction(num, den) == want
        if want.denominator == 1:
            assert fn.scaled_value(M, D) == want
        else:
            with pytest.raises(ValueError, match="not an integer"):
                fn.scaled_value(M, D)


def test_kernel_rejects_points_off_the_denominator():
    D = 4 * 840
    assert 3 * 4 * 120 in _scaled_grid(0, 1, 7, D)
    with pytest.raises(ValueError):
        _scaled_grid(0, 1, 9, D)
    with pytest.raises(ValueError):
        _IntKernel(4, D).shifted_tile("bgn", 0, 0)
