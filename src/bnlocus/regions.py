"""Region algebra for the slope plane: exact membership and boundaries.

Implements the pentagon of nontrivial problems, the low-slope trapezia BGN
and M, their images under the shift maps T and their duality reflections U,
the assembled existence region (boundary ``f``), the Teixidor parallelogram
region (boundary ``t``) and the hyperelliptic region (boundary ``h``).

Each shape is stated once.  :func:`bmno_tiles` is the one walk over the
rank-one thresholds; each of its tiles is a T- or U-image of BGN or M, the
seesaw ``f`` is the tiles' top lines and their reflection, and the
threshold columns come from the same walk.  :func:`hyper_strip` is the one
statement of the hyperelliptic strips, which the oracle also reads.

All memberships follow the strict/non-strict inequalities of the source
criteria exactly, including the isolated excluded corner points.  Everything
is a pure function of immutable values; region data is cached per genus.
A private scaled-integer kernel answers the same membership questions on
points scaled to a common denominator, for the verification sweeps.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import (
    BNPoint,
    Stability,
    _as_point,
    check_genus,
    format_rat,
    line_degree_bound_int,
    line_degree_bound_strict,
    rho_tilde,
    serre_dual_point,
)


class BmnoMode(Enum):
    """Boundary-inclusion regime for the assembled existence region.

    STABLE keeps every exclusion forced on an arbitrary curve;
    NON_HYPERELLIPTIC restores the right-hand tile boundaries;
    SEMISTABLE includes the whole upper boundary plus the threshold columns.
    """

    STABLE = "stable"
    NON_HYPERELLIPTIC = "nonhyperelliptic"
    SEMISTABLE = "semistable"


# ---------------------------------------------------------------------------
# piecewise-linear boundary functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One linear piece lo..hi of a boundary function.

    Endpoint ownership is explicit: the duality-reflected half of the
    assembled boundary is right-open/left-closed, the directly constructed
    half left-open/right-closed, so a single convention cannot serve both.
    """

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    include_lo: bool = False
    include_hi: bool = True

    def contains_x(self, mu: Fraction) -> bool:
        if mu < self.lo or mu > self.hi:
            return False
        if mu == self.lo:
            return self.include_lo
        if mu == self.hi:
            return self.include_hi
        return True

    def value_at(self, mu) -> Fraction:
        return self.slope * Fraction(mu) + self.intercept


@dataclass(frozen=True)
class BoundaryFn:
    """Piecewise-linear function whose pieces exactly tile an open interval."""

    pieces: tuple[Piece, ...]
    domain_lo: Fraction
    domain_hi: Fraction

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise ValueError("boundary function needs at least one piece")
        if ps[0].lo != self.domain_lo or ps[-1].hi != self.domain_hi:
            raise ValueError("pieces do not span the stated domain")
        if ps[0].include_lo or ps[-1].include_hi:
            raise ValueError("domain is open; end pieces must not own endpoints")
        for a, b in zip(ps, ps[1:]):
            if a.hi != b.lo:
                raise ValueError(f"gap between pieces at {a.hi} vs {b.lo}")
            if a.include_hi == b.include_lo:
                raise ValueError(f"shared abscissa {a.hi} owned {'twice' if a.include_hi else 'by no piece'}")

    @cached_property
    def _los(self):
        return [p.lo for p in self.pieces]

    def piece_at(self, mu) -> Piece:
        mu = Fraction(mu)
        if not (self.domain_lo < mu < self.domain_hi):
            raise ValueError(f"{mu} outside domain ({self.domain_lo}, {self.domain_hi})")
        i = bisect_right(self._los, mu) - 1
        for j in (i, i + 1, i - 1):
            if 0 <= j < len(self.pieces) and self.pieces[j].contains_x(mu):
                return self.pieces[j]
        raise AssertionError(f"tiling failure at {mu}")

    def __call__(self, mu) -> Fraction:
        mu = Fraction(mu)
        return self.piece_at(mu).value_at(mu)

    def breakpoints(self) -> list[Fraction]:
        """All piece endpoints interior to the domain."""
        xs = {p.lo for p in self.pieces} | {p.hi for p in self.pieces}
        return sorted(x for x in xs if self.domain_lo < x < self.domain_hi)


@lru_cache(maxsize=None)
def bmno_boundary(g: int) -> BoundaryFn:
    """Seesaw upper boundary of the assembled existence region on (0, 2g-2).

    On (0, g-1] it is the top line of each tile of :func:`bmno_tiles`; the
    (g-1, 2g-2) part is the image of that graph under the duality reflection,
    which turns the left-open pieces into right-open ones.
    """
    check_genus(g, 3)
    left = [Piece(Fraction(t.lo), Fraction(t.lo + 1), t.slope, t.intercept) for t in bmno_tiles(g)]
    out = list(left)
    first = True
    for p in reversed(left):
        # graph image of lam = m*mu + c under (mu, lam) -> (2g-2-mu, lam+g-1-mu)
        m, c = p.slope, p.intercept
        out.append(
            Piece(
                2 * (g - 1) - p.hi,
                2 * (g - 1) - p.lo,
                1 - m,
                m * (2 * g - 2) + c - (g - 1),
                include_lo=not first,
                include_hi=False,
            )
        )
        first = False
    return BoundaryFn(tuple(out), Fraction(0), Fraction(2 * g - 2))


@lru_cache(maxsize=None)
def teixidor_boundary(g: int) -> BoundaryFn:
    """Continuous non-decreasing boundary of the parallelogram region.

    Alternates unit-slope ramps over (D(s), D(s)+1] and plateaus at height s,
    where D is the strict rank-one threshold; tiles (0, 2g-2).
    """
    check_genus(g, 3)
    top = Fraction(2 * g - 2)
    pieces: list[Piece] = []
    s = 1
    while line_degree_bound_strict(g, s) < 2 * g - 2:
        r0 = Fraction(line_degree_bound_strict(g, s))
        r1 = min(r0 + 1, top)
        pieces.append(Piece(r0, r1, Fraction(1), s - 1 - r0))
        nxt = Fraction(line_degree_bound_strict(g, s + 1))
        if nxt > r1:
            pieces.append(Piece(r1, min(nxt, top), Fraction(0), Fraction(s)))
        s += 1
    last = pieces[-1]
    pieces[-1] = Piece(last.lo, last.hi, last.slope, last.intercept, last.include_lo, include_hi=False)
    return BoundaryFn(tuple(pieces), Fraction(0), top)


@lru_cache(maxsize=None)
def hyper_boundary(g: int) -> BoundaryFn:
    """Upper boundary of the hyperelliptic region: (s/g)(mu-2s+1)+s on (2s-2, 2s]."""
    check_genus(g, 3)
    pieces = [
        Piece(Fraction(2 * s - 2), Fraction(2 * s), Fraction(s, g), s - Fraction(s, g) * (2 * s - 1))
        for s in range(1, g)
    ]
    last = pieces[-1]
    pieces[-1] = Piece(last.lo, last.hi, last.slope, last.intercept, last.include_lo, include_hi=False)
    return BoundaryFn(tuple(pieces), Fraction(0), Fraction(2 * g - 2))


# ---------------------------------------------------------------------------
# elementary regions and shift maps
# ---------------------------------------------------------------------------


def in_pentagon(g: int, p) -> bool:
    """Pentagon of nontrivial problems: mu < lam+g-1, mu >= 2 lam-2,
    0 <= mu <= 2g-2, lam > 0."""
    check_genus(g)
    mu, lam = _as_point(p)
    return mu < lam + g - 1 and mu >= 2 * lam - 2 and 0 <= mu <= 2 * g - 2 and lam > 0


def in_half_pentagon(g: int, p) -> bool:
    """Left half of the pentagon (slope at most g-1), the duality fundamental domain."""
    p = _as_point(p)
    return in_pentagon(g, p) and p.mu <= g - 1


def _trapezium_top(g: int, mu: Fraction) -> Fraction:
    return Fraction(mu + g - 1, g)


def in_bgn(g: int, p) -> bool:
    """Slope-(0,1] trapezium 0 < lam <= (mu+g-1)/g minus its (1,1) corner."""
    check_genus(g, 3)
    mu, lam = _as_point(p)
    if not (0 < mu <= 1 and 0 < lam <= _trapezium_top(g, mu)):
        return False
    return not (mu == 1 and lam == 1)


def in_m(g: int, p) -> bool:
    """Slope-(1,2) trapezium plus the slope-2 sliver {(2, lam): 0 < lam < 1}."""
    check_genus(g, 3)
    mu, lam = _as_point(p)
    if 1 < mu < 2 and 0 < lam <= _trapezium_top(g, mu):
        return True
    return mu == 2 and 0 < lam < 1


def apply_t(d_shift: int, s: int, p) -> BNPoint:
    """Shift map (mu, lam) -> (mu + d_shift, s*lam)."""
    if s < 1:
        raise ValueError(f"section multiplier must be >= 1, got {s}")
    mu, lam = _as_point(p)
    return BNPoint(mu + d_shift, s * lam)


def apply_u(g: int, d_shift: int, s: int, p) -> BNPoint:
    """Duality reflection of the shift map: sigma composed with T."""
    check_genus(g)
    return serre_dual_point(g, apply_t(d_shift, s, p))


def in_translated_bgn(g: int, d_shift: int, s: int, p) -> bool:
    """Image of the BGN trapezium under T: d' < mu <= d'+1,
    0 < lam <= (s/g)(mu-d'-1)+s, minus the corner (d'+1, s)."""
    check_genus(g, 3)
    if s < 1:
        raise ValueError(f"section multiplier must be >= 1, got {s}")
    mu, lam = _as_point(p)
    if not (d_shift < mu <= d_shift + 1):
        return False
    if not (0 < lam <= Fraction(s, g) * (mu - d_shift - 1) + s):
        return False
    return not (mu == d_shift + 1 and lam == s)


def in_translated_m(g: int, d_shift: int, s: int, p) -> bool:
    """Image of the M trapezium under T: open strip d'+1 < mu < d'+2 under
    the same top line, plus the sliver {(d'+2, lam): 0 < lam < s}."""
    check_genus(g, 3)
    if s < 1:
        raise ValueError(f"section multiplier must be >= 1, got {s}")
    mu, lam = _as_point(p)
    if d_shift + 1 < mu < d_shift + 2 and 0 < lam <= Fraction(s, g) * (mu - d_shift - 1) + s:
        return True
    return mu == d_shift + 2 and 0 < lam < s


def u_params(g: int, d_shift: int, s: int) -> tuple[int, int]:
    """Anchor (d1, s1) of the reflected tile: the image of (1, 1) under U."""
    return 2 * g - 3 - d_shift, s + g - 2 - d_shift


def in_u_bgn_half(g: int, d_shift: int, s: int, p) -> bool:
    """Reflected BGN tile clipped to the left half: d1 <= mu < d1+1,
    0 < lam <= (1-s/g)(mu-d1)+s1, minus the anchor point (d1, s1)."""
    check_genus(g, 3)
    if s < 1:
        raise ValueError(f"section multiplier must be >= 1, got {s}")
    d1, s1 = u_params(g, d_shift, s)
    mu, lam = _as_point(p)
    if not (d1 <= mu < d1 + 1):
        return False
    if not (0 < lam <= (1 - Fraction(s, g)) * (mu - d1) + s1):
        return False
    return not (mu == d1 and lam == s1)


def in_u_m_half(g: int, d_shift: int, s: int, p) -> bool:
    """Reflected M tile clipped to the left half: open strip d1-1 < mu < d1
    under the same top, plus the sliver {(d1-1, lam): 0 < lam < s1-1}."""
    check_genus(g, 3)
    if s < 1:
        raise ValueError(f"section multiplier must be >= 1, got {s}")
    d1, s1 = u_params(g, d_shift, s)
    mu, lam = _as_point(p)
    if d1 - 1 < mu < d1 and 0 < lam <= (1 - Fraction(s, g)) * (mu - d1) + s1:
        return True
    return mu == d1 - 1 and 0 < lam < s1 - 1


# ---------------------------------------------------------------------------
# the assembled existence region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tile:
    """One tile of the assembled region, over the column lo..lo+1 at level s.

    Every tile is an image of the BGN or M trapezium (``base``): under the
    shift map T with shift ``d_shift`` and section multiplier ``mult``, or,
    when ``reflected``, under its reflection U with the same parameters.  A
    reflected tile replaces the last M tile of a chain and keeps that tile's
    right edge {mu = lo+1, 0 < lam < s}.  ``slope`` and ``intercept`` give the
    top line, which is the seesaw boundary over the column.
    """

    lo: int
    s: int
    slope: Fraction
    intercept: Fraction
    base: str
    d_shift: int
    mult: int
    reflected: bool = False

    @property
    def kind(self) -> str:
        """'bgn' or 'm' for a T-image, 'u' for the reflected replacement tile."""
        return "u" if self.reflected else self.base

    def contains(self, g: int, p: BNPoint) -> bool:
        if self.reflected:
            return (in_u_bgn_half(g, self.d_shift, self.mult, p)
                    or (p.mu == self.lo + 1 and in_translated_m(g, self.lo - 1, self.s, p)))
        image = in_translated_bgn if self.base == "bgn" else in_translated_m
        return image(g, self.d_shift, self.mult, p)


@lru_cache(maxsize=None)
def bmno_tiles(g: int) -> tuple[Tile, ...]:
    """The tiles over (0, g-1] whose union, with its reflection, is the region.

    This is the one walk over the integer rank-one thresholds
    a_s = ceil((s-1)(s+g)/s).  The chain for s sections starts with the
    T-image of BGN at a_s and goes on with T-images of M.  When the next
    threshold b = a_{s+1} is at most g-1, the chain's last M tile, over
    (b-1, b], is replaced by the U-image of BGN anchored at (b-1, s), and the
    walk goes on with s+1 sections from b.
    """
    check_genus(g, 3)
    tiles: list[Tile] = []
    s = 1
    while line_degree_bound_int(g, s) < g - 1:
        a = line_degree_bound_int(g, s)
        b = line_degree_bound_int(g, s + 1)
        tiles.append(Tile(a, s, Fraction(s, g), s - Fraction(s, g) * (a + 1), "bgn", a, s))
        for lo in range(a + 1, min(b - 1, g - 1)):
            tiles.append(Tile(lo, s, Fraction(s, g), s - Fraction(s, g) * lo, "m", lo - 1, s))
        if b > g - 1:
            break
        tiles.append(Tile(b - 1, s, Fraction(b - s, g), s - Fraction(b - s, g) * (b - 1),
                          "bgn", 2 * g - 2 - b, g - b + s, reflected=True))
        s += 1
    return tuple(tiles)


def _threshold_columns(g: int) -> dict[int, int]:
    """Each integer rank-one threshold up to g-1, mapped to its section count:
    0 for one section, and the right end of each reflected tile for one more
    than the tile's level."""
    return {0: 1} | {t.lo + 1: t.s + 1 for t in bmno_tiles(g) if t.reflected}


def _in_tiles_half(g: int, p: BNPoint) -> bool:
    if not (0 < p.mu <= g - 1) or p.lam <= 0:
        return False
    for tile in bmno_tiles(g):
        if tile.lo > p.mu:
            break
        if tile.contains(g, p):
            return True
    return False


def in_bmno(g: int, p, mode: BmnoMode = BmnoMode.STABLE) -> bool:
    """Membership in the assembled existence region.

    STABLE mode is the explicit tile union (with reflection) minus every
    exclusion forced on an arbitrary curve; for genus 3 the isolated point
    (2, 1) is additionally known to belong.  NON_HYPERELLIPTIC restores the
    right-hand boundaries: everything under the seesaw except the threshold
    columns above (s-1)(1+1/g) and the shifted corners (threshold+1, s).
    SEMISTABLE includes the whole seesaw graph plus the threshold columns
    up to height s.
    """
    check_genus(g, 3)
    mode = BmnoMode(mode)
    p = _as_point(p)
    sp = serre_dual_point(g, p)
    if mode is BmnoMode.STABLE:
        if _in_tiles_half(g, p) or _in_tiles_half(g, sp):
            return True
        return g == 3 and (p.mu, p.lam) == (2, 1)
    # the region is (left polygon) union its reflection; the reflected part is
    # bounded below by the image of lam > 0, so test the left-half formula at
    # the point and at its dual rather than the seesaw over the whole range
    f = bmno_boundary(g)
    columns = _threshold_columns(g)

    def left_half(q: BNPoint) -> bool:
        if not (0 <= q.mu <= g - 1 and 0 < q.lam):
            return False
        s = columns.get(q.mu)
        if mode is BmnoMode.SEMISTABLE and s is not None and q.lam <= s:
            return True
        if q.mu == 0 or q.lam > f(q.mu):
            return False
        if mode is BmnoMode.SEMISTABLE:
            return True
        if s is not None and q.lam > (s - 1) * (1 + Fraction(1, g)):
            return False
        if q.lam == int(q.lam):
            sc = columns.get(q.mu - 1)
            if sc is not None and q.lam == sc:
                return False
        return True

    return left_half(p) or left_half(sp)


# ---------------------------------------------------------------------------
# Teixidor parallelogram region
# ---------------------------------------------------------------------------


def _floor(x: Fraction) -> int:
    return math.floor(x)


def in_teixidor(g: int, p, stability: Stability = Stability.SEMISTABLE) -> bool:
    """Parallelogram-region membership.

    A point is in when the normalized count is nonnegative at the integer
    anchor selected by the fractional parts (ceiling anchor when the lambda
    fraction is nonzero and at most the mu fraction; floor/ceiling when it
    exceeds it; pure floor for integral lambda).  In stable mode, integral
    points whose left neighbour and dual left neighbour both have negative
    count are excluded; applying the exclusion on both sides of the duality
    keeps the stable region reflection-symmetric, which is legitimate since
    duality transports existence.
    """
    check_genus(g, 3)
    stability = Stability(stability)
    mu, lam = _as_point(p)
    if lam <= 0:
        raise ValueError(f"requires lam > 0, got {lam}")
    fl = lam - _floor(lam)
    fm = mu - _floor(mu)
    if fl == 0:
        ok = rho_tilde(g, BNPoint(_floor(mu), lam)) >= 0
    elif fl <= fm:
        ok = rho_tilde(g, BNPoint(_floor(mu) + 1, _floor(lam) + 1)) >= 0
    else:
        ok = rho_tilde(g, BNPoint(_floor(mu), _floor(lam) + 1)) >= 0
    if not ok:
        return False
    if stability is Stability.STABLE and fl == 0 and fm == 0:
        here = rho_tilde(g, BNPoint(mu - 1, lam)) < 0
        dual = serre_dual_point(g, BNPoint(mu, lam))
        there = rho_tilde(g, BNPoint(dual.mu - 1, dual.lam)) < 0
        if here and there:
            return False
    return True


# ---------------------------------------------------------------------------
# hyperelliptic region and strips
# ---------------------------------------------------------------------------


def in_bmno_h(g: int, p) -> bool:
    """Hyperelliptic region: union over 1 <= s <= g-1 of the shifted
    (BGN u M u {(2,1)}) tiles, clipped to the pentagon; reflection-symmetric."""
    check_genus(g, 3)
    mu, lam = _as_point(p)
    if not in_pentagon(g, p):
        return False
    if mu <= 0 or mu > 2 * g - 2:
        return False
    s = max(1, math.ceil(Fraction(mu, 2)))  # slope window (2s-2, 2s]
    if s > g - 1:
        return False
    if in_translated_bgn(g, 2 * s - 2, s, p) or in_translated_m(g, 2 * s - 2, s, p):
        return True
    return mu == 2 * s and lam == s  # image of the known point (2, 1)


def hyper_strip(g: int, mu: Fraction, lam: Fraction) -> tuple[int, bool] | None:
    """The fully-settled hyperelliptic strip that holds (mu, lam), as (s, dual).

    For 1 <= s <= g-1 the strip is the band 2s-1 < mu <= 2s with
    0 < lam <= s (dual False), or its duality image 2s-2 <= mu < 2s-1 with
    0 < lam <= mu - s + 1 (dual True).  None when no strip holds the point.
    Genus 2 is accepted: every genus-2 curve is hyperelliptic.
    """
    check_genus(g)
    if lam <= 0:
        return None
    for s in range(1, g):
        if 2 * s - 1 < mu <= 2 * s and lam <= s:
            return s, False
        if 2 * s - 2 <= mu < 2 * s - 1 and lam <= mu - s + 1:
            return s, True
    return None


def in_hyper_strips(g: int, p) -> bool:
    """Union of the fully-settled hyperelliptic strips of :func:`hyper_strip`."""
    check_genus(g, 3)
    return hyper_strip(g, *_as_point(p)) is not None


# ---------------------------------------------------------------------------
# scaled-integer membership kernel
# ---------------------------------------------------------------------------


def _int_line(slope: Fraction, intercept: Fraction, scale: int) -> tuple[int, int, int]:
    """Line lam = slope*mu + intercept as (den, n, k): at scale D a point
    (M, L) = (mu*D, lam*D) lies on or below it iff den*L <= n*M + k."""
    den = math.lcm(slope.denominator, intercept.denominator)
    return den, int(slope * den), int(intercept * den * scale)


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{num}/{den} is not an integer: the value is not a multiple of 1/D")
    return q


def _at_scale(x, scale: int) -> int:
    """x*D for a rational x that is a multiple of 1/D."""
    x = Fraction(x)
    return _exact(x.numerator * scale, x.denominator)


@dataclass(frozen=True, slots=True)
class _IntTile:
    """A tile at scale D: the abscissae between lo and hi (each end included
    by its flag), 0 < L on or under the top line, minus the corner point, plus
    the sliver {M = sliver[0], 0 < L < sliver[1]}."""

    lo: int
    hi: int
    lo_in: bool
    hi_in: bool
    line: tuple[int, int, int]
    corner: tuple[int, int] | None
    sliver: tuple[int, int] | None

    @classmethod
    def of(cls, tile: Tile, scale: int) -> "_IntTile":
        """The BGN or M tile ``tile`` at scale D."""
        lo, hi, top = tile.lo * scale, (tile.lo + 1) * scale, tile.s * scale
        line = _int_line(tile.slope, tile.intercept, scale)
        if tile.base == "bgn":
            return cls(lo, hi, False, True, line, (hi, top), None)
        return cls(lo, hi, False, False, line, None, (hi, top))

    def contains(self, M: int, L: int) -> bool:
        if L <= 0:
            return False
        lo, hi = self.lo, self.hi
        den, n, k = self.line
        if ((lo < M or (self.lo_in and M == lo)) and (M < hi or (self.hi_in and M == hi))
                and den * L <= n * M + k and (M, L) != self.corner):
            return True
        sliver = self.sliver
        return sliver is not None and M == sliver[0] and L < sliver[1]

    def top(self, M: int) -> int:
        den, n, k = self.line
        return _exact(n * M + k, den)

    def shifted(self, d_scaled: int, s: int) -> "_IntTile":
        """Image under T: (M, L) -> (M + d_scaled, s*L)."""
        den, n, k = self.line

        def move(q):
            return None if q is None else (q[0] + d_scaled, s * q[1])

        return _IntTile(self.lo + d_scaled, self.hi + d_scaled, self.lo_in, self.hi_in,
                        (den, s * n, s * (k - n * d_scaled)), move(self.corner), move(self.sliver))

    def reflected(self, gd: int) -> "_IntTile":
        """Image under the duality (M, L) -> (2gd - M, L + gd - M), with gd = (g-1)*D,
        clipped to L > 0 (the U tiles are the reflections cut off at lam = 0)."""
        den, n, k = self.line

        def flip(q):
            return None if q is None else (2 * gd - q[0], q[1] + gd - q[0])

        return _IntTile(2 * gd - self.hi, 2 * gd - self.lo, self.hi_in, self.lo_in,
                        (den, den - n, 2 * n * gd + k - den * gd), flip(self.corner), flip(self.sliver))


class _IntBoundary:
    """A :class:`BoundaryFn` at scale D, with the same endpoint ownership."""

    __slots__ = ("lo", "hi", "los", "pieces")

    def __init__(self, fn: BoundaryFn, scale: int):
        self.lo, self.hi = _at_scale(fn.domain_lo, scale), _at_scale(fn.domain_hi, scale)
        self.los = [_at_scale(p.lo, scale) for p in fn.pieces]
        self.pieces = [(lo, p.include_lo, _int_line(p.slope, p.intercept, scale))
                       for lo, p in zip(self.los, fn.pieces)]

    def line_at(self, M: int) -> tuple[int, int, int]:
        if not (self.lo < M < self.hi):
            raise ValueError(f"{M} outside the scaled domain ({self.lo}, {self.hi})")
        i = bisect_right(self.los, M) - 1
        lo, include_lo, line = self.pieces[i]
        if M == lo and not include_lo:
            line = self.pieces[i - 1][2]
        return line

    def value(self, M: int) -> int:
        """The boundary value at M, scaled by D; raises unless it is a multiple of 1/D."""
        den, n, k = self.line_at(M)
        return _exact(n * M + k, den)

    def below(self, M: int, L: int) -> bool:
        """L <= boundary(M), at scale D."""
        den, n, k = self.line_at(M)
        return den * L <= n * M + k


class _IntKernel:
    """Integer membership tests of one genus on points (M, L) = (mu*D, lam*D).

    Answers what :func:`in_bmno`, :func:`in_teixidor`, :func:`in_bmno_h`, the
    four shifted/reflected tile tests, :func:`rho_tilde` and
    :func:`serre_dual_point` answer on the point (M/D, L/D), without building
    a Fraction.  The tables are derived from :func:`bmno_tiles` and
    :func:`bmno_boundary`: every tile, like its Fraction counterpart, is the
    T- or U-image of the first BGN or M tile.  The Fraction functions stay
    the reference.
    """

    def __init__(self, g: int, scale: int):
        check_genus(g, 3)
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.g, self.D = g, scale
        self.gd = (g - 1) * scale
        tiles = bmno_tiles(g)  # the BGN tile at 0, then the M tile at 1
        self._base = {t.base: _IntTile.of(t, scale) for t in tiles[:2]}
        self._tiles = [self._image(t) for t in tiles]  # sorted by lo
        self.f = _IntBoundary(bmno_boundary(g), scale)
        # threshold column M -> its section count s
        self._columns = {a * scale: s for a, s in _threshold_columns(g).items()}
        self._hyper = [None] + [(self.shifted_tile("bgn", 2 * s - 2, s), self.shifted_tile("m", 2 * s - 2, s))
                                for s in range(1, g)]

    def scaled(self, fn: BoundaryFn) -> _IntBoundary:
        return _IntBoundary(fn, self.D)

    def at_scale(self, x) -> int:
        """x*D; raises unless the rational x is a multiple of 1/D."""
        return _at_scale(x, self.D)

    def shifted_tile(self, kind: str, d_shift: int, s: int) -> _IntTile:
        """:func:`in_translated_bgn` (kind 'bgn') or :func:`in_translated_m` (kind 'm')."""
        if s < 1:
            raise ValueError(f"section multiplier must be >= 1, got {s}")
        return self._base[kind].shifted(d_shift * self.D, s)

    def reflected_tile(self, kind: str, d_shift: int, s: int) -> _IntTile:
        """:func:`in_u_bgn_half` (kind 'bgn') or :func:`in_u_m_half` (kind 'm')."""
        return self.shifted_tile(kind, d_shift, s).reflected(self.gd)

    def _image(self, t: Tile) -> _IntTile:
        """:meth:`Tile.contains` of one tile of :func:`bmno_tiles`."""
        if not t.reflected:
            return self.shifted_tile(t.base, t.d_shift, t.mult)
        edge = ((t.lo + 1) * self.D, t.s * self.D)
        return replace(self.reflected_tile(t.base, t.d_shift, t.mult), sliver=edge)

    def dual(self, M: int, L: int) -> tuple[int, int]:
        return 2 * self.gd - M, L + self.gd - M

    def rho_tilde(self, M: int, L: int) -> int:
        """:func:`rho_tilde` scaled by D**2."""
        return self.gd * self.D - L * (L - M + self.gd)

    def _in_tiles_half(self, M: int, L: int) -> bool:
        if not (0 < M <= self.gd) or L <= 0:
            return False
        for t in self._tiles:
            if t.lo > M:
                break
            if t.contains(M, L):
                return True
        return False

    def _left_half(self, M: int, L: int, semistable: bool) -> bool:
        D = self.D
        if not (0 <= M <= self.gd and 0 < L):
            return False
        s = self._columns.get(M)
        if semistable and s is not None and L <= s * D:
            return True
        if M == 0 or not self.f.below(M, L):
            return False
        if semistable:
            return True
        if s is not None and self.g * L > (s - 1) * (self.g + 1) * D:
            return False
        if L % D == 0:
            sc = self._columns.get(M - D)
            if sc is not None and L == sc * D:
                return False
        return True

    def in_bmno(self, M: int, L: int, mode: BmnoMode) -> bool:
        SM, SL = self.dual(M, L)
        if mode is BmnoMode.STABLE:
            if self._in_tiles_half(M, L) or self._in_tiles_half(SM, SL):
                return True
            return self.g == 3 and (M, L) == (2 * self.D, self.D)
        semistable = mode is BmnoMode.SEMISTABLE
        return self._left_half(M, L, semistable) or self._left_half(SM, SL, semistable)

    def in_teixidor(self, M: int, L: int, stability: Stability) -> bool:
        if L <= 0:
            raise ValueError(f"requires lam > 0, got {L}/{self.D}")
        D = self.D
        floor_mu, floor_lam = M - M % D, L - L % D
        if L == floor_lam:
            ok = self.rho_tilde(floor_mu, L) >= 0
        elif L - floor_lam <= M - floor_mu:
            ok = self.rho_tilde(floor_mu + D, floor_lam + D) >= 0
        else:
            ok = self.rho_tilde(floor_mu, floor_lam + D) >= 0
        if not ok:
            return False
        if stability is Stability.STABLE and L == floor_lam and M == floor_mu:
            dual_mu, dual_lam = self.dual(M, L)
            if self.rho_tilde(M - D, L) < 0 and self.rho_tilde(dual_mu - D, dual_lam) < 0:
                return False
        return True

    def in_bmno_h(self, M: int, L: int) -> bool:
        D, gd = self.D, self.gd
        if not (M < L + gd and M >= 2 * L - 2 * D and 0 < M <= 2 * gd and L > 0):
            return False
        s = max(1, -(-M // (2 * D)))
        if s > self.g - 1:
            return False
        bgn, m = self._hyper[s]
        if bgn.contains(M, L) or m.contains(M, L):
            return True
        return M == 2 * s * D and L == s * D


# ---------------------------------------------------------------------------
# polylines for plotting and serialization
# ---------------------------------------------------------------------------


class RegionKind(Enum):
    PENTAGON = "p"
    HALF = "r"
    BGN = "bgn"
    MERCAT = "m"
    T_BGN = "tbgn"
    T_M = "tm"
    BMNO = "bmno"
    TEIXIDOR = "teixidor"
    BMNO_H = "bmnoh"
    BN_CURVE = "bncurve"


@dataclass(frozen=True)
class RegionId:
    kind: RegionKind
    d_shift: int | None = None
    s: int | None = None

    def __post_init__(self):
        if self.kind in (RegionKind.T_BGN, RegionKind.T_M):
            if self.d_shift is None or self.s is None or self.s < 1:
                raise ValueError("shifted regions need d_shift and s >= 1")
        elif self.d_shift is not None or self.s is not None:
            raise ValueError(f"{self.kind.value} takes no parameters")

    def token(self) -> str:
        if self.kind in (RegionKind.T_BGN, RegionKind.T_M):
            return f"{self.kind.value}:{self.d_shift}:{self.s}"
        return self.kind.value

    def sort_key(self):
        return (self.kind.value, self.d_shift or 0, self.s or 0)


def parse_region_id(token: str) -> RegionId:
    token = token.strip().lower()
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad region token {token!r}; expected kind:d:s")
        kind = RegionKind(parts[0])
        return RegionId(kind, int(parts[1]), int(parts[2]))
    return RegionId(RegionKind(token))


@dataclass(frozen=True)
class PolySegment:
    start: BNPoint
    end: BNPoint
    include_start: bool
    include_end: bool
    include_interior: bool = True

    def to_json_dict(self) -> dict:
        return {
            "from": [format_rat(self.start.mu), format_rat(self.start.lam)],
            "to": [format_rat(self.end.mu), format_rat(self.end.lam)],
            "include_from": self.include_start,
            "include_to": self.include_end,
        }


def _seg(a, b, inc_a=True, inc_b=True, interior=True) -> PolySegment:
    return PolySegment(_as_point(a), _as_point(b), inc_a, inc_b, interior)


def _graph_segments(fn: BoundaryFn) -> list[PolySegment]:
    return [
        _seg((p.lo, p.value_at(p.lo)), (p.hi, p.value_at(p.hi)), p.include_lo, p.include_hi)
        for p in fn.pieces
    ]


def _pentagon_segments(g: int) -> list[PolySegment]:
    gg = Fraction(2 * g - 2)
    return [
        _seg((0, 0), (gg, 0), False, False, interior=False),          # lam > 0
        _seg((0, 0), (0, 1), False, True),                            # mu >= 0 edge
        _seg((0, 1), (gg, g), True, True),                            # Clifford edge
        _seg((gg, g), (gg, g - 1), True, True),                       # mu <= 2g-2 edge
        _seg((gg, g - 1), (g - 1, 0), False, False, interior=False),  # strict duality edge
    ]


def _half_segments(g: int) -> list[PolySegment]:
    top = Fraction(g + 1, 2)
    return [
        _seg((0, 0), (g - 1, 0), False, False, interior=False),
        _seg((0, 0), (0, 1), False, True),
        _seg((0, 1), (g - 1, top), True, True),
        _seg((g - 1, top), (g - 1, 0), True, False),
    ]


def _trapezium_segments(g: int, d_shift: int, s: int, kind: RegionKind) -> list[PolySegment]:
    lo_top = Fraction(s, g) * Fraction(0 - 1) + s  # top value at the left edge
    hi_top = Fraction(s, g) + s                    # top value at the right edge
    if kind in (RegionKind.BGN, RegionKind.T_BGN):
        a, b = Fraction(d_shift), Fraction(d_shift + 1)
        return [
            _seg((a, 0), (b, 0), False, False, interior=False),
            _seg((a, 0), (a, lo_top), False, False, interior=False),   # strict left edge
            _seg((a, lo_top), (b, s), False, False),                   # top; corner excluded
            _seg((b, s), (b, 0), False, False),                        # right edge below corner
        ]
    a, b = Fraction(d_shift + 1), Fraction(d_shift + 2)
    return [
        _seg((a, 0), (b, 0), False, False, interior=False),
        _seg((a, 0), (a, s), False, False, interior=False),
        _seg((a, s), (b, hi_top), False, False),
        _seg((b, hi_top), (b, s), False, False, interior=False),       # above the sliver
        _seg((b, s), (b, 0), False, False),                            # sliver
    ]


def boundary_polyline(g: int, region: RegionId) -> list[PolySegment]:
    """Exact-rational boundary segments of a region, with inclusion flags.

    The expected-dimension curve is not piecewise linear and is rejected;
    plots sample it separately.
    """
    check_genus(g, 3)
    k = region.kind
    if k is RegionKind.PENTAGON:
        return _pentagon_segments(g)
    if k is RegionKind.HALF:
        return _half_segments(g)
    if k is RegionKind.BGN:
        return _trapezium_segments(g, 0, 1, RegionKind.BGN)
    if k is RegionKind.MERCAT:
        return _trapezium_segments(g, 0, 1, RegionKind.MERCAT)
    if k is RegionKind.T_BGN:
        return _trapezium_segments(g, region.d_shift, region.s, RegionKind.T_BGN)
    if k is RegionKind.T_M:
        return _trapezium_segments(g, region.d_shift, region.s, RegionKind.T_M)
    if k is RegionKind.BMNO:
        return _graph_segments(bmno_boundary(g))
    if k is RegionKind.TEIXIDOR:
        return _graph_segments(teixidor_boundary(g))
    if k is RegionKind.BMNO_H:
        return _graph_segments(hyper_boundary(g))
    raise ValueError(f"no piecewise-linear boundary for region {region.token()!r}")


def polyline_json_dict(g: int, region: RegionId) -> dict:
    return {
        "region": region.token(),
        "genus": g,
        "segments": [s.to_json_dict() for s in boundary_polyline(g, region)],
    }


def region_membership(g: int, region: RegionId, p, *, mode: BmnoMode = BmnoMode.STABLE,
                      stability: Stability = Stability.SEMISTABLE) -> bool:
    """Uniform membership dispatch used by the command-line frontend."""
    k = region.kind
    p = _as_point(p)
    if k is RegionKind.PENTAGON:
        return in_pentagon(g, p)
    if k is RegionKind.HALF:
        return in_half_pentagon(g, p)
    if k is RegionKind.BGN:
        return in_bgn(g, p)
    if k is RegionKind.MERCAT:
        return in_m(g, p)
    if k is RegionKind.T_BGN:
        return in_translated_bgn(g, region.d_shift, region.s, p)
    if k is RegionKind.T_M:
        return in_translated_m(g, region.d_shift, region.s, p)
    if k is RegionKind.BMNO:
        return in_bmno(g, p, mode)
    if k is RegionKind.TEIXIDOR:
        return in_teixidor(g, p, stability)
    if k is RegionKind.BMNO_H:
        return in_bmno_h(g, p)
    if k is RegionKind.BN_CURVE:
        return p.lam > 0 and rho_tilde(g, p) >= 0
    raise ValueError(f"unknown region {region.token()!r}")
