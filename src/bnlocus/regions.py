"""Region algebra for the slope plane: exact membership and boundaries.

Implements the pentagon of nontrivial problems, the low-slope trapezia BGN
and M, their images under the shift maps T and their duality reflections U,
the assembled existence region (boundary ``f``), the Teixidor parallelogram
region (boundary ``t``) and the hyperelliptic region (boundary ``h``).

Each shape is stated once.  :func:`bmno_tiles` is the one walk over the
rank-one thresholds; each of its tiles is a T- or U-image of BGN or M, the
seesaw ``f`` is the tiles' top lines and their reflection, and the chain
levels and threshold columns come from the same walk; the assembled region
reads only those three, in every mode.  :func:`hyper_strip` is the one
statement of the hyperelliptic strips, which the oracle also reads.

Each membership test and each boundary is stated once, at a scale: a point
(mu, lam) is read as (M, L) = (mu*D, lam*D).  The private kernel
(:class:`_IntKernel`, with the pentagon and Teixidor tests in
:class:`_IntScale`) holds the one body of the pentagon, of the assembled,
Teixidor and hyperelliptic regions and of the four tile shapes, and
:class:`BoundaryFn` evaluates each boundary; the same code runs on integers
at the sweeps' common denominator D, on the oracle's triples at D = n, and
on ``Fraction`` points at D = 1, which is all the public functions do after
checking their input.  The assembled region is stated once, as a column over
each abscissa: the left half's heights under one line (strictly or not)
minus at most one point, at the abscissa and at its dual.  :func:`in_bmno`
reads one height of it, and a sweep resolves the column of a slope once and
tests each height against it.  :func:`hyper_strip` and :func:`hyper_window`
take a scale the same way.  The tile-union, preimage, duality and
membership-bitmap tests are the independent checks of these bodies.

All memberships follow the strict/non-strict inequalities of the source
criteria exactly, including the isolated excluded corner points.  Everything
is a pure function of immutable values; region data is cached per genus.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .arith import (
    BNPoint,
    Stability,
    _as_point,
    _checked_make,
    _slot_repr,
    _tuple_new,
    check_genus,
    format_rat,
    hyper_window,
    line_degree_bound_int,
    line_degree_bound_strict,
    rho_tilde,
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


class Piece(namedtuple("Piece", "lo hi slope intercept include_lo include_hi", defaults=(False, True))):
    """One linear piece lo..hi of a boundary function, lam = slope*mu + intercept.

    Endpoint ownership is explicit: the duality-reflected half of the
    assembled boundary is right-open/left-closed, the directly constructed
    half left-open/right-closed, so a single convention cannot serve both.
    """

    __slots__ = ()

    def value_at(self, mu) -> Fraction:
        return self.slope * Fraction(mu) + self.intercept


class BoundaryFn(namedtuple("BoundaryFn", "pieces domain_lo domain_hi")):
    """Piecewise-linear function whose pieces exactly tile an open interval
    between integer breakpoints.

    It is the one evaluator of its graph at every scale: an abscissa M at
    scale D is the slope M/D, and a ``Fraction`` slope is its numerator at
    the scale of its denominator.  Each piece keeps its line as integers
    (den, n, k), lam = slope*mu + intercept iff den*lam = n*mu + k, and
    :meth:`scaled_bound` holds the one rule for which piece owns an
    abscissa.  No ``__slots__``: its table lives in the instance's
    ``__dict__``.
    """

    _make = _checked_make

    def __new__(cls, pieces: tuple[Piece, ...], domain_lo: Fraction, domain_hi: Fraction):
        if not pieces:
            raise ValueError("boundary function needs at least one piece")
        if pieces[0].lo != domain_lo or pieces[-1].hi != domain_hi:
            raise ValueError("pieces do not span the stated domain")
        if pieces[0].include_lo or pieces[-1].include_hi:
            raise ValueError("domain is open; end pieces must not own endpoints")
        for a, b in zip(pieces, pieces[1:]):
            if a.hi != b.lo:
                raise ValueError(f"gap between pieces at {a.hi} vs {b.lo}")
            if a.include_hi == b.include_lo:
                raise ValueError(f"shared abscissa {a.hi} owned {'twice' if a.include_hi else 'by no piece'}")
        for x in (domain_lo, *(p.hi for p in pieces)):
            if x % 1:
                raise ValueError(f"breakpoint {x} is not an integer")
        self = _tuple_new(cls, (pieces, domain_lo, domain_hi))
        # the piece owning each cell of the domain, left to right, with its
        # integer line: cell 2c is the integer domain_lo + c, cell 2c+1 the
        # open interval after it
        self._shift, self._cells = 2 * int(domain_lo), [None]
        for p in pieces:
            count = 2 * int(p.hi - p.lo) - 1 + p.include_lo + p.include_hi
            self._cells += [(*_int_line(p.slope, p.intercept, 1), p)] * count
        self._cells.append(None)
        self._end = len(self._cells) - 1
        return self

    def scaled_bound(self, M, D: int) -> tuple:
        """The graph over the abscissa M at scale D as (den, num, piece): a
        height L lies on or under it iff den*L <= num, and ``piece`` is the
        piece that owns M/D: the one over the open unit interval holding it,
        or the one that includes it when it is a breakpoint."""
        cell = M // D - (-M // D) - self._shift  # floor plus ceiling of M/D
        if not 0 < cell < self._end:
            raise ValueError(f"{Fraction(M, D)} outside domain ({self.domain_lo}, {self.domain_hi})")
        den, n, k, piece = self._cells[cell]
        return den, n * M + k * D, piece

    def piece_at(self, mu) -> Piece:
        mu = Fraction(mu)
        return self.scaled_bound(mu.numerator, mu.denominator)[2]

    def __call__(self, mu) -> Fraction:
        mu = Fraction(mu)
        den, num, _ = self.scaled_bound(mu.numerator, mu.denominator)
        return Fraction(num, den * mu.denominator)

    def scaled_value(self, M: int, D: int) -> int:
        """The value at the abscissa M at scale D, times D; raises unless it
        is a multiple of 1/D."""
        den, num, _ = self.scaled_bound(M, D)
        return _exact(num, den)

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
    # graph image of lam = m*mu + c under (mu, lam) -> (2g-2-mu, lam+g-1-mu),
    # right to left; mu = g-1 stays with the last left piece
    right = [Piece(2 * (g - 1) - p.hi, 2 * (g - 1) - p.lo, 1 - p.slope, p.slope * (2 * g - 2) + p.intercept - (g - 1),
                   include_lo=p is not left[-1], include_hi=False) for p in reversed(left)]
    return BoundaryFn(tuple(left + right), Fraction(0), Fraction(2 * g - 2))


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
    pieces[-1] = pieces[-1]._replace(include_hi=False)
    return BoundaryFn(tuple(pieces), Fraction(0), top)


@lru_cache(maxsize=None)
def hyper_boundary(g: int) -> BoundaryFn:
    """Upper boundary of the hyperelliptic region: (s/g)(mu-2s+1)+s on (2s-2, 2s]."""
    check_genus(g, 3)
    pieces = [
        Piece(Fraction(2 * s - 2), Fraction(2 * s), Fraction(s, g), s - Fraction(s, g) * (2 * s - 1))
        for s in range(1, g)
    ]
    pieces[-1] = pieces[-1]._replace(include_hi=False)
    return BoundaryFn(tuple(pieces), Fraction(0), Fraction(2 * g - 2))


# ---------------------------------------------------------------------------
# elementary regions and the shifted and reflected tiles
# ---------------------------------------------------------------------------


def in_pentagon(g: int, p) -> bool:
    """Pentagon of nontrivial problems: mu < lam+g-1, mu >= 2 lam-2,
    0 <= mu <= 2g-2, lam > 0."""
    check_genus(g)
    return _IntScale(g, 1).in_pentagon(*_as_point(p))


def in_half_pentagon(g: int, p) -> bool:
    """Left half of the pentagon (slope at most g-1), the duality fundamental domain."""
    p = _as_point(p)
    return in_pentagon(g, p) and p.mu <= g - 1


def in_translated_bgn(g: int, d_shift: int, s: int, p) -> bool:
    """Image of the BGN trapezium under T: d' < mu <= d'+1,
    0 < lam <= (s/g)(mu-d'-1)+s, minus the corner (d'+1, s)."""
    check_genus(g, 3)
    return _unit_kernel(g).shifted_tile("bgn", d_shift, s).contains(*_as_point(p))


def in_translated_m(g: int, d_shift: int, s: int, p) -> bool:
    """Image of the M trapezium under T: open strip d'+1 < mu < d'+2 under
    the same top line, plus the sliver {(d'+2, lam): 0 < lam < s}."""
    check_genus(g, 3)
    return _unit_kernel(g).shifted_tile("m", d_shift, s).contains(*_as_point(p))


def u_params(g: int, d_shift: int, s: int) -> tuple[int, int]:
    """Anchor (d1, s1) of the reflected tile: the image of (1, 1) under U."""
    return 2 * g - 3 - d_shift, s + g - 2 - d_shift


def in_u_bgn_half(g: int, d_shift: int, s: int, p) -> bool:
    """Reflected BGN tile clipped to the left half: d1 <= mu < d1+1,
    0 < lam <= (1-s/g)(mu-d1)+s1, minus the anchor point (d1, s1)."""
    check_genus(g, 3)
    return _unit_kernel(g).reflected_tile("bgn", d_shift, s).contains(*_as_point(p))


def in_u_m_half(g: int, d_shift: int, s: int, p) -> bool:
    """Reflected M tile clipped to the left half: open strip d1-1 < mu < d1
    under the same top, plus the sliver {(d1-1, lam): 0 < lam < s1-1}."""
    check_genus(g, 3)
    return _unit_kernel(g).reflected_tile("m", d_shift, s).contains(*_as_point(p))


# ---------------------------------------------------------------------------
# the assembled existence region
# ---------------------------------------------------------------------------


class Tile(namedtuple("Tile", "lo s slope intercept base d_shift mult reflected", defaults=(False,))):
    """One tile of the assembled region, over the column lo..lo+1 at level s.

    Every tile is an image of the BGN or M trapezium (``base``): under the
    shift map T with shift ``d_shift`` and section multiplier ``mult``, or,
    when ``reflected``, under its reflection U with the same parameters.  A
    reflected tile replaces the last M tile of a chain and keeps that tile's
    right edge {mu = lo+1, 0 < lam < s}.  ``slope`` and ``intercept`` give the
    top line, which is the seesaw boundary over the column, and ``s`` the
    chain level; :func:`in_bmno` is tested equal to the union of the images.
    """

    __slots__ = ()

    @property
    def kind(self) -> str:
        """'bgn' or 'm' for a T-image, 'u' for the reflected replacement tile."""
        return "u" if self.reflected else self.base


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


def in_bmno(g: int, p, mode: BmnoMode = BmnoMode.STABLE) -> bool:
    """Membership in the assembled existence region.

    STABLE mode is the tile union of :func:`bmno_tiles` with its reflection,
    in closed form: on or under the seesaw at a fractional slope, strictly
    below the chain level at an integer one (tested equal to the union of the
    tile images); for genus 3 the isolated point (2, 1) is additionally known
    to belong.  NON_HYPERELLIPTIC restores the right-hand boundaries:
    everything under the seesaw except the threshold columns above
    (s-1)(1+1/g) and the shifted corners (threshold+1, s).  SEMISTABLE
    includes the whole seesaw graph plus the threshold columns up to height s.
    """
    check_genus(g, 3)
    mode = BmnoMode(mode)
    M, L = _as_point(p)
    return _IntKernel.in_bmno_col(_unit_kernel(g).bmno_column(M, mode), L)


# ---------------------------------------------------------------------------
# Teixidor parallelogram region
# ---------------------------------------------------------------------------


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
    return _unit_kernel(g).in_teixidor(*_as_point(p), stability)


# ---------------------------------------------------------------------------
# hyperelliptic region and strips
# ---------------------------------------------------------------------------


def in_bmno_h(g: int, p) -> bool:
    """Hyperelliptic region: union over 1 <= s <= g-1 of the shifted
    (BGN u M u {(2,1)}) tiles, clipped to the pentagon; reflection-symmetric."""
    check_genus(g, 3)
    return _unit_kernel(g).in_bmno_h(*_as_point(p))


def hyper_strip(g: int, mu, lam, scale: int = 1) -> tuple[int, bool] | None:
    """The fully-settled hyperelliptic strip that holds (mu/D, lam/D), as (s, dual).

    For 1 <= s <= g-1 the strip is the band 2s-1 < mu <= 2s with
    0 < lam <= s (dual False), or its duality image 2s-2 <= mu < 2s-1 with
    0 < lam <= mu - s + 1 (dual True).  None when no strip holds the point.
    Genus 2 is accepted: every genus-2 curve is hyperelliptic.  With the
    default scale D = 1, (mu, lam) is the point itself; the oracle passes a
    rank-n triple as (d, k) at D = n.
    """
    check_genus(g)
    D = scale
    if lam <= 0:
        return None
    # the band s holds only s = ceil(mu/2D), its image only s = floor(mu/2D) + 1;
    # at mu = 2sD both may, and the band (the smaller s) is tested first
    s = hyper_window(mu, D)
    if 1 <= s < g and (2 * s - 1) * D < mu and lam <= s * D:
        return s, False
    s = mu // (2 * D) + 1
    if 1 <= s < g and mu < (2 * s - 1) * D and lam <= mu - (s - 1) * D:
        return s, True
    return None


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


class _IntTile:
    """A tile at scale D: the abscissae between lo and hi (each end included
    by its flag), 0 < L on or under the top line (den, n, k), minus the
    corner point, plus the sliver {M = sliver[0], 0 < L < sliver[1]}.

    Immutable, since every caller of a cached kernel shares its tiles.  A
    plain class with slots, not a tuple: :meth:`contains` is the sweeps'
    inner test, and slot reads are cheaper than a tuple's field reads.
    """

    __slots__ = ("lo", "hi", "lo_in", "hi_in", "line", "corner", "sliver")
    __repr__ = _slot_repr

    def __init__(self, lo: int, hi: int, lo_in: bool, hi_in: bool, line: tuple[int, int, int],
                 corner: tuple[int, int] | None, sliver: tuple[int, int] | None):
        for name, value in zip(self.__slots__, (lo, hi, lo_in, hi_in, line, corner, sliver)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable _IntTile")

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


def _in_column(column: tuple | None, L) -> bool:
    """Whether the height L lies in a column (den, num, strict, hole) of
    :meth:`_IntKernel._left_column`; None holds no height."""
    if column is None:
        return False
    den, num, strict, hole = column
    # hole is tested with `is` first: a Fraction compared with None costs
    # more than the rest of the test
    return 0 < L and (den * L < num if strict else den * L <= num) and (hole is None or L != hole)


class _IntScale:
    """Points (M, L) = (mu*D, lam*D) of genus g at scale D.

    Holds the duality, the normalized count and the Teixidor test, which is
    the one body of :func:`in_teixidor`: the kernel inherits it, the sweeps
    run it on integers at their common denominator, the oracle reads a
    rank-n triple (n, d, k) at D = n, where its point is (d, k), and
    :func:`in_teixidor` reads a ``Fraction`` point at D = 1.  The stable test
    is the semistable one less the lattice points :meth:`teixidor_hole`
    names, which the oracle reads to split a semistable run of k.
    """

    __slots__ = ("g", "D", "gd")

    def __init__(self, g: int, scale: int):
        self.g, self.D, self.gd = g, scale, (g - 1) * scale

    def dual(self, M: int, L: int) -> tuple[int, int]:
        return 2 * self.gd - M, L + self.gd - M

    def in_pentagon(self, M: int, L: int) -> bool:
        """The pentagon of nontrivial problems, the one body of :func:`in_pentagon`."""
        return M < L + self.gd and M >= 2 * L - 2 * self.D and 0 <= M <= 2 * self.gd and L > 0

    def rho_tilde(self, M: int, L: int) -> int:
        """:func:`rho_tilde` scaled by D**2."""
        return self.gd * self.D - L * (L - M + self.gd)

    def in_teixidor(self, M: int, L: int, stability: Stability) -> bool:
        if L <= 0:
            raise ValueError(f"requires lam > 0, got {Fraction(L, self.D)}")
        D = self.D
        floor_mu, floor_lam = M // D * D, L // D * D
        if L == floor_lam:
            ok = self.rho_tilde(floor_mu, L) >= 0
        elif L - floor_lam <= M - floor_mu:
            ok = self.rho_tilde(floor_mu + D, floor_lam + D) >= 0
        else:
            ok = self.rho_tilde(floor_mu, floor_lam + D) >= 0
        if not ok:
            return False
        return stability is not Stability.STABLE or L != floor_lam or M != floor_mu or not self.teixidor_hole(M, L)

    def teixidor_hole(self, M: int, L: int) -> bool:
        """Whether the stable test removes the lattice point (M, L), D | M and
        D | L, from the semistable region: neither it nor its dual has a
        nonnegative count one step to the left."""
        dual_mu, dual_lam = self.dual(M, L)
        return self.rho_tilde(M - self.D, L) < 0 and self.rho_tilde(dual_mu - self.D, dual_lam) < 0


class _IntKernel(_IntScale):
    """The membership tests of one genus on points (M, L) = (mu*D, lam*D).

    The one body of :func:`in_bmno`, :func:`in_teixidor`, :func:`in_bmno_h`
    and the four shifted/reflected tile tests, which call it at D = 1 on
    their ``Fraction`` point; the sweeps call it on integers at a common
    denominator, building no Fraction.  The tables are derived from
    :func:`bmno_tiles`, and the seesaw is :func:`bmno_boundary` itself.  The
    assembled region's left half has one body, :meth:`_left_column`: over an
    abscissa, the closed form over the seesaw, the chain levels and the
    threshold columns, as one line, its strictness and one excluded height.
    :meth:`bmno_column` bundles it at an abscissa and at the dual one, and
    :meth:`in_bmno_col` tests a height against that: once for the point of
    :func:`in_bmno`, and for many heights of one slope in a sweep.  Every
    tile is the T- or U-image of the first BGN or M tile.
    """

    def __init__(self, g: int, scale: int):
        check_genus(g, 3)
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        super().__init__(g, scale)
        tiles = bmno_tiles(g)  # the BGN tile at 0, then the M tile at 1
        self._base = {t.base: _IntTile.of(t, scale) for t in tiles[:2]}
        self.f = bmno_boundary(g)
        # integer slope M -> the chain level L of the tile whose column ends
        # there; a threshold column M -> its section count s (0 for one
        # section, and the right end of each reflected tile for one more than
        # its level), and the abscissa one past it -> the height of the
        # corner (threshold+1, s), in one table so that one lookup of an
        # abscissa gives (s or None, corner height or None)
        self._levels = {(t.lo + 1) * scale: t.s * scale for t in tiles}
        columns = {0: 1} | {(t.lo + 1) * scale: t.s + 1 for t in tiles if t.reflected}
        corners = {a + scale: s * scale for a, s in columns.items()}
        self._columns = {M: (columns.get(M), corners.get(M)) for M in columns.keys() | corners.keys()}
        self._hyper = [None] + [(self.shifted_tile("bgn", 2 * s - 2, s), self.shifted_tile("m", 2 * s - 2, s))
                                for s in range(1, g)]

    def shifted_tile(self, kind: str, d_shift: int, s: int) -> _IntTile:
        """:func:`in_translated_bgn` (kind 'bgn') or :func:`in_translated_m` (kind 'm')."""
        if s < 1:
            raise ValueError(f"section multiplier must be >= 1, got {s}")
        return self._base[kind].shifted(d_shift * self.D, s)

    def reflected_tile(self, kind: str, d_shift: int, s: int) -> _IntTile:
        """:func:`in_u_bgn_half` (kind 'bgn') or :func:`in_u_m_half` (kind 'm')."""
        return self.shifted_tile(kind, d_shift, s).reflected(self.gd)

    def _left_column(self, M: int, stable: bool, semistable: bool) -> tuple | None:
        """The left polygon over the abscissa M as (den, num, strict, hole): a
        height L lies in it iff 0 < L, den*L < num (den*L <= num unless
        strict) and L != hole.  None when it holds no height over M.

        STABLE: strictly below the chain level at an integer slope, on or
        under the seesaw elsewhere.  SEMISTABLE: on or under the seesaw, or
        the threshold column's height s where that is higher.
        NON_HYPERELLIPTIC: on or under the seesaw, capped at (s-1)(g+1)/g on
        a threshold column, minus the corner (threshold+1, s)."""
        D = self.D
        if not 0 <= M <= self.gd:
            return None
        if stable:
            if M % D == 0:
                return (1, self._levels[M], True, None) if M else None
            den, num, _ = self.f.scaled_bound(M, D)
            return den, num, False, None
        s, corner = self._columns.get(M, (None, None))
        if M == 0:  # the seesaw's domain is open at 0
            return (1, s * D, False, None) if semistable else None
        den, num, _ = self.f.scaled_bound(M, D)
        if semistable:
            return den, num if s is None else max(num, s * D * den), False, None
        if s is not None:
            cap = (s - 1) * (self.g + 1) * D  # g*L <= cap
            if cap * den < num * self.g:
                den, num = self.g, cap
        return den, num, False, corner

    def bmno_column(self, M: int, mode: BmnoMode) -> tuple:
        """The assembled region over the abscissa M, for :meth:`in_bmno_col`:
        the left polygon's columns at M and at the dual abscissa 2gd - M, the
        shift gd - M that takes a height to its dual's, and the height of the
        genus-3 point (2, 1) over M in STABLE mode, else None."""
        # the modes are resolved once here: an Enum member lookup costs more
        # than the rest of a typical column test
        stable, semistable = mode is BmnoMode.STABLE, mode is BmnoMode.SEMISTABLE
        corner = self.D if stable and self.g == 3 and M == 2 * self.D else None
        return (self._left_column(M, stable, semistable), self._left_column(2 * self.gd - M, stable, semistable),
                self.gd - M, corner)

    @staticmethod
    def in_bmno_col(column: tuple, L: int) -> bool:
        """Whether the height L over the abscissa of ``column``, a
        :meth:`bmno_column`, lies in the assembled region: in the left polygon
        at the point or at its dual, or the genus-3 point."""
        own, dual, shift, corner = column
        return _in_column(own, L) or _in_column(dual, L + shift) or (corner is not None and L == corner)

    def in_bmno_h(self, M: int, L: int) -> bool:
        if not (0 < M and self.in_pentagon(M, L)):
            return False
        s = hyper_window(M, self.D)  # at most g-1, since M <= 2gd
        bgn, m = self._hyper[s]
        # the BGN tile ends where the M tile starts, so only one can hold M
        if (bgn if M <= bgn.hi else m).contains(M, L):
            return True
        return M == 2 * s * self.D and L == s * self.D  # image of the known point (2, 1)


@lru_cache(maxsize=None)
def _unit_kernel(g: int) -> _IntKernel:
    """The kernel of genus g at scale 1, whose points are the Fraction points
    themselves: the body of every public membership test of the tiles and the
    three regions.  Callers check g first, so that a bad genus is reported
    before the rest of their input."""
    return _IntKernel(g, 1)


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


class RegionId(namedtuple("RegionId", "kind d_shift s")):
    """A region of :class:`RegionKind`; the shifted trapezia take (d_shift, s)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, kind: RegionKind, d_shift: int | None = None, s: int | None = None):
        if not isinstance(kind, RegionKind):
            raise TypeError(f"region kind must be a RegionKind, not {kind!r}")
        if kind in (RegionKind.T_BGN, RegionKind.T_M):
            if d_shift is None or s is None or s < 1:
                raise ValueError("shifted regions need d_shift and s >= 1")
        elif d_shift is not None or s is not None:
            raise ValueError(f"{kind.value} takes no parameters")
        return _tuple_new(cls, (kind, d_shift, s))

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


# the three regions under the graph of a boundary function
_GRAPHS = {
    RegionKind.BMNO: bmno_boundary,
    RegionKind.TEIXIDOR: teixidor_boundary,
    RegionKind.BMNO_H: hyper_boundary,
}
_LOW_TRAPEZIA = (RegionKind.BGN, RegionKind.T_BGN)
_MID_TRAPEZIA = (RegionKind.MERCAT, RegionKind.T_M)


def _t_params(region: RegionId) -> tuple[int, int]:
    """(d', s) of a trapezium: bgn and m are the T-images at (0, 1)."""
    return (0, 1) if region.d_shift is None else (region.d_shift, region.s)


class PolySegment(namedtuple("PolySegment", "start end include_start include_end include_interior",
                             defaults=(True,))):
    """A boundary segment between two :class:`BNPoint`, with the inclusion of
    each end and of its interior."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "from": [format_rat(self.start.mu), format_rat(self.start.lam)],
            "to": [format_rat(self.end.mu), format_rat(self.end.lam)],
            "include_from": self.include_start,
            "include_to": self.include_end,
        }


def _boundary_paths(g: int, region: RegionId) -> list[list[tuple]]:
    """A region's boundary as paths of vertices (mu, lam), each consecutive
    pair a segment: a graph region's pieces cut at every integer slope, where
    all its isolated points lie; a polygon's bottom edge and the rest of its
    edges."""
    k = region.kind
    if k is RegionKind.BN_CURVE:
        raise ValueError(f"no piecewise-linear boundary for region {region.token()!r}")
    if k in _GRAPHS:
        return [[(x, p.value_at(x)) for x in range(int(p.lo), int(p.hi) + 1)] for p in _GRAPHS[k](g).pieces]
    if k is RegionKind.PENTAGON:
        gg = 2 * g - 2
        return [[(0, 0), (gg, 0)], [(0, 0), (0, 1), (gg, g), (gg, g - 1), (g - 1, 0)]]
    if k is RegionKind.HALF:
        return [[(0, 0), (g - 1, 0)], [(0, 0), (0, 1), (g - 1, Fraction(g + 1, 2)), (g - 1, 0)]]
    d_shift, s = _t_params(region)
    if k in _LOW_TRAPEZIA:
        a, b = d_shift, d_shift + 1
        return [[(a, 0), (b, 0)], [(a, 0), (a, s - Fraction(s, g)), (b, s), (b, 0)]]
    a, b = d_shift + 1, d_shift + 2
    return [[(a, 0), (b, 0)], [(a, 0), (a, s), (b, s + Fraction(s, g)), (b, s), (b, 0)]]


def boundary_polyline(g: int, region: RegionId) -> list[PolySegment]:
    """Exact-rational boundary segments of a region, with inclusion flags.

    Each flag is :func:`region_membership` at the segment's start, end or
    midpoint, in that function's default modes; a point with lam <= 0 counts
    as outside.  The expected-dimension curve is not piecewise linear and is
    rejected; plots sample it separately.
    """
    check_genus(g, 3)

    def member(p: BNPoint) -> bool:
        return p.lam > 0 and region_membership(g, region, p)

    segments = []
    for path in _boundary_paths(g, region):
        for a, b in zip(path, path[1:]):
            a, b = _as_point(a), _as_point(b)
            mid = BNPoint((a.mu + b.mu) / 2, (a.lam + b.lam) / 2)
            segments.append(PolySegment(a, b, member(a), member(b), member(mid)))
    return segments


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
    if k in _LOW_TRAPEZIA:
        return in_translated_bgn(g, *_t_params(region), p)
    if k in _MID_TRAPEZIA:
        return in_translated_m(g, *_t_params(region), p)
    if k is RegionKind.PENTAGON:
        return in_pentagon(g, p)
    if k is RegionKind.HALF:
        return in_half_pentagon(g, p)
    if k is RegionKind.BMNO:
        return in_bmno(g, p, mode)
    if k is RegionKind.TEIXIDOR:
        return in_teixidor(g, p, stability)
    if k is RegionKind.BMNO_H:
        return in_bmno_h(g, p)
    return p.lam > 0 and rho_tilde(g, p) >= 0  # bncurve
