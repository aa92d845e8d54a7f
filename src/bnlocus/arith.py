"""Exact arithmetic core for Brill-Noether computations on a genus-g curve.

Every slope, section ratio and boundary value is an exact rational
(``fractions.Fraction``); floating point appears only in the plotting
approximation of the expected-dimension curve.  Ceiling/floor tests and
boundary-inclusion decisions are discontinuous, so nothing here ever rounds.

Conventions: a bundle problem is the triple (rank n, degree d, sections k)
on a curve of genus g >= 2; its point in the slope plane is
(mu, lambda) = (d/n, k/n).
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum
from fractions import Fraction

# builds a namedtuple subclass from fields its own ``__new__`` has checked,
# without a second pass through the generated ``__new__``
_tuple_new = tuple.__new__

# namedtuple's ``_make`` through the record's own ``__new__``, so that
# ``_make`` and ``_replace``, which calls it, keep the input checks
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))

_RAT_PATTERN = re.compile(r"\A[+-]?\d+(?:/\d+)?\Z")


class Stability(Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"


def parse_rat(text: str) -> Fraction:
    """Parse an exact rational written as ``a/b`` or a plain integer.

    Decimal notation is rejected on purpose: a decimal input usually means
    the caller already rounded something.
    """
    text = text.strip()
    if not _RAT_PATTERN.match(text):
        raise ValueError(f"not a rational 'a/b' or integer literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rat(value) -> str:
    """Canonical printed form: reduced, denominator omitted when 1."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def format_ratio(a: int, n: int) -> str:
    """a/n as :func:`format_rat` prints it, for n >= 1, from the integers."""
    q = math.gcd(a, n)
    return str(a // q) if q == n else f"{a // q}/{n // q}"


def _slot_repr(self) -> str:
    """``Name(field=value, ...)`` over the class's ``__slots__``: the repr of
    the records that are not tuples, in the form a namedtuple prints."""
    return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


def check_int(name: str, v) -> None:
    """Raise TypeError unless v is an int (a bool is not; an int subclass
    such as an ``IntEnum`` is)."""
    if type(v) is int:  # the common case
        return
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"{name} must be an integer, got {v!r}")


def check_genus(g: int, minimum: int = 2) -> int:
    check_int("genus", g)
    if g < minimum:
        raise ValueError(f"genus must be >= {minimum}, got {g}")
    return g


class BNPoint(namedtuple("BNPoint", "mu lam")):
    """A point (mu, lambda) of the slope plane; may lie outside the pentagon."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, mu, lam):
        return _tuple_new(cls, cls.__post_init__(mu, lam))

    @staticmethod
    def __post_init__(mu, lam) -> tuple[Fraction, Fraction]:
        """The coordinates as Fractions; runs once per point built."""
        return Fraction(mu), Fraction(lam)

    def __str__(self):
        return f"({format_rat(self.mu)}, {format_rat(self.lam)})"


def point(mu, lam) -> BNPoint:
    """Build a BNPoint, accepting ints, Fractions or 'a/b' strings."""
    if isinstance(mu, str):
        mu = parse_rat(mu)
    if isinstance(lam, str):
        lam = parse_rat(lam)
    return BNPoint(Fraction(mu), Fraction(lam))


class Triple(namedtuple("Triple", "n d k")):
    """A bundle problem: rank n >= 1, degree d, required sections k."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, n, d, k):
        check_int("n", n)
        check_int("d", d)
        check_int("k", k)
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        return _tuple_new(cls, (n, d, k))

    @property
    def mu(self) -> Fraction:
        return Fraction(self.d, self.n)

    @property
    def lam(self) -> Fraction:
        return Fraction(self.k, self.n)

    def point(self) -> BNPoint:
        return BNPoint(self.mu, self.lam)

    def __str__(self):
        return f"(n={self.n}, d={self.d}, k={self.k})"


def _as_point(p) -> BNPoint:
    if isinstance(p, BNPoint):
        return p
    mu, lam = p
    return point(mu, lam)


def rho(g: int, t: Triple) -> int:
    """Expected dimension n^2(g-1) + 1 - k(k - d + n(g-1)) of the locus."""
    check_genus(g)
    n, d, k = t.n, t.d, t.k
    return n * n * (g - 1) + 1 - k * (k - d + n * (g - 1))


def rho_tilde(g: int, p) -> Fraction:
    """Normalized expected-dimension count (g-1) - lam*(lam - mu + g - 1).

    Equals (rho - 1)/n^2 at the point of any rank-n triple; its zero set is
    the hyperbola branch bounding the positive-expected-dimension region.
    """
    check_genus(g)
    p = _as_point(p)
    return (g - 1) - p.lam * (p.lam - p.mu + g - 1)


def serre_dual_point(g: int, p) -> BNPoint:
    """Duality reflection (mu, lam) -> (2g-2-mu, lam+g-1-mu); an involution."""
    check_genus(g)
    p = _as_point(p)
    return BNPoint(2 * g - 2 - p.mu, p.lam + g - 1 - p.mu)


def serre_dual_triple(g: int, t: Triple) -> Triple:
    """Triple-level duality: (n, d, k) -> (n, 2n(g-1)-d, k+n(g-1)-d)."""
    check_genus(g)
    return Triple(t.n, 2 * t.n * (g - 1) - t.d, t.k + t.n * (g - 1) - t.d)


def _check_sections(g: int, s: int) -> None:
    check_genus(g)
    if s < 1:
        raise ValueError(f"section count must be >= 1, got {s}")


def line_degree_bound(g: int, s: int) -> Fraction:
    """Least degree (s-1)(s+g)/s at which every genus-g curve carries a line
    bundle with s independent sections (the rank-one existence threshold)."""
    _check_sections(g, s)
    return Fraction((s - 1) * (s + g), s)


def line_degree_bound_int(g: int, s: int) -> int:
    """Integer form of :func:`line_degree_bound` (least integer not smaller)."""
    _check_sections(g, s)
    return -(-(s - 1) * (s + g) // s)


def line_degree_bound_strict(g: int, s: int) -> int:
    """Least integer D with rho_tilde(D+1, s) >= 0: the floor of
    :func:`line_degree_bound`.

    Equals :func:`line_degree_bound_int` when the rational bound is already
    an integer, and one less otherwise; it is the breakpoint sequence of the
    parallelogram-region boundary.
    """
    _check_sections(g, s)
    return (s - 1) * (s + g) // s


def hyper_window(mu, scale: int = 1) -> int:
    """The hyperelliptic slope window holding mu/D: the s with 2s-2 < mu/D <= 2s.

    ``mu`` is an int or a Fraction; at scale D = n a rank-n triple passes d.
    """
    return -(-mu // (2 * scale))


def hyper_h0_bound(g: int, s: int, n: int, d: int) -> Fraction:
    """Section bound sn + (s/g)(d - (2s-1)n) for stable bundles on a
    hyperelliptic curve whose slope lies in (2s-2, 2s)."""
    check_genus(g)
    if s < 0:
        raise ValueError(f"step index must be >= 0, got {s}")
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    return s * n + Fraction(s, g) * (d - (2 * s - 1) * n)


class BNCurveValue(namedtuple("BNCurveValue", "genus mu approx")):
    """The expected-dimension curve over one abscissa.

    ``approx`` is a float for rendering only.  ``compare`` is exact: it
    reports the ordering of a rational lambda against the curve through the
    sign of the normalized count, never touching the square root.
    """

    __slots__ = ()

    def compare(self, lam) -> int:
        """Sign of lam - curve(mu): -1 below, 0 on, +1 above the curve."""
        lam = Fraction(lam) if not isinstance(lam, str) else parse_rat(lam)
        if lam <= 0:
            return -1
        rt = rho_tilde(self.genus, BNPoint(self.mu, lam))
        if rt == 0:
            return 0
        return -1 if rt > 0 else 1


def bn_curve(g: int, mu) -> BNCurveValue:
    """Positive root of the normalized count at slope mu, with exact compare."""
    check_genus(g)
    mu = Fraction(mu) if not isinstance(mu, str) else parse_rat(mu)
    x = float(mu) - g + 1
    approx = (math.sqrt(x * x + 4 * (g - 1)) + x) / 2
    return BNCurveValue(g, mu, approx)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def bn_curve_gap_cmp(g: int, mu1, shift1, mu2, shift2) -> int:
    """Exact sign of (curve(mu1)+shift1) - (curve(mu2)+shift2).

    curve(mu) = (sqrt(A) + B)/2 with A = (mu-g+1)^2 + 4(g-1), B = mu-g+1,
    so the comparison reduces to the sign of sqrt(A1) - sqrt(A2) - c for
    rational A1, A2, c, decided by case analysis and squaring.
    """
    check_genus(g)
    mu1, mu2 = Fraction(mu1), Fraction(mu2)
    s1, s2 = Fraction(shift1), Fraction(shift2)
    b1, b2 = mu1 - g + 1, mu2 - g + 1
    a1 = b1 * b1 + 4 * (g - 1)
    a2 = b2 * b2 + 4 * (g - 1)
    c = b2 - b1 + 2 * (s2 - s1)
    # sign of sqrt(a1) - (sqrt(a2) + c), both radicands nonnegative
    if c < 0 and c * c > a2:
        return 1  # right side negative, left side nonnegative
    diff = a1 - a2 - c * c  # compare diff against 2*c*sqrt(a2)
    if c == 0:
        return _sign(diff)
    if c > 0:
        if diff < 0:
            return -1
        if diff == 0:
            return 0 if a2 == 0 else -1
        return _sign(diff * diff - 4 * c * c * a2)
    if diff > 0:
        return 1
    if diff == 0:
        return 0 if a2 == 0 else 1
    return -_sign(diff * diff - 4 * c * c * a2)
