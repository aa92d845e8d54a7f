"""Nonemptiness oracle for Brill-Noether loci, with a citable evidence trail.

``classify`` runs every applicable criterion for the requested curve class
and stability, records each one that fires, and combines them into a
verdict.  Emptiness and nonemptiness firing together is a hard internal
error, since the underlying theorems are mutually consistent.  ``Unknown``
is a common and acceptable verdict: the criteria are existence theorems,
not a decision procedure for the whole plane.

The oracle works on one column (g, n, d) at a time.  Each rule takes a
range of section counts k and returns the runs of k where it fires, so a
threshold in k is found once and its evidence built once.  At one k, no
rule (the dichotomy included) gives the same ``Evidence`` twice, so a row's
evidence is the items of the runs that hold it, in rule order, with no
repeat.
``classify_column`` classifies a whole range, and ``classify`` is a column of
one k.  ``h0_max`` reads one stable column up to the Clifford ceiling (or chi
above slope 2g-2; none at negative degree) and states no section bound of its
own.

Duality is applied at depth exactly one (it is an involution), and for an
arbitrary curve a dichotomy step may combine the hyperelliptic and
non-hyperelliptic classifications when they agree.  ``_base_column`` keeps a
column's rule runs, the dichotomy's last, and each triple's evidence kinds as
a bit set.  ``_serre_column`` reads that layer at d and at the dual degree
d* = 2n(g-1) - d, reads every triple's verdict through one 8-entry table, and
builds evidence only for the rows its caller returns, in one pass over the
runs.  The Serre duals of a column form one column too, shifted by
k* = k + n(g-1) - d.  ``enumerate`` and ``verify_oracle`` walk each column over
R(d) = [min(1, 1 + d - n(g-1)), max(n + d, ng)], whose dual is R(d*), so a
table reads the dual of each column under the key of another of its columns
and runs each triple's rules and dichotomy once.

The rules decide on the integers (n, d, k) of a triple and build no
``Fraction``: slope conditions are cross-multiplied (mu < 2 lam - 2 is
d < 2k - 2n), and the region tests read the triple's point (d/n, k/n) as
(d, k) at scale n, through the bodies that ``in_teixidor``, ``hyper_strip``
and ``hyper_window`` run at scale 1; a differential test holds the two
scales together.

``classify`` keeps no results: a ``Classification`` stores the verdict and
its evidence and derives the rest.  Every cache is bounded.
``_base_column`` holds the runs and evidence kinds of at most 2**11 columns,
the least power of two at which ``verify_oracle(6, 5)`` misses no more often
than with no bound (3,730 times).  ``_ev`` interns the rules' evidence
items, at most 2**14 of them: more than the 1,784 distinct ones of
``verify_oracle(6, 5)`` or the 13,980 of the g = 20, rank <= 5 table.  A
serre item names its row's dual triple, so it is built per row and never
interned.  ``_tensor_thresholds`` holds the twist thresholds of 64 (genus,
class) pairs.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .arith import (
    Stability,
    Triple,
    _tuple_new,
    check_genus,
    check_int,
    format_rat,
    format_ratio,
    hyper_window,
    line_degree_bound_int,
    rho,
)
from .regions import _IntScale, hyper_strip


class CurveClass(Enum):
    ARBITRARY = "arbitrary"
    GENERIC = "generic"
    HYPERELLIPTIC = "hyperelliptic"
    NON_HYPERELLIPTIC = "nonhyperelliptic"


class Verdict(Enum):
    WHOLE_SPACE = "WholeSpace"
    NON_EMPTY = "NonEmpty"
    EMPTY = "Empty"
    UNKNOWN = "Unknown"


class ContradictionError(RuntimeError):
    """Both an emptiness and a nonemptiness criterion fired: implementation bug."""


class Evidence(namedtuple("Evidence", "rule kind citation params", defaults=((),))):
    """One criterion that fired: its rule, its kind ("wholespace", "nonempty"
    or "empty"; ``_ev`` rejects any other), its citation and its parameters
    as sorted (name, value) pairs."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "params": dict(self.params), "citation": self.citation}


class Classification(namedtuple("Classification", "genus triple curve_class stability verdict evidence")):
    """The verdict on one :class:`Triple` at a genus, curve class and
    stability, with the tuple of :class:`Evidence` behind it."""

    __slots__ = ()

    @property
    def mu(self) -> Fraction:
        return self.triple.mu

    @property
    def lam(self) -> Fraction:
        return self.triple.lam

    @property
    def rho(self) -> int:
        return rho(self.genus, self.triple)

    @property
    def annotations(self) -> tuple[str, ...]:
        return tuple(annotate_geometry(self.genus, self.triple))

    @property
    def rules_attempted(self) -> tuple[str, ...]:
        return _RULES_ATTEMPTED if self.verdict is Verdict.UNKNOWN else ()

    def nonempty(self) -> bool:
        return self.verdict in (Verdict.WHOLE_SPACE, Verdict.NON_EMPTY)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "rank": self.triple.n,
            "degree": self.triple.d,
            "sections": self.triple.k,
            "mu": format_rat(self.mu),
            "lambda": format_rat(self.lam),
            "curve_class": self.curve_class.value,
            "stability": self.stability.value,
            "verdict": self.verdict.value,
            "rho": self.rho,
            "evidence": [e.to_json_dict() for e in self.evidence],
            "annotations": list(self.annotations),
        }


@lru_cache(maxsize=1 << 14)  # each distinct item is built once; it is immutable
def _ev(rule: str, kind: str, citation: str, **params) -> Evidence:
    if kind not in _KIND_BITS:
        raise ValueError(f"unknown evidence kind {kind!r}")
    return Evidence(rule, kind, citation, tuple(sorted(params.items())))


# Sporadic nonemptiness facts that no general rule produces, keyed by
# (genus, curve classes, triple).  Kept out of the rule engine so each fact
# carries its own citation.
_KNOWN_NONEMPTY: tuple[tuple[int, tuple[CurveClass, ...], Triple, str], ...] = (
    (
        3,
        (CurveClass.NON_HYPERELLIPTIC, CurveClass.GENERIC),
        Triple(2, 4, 3),
        "genus 3: the unique extra stable bundle above the low-slope bound (Mercat)",
    ),
)


def _known_points(g: int, c: CurveClass, n: int, d: int) -> dict[int, str]:
    """The section counts k of the known points (n, d, k), with their citations."""
    out = {}
    for gg, classes, t, cite in _KNOWN_NONEMPTY:
        if gg == g and (t.n, t.d) == (n, d) and c in classes:
            out[t.k] = cite
    return out


def _hyper_rules_allowed(g: int, c: CurveClass) -> bool:
    # every genus-2 curve is hyperelliptic
    return c is CurveClass.HYPERELLIPTIC or g == 2


def _nonhyper_rules_allowed(g: int, c: CurveClass) -> bool:
    return g >= 3 and c in (CurveClass.NON_HYPERELLIPTIC, CurveClass.GENERIC)


# ---------------------------------------------------------------------------
# individual rules; each takes a column (g, n, d) and a range ks of section
# counts, and returns (first k, past-the-end k, Evidence) for each run of k
# where it fires, one run per stretch of k with the same item: a test that
# holds on a prefix of k is bisected (_prefix_stop), not tried at each k.
# Runs may reach past ks: the engine clips them.
# ---------------------------------------------------------------------------


def _rule_trivial(g, n, d, ks, c, m):
    out = []
    if ks.start < 1:
        out.append((ks.start, 1, _ev("trivial", "wholespace", "no sections demanded: the condition is vacuous")))
    if d < 0:
        out.append((1, ks.stop, _ev("trivial", "empty",
                                    "negative degree admits no sections on a (semi)stable bundle")))
    return out


def _rule_riemann_roch(g, n, d, ks, c, m):
    chi = d - n * (g - 1)
    if ks.start > chi:
        return []
    return [(ks.start, chi + 1, _ev(
        "riemann_roch", "wholespace", "Riemann-Roch: chi = d - n(g-1) independent sections always exist"))]


def _rule_clifford(g, n, d, ks, c, m):
    if d < 0:
        return []
    if d <= (2 * g - 2) * n:  # mu <= 2g-2, and mu < 2 lam - 2 is k > d/2 + n
        return [(d // 2 + n + 1, ks.stop, _ev("clifford", "empty",
                                               "Clifford bound for special (semi)stable bundles"))]
    return [(d - n * (g - 1) + 1, ks.stop, _ev(
        "high_slope", "empty", "design decision: h1 vanishes for (semi)stable slope above 2g-2, so h0 = chi"))]


def _rule_edges(g, n, d, ks, c, m):
    if d == 0:
        if m is Stability.STABLE:
            cite = "the trivial line bundle is the unique stable slope-0 bundle with a section"
            top = 2 if n == 1 else 1  # only (n, k) = (1, 1)
        else:
            cite = "semistable bundles fill the whole slope-0 edge"
            top = n + 1
        return [(1, top, _ev("edge_slope_zero", "nonempty", cite)),
                (top, ks.stop, _ev("edge_slope_zero", "empty", cite if m is Stability.STABLE else
                                   "semistable slope-0 bundles have at most n sections"))]
    if d == n * (2 * g - 2):  # up to chi = n(g-1) it is already the whole space by Riemann-Roch
        if m is Stability.STABLE:
            cite = "the canonical bundle is the unique stable slope-(2g-2) bundle beyond chi"
            top = g + 1 if n == 1 else 1
        else:
            cite = "semistable bundles fill the whole slope-(2g-2) edge"
            top = n * g + 1
        first = n * (g - 1) + 1
        return [(first, top, _ev("edge_slope_canonical", "nonempty", cite)),
                (max(first, top), ks.stop, _ev("edge_slope_canonical", "empty", cite if m is Stability.STABLE
                                               else "Clifford bound at slope 2g-2"))]
    return []


def _rule_re_bound(g, n, d, ks, c, m):
    if not _nonhyper_rules_allowed(g, c) or not n <= d <= (2 * g - 3) * n:
        return []
    # 1 <= mu <= 2g-3, and mu < 2 lam - 1 is k > (d + n)/2
    return [((d + n) // 2 + 1, ks.stop, _ev("re_bound", "empty",
                                             "Re's sharpening of the Clifford bound on non-hyperelliptic curves"))]


def _rule_line_bundles(g, n, d, ks, c, m):
    if n != 1 or d < 0:
        return []
    out = []
    for k in range(max(ks.start, 1), ks.stop):
        r = g - k * (k - d + g - 1)  # rho at rank one
        if r >= 0:
            out.append((k, k + 1, _ev("line_bundle_existence", "nonempty",
                                      "classical rank-one existence: nonnegative expected dimension", rho=r)))
        elif c is CurveClass.GENERIC:
            out.append((k, k + 1, _ev("line_bundle_generic", "empty",
                                      "on a generic curve the rank-one existence bound is sharp", rho=r)))
    if _hyper_rules_allowed(g, c):  # d >= 2(k-1) and k <= g
        out.append((1, min(d // 2 + 2, g + 1), _ev(
            "hyper_pencil_power", "nonempty",
            "powers of the degree-2 pencil give line bundles with s sections in degree 2s-2")))
    return out


def _bgn_top(g, n, d) -> int:
    """The largest k with n <= d + (n - k)g: the bound of the low- and
    mid-slope criteria."""
    return (d + n * (g - 1)) // g


def _rule_bgn(g, n, d, ks, c, m):
    if not 0 < d <= n:
        return []
    cite = "low-slope criterion for 0 < mu <= 1 (Brambila-Paz/Grzegorczyk/Newstead)"
    top = _bgn_top(g, n, d)
    nonempty = _ev("bgn", "nonempty", cite)
    if d == n >= 2 and m is Stability.STABLE:  # then top = n
        out = [(1, n, nonempty), (n, n + 1, _ev("bgn", "empty", cite + ": the corner point is rank-one only"))]
    else:
        out = [(1, top + 1, nonempty)]
    return out + [(top + 1, ks.stop, _ev("bgn", "empty", cite + " (the bound is an equivalence)"))]


def _rule_mercat(g, n, d, ks, c, m):
    top = _bgn_top(g, n, d)
    if n < d < 2 * n:
        cite = "mid-slope criterion for 1 < mu < 2 (Mercat)"
        return [(1, top + 1, _ev("mercat", "nonempty", cite)),
                (top + 1, ks.stop, _ev("mercat", "empty", cite + " (the bound is an equivalence)"))]
    if d == 2 * n and _nonhyper_rules_allowed(g, c):
        cite = "slope-2 extension of the mid-slope criterion on non-hyperelliptic curves (Mercat)"
        out = [(1, top + 1, _ev("mercat_slope2", "nonempty", cite))]
        empty, first = _ev("mercat_slope2", "empty", cite), top + 1
        for k in sorted(_known_points(g, c, n, d)):  # sporadic points above the bound stay open
            out.append((first, k, empty))
            first = max(first, k + 1)
        return out + [(first, ks.stop, empty)]
    return []


def _shift_candidates(n: int, d: int):
    """The at most two d' >= 0 with 0 < d - n*d' < 2n: d' < d/n and d' > d/n - 2."""
    return [(dp, d - n * dp) for dp in range(max(0, d // n - 1), (d - 1) // n + 1)]


@lru_cache(maxsize=64)
def _tensor_thresholds(g: int, hyper: bool) -> tuple[tuple[int, int, int], ...]:
    """(s, line_bound, threshold) for s = 1..g: the least degree of a line
    bundle with s sections on every curve, and the least twist degree d' the
    tensor rule accepts, which hyperelliptic pencil powers lower to 2s-2.
    Both grow with s."""
    out = []
    for s in range(1, g + 1):
        line_bound = 0 if s == 1 else line_degree_bound_int(g, s)
        out.append((s, line_bound, min(line_bound, 2 * s - 2) if hyper else line_bound))
    return tuple(out)


def _rule_tensor(g, n, d, ks, c, m):
    """Twisting by a line bundle with s independent sections (s = 1 uses any
    effective bundle).  Fires NonEmpty when the untwisted low/mid-slope
    criterion holds for the rounded-up section count k0 = ceil(k/s), so it
    is decided once per block of k with the same k0."""
    lo, hi = max(ks.start, 1), ks.stop
    if d < 0 or lo >= hi:
        return []
    semistable = m is Stability.SEMISTABLE
    shifts = []  # (d', remainder, the largest k0 the untwisted criterion accepts)
    for dp, rem in _shift_candidates(n, d):
        top = _bgn_top(g, n, rem)
        if rem == n >= 2 and not semistable:
            top -= 1  # the corner (n, n) is rank-one only
        shifts.append((dp, rem, top))
    # the largest k0 at which a witness or the zero-remainder extension can fire
    k0_max = max([top for _, _, top in shifts] + [n if semistable and d % n == 0 else 0])
    out = []
    for s, line_bound, threshold in _tensor_thresholds(g, _hyper_rules_allowed(g, c)):
        if threshold > d // n:
            break  # no shift d' exceeds d // n
        for k0 in range(-(-lo // s), min(-(-(hi - 1) // s), k0_max) + 1):
            first, stop = (k0 - 1) * s + 1, k0 * s + 1
            for dp, rem, top in shifts:
                if dp >= threshold and k0 <= top:
                    cite = "twist by an effective line bundle" if s == 1 else \
                        "twist by a line bundle with s independent sections"
                    if dp < line_bound:
                        cite += " (hyperelliptic pencil powers lower the degree threshold)"
                    out.append((first, stop, _ev("tensor_effective" if s == 1 else "tensor_sections", "nonempty",
                                                 cite, d_shift=dp, remainder=rem, s=s, k0=k0)))
                    if rem == n:
                        out.append((first, stop, _ev("tensor_integer_slope", "nonempty",
                                                     "integer-slope specialization of the twisting criterion",
                                                     d_shift=dp, s=s, k0=k0)))
                    break  # one witness per s suffices
            if semistable and d % n == 0 and k0 <= n:
                out.append((first, stop, _ev("tensor_sections_semistable", "nonempty",
                                             "semistable extension of the twisting criterion to zero remainder",
                                             d_shift=d // n, remainder=0, s=s, k0=k0)))
    return out


def _rule_fractional_fill(g, n, d, ks, c, m):
    """Non-integral slopes beyond the s-section threshold with lam <= s are
    all realized (rounding argument on the section count)."""
    if d % n == 0:
        return []
    lo, hi = max(ks.start, 1), min(ks.stop, g * n + 1)  # lam <= g
    out = []
    thresholds = _tensor_thresholds(g, False)
    for s in range(-(-lo // n), -(-(hi - 1) // n) + 1):  # s = ceil(lam)
        if d <= (thresholds[s - 1][1] + 1) * n:
            break  # the line bounds grow with s
        out.append(((s - 1) * n + 1, s * n + 1, _ev(
            "fractional_slope_fill", "nonempty",
            "non-integral slopes past the threshold carry bundles at every rank", s=s)))
    return out


def _prefix_stop(holds, lo: int, hi: int) -> int:
    """The first k in lo..hi-1 where ``holds`` fails, or hi, by bisection:
    ``holds`` must hold on a prefix of the range and nowhere after it."""
    while lo < hi:  # every k < lo holds, and no k >= hi does
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _rule_teixidor(g, n, d, ks, c, m):
    """At a fixed degree the semistable test holds exactly for k = 1..top,
    since the normalized count rises with the slope and is nonnegative on an
    interval of heights from 0; so top is found by bisection.  The stable test
    differs only at the lattice points n | d, n | k, which split the run."""
    lo = max(ks.start, 1)
    if g < 3 or d < 0 or lo >= ks.stop:
        return []
    scale = _IntScale(g, n)  # the triple's point is (d, k) at scale n
    if not scale.in_teixidor(d, lo, Stability.SEMISTABLE):
        return []
    stop = _prefix_stop(lambda k: scale.in_teixidor(d, k, Stability.SEMISTABLE), lo + 1, ks.stop)
    ev = _ev("teixidor", "nonempty", "parallelogram existence criterion (Teixidor i Bigas; refined by Mercat)")
    out, first = [], lo
    if m is Stability.STABLE and d % n == 0:
        for k in range(-(-lo // n) * n, stop, n):
            if scale.teixidor_hole(d, k):
                out.append((first, k, ev))
                first = k + 1
    out.append((first, stop, ev))
    return out


def _rule_hyper_bounds(g, n, d, ks, c, m):
    if not _hyper_rules_allowed(g, c) or d < 0:
        return []
    if d % (2 * n) != 0 or d > (2 * g - 2) * n:
        s = hyper_window(d, n)
        # mu < 2s, and k > hyper_h0_bound(g, s, n, d) = num/g
        num = g * s * n + s * (d - (2 * s - 1) * n)
        first = num // g + 1
        if s <= g and d < 2 * s * n and first < ks.stop:
            return [(first, ks.stop, _ev("hyper_h0_bound", "empty",
                                         "hyperelliptic section bound for slopes strictly between 2s-2 and 2s",
                                         s=s, bound=format_ratio(num, g)))]
        return []
    s = d // (2 * n)  # 0 <= s <= g-1
    out = []
    if n == 1:
        out.append((s + 1, s + 2, _ev("hyper_power_point", "nonempty",
                                      "the s-th power of the degree-2 pencil attains s+1 sections", s=s)))
    if m is Stability.STABLE:  # more than sn sections, away from the pencil power
        out.append((s * n + 1 if n > 1 else s + 2, ks.stop, _ev(
            "hyper_even_slope_bound", "empty",
            "hyperelliptic even-slope bound: at most sn sections away from the pencil power", s=s)))
    return out


def _rule_hyper_strips(g, n, d, ks, c, m):
    if not _hyper_rules_allowed(g, c) or d < 0:
        return []
    out, lo = [], max(ks.start, 1)
    strip = hyper_strip(g, d, lo, n) if lo < ks.stop else None
    if strip is not None:  # over d/n the strip is one band k = 1..top, with one (s, dual)
        s, dual = strip
        cite = ("duality image of the settled hyperelliptic band" if dual
                else "settled hyperelliptic band below the integer section level")
        out.append((lo, _prefix_stop(lambda k: hyper_strip(g, d, k, n) is not None, lo + 1, ks.stop),
                    _ev("hyper_strip", "nonempty", cite, s=s)))
    if d % n == 0 and (d // n) % 2 == 1:  # integral odd slope 2s-1
        s = (d // n + 1) // 2
        if 1 <= s <= g - 1:
            if n == 1:
                corner = _ev("hyper_odd_point", "nonempty", "odd-slope corner: rank one realizes sn sections", s=s)
            elif m is Stability.STABLE:
                corner = _ev("hyper_odd_point", "empty",
                             "odd-slope corner is rank-one only for stable bundles", s=s)
            else:
                corner = _ev("hyper_odd_point_semistable", "nonempty",
                             "semistable bundles attain the odd-slope corner at every rank", s=s)
            out.append((s * n, s * n + 1, corner))
            out.append((1, s * n, _ev("hyper_near_max", "nonempty",
                                      "stable bundles with sn-1 sections exist at every odd slope 2s-1", s=s)))
    if m is Stability.SEMISTABLE and d % (2 * n) == 0:
        s = d // (2 * n)
        if 0 <= s <= g - 1:
            out.append((s * n + 1, (s + 1) * n + 1, _ev(
                "hyper_semistable_segment", "nonempty",
                "semistable even-slope segment up to the Clifford level", s=s)))
    return out


def _rule_hyper_gap(g, n, d, ks, c, m):
    """Slopes in (3, 4): the floor of the section bound is unattainable when
    the remainder l' lies in [g/2, g-1), and attainable when l' = g-1."""
    if not _hyper_rules_allowed(g, c) or g < 4 or not 3 * n < d < 4 * n or m is not Stability.STABLE:
        return []
    l, lp = divmod(d - 3 * n, g)
    k = 2 * n + 2 * l + 1
    if 2 * lp >= g and lp < g - 1:
        return [(k, k + 1, _ev("hyper_gap", "empty",
                               "section-count gap between slopes 3 and 4 on hyperelliptic curves",
                               l=l, l_remainder=lp))]
    if lp == g - 1:
        return [(k, k + 1, _ev("hyper_gap_attained", "nonempty",
                               "the extremal remainder realizes the gap value", l=l, l_remainder=lp))]
    return []


def _rule_known_points(g, n, d, ks, c, m):
    out = []
    for k, cite in _known_points(g, c, n, d).items():
        out.append((k, k + 1, _ev("known_point", "nonempty", cite)))
    return out


_DIRECT_RULES = (
    _rule_trivial,
    _rule_riemann_roch,
    _rule_clifford,
    _rule_edges,
    _rule_re_bound,
    _rule_line_bundles,
    _rule_bgn,
    _rule_mercat,
    _rule_hyper_bounds,
    _rule_hyper_gap,
    _rule_tensor,
    _rule_fractional_fill,
    _rule_teixidor,
    _rule_hyper_strips,
    _rule_known_points,
)

# every rule name, then the two engine steps: what an Unknown verdict reports as tried
_RULES_ATTEMPTED = tuple(r.__name__.removeprefix("_rule_") for r in _DIRECT_RULES) + ("curve_dichotomy", "serre")

_NONEMPTY = (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _check_column(g: int, n: int, d: int, c: CurveClass) -> CurveClass:
    """Check the genus, that n is an integer, the rank and the curve class,
    in that order, then that d is an integer; return the curve class."""
    check_genus(g)
    check_int("n", n)
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    c = CurveClass(c)
    if c is CurveClass.NON_HYPERELLIPTIC and g == 2:
        raise ValueError("every genus-2 curve is hyperelliptic")
    check_int("d", d)
    return c


# the kind and citation of a serre item, by whether the dual decides Empty
_SERRE_KIND = {True: ("empty", "duality carries emptiness across the reflection"),
               False: ("nonempty", "duality carries nonemptiness across the reflection")}

# the bit of each evidence kind; per set of kinds, its verdict and the bit it gives a serre step (None: a clash)
_KIND_BITS = {"wholespace": 1, "nonempty": 2, "empty": 4}
_VERDICT_OF_KINDS = (Verdict.UNKNOWN, Verdict.WHOLE_SPACE, Verdict.NON_EMPTY, Verdict.WHOLE_SPACE,
                     Verdict.EMPTY, None, None, None)
_SERRE_BIT = (0, 2, 2, 2, 4, None, None, None)


@lru_cache(maxsize=1 << 11)
def _base_column(g: int, n: int, d: int, lo: int, hi: int, c: CurveClass, m: Stability) -> tuple[tuple, tuple]:
    """Before the serre step: the runs (first k, past-the-end k, Evidence) of
    the direct rules in rule order, then of the curve dichotomy, clipped to
    lo <= k < hi; and for each triple (n, d, k) the bit set of its evidence
    kinds, or the error of the dichotomy."""
    runs, kinds, ks = [], [0] * (hi - lo), range(lo, hi)
    for rule in _DIRECT_RULES + (_dichotomy_runs,):
        for first, stop, e in rule(g, n, d, ks, c, m):
            first, stop = first if first > lo else lo, stop if stop < hi else hi
            if type(e) is ContradictionError:
                kinds[first - lo] = e
            elif first < stop:
                runs.append((first, stop, e))
                bit = _KIND_BITS[e.kind]
                for i in range(first - lo, stop - lo):
                    kinds[i] |= bit
    return tuple(runs), tuple(kinds)


def _dichotomy_runs(g: int, n: int, d: int, ks: range, c: CurveClass, m: Stability) -> list:
    """The curve dichotomy as a rule: one run per stretch of k where both
    sides agree with the same two verdicts, whose item is the same at every k
    of it, and a one-k run with the error of a side."""
    if c is not CurveClass.ARBITRARY or g < 3:
        return []
    cite = "every curve is hyperelliptic or not, and both cases agree"
    out, last = [], None  # last: the two verdicts of the run ending at k, if it may grow
    for k, hyp, non in zip(ks, _serre_column(g, n, d, ks.start, ks.stop, CurveClass.HYPERELLIPTIC, m)[0],
                           _serre_column(g, n, d, ks.start, ks.stop, CurveClass.NON_HYPERELLIPTIC, m)[0]):
        if type(hyp) is ContradictionError or type(non) is ContradictionError:
            out.append((k, k + 1, hyp if type(hyp) is ContradictionError else non))
            last = None
        elif (hyp is Verdict.EMPTY and non is Verdict.EMPTY) or (hyp in _NONEMPTY and non in _NONEMPTY):
            if last == (hyp, non):
                out[-1] = (out[-1][0], k + 1, out[-1][2])
            else:
                out.append((k, k + 1, _ev("curve_dichotomy", "empty" if hyp is Verdict.EMPTY else "nonempty",
                                          cite, hyperelliptic=hyp.value, non_hyperelliptic=non.value)))
                last = hyp, non
        else:
            last = None
    return out


def _evidence(runs: tuple, ks: range) -> list[tuple[Evidence, ...]]:
    """The evidence of each k in ks before the serre step, in one pass over
    the runs; by the rules' contract no item comes twice."""
    cells, lo, hi = [[] for _ in ks], ks.start, ks.stop
    for first, stop, e in runs:
        if first < hi and stop > lo:
            for i in range((first if first > lo else lo) - lo, (stop if stop < hi else hi) - lo):
                cells[i].append(e)
    return [tuple(cell) for cell in cells]


def _combine(evidence: tuple, n: int, d: int, k: int, c: CurveClass, m: Stability) -> ContradictionError:
    """The error that names the clash of the evidence of (n, d, k) on class c, stability m."""
    detail = "; ".join(f"{e.rule}:{e.kind}" for e in evidence)
    return ContradictionError(f"contradictory evidence at {Triple(n, d, k)} [{c.value},{m.value}]: {detail}")


def _serre_column(g: int, n: int, d: int, lo: int, hi: int, c: CurveClass, m: Stability,
                  rows: range = range(0)) -> tuple[list, list]:
    """The verdict of each (n, d, k), lo <= k < hi, or the error that stops
    it; and for each k in ``rows``, a subrange, its verdict and evidence.

    This is the oracle's one duality step, applied at depth one: the kinds of
    the dual triple's evidence before its own serre step are read from the
    column of d* and carried back across the reflection, with the first of
    the dual's evidence of that kind on the rows.
    """
    shift = n * (g - 1) - d
    dual_d, dual_lo = d + 2 * shift, lo + shift
    runs, kinds = _base_column(g, n, d, lo, hi, c, m)
    dual_runs, dual_kinds = _base_column(g, n, dual_d, dual_lo, hi + shift, c, m)

    def evidence(ks: range) -> list[tuple[Evidence, ...]]:  # with the serre evidence where the dual decides
        out, lo_star, hi_star = _evidence(runs, ks), ks.start + shift, ks.stop + shift
        # per row, whether the dual decides Empty (True), nonempty (False) or nothing (None); then the
        # rule of its first evidence of that kind: the runs are in rule order, so the first that covers it
        want = [None if type(bits) is not int or not _SERRE_BIT[bits] else bits == 4
                for bits in dual_kinds[ks.start - lo:ks.stop - lo]]
        primary, left = [None] * len(want), len(want) - want.count(None)
        for first, stop, e in dual_runs:
            if not left:
                break
            if first < hi_star and stop > lo_star:
                empty = e.kind == "empty"
                for i in range((first if first > lo_star else lo_star) - lo_star,
                               (stop if stop < hi_star else hi_star) - lo_star):
                    if want[i] is empty and primary[i] is None:
                        primary[i], left = e.rule, left - 1
        for i, rule in enumerate(primary):
            if rule is not None:
                out[i] += (Evidence("serre", *_SERRE_KIND[want[i]],
                                    (("dual", f"(n={n}, d={dual_d}, k={lo_star + i})"), ("dual_rule", rule))),)
        return out

    out = []
    for k, bits, dual_bits in zip(range(lo, hi), kinds, dual_kinds):
        # an error is handed out as a copy, since one error object raised again keeps every traceback
        if type(bits) is not int or type(dual_bits) is not int:  # a dichotomy erred, ours first
            v = ContradictionError(*(dual_bits if type(bits) is int else bits).args)
        elif _SERRE_BIT[dual_bits] is None:  # the dual's evidence clashes
            v = _combine(_evidence(dual_runs, range(k + shift, k + shift + 1))[0], n, dual_d, k + shift, c, m)
        else:  # a clash names the serre evidence too, where the dual decides
            v = (_VERDICT_OF_KINDS[bits | _SERRE_BIT[dual_bits]]
                 or _combine(evidence(range(k, k + 1))[0], n, d, k, c, m))
        out.append(v)
    return out, [v if type(v) is ContradictionError else (v, ev)
                 for v, ev in zip(out[rows.start - lo:], evidence(rows) if rows else ())]


def _rows(g: int, n: int, d: int, ks: range, c: CurveClass, m: Stability, entries: list) -> list:
    """The ``Classification`` of each (verdict, evidence) entry of ``_serre_column``'s rows, k in ks,
    or its error.  The records are built without their checks: the caller has checked g, n, d, c
    and m (``_check_column``), and every k of a range is an int."""
    return [e if type(e) is ContradictionError
            else _tuple_new(Classification, (g, _tuple_new(Triple, (n, d, k)), c, m) + e)
            for k, e in zip(ks, entries)]


def _table(g: int, n_max: int, c: CurveClass, m: Stability):
    """Per column (n, d) of a table, 1 <= n <= n_max and 0 <= d <= 2n(g-1):
    n, d, what ``classify_column`` gives for k = 1..n+d, and the verdict (or
    error) of the serre dual (n, d*, k + n(g-1) - d) of each of those triples.

    Each column is classified over R(d) = [min(1, 1 + d - n(g-1)), max(n + d, ng)],
    which holds its rows and whose serre dual R(d*) is the range of another
    column of the table.
    """
    c, m = _check_column(g, 1, 0, c), Stability(m)  # classify_column's checks of the first column
    for n in range(1, n_max + 1):
        top = 2 * n * (g - 1)
        columns = []
        for d in range(top + 1):
            lo = min(1, 1 + d - n * (g - 1))
            columns.append((lo, *_serre_column(g, n, d, lo, max(n + d, n * g) + 1, c, m, range(1, n + d + 1))))
        for d, (_, _, rows) in enumerate(columns):
            dual_lo, dual, _ = columns[top - d]
            first = 1 + n * (g - 1) - d - dual_lo  # the index of the dual of (n, d, 1)
            yield n, d, _rows(g, n, d, range(1, n + d + 1), c, m, rows), dual[first:first + n + d]


def classify_column(g: int, n: int, d: int, ks: range, c: CurveClass = CurveClass.ARBITRARY,
                    m: Stability = Stability.STABLE) -> list[Classification | ContradictionError]:
    """Classify the triples (n, d, k) for k in ``ks``, a range of step 1.

    Each entry is what :func:`classify` returns for that k, or the
    ``ContradictionError`` it raises.  The rules run once for the column.
    """
    c, m = _check_column(g, n, d, c), Stability(m)
    if ks.step != 1:
        raise ValueError(f"section counts must be a range of step 1, got {ks}")
    return _rows(g, n, d, ks, c, m, _serre_column(g, n, d, ks.start, ks.stop, c, m, ks)[1])


def classify(g: int, t: Triple, c: CurveClass = CurveClass.ARBITRARY,
             m: Stability = Stability.STABLE) -> Classification:
    """Classify the locus of triple ``t`` on a genus-``g`` curve of the given
    class, for stable or semistable bundles: a column of one k."""
    (r,) = classify_column(g, t.n, t.d, range(t.k, t.k + 1), c, m)
    if type(r) is ContradictionError:
        raise r
    return r


def annotate_geometry(g: int, t: Triple) -> list[str]:
    """Dimension/irreducibility/singularity notes applicable to the triple."""
    check_genus(g)
    n, d, k = t.n, t.d, t.k
    notes = []
    r = rho(g, t)
    if 0 < d <= n and k >= 1:
        notes.append(
            f"if nonempty: irreducible of dimension rho={r}; singular locus is the "
            "(k+1)-section sublocus (Brambila-Paz/Grzegorczyk/Newstead)"
        )
    elif n < d < 2 * n and k >= 1:
        note = (f"if nonempty: every component has the expected dimension rho={r}; singular locus "
                "is the (k+1)-section sublocus (Mercat)")
        if n == d + (n - k) * g or n < d < n + g:
            note += "; irreducible (Mercat)"
        notes.append(note)
    if k == 1 and d > 0:
        notes.append(
            f"single-section locus is irreducible of dimension rho={r}; its singular locus is the "
            "two-section sublocus (Sundaram; Laumon)"
        )
    return notes


def h0_max(g: int, n: int, d: int, c: CurveClass = CurveClass.ARBITRARY) -> tuple[int, str, str]:
    """Best upper bound the criteria give for h0 over stable bundles of rank
    n and degree d, with attainment status and a note.

    It reads one stable column k = 1..top, where top is the Clifford ceiling
    d // 2 + n, or chi = d - n(g-1) above slope 2g-2, and no column at
    negative degree, where no stable bundle has sections; every other section
    bound is a rule of that column.  The result is the largest k whose
    verdict is not Empty, with status 'yes' if that verdict is nonempty and
    'unknown' otherwise, or (0, 'yes', ...) when every k is Empty."""
    c = _check_column(g, n, d, c)
    if d < 0:  # a stable bundle of negative slope has no sections
        return 0, "yes", "no sections are possible"
    top, note = d // 2 + n, ""  # the Clifford ceiling
    if d > (2 * g - 2) * n:
        top, note = d - n * (g - 1), "slope above 2g-2: h0 equals chi"
    elif d == 0:
        note = "only the trivial bundle has sections at slope 0"
    elif d == (2 * g - 2) * n:
        note = "canonical edge" if n == 1 else "slope 2g-2 beyond rank one: h0 equals chi"
    column = classify_column(g, n, d, range(1, top + 1), c, Stability.STABLE)
    if not note:  # the hyperelliptic notes come from the column's evidence
        for r in column:
            rules = {e.rule for e in r.evidence} if type(r) is Classification else ()
            if "hyper_gap" in rules:
                note = f"k={r.triple.k} excluded by the hyperelliptic section gap"
            elif "hyper_power_point" in rules:
                note = "attained only by the power of the degree-2 pencil"
    for r in reversed(column):
        if type(r) is ContradictionError:
            raise r
        if r.verdict is not Verdict.EMPTY:
            return r.triple.k, "yes" if r.nonempty() else "unknown", note
    return 0, "yes", note or "no sections are possible"
