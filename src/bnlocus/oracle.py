"""Nonemptiness oracle for Brill-Noether loci, with a citable evidence trail.

``classify`` runs every applicable criterion for the requested curve class
and stability, records each one that fires, and combines them into a
verdict.  Emptiness and nonemptiness firing together is a hard internal
error, since the underlying theorems are mutually consistent.  ``Unknown``
is a common and acceptable verdict: the criteria are existence theorems,
not a decision procedure for the whole plane.

Duality is applied at depth exactly one (it is an involution), and for an
arbitrary curve a dichotomy step may combine the hyperelliptic and
non-hyperelliptic classifications when they agree.  Both go through one
function, ``_evidence``: it gathers the direct and dichotomy evidence of a
triple and adds the serre step, both for the requested class and for each
side of the dichotomy.

The rules decide on the integers (n, d, k) of a triple and build no
``Fraction``: slope conditions are cross-multiplied (mu < 2 lam - 2 is
d < 2k - 2n), and the region tests read the triple's point (d/n, k/n) as
(d, k) at scale n.  They are held to the ``Fraction`` functions
``in_teixidor``, ``hyper_strip`` at scale 1, ``hyper_window`` and
``rho_tilde`` by a differential test.

``classify`` keeps no results: a ``Classification`` stores the verdict and
its evidence and derives the rest.  The one cache, ``_core_evidence``, holds
the direct evidence of at most 2**16 triples, the least power of two at which
``verify_oracle(6, 5)`` misses no more often than with no bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .arith import (
    Stability,
    Triple,
    check_genus,
    format_rat,
    hyper_h0_bound,
    hyper_window,
    line_degree_bound_int,
    rho,
    serre_dual_triple,
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


@dataclass(frozen=True)
class Evidence:
    rule: str
    kind: str  # "wholespace" | "nonempty" | "empty"
    citation: str
    params: tuple[tuple[str, int | str], ...] = ()

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "params": dict(self.params), "citation": self.citation}


@dataclass(frozen=True)
class Classification:
    genus: int
    triple: Triple
    curve_class: CurveClass
    stability: Stability
    verdict: Verdict
    evidence: tuple[Evidence, ...]

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


def _ev(rule: str, kind: str, citation: str, **params) -> Evidence:
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


def _known_nonempty(g: int, c: CurveClass, t: Triple) -> str | None:
    for gg, classes, tt, cite in _KNOWN_NONEMPTY:
        if gg == g and c in classes and tt == t:
            return cite
    return None


def _hyper_rules_allowed(g: int, c: CurveClass) -> bool:
    # every genus-2 curve is hyperelliptic
    return c is CurveClass.HYPERELLIPTIC or g == 2


def _nonhyper_rules_allowed(g: int, c: CurveClass) -> bool:
    return g >= 3 and c in (CurveClass.NON_HYPERELLIPTIC, CurveClass.GENERIC)


# ---------------------------------------------------------------------------
# individual rules; each returns a list of Evidence
# ---------------------------------------------------------------------------


def _rule_trivial(g, t, c, m):
    out = []
    if t.k <= 0:
        out.append(_ev("trivial", "wholespace", "no sections demanded: the condition is vacuous"))
    elif t.d < 0:
        out.append(_ev("trivial", "empty", "negative degree admits no sections on a (semi)stable bundle"))
    return out


def _rule_riemann_roch(g, t, c, m):
    if t.k <= t.d - t.n * (g - 1):
        return [_ev("riemann_roch", "wholespace",
                    "Riemann-Roch: chi = d - n(g-1) independent sections always exist")]
    return []


def _rule_clifford(g, t, c, m):
    n, d, k = t.n, t.d, t.k
    if d < 0 or k <= 0:
        return []
    if d <= (2 * g - 2) * n and d < 2 * k - 2 * n:  # mu <= 2g-2 and mu < 2 lam - 2
        return [_ev("clifford", "empty", "Clifford bound for special (semi)stable bundles")]
    if d > (2 * g - 2) * n and k > d - n * (g - 1):
        return [_ev("high_slope", "empty",
                    "design decision: h1 vanishes for (semi)stable slope above 2g-2, so h0 = chi")]
    return []


def _rule_edges(g, t, c, m):
    out = []
    n, d, k = t.n, t.d, t.k
    if k <= 0:
        return out
    if d == 0:
        if m is Stability.STABLE:
            if (n, k) == (1, 1):
                out.append(_ev("edge_slope_zero", "nonempty",
                               "the trivial line bundle is the unique stable slope-0 bundle with a section"))
            else:
                out.append(_ev("edge_slope_zero", "empty",
                               "the trivial line bundle is the unique stable slope-0 bundle with a section"))
        else:
            if k <= n:
                out.append(_ev("edge_slope_zero", "nonempty",
                               "semistable bundles fill the whole slope-0 edge"))
            else:
                out.append(_ev("edge_slope_zero", "empty",
                               "semistable slope-0 bundles have at most n sections"))
    elif d == n * (2 * g - 2):
        if k <= d - n * (g - 1):
            return out  # already the whole space by Riemann-Roch
        if m is Stability.STABLE:
            if n == 1 and k <= g:
                out.append(_ev("edge_slope_canonical", "nonempty",
                               "the canonical bundle is the unique stable slope-(2g-2) bundle beyond chi"))
            else:
                out.append(_ev("edge_slope_canonical", "empty",
                               "the canonical bundle is the unique stable slope-(2g-2) bundle beyond chi"))
        else:
            if k <= n * g:
                out.append(_ev("edge_slope_canonical", "nonempty",
                               "semistable bundles fill the whole slope-(2g-2) edge"))
            else:
                out.append(_ev("edge_slope_canonical", "empty",
                               "Clifford bound at slope 2g-2"))
    return out


def _rule_re_bound(g, t, c, m):
    if not _nonhyper_rules_allowed(g, c):
        return []
    n, d, k = t.n, t.d, t.k
    if k >= 1 and n <= d <= (2 * g - 3) * n and d < 2 * k - n:  # 1 <= mu <= 2g-3, mu < 2 lam - 1
        return [_ev("re_bound", "empty",
                    "Re's sharpening of the Clifford bound on non-hyperelliptic curves")]
    return []


def _rule_line_bundles(g, t, c, m):
    if t.n != 1 or t.k < 1 or t.d < 0:
        return []
    out = []
    r = rho(g, t)
    if r >= 0:
        out.append(_ev("line_bundle_existence", "nonempty",
                       "classical rank-one existence: nonnegative expected dimension", rho=r))
    elif c is CurveClass.GENERIC:
        out.append(_ev("line_bundle_generic", "empty",
                       "on a generic curve the rank-one existence bound is sharp", rho=r))
    if _hyper_rules_allowed(g, c) and t.d >= 2 * (t.k - 1) and t.k <= g:
        out.append(_ev("hyper_pencil_power", "nonempty",
                       "powers of the degree-2 pencil give line bundles with s sections in degree 2s-2"))
    return out


def _bgn_condition(g, n, d, k) -> bool:
    return n <= d + (n - k) * g


def _rule_bgn(g, t, c, m):
    n, d, k = t.n, t.d, t.k
    if not (0 < d <= n) or k < 1:
        return []
    cite = "low-slope criterion for 0 < mu <= 1 (Brambila-Paz/Grzegorczyk/Newstead)"
    if _bgn_condition(g, n, d, k):
        if (d, k) == (n, n) and n >= 2 and m is Stability.STABLE:
            return [_ev("bgn", "empty", cite + ": the corner point is rank-one only")]
        return [_ev("bgn", "nonempty", cite)]
    return [_ev("bgn", "empty", cite + " (the bound is an equivalence)")]


def _rule_mercat(g, t, c, m):
    n, d, k = t.n, t.d, t.k
    if k < 1:
        return []
    cite = "mid-slope criterion for 1 < mu < 2 (Mercat)"
    if n < d < 2 * n:
        if _bgn_condition(g, n, d, k):
            return [_ev("mercat", "nonempty", cite)]
        return [_ev("mercat", "empty", cite + " (the bound is an equivalence)")]
    if d == 2 * n and _nonhyper_rules_allowed(g, c) and g >= 3:
        cite2 = "slope-2 extension of the mid-slope criterion on non-hyperelliptic curves (Mercat)"
        if _bgn_condition(g, n, d, k):
            return [_ev("mercat_slope2", "nonempty", cite2)]
        if _known_nonempty(g, c, t) is None:
            return [_ev("mercat_slope2", "empty", cite2)]
    return []


def _shift_candidates(n: int, d: int):
    """The at most two d' >= 0 with 0 < d - n*d' < 2n."""
    out = []
    for dp in range(max(0, -(-(d - 2 * n + 1) // n)), d // n + 1):
        rem = d - n * dp
        if 0 < rem < 2 * n:
            out.append((dp, rem))
    return out


def _rule_tensor(g, t, c, m):
    """Twisting by a line bundle with s independent sections (s = 1 uses any
    effective bundle).  Fires NonEmpty when the untwisted low/mid-slope
    criterion holds for the rounded-up section count."""
    n, d, k = t.n, t.d, t.k
    if k < 1 or d < 0:
        return []
    out = []
    hyper = _hyper_rules_allowed(g, c)
    candidates = _shift_candidates(n, d)
    for s in range(1, g + 1):
        line_bound = 0 if s == 1 else line_degree_bound_int(g, s)
        threshold = min(line_bound, 2 * s - 2) if hyper else line_bound
        k0 = -(-k // s)  # ceil(k/s)
        for dp, rem in candidates:
            if dp < threshold:
                continue
            corner = (rem, k0) == (n, n) and n >= 2
            if _bgn_condition(g, n, rem, k0) and (not corner or m is Stability.SEMISTABLE):
                rule = "tensor_effective" if s == 1 else "tensor_sections"
                cite = ("twist by an effective line bundle"
                        if s == 1 else "twist by a line bundle with s independent sections")
                if dp < line_bound:
                    cite += " (hyperelliptic pencil powers lower the degree threshold)"
                out.append(_ev(rule, "nonempty", cite, d_shift=dp, remainder=rem, s=s, k0=k0))
                if rem == n:
                    out.append(_ev("tensor_integer_slope", "nonempty",
                                   "integer-slope specialization of the twisting criterion",
                                   d_shift=dp, s=s, k0=k0))
                break  # one witness per s suffices
        if m is Stability.SEMISTABLE and d % n == 0:
            dp = d // n
            if dp >= threshold and k0 <= n:
                out.append(_ev("tensor_sections_semistable", "nonempty",
                               "semistable extension of the twisting criterion to zero remainder",
                               d_shift=dp, remainder=0, s=s, k0=k0))
    return out


def _rule_fractional_fill(g, t, c, m):
    """Non-integral slopes beyond the s-section threshold with lam <= s are
    all realized (rounding argument on the section count)."""
    n, d, k = t.n, t.d, t.k
    if k < 1 or d % n == 0 or k > g * n:  # lam > g
        return []
    s = -(-k // n)  # ceil(lam)
    if d > (line_degree_bound_int(g, s) + 1) * n:
        return [_ev("fractional_slope_fill", "nonempty",
                    "non-integral slopes past the threshold carry bundles at every rank", s=s)]
    return []


def _rule_teixidor(g, t, c, m):
    if g < 3 or t.k < 1 or t.d < 0:
        return []
    if _IntScale(g, t.n).in_teixidor(t.d, t.k, m):  # the triple's point is (d, k) at scale n
        return [_ev("teixidor", "nonempty",
                    "parallelogram existence criterion (Teixidor i Bigas; refined by Mercat)")]
    return []


def _rule_hyper_bounds(g, t, c, m):
    if not _hyper_rules_allowed(g, c) or t.k < 1 or t.d < 0:
        return []
    n, d, k = t.n, t.d, t.k
    out = []
    if d % (2 * n) != 0 or d > (2 * g - 2) * n:
        s = hyper_window(d, n)
        # mu < 2s, and k > hyper_h0_bound(g, s, n, d) multiplied through by g
        if s <= g and d < 2 * s * n and g * (k - s * n) > s * (d - (2 * s - 1) * n):
            out.append(_ev("hyper_h0_bound", "empty",
                           "hyperelliptic section bound for slopes strictly between 2s-2 and 2s",
                           s=s, bound=format_rat(hyper_h0_bound(g, s, n, d))))
    else:
        s = d // (2 * n)
        if 0 <= s <= g - 1:
            if (n, d, k) == (1, 2 * s, s + 1):
                out.append(_ev("hyper_power_point", "nonempty",
                               "the s-th power of the degree-2 pencil attains s+1 sections", s=s))
            elif k > s * n and m is Stability.STABLE:
                out.append(_ev("hyper_even_slope_bound", "empty",
                               "hyperelliptic even-slope bound: at most sn sections away from the pencil power",
                               s=s))
    return out


def _rule_hyper_strips(g, t, c, m):
    if not _hyper_rules_allowed(g, c) or t.k < 1 or t.d < 0:
        return []
    n, d, k = t.n, t.d, t.k
    out = []
    strip = hyper_strip(g, d, k, n)
    if strip is not None:
        s, dual = strip
        cite = ("duality image of the settled hyperelliptic band" if dual
                else "settled hyperelliptic band below the integer section level")
        out.append(_ev("hyper_strip", "nonempty", cite, s=s))
    if d % n == 0 and (d // n) % 2 == 1:  # integral odd slope 2s-1
        s = (d // n + 1) // 2
        if 1 <= s <= g - 1:
            if k == s * n:
                if n == 1:
                    out.append(_ev("hyper_odd_point", "nonempty",
                                   "odd-slope corner: rank one realizes sn sections", s=s))
                elif m is Stability.STABLE:
                    out.append(_ev("hyper_odd_point", "empty",
                                   "odd-slope corner is rank-one only for stable bundles", s=s))
                else:
                    out.append(_ev("hyper_odd_point_semistable", "nonempty",
                                   "semistable bundles attain the odd-slope corner at every rank", s=s))
            if k <= s * n - 1:
                out.append(_ev("hyper_near_max", "nonempty",
                               "stable bundles with sn-1 sections exist at every odd slope 2s-1", s=s))
    if m is Stability.SEMISTABLE and d % (2 * n) == 0:
        s = d // (2 * n)
        if 0 <= s <= g - 1 and s * n < k <= (s + 1) * n:
            out.append(_ev("hyper_semistable_segment", "nonempty",
                           "semistable even-slope segment up to the Clifford level", s=s))
    return out


def _rule_hyper_gap(g, t, c, m):
    """Slopes in (3, 4): the floor of the section bound is unattainable when
    the remainder l' lies in [g/2, g-1), and attainable when l' = g-1."""
    if not _hyper_rules_allowed(g, c) or g < 4 or t.k < 1:
        return []
    n, d, k = t.n, t.d, t.k
    if not (3 * n < d < 4 * n):
        return []
    l, lp = divmod(d - 3 * n, g)
    out = []
    if k == 2 * n + 2 * l + 1 and m is Stability.STABLE:
        if 2 * lp >= g and lp < g - 1:
            out.append(_ev("hyper_gap", "empty",
                           "section-count gap between slopes 3 and 4 on hyperelliptic curves",
                           l=l, l_remainder=lp))
        elif lp == g - 1:
            out.append(_ev("hyper_gap_attained", "nonempty",
                           "the extremal remainder realizes the gap value", l=l, l_remainder=lp))
    return out


def _rule_known_points(g, t, c, m):
    cite = _known_nonempty(g, c, t)
    if cite is not None:
        return [_ev("known_point", "nonempty", cite)]
    return []


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


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _validate(g: int, t: Triple, c: CurveClass, m: Stability):
    check_genus(g)
    if c is CurveClass.NON_HYPERELLIPTIC and g == 2:
        raise ValueError("every genus-2 curve is hyperelliptic")


@lru_cache(maxsize=1 << 16)
def _core_evidence(g: int, t: Triple, c: CurveClass, m: Stability) -> tuple[Evidence, ...]:
    out: list[Evidence] = []
    for rule in _DIRECT_RULES:
        out.extend(rule(g, t, c, m))
    return tuple(dict.fromkeys(out))


def _dichotomy_evidence(g: int, t: Triple, c: CurveClass, m: Stability) -> tuple[Evidence, ...]:
    if c is not CurveClass.ARBITRARY or g < 3:
        return ()
    hyp, non = (_combine(_evidence(g, t, cc, m), t, cc, m)
                for cc in (CurveClass.HYPERELLIPTIC, CurveClass.NON_HYPERELLIPTIC))
    cite = "every curve is hyperelliptic or not, and both cases agree"
    params = {"hyperelliptic": hyp.value, "non_hyperelliptic": non.value}
    if hyp is Verdict.EMPTY and non is Verdict.EMPTY:
        return (_ev("curve_dichotomy", "empty", cite, **params),)
    if hyp in (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE) and non in (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE):
        return (_ev("curve_dichotomy", "nonempty", cite, **params),)
    return ()


def _combine(evidence: tuple[Evidence, ...], t: Triple, c: CurveClass, m: Stability) -> Verdict:
    """The verdict of the evidence gathered for t on class c, stability m."""
    kinds = {e.kind for e in evidence}
    if "empty" in kinds and (kinds & {"nonempty", "wholespace"}):
        detail = "; ".join(f"{e.rule}:{e.kind}" for e in evidence)
        raise ContradictionError(f"contradictory evidence at {t} [{c.value},{m.value}]: {detail}")
    if "wholespace" in kinds:
        return Verdict.WHOLE_SPACE
    if "nonempty" in kinds:
        return Verdict.NON_EMPTY
    if "empty" in kinds:
        return Verdict.EMPTY
    return Verdict.UNKNOWN


def _evidence(g: int, t: Triple, c: CurveClass, m: Stability) -> tuple[Evidence, ...]:
    """The direct and dichotomy evidence for t, then the serre step.

    This is the oracle's one duality step, applied at depth one: the dual
    triple's verdict comes from its own direct and dichotomy evidence, with no
    serre step of its own, and is carried back across the reflection.
    """
    evidence = _core_evidence(g, t, c, m) + _dichotomy_evidence(g, t, c, m)
    dual = serre_dual_triple(g, t)
    dual_ev = _core_evidence(g, dual, c, m) + _dichotomy_evidence(g, dual, c, m)
    dual_verdict = _combine(dual_ev, dual, c, m)
    if dual_verdict in (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE):
        primary = next(e.rule for e in dual_ev if e.kind in ("nonempty", "wholespace"))
        evidence += (_ev("serre", "nonempty", "duality carries nonemptiness across the reflection",
                         dual=str(dual), dual_rule=primary),)
    elif dual_verdict is Verdict.EMPTY:
        primary = next(e.rule for e in dual_ev if e.kind == "empty")
        evidence += (_ev("serre", "empty", "duality carries emptiness across the reflection",
                         dual=str(dual), dual_rule=primary),)
    return evidence


def classify(g: int, t: Triple, c: CurveClass = CurveClass.ARBITRARY,
             m: Stability = Stability.STABLE) -> Classification:
    """Classify the locus of triple ``t`` on a genus-``g`` curve of the given
    class, for stable or semistable bundles."""
    c, m = CurveClass(c), Stability(m)
    _validate(g, t, c, m)
    evidence = _evidence(g, t, c, m)
    return Classification(g, t, c, m, _combine(evidence, t, c, m), evidence)


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
    n and degree d, with attainment status ('yes'/'no'/'unknown') and a note."""
    check_genus(g)
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    c = CurveClass(c)
    _validate(g, Triple(n, max(d, 0), 1), c, Stability.STABLE)
    mu = Fraction(d, n)
    note = ""
    if d < 0:
        bound = 0
    elif mu > 2 * g - 2:
        bound = d - n * (g - 1)
        note = "slope above 2g-2: h0 equals chi"
    elif d == 0:
        bound = 1 if n == 1 else 0
        note = "only the trivial bundle has sections at slope 0"
    elif mu == 2 * g - 2:
        bound = g if n == 1 else n * (g - 1)
        note = "canonical edge" if n == 1 else "slope 2g-2 beyond rank one: h0 equals chi"
    else:
        candidates = [(d + 2 * n) // 2]  # Clifford
        if _nonhyper_rules_allowed(g, c) and 1 <= mu <= 2 * g - 3:
            candidates.append((d + n) // 2)  # Re
        if d < 2 * n or (d == 2 * n and _nonhyper_rules_allowed(g, c)):
            low = (d - n) // g + n  # low/mid-slope bound
            if _known_nonempty(g, c, Triple(n, d, low + 1)):
                low += 1  # a sporadic point above it, which mercat_slope2 leaves alone
            candidates.append(low)
        if _hyper_rules_allowed(g, c):
            s = hyper_window(mu)
            if d % (2 * n) == 0 and 0 <= d // (2 * n) <= g - 1:
                sv = d // (2 * n)
                candidates.append(sv + 1 if n == 1 else sv * n)
                if n == 1:
                    note = "attained only by the power of the degree-2 pencil"
            elif s <= g:
                fb = math.floor(hyper_h0_bound(g, s, n, d))
                if g >= 4 and 3 * n < d < 4 * n:
                    l, lp = divmod(d - 3 * n, g)
                    if fb == 2 * n + 2 * l + 1 and 2 * lp >= g and lp < g - 1:
                        fb -= 1
                        note = f"k={2 * n + 2 * l + 1} excluded by the hyperelliptic section gap"
                candidates.append(fb)
        if mu > g - 1:  # duality: h0 = chi + dual h0
            dual_bound, _, _ = h0_max(g, n, 2 * n * (g - 1) - d, c)
            candidates.append(d - n * (g - 1) + dual_bound)
        bound = min(candidates)
    if bound < 0:
        bound = 0
    if bound == 0:
        return 0, "yes", note or "no sections are possible"
    result = classify(g, Triple(n, d, bound), c, Stability.STABLE)
    if result.nonempty():
        attained = "yes"
    elif result.verdict is Verdict.EMPTY:
        attained = "no"
    else:
        attained = "unknown"
    return bound, attained, note
