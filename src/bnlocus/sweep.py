"""Batch verification sweeps over exhaustive rational grids.

Everything here is deterministic: grids are enumerated by denominator
(plus every breakpoint of every boundary function involved), reports are
sorted canonically, and no floating point is used anywhere.  Heights are
sampled per combinatorial cell: since every boundary is piecewise linear,
membership along a vertical line only changes at the finitely many tops
and integer levels, so testing those values and small offsets around them
covers every case a blind denominator grid would reach.

The duality and inclusion sweeps run in integers.  With the height offset
1/(c*g), each genus takes the common denominator D = g*lcm(1..max_den, c),
at which every sampled slope, boundary value, tile top and offset is an
integer; a sample that is not a multiple of 1/D raises.  Every
membership test then goes through the scaled-integer kernel of
:mod:`bnlocus.regions`, which is built once per genus from the same tile and
boundary data as the public Fraction functions.  Those functions stay the
reference: a differential test holds the kernel to them, and points are
turned back into Fractions only to write a failure record.

Set ``BN_LOCUS_THREADS`` to split per-genus work across processes; the
merged report is identical either way.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    BNPoint,
    Stability,
    Triple,
    format_rat,
    hyper_h0_bound,
    line_degree_bound_int,
    rho_tilde,
    serre_dual_triple,
)
from .oracle import Classification, ContradictionError, CurveClass, Verdict, classify
from .regions import (
    BmnoMode,
    _IntKernel,
    bmno_boundary,
    hyper_boundary,
    in_bmno,
    in_teixidor,
    teixidor_boundary,
    u_params,
)

_FAILURE_CAP = 100


@dataclass(frozen=True)
class SweepFailure:
    input: str
    expected: str
    observed: str

    def to_json_dict(self) -> dict:
        return {"input": self.input, "expected": self.expected, "observed": self.observed}


@dataclass
class SweepReport:
    suite: str
    genus_lo: int
    genus_hi: int
    max_denominator: int
    checks_run: int = 0
    failure_count: int = 0
    failures: list[SweepFailure] = field(default_factory=list)

    def record(self, input_, expected, observed):
        self.failure_count += 1
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append(SweepFailure(str(input_), str(expected), str(observed)))

    def merge(self, other: "SweepReport"):
        self.checks_run += other.checks_run
        self.failure_count += other.failure_count
        for f in other.failures:
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(f)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "genus_lo": self.genus_lo,
            "genus_hi": self.genus_hi,
            "max_denominator": self.max_denominator,
            "checks_run": self.checks_run,
            "failure_count": self.failure_count,
            "failures": [f.to_json_dict() for f in self.failures],
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({self.failure_count} failures)"
        return (f"{self.suite}: genus {self.genus_lo}..{self.genus_hi}, "
                f"den<={self.max_denominator}, {self.checks_run} checks: {state}")


def rationals_between(lo, hi, max_den: int, include_lo=False, include_hi=False) -> list[Fraction]:
    """All rationals with denominator at most max_den in the interval."""
    lo, hi = Fraction(lo), Fraction(hi)
    out = set()
    for q in range(1, max_den + 1):
        p = math.floor(lo * q)
        while Fraction(p, q) <= hi:
            x = Fraction(p, q)
            if (lo < x or (include_lo and x == lo)) and (x < hi or (include_hi and x == hi)):
                out.add(x)
            p += 1
    return sorted(out)


def _lam_samples(values, delta: int) -> list[int]:
    """One height per membership cell: each top and level, straddled by delta
    (all at the sweep's common denominator)."""
    out = {delta}
    for v in values:
        for cand in (v - delta, v, v + delta):
            if cand > 0:
                out.add(cand)
    return sorted(out)


def _point(M: int, L: int, D: int) -> BNPoint:
    """The point (M/D, L/D), for failure records."""
    return BNPoint(Fraction(M, D), Fraction(L, D))


def _threads() -> int:
    raw = os.environ.get("BN_LOCUS_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"BN_LOCUS_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"BN_LOCUS_THREADS must be >= 1, got {n}")
    return n


def _check_max_den(max_den: int) -> None:
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")


def _run_per_genus(fn, genera, report: SweepReport) -> SweepReport:
    workers = _threads()
    if workers > 1 and len(genera) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for sub in pool.map(fn, genera):
                report.merge(sub)
    else:
        for g in genera:
            report.merge(fn(g))
    return report


# ---------------------------------------------------------------------------
# suite 1: the assembled boundary stays within one of the expected-dimension curve
# ---------------------------------------------------------------------------


def _prop_boundary_gap_one_genus(args) -> SweepReport:
    g, max_den, which = args
    rep = SweepReport(which, g, g, max_den)
    fn = bmno_boundary(g) if which == "boundary_gap_f" else teixidor_boundary(g)
    grid = set(rationals_between(0, 2 * g - 2, max_den)) | set(fn.breakpoints())
    for mu in sorted(grid):
        val = fn(mu)
        rep.checks_run += 1
        below = rho_tilde(g, BNPoint(mu, val)) >= 0 if val > 0 else True
        above = rho_tilde(g, BNPoint(mu, val + 1)) < 0
        if not (below and above):
            rep.record(f"g={g} mu={format_rat(mu)}",
                       "boundary on or below the curve, boundary+1 above",
                       f"value={format_rat(val)}")
    return rep


def verify_prop_4_11(g_lo: int = 3, g_hi: int = 30, max_den: int = 12) -> SweepReport:
    """The assembled boundary lies on or below the expected-dimension curve,
    and less than one below it, at every grid point and breakpoint."""
    if not (3 <= g_lo <= g_hi):
        raise ValueError("need 3 <= g_lo <= g_hi")
    _check_max_den(max_den)
    rep = SweepReport("boundary_gap_f", g_lo, g_hi, max_den)
    return _run_per_genus(_prop_boundary_gap_one_genus,
                          [(g, max_den, "boundary_gap_f") for g in range(g_lo, g_hi + 1)], rep)


def verify_teixidor_gap(g_lo: int = 3, g_hi: int = 30, max_den: int = 12) -> SweepReport:
    """Same one-sided unit gap for the parallelogram boundary, plus its
    continuity and monotonicity."""
    if not (3 <= g_lo <= g_hi):
        raise ValueError("need 3 <= g_lo <= g_hi")
    _check_max_den(max_den)
    rep = SweepReport("boundary_gap_t", g_lo, g_hi, max_den)
    rep = _run_per_genus(_prop_boundary_gap_one_genus,
                         [(g, max_den, "boundary_gap_t") for g in range(g_lo, g_hi + 1)], rep)
    for g in range(g_lo, g_hi + 1):
        fn = teixidor_boundary(g)
        prev_val = None
        for a, b in zip(fn.pieces, fn.pieces[1:]):
            rep.checks_run += 1
            if a.value_at(a.hi) != b.value_at(b.lo):
                rep.record(f"g={g} mu={format_rat(a.hi)}", "continuous at the joint",
                           f"{format_rat(a.value_at(a.hi))} vs {format_rat(b.value_at(b.lo))}")
        for p in fn.pieces:
            if p.lo >= g - 1:
                break
            rep.checks_run += 1
            if p.slope < 0 or p.value_at(p.lo) > p.value_at(min(p.hi, Fraction(g - 1))):
                rep.record(f"g={g} piece at {format_rat(p.lo)}", "non-decreasing", "decreasing piece")
            if prev_val is not None and p.value_at(p.lo) < prev_val:
                rep.record(f"g={g} mu={format_rat(p.lo)}", "non-decreasing", "drop at joint")
            prev_val = p.value_at(min(p.hi, Fraction(g - 1)))
    return rep


# ---------------------------------------------------------------------------
# suite 2: tile inclusions
# ---------------------------------------------------------------------------


def _inclusions_one_genus(args) -> SweepReport:
    g, max_den = args
    rep = SweepReport("inclusions", g, g, max_den)
    D = g * math.lcm(*range(1, max_den + 1), 8)
    k = _IntKernel(g, D)
    delta = D // (8 * g)

    # chain: shifted-BGN inside shifted-M inside next shifted-BGN
    for s in range(1, g):
        for dp in range(0, g - 2):
            inner_t = k.shifted_tile("bgn", dp + 1, s)
            mid_t = k.shifted_tile("m", dp, s)
            outer_t = k.shifted_tile("bgn", dp + 1, s + 1)
            for mu in rationals_between(dp + 1, dp + 2, max_den, include_hi=True):
                M = k.at_scale(mu)
                tops = [inner_t.top(M), mid_t.top(M), outer_t.top(M), s * D, (s + 1) * D]
                for L in _lam_samples(tops, delta):
                    rep.checks_run += 1
                    inner = inner_t.contains(M, L)
                    mid = mid_t.contains(M, L)
                    outer = outer_t.contains(M, L)
                    if inner and not mid:
                        rep.record(f"g={g} d'={dp} s={s} p={_point(M, L, D)}", "inner tile inside shifted-M", "outside")
                    if mid and not outer:
                        rep.record(f"g={g} d'={dp} s={s} p={_point(M, L, D)}", "shifted-M inside next tile", "outside")

    # reflected-M tile lands in the shifted-BGN tile (plus its sliver)
    for s in range(1, g):
        for dp in range(max(line_degree_bound_int(g, s), g - 2), s + g - 2):
            d1, s1 = u_params(g, dp, s)
            rep.checks_run += 1
            if s1 < 1:
                rep.record(f"g={g} d'={dp} s={s}", "s1 >= 1", f"s1={s1}")
                continue
            rep.checks_run += 1
            if d1 - 1 < line_degree_bound_int(g, s1):
                rep.record(f"g={g} d'={dp} s={s}", "d1-1 above the threshold", f"d1={d1}")
            reflected = k.reflected_tile("m", dp, s)
            target = k.shifted_tile("bgn", d1 - 1, s1)
            for mu in rationals_between(d1 - 1, d1, max_den, include_lo=True):
                M = k.at_scale(mu)
                tops = [reflected.top(M), target.top(M), (s1 - 1) * D, s1 * D]
                for L in _lam_samples(tops, delta):
                    rep.checks_run += 1
                    if reflected.contains(M, L):
                        ok = target.contains(M, L) or (M == (d1 - 1) * D and 0 < L < (s1 - 1) * D)
                        if not ok:
                            rep.record(f"g={g} d'={dp} s={s} p={_point(M, L, D)}",
                                       "reflected-M point covered", "uncovered")

    # reflected-BGN tile lands in the next shifted-BGN tile when past the threshold
    for s in range(1, g):
        for dp in range(max(line_degree_bound_int(g, s), g - 1), s + g - 1):
            d1, s1 = u_params(g, dp, s)
            if d1 < line_degree_bound_int(g, s1 + 1):
                continue
            reflected = k.reflected_tile("bgn", dp, s)
            target = k.shifted_tile("bgn", d1, s1 + 1)
            for mu in rationals_between(d1, d1 + 1, max_den, include_lo=True):
                M = k.at_scale(mu)
                tops = [reflected.top(M), target.top(M), s1 * D, (s1 + 1) * D]
                for L in _lam_samples(tops, delta):
                    rep.checks_run += 1
                    if reflected.contains(M, L):
                        ok = target.contains(M, L) or (M == d1 * D and 0 < L < s1 * D)
                        if not ok:
                            rep.record(f"g={g} d'={dp} s={s} p={_point(M, L, D)}",
                                       "reflected-BGN point covered", "uncovered")

    # replacement step: the last shifted-M tile of a chain sits inside the
    # reflected-BGN tile (plus a sliver) when the next threshold is hit exactly
    for s in range(1, g):
        for dp in range(max(line_degree_bound_int(g, s), g - 1), s + g - 1):
            d1, s1 = u_params(g, dp, s)
            if s1 < 1 or d1 + 1 != line_degree_bound_int(g, s1 + 1) or d1 + 1 > g - 1:
                continue
            replacement = k.reflected_tile("bgn", dp, s)
            last = k.shifted_tile("m", d1 - 1, s1)
            for mu in rationals_between(d1, d1 + 1, max_den, include_hi=True):
                M = k.at_scale(mu)
                tops = [replacement.top(M), last.top(M), (s1 - 1) * D, s1 * D]
                for L in _lam_samples(tops, delta):
                    rep.checks_run += 1
                    if last.contains(M, L):
                        ok = replacement.contains(M, L) or (M == (d1 + 1) * D and 0 < L < s1 * D)
                        if not ok:
                            rep.record(f"g={g} d'={dp} s={s} p={_point(M, L, D)}",
                                       "last chain tile inside the replacement", "uncovered")
    return rep


def verify_inclusions(g_lo: int = 4, g_hi: int = 20, max_den: int = 8) -> SweepReport:
    """Tile-inclusion chain and the three reflected-tile coverage facts."""
    if not (4 <= g_lo <= g_hi):
        raise ValueError("need 4 <= g_lo <= g_hi")
    _check_max_den(max_den)
    rep = SweepReport("inclusions", g_lo, g_hi, max_den)
    return _run_per_genus(_inclusions_one_genus,
                          [(g, max_den) for g in range(g_lo, g_hi + 1)], rep)


# ---------------------------------------------------------------------------
# suite 3: duality invariance
# ---------------------------------------------------------------------------


def _sigma_one_genus(args) -> SweepReport:
    g, max_den = args
    rep = SweepReport("sigma", g, g, max_den)
    D = g * math.lcm(*range(1, max_den + 1), max(8, max_den))
    k = _IntKernel(g, D)
    f, t, h = k.f, k.scaled(teixidor_boundary(g)), k.scaled(hyper_boundary(g))
    delta = D // (max(8, max_den) * g)
    modes, stabilities = list(BmnoMode), list(Stability)

    for mu in rationals_between(0, 2 * g - 2, max_den):
        M = k.at_scale(mu)
        fv, tv, hv = f.value(M), t.value(M), h.value(M)
        # graph of the assembled boundary is its own reflection
        rep.checks_run += 1
        ref = f.value(2 * k.gd - M) + M - k.gd
        if ref != fv:
            rep.record(f"g={g} mu={format_rat(mu)}", "reflection-invariant boundary",
                       f"{format_rat(Fraction(fv, D))} vs {format_rat(Fraction(ref, D))}")
        top = -(-max(fv, tv, hv) // D)
        levels = [x * D for x in range(1, min(g, top + 2) + 1)]
        for L in _lam_samples([fv, tv, hv] + levels, delta):
            SM, SL = k.dual(M, L)
            rep.checks_run += 1
            if k.rho_tilde(M, L) != k.rho_tilde(SM, SL):
                rep.record(f"g={g} p={_point(M, L, D)}", "rho~ invariant", "differs")
            for mode in modes:
                rep.checks_run += 1
                if k.in_bmno(M, L, mode) != k.in_bmno(SM, SL, mode):
                    rep.record(f"g={g} p={_point(M, L, D)} mode={mode.value}", "membership invariant", "differs")
            if SL > 0:
                for st in stabilities:
                    rep.checks_run += 1
                    if k.in_teixidor(M, L, st) != k.in_teixidor(SM, SL, st):
                        rep.record(f"g={g} p={_point(M, L, D)} {st.value}", "membership invariant", "differs")
            rep.checks_run += 1
            if k.in_bmno_h(M, L) != k.in_bmno_h(SM, SL):
                rep.record(f"g={g} p={_point(M, L, D)}", "membership invariant", "differs")
    return rep


def verify_sigma(g_lo: int = 4, g_hi: int = 20, max_den: int = 8) -> SweepReport:
    """Region memberships and the normalized count agree at each point and
    its duality reflection; the assembled boundary graph is self-dual."""
    if not (3 <= g_lo <= g_hi):
        raise ValueError("need 3 <= g_lo <= g_hi")
    _check_max_den(max_den)
    rep = SweepReport("sigma", g_lo, g_hi, max_den)
    return _run_per_genus(_sigma_one_genus, [(g, max_den) for g in range(g_lo, g_hi + 1)], rep)


# ---------------------------------------------------------------------------
# suite 4: oracle invariants
# ---------------------------------------------------------------------------


def _oracle_one_genus(args) -> SweepReport:
    g, n_max = args
    rep = SweepReport("oracle", g, g, n_max)
    nonemptyish = (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE)
    classes = [CurveClass.ARBITRARY, CurveClass.HYPERELLIPTIC, CurveClass.GENERIC]
    if g >= 3:
        classes.append(CurveClass.NON_HYPERELLIPTIC)
    for c in classes:
        for m in Stability:
            for n in range(1, n_max + 1):
                for d in range(0, 2 * n * (g - 1) + 1):
                    empty_seen = False
                    for k in range(1, n + d + 1):
                        t = Triple(n, d, k)
                        rep.checks_run += 1
                        try:
                            r = classify(g, t, c, m)
                        except ContradictionError as exc:
                            rep.record(f"g={g} {t} {c.value} {m.value}", "consistent evidence", str(exc))
                            continue
                        if r.verdict in nonemptyish and empty_seen:
                            rep.record(f"g={g} {t} {c.value} {m.value}",
                                       "monotone in the section count", r.verdict.value)
                        if r.verdict is Verdict.EMPTY:
                            empty_seen = True
                        rd = classify(g, serre_dual_triple(g, t), c, m)
                        pair = {r.verdict, rd.verdict}
                        if Verdict.EMPTY in pair and pair & set(nonemptyish):
                            rep.record(f"g={g} {t} {c.value} {m.value}",
                                       "duality-consistent verdicts",
                                       f"{r.verdict.value} vs dual {rd.verdict.value}")
                        if (c is CurveClass.HYPERELLIPTIC and m is Stability.STABLE
                                and r.verdict in nonemptyish):
                            mu = t.mu
                            s = max(0, math.ceil(Fraction(mu, 2)))
                            if s <= g and 2 * s - 2 < mu < 2 * s:
                                if k > hyper_h0_bound(g, s, n, d):
                                    rep.record(f"g={g} {t}", "below the hyperelliptic bound",
                                               r.verdict.value)
                        if m is Stability.STABLE and r.verdict in nonemptyish:
                            mu, lam = t.mu, t.lam
                            if 0 < mu <= 2 * g - 2 and mu < 2 * lam - 2:
                                rep.record(f"g={g} {t} {c.value}", "below the Clifford edge",
                                           r.verdict.value)
    return rep


def verify_oracle(g_max: int = 6, n_max: int = 5, g_lo: int = 2) -> SweepReport:
    """No contradictions, section-count monotonicity, duality consistency,
    hyperelliptic sharpness and Clifford soundness over the full window."""
    if not (2 <= g_lo <= g_max):
        raise ValueError("need 2 <= g_lo <= g_max")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rep = SweepReport("oracle", g_lo, g_max, n_max)
    return _run_per_genus(_oracle_one_genus, [(g, n_max) for g in range(g_lo, g_max + 1)], rep)


# ---------------------------------------------------------------------------
# enumeration and region comparison
# ---------------------------------------------------------------------------

CSV_HEADER = "genus,rank,degree,sections,mu,lambda,verdict,rule,rho"


def enumerate_classifications(g: int, n_max: int,
                              c: CurveClass = CurveClass.ARBITRARY,
                              m: Stability = Stability.STABLE) -> list[Classification]:
    """Deterministic table of classifications, ordered by (n, d, k), over
    0 <= d <= 2n(g-1) and 1 <= k <= n + d."""
    out = []
    for n in range(1, n_max + 1):
        for d in range(0, 2 * n * (g - 1) + 1):
            for k in range(1, n + d + 1):
                out.append(classify(g, Triple(n, d, k), c, m))
    return out


def classification_csv(rows: list[Classification]) -> str:
    """RFC-4180 CSV with a header row; the rule column holds the first piece
    of evidence matching the verdict (empty for Unknown)."""
    lines = [CSV_HEADER]
    for r in rows:
        want = {"WholeSpace": "wholespace", "NonEmpty": "nonempty", "Empty": "empty"}.get(r.verdict.value)
        rule = next((e.rule for e in r.evidence if e.kind == want), "") if want else ""
        lines.append(
            f"{r.genus},{r.triple.n},{r.triple.d},{r.triple.k},"
            f"{format_rat(r.mu)},{format_rat(r.lam)},{r.verdict.value},{rule},{r.rho}"
        )
    return "\r\n".join(lines) + "\r\n"


@dataclass
class RegionComparison:
    genus: int
    max_denominator: int
    checks_run: int
    in_bmno_not_teixidor: list[BNPoint]
    in_teixidor_not_bmno: list[BNPoint]

    def to_json_dict(self) -> dict:
        def pts(ps):
            return [[format_rat(p.mu), format_rat(p.lam)] for p in ps]
        return {
            "genus": self.genus,
            "max_denominator": self.max_denominator,
            "checks_run": self.checks_run,
            "in_bmno_not_teixidor": pts(self.in_bmno_not_teixidor[:_FAILURE_CAP]),
            "in_bmno_not_teixidor_count": len(self.in_bmno_not_teixidor),
            "in_teixidor_not_bmno": pts(self.in_teixidor_not_bmno[:_FAILURE_CAP]),
            "in_teixidor_not_bmno_count": len(self.in_teixidor_not_bmno),
        }


def compare_regions(g: int, max_den: int = 8) -> RegionComparison:
    """Symmetric difference of the assembled and parallelogram regions.

    Memberships are compared in the boundary-inclusive (semistable) regime:
    the comparison is between the region polygons, so the isolated stable-mode
    corner exclusions do not generate spurious differences.
    """
    _check_max_den(max_den)
    f = bmno_boundary(g)
    t = teixidor_boundary(g)
    only_b: list[BNPoint] = []
    only_t: list[BNPoint] = []
    checks = 0
    for mu in rationals_between(0, 2 * g - 2, max_den):
        for lam in sorted({f(mu), t(mu)}):
            if lam <= 0:
                continue
            p = BNPoint(mu, lam)
            checks += 1
            in_b = in_bmno(g, p, BmnoMode.SEMISTABLE)
            in_t = in_teixidor(g, p, Stability.SEMISTABLE)
            if in_b and not in_t:
                only_b.append(p)
            elif in_t and not in_b:
                only_t.append(p)
    return RegionComparison(g, max_den, checks, only_b, only_t)
