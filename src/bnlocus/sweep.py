"""Batch verification sweeps: exact per-piece checks and exhaustive rational grids.

The boundary-gap suites decide their property on each linear piece of a
boundary exactly, from the few points where the normalized count along the
piece takes its extremes, so they take no grid.  The other sweeps sample.

Everything here is deterministic: grids are enumerated by denominator,
reports are sorted canonically, and no floating point is used anywhere.
Heights are sampled per combinatorial cell: since every boundary is
piecewise linear, membership along a vertical line only changes at the
finitely many tops and integer levels, so testing those values and small
offsets around them covers every case a blind denominator grid would reach.

The duality and inclusion sweeps run in integers.  With the height offset
1/(c*g), each genus takes the common denominator D = g*lcm(1..max_den, c),
at which every sampled slope, boundary value, tile top and offset is an
integer; a sample that is not a multiple of 1/D raises.  The slopes come
from :func:`_scaled_grid`, the rational grid built directly at scale D,
which raises unless every denominator up to max_den divides D.  Every
membership test then goes through the kernel of :mod:`bnlocus.regions`,
built once per genus at scale D, and every boundary value through its
``BoundaryFn``: one body each, which the public functions run at scale 1.
The duality sweep resolves the assembled region over each slope and its
dual once per mode, as columns, and tests every sampled height against
them.  Points are turned back into Fractions only to write a failure record.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from fractions import Fraction

from .arith import (
    BNPoint,
    Stability,
    Triple,
    _slot_repr,
    check_genus,
    format_rat,
    format_ratio,
    hyper_h0_bound,
    hyper_window,
    line_degree_bound_int,
    rho_tilde,
)
from .oracle import _NONEMPTY, Classification, ContradictionError, CurveClass, Verdict, _table
from .regions import (
    BmnoMode,
    Piece,
    _IntKernel,
    bmno_boundary,
    hyper_boundary,
    in_bmno,
    in_teixidor,
    teixidor_boundary,
    u_params,
)

_FAILURE_CAP = 100


class SweepFailure(namedtuple("SweepFailure", "input expected observed")):
    """One failed check, as the text of its input, the expected and the observed value."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"input": self.input, "expected": self.expected, "observed": self.observed}


# a suite's parameter name -> its key in the report JSON and its summary label
_PARAM_LABELS = {"max_den": ("max_denominator", "den"), "n_max": ("max_rank", "rank")}


class SweepReport:
    """The outcome of one suite over a genus window; ``params`` holds the
    suite's parameter by name, if it has one, and ``failures`` the first
    ``_FAILURE_CAP`` of ``failure_count`` failures."""

    __slots__ = ("suite", "genus_lo", "genus_hi", "params", "checks_run", "failure_count", "failures")
    __repr__ = _slot_repr

    def __init__(self, suite: str, genus_lo: int, genus_hi: int, params: dict[str, int] | None = None,
                 checks_run: int = 0, failure_count: int = 0, failures: list[SweepFailure] | None = None):
        self.suite, self.genus_lo, self.genus_hi = suite, genus_lo, genus_hi
        self.params = {} if params is None else params
        self.checks_run, self.failure_count = checks_run, failure_count
        self.failures = [] if failures is None else failures

    def record(self, input_, expected, observed):
        self.failure_count += 1
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append(SweepFailure(str(input_), str(expected), str(observed)))

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "genus_lo": self.genus_lo,
            "genus_hi": self.genus_hi,
            **{_PARAM_LABELS[name][0]: v for name, v in self.params.items()},
            "checks_run": self.checks_run,
            "failure_count": self.failure_count,
            "failures": [f.to_json_dict() for f in self.failures],
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({self.failure_count} failures)"
        params = "".join(f"{_PARAM_LABELS[name][1]}<={v}, " for name, v in self.params.items())
        return f"{self.suite}: genus {self.genus_lo}..{self.genus_hi}, {params}{self.checks_run} checks: {state}"


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


def _scaled_grid(lo: int, hi: int, max_den: int, D: int,
                 include_lo: bool = False, include_hi: bool = False) -> list[int]:
    """``[x*D for x in rationals_between(lo, hi, max_den, include_lo, include_hi)]``
    for integers lo and hi, built in integers: the multiples of D/q from lo*D
    to hi*D for each q <= max_den.  Raises unless every such q divides D."""
    out = set()
    for q in range(1, max_den + 1):
        step, r = divmod(D, q)
        if r:
            raise ValueError(f"1/{q} is not a multiple of 1/{D}")
        out.update(range(lo * D if include_lo else lo * D + step, hi * D + 1 if include_hi else hi * D, step))
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


def _sweep(suite: str, g_min: int, g_lo: int, g_hi: int, *bodies, hi: str = "g_hi", **params) -> SweepReport:
    """Check the genus window and the suite's parameter, if it has one, then
    run each ``body(report, g, **params)`` over g = g_lo..g_hi in order, all
    writing into one report.  The bodies run one after another, each over the
    whole window, so the failure records come in the order the suite states them."""
    if not (g_min <= g_lo <= g_hi):
        raise ValueError(f"need {g_min} <= g_lo <= {hi}")
    for name, v in params.items():
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    rep = SweepReport(suite, g_lo, g_hi, params)
    for body in bodies:
        for g in range(g_lo, g_hi + 1):
            body(rep, g, **params)
    return rep


# ---------------------------------------------------------------------------
# suite 1: the assembled boundary stays within one of the expected-dimension curve
# ---------------------------------------------------------------------------


def _gap_failure(g: int, p: Piece) -> tuple[Fraction, Fraction] | None:
    """The first point (mu, lam) of piece p at which the boundary is not on
    or below the expected-dimension curve with boundary+1 above it, or None.

    Along lam = a*mu + c the normalized count is a quadratic in mu with
    leading coefficient a(1-a), so on the closed piece it takes its extremes
    at an end or at its vertex, and the midpoint covers a constant count.
    These few points decide the piece.  At an end the piece does not own,
    boundary+1 may touch the curve."""
    a, b = p.slope, p.intercept
    owned = {p.lo: p.include_lo, p.hi: p.include_hi, (p.lo + p.hi) / 2: True}
    if a not in (0, 1):
        for c in (b, b + 1):  # the vertices of the count at the boundary and one above it
            v = -(c * (2 * a - 1) + a * (g - 1)) / (2 * a * (a - 1))
            if p.lo < v < p.hi:
                owned[v] = True
    for mu in sorted(owned):
        lam = p.value_at(mu)
        above = rho_tilde(g, BNPoint(mu, lam + 1))
        if not ((lam <= 0 or rho_tilde(g, BNPoint(mu, lam)) >= 0) and (above < 0 if owned[mu] else above <= 0)):
            return mu, lam
    return None


def _boundary_gap(boundary, rep: SweepReport, g: int) -> None:
    for p in boundary(g).pieces:
        rep.checks_run += 1
        if failure := _gap_failure(g, p):
            mu, lam = failure
            rep.record(f"g={g} piece {format_rat(p.lo)}..{format_rat(p.hi)} mu={format_rat(mu)}",
                       "boundary on or below the curve, boundary+1 above",
                       f"value={format_rat(lam)}")


def verify_prop_4_11(g_lo: int = 3, g_hi: int = 30) -> SweepReport:
    """The assembled boundary lies on or below the expected-dimension curve,
    and less than one below it, over its whole domain: one exact check per
    piece."""
    return _sweep("boundary_gap_f", 3, g_lo, g_hi, partial(_boundary_gap, bmno_boundary))


def _teixidor_shape(rep: SweepReport, g: int) -> None:
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


def verify_teixidor_gap(g_lo: int = 3, g_hi: int = 30) -> SweepReport:
    """Same one-sided unit gap for the parallelogram boundary, plus its
    continuity and monotonicity."""
    return _sweep("boundary_gap_t", 3, g_lo, g_hi, partial(_boundary_gap, teixidor_boundary), _teixidor_shape)


# ---------------------------------------------------------------------------
# suite 2: tile inclusions
# ---------------------------------------------------------------------------


def _inclusions(rep: SweepReport, g: int, max_den: int) -> None:
    D = g * math.lcm(*range(1, max_den + 1), 8)
    k = _IntKernel(g, D)
    delta = D // (8 * g)

    def cover(dp, s, mus, tiles, levels, facts):
        """One check per point: each scaled slope in mus, at heights around the
        tiles' tops and the integer levels.  A fact (i, j, (a, h), expected,
        observed) says that a point of tiles[i] lies in tiles[j] or on the
        sliver {mu = a, 0 < lam < h}; tiles[j] is tested only at the points
        of tiles[i]."""
        for M in mus:
            for L in _lam_samples([t.top(M) for t in tiles] + [x * D for x in levels], delta):
                rep.checks_run += 1
                for i, j, sliver, expected, observed in facts:
                    if (tiles[i].contains(M, L) and not tiles[j].contains(M, L)
                            and not (sliver and M == sliver[0] * D and 0 < L < sliver[1] * D)):
                        rep.record(f"g={g} d'={dp} s={s} p={_point(M, L, D)}", expected, observed)

    # chain: shifted-BGN inside shifted-M inside next shifted-BGN
    for s in range(1, g):
        for dp in range(0, g - 2):
            cover(dp, s, _scaled_grid(dp + 1, dp + 2, max_den, D, include_hi=True),
                  [k.shifted_tile("bgn", dp + 1, s), k.shifted_tile("m", dp, s),
                   k.shifted_tile("bgn", dp + 1, s + 1)], (s, s + 1),
                  [(0, 1, None, "inner tile inside shifted-M", "outside"),
                   (1, 2, None, "shifted-M inside next tile", "outside")])

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
            cover(dp, s, _scaled_grid(d1 - 1, d1, max_den, D, include_lo=True),
                  [k.reflected_tile("m", dp, s), k.shifted_tile("bgn", d1 - 1, s1)], (s1 - 1, s1),
                  [(0, 1, (d1 - 1, s1 - 1), "reflected-M point covered", "uncovered")])

    # reflected-BGN tile lands in the next shifted-BGN tile when past the threshold
    for s in range(1, g):
        for dp in range(max(line_degree_bound_int(g, s), g - 1), s + g - 1):
            d1, s1 = u_params(g, dp, s)
            if d1 < line_degree_bound_int(g, s1 + 1):
                continue
            cover(dp, s, _scaled_grid(d1, d1 + 1, max_den, D, include_lo=True),
                  [k.reflected_tile("bgn", dp, s), k.shifted_tile("bgn", d1, s1 + 1)], (s1, s1 + 1),
                  [(0, 1, (d1, s1), "reflected-BGN point covered", "uncovered")])

    # replacement step: the last shifted-M tile of a chain sits inside the
    # reflected-BGN tile (plus a sliver) when the next threshold is hit exactly
    for s in range(1, g):
        for dp in range(max(line_degree_bound_int(g, s), g - 1), s + g - 1):
            d1, s1 = u_params(g, dp, s)
            if s1 < 1 or d1 + 1 != line_degree_bound_int(g, s1 + 1) or d1 + 1 > g - 1:
                continue
            cover(dp, s, _scaled_grid(d1, d1 + 1, max_den, D, include_hi=True),
                  [k.shifted_tile("m", d1 - 1, s1), k.reflected_tile("bgn", dp, s)], (s1 - 1, s1),
                  [(0, 1, (d1 + 1, s1), "last chain tile inside the replacement", "uncovered")])


def verify_inclusions(g_lo: int = 4, g_hi: int = 20, max_den: int = 8) -> SweepReport:
    """Tile-inclusion chain and the three reflected-tile coverage facts."""
    return _sweep("inclusions", 4, g_lo, g_hi, _inclusions, max_den=max_den)


# ---------------------------------------------------------------------------
# suite 3: duality invariance
# ---------------------------------------------------------------------------


def _sigma(rep: SweepReport, g: int, max_den: int) -> None:
    D = g * math.lcm(*range(1, max_den + 1), max(8, max_den))
    k = _IntKernel(g, D)
    f, t, h = k.f, teixidor_boundary(g), hyper_boundary(g)
    delta = D // (max(8, max_den) * g)
    modes, stabilities = list(BmnoMode), list(Stability)

    for M in _scaled_grid(0, 2 * g - 2, max_den, D):
        fv, tv, hv = f.scaled_value(M, D), t.scaled_value(M, D), h.scaled_value(M, D)
        # graph of the assembled boundary is its own reflection
        rep.checks_run += 1
        ref = f.scaled_value(2 * k.gd - M, D) + M - k.gd
        if ref != fv:
            rep.record(f"g={g} mu={format_rat(Fraction(M, D))}", "reflection-invariant boundary",
                       f"{format_rat(Fraction(fv, D))} vs {format_rat(Fraction(ref, D))}")
        top = -(-max(fv, tv, hv) // D)
        levels = [x * D for x in range(1, min(g, top + 2) + 1)]
        # each mode's region over the slope and over its dual, resolved once
        columns = [(mode, k.bmno_column(M, mode), k.bmno_column(2 * k.gd - M, mode)) for mode in modes]
        for L in _lam_samples([fv, tv, hv] + levels, delta):
            SM, SL = k.dual(M, L)
            rep.checks_run += 1
            if k.rho_tilde(M, L) != k.rho_tilde(SM, SL):
                rep.record(f"g={g} p={_point(M, L, D)}", "rho~ invariant", "differs")
            for mode, column, dual_column in columns:
                rep.checks_run += 1
                if k.in_bmno_col(column, L) != k.in_bmno_col(dual_column, SL):
                    rep.record(f"g={g} p={_point(M, L, D)} mode={mode.value}", "membership invariant", "differs")
            if SL > 0:
                for st in stabilities:
                    rep.checks_run += 1
                    if k.in_teixidor(M, L, st) != k.in_teixidor(SM, SL, st):
                        rep.record(f"g={g} p={_point(M, L, D)} {st.value}", "membership invariant", "differs")
            rep.checks_run += 1
            if k.in_bmno_h(M, L) != k.in_bmno_h(SM, SL):
                rep.record(f"g={g} p={_point(M, L, D)}", "membership invariant", "differs")


def verify_sigma(g_lo: int = 4, g_hi: int = 20, max_den: int = 8) -> SweepReport:
    """Region memberships and the normalized count agree at each point and
    its duality reflection; the assembled boundary graph is self-dual."""
    return _sweep("sigma", 3, g_lo, g_hi, _sigma, max_den=max_den)


# ---------------------------------------------------------------------------
# suite 4: oracle invariants
# ---------------------------------------------------------------------------


def _oracle(rep: SweepReport, g: int, n_max: int) -> None:
    classes = [CurveClass.ARBITRARY, CurveClass.HYPERELLIPTIC, CurveClass.GENERIC]
    if g >= 3:
        classes.append(CurveClass.NON_HYPERELLIPTIC)
    for c in classes:
        for m in Stability:
            for n, d, column, duals in _table(g, n_max, c, m):
                empty_seen = False
                for k, r, vd in zip(range(1, n + d + 1), column, duals):
                    t = Triple(n, d, k)
                    rep.checks_run += 1
                    if isinstance(r, ContradictionError):
                        rep.record(f"g={g} {t} {c.value} {m.value}", "consistent evidence", str(r))
                        continue
                    if isinstance(vd, ContradictionError):
                        raise vd
                    v = r.verdict
                    if r.nonempty() and empty_seen:
                        rep.record(f"g={g} {t} {c.value} {m.value}",
                                   "monotone in the section count", v.value)
                    if v is Verdict.EMPTY:
                        empty_seen = True
                    if Verdict.EMPTY in (v, vd) and (r.nonempty() or vd in _NONEMPTY):
                        rep.record(f"g={g} {t} {c.value} {m.value}",
                                   "duality-consistent verdicts",
                                   f"{v.value} vs dual {vd.value}")
                    if c is CurveClass.HYPERELLIPTIC and m is Stability.STABLE and r.nonempty():
                        mu = t.mu
                        s = hyper_window(mu)
                        if s <= g and mu < 2 * s:
                            if k > hyper_h0_bound(g, s, n, d):
                                rep.record(f"g={g} {t}", "below the hyperelliptic bound", v.value)
                    if m is Stability.STABLE and r.nonempty():
                        mu, lam = t.mu, t.lam
                        if 0 < mu <= 2 * g - 2 and mu < 2 * lam - 2:
                            rep.record(f"g={g} {t} {c.value}", "below the Clifford edge", v.value)


def verify_oracle(g_max: int = 6, n_max: int = 5, g_lo: int = 2) -> SweepReport:
    """No contradictions, section-count monotonicity, duality consistency,
    hyperelliptic sharpness and Clifford soundness over the full window."""
    return _sweep("oracle", 2, g_lo, g_max, _oracle, hi="g_max", n_max=n_max)


# ---------------------------------------------------------------------------
# enumeration and region comparison
# ---------------------------------------------------------------------------

CSV_HEADER = "genus,rank,degree,sections,mu,lambda,verdict,rule,rho"


def enumerate_classifications(g: int, n_max: int,
                              c: CurveClass = CurveClass.ARBITRARY,
                              m: Stability = Stability.STABLE) -> list[Classification]:
    """Deterministic table of classifications, ordered by (n, d, k), over
    0 <= d <= 2n(g-1) and 1 <= k <= n + d."""
    check_genus(g)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    out = []
    for _, _, rows, _ in _table(g, n_max, c, m):
        for r in rows:
            if isinstance(r, ContradictionError):
                raise r
            out.append(r)
    return out


# per verdict: its CSV text, and the evidence kind whose first item is the row's rule (None: no rule)
_CSV_VERDICT = {v: (v.value, kind) for v, kind in (
    (Verdict.WHOLE_SPACE, "wholespace"), (Verdict.NON_EMPTY, "nonempty"), (Verdict.EMPTY, "empty"),
    (Verdict.UNKNOWN, None))}


def classification_csv(rows: list[Classification]) -> str:
    """RFC-4180 CSV with a header row; the rule column holds the first piece
    of evidence matching the verdict (empty for Unknown).  mu, lambda and rho
    are written from the integers of each row."""
    lines = [CSV_HEADER]
    for r in rows:
        g, t = r.genus, r.triple
        n, d, k = t.n, t.d, t.k
        verdict, want = _CSV_VERDICT[r.verdict]
        rule = next((e.rule for e in r.evidence if e.kind == want), "") if want else ""
        rho = n * n * (g - 1) + 1 - k * (k - d + n * (g - 1))  # arith.rho
        lines.append(f"{g},{n},{d},{k},{format_ratio(d, n)},{format_ratio(k, n)},{verdict},{rule},{rho}")
    return "\r\n".join(lines) + "\r\n"


class RegionComparison:
    """The points of a genus's rational grid in one of the assembled and
    parallelogram regions only."""

    __slots__ = ("genus", "max_denominator", "checks_run", "in_bmno_not_teixidor", "in_teixidor_not_bmno")
    __repr__ = _slot_repr

    def __init__(self, genus: int, max_denominator: int, checks_run: int,
                 in_bmno_not_teixidor: list[BNPoint], in_teixidor_not_bmno: list[BNPoint]):
        self.genus, self.max_denominator, self.checks_run = genus, max_denominator, checks_run
        self.in_bmno_not_teixidor, self.in_teixidor_not_bmno = in_bmno_not_teixidor, in_teixidor_not_bmno

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
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")
    f = bmno_boundary(g)
    t = teixidor_boundary(g)
    only_b: list[BNPoint] = []
    only_t: list[BNPoint] = []
    checks = 0
    for mu in rationals_between(0, 2 * g - 2, max_den):
        for lam in sorted({f(mu), t(mu)}):  # both positive on (0, 2g-2)
            p = BNPoint(mu, lam)
            checks += 1
            in_b = in_bmno(g, p, BmnoMode.SEMISTABLE)
            in_t = in_teixidor(g, p, Stability.SEMISTABLE)
            if in_b and not in_t:
                only_b.append(p)
            elif in_t and not in_b:
                only_t.append(p)
    return RegionComparison(g, max_den, checks, only_b, only_t)
