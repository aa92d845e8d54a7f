"""Acceptance suite: every published guarantee, one pass/fail line each.

All checks are exact (no tolerances): grids are rational, verdicts and
boundary values are compared for equality, and figure fidelity is checked
on the printed six-decimal pixel grid.  Criteria with stated time budgets
assert them with a monotonic clock.

Two genus-3 inputs, (n,d,k) = (1,2,2) and (2,4,3), are pinned to Unknown
for an arbitrary curve: both loci are nonempty exactly on one side of the
hyperelliptic dichotomy (the degree-2 pencil exists only on hyperelliptic
curves; the extra slope-2 bundle only on non-hyperelliptic ones), so no
sound classifier can decide them without knowing the curve.  The
stricter claim that every slope-2 input above height 4/3 gets a definite
verdict is kept as an expected failure below.
"""
import random
import time
from fractions import Fraction

import pytest

from bnlocus.arith import (
    Stability,
    Triple,
    hyper_h0_bound,
    line_degree_bound,
    line_degree_bound_int,
    serre_dual_triple,
)
from bnlocus.cli import main as cli_main
from bnlocus.oracle import Classification, CurveClass, Verdict, classify, classify_column, h0_max
from bnlocus.plotting import PlotSpec, _Viewport, render_svg
from bnlocus.regions import bmno_boundary, parse_region_id, teixidor_boundary
from bnlocus.sweep import (
    compare_regions,
    verify_inclusions,
    verify_oracle,
    verify_prop_4_11,
    verify_sigma,
    verify_teixidor_gap,
)

F = Fraction
ARB = CurveClass.ARBITRARY
NH = CurveClass.NON_HYPERELLIPTIC
HYP = CurveClass.HYPERELLIPTIC

WS, NE, E, U = Verdict.WHOLE_SPACE, Verdict.NON_EMPTY, Verdict.EMPTY, Verdict.UNKNOWN


def report(number: int, name: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {state}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_boundary_within_one_of_curve():
    t0 = time.monotonic()
    rep = verify_prop_4_11(3, 30)
    elapsed = time.monotonic() - t0
    report(1, "assembled boundary gap in [0,1) on every piece",
           rep.passed and elapsed < 30.0,
           f"{rep.checks_run} checks in {elapsed:.1f}s")


def test_criterion_02_inclusion_chain_and_reflected_tiles():
    t0 = time.monotonic()
    rep = verify_inclusions(4, 20, 8)
    elapsed = time.monotonic() - t0
    report(2, "tile inclusion chain and reflected-tile coverage",
           rep.passed and elapsed < 60.0,
           f"{rep.checks_run} checks in {elapsed:.1f}s")


def test_criterion_03_duality_invariance():
    rep = verify_sigma(4, 20, 8)
    report(3, "membership and boundary duality invariance",
           rep.passed, f"{rep.checks_run} checks")


def _expected_genus3_arbitrary(n: int, d: int, k: int) -> Verdict:
    t = Triple(n, d, k)
    if k <= d - 2 * n:
        return WS
    if d == 0:
        return NE if (n, k) == (1, 1) else E
    mu, lam = t.mu, t.lam
    if mu == 4:
        return NE if (n, k) == (1, 3) else E
    if mu > 2:
        t = serre_dual_triple(3, t)
        n, d, k = t.n, t.d, t.k
        mu, lam = t.mu, t.lam
    if mu < 2 * lam - 2:
        return E
    if 3 * lam <= mu + 2:
        if (mu, lam) == (1, 1):
            return NE if n == 1 else E
        if mu == 2 and lam > 1:
            return U  # the undetermined slope-2 window (heights up to 4/3)
        return NE
    if mu < 2:
        return E
    # slope exactly 2, above the low-slope line
    if (n, d, k) in ((1, 2, 2), (2, 4, 3)):
        return U  # curve-dependent; see the module docstring
    return E


def _expected_genus3_nonhyper(n: int, d: int, k: int) -> Verdict:
    t = Triple(n, d, k)
    if k <= d - 2 * n:
        return WS
    if d == 0:
        return NE if (n, k) == (1, 1) else E
    mu, lam = t.mu, t.lam
    if mu == 4:
        return NE if (n, k) == (1, 3) else E
    if mu > 2:
        t = serre_dual_triple(3, t)
        n, d, k = t.n, t.d, t.k
        mu, lam = t.mu, t.lam
    if mu < 2 * lam - 2:
        return E
    if 3 * lam <= mu + 2:
        if (mu, lam) == (1, 1):
            return NE if n == 1 else E
        return NE  # the slope-2 gap closes
    return NE if (n, d, k) == (2, 4, 3) else E


def _genus3_window():
    for n in range(1, 7):
        for d in range(0, 4 * n + 1):
            for k in range(1, n + d + 1):
                yield n, d, k


def test_criterion_04_genus3_classification_table():
    t0 = time.monotonic()
    mismatches = []
    count = 0
    for n, d, k in _genus3_window():
        count += 2
        got = classify(3, Triple(n, d, k), ARB).verdict
        want = _expected_genus3_arbitrary(n, d, k)
        if got is not want:
            mismatches.append(("arbitrary", n, d, k, want.value, got.value))
        got = classify(3, Triple(n, d, k), NH).verdict
        want = _expected_genus3_nonhyper(n, d, k)
        if got is not want:
            mismatches.append(("nonhyperelliptic", n, d, k, want.value, got.value))
    elapsed = time.monotonic() - t0
    report(4, "genus-3 verdict table in both curve modes",
           not mismatches and elapsed < 5.0,
           f"{count} verdicts in {elapsed:.1f}s" + (f"; first mismatch {mismatches[0]}" if mismatches else ""))


@pytest.mark.xfail(
    strict=True,
    reason="(1,2,2) and (2,4,3) at genus 3 are nonempty precisely on one side "
           "of the hyperelliptic dichotomy, so a sound classifier must answer "
           "Unknown there; the undetermined set cannot be exactly the slope-2 "
           "window below 4/3.",
)
def test_criterion_04_literal_unknown_window():
    for n, d, k in _genus3_window():
        verdict = classify(3, Triple(n, d, k), ARB).verdict
        in_window = (d == 2 * n and n < k and 3 * k <= 4 * n)
        assert (verdict is U) == in_window


def test_criterion_05_parallelogram_boundary_gap():
    rep = verify_teixidor_gap(3, 30)
    report(5, "parallelogram boundary gap, continuity and monotonicity",
           rep.passed, f"{rep.checks_run} checks")


def test_criterion_06_oracle_consistency():
    t0 = time.monotonic()
    rep = verify_oracle(6, 5)
    elapsed = time.monotonic() - t0
    report(6, "oracle consistency over the exhaustive window",
           rep.passed and elapsed < 60.0,
           f"{rep.checks_run} checks in {elapsed:.1f}s")


def test_criterion_07_hyperelliptic_genus4_instances():
    ok = True
    details = []

    def expect(n, d, k, verdict):
        nonlocal ok
        got = classify(4, Triple(n, d, k), HYP).verdict
        if got is not verdict:
            ok = False
            details.append(f"({n},{d},{k}): {got.value} != {verdict.value}")

    expect(2, 7, 4, NE)
    expect(2, 7, 5, E)
    expect(4, 14, 8, NE)
    expect(4, 14, 9, E)
    expect(4, 15, 9, NE)
    bound, attained, _ = h0_max(4, 2, 7, HYP)
    if (bound, attained) != (4, "yes"):
        ok = False
        details.append(f"h0_max(2,7) = {(bound, attained)}")
    for s in (1, 2, 3):
        r = classify(4, Triple(1, 2 * s, s + 1), HYP)
        power_ev = [e for e in r.evidence if e.rule == "hyper_power_point"]
        if r.verdict is not NE or not power_ev or "pencil" not in power_ev[0].citation:
            ok = False
            details.append(f"pencil power s={s}")
    report(7, "settled hyperelliptic genus-4 instances", ok, "; ".join(details))


def test_criterion_08_section_bound_recurrence_fuzz():
    rng = random.Random(20260808)
    failures = 0
    for _ in range(10_000):
        g = rng.randint(2, 60)
        s = rng.randint(1, 30)
        n = rng.randint(1, 50)
        d = rng.randint(-200, 400)
        lhs = 2 * hyper_h0_bound(g, s, n, d)
        rhs = hyper_h0_bound(g, s - 1, n, d - 2 * n) + hyper_h0_bound(g, s + 1, n, d + 2 * n)
        if lhs != rhs:
            failures += 1
    report(8, "section-bound recurrence fuzz (fixed seed)", failures == 0,
           f"10000 instances, {failures} failures")


def test_criterion_09_figure_regeneration(tmp_path):
    ok = True
    details = []
    for g in (10, 12, 13):
        spec = PlotSpec(genus=g, regions=(parse_region_id("bmno"), parse_region_id("teixidor")),
                        out_path=str(tmp_path / f"fig{g}.svg"))
        first = render_svg(spec)
        second = render_svg(spec)
        if first != second:
            ok = False
            details.append(f"g={g} nondeterministic")
            continue
        code = cli_main(["plot", "--genus", str(g), "--regions", "bmno,teixidor",
                         "--out", str(tmp_path / f"cli{g}.svg")])
        cli_bytes = (tmp_path / f"cli{g}.svg").read_bytes()
        if code != 0 or cli_bytes != first.encode("utf-8"):
            ok = False
            details.append(f"g={g} cli render differs")
        vp = _Viewport(spec)
        for fn in (bmno_boundary(g), teixidor_boundary(g)):
            for piece in fn.pieces:
                for mu in (piece.lo, piece.hi):
                    lam = piece.value_at(mu)
                    hit = (f'x1="{vp.x(mu):.6f}" y1="{vp.y(lam):.6f}"' in first
                           or f'x2="{vp.x(mu):.6f}" y2="{vp.y(lam):.6f}"' in first)
                    if not hit:
                        ok = False
                        details.append(f"g={g} breakpoint ({mu},{lam}) off the pixel grid")
    report(9, "figures regenerate byte-identically through exact breakpoints",
           ok, "; ".join(details[:3]))


def test_criterion_10_region_comparison():
    ok = True
    details = []
    for g in (10, 12, 13):
        comparison = compare_regions(g, 8)
        applicable = []
        s = 2
        while line_degree_bound_int(g, s) <= g - 1:
            applicable.append(s)
            s += 1
        mismatch = any(line_degree_bound(g, s) != line_degree_bound_int(g, s) for s in applicable)
        if not comparison.in_bmno_not_teixidor:
            ok = False
            details.append(f"g={g}: no assembled-only witness")
        if mismatch != bool(comparison.in_teixidor_not_bmno):
            ok = False
            details.append(f"g={g}: parallelogram-only witnesses {'missing' if mismatch else 'unexpected'}")
    # the genus-10 mismatch comes from the three-section threshold 26/3
    if line_degree_bound(10, 3) != F(26, 3) or line_degree_bound_int(10, 3) == line_degree_bound(10, 3):
        ok = False
        details.append("genus-10 threshold arithmetic")
    report(10, "region comparison finds the predicted witnesses", ok, "; ".join(details))


def test_criterion_11_abstract_theorem():
    """The abstract word for word: B(n, d, ks) is nonempty if d = nd' + d''
    with 0 < d'' < 2n, 1 <= s <= g, d' >= (s-1)(s+g)/s, n <= d'' + (n-k)g and
    (d'', k) != (n, n), on an arbitrary curve of genus >= 2; checked for every
    class and stability at genus 2..6, rank <= 3 and d' up to 2g+1."""
    cases, misses = 0, []
    for g in range(2, 7):
        classes = [c for c in CurveClass if not (c is NH and g == 2)]
        for n in range(1, 4):
            for s in range(1, g + 1):
                for d1 in range(line_degree_bound_int(g, s), 2 * g + 2):
                    for d2 in range(1, 2 * n):
                        ks = [k for k in range(1, n + 1) if n <= d2 + (n - k) * g and (d2, k) != (n, n)]
                        for c in classes:
                            for m in Stability:
                                column = classify_column(g, n, n * d1 + d2, range(s, n * s + 1), c, m)
                                for k in ks:
                                    r = column[(k - 1) * s]  # the triple (n, d, ks)
                                    cases += 1
                                    if not (type(r) is Classification and r.nonempty()):
                                        misses.append((g, c.value, m.value, n, n * d1 + d2, k * s))
    report(11, "the abstract's nonemptiness theorem", not misses,
           f"{cases} cases, {len(misses)} misses" + (f", first {misses[:5]}" if misses else ""))
