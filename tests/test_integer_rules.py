"""The oracle's integer forms at scale n against scale 1, its contradiction
report, and its run-form rules against their per-k bodies.

The oracle reads a rank-n triple (n, d, k) at scale D = n, where its point
(d/n, k/n) is (d, k).  Each test it calls must answer at D = n what the
Fraction function answers on ``t.point()`` at D = 1: the Teixidor
membership, the hyperelliptic strip and the hyperelliptic slope window.
The Teixidor, strip and dichotomy rules give one run per stretch of k; they
must give, at every k, the evidence of the per-k bodies kept here.  The
twist rule walks only the blocks of k that can fire; it must give the runs
of the every-block body kept here.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlocus import oracle
from bnlocus.arith import Stability, Triple, format_rat, hyper_h0_bound, hyper_window, serre_dual_triple
from bnlocus.oracle import ContradictionError, CurveClass, Verdict, classify, classify_column
from bnlocus.regions import _IntScale, hyper_strip, in_teixidor
from bnlocus.sweep import enumerate_classifications, verify_oracle


def _teixidor_at_rank_scale(g: int, t: Triple, m: Stability) -> bool:
    """What the oracle's Teixidor rule tests: the triple's point at D = n."""
    return _IntScale(g, t.n).in_teixidor(t.d, t.k, m)


def _strip_by_loop(g: int, mu, lam, scale: int = 1):
    """The reference for ``hyper_strip``: every s = 1..g-1 in order, the
    band before its duality image."""
    D = scale
    if lam <= 0:
        return None
    for s in range(1, g):
        if (2 * s - 1) * D < mu <= 2 * s * D and lam <= s * D:
            return s, False
        if (2 * s - 2) * D <= mu < (2 * s - 1) * D and lam <= mu - (s - 1) * D:
            return s, True
    return None


def test_strip_matches_the_loop_at_fraction_points():
    # scale 1, Fraction points on both sides of every band, negative slopes included
    for g in (2, 3, 4, 7):
        for mu in (Fraction(a, q) for q in (1, 2, 3, 4) for a in range(-2 * q, 2 * g * q + 1)):
            for lam in (Fraction(b, 4) for b in range(-1, 4 * g + 2)):
                assert hyper_strip(g, mu, lam) == _strip_by_loop(g, mu, lam), (g, mu, lam)


def _check_triple(g: int, t: Triple) -> None:
    n, d, k = t.n, t.d, t.k
    assert hyper_strip(g, d, k, n) == hyper_strip(g, t.mu, t.lam), (g, t)
    assert hyper_window(d, n) == hyper_window(Fraction(d, n)), (g, t)
    if k >= 1:
        for m in Stability:
            assert _teixidor_at_rank_scale(g, t, m) == in_teixidor(g, t.point(), m), (g, t, m)


def _window(g: int, n: int):
    """The enumerate window of one rank, then the Serre dual of each triple."""
    for d in range(0, 2 * n * (g - 1) + 1):
        for k in range(1, n + d + 1):
            t = Triple(n, d, k)
            yield t
            yield serre_dual_triple(g, t)


@pytest.mark.parametrize("g", range(3, 13))
def test_integer_forms_match_fraction_reference(g):
    for n in range(1, 5):
        for t in _window(g, n):
            _check_triple(g, t)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 40), st.integers(1, 12), st.integers(-20, 800), st.integers(-5, 200))
def test_integer_forms_match_fraction_reference_random(g, n, d, k):
    _check_triple(g, Triple(n, d, k))


def test_hyper_bound_item_prints_the_fraction_bound():
    """The hyperelliptic section-bound rule writes its bound from integers;
    it must print what the Fraction bound prints."""
    fired = 0
    for g in range(2, 9):
        for n in range(1, 6):
            for d in range(0, 2 * n * g + 1):
                for _, _, e in oracle._rule_hyper_bounds(g, n, d, range(1, 2 * n * g), CurveClass.HYPERELLIPTIC,
                                                        Stability.STABLE):
                    params = dict(e.params)
                    if e.rule == "hyper_h0_bound":
                        fired += 1
                        assert params["bound"] == format_rat(hyper_h0_bound(g, params["s"], n, d)), (g, n, d)
    assert fired > 100


def test_scaled_teixidor_rejects_nonpositive_lambda():
    with pytest.raises(ValueError, match="requires lam > 0"):
        _teixidor_at_rank_scale(5, Triple(2, 3, 0), Stability.STABLE)


# ---------------------------------------------------------------------------
# the contradiction report
# ---------------------------------------------------------------------------


# pinned texts: a change to the rule engine must leave them byte-identical.
# ``where`` names the injected triples, each as "triple" or "dual", with
# ":side" when the clash is on that side of the curve dichotomy only.  The
# hyperelliptic side is read first.  A clash in the dual triple's dichotomy
# is also a clash in the triple's own dichotomy (each side's verdict at a
# triple and at its Serre dual reads the same two evidence lists), so its
# text comes from the triple's dichotomy and names the dual triple.
@pytest.mark.parametrize("where, c, expected", [
    ("triple", CurveClass.GENERIC,
     "contradictory evidence at (n=1, d=2, k=1) [generic,stable]: "
     "line_bundle_existence:nonempty; mercat_slope2:nonempty; tensor_effective:nonempty; "
     "tensor_integer_slope:nonempty; teixidor:nonempty; injected:empty; serre:nonempty"),
    ("dual", CurveClass.GENERIC,
     "contradictory evidence at (n=1, d=4, k=2) [generic,stable]: "
     "line_bundle_existence:nonempty; tensor_sections:nonempty; tensor_integer_slope:nonempty; "
     "teixidor:nonempty; injected:empty"),
    ("triple", CurveClass.ARBITRARY,
     "contradictory evidence at (n=1, d=2, k=1) [hyperelliptic,stable]: "
     "line_bundle_existence:nonempty; hyper_pencil_power:nonempty; tensor_effective:nonempty; "
     "tensor_integer_slope:nonempty; teixidor:nonempty; hyper_strip:nonempty; injected:empty; "
     "serre:nonempty"),
    ("dual", CurveClass.ARBITRARY,
     "contradictory evidence at (n=1, d=4, k=2) [hyperelliptic,stable]: "
     "line_bundle_existence:nonempty; hyper_pencil_power:nonempty; tensor_sections:nonempty; "
     "tensor_integer_slope:nonempty; teixidor:nonempty; hyper_strip:nonempty; injected:empty"),
    ("triple:nonhyperelliptic", CurveClass.ARBITRARY,
     "contradictory evidence at (n=1, d=2, k=1) [nonhyperelliptic,stable]: "
     "line_bundle_existence:nonempty; mercat_slope2:nonempty; tensor_effective:nonempty; "
     "tensor_integer_slope:nonempty; teixidor:nonempty; injected:empty; serre:nonempty"),
    ("dual:nonhyperelliptic", CurveClass.ARBITRARY,
     "contradictory evidence at (n=1, d=4, k=2) [nonhyperelliptic,stable]: "
     "line_bundle_existence:nonempty; tensor_sections:nonempty; tensor_integer_slope:nonempty; "
     "teixidor:nonempty; injected:empty"),
    ("dual:hyperelliptic", CurveClass.ARBITRARY,
     "contradictory evidence at (n=1, d=4, k=2) [hyperelliptic,stable]: "
     "line_bundle_existence:nonempty; hyper_pencil_power:nonempty; tensor_sections:nonempty; "
     "tensor_integer_slope:nonempty; teixidor:nonempty; hyper_strip:nonempty; injected:empty"),
    ("triple:nonhyperelliptic dual:hyperelliptic", CurveClass.ARBITRARY,
     "contradictory evidence at (n=1, d=4, k=2) [hyperelliptic,stable]: "
     "line_bundle_existence:nonempty; hyper_pencil_power:nonempty; tensor_sections:nonempty; "
     "tensor_integer_slope:nonempty; teixidor:nonempty; hyper_strip:nonempty; injected:empty"),
])
def test_contradiction_message(inject_empty, where, c, expected):
    """The text names the triple whose evidence clashed: the requested one,
    its Serre dual, or one side of the curve dichotomy."""
    g, t = 4, Triple(1, 2, 1)
    at = {"triple": t, "dual": serre_dual_triple(g, t)}
    for injection in where.split():
        place, _, side = injection.partition(":")
        inject_empty(at[place], only=CurveClass(side) if side else None)
    with pytest.raises(ContradictionError) as info:
        classify(g, t, c, Stability.STABLE)
    assert str(info.value) == expected


# ``only`` puts the clash on one side of an arbitrary curve's dichotomy
CLASH_CASES = pytest.mark.parametrize("c, only", [
    (CurveClass.GENERIC, None),
    (CurveClass.ARBITRARY, None),
    (CurveClass.ARBITRARY, CurveClass.HYPERELLIPTIC),
    (CurveClass.ARBITRARY, CurveClass.NON_HYPERELLIPTIC),
], ids=["CurveClass.GENERIC", "CurveClass.ARBITRARY", "hyperelliptic-side", "nonhyperelliptic-side"])


@CLASH_CASES
def test_column_reports_the_same_contradictions(inject_empty, c, only):
    """A column holds, at each k, the error classify raises there."""
    g = 4
    inject_empty(Triple(1, 2, 1), Triple(1, 4, 3), only=only)
    for d in range(0, 7):
        ks = range(-1, d + 3)
        column = [str(r) if isinstance(r, ContradictionError) else r for r in classify_column(g, 1, d, ks, c)]
        one_k = []
        for k in ks:
            try:
                one_k.append(classify(g, Triple(1, d, k), c))
            except ContradictionError as exc:
                one_k.append(str(exc))
        assert column == one_k, d


@CLASH_CASES
def test_table_reports_the_same_contradictions(inject_empty, c, only):
    """enumerate raises, and the oracle suite records, the text classify
    raises at each clashing row of the table."""
    g = 4
    inject_empty(Triple(1, 2, 1), Triple(1, 4, 3), only=only)
    texts = []  # (class, stability, triple, text) in the oracle suite's order
    for cc in (CurveClass.ARBITRARY, CurveClass.HYPERELLIPTIC, CurveClass.GENERIC, CurveClass.NON_HYPERELLIPTIC):
        for m in Stability:
            for d in range(0, 2 * (g - 1) + 1):
                for k in range(1, d + 2):
                    try:
                        classify(g, Triple(1, d, k), cc, m)
                    except ContradictionError as exc:
                        texts.append((cc, m, Triple(1, d, k), str(exc)))
    first = next(text for cc, m, _, text in texts if cc is c and m is Stability.STABLE)
    with pytest.raises(ContradictionError) as info:
        enumerate_classifications(g, 1, c)
    assert str(info.value) == first
    report = verify_oracle(g, 1, g)
    recorded = [(f.input, f.observed) for f in report.failures if f.expected == "consistent evidence"]
    assert recorded == [(f"g={g} {t} {cc.value} {m.value}", text) for cc, m, t, text in texts]


# ---------------------------------------------------------------------------
# the run-form rules against their per-k reference bodies
# ---------------------------------------------------------------------------


def _per_k_teixidor(g, n, d, ks, c, m):
    if g < 3 or d < 0:
        return []
    scale = _IntScale(g, n)
    cite = "parallelogram existence criterion (Teixidor i Bigas; refined by Mercat)"
    return [(k, k + 1, oracle._ev("teixidor", "nonempty", cite))
            for k in range(max(ks.start, 1), ks.stop) if scale.in_teixidor(d, k, m)]


def _per_k_hyper_strips(g, n, d, ks, c, m):
    """The strip tested at each k, then the rule's other items, which are
    the same in both forms."""
    if not oracle._hyper_rules_allowed(g, c) or d < 0:
        return []
    out = []
    for k in range(max(ks.start, 1), ks.stop):
        strip = hyper_strip(g, d, k, n)
        if strip is not None:
            s, dual = strip
            cite = ("duality image of the settled hyperelliptic band" if dual
                    else "settled hyperelliptic band below the integer section level")
            out.append((k, k + 1, oracle._ev("hyper_strip", "nonempty", cite, s=s)))
    return out + [run for run in oracle._rule_hyper_strips(g, n, d, ks, c, m) if run[2].rule != "hyper_strip"]


def _per_k_dichotomy(g, n, d, ks, c, m):
    if c is not CurveClass.ARBITRARY or g < 3:
        return []
    cite = "every curve is hyperelliptic or not, and both cases agree"
    out = []
    for k, hyp, non in zip(ks, oracle._serre_column(g, n, d, ks.start, ks.stop, CurveClass.HYPERELLIPTIC, m)[0],
                           oracle._serre_column(g, n, d, ks.start, ks.stop, CurveClass.NON_HYPERELLIPTIC, m)[0]):
        if type(hyp) is ContradictionError or type(non) is ContradictionError:
            out.append((k, k + 1, hyp if type(hyp) is ContradictionError else non))
        elif (hyp is Verdict.EMPTY and non is Verdict.EMPTY) or (hyp in oracle._NONEMPTY and non in oracle._NONEMPTY):
            out.append((k, k + 1, oracle._ev("curve_dichotomy", "empty" if hyp is Verdict.EMPTY else "nonempty", cite,
                                             hyperelliptic=hyp.value, non_hyperelliptic=non.value)))
    return out


_RUN_FORMS = [
    (_per_k_teixidor, oracle._rule_teixidor),
    (_per_k_hyper_strips, oracle._rule_hyper_strips),
    (_per_k_dichotomy, oracle._dichotomy_runs),
]


@pytest.mark.parametrize("g", range(2, 13))
def test_run_form_rules_give_the_per_k_evidence(g):
    """Each of the Teixidor, strip and dichotomy rules expands, through
    ``_evidence``, to the evidence its per-k body gives at every k: over
    rank <= 4, every degree of the table and one past each end, every valid
    curve class and both stabilities, on the table's range R(d) and on its
    middle third."""
    for c in CurveClass:
        if c is CurveClass.NON_HYPERELLIPTIC and g == 2:
            continue
        for m in Stability:
            for n in range(1, 5):
                for d in range(-1, 2 * n * (g - 1) + 2):
                    lo, hi = min(1, 1 + d - n * (g - 1)), max(n + d, n * g) + 1
                    third = (hi - lo) // 3
                    for ks in (range(lo, hi), range(lo + third, hi - third)):
                        for per_k, runs in _RUN_FORMS:
                            assert oracle._evidence(tuple(runs(g, n, d, ks, c, m)), ks) == \
                                oracle._evidence(tuple(per_k(g, n, d, ks, c, m)), ks), (runs.__name__, c, m, n, d, ks)


@pytest.mark.parametrize("g", range(3, 31))
def test_teixidor_and_strip_columns_are_prefixes(g):
    """What the run-form rules bisect on: at each rank n <= 8 and degree d
    from 0 to 2n past the table, the k >= 1 where the semistable Teixidor
    test holds, and those where a strip holds (with one (s, dual)), are
    1..top.  Past the ranges tested neither can hold: the Teixidor test
    fails for k >= d + n (where lam >= mu + 1 the count at the cell corner it
    reads is negative), and a strip needs k <= min(d/2 + n, (g-1)n), which
    the last k tested exceeds."""
    for n in range(1, 9):
        scale = _IntScale(g, n)
        for d in range(0, 2 * n * (g - 1) + 2 * n + 1):
            held = [k for k in range(1, d + n + 1) if scale.in_teixidor(d, k, Stability.SEMISTABLE)]
            assert held == list(range(1, len(held) + 1)) and len(held) < d + n, (n, d)
            ks = range(1, min(d // 2 + n, (g - 1) * n) + 2)
            strips = [hyper_strip(g, d, k, n) for k in ks]
            assert strips == [_strip_by_loop(g, d, k, n) for k in ks], (n, d)
            top = strips.index(None)
            assert len(set(strips[:top])) <= 1 and not any(strips[top:]), (n, d)


# ---------------------------------------------------------------------------
# the twist rule against its every-block body
# ---------------------------------------------------------------------------


def _shifts_by_loop(n: int, d: int):
    """The reference for ``_shift_candidates``: each d' >= 0 up to d // n, kept
    where 0 < d - n*d' < 2n."""
    out = []
    for dp in range(max(0, -(-(d - 2 * n + 1) // n)), d // n + 1):
        rem = d - n * dp
        if 0 < rem < 2 * n:
            out.append((dp, rem))
    return out


def _tensor_by_loop(g, n, d, ks, c, m):
    """The reference for ``_rule_tensor``: every block k0 of k that meets ks,
    for each s, whether or not a shift can fire there."""
    lo, hi = max(ks.start, 1), ks.stop
    if d < 0 or lo >= hi:
        return []
    semistable = m is Stability.SEMISTABLE
    shifts = []
    for dp, rem in _shifts_by_loop(n, d):
        top = oracle._bgn_top(g, n, rem)
        if rem == n >= 2 and not semistable:
            top -= 1
        shifts.append((dp, rem, top))
    out = []
    for s, line_bound, threshold in oracle._tensor_thresholds(g, oracle._hyper_rules_allowed(g, c)):
        if threshold > d // n:
            break
        for k0 in range(-(-lo // s), -(-(hi - 1) // s) + 1):
            first, stop = (k0 - 1) * s + 1, k0 * s + 1
            for dp, rem, top in shifts:
                if dp >= threshold and k0 <= top:
                    cite = "twist by an effective line bundle" if s == 1 else \
                        "twist by a line bundle with s independent sections"
                    if dp < line_bound:
                        cite += " (hyperelliptic pencil powers lower the degree threshold)"
                    out.append((first, stop, oracle._ev("tensor_effective" if s == 1 else "tensor_sections",
                                                        "nonempty", cite, d_shift=dp, remainder=rem, s=s, k0=k0)))
                    if rem == n:
                        out.append((first, stop, oracle._ev("tensor_integer_slope", "nonempty",
                                                            "integer-slope specialization of the twisting criterion",
                                                            d_shift=dp, s=s, k0=k0)))
                    break
            if semistable and d % n == 0 and k0 <= n:
                out.append((first, stop, oracle._ev("tensor_sections_semistable", "nonempty",
                                                    "semistable extension of the twisting criterion to zero remainder",
                                                    d_shift=d // n, remainder=0, s=s, k0=k0)))
    return out


def test_shift_candidates_match_the_loop():
    for n in range(1, 9):
        for d in range(-2 * n, 24 * n + 1):
            assert oracle._shift_candidates(n, d) == _shifts_by_loop(n, d), (n, d)


@pytest.mark.parametrize("g", range(2, 13))
def test_tensor_rule_walks_only_the_blocks_that_fire(g):
    """The twist rule gives the runs of its every-block body, in the same
    order: over rank <= 5, every degree of the table and two past its end,
    every valid curve class and both stabilities, on the table's range R(d)
    and on the one-k ranges at its first, middle and last k."""
    for c in CurveClass:
        if c is CurveClass.NON_HYPERELLIPTIC and g == 2:
            continue
        for m in Stability:
            for n in range(1, 6):
                for d in range(0, 2 * n * (g - 1) + 3):
                    lo, hi = min(1, 1 + d - n * (g - 1)), max(n + d, n * g) + 1
                    for ks in [range(lo, hi)] + [range(k, k + 1) for k in (lo, (lo + hi) // 2, hi - 1)]:
                        assert oracle._rule_tensor(g, n, d, ks, c, m) == _tensor_by_loop(g, n, d, ks, c, m), \
                            (c, m, n, d, ks)
