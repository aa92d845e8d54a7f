"""Classification engine: rule triggers, verdicts, evidence, annotations."""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlocus import cli, oracle, regions
from bnlocus.arith import Stability, Triple, serre_dual_triple
from bnlocus.oracle import (
    Classification,
    ContradictionError,
    CurveClass,
    Verdict,
    annotate_geometry,
    classify,
    classify_column,
    h0_max,
)
from bnlocus.sweep import enumerate_classifications

ARB = CurveClass.ARBITRARY
HYP = CurveClass.HYPERELLIPTIC
NH = CurveClass.NON_HYPERELLIPTIC
GEN = CurveClass.GENERIC
ST = Stability.STABLE
SS = Stability.SEMISTABLE


def rules(r: Classification, kind=None):
    return [e.rule for e in r.evidence if kind is None or e.kind == kind]


def test_classify_spec_examples():
    r = classify(2, Triple(2, 2, 1))
    assert r.verdict is Verdict.NON_EMPTY and "bgn" in rules(r, "nonempty")

    r = classify(3, Triple(2, 2, 2))
    assert r.verdict is Verdict.EMPTY and "bgn" in rules(r, "empty")

    r = classify(5, Triple(1, 8, 1))
    assert r.verdict is Verdict.WHOLE_SPACE and "riemann_roch" in rules(r)


def test_trivial_rule():
    assert classify(4, Triple(3, 5, 0)).verdict is Verdict.WHOLE_SPACE
    assert classify(4, Triple(3, -2, 1)).verdict is Verdict.EMPTY
    assert classify(4, Triple(3, -2, -1)).verdict is Verdict.WHOLE_SPACE


def test_clifford_and_high_slope():
    r = classify(3, Triple(1, 2, 3))
    assert r.verdict is Verdict.EMPTY and "clifford" in rules(r, "empty")
    # above slope 2g-2 everything is decided by chi
    assert classify(3, Triple(2, 10, 4)).verdict is Verdict.WHOLE_SPACE
    r = classify(3, Triple(2, 10, 7))
    assert r.verdict is Verdict.EMPTY and "high_slope" in rules(r, "empty")


def test_edges_stable():
    assert classify(4, Triple(1, 0, 1)).verdict is Verdict.NON_EMPTY
    assert classify(4, Triple(2, 0, 1)).verdict is Verdict.EMPTY
    assert classify(4, Triple(1, 6, 4)).verdict is Verdict.NON_EMPTY   # canonical bundle
    assert classify(4, Triple(1, 6, 5)).verdict is Verdict.EMPTY
    assert classify(4, Triple(2, 12, 7)).verdict is Verdict.EMPTY


def test_edges_semistable():
    assert classify(4, Triple(3, 0, 3), ARB, SS).verdict is Verdict.NON_EMPTY
    assert classify(4, Triple(3, 0, 4), ARB, SS).verdict is Verdict.EMPTY
    assert classify(4, Triple(2, 12, 8), ARB, SS).verdict is Verdict.NON_EMPTY
    assert classify(4, Triple(2, 12, 9), ARB, SS).verdict is Verdict.EMPTY


def test_re_bound_nonhyperelliptic_only():
    # slope 2, lam = 2: strictly above Re's line but on the Clifford edge
    t = Triple(2, 4, 4)
    assert "re_bound" in rules(classify(4, t, NH), "empty")
    assert "re_bound" not in rules(classify(4, t, ARB))
    with pytest.raises(ValueError):
        classify(2, Triple(1, 1, 1), NH)


def test_line_bundles():
    assert classify(10, Triple(1, 9, 3)).verdict is Verdict.NON_EMPTY   # rho = 1
    r = classify(10, Triple(1, 8, 3), GEN)
    assert r.verdict is Verdict.EMPTY and "line_bundle_generic" in rules(r, "empty")
    assert classify(10, Triple(1, 8, 3), ARB).verdict is Verdict.UNKNOWN
    assert classify(10, Triple(1, 8, 5), HYP).verdict is Verdict.NON_EMPTY  # pencil powers


def _line_bundle_verdict(g: int, d: int, k: int, c: CurveClass) -> Verdict:
    """The rank-one verdict from classical line-bundle theory, written without
    the oracle: the first of these rules that applies.  Rank one has no
    strictly semistable bundles, so it holds for both stabilities."""
    if k <= d - g + 1:  # Riemann-Roch: every line bundle has h0 >= d - g + 1
        return Verdict.WHOLE_SPACE
    if d > 2 * g - 2 or 2 * (k - 1) > d:  # h0 = d - g + 1 exactly above 2g - 2; Clifford
        return Verdict.EMPTY
    if c is HYP or g == 2:  # r times the g^1_2 plus d - 2r base points, r = k - 1 <= d/2
        return Verdict.NON_EMPTY
    if g - k * (k - d + g - 1) >= 0:  # rho >= 0: Kempf, Kleiman-Laksov (Acta Math. 132, 1974)
        return Verdict.NON_EMPTY
    if c is GEN:  # rho < 0 on a generic curve: Griffiths-Harris (Duke Math. J. 47, 1980)
        return Verdict.EMPTY
    if c is NH and 0 < d < 2 * g - 2 and 2 * (k - 1) == d:  # strict Clifford
        return Verdict.EMPTY
    return Verdict.UNKNOWN


def test_rank_one_matches_line_bundle_theory():
    # every rank-one triple with g = 2..15, d = 0..2g, k = 1..d+1, in each
    # class and stability; Unknown only where the answer depends on the curve
    unknown = Counter()
    for g in range(2, 16):
        for c in (CurveClass if g >= 3 else (ARB, GEN, HYP)):
            for d in range(2 * g + 1):
                for k in range(1, d + 2):
                    expected = _line_bundle_verdict(g, d, k, c)
                    for m in Stability:
                        assert classify(g, Triple(1, d, k), c, m).verdict is expected, (g, d, k, c, m)
                    unknown[c] += expected is Verdict.UNKNOWN
    assert unknown[GEN] == unknown[HYP] == 0 and unknown[ARB] and unknown[NH], unknown


def test_bgn_iff_and_corner():
    assert classify(2, Triple(1, 1, 1)).verdict is Verdict.NON_EMPTY    # rank-one corner
    assert classify(5, Triple(3, 2, 3)).verdict is Verdict.EMPTY        # bound fails
    assert classify(5, Triple(3, 3, 3), ARB, SS).verdict is Verdict.NON_EMPTY  # corner, semistable
    assert classify(5, Triple(3, 3, 3)).verdict is Verdict.EMPTY


def test_mercat_iff():
    assert classify(3, Triple(2, 3, 2)).verdict is Verdict.NON_EMPTY
    assert classify(3, Triple(2, 3, 3)).verdict is Verdict.EMPTY
    # slope-2 extension only on non-hyperelliptic curves
    assert classify(10, Triple(10, 20, 11)).verdict is Verdict.UNKNOWN
    assert classify(10, Triple(10, 20, 11), NH).verdict is Verdict.NON_EMPTY


def test_tensor_rules():
    r = classify(4, Triple(3, 8, 2))
    assert r.verdict is Verdict.NON_EMPTY and "tensor_effective" in rules(r, "nonempty")
    # twisting with sections: genus 10, rank 2, degree 13 = 2*6 + 1, s = 2
    r = classify(10, Triple(2, 13, 2))
    assert "tensor_sections" in rules(r, "nonempty")
    # integer-slope specialization is tagged
    r = classify(5, Triple(4, 8, 3))
    assert "tensor_integer_slope" in rules(r, "nonempty")


def test_tensor_semistable_zero_remainder():
    r = classify(4, Triple(3, 12, 6), HYP, SS)
    assert r.verdict is Verdict.NON_EMPTY
    assert "tensor_sections_semistable" in rules(r, "nonempty")


def test_fractional_fill():
    r = classify(10, Triple(3, 25, 6))   # mu = 25/3 > threshold(2)+1, lam = 2
    assert r.verdict is Verdict.NON_EMPTY
    assert "fractional_slope_fill" in rules(r, "nonempty")


def test_teixidor_rule():
    r = classify(10, Triple(2, 13, 3))
    assert r.verdict is Verdict.NON_EMPTY and "teixidor" in rules(r, "nonempty")


def test_serre_rule():
    # dual of a low-slope emptiness: genus 3, (2,6,5) duals to (2,2,3)
    r = classify(3, Triple(2, 6, 5))
    assert r.verdict is Verdict.EMPTY and "serre" in rules(r, "empty")
    dual = serre_dual_triple(3, Triple(2, 6, 5))
    assert classify(3, dual).verdict is Verdict.EMPTY


def test_hyperelliptic_bounds():
    assert classify(4, Triple(2, 7, 5), HYP).verdict is Verdict.EMPTY
    assert classify(4, Triple(2, 7, 4), HYP).verdict is Verdict.NON_EMPTY
    # even slope: at most sn sections away from the pencil power
    assert classify(4, Triple(2, 8, 5), HYP).verdict is Verdict.EMPTY
    assert classify(4, Triple(2, 8, 4), HYP).verdict is Verdict.NON_EMPTY
    for s in (1, 2, 3):
        r = classify(4, Triple(1, 2 * s, s + 1), HYP)
        assert r.verdict is Verdict.NON_EMPTY and "hyper_power_point" in rules(r, "nonempty")
    assert classify(4, Triple(1, 2, 3), HYP).verdict is Verdict.EMPTY


def test_hyperelliptic_odd_slope_corner():
    # (2s-1, s) carries stable bundles only at rank one
    assert classify(4, Triple(1, 3, 2), HYP).verdict is Verdict.NON_EMPTY
    r = classify(4, Triple(2, 6, 4), HYP)
    assert r.verdict is Verdict.EMPTY and "hyper_odd_point" in rules(r, "empty")
    assert classify(4, Triple(2, 6, 4), HYP, SS).verdict is Verdict.NON_EMPTY
    # one section less is always attainable
    r = classify(4, Triple(2, 6, 3), HYP)
    assert r.verdict is Verdict.NON_EMPTY and "hyper_near_max" in rules(r, "nonempty")


def test_hyperelliptic_semistable_segment():
    r = classify(4, Triple(2, 8, 6), HYP, SS)
    assert r.verdict is Verdict.NON_EMPTY
    assert "hyper_semistable_segment" in rules(r, "nonempty")
    assert classify(4, Triple(2, 8, 7), HYP, SS).verdict is Verdict.EMPTY


def test_hyper_gap_and_attained():
    assert classify(4, Triple(4, 14, 9), HYP).verdict is Verdict.EMPTY
    assert classify(4, Triple(4, 14, 8), HYP).verdict is Verdict.NON_EMPTY
    r = classify(4, Triple(4, 15, 9), HYP)
    assert r.verdict is Verdict.NON_EMPTY and "hyper_gap_attained" in rules(r, "nonempty")


def test_known_point_genus3():
    r = classify(3, Triple(2, 4, 3), NH)
    assert r.verdict is Verdict.NON_EMPTY and "known_point" in rules(r, "nonempty")
    assert classify(3, Triple(2, 4, 3), GEN).verdict is Verdict.NON_EMPTY
    # for an arbitrary curve the verdict is honestly undetermined: it exists
    # exactly when the curve is not hyperelliptic
    assert classify(3, Triple(2, 4, 3), ARB).verdict is Verdict.UNKNOWN
    assert classify(3, Triple(2, 4, 3), HYP).verdict is Verdict.EMPTY


def test_curve_dichotomy():
    r = classify(3, Triple(3, 6, 5), ARB)
    assert r.verdict is Verdict.EMPTY and "curve_dichotomy" in rules(r, "empty")
    # the rank-one two-section problem at slope 2 depends on the curve
    assert classify(3, Triple(1, 2, 2), ARB).verdict is Verdict.UNKNOWN
    assert classify(3, Triple(1, 2, 2), HYP).verdict is Verdict.NON_EMPTY
    assert classify(3, Triple(1, 2, 2), NH).verdict is Verdict.EMPTY


def test_unknown_records_attempts():
    r = classify(3, Triple(3, 6, 4), ARB)
    assert r.verdict is Verdict.UNKNOWN
    assert "teixidor" in r.rules_attempted and not r.evidence


def test_genus2_is_hyperelliptic():
    # the pencil-power point works without asking for the hyperelliptic class
    assert classify(2, Triple(1, 2, 2), ARB).verdict is Verdict.NON_EMPTY
    assert classify(2, Triple(1, 1, 2), ARB).verdict is Verdict.EMPTY


def test_twist_keeps_nonemptiness():
    # twisting by an effective line bundle of degree d' keeps (semi)stability
    # and the sections, so (n, d, k) nonempty forces (n, d + n*d', k) nonempty
    for g in range(2, 6):
        classes = [ARB, HYP, GEN] + ([NH] if g >= 3 else [])
        for c in classes:
            for m in (ST, SS):
                for n in range(1, 4):
                    for d in range(0, 2 * n * (g - 1) + 1):
                        for k in range(1, n + d + 1):
                            if not classify(g, Triple(n, d, k), c, m).nonempty():
                                continue
                            for dp in (1, 2):
                                shifted = Triple(n, d + n * dp, k)
                                assert classify(g, shifted, c, m).nonempty(), (g, c, m, n, d, k, dp)


def test_h0_max_examples():
    assert h0_max(4, 2, 7, HYP) == (4, "yes", "")
    bound, attained, note = h0_max(4, 4, 14, HYP)
    assert (bound, attained) == (8, "yes") and "k=9" in note
    bound, attained, note = h0_max(3, 1, 2, HYP)
    assert (bound, attained) == (2, "yes") and "pencil" in note
    assert h0_max(4, 2, -1, HYP)[0] == 0
    assert h0_max(4, 1, 20, ARB) == (20 - 3, "yes", "slope above 2g-2: h0 equals chi")
    # Mercat's genus-3 bundle lies one section above the slope-2 bound
    assert h0_max(3, 2, 4, NH) == h0_max(3, 2, 4, GEN) == (3, "yes", "")


def test_h0_max_reads_no_column_at_negative_degree():
    misses = oracle._base_column.cache_info().misses
    assert h0_max(4, 7, -1) == (0, "yes", "no sections are possible")
    assert oracle._base_column.cache_info().misses == misses


def test_h0_max_bounds_every_nonempty_triple():
    for g in range(2, 9):
        for c in [ARB, HYP, GEN] + ([NH] if g >= 3 else []):
            for n in range(1, 4):
                for d in range(0, 2 * n * (g - 1) + 1):
                    bound = h0_max(g, n, d, c)[0]
                    for k in range(bound + 1, n + d + 2):
                        assert not classify(g, Triple(n, d, k), c, ST).nonempty(), (g, c, n, d, k, bound)


def test_h0_max_bound_is_never_shown_empty():
    for g in range(2, 9):
        for c in [ARB, HYP, GEN] + ([NH] if g >= 3 else []):
            for n in range(1, 4):
                for d in range(0, 2 * n * (g - 1) + 1):
                    bound, attained, _ = h0_max(g, n, d, c)
                    assert attained in ("yes", "unknown"), (g, c, n, d)
                    if bound > 0:
                        assert classify(g, Triple(n, d, bound), c, ST).verdict is not Verdict.EMPTY, (g, c, n, d)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_h0_max_ceiling_is_safe(data):
    """Past the column h0_max reads, every stable verdict up to n + d is Empty:
    the Clifford ceiling d // 2 + n, chi above slope 2g-2, and no column at
    negative degree."""
    g = data.draw(st.integers(2, 16), label="g")
    n = data.draw(st.integers(1, 7), label="n")
    d = data.draw(st.integers(-3, 2 * n * (g - 1) + 3), label="d")
    c = data.draw(st.sampled_from([cc for cc in CurveClass if g > 2 or cc is not NH]), label="c")
    top = 0 if d < 0 else d // 2 + n if d <= (2 * g - 2) * n else d - n * (g - 1)
    for r in classify_column(g, n, d, range(top + 1, n + d + 1), c, ST):
        assert isinstance(r, Classification) and r.verdict is Verdict.EMPTY, (g, n, d, c, r)


def test_input_checks_in_order():
    """Genus, integer n, rank and curve class in that order, then integer d,
    with the messages of Triple; h0_max and classify_column share them."""
    with pytest.raises(ValueError, match="genus"):
        h0_max(1, 0, 7.0, "bogus")
    with pytest.raises(ValueError, match="rank"):
        h0_max(2, 0, 7.0, "bogus")
    with pytest.raises(ValueError, match="CurveClass"):
        h0_max(2, 1, 7.0, "bogus")
    with pytest.raises(ValueError, match="hyperelliptic"):
        h0_max(2, 1, 7.0, NH)
    with pytest.raises(TypeError, match=r"^d must be an integer, got 7\.0$"):
        h0_max(4, 2, 7.0)
    with pytest.raises(TypeError, match=r"^n must be an integer, got 2\.0$"):
        h0_max(4, 2.0, 7)
    with pytest.raises(TypeError, match=r"^n must be an integer, got True$"):
        classify_column(4, True, 2, range(1, 1))
    with pytest.raises(TypeError, match=r"^d must be an integer, got 7\.0$"):
        classify_column(4, 2, 7.0, range(1, 1))
    with pytest.raises(TypeError, match=r"^n must be an integer, got None$"):
        h0_max(4, None, 2)
    with pytest.raises(TypeError, match=r"^n must be an integer, got None$"):
        classify_column(4, None, 2, range(1, 2))


def _one_k(g, t, c, m):
    try:
        return classify(g, t, c, m)
    except ContradictionError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_matches_one_k_at_a_time(data):
    """Every block of k0 = ceil(k/s) and every clipped range end in a column
    gives what classify gives at that one k."""
    g = data.draw(st.integers(2, 14), label="g")
    n = data.draw(st.integers(1, 5), label="n")
    d = data.draw(st.integers(-3, 2 * n * (g - 1) + 3), label="d")
    start = data.draw(st.integers(-2, n + d + 3), label="start")
    ks = range(start, start + data.draw(st.integers(1, 3 * n + 5), label="length"))
    c = data.draw(st.sampled_from([cc for cc in CurveClass if g > 2 or cc is not NH]), label="c")
    m = data.draw(st.sampled_from(list(Stability)), label="m")
    column = [r if isinstance(r, Classification) else str(r) for r in classify_column(g, n, d, ks, c, m)]
    assert column == [_one_k(g, Triple(n, d, k), c, m) for k in ks]


def test_classify_column_checks_its_input():
    assert classify_column(4, 2, 3, range(2, 2)) == []
    with pytest.raises(ValueError, match="step 1"):
        classify_column(4, 2, 3, range(1, 5, 2))
    with pytest.raises(ValueError, match="rank"):
        classify_column(4, 0, 3, range(1, 3))
    with pytest.raises(ValueError, match="hyperelliptic"):
        classify_column(2, 1, 1, range(1, 3), NH)


def test_annotate_geometry():
    notes = annotate_geometry(3, Triple(2, 1, 1))
    assert any("irreducible of dimension rho=5" in n for n in notes)
    assert any("Sundaram" in n for n in notes)
    assert annotate_geometry(3, Triple(2, 5, 2)) == []
    notes = annotate_geometry(4, Triple(3, 4, 2))
    assert any("expected dimension" in n for n in notes)


def test_classification_json_key_order():
    r = classify(10, Triple(2, 13, 3))
    keys = list(r.to_json_dict())
    assert keys == ["genus", "rank", "degree", "sections", "mu", "lambda",
                    "curve_class", "stability", "verdict", "rho", "evidence", "annotations"]


def test_classification_stores_the_verdict_only():
    assert Classification._fields == (
        "genus", "triple", "curve_class", "stability", "verdict", "evidence")
    r = classify(3, Triple(3, 6, 4), ARB)
    assert r.rho == 3 and r.annotations == () and "serre" in r.rules_attempted
    assert classify(3, Triple(2, 1, 1)).rules_attempted == ()


def test_enumerate_reaches_the_rules_once_per_triple(monkeypatch):
    """A table column and its serre dual share one cache key, so every
    (class, stability, n, d, k) of the tables reaches the direct rules once."""
    seen = Counter()

    def rule(g, n, d, ks, c, m):
        seen.update((c, m, n, d, k) for k in ks)
        return []

    monkeypatch.setattr(oracle, "_DIRECT_RULES", oracle._DIRECT_RULES + (rule,))
    oracle._base_column.cache_clear()
    for c in CurveClass:
        for m in Stability:
            enumerate_classifications(6, 3, c, m)
    oracle._base_column.cache_clear()
    assert seen and max(seen.values()) == 1, [key for key, count in seen.items() if count > 1][:5]


def test_a_cached_contradiction_is_raised_as_a_new_error(inject_empty):
    """The column cache keeps the error of a contradicting triple; each
    request raises a copy of it, so no traceback grows across requests."""
    inject_empty(Triple(2, 3, 1))
    errors = []
    for _ in range(2):
        with pytest.raises(ContradictionError) as exc:
            classify(4, Triple(2, 3, 1))
        errors.append(exc.value)
    assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])


def test_unknown_evidence_kind_is_rejected(monkeypatch):
    """A misspelt kind is an error where the evidence is made, not a silent
    Unknown: the verdict reads only the three kinds."""
    for kind in ("non_empty", "Empty", "unknown", ""):
        with pytest.raises(ValueError, match="unknown evidence kind"):
            oracle._ev("typo", kind, "a kind the verdict cannot read")

    def rule(g, n, d, ks, c, m):
        return [(k, k + 1, oracle._ev("typo", "non_empty", "a misspelt kind")) for k in ks]

    monkeypatch.setattr(oracle, "_DIRECT_RULES", oracle._DIRECT_RULES + (rule,))
    oracle._base_column.cache_clear()
    try:
        with pytest.raises(ValueError, match="'non_empty'"):
            classify(4, Triple(2, 9, 5), GEN)
    finally:
        oracle._base_column.cache_clear()


def test_no_rule_gives_one_evidence_item_twice_at_one_k():
    """The contract ``oracle._evidence`` relies on, over every table column
    R(d) of genus 2..7, rank <= 3, every class and stability: the runs of
    equal evidence items never overlap."""
    columns, overlaps = 0, []
    for g in range(2, 8):
        for c in CurveClass:
            if c is NH and g == 2:
                continue
            for m in Stability:
                for n in range(1, 4):
                    for d in range(2 * n * (g - 1) + 1):
                        lo, hi = min(1, 1 + d - n * (g - 1)), max(n + d, n * g) + 1
                        spans = {}
                        for first, stop, e in oracle._base_column(g, n, d, lo, hi, c, m)[0]:
                            spans.setdefault(e, []).append((first, stop))
                        columns += 1
                        for e, runs in spans.items():
                            runs.sort()
                            overlaps += [(g, n, d, e) for a, b in zip(runs, runs[1:]) if b[0] < a[1]]
    assert (columns, overlaps) == (2130, [])


@pytest.mark.parametrize("g", range(8, 11))
def test_serre_item_names_the_dual_and_its_first_rule(g):
    """Past the goldens' genera, over the rank <= 3 table of every class and
    stability: a row has a serre item, last, exactly when its dual triple has
    evidence before its own serre step; the item is Empty when all of that
    evidence is, names the dual triple, and names the rule of the first item
    of its kind there, read from the dual column's runs."""
    for c in CurveClass:
        for m in Stability:
            for r in enumerate_classifications(g, 3, c, m):
                n, dual = r.triple.n, serre_dual_triple(g, r.triple)
                lo, hi = min(1, 1 + dual.d - n * (g - 1)), max(n + dual.d, n * g) + 1
                runs = oracle._base_column(g, n, dual.d, lo, hi, c, m)[0]
                (before,) = oracle._evidence(runs, range(dual.k, dual.k + 1))
                serre = [e for e in r.evidence if e.rule == "serre"]
                if not before:
                    assert serre == [], r
                    continue
                empty = all(e.kind == "empty" for e in before)
                first = next(e.rule for e in before if (e.kind == "empty") == empty)
                assert serre == [r.evidence[-1]] and serre[0] == (
                    "serre", "empty" if empty else "nonempty",
                    f"duality carries {'emptiness' if empty else 'nonemptiness'} across the reflection",
                    (("dual", str(dual)), ("dual_rule", first))), r


def test_serre_items_leave_the_evidence_cache_to_the_rules():
    """Serre items are built per row and never interned, so a large table
    fills the evidence cache with rule items and evicts none of them."""
    oracle._ev.cache_clear()
    oracle._base_column.cache_clear()
    enumerate_classifications(16, 4)
    info = oracle._ev.cache_info()
    assert info.misses == info.currsize < info.maxsize, info


def test_oracle_caches_are_bounded():
    """Every lru_cache of the oracle and of the command line has a maxsize."""
    for module in (oracle, cli):
        caches = {name: fn.cache_parameters()["maxsize"] for name, fn in vars(module).items()
                  if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__}
        assert caches and all(size is not None for size in caches.values()), caches


def test_region_caches_are_per_genus():
    """Every lru_cache of the regions module takes the genus alone, so that
    no input but the genus grows it."""
    caches = {name: fn for name, fn in vars(regions).items()
              if hasattr(fn, "cache_parameters") and fn.__module__ == regions.__name__}
    assert caches
    for name, fn in caches.items():
        code = fn.__wrapped__.__code__
        assert code.co_varnames[:code.co_argcount + code.co_kwonlyargcount] == ("g",), name


def test_region_soundness_sample():
    # stable nonemptiness never lands above the Clifford edge
    for g in (3, 5):
        for n in range(1, 4):
            for d in range(0, 2 * n * (g - 1) + 1):
                for k in range(1, n + d + 1):
                    r = classify(g, Triple(n, d, k))
                    if r.nonempty() and 0 < Fraction(d, n) <= 2 * g - 2:
                        assert Fraction(d, n) >= 2 * Fraction(k, n) - 2
