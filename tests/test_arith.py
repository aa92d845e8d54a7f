"""Exact-arithmetic core: worked examples and algebraic properties."""
import math
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlocus.arith import (
    BNPoint,
    Triple,
    bn_curve,
    bn_curve_gap_cmp,
    check_int,
    format_rat,
    format_ratio,
    hyper_h0_bound,
    hyper_window,
    line_degree_bound,
    line_degree_bound_int,
    line_degree_bound_strict,
    parse_rat,
    point,
    rho,
    rho_tilde,
    serre_dual_point,
    serre_dual_triple,
)

genera = st.integers(min_value=2, max_value=40)
small_rat = st.fractions(min_value=-30, max_value=60, max_denominator=16)


def test_rho_examples():
    assert rho(2, Triple(1, 1, 1)) == 1
    assert rho(5, Triple(2, 7, 0)) == 17
    assert rho(10, Triple(1, 9, 3)) == 1


def test_rho_tilde_examples():
    for g in (2, 3, 10, 17):
        assert rho_tilde(g, point(1, 1)) == 0
        assert rho_tilde(g, point(Fraction(7, 3), 0)) == g - 1
    assert rho_tilde(10, point(6, Fraction(3, 2))) == Fraction(9, 4)


def test_serre_dual_point_examples():
    for g in (2, 5, 11):
        assert serre_dual_point(g, point(0, 1)) == point(2 * g - 2, g)
        lam = Fraction(7, 5)
        assert serre_dual_point(g, point(g - 1, lam)) == point(g - 1, lam)


def test_serre_dual_triple_examples():
    assert serre_dual_triple(3, Triple(1, 0, 1)) == Triple(1, 4, 3)
    assert serre_dual_triple(10, Triple(2, 13, 3)) == Triple(2, 23, 8)


def test_line_degree_bounds():
    assert line_degree_bound(7, 1) == 0
    assert line_degree_bound(10, 2) == 6
    assert line_degree_bound(13, 3) == Fraction(32, 3)
    assert line_degree_bound_int(10, 2) == 6
    assert line_degree_bound_int(13, 3) == 11
    for g in (3, 5, 12):
        assert line_degree_bound_int(g, g) == 2 * g - 2
    assert line_degree_bound_strict(10, 2) == 6
    assert line_degree_bound_strict(13, 3) == 10
    for g in (2, 9, 21):
        assert line_degree_bound_strict(g, 1) == 0


def test_line_degree_bound_rejects_bad_s():
    with pytest.raises(ValueError):
        line_degree_bound(5, 0)
    with pytest.raises(ValueError):
        line_degree_bound_int(5, -1)
    with pytest.raises(ValueError):
        line_degree_bound_strict(5, 0)


def test_integer_bounds_match_fraction_forms():
    for g in range(2, 81):
        for s in range(1, g + 3):
            bound = line_degree_bound(g, s)
            assert line_degree_bound_int(g, s) == math.ceil(bound)
            assert line_degree_bound_strict(g, s) == math.ceil(bound + Fraction(1, s)) - 1


def test_hyper_h0_bound_examples():
    assert hyper_h0_bound(4, 0, 3, 7) == 0
    assert hyper_h0_bound(4, 2, 4, 14) == 9
    lhs = 2 * hyper_h0_bound(4, 1, 2, 3)
    rhs = hyper_h0_bound(4, 0, 2, -1) + hyper_h0_bound(4, 2, 2, 7)
    assert lhs == rhs == Fraction(9, 2)
    with pytest.raises(ValueError):
        hyper_h0_bound(4, -1, 2, 3)


def test_bn_curve_examples():
    assert bn_curve(10, 9).compare(3) == 0
    assert abs(bn_curve(10, 6).approx - (math.sqrt(45) - 3) / 2) < 1e-12
    for mu in (0, Fraction(13, 2), 17):
        assert bn_curve(10, mu).compare(0) == -1


def test_parse_and_format():
    assert parse_rat("3/2") == Fraction(3, 2)
    assert parse_rat("-7") == Fraction(-7)
    assert parse_rat(" 6/4 ") == Fraction(3, 2)
    assert format_rat(Fraction(6, 4)) == "3/2"
    assert format_rat(Fraction(8, 2)) == "4"
    for bad in ("1.5", "3 / 4", "x", "1/0"):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_integer_ratio_prints_as_format_rat():
    for n in range(1, 13):
        for a in range(-3 * n, 5 * n + 1):
            assert format_ratio(a, n) == format_rat(Fraction(a, n)), (a, n)


def test_triple_validation():
    with pytest.raises(ValueError):
        Triple(0, 1, 1)
    with pytest.raises(TypeError):
        Triple(1, Fraction(1, 2), 1)


def test_check_int_rejects_bool_and_accepts_int_subclasses():
    """The exact-int fast path changes nothing: a bool is still rejected,
    and an int subclass such as an IntEnum still passes."""
    Rank = IntEnum("Rank", {"TWO": 2})
    check_int("n", Rank.TWO)
    assert Triple(Rank.TWO, 3, 1).n == 2
    for bad in (True, False, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError, match="n must be an integer"):
            check_int("n", bad)
    with pytest.raises(TypeError):
        Triple(1, True, 1)


@given(genera, small_rat, small_rat)
def test_duality_involution(g, mu, lam):
    p = BNPoint(mu, lam)
    assert serre_dual_point(g, serre_dual_point(g, p)) == p


@given(genera, small_rat, small_rat)
def test_rho_tilde_duality_invariant(g, mu, lam):
    p = BNPoint(mu, lam)
    assert rho_tilde(g, p) == rho_tilde(g, serre_dual_point(g, p))


@given(genera, st.integers(1, 8), st.integers(-40, 80), st.integers(-10, 40))
def test_rho_tilde_matches_rho(g, n, d, k):
    t = Triple(n, d, k)
    assert rho_tilde(g, t.point()) * n * n == rho(g, t) - 1


@given(genera, st.integers(1, 8), st.integers(-40, 80), st.integers(-10, 40))
def test_serre_triple_consistent_with_point(g, n, d, k):
    t = Triple(n, d, k)
    dual = serre_dual_triple(g, t)
    assert serre_dual_triple(g, dual) == t
    assert dual.point() == serre_dual_point(g, t.point())


@given(genera, st.integers(0, 10), st.integers(1, 6), st.integers(-30, 60))
def test_hyper_bound_recurrence(g, s, n, d):
    lhs = 2 * hyper_h0_bound(g, s + 1, n, d)
    rhs = hyper_h0_bound(g, s, n, d - 2 * n) + hyper_h0_bound(g, s + 2, n, d + 2 * n)
    assert lhs == rhs


@given(st.fractions(min_value=0, max_value=200, max_denominator=64))
def test_hyper_window_holds_slope(mu):
    s = hyper_window(mu)
    assert 2 * s - 2 < mu <= 2 * s


@given(genera)
def test_line_degree_bound_monotone(g):
    for s in range(1, g):
        assert line_degree_bound(g, s + 1) > line_degree_bound(g, s)
    assert line_degree_bound(g, g) == 2 * g - 2


@given(genera, st.integers(1, 12), st.integers(-5, 90))
def test_strict_threshold_characterization(g, s, dprime):
    crosses = rho_tilde(g, BNPoint(dprime + 1, s)) >= 0
    assert (dprime >= line_degree_bound_strict(g, s)) == crosses


@given(genera, st.integers(1, 12))
def test_strict_vs_plain_threshold(g, s):
    plain = line_degree_bound_int(g, s)
    strict = line_degree_bound_strict(g, s)
    if line_degree_bound(g, s) == plain:
        assert strict == plain
    else:
        assert strict == plain - 1


@given(genera, small_rat, st.fractions(min_value=-4, max_value=4, max_denominator=8),
       small_rat, st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_curve_gap_cmp_matches_float(g, mu1, r1, mu2, r2):
    exact = bn_curve_gap_cmp(g, mu1, r1, mu2, r2)
    approx = (bn_curve(g, mu1).approx + float(r1)) - (bn_curve(g, mu2).approx + float(r2))
    if abs(approx) > 1e-7:
        assert exact == (1 if approx > 0 else -1)
