"""Verification sweeps: small-scale runs, determinism, tables, comparisons."""
import itertools
import json
import math
from fractions import Fraction

import pytest

from bnlocus.oracle import CurveClass, Verdict
from bnlocus.sweep import (
    CSV_HEADER,
    _scaled_grid,
    classification_csv,
    compare_regions,
    enumerate_classifications,
    rationals_between,
    verify_inclusions,
    verify_oracle,
    verify_prop_4_11,
    verify_sigma,
    verify_teixidor_gap,
)

F = Fraction


def test_rationals_between():
    xs = rationals_between(0, 1, 3)
    assert xs == [F(1, 3), F(1, 2), F(2, 3)]
    xs = rationals_between(0, 1, 3, include_lo=True, include_hi=True)
    assert xs[0] == 0 and xs[-1] == 1
    assert rationals_between(F(1, 2), F(1, 2), 4) == []


def test_scaled_grid_matches_rationals_between():
    """The sweeps' integer slope grid is the rational grid scaled by D, and it
    raises when a denominator up to max_den does not divide D, so that a
    sample off the grid raises rather than being rounded."""
    D = 2 * math.lcm(*range(1, 13))
    for lo in range(0, 6):
        for hi in range(lo + 1, 7):
            for max_den in range(1, 13):
                for flags in itertools.product((False, True), repeat=2):
                    want = [x * D for x in rationals_between(lo, hi, max_den, *flags)]
                    assert _scaled_grid(lo, hi, max_den, D, *flags) == want, (lo, hi, max_den, flags)
    for D in range(1, 61):
        for max_den in range(1, 13):
            if all(D % q == 0 for q in range(1, max_den + 1)):
                assert _scaled_grid(0, 1, max_den, D) == [x * D for x in rationals_between(0, 1, max_den)]
            else:
                with pytest.raises(ValueError):
                    _scaled_grid(0, 1, max_den, D)


def test_prop_boundary_gap_small():
    rep = verify_prop_4_11(3, 8)
    assert rep.passed and rep.checks_run > 0


def test_teixidor_gap_small():
    rep = verify_teixidor_gap(3, 8)
    assert rep.passed
    # one check per piece, plus the shape checks; no parameter in the report
    assert rep.to_json_dict() == {"suite": "boundary_gap_t", "genus_lo": 3, "genus_hi": 8,
                                  "checks_run": 102, "failure_count": 0, "failures": []}


def test_inclusions_small():
    rep = verify_inclusions(4, 8, 6)
    assert rep.passed
    # the report of the Fraction-based sweep, before it ran on the integer kernel
    assert rep.to_json_dict() == {"suite": "inclusions", "genus_lo": 4, "genus_hi": 8, "max_denominator": 6,
                                  "checks_run": 26668, "failure_count": 0, "failures": []}


def test_sigma_small():
    rep = verify_sigma(4, 6, 5)
    assert rep.passed
    # the report of the Fraction-based sweep, before it ran on the integer kernel
    assert rep.to_json_dict() == {"suite": "sigma", "genus_lo": 4, "genus_hi": 6, "max_denominator": 5,
                                  "checks_run": 32726, "failure_count": 0, "failures": []}


def test_oracle_sweep_small():
    rep = verify_oracle(4, 3)
    assert rep.passed
    part = verify_oracle(4, 3, g_lo=3)
    assert (part.genus_lo, part.genus_hi) == (3, 4) and 0 < part.checks_run < rep.checks_run


@pytest.mark.parametrize("call", [
    lambda: verify_prop_4_11(4, 3),
    lambda: verify_teixidor_gap(2, 4),
    lambda: verify_inclusions(4, 4, -3),
    lambda: verify_sigma(4, 4, 0),
    lambda: verify_oracle(4, 0),
    lambda: verify_oracle(4, 3, g_lo=1),
    lambda: verify_oracle(4, 3, g_lo=5),
    lambda: compare_regions(4, 0),
    lambda: enumerate_classifications(4, 0),
])
def test_sweep_window_validation(call):
    with pytest.raises(ValueError):
        call()


def test_reports_are_deterministic():
    a = verify_prop_4_11(3, 6).to_json_dict()
    b = verify_prop_4_11(3, 6).to_json_dict()
    assert json.dumps(a) == json.dumps(b)


def test_enumerate_rows_and_order():
    rows = enumerate_classifications(2, 1)
    triples = [(r.triple.n, r.triple.d, r.triple.k) for r in rows]
    assert triples == sorted(triples)
    expected = sum(n + d for n in range(1, 2) for d in range(0, 2 * (2 - 1) + 1))
    assert len(rows) == expected
    # classical rank-one picture at genus 2: nonempty exactly when rho >= 0
    for r in rows:
        if r.verdict in (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE):
            assert r.rho >= 0
        if r.rho >= 0:
            assert r.verdict in (Verdict.NON_EMPTY, Verdict.WHOLE_SPACE)


def test_enumerate_example_row():
    rows = enumerate_classifications(3, 2)
    lookup = {(r.triple.n, r.triple.d, r.triple.k): r.verdict for r in rows}
    assert lookup[(2, 2, 2)] is Verdict.EMPTY
    assert lookup[(2, 4, 2)] is Verdict.NON_EMPTY


def test_csv_shape():
    rows = enumerate_classifications(2, 1)
    text = classification_csv(rows)
    lines = text.split("\r\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 2 and lines[-1] == ""
    assert lines[1].startswith("2,1,0,1,0,1,")


def test_compare_regions_witnesses():
    c10 = compare_regions(10, 8)
    assert c10.in_bmno_not_teixidor and c10.in_teixidor_not_bmno
    c12 = compare_regions(12, 8)
    assert c12.in_bmno_not_teixidor and not c12.in_teixidor_not_bmno
    c13 = compare_regions(13, 8)
    assert c13.in_bmno_not_teixidor and c13.in_teixidor_not_bmno


def test_compare_regions_denominator_one():
    # integer-coordinate witnesses are found when they exist
    c = compare_regions(10, 1)
    assert any(p.mu.denominator == 1 for p in c.in_bmno_not_teixidor)


def test_hyperelliptic_instances_in_sweep_window():
    # the settled genus-4 family, as rows of the exhaustive table
    rows = enumerate_classifications(4, 4, CurveClass.HYPERELLIPTIC)
    lookup = {(r.triple.n, r.triple.d, r.triple.k): r.verdict for r in rows}
    assert lookup[(4, 14, 8)] is Verdict.NON_EMPTY
    assert lookup[(4, 14, 9)] is Verdict.EMPTY
    assert lookup[(2, 7, 4)] is Verdict.NON_EMPTY
    assert lookup[(2, 7, 5)] is Verdict.EMPTY
    assert lookup[(4, 15, 9)] is Verdict.NON_EMPTY
