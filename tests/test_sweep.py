"""Verification sweeps: small-scale runs, determinism, tables, comparisons."""
import json
from fractions import Fraction

import pytest

from bnlocus.arith import Stability, Triple
from bnlocus.oracle import CurveClass, Verdict, classify
from bnlocus.sweep import (
    CSV_HEADER,
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


def test_prop_boundary_gap_small():
    rep = verify_prop_4_11(3, 8, 8)
    assert rep.passed and rep.checks_run > 0


def test_teixidor_gap_small():
    rep = verify_teixidor_gap(3, 8, 8)
    assert rep.passed


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
    lambda: verify_prop_4_11(3, 4, 0),
    lambda: verify_teixidor_gap(3, 4, 0),
    lambda: verify_inclusions(4, 4, -3),
    lambda: verify_sigma(4, 4, 0),
    lambda: verify_oracle(4, 0),
    lambda: verify_oracle(4, 3, g_lo=1),
    lambda: verify_oracle(4, 3, g_lo=5),
    lambda: compare_regions(4, 0),
])
def test_sweep_window_validation(call):
    with pytest.raises(ValueError):
        call()


def test_reports_are_deterministic():
    a = verify_prop_4_11(3, 6, 6).to_json_dict()
    b = verify_prop_4_11(3, 6, 6).to_json_dict()
    assert json.dumps(a) == json.dumps(b)


def test_parallel_matches_sequential(monkeypatch):
    sequential = verify_prop_4_11(3, 8, 6).to_json_dict()
    monkeypatch.setenv("BN_LOCUS_THREADS", "3")
    parallel = verify_prop_4_11(3, 8, 6).to_json_dict()
    assert json.dumps(sequential) == json.dumps(parallel)
    monkeypatch.delenv("BN_LOCUS_THREADS")
    sequential = verify_sigma(4, 6, 4).to_json_dict()
    monkeypatch.setenv("BN_LOCUS_THREADS", "2")
    parallel = verify_sigma(4, 6, 4).to_json_dict()
    assert json.dumps(sequential) == json.dumps(parallel)


def test_threads_env_validation(monkeypatch):
    for raw in ("many", "0", "-5"):
        monkeypatch.setenv("BN_LOCUS_THREADS", raw)
        with pytest.raises(ValueError):
            verify_prop_4_11(3, 4, 4)


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
