"""The package's records keep the fields, immutability, hashing and repr
they had as dataclasses.

The value records are ``collections.namedtuple`` subclasses; ``_IntTile``,
``SweepReport`` and ``RegionComparison`` are classes with ``__slots__``.
Each sample's repr was recorded from the dataclass form, and tuples add
nothing to it.  The five records whose constructor checks its input run the
same checks in ``_make`` and ``_replace``, as ``dataclasses.replace`` did.
"""
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bnlocus.arith import BNCurveValue, BNPoint, Stability, Triple, point
from bnlocus.oracle import Classification, CurveClass, Evidence, Verdict
from bnlocus.plotting import PlotSpec
from bnlocus.regions import BoundaryFn, Piece, PolySegment, RegionId, RegionKind, Tile, _IntTile
from bnlocus.sweep import RegionComparison, SweepFailure, SweepReport

ROOT = Path(__file__).resolve().parents[1]

_EV = (Evidence("bgn", "nonempty", "cite", (("s", 2),)),)

# type -> (fields in order, a function building one sample, the sample's repr)
RECORDS = {
    BNPoint: (("mu", "lam"), lambda: BNPoint(F(1, 2), 3),
              "BNPoint(mu=Fraction(1, 2), lam=Fraction(3, 1))"),
    Triple: (("n", "d", "k"), lambda: Triple(2, 4, 3), "Triple(n=2, d=4, k=3)"),
    BNCurveValue: (("genus", "mu", "approx"), lambda: BNCurveValue(4, F(5, 2), 1.5),
                   "BNCurveValue(genus=4, mu=Fraction(5, 2), approx=1.5)"),
    Evidence: (("rule", "kind", "citation", "params"), lambda: _EV[0],
               "Evidence(rule='bgn', kind='nonempty', citation='cite', params=(('s', 2),))"),
    Classification: (
        ("genus", "triple", "curve_class", "stability", "verdict", "evidence"),
        lambda: Classification(4, Triple(2, 3, 2), CurveClass.ARBITRARY, Stability.STABLE, Verdict.NON_EMPTY, _EV),
        "Classification(genus=4, triple=Triple(n=2, d=3, k=2), curve_class=<CurveClass.ARBITRARY: 'arbitrary'>, "
        "stability=<Stability.STABLE: 'stable'>, verdict=<Verdict.NON_EMPTY: 'NonEmpty'>, "
        "evidence=(Evidence(rule='bgn', kind='nonempty', citation='cite', params=(('s', 2),)),))"),
    Piece: (("lo", "hi", "slope", "intercept", "include_lo", "include_hi"), lambda: Piece(F(0), F(1), F(1, 4), F(1)),
            "Piece(lo=Fraction(0, 1), hi=Fraction(1, 1), slope=Fraction(1, 4), intercept=Fraction(1, 1), "
            "include_lo=False, include_hi=True)"),
    BoundaryFn: (("pieces", "domain_lo", "domain_hi"),
                 lambda: BoundaryFn((Piece(F(0), F(2), F(1, 4), F(1), False, False),), F(0), F(2)),
                 "BoundaryFn(pieces=(Piece(lo=Fraction(0, 1), hi=Fraction(2, 1), slope=Fraction(1, 4), "
                 "intercept=Fraction(1, 1), include_lo=False, include_hi=False),), domain_lo=Fraction(0, 1), "
                 "domain_hi=Fraction(2, 1))"),
    Tile: (("lo", "s", "slope", "intercept", "base", "d_shift", "mult", "reflected"),
           lambda: Tile(1, 1, F(1, 5), F(4, 5), "m", 0, 1),
           "Tile(lo=1, s=1, slope=Fraction(1, 5), intercept=Fraction(4, 5), base='m', d_shift=0, mult=1, "
           "reflected=False)"),
    RegionId: (("kind", "d_shift", "s"), lambda: RegionId(RegionKind.T_BGN, 2, 3),
               "RegionId(kind=<RegionKind.T_BGN: 'tbgn'>, d_shift=2, s=3)"),
    PolySegment: (("start", "end", "include_start", "include_end", "include_interior"),
                  lambda: PolySegment(BNPoint(0, 0), BNPoint(1, F(1, 2)), True, False),
                  "PolySegment(start=BNPoint(mu=Fraction(0, 1), lam=Fraction(0, 1)), "
                  "end=BNPoint(mu=Fraction(1, 1), lam=Fraction(1, 2)), include_start=True, include_end=False, "
                  "include_interior=True)"),
    SweepFailure: (("input", "expected", "observed"), lambda: SweepFailure("in", "exp", "obs"),
                   "SweepFailure(input='in', expected='exp', observed='obs')"),
    PlotSpec: (("genus", "regions", "show_bn_curve", "width_px", "height_px", "out_path"),
               lambda: PlotSpec(5, (RegionId(RegionKind.BMNO),)),
               "PlotSpec(genus=5, regions=(RegionId(kind=<RegionKind.BMNO: 'bmno'>, d_shift=None, s=None),), "
               "show_bn_curve=True, width_px=900, height_px=620, out_path='figure.svg')"),
    _IntTile: (("lo", "hi", "lo_in", "hi_in", "line", "corner", "sliver"),
               lambda: _IntTile(0, 3, False, True, (5, 1, 12), (3, 3), None),
               "_IntTile(lo=0, hi=3, lo_in=False, hi_in=True, line=(5, 1, 12), corner=(3, 3), sliver=None)"),
    SweepReport: (("suite", "genus_lo", "genus_hi", "params", "checks_run", "failure_count", "failures"),
                  lambda: SweepReport("sigma", 4, 6, {"max_den": 8}, 10, 1, [SweepFailure("a", "b", "c")]),
                  "SweepReport(suite='sigma', genus_lo=4, genus_hi=6, params={'max_den': 8}, checks_run=10, "
                  "failure_count=1, failures=[SweepFailure(input='a', expected='b', observed='c')])"),
    RegionComparison: (("genus", "max_denominator", "checks_run", "in_bmno_not_teixidor", "in_teixidor_not_bmno"),
                       lambda: RegionComparison(4, 8, 12, [BNPoint(1, 1)], []),
                       "RegionComparison(genus=4, max_denominator=8, checks_run=12, "
                       "in_bmno_not_teixidor=[BNPoint(mu=Fraction(1, 1), lam=Fraction(1, 1))], in_teixidor_not_bmno=[])"),
}
MUTABLE = (SweepReport, RegionComparison)
TUPLES = [cls for cls in RECORDS if issubclass(cls, tuple)]


def _fields(cls) -> tuple:
    return cls._fields if issubclass(cls, tuple) else cls.__slots__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_and_repr(cls):
    fields, build, text = RECORDS[cls]
    assert _fields(cls) == fields
    assert repr(build()) == text


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls not in MUTABLE], ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    fields, build, _ = RECORDS[cls]
    sample = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
    assert [getattr(sample, name) for name in fields] == [getattr(build(), name) for name in fields]


@pytest.mark.parametrize("cls", TUPLES, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equal(cls):
    _, build, _ = RECORDS[cls]
    a, b = build(), build()
    assert a == b and hash(a) == hash(b)


def test_records_are_tuples():
    t = Triple(2, 4, 3)
    assert t == (2, 4, 3) and list(t) == [2, 4, 3] and Triple(2, 4, 2) < t
    assert t._replace(k=4) == Triple(2, 4, 4)
    mu, lam = point("1/2", 3)
    assert (mu, lam) == (F(1, 2), F(3)) and type(mu) is F


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        Triple(0, 1, 1)
    with pytest.raises(TypeError, match="d must be an integer, got 1.5"):
        Triple(1, 1.5, 1)
    with pytest.raises(ValueError, match="pieces do not span the stated domain"):
        BoundaryFn((Piece(F(0), F(2), F(1), F(0), False, False),), F(0), F(3))
    with pytest.raises(ValueError, match="shifted regions need d_shift and s >= 1"):
        RegionId(RegionKind.T_M, 1)
    with pytest.raises(ValueError, match="viewport dimensions must be positive"):
        PlotSpec(5, width_px=0)


# the five records whose __new__ checks its input -> a sample, a bad
# _replace, a bad _make, and the error and message each must raise
_PIECE = Piece(F(0), F(2), F(1, 4), F(1), False, False)
CHECKED = {
    BNPoint: (BNPoint(1, 2), {"lam": None}, (None, 1), TypeError, "argument should be a string or a Rational"),
    Triple: (Triple(2, 4, 3), {"n": 0}, (0, 1, 1), ValueError, "rank must be >= 1, got 0"),
    BoundaryFn: (BoundaryFn((_PIECE,), F(0), F(2)), {"domain_hi": F(3)}, ((_PIECE,), F(1), F(2)), ValueError,
                 "pieces do not span the stated domain"),
    RegionId: (RegionId(RegionKind.T_M, 1, 2), {"s": 0}, (RegionKind.T_M, 1, 0), ValueError,
               "shifted regions need d_shift and s >= 1"),
    PlotSpec: (PlotSpec(5), {"width_px": 0}, (5, (), True, 900, 0, "f.svg"), ValueError,
               "viewport dimensions must be positive"),
}


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_replace_and_make_keep_the_checks(cls):
    sample, bad_fields, bad_values, error, message = CHECKED[cls]
    assert cls._make(sample) == sample and sample._replace() == sample
    with pytest.raises(error, match=message):
        sample._replace(**bad_fields)
    with pytest.raises(error, match=message):
        cls._make(bad_values)


def test_make_checks_the_field_types():
    with pytest.raises(TypeError, match="d must be an integer, got 1.5"):
        Triple._make((1, 1.5, 1))
    with pytest.raises(TypeError, match="region kind must be a RegionKind, not 'bgn'"):
        RegionId._make(("bgn", None, None))
    with pytest.raises(TypeError):
        Triple._make((1, 2, 3, 4))
    mu = BNPoint(1, 2)._replace(mu=0.5).mu
    assert mu == F(1, 2) and type(mu) is F


TRACED_POINTS = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from bnlocus import arith
t = tracer.Tracer()
tracer.install(t)
arith.point("1/2", 1)
arith.BNPoint(1, 2)
arith.serre_dual_point(4, (1, 1))  # the argument's point and the image
print(t.calls("arith.bnpoint"))
"""


def test_tracer_counts_every_point_built():
    # perfbench/tracer.py counts BNPoint builds by wrapping BNPoint.__post_init__ on the class
    proc = subprocess.run([sys.executable, "-c", TRACED_POINTS, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"
