"""Golden digests of failing sweep reports.

Each case injects one fault into the scaled-integer kernel, the duality
anchor, the normalized count or the hyperelliptic bound, runs one suite on
a small window and hashes the report JSON: the failure count, the first 100
failure records and the number of checks.  The digests were recorded before the sweeps shared one
genus driver and one cover check, so a refactor of the sweep scaffolding
must leave every failing report byte-identical, not only the passing ones.
The sigma cases each break reflection symmetry on one side only: in the
count, the stable Teixidor holes, the pentagon's clip of the hyperelliptic
region and the hyperelliptic tiles' slivers, so a change to how sigma
evaluates its regions must meet each fault where the point test did.
"""
import hashlib
import json

import pytest

from bnlocus import sweep
from bnlocus.regions import _IntKernel, _IntScale, _IntTile

_shifted = _IntTile.shifted
_reflected = _IntTile.reflected
_kernel_rho = _IntKernel.rho_tilde
_hole = _IntScale.teixidor_hole
_pentagon = _IntScale.in_pentagon
_rho = sweep.rho_tilde
_u_params = sweep.u_params
_hyper_h0_bound = sweep.hyper_h0_bound


def _no_sliver(monkeypatch):
    # every T-image loses its sliver, so the BGN tile's right edge below s
    # is no longer inside the M tile before it
    def shifted(self, d, s):
        t = _shifted(self, d, s)
        return _IntTile(t.lo, t.hi, t.lo_in, t.hi_in, t.line, t.corner, None)
    monkeypatch.setattr(_IntTile, "shifted", shifted)


def _moved_reflection(kind: str, eighths: int):
    # the reflected tiles of one base kind, their top moved by eighths*(g-1)/8
    def fault(monkeypatch):
        def reflected(self, gd):
            t = _reflected(self, gd)
            if (t.corner is not None) != (kind == "bgn"):
                return t
            den, n, k = t.line
            return _IntTile(t.lo, t.hi, t.lo_in, t.hi_in, (den, n, k + eighths * den * gd // 8), t.corner, t.sliver)
        monkeypatch.setattr(_IntTile, "reflected", reflected)
    return fault


def _anchor_left(monkeypatch):
    # the U anchor d1 moved one to the left
    def u_params(g, dp, s):
        d1, s1 = _u_params(g, dp, s)
        return d1 - 1, s1
    monkeypatch.setattr(sweep, "u_params", u_params)


def _kernel_rho_low(monkeypatch):
    # the scaled count drops by one at integer slopes left of g-1
    monkeypatch.setattr(_IntKernel, "rho_tilde",
                        lambda self, M, L: _kernel_rho(self, M, L) - (M % self.D == 0 and M < self.gd))


def _hole_right_only(monkeypatch):
    # the stable Teixidor test removes no lattice point left of g-1
    monkeypatch.setattr(_IntScale, "teixidor_hole", lambda self, M, L: M >= self.gd and _hole(self, M, L))


def _pentagon_edge(monkeypatch):
    # the pentagon also admits its edge M = L + gd
    def in_pentagon(self, M, Ls):
        return _pentagon(self, M, Ls) | sum(1 << i for i, L in enumerate(Ls) if M == L + self.gd
                                            and M >= 2 * L - 2 * self.D and 0 <= M <= 2 * self.gd and L > 0)
    monkeypatch.setattr(_IntScale, "in_pentagon", in_pentagon)


def _no_sliver_at_two(monkeypatch):
    # the T-images with two sections lose their sliver, among them the
    # hyperelliptic tiles of the window s = 2
    def shifted(self, d, s):
        t = _shifted(self, d, s)
        return t if s != 2 else _IntTile(t.lo, t.hi, t.lo_in, t.hi_in, t.line, t.corner, None)
    monkeypatch.setattr(_IntTile, "shifted", shifted)


def _hyper_bound_low(monkeypatch):
    # the hyperelliptic section bound one too low
    monkeypatch.setattr(sweep, "hyper_h0_bound", lambda g, s, n, d: _hyper_h0_bound(g, s, n, d) - 1)


def _rho_low(monkeypatch):
    # the count drops by one at integer slopes right of g-1
    monkeypatch.setattr(sweep, "rho_tilde",
                        lambda g, p: _rho(g, p) - (p.mu.denominator == 1 and p.mu > g - 1))


# id -> (fault, suite, window, failure_count, sha256 of the report JSON)
CASES = {
    "no-sliver-inclusions": (_no_sliver, "inclusions", (4, 9, 6), 332,
        "01294cf955670a61b6462dfcd7d940af418c8acec1fcf4ac4c73f94b3496f0b2"),
    "reflected-m-up-inclusions": (_moved_reflection("m", 1), "inclusions", (4, 12, 8), 5671,
        "cf2ede5deb26f48b86d7c7ba8cf708f05cc9e4e1656778ae9bcaa281a33351fa"),
    "reflected-bgn-up-inclusions": (_moved_reflection("bgn", 1), "inclusions", (4, 9, 6), 1658,
        "1122352614081e829f5930188f1e7878a601cb121c17433942b99e8afdd0132b"),
    "reflected-bgn-down-inclusions": (_moved_reflection("bgn", -1), "inclusions", (4, 9, 6), 443,
        "a47a518d64e20e9eeba2172a03cacfda799258541afb7a4b7aa610bd07701dac"),
    "anchor-left-inclusions": (_anchor_left, "inclusions", (4, 7, 4), 90,
        "9a2708a60a76bb664a309441417544ae671112f2eb216c4f9e0c466945b5da9e"),
    "kernel-rho-sigma": (_kernel_rho_low, "sigma", (4, 6, 5), 882,
        "554445c5a1dede90119c8bdd7464d708738673f3bea85637173a0ad0846db00a"),
    "hole-right-only-sigma": (_hole_right_only, "sigma", (4, 6, 5), 6,
        "965d07e34c2be7f14fdcf64a92b04118aa2aaa6a7b4a0f733d6baa2a017e967b"),
    "pentagon-edge-sigma": (_pentagon_edge, "sigma", (4, 6, 5), 9,
        "e172400766537b798e6d80de0bc5936591512eecd8f213f0c65818fe1c67d89d"),
    "no-sliver-at-two-sigma": (_no_sliver_at_two, "sigma", (4, 6, 5), 20,
        "1a272ee4ec40c9f7d3018afad0b09dedc650ec4166117c9c279c7b0b9a2ae98a"),
    "hyper-bound-oracle": (_hyper_bound_low, "oracle", (4, 3), 40,
        "3ad9687c34ee844a8ab1dc35fc76bdc5728afc74763df18a09f4e1cce1d1df11"),
    "rho-prop411": (_rho_low, "prop411", (3, 8), 14,
        "4d57bdc6a29d9cc2a1751341b707971895c159a2ec904ada2af04b09656fd096"),
    "rho-teixidor": (_rho_low, "teixidor", (3, 8), 14,
        "75f166118551d30f6f07f5cb6da9cdf42238ead9d1ea1f8d3ed7dd41010b08fd"),
}

_SUITES = {
    "inclusions": sweep.verify_inclusions,
    "sigma": sweep.verify_sigma,
    "oracle": sweep.verify_oracle,
    "prop411": sweep.verify_prop_4_11,
    "teixidor": sweep.verify_teixidor_gap,
}


def _report(monkeypatch, name):
    fault, suite, window, _, _ = CASES[name]
    fault(monkeypatch)
    return _SUITES[suite](*window)


def _digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_json_dict()).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_report_golden(monkeypatch, name):
    rep = _report(monkeypatch, name)
    assert (rep.failure_count, _digest(rep)) == CASES[name][3:]


def test_failing_reports_reach_every_cover_fact(monkeypatch):
    texts = set()
    for name in CASES:
        if name.endswith("-inclusions"):
            with monkeypatch.context() as m:
                texts |= {f.expected for f in _report(m, name).failures}
    assert {"inner tile inside shifted-M", "reflected-M point covered", "reflected-BGN point covered",
            "last chain tile inside the replacement", "d1-1 above the threshold"} <= texts
    assert max(case[3] for case in CASES.values()) > sweep._FAILURE_CAP
