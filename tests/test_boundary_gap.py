"""The exact per-piece test of the boundary-gap suites against the grid it replaced.

The reference is the grid body the suites ran before: every rational of
denominator at most 12 in the domain, plus every breakpoint, each checked
on the piece that owns it.  On the seesaw and parallelogram boundaries the
two must pass the same pieces; on pieces moved off the boundary, the exact
test must flag every piece the grid flags, and the point it names must be
a real failure.
"""
import random
from fractions import Fraction

import pytest

from bnlocus.arith import BNPoint, rho_tilde
from bnlocus.regions import Piece, bmno_boundary, teixidor_boundary
from bnlocus.sweep import _gap_failure, rationals_between

F = Fraction
GENERA = range(3, 31)


def _holds(g, mu, val) -> bool:
    """The grid body's check at one point."""
    below = rho_tilde(g, BNPoint(mu, val)) >= 0 if val > 0 else True
    return below and rho_tilde(g, BNPoint(mu, val + 1)) < 0


def _grid(p, max_den: int = 12) -> list:
    """The points of the grid that piece p owns: the rationals inside it and
    the ends it owns, which are breakpoints since the domain is open."""
    return (rationals_between(p.lo, p.hi, max_den)
            + [x for x, own in ((p.lo, p.include_lo), (p.hi, p.include_hi)) if own])


def _grid_flags(g, p) -> bool:
    return not all(_holds(g, mu, p.value_at(mu)) for mu in _grid(p))


@pytest.mark.parametrize("boundary", [bmno_boundary, teixidor_boundary])
def test_exact_and_grid_pass_the_same_pieces(boundary):
    pieces = [(g, p) for g in GENERA for p in boundary(g).pieces]
    # the per-piece grids make up the grid the suite ran: rationals and breakpoints, each once
    assert sum(len(_grid(p)) for _, p in pieces) == 39900
    grid = [_grid_flags(g, p) for g, p in pieces]
    assert [_gap_failure(g, p) is not None for g, p in pieces] == grid and not any(grid)


def _real_failure(g, p, mu) -> bool:
    """Whether the property fails at mu or, at an end that p does not own,
    at a point of p close to it."""
    if not {p.lo: p.include_lo, p.hi: p.include_hi}.get(mu, True):
        mu += (p.hi - p.lo) / 10**6 * (1 if mu == p.lo else -1)
    return not _holds(g, mu, p.value_at(mu))


def test_exact_flags_every_perturbed_piece_the_grid_flags():
    rng = random.Random(20261019)
    grid_only, exact_only, both = [], [], []
    for _ in range(400):
        g = rng.choice(GENERA)
        p = rng.choice(rng.choice([bmno_boundary, teixidor_boundary])(g).pieces)
        step = F(rng.choice([1, -1]), rng.choice([50, 500, 5000]))
        p = p._replace(intercept=p.intercept + step) if rng.random() < 0.5 else p._replace(slope=p.slope + step)
        exact, grid = _gap_failure(g, p), _grid_flags(g, p)
        assert exact is None or _real_failure(g, p, exact[0]), (g, p)
        if grid:
            (both if exact else grid_only).append(p)
        elif exact:
            exact_only.append(p)
    assert grid_only == [] and both and exact_only


def test_exact_reads_the_vertex_and_the_ends_each_piece_owns():
    # 1/100 above the tangent lam = mu/2 - 3/2 to the genus-10 curve at (9, 3):
    # below the curve at both ends and the midpoint, above it at the vertex
    tangent = Piece(F(8), F(12), F(1, 2), F(-149, 100))
    assert _gap_failure(10, tangent) == (9, F(301, 100))
    # boundary+1 touches the curve at (9, 3): allowed only at an end the piece does not own
    touching = Piece(F(9), F(10), F(1), F(-7))
    assert _gap_failure(10, touching) is None
    assert _gap_failure(10, touching._replace(include_lo=True)) == (9, 2)
