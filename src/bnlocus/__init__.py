"""Exact-arithmetic toolkit for nonemptiness of Brill-Noether loci.

The package decides, with a citable evidence trail, whether the locus of
stable (or semistable) bundles of rank n, degree d with at least k
independent sections on a genus-g curve is nonempty, empty, the whole
moduli space, or not determined by the implemented criteria.  It also
computes the exact rational regions of the slope plane bounded by the
assembled existence boundary, the Teixidor parallelogram boundary and the
hyperelliptic boundary, verifies their identities on exhaustive rational
grids, and renders deterministic SVG figures.
"""
from .arith import (
    BNCurveValue,
    BNPoint,
    Stability,
    Triple,
    bn_curve,
    bn_curve_gap_cmp,
    format_rat,
    hyper_h0_bound,
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
from .oracle import (
    Classification,
    ContradictionError,
    CurveClass,
    Evidence,
    Verdict,
    annotate_geometry,
    classify,
    classify_column,
    h0_max,
)
from .regions import (
    BmnoMode,
    BoundaryFn,
    RegionId,
    RegionKind,
    bmno_boundary,
    bmno_tiles,
    boundary_polyline,
    hyper_boundary,
    in_bmno,
    in_bmno_h,
    in_half_pentagon,
    in_pentagon,
    in_teixidor,
    in_translated_bgn,
    in_translated_m,
    parse_region_id,
    region_membership,
    teixidor_boundary,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
