"""Command-line frontend.

Subcommands: classify, boundary, region, plot, enumerate, verify, compare.
Exit codes: 0 success (any verdict), 1 usage error, 2 internal
contradiction, 3 I/O error.  Identical invocations produce byte-identical
output.  BN_LOCUS_THREADS optionally caps sweep parallelism.
"""
from __future__ import annotations

import argparse
import json
import sys

from .arith import Stability, Triple, bn_curve, format_rat, parse_rat, point
from .oracle import Classification, ContradictionError, CurveClass, classify
from .plotting import PlotSpec, write_plot
from .regions import (
    BmnoMode,
    bmno_boundary,
    hyper_boundary,
    parse_region_id,
    polyline_json_dict,
    region_membership,
    teixidor_boundary,
)
from . import sweep

_CURVE_FLAGS = {
    "arbitrary": CurveClass.ARBITRARY,
    "generic": CurveClass.GENERIC,
    "hyperelliptic": CurveClass.HYPERELLIPTIC,
    "nonhyperelliptic": CurveClass.NON_HYPERELLIPTIC,
}


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_classification(r: Classification, as_json: bool, out_path=None) -> None:
    if as_json:
        _write_output(_dump_json(r.to_json_dict()), out_path)
        return
    lines = [
        f"genus {r.genus}, rank {r.triple.n}, degree {r.triple.d}, sections {r.triple.k} "
        f"(mu={format_rat(r.mu)}, lambda={format_rat(r.lam)})",
        f"curve class: {r.curve_class.value}; stability: {r.stability.value}",
        f"verdict: {r.verdict.value}",
        f"rho: {r.rho}",
    ]
    for e in r.evidence:
        params = ", ".join(f"{k}={v}" for k, v in e.params)
        suffix = f" [{params}]" if params else ""
        lines.append(f"  {e.kind:<10} {e.rule}{suffix}: {e.citation}")
    for a in r.annotations:
        lines.append(f"  note: {a}")
    if not r.evidence:
        lines.append(f"  no criterion applies; rules attempted: {', '.join(r.rules_attempted)}")
    _write_output("\n".join(lines) + "\n", out_path)


def cmd_classify(args) -> int:
    t = Triple(args.rank, args.degree, args.sections)
    m = Stability.SEMISTABLE if args.semistable else Stability.STABLE
    r = classify(args.genus, t, _CURVE_FLAGS[args.curve], m)
    _print_classification(r, args.json)
    return 0


def cmd_boundary(args) -> int:
    mu = parse_rat(args.mu)
    if args.fn == "rho":
        curve = bn_curve(args.genus, mu)
        if args.lam is None:
            sys.stdout.write(f"curve value near {curve.approx:.6f}\n")
            return 0
        lam = parse_rat(args.lam)
        rel = {-1: "below", 0: "on", 1: "above"}[curve.compare(lam)]
        sys.stdout.write(
            f"lambda={format_rat(lam)} is {rel} the expected-dimension curve at "
            f"mu={format_rat(mu)} (curve value near {curve.approx:.6f})\n"
        )
        return 0
    fn = {"f": bmno_boundary, "t": teixidor_boundary, "h": hyper_boundary}[args.fn](args.genus)
    sys.stdout.write(format_rat(fn(mu)) + "\n")
    return 0


def cmd_region(args) -> int:
    rid = parse_region_id(args.id)
    p = point(parse_rat(args.mu), parse_rat(args.lam))
    member = region_membership(
        args.genus, rid, p,
        mode=BmnoMode(args.mode),
        stability=Stability.SEMISTABLE if args.semistable else Stability.STABLE,
    )
    if args.json:
        sys.stdout.write(_dump_json({
            "region": rid.token(), "genus": args.genus,
            "mu": format_rat(p.mu), "lambda": format_rat(p.lam),
            "member": member,
        }))
    else:
        sys.stdout.write(("In" if member else "Out") + "\n")
    return 0


def cmd_polyline(args) -> int:
    rid = parse_region_id(args.id)
    _write_output(_dump_json(polyline_json_dict(args.genus, rid)), args.out)
    return 0


def cmd_plot(args) -> int:
    regions = tuple(parse_region_id(tok) for tok in args.regions.split(",") if tok.strip())
    spec = PlotSpec(
        genus=args.genus,
        regions=regions,
        show_bn_curve=not args.no_bn_curve,
        width_px=args.width,
        height_px=args.height,
        out_path=args.out,
    )
    write_plot(spec)
    return 0


def cmd_enumerate(args) -> int:
    m = Stability.SEMISTABLE if args.semistable else Stability.STABLE
    rows = sweep.enumerate_classifications(args.genus, args.max_rank, _CURVE_FLAGS[args.curve], m)
    _write_output(sweep.classification_csv(rows), args.out)
    return 0


_SUITES = ("prop411", "teixidor", "inclusions", "sigma", "oracle")


def _given(args, **params) -> dict:
    """Keyword arguments for the options the user gave, keyed by parameter
    name, so that each default lives only in the sweep function's signature."""
    return {param: getattr(args, opt) for param, opt in params.items() if getattr(args, opt) is not None}


def _run_suite(name: str, args) -> sweep.SweepReport:
    if name == "oracle":
        return sweep.verify_oracle(**_given(args, g_lo="genus_min", g_max="genus_max", n_max="max_rank"))
    window = _given(args, g_lo="genus_min", g_hi="genus_max", max_den="max_den")
    if name == "prop411":
        return sweep.verify_prop_4_11(**window)
    if name == "teixidor":
        return sweep.verify_teixidor_gap(**window)
    if name == "inclusions":
        return sweep.verify_inclusions(**window)
    return sweep.verify_sigma(**window)


def cmd_verify(args) -> int:
    names = _SUITES if args.suite == "all" else (args.suite,)
    reports = [_run_suite(name, args) for name in names]
    if args.out:
        _write_output(_dump_json([r.to_json_dict() for r in reports]), args.out)
    for r in reports:
        sys.stdout.write(r.summary() + "\n")
    return 0 if all(r.passed for r in reports) else 2


def cmd_compare(args) -> int:
    comparison = sweep.compare_regions(args.genus, **_given(args, max_den="max_den"))
    _write_output(_dump_json(comparison.to_json_dict()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnlocus",
        description="Exact nonemptiness oracle and region plotter for Brill-Noether loci.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one (genus, rank, degree, sections) problem")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--sections", type=int, required=True)
    p.add_argument("--curve", choices=sorted(_CURVE_FLAGS), default="arbitrary")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("boundary", help="evaluate a boundary function at a rational slope")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--fn", choices=("f", "t", "h", "rho"), required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("region", help="exact membership of a point in a region")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--id", required=True, help="p, r, bgn, m, bmno, teixidor, bmnoh, bncurve, tbgn:D:S, tm:D:S")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mode", choices=[m.value for m in BmnoMode], default="stable")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("polyline", help="emit a region boundary as exact-rational JSON segments")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_polyline)

    p = sub.add_parser("plot", help="render regions to a deterministic SVG figure")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--regions", default="", help="comma-separated region tokens")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=900)
    p.add_argument("--height", type=int, default=620)
    p.add_argument("--no-bn-curve", action="store_true")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("enumerate", help="CSV table of classifications over a rank window")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--curve", choices=sorted(_CURVE_FLAGS), default="arbitrary")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", choices=_SUITES + ("all",), required=True)
    p.add_argument("--genus-min", type=int, default=None)
    p.add_argument("--genus-max", type=int, default=None)
    p.add_argument("--max-den", type=int, default=None)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="symmetric difference of the assembled and parallelogram regions")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-den", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ContradictionError as exc:
        sys.stderr.write(f"internal contradiction: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
