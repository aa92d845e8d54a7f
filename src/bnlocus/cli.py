"""Command-line frontend.

Subcommands: classify, boundary, region, polyline, plot, enumerate, verify,
compare.
Exit codes: 0 success (any verdict), 1 usage error, 2 internal
contradiction, 3 I/O error.  Identical invocations produce byte-identical
output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .arith import Stability, Triple, bn_curve, format_rat, parse_rat, point
from .oracle import Classification, ContradictionError, CurveClass, classify
from .regions import (
    BmnoMode,
    RegionKind,
    bmno_boundary,
    hyper_boundary,
    parse_region_id,
    polyline_json_dict,
    region_membership,
    teixidor_boundary,
)
from . import sweep  # eager: perfbench/tracer.py imports this module, then reads sys.modules["bnlocus.sweep"]

_encode_str = json.encoder.encode_basestring_ascii  # json's own string escaper, in C where built


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2) + "\n"``, byte for byte, for the values
    the commands write: strings, ints, bools, lists, and dicts with string
    keys.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder, so these
    are laid out here; any other value raises ``TypeError``.
    """
    parts = []
    _encode(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(value, newline: str, parts: list) -> None:
    """Append the JSON text of ``value`` to ``parts``; ``newline`` is the line
    break and indent of the depth ``value`` starts at."""
    t = type(value)
    if t is str:
        parts.append(_encode_str(value))
    elif t is int:
        parts.append(int.__repr__(value))
    elif t is bool:
        parts.append("true" if value else "false")
    elif t is list:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            t = type(item)
            if t is str:
                parts.append(sep + _encode_str(item))
            elif t is int:
                parts.append(sep + int.__repr__(item))
            else:
                parts.append(sep)
                _encode(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]" if value else "[]")
    elif t is dict:
        inner = newline + "  "
        sep = "{" + inner
        for k, item in value.items():  # _encode_str raises TypeError on a key that is not a str
            t = type(item)
            if t is str:
                parts.append(sep + _encode_str(k) + ": " + _encode_str(item))
            elif t is int:
                parts.append(sep + _encode_str(k) + ": " + int.__repr__(item))
            else:
                parts.append(sep + _encode_str(k) + ": ")
                _encode(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_classification(r: Classification, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(_dump_json(r.to_json_dict()))
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
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_classify(args) -> int:
    t = Triple(args.rank, args.degree, args.sections)
    m = Stability.SEMISTABLE if args.semistable else Stability.STABLE
    r = classify(args.genus, t, CurveClass(args.curve), m)
    _print_classification(r, args.json)
    return 0


def cmd_boundary(args) -> int:
    if args.lam is not None and args.fn != "rho":
        raise ValueError("--lambda applies only to --fn rho")
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
    if args.mode is not None and rid.kind is not RegionKind.BMNO:
        raise ValueError("--mode applies only to --id bmno")
    if args.semistable is not None and rid.kind is not RegionKind.TEIXIDOR:
        raise ValueError("--semistable applies only to --id teixidor")
    p = point(parse_rat(args.mu), parse_rat(args.lam))
    member = region_membership(
        args.genus, rid, p,
        mode=BmnoMode(args.mode or "stable"),
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
    from .plotting import PlotSpec, write_plot  # lazy: no other command draws

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
    rows = sweep.enumerate_classifications(args.genus, args.max_rank, CurveClass(args.curve), m)
    _write_output(sweep.classification_csv(rows), args.out)
    return 0


_WINDOW = {"g_lo": "genus_min", "g_hi": "genus_max"}
# suite -> (name of its sweep function, {parameter: option}), in the order
# --suite all runs them; the function is looked up on ``sweep`` at each run,
# since a tracer may rebind it
_SUITES = {
    "prop411": ("verify_prop_4_11", _WINDOW),
    "teixidor": ("verify_teixidor_gap", _WINDOW),
    "inclusions": ("verify_inclusions", _WINDOW | {"max_den": "max_den"}),
    "sigma": ("verify_sigma", _WINDOW | {"max_den": "max_den"}),
    "oracle": ("verify_oracle", {"g_lo": "genus_min", "g_max": "genus_max", "n_max": "max_rank"}),
}


def _given(args, **params) -> dict:
    """Keyword arguments for the options the user gave, keyed by parameter
    name, so that each default lives only in the sweep function's signature."""
    return {param: getattr(args, opt) for param, opt in params.items() if getattr(args, opt) is not None}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for opt in ("max_den", "max_rank"):
        if getattr(args, opt) is not None and not any(opt in _SUITES[name][1].values() for name in names):
            raise ValueError(f"--{opt.replace('_', '-')} does not apply to --suite {args.suite}")
    reports = [getattr(sweep, _SUITES[name][0])(**_given(args, **_SUITES[name][1])) for name in names]
    if args.out:
        _write_output(_dump_json([r.to_json_dict() for r in reports]), args.out)
    for r in reports:
        sys.stdout.write(r.summary() + "\n")
    return 0 if all(r.passed for r in reports) else 2


def cmd_compare(args) -> int:
    comparison = sweep.compare_regions(args.genus, **_given(args, max_den="max_den"))
    _write_output(_dump_json(comparison.to_json_dict()), args.out)
    return 0


_CURVES = sorted(c.value for c in CurveClass)


def _classify_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--sections", type=int, required=True)
    p.add_argument("--curve", choices=_CURVES, default="arbitrary")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)


def _boundary_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--fn", choices=("f", "t", "h", "rho"), required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=cmd_boundary)


def _region_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--id", required=True, help="p, r, bgn, m, bmno, teixidor, bmnoh, bncurve, tbgn:D:S, tm:D:S")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    # None when not given, so that cmd_region can reject them for the other regions
    p.add_argument("--mode", choices=[m.value for m in BmnoMode], default=None)
    p.add_argument("--semistable", action="store_true", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_region)


def _polyline_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_polyline)


def _plot_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--regions", default="", help="comma-separated region tokens")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=900)
    p.add_argument("--height", type=int, default=620)
    p.add_argument("--no-bn-curve", action="store_true")
    p.set_defaults(func=cmd_plot)


def _enumerate_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--curve", choices=_CURVES, default="arbitrary")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)


def _verify_args(p) -> None:
    p.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p.add_argument("--genus-min", type=int, default=None)
    p.add_argument("--genus-max", type=int, default=None)
    p.add_argument("--max-den", type=int, default=None, help="inclusions and sigma suites (all passes it to them)")
    p.add_argument("--max-rank", type=int, default=None, help="oracle suite")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)


def _compare_args(p) -> None:
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-den", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)


# subcommand -> (help line, function adding its arguments and handler), in
# the order the help lists them
_COMMANDS = {
    "classify": ("classify one (genus, rank, degree, sections) problem", _classify_args),
    "boundary": ("evaluate a boundary function at a rational slope", _boundary_args),
    "region": ("exact membership of a point in a region", _region_args),
    "polyline": ("emit a region boundary as exact-rational JSON segments", _polyline_args),
    "plot": ("render regions to a deterministic SVG figure", _plot_args),
    "enumerate": ("CSV table of classifications over a rank window", _enumerate_args),
    "verify": ("run an exhaustive verification suite", _verify_args),
    "compare": ("symmetric difference of the assembled and parallelogram regions", _compare_args),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Every ``main`` call shares it, so it must not be modified.  Parsing
    leaves it as it was, and argparse formats each help, usage and error
    text when it prints it, so sharing changes no output.  ``commands``
    maps each subcommand's name to its own parser.
    """
    parser = argparse.ArgumentParser(
        prog="bnlocus",
        description="Exact nonemptiness oracle and region plotter for Brill-Noether loci.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (help_text, add_args) in _COMMANDS.items():
        command = parser.commands[name] = sub.add_parser(name, help=help_text)
        add_args(command)
        command.plain = _plain_table(command)
    return parser


def _plain_table(command: argparse.ArgumentParser):
    """What ``_plain`` reads of ``command``, taken from its actions: each
    exact option string that stores one value or a constant, with its
    action; the namespace before any option is read, as
    ``parse_known_args`` starts it; and the required actions.  None when
    an option has a string default and a ``type``, which argparse converts
    when the option is not given.
    """
    options, defaults = {}, {}
    for action in command._actions:
        if isinstance(action.default, str) and action.type is not None:
            return None
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
        if isinstance(action, (argparse._StoreAction, argparse._StoreConstAction)) and action.nargs in (None, 0):
            options.update(dict.fromkeys(action.option_strings, action))
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    return options, defaults, {a for a in command._actions if a.required}


def _plain(command: argparse.ArgumentParser, tokens: list):
    """The namespace ``command.parse_known_args(tokens)`` returns with no
    leftovers, when ``tokens`` are exact option strings, each followed by a
    value that does not start with ``-`` and passes its ``type`` and
    ``choices`` checks when it takes one, and every required option is
    given; otherwise None, and argparse reads ``tokens``.  An option given
    twice keeps its last value, as in argparse.
    """
    if command.plain is None:
        return None
    options, values, required = command.plain
    values = dict(values)
    seen = set()
    tokens = iter(tokens)
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values) if required <= seen else None


def _parse(parser: argparse.ArgumentParser, argv: list):
    """``parser.parse_args(argv)``, with the same options, handler and texts.

    When ``argv[0]`` names a subcommand and the rest are plain tokens, which
    ``_plain`` reads from that subcommand's actions, argparse is skipped;
    it reads every other argv and writes every help, usage and error text.
    The namespace ``_plain`` returns has no ``command``, which nothing reads.
    """
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _plain(command, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
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
