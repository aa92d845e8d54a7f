"""Per-layer spans and counts, recorded from outside the program.

Every probe wraps a public function of ``bnlocus`` and is installed under
each name a module of the package looks that function up by (for example
``bnlocus.oracle.in_teixidor`` and ``bnlocus.sweep.in_teixidor``), so the
program's source stays untouched.  Methods (``BoundaryFn.__call__``,
``BNPoint.__post_init__``) are wrapped on their class.

Spans are kept in memory as (id, parent id, name, start, end).  The arith
and regions leaves can run millions of times, so each (parent name, name) pair
keeps only its first ``KEEP_PER_EDGE`` spans individually; the aggregate
(calls, total, self time) of every pair is always exact.  Self time is the
span's duration minus the time its traced child spans cover.  There is one
process and one thread, so no span ever waits on another and there are no
wait-time figures.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

KEEP_PER_EDGE = 2000

# span name -> (module defining it, attribute names); several attributes may
# share one span name, and their calls and times are summed
SPANS = {
    "arith.rho_tilde": ("arith", ("rho_tilde",)),
    "arith.serre_dual_point": ("arith", ("serre_dual_point",)),
    "regions.in_bmno": ("regions", ("in_bmno",)),
    "regions.in_teixidor": ("regions", ("in_teixidor",)),
    "regions.in_bmno_h": ("regions", ("in_bmno_h",)),
    "regions.tiles": ("regions", ("in_translated_bgn", "in_translated_m", "in_u_bgn_half", "in_u_m_half")),
    "oracle.classify": ("oracle", ("classify",)),
    "sweep.verify": ("sweep", ("verify_sigma", "verify_inclusions")),
    "sweep.grid": ("sweep", ("rationals_between",)),
    "sweep.csv": ("sweep", ("classification_csv",)),
    "cli.main": ("cli", ("main",)),
    "cli.build_parser": ("cli", ("build_parser",)),
}


class Tracer:
    """Span stack and per-edge aggregates for one process and one thread."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.stack = []  # frames: [span id, name, start ns, child ns]
        self.next_id = 1
        self.edges = {}  # (parent name, name) -> [calls, total ns, self ns]
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.kept = {}  # (parent name, name) -> spans stored individually
        self.counts = {}  # counter name -> int
        self.ldb_args = set()
        self.decided = 0

    def span(self, name, fn):
        clock = self.clock
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, name, 0, 0]
            stack.append(frame)
            frame[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)

        return wrapper

    def _close(self, frame, end):
        sid, name, start, child = frame
        dur = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            pid, pname = parent[0], parent[1]
        else:
            pid, pname = 0, ""
        edge = (pname, name)
        agg = self.edges.get(edge)
        if agg is None:
            agg = self.edges[edge] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        kept = self.kept.get(edge, 0)
        if kept < KEEP_PER_EDGE:
            self.kept[edge] = kept + 1
            self.spans.append((sid, pid, name, start, end))

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries ---------------------------------------------------------

    def calls(self, name) -> int:
        if name in self.counts:
            return self.counts[name]
        return sum(a[0] for (_, n), a in self.edges.items() if n == name)

    def self_s(self, name) -> float:
        return sum(a[2] for (_, n), a in self.edges.items() if n == name) / 1e9

    def dump(self) -> dict:
        return {
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3], "end_ns": s[4]}
                      for s in self.spans],
            "aggregates": [{"parent": p, "name": n, "calls": a[0], "total_ns": a[1], "self_ns": a[2]}
                           for (p, n), a in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
            "kept_per_edge": KEEP_PER_EDGE,
        }


def _rebind(original, wrapper):
    """Install ``wrapper`` under every name a loaded module of the package
    binds to ``original``."""
    bound = 0
    for mod, module in list(sys.modules.items()):
        if mod != "bnlocus" and not mod.startswith("bnlocus."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"no module binds {original!r}")


def install(tracer: Tracer) -> None:
    """Wrap every probed function of the imported package with ``tracer``."""
    importlib.import_module("bnlocus.cli")  # imports every probed module
    arith = sys.modules["bnlocus.arith"]
    regions = sys.modules["bnlocus.regions"]
    oracle = sys.modules["bnlocus.oracle"]

    for name, (mod, attrs) in SPANS.items():
        module = sys.modules[f"bnlocus.{mod}"]
        for attr in attrs:
            original = getattr(module, attr)
            fn = original
            if name == "oracle.classify":
                fn = _deciding(tracer, original, oracle.Verdict.UNKNOWN)
            _rebind(original, tracer.span(name, fn))

    boundary_call = regions.BoundaryFn.__call__
    regions.BoundaryFn.__call__ = tracer.span("regions.boundary_eval", boundary_call)

    post_init = arith.BNPoint.__post_init__
    arith.BNPoint.__post_init__ = tracer.count("arith.bnpoint", post_init)

    ldb = arith.line_degree_bound_int
    args_seen = tracer.ldb_args

    def line_degree_bound_int(g, s):
        args_seen.add((g, s))
        return ldb(g, s)

    _rebind(ldb, tracer.count("arith.line_degree_bound_int", line_degree_bound_int))


def _deciding(tracer: Tracer, classify, unknown):
    """classify, counting the verdicts other than Unknown."""

    def classify_counted(*args, **kwargs):
        r = classify(*args, **kwargs)
        if r.verdict is not unknown:
            tracer.decided += 1
        return r

    return classify_counted
