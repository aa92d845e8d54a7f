"""One unit of work of one workload, run in a fresh interpreter by run.py.

Reads a JSON spec on stdin, imports the package (not timed here: that is
``setup_s``), optionally installs the tracer, does the unit and prints one
JSON line with its timings, output digests and peak RSS.  Only the public
functions of ``bnlocus.sweep``, ``bnlocus.oracle`` and ``bnlocus.cli`` are
called.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import workloads
from tracer import Tracer, install

# per-layer metrics of a traced unit, in the order of the layers
LAYER_UNITS = {
    "arith.rho_tilde.calls": "count",
    "arith.rho_tilde.self_s": "s",
    "arith.serre_dual_point.calls": "count",
    "arith.serre_dual_point.self_s": "s",
    "arith.bnpoint.calls": "count",
    "arith.line_degree_bound_int.calls": "count",
    "arith.line_degree_bound_int.distinct_ratio": "ratio",
    "regions.in_bmno.calls": "count",
    "regions.in_bmno.self_s": "s",
    "regions.in_teixidor.calls": "count",
    "regions.in_teixidor.self_s": "s",
    "regions.in_bmno_h.calls": "count",
    "regions.in_bmno_h.self_s": "s",
    "regions.tiles.calls": "count",
    "regions.tiles.self_s": "s",
    "regions.boundary_eval.calls": "count",
    "regions.boundary_eval.self_s": "s",
    "oracle.classify.calls": "count",
    "oracle.classify.self_s": "s",
    "oracle.decided_ratio": "ratio",
    "sweep.verify.self_s": "s",
    "sweep.grid.calls": "count",
    "sweep.grid.self_s": "s",
    "sweep.checks": "count",
    "sweep.csv.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.build_parser.calls": "count",
    "cli.build_parser.self_s": "s",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def region_sweep(p: dict) -> dict:
    from bnlocus import sweep

    w = p["window"]
    t0 = time.perf_counter()
    sigma = sweep.verify_sigma(*w["sigma"], w["max_den"])
    incl = sweep.verify_inclusions(*w["inclusions"], w["max_den"])
    wall = time.perf_counter() - t0
    reports = [sigma, incl]
    return {
        "wall_s": wall,
        "records": sum(r.checks_run for r in reports),
        "ops": [{"suite": r.suite, "checks_run": r.checks_run, "failure_count": r.failure_count}
                for r in reports],
        "output_digest": _sha(json.dumps([r.to_json_dict() for r in reports])),
    }


def oracle_table(p: dict) -> dict:
    from bnlocus import oracle, sweep

    t0 = time.perf_counter()
    try:
        rows = sweep.enumerate_classifications(p["genus"], p["max_rank"])
        csv = sweep.classification_csv(rows)
    except oracle.ContradictionError as exc:
        return {"wall_s": time.perf_counter() - t0, "records": 0, "error": str(exc)}
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "records": len(rows), "output_digest": _sha(csv)}


def classify_stream(p: dict) -> dict:
    from bnlocus import cli

    universe = workloads.request_universe()
    argvs = [workloads.request_argv(universe[i]) for i in p["requests"]]
    buf = io.StringIO()
    latencies, digests, codes = [], [], []
    # A request's latency is the CPU time the process spends on it.  A request
    # does no I/O and takes a few milliseconds, so its wall time differs from
    # that only by time the host gave to other work, which on a shared host
    # lands in a few requests, in the tail, by chance.  The stream's wall
    # time, ``wall_s``, still counts everything.
    cpu = time.process_time
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        for argv in argvs:
            t = cpu()
            rc = cli.main(argv)
            latencies.append((cpu() - t) * 1e3)
            codes.append(rc)
            digests.append(_sha(buf.getvalue())[:16])
            buf.seek(0)
            buf.truncate(0)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "records": len(argvs),
        "latencies_ms": latencies,
        "digests": digests,
        "exit_codes": codes,
        "output_digest": _sha("".join(digests)),
    }


RUNNERS = {"region-sweep": region_sweep, "oracle-table": oracle_table, "classify-stream": classify_stream}


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    out = {}
    for name in LAYER_UNITS:
        if name.endswith(".calls"):
            value = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            value = tracer.self_s(name[: -len(".self_s")])
        elif name == "arith.line_degree_bound_int.distinct_ratio":
            calls = tracer.calls("arith.line_degree_bound_int")
            value = len(tracer.ldb_args) / calls if calls else 0.0
        elif name == "oracle.decided_ratio":
            calls = tracer.calls("oracle.classify")
            value = tracer.decided / calls if calls else 0.0
        else:  # sweep.checks
            value = sum(op["checks_run"] for op in result.get("ops", []))
        out[name] = value
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    import bnlocus.cli  # noqa: F401  (imported before any clock starts)

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    result = RUNNERS[spec["workload"]](spec["params"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
