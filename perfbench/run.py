"""Benchmark of bnlocus: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload region-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --trace 1       # every workload, traced

Each workload is a closed loop: one caller, one process, one thread.  A run
repeats the workload's unit of work, each time in a fresh interpreter with
cold caches, for ``--seconds`` seconds.  Before and after every unit a
probe in a fresh interpreter times three fixed pieces of reference work and
then the import of the package (``setup_s``).  Every timing is reported at
the reference speed (see ``REFERENCE_S``).  Every unit's outputs are
checked against ``goldens.json``.  With ``--trace 1`` untraced and traced
units alternate: the traced ones give the per-layer metrics, the pairs give the
tracing overhead, and their outputs must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output was correct, 1 when one was not, and 2 when the program
or the benchmark's files cannot be found.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from unit import LAYER_UNITS  # noqa: E402

SETUP_FIRST = 4  # probes before the first unit; one more follows each unit
UNIT_TIMEOUT_S = 150

# The host this was tuned on (2 shared cores) runs the same code up to twice
# as fast when its neighbours idle, in spells from under a second to
# minutes.  So every timing is scaled to the reference speed: multiplied by
# REFERENCE_S over the time each piece of the probes' reference work took
# around it, taking the geometric mean over the pieces.  REFERENCE_S
# holds each piece's time on the tuning machine at its loaded speed, so
# scaled figures read as seconds on that machine under load.
REFERENCE_S = {"loop_s": 0.110, "scatter_s": 0.160, "parse_s": 0.100}
# The probes around a unit miss the host's spells shorter than the unit,
# and a request that meets a slow one lands in the tail.  So classify-stream's
# p99_ms is its p50_ms times the 99th percentile of each request's latency
# over the median latency of the requests around it: 101 requests, about
# 0.4 s.  The requests of a stream come in random order, so that median
# follows the host's speed, not the mix of requests.  On a steady host the
# figure is about the plain 99th percentile.
LOCAL_HALF = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}
OVERHEAD_UNITS = {
    "trace.overhead.wall_s": "ratio",
    "trace.overhead.rows_per_s": "ratio",
    "trace.overhead.p50_ms": "ratio",
}


def child_env() -> dict:
    """The environment of every child: this checkout's sources, no ambient
    parallelism setting, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "BN_LOCUS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bnlocus").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def probe(env: dict) -> dict:
    """Reference times and then import time, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env, capture_output=True,
                          text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing bnlocus failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scale(*probes: dict) -> float:
    """The factor that takes a timing to the reference speed, from the
    probes taken around it."""
    factor = 1.0
    for piece, ref in REFERENCE_S.items():
        factor *= ref * len(probes) / sum(p[piece] for p in probes)
    return factor ** (1 / len(REFERENCE_S))


def run_unit(workload: str, params: dict, trace_out: Path | None, env: dict) -> dict:
    spec = {"workload": workload, "params": params, "trace": trace_out is not None,
            "trace_out": str(trace_out) if trace_out else None}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "unit.py")], input=json.dumps(spec),
                              env=env, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timeout after {UNIT_TIMEOUT_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crashed": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_unit(workload: str, params: dict, res: dict, goldens: dict) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, reasons) for one unit."""
    if "crashed" in res:
        return 1, 1, [f"unit crashed: {res['crashed']}"]
    if workload == "region-sweep":
        want = goldens["region-sweep"].get(workloads.window_key(params["window"]))
        bad = []
        for op in res["ops"]:
            if op["failure_count"]:
                bad.append(f"{op['suite']}: {op['failure_count']} sweep failures")
            elif want is None or op["checks_run"] != want[op["suite"]]:
                bad.append(f"{op['suite']}: {op['checks_run']} checks, not the golden {want}")
        return len(res["ops"]), len(bad), bad
    if workload == "oracle-table":
        want = goldens["oracle-table"].get(workloads.table_key((params["genus"], params["max_rank"])))
        if "error" in res:
            return 1, 1, [f"contradiction: {res['error']}"]
        if res["output_digest"] != want:
            return 1, 1, [f"table CSV digest {res['output_digest'][:16]} differs from the golden"]
        return 1, 0, []
    digests = goldens["classify-stream"]["digests"]
    bad = []
    for i, digest, rc in zip(params["requests"], res["digests"], res["exit_codes"]):
        if rc != 0:
            bad.append(f"request {i}: exit code {rc}")
        elif digest != digests[i]:
            bad.append(f"request {i}: output digest differs from the golden")
    return len(params["requests"]), len(bad), bad


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def local_ratios(latencies: list[float]) -> list[float]:
    """Each latency over the median of the ``2 * LOCAL_HALF + 1`` latencies
    around it (the first or last ones at the ends of the stream)."""
    width = min(len(latencies), 2 * LOCAL_HALF + 1)
    out = []
    for i, x in enumerate(latencies):
        lo = min(max(0, i - LOCAL_HALF), len(latencies) - width)
        out.append(x / statistics.median(latencies[lo:lo + width]))
    return out


def latency_samples(workload: str, units: list[dict]) -> int:
    return sum(len(u["latencies_ms"]) for u in units) if workload == "classify-stream" else len(units)


def end_to_end(workload: str, setup: list[float], units: list[dict]) -> dict:
    """Every end-to-end figure, with timings at the reference speed."""
    unit_s = statistics.fmean(u["wall_s"] * u["scale"] for u in units)
    if workload == "classify-stream":
        p50 = statistics.median(x * u["scale"] for u in units for x in u["latencies_ms"])
        ratios = [r for u in units for r in local_ratios(u["latencies_ms"])]
        p99 = p50 * percentile(ratios, 99)
    else:
        # A batch unit is one operation, repeated unchanged, so the spread of
        # its times is the host's and not the program's: its latency is the
        # mean unit time.
        p50 = p99 = unit_s * 1e3
    return {
        "setup_s": statistics.median(setup),
        "wall_s": unit_s,
        "rows_per_s": statistics.median(u["records"] for u in units) / unit_s,
        "p50_ms": p50,
        "p99_ms": p99,
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 goldens: dict) -> tuple[dict, dict]:
    """(result line, full record) of one run."""
    env = child_env()
    OUT.mkdir(exist_ok=True)
    probe(env)  # may compile bytecode; not counted
    probes = [probe(env) for _ in range(SETUP_FIRST)]

    plain, traced, attempted, failed, reasons = [], [], 0, 0, []
    start = time.perf_counter()
    longest = 0.0
    while True:
        want_trace = trace and len(traced) < len(plain)
        # a traced run repeats one input, so that its units can be compared
        params = workloads.params(workload, seed, tiny, 0 if trace else len(plain))
        trace_out = OUT / f"trace-{workload}-seed{seed}-unit{len(traced)}.json" if want_trace else None
        t0 = time.perf_counter()
        res = run_unit(workload, params, trace_out, env)
        probes.append(probe(env))
        longest = max(longest, time.perf_counter() - t0)
        res["scale"] = scale(probes[-2], probes[-1])
        a, f, why = check_unit(workload, params, res, goldens)
        attempted, failed = attempted + a, failed + f
        reasons.extend(why)
        if "crashed" in res:
            break
        (traced if want_trace else plain).append(res)
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() - start + longest > seconds:
            break

    setup = [p["import_s"] * scale(p) for p in probes]
    if traced and any(t["output_digest"] != plain[0]["output_digest"] for t in traced + plain):
        failed += 1
        reasons.append("traced and untraced outputs differ")
    counts = [{k: v for k, v in t["layers"].items() if not k.endswith(".self_s")} for t in traced]
    if any(c != counts[0] for c in counts):
        failed += 1
        reasons.append("per-layer counts differ between traced units of the same inputs")
    correct = failed == 0 and bool(plain)
    metrics, units, printed = {}, {}, {}
    if plain and (traced or not trace):
        if trace:
            metrics = layer_summary(workload, plain, traced, setup)
            units = {**LAYER_UNITS, **OVERHEAD_UNITS}
        else:
            metrics = end_to_end(workload, setup, plain)
            units = END_TO_END_UNITS
        printed["unscaled_wall_s"] = (statistics.fmean(u["wall_s"] for u in plain), "s")
        printed["host_speed"] = (statistics.median(u["scale"] for u in plain), "x")
    printed["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "machine": machine(),
        "units": len(plain), "traced_units": len(traced), "samples": latency_samples(workload, plain),
        "unit_wall_s": [u["wall_s"] for u in plain], "unit_scale": [u["scale"] for u in plain],
        "traced_wall_s": [t["wall_s"] * t["scale"] for t in traced],
        "setup_samples_s": setup, "probes": probes,
        "printed": printed,
        "reasons": reasons[:50], "result": line,
    }
    return line, record


def layer_summary(workload: str, plain: list[dict], traced: list[dict], setup: list[float]) -> dict:
    layers = traced[0]["layers"]
    out = {}
    for name in LAYER_UNITS:
        if name.endswith(".self_s"):
            out[name] = statistics.median(t["layers"][name] * t["scale"] for t in traced)
        else:
            out[name] = layers[name]
    base, with_trace = end_to_end(workload, setup, plain), end_to_end(workload, setup, traced)
    out["trace.overhead.wall_s"] = with_trace["wall_s"] / base["wall_s"]
    out["trace.overhead.rows_per_s"] = base["rows_per_s"] / with_trace["rows_per_s"]
    out["trace.overhead.p50_ms"] = with_trace["p50_ms"] / base["p50_ms"]
    return out


def self_shares(record: dict) -> str:
    wall = statistics.median(record["traced_wall_s"])
    layers = {}
    for name, metric in record["result"]["metrics"].items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + metric["value"]
    layers["outside spans"] = wall - sum(layers.values())
    return ", ".join(f"{k} {v / wall:.0%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))


def print_record(record: dict) -> None:
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{record['units']} units, {record['traced_units']} traced, {record['samples']} latency samples")
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"commit={m['commit']} src={m['src_sha256']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{record['workload']:16} {name:44} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in record["printed"].items():
        print(f"{record['workload']:16} {name:44} {value:.6g} {unit}")
    if record["traced_wall_s"]:
        print("# self time by layer, share of the traced unit: " + self_shares(record))
    for why in record["reasons"]:
        print(f"# FAILED: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bnlocus" / "__init__.py").is_file():
        sys.stderr.write(f"bnlocus sources not found under {ROOT / 'src'}\n")
        return 2
    try:
        with open(HERE / "goldens.json", encoding="utf-8") as fh:
            goldens = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read goldens: {exc}\n")
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        line, record = run_workload(name, args.seed, args.seconds, bool(args.trace), False, goldens)
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print_record(record)
        lines.append(line)
    if len(lines) == 1:
        result = lines[0]
    else:
        result = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{n}.{k}": v for n, x in zip(names, lines) for k, v in x["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
