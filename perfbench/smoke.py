"""Smoke test of the benchmark's own code.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks, at the smallest inputs, that every workload prints every metric
named in BENCHMARK.json with its unit, untraced and traced, and that a
corrupted golden makes the run incorrect, with failed operations and a
nonzero error_rate.  Through the command line it checks that a one-second
run at the real size ends with the result line, and that the benchmark
refuses to run, without printing a result, where the program's sources are
missing.  It exits 0 when all of this holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def check(ok, message) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def printed(record: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_record(record)
    return out.getvalue()


def error_rate(text: str) -> float:
    rows = [line.split() for line in text.splitlines() if " error_rate " in line]
    check(len(rows) == 1, text)
    check(rows[0][-1] == "ratio", rows[0])
    return float(rows[0][-2])


def corrupt(goldens: dict) -> dict:
    bad = json.loads(json.dumps(goldens))
    for checks in bad["region-sweep"].values():
        for suite in checks:
            checks[suite] += 1
    for key in bad["oracle-table"]:
        bad["oracle-table"][key] = "0" * 64
    bad["classify-stream"]["digests"] = ["0" * 16 for _ in bad["classify-stream"]["digests"]]
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))

    for w in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line, record = run.run_workload(w, 1, 1, bool(trace), True, goldens)
            text = printed(record)
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, line)
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, (line, text))
            check(error_rate(text) == 0, text)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            check(got == want, f"{w} trace={trace}: metrics {got} != declared {want}")
            for name, metric in line["metrics"].items():
                check(isinstance(metric["value"], (int, float)), (name, metric))
                check(f" {name} " in text, f"{name} not printed")
            print(f"ok  {w} trace={trace}: {len(got)} metrics with units")

        line, record = run.run_workload(w, 1, 1, False, True, corrupt(goldens))
        rate = record["printed"]["error_rate"][0]
        check(not line["correct"] and line["failed"] > 0 and rate > 0, (line, record["reasons"]))
        print(f"ok  {w}: a corrupted golden gives error_rate {rate:.3g}")

    # one run through the command line, at the real size for one second
    proc = bench("--workload", "oracle-table", "--trace", "0")
    check(proc.returncode == 0, f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(line["correct"] and set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}, line)
    print("ok  the command line prints the result line last")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", workloads.WORKLOADS[0], "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    shutil.rmtree(bare)
    print("ok  without the program's sources the run exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
