#!/usr/bin/env python3
"""Run every verification suite at desk scale and print the reports.

Prints the machine (Python version, usable cores, CPU model) first, so the
per-suite timings can be compared across hosts.  Writes JSON reports to
--out-dir when it is given.
"""
import argparse
import json
import os
import pathlib
import platform
import sys
import time

from bnlocus import sweep


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    suites = [sweep.verify_prop_4_11, sweep.verify_teixidor_gap, sweep.verify_inclusions,
              sweep.verify_sigma, sweep.verify_oracle]  # each at its default window
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"machine: python {platform.python_version()}, nproc {nproc}, cpu {cpu_model()!r}")
    reports = []
    all_ok = True
    for verify in suites:
        t0 = time.monotonic()
        rep = verify()
        elapsed = time.monotonic() - t0
        print(f"{rep.summary()}  [{elapsed:.1f}s]")
        reports.append(rep)
        all_ok &= rep.passed

    if args.out_dir:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            path = out_dir / f"report_{rep.suite}.json"
            path.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")
        print(f"wrote {len(reports)} reports to {out_dir}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
