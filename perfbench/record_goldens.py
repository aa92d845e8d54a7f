"""Record goldens.json: the reference outputs the benchmark checks against.

Run from the root of a checkout whose outputs are the accepted reference:

    python3 perfbench/record_goldens.py

It records the check counts of every sweep window, the CSV digest of every
table and the output digest of every request of the classify universe,
including the tiny inputs of the smoke test.  A later change that alters
an output on purpose must say so and record the goldens again.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ.pop("BN_LOCUS_THREADS", None)

import run  # noqa: E402
import unit  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    regions = {}
    for w in (workloads.REGION_WINDOW, workloads.REGION_TINY):
        res = unit.region_sweep({"window": w})
        if any(op["failure_count"] for op in res["ops"]):
            raise SystemExit(f"sweep failures in {workloads.window_key(w)}: {res['ops']}")
        regions[workloads.window_key(w)] = {op["suite"]: op["checks_run"] for op in res["ops"]}
    tables = {}
    for t in (workloads.TABLE, workloads.TABLE_TINY):
        res = unit.oracle_table({"genus": t[0], "max_rank": t[1]})
        if "error" in res:
            raise SystemExit(f"contradiction in table {t}: {res['error']}")
        tables[workloads.table_key(t)] = res["output_digest"]
    res = unit.classify_stream({"requests": list(range(workloads.UNIVERSE_SIZE))})
    if any(res["exit_codes"]):
        raise SystemExit("a request of the universe exits nonzero")
    goldens = {
        "recorded_at": run.machine(),
        "region-sweep": regions,
        "oracle-table": tables,
        "classify-stream": {"universe_seed": workloads.UNIVERSE_SEED, "digests": res["digests"]},
    }
    with open(HERE / "goldens.json", "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
