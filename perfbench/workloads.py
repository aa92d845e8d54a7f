"""Inputs of the three workloads.

``classify-stream`` takes its request streams from the workload seed: each
unit of a run is a sample of distinct requests from a fixed universe, drawn
from the seed and the unit's index.  ``region-sweep`` and
``oracle-table`` run one fixed window each, whatever the seed: on the
machine the benchmark was tuned on, no two sweep windows or tables could be
found whose time and records per second both agree to within the run-to-run
noise, and a seed that changes the cost would widen the spread of those
metrics across seeds past their bounds.  Every input has a golden output in
``goldens.json``, so the outputs of any seed can be checked.
"""
from __future__ import annotations

import random

WORKLOADS = ("region-sweep", "oracle-table", "classify-stream")

# about 3.5 s on a 2-core Xeon with Python 3.11, sigma taking 80% of it
REGION_WINDOW = {"sigma": (6, 6), "inclusions": (6, 6), "max_den": 8}
REGION_TINY = {"sigma": (4, 4), "inclusions": (4, 4), "max_den": 2}

# (genus, max rank), arbitrary curves, stable bundles: 2,070 rows in about 1.8 s
TABLE = (9, 3)
TABLE_TINY = (3, 1)

CURVES = ("arbitrary", "generic", "hyperelliptic", "nonhyperelliptic")
UNIVERSE_SEED = 20261017
UNIVERSE_SIZE = 4000
STREAM_LENGTH = 1000
STREAM_TINY = 30


def window_key(w: dict) -> str:
    (s_lo, s_hi), (i_lo, i_hi) = w["sigma"], w["inclusions"]
    return f"sigma={s_lo}..{s_hi} inclusions={i_lo}..{i_hi} den={w['max_den']}"


def table_key(t) -> str:
    return f"genus={t[0]} max_rank={t[1]}"


def request_universe() -> list[tuple]:
    """Distinct classify requests (g, n, d, k, curve, semistable), fixed order.

    Genus 3..20, rank 1..6, degree 0..2n(g-1), sections 1..n+d, every curve
    class and both stabilities.
    """
    rng = random.Random(UNIVERSE_SEED)
    seen = {}
    while len(seen) < UNIVERSE_SIZE:
        g = rng.randint(3, 20)
        n = rng.randint(1, 6)
        d = rng.randint(0, 2 * n * (g - 1))
        k = rng.randint(1, n + d)
        req = (g, n, d, k, rng.choice(CURVES), rng.random() < 0.5)
        seen.setdefault(req, None)
    return list(seen)


def request_argv(req) -> list[str]:
    g, n, d, k, curve, semistable = req
    argv = ["classify", "--genus", str(g), "--rank", str(n), "--degree", str(d),
            "--sections", str(k), "--curve", curve, "--json"]
    if semistable:
        argv.append("--semistable")
    return argv


def params(workload: str, seed: int, tiny: bool = False, index: int = 0) -> dict:
    """The generated inputs of unit ``index`` of one workload for one seed."""
    if workload == "region-sweep":
        w = REGION_TINY if tiny else REGION_WINDOW
        return {"window": {k: list(v) if isinstance(v, tuple) else v for k, v in w.items()}}
    if workload == "oracle-table":
        g, n = TABLE_TINY if tiny else TABLE
        return {"genus": g, "max_rank": n}
    if workload == "classify-stream":
        rng = random.Random(f"{workload}:{seed}:{index}")
        return {"requests": rng.sample(range(UNIVERSE_SIZE), STREAM_TINY if tiny else STREAM_LENGTH)}
    raise ValueError(f"unknown workload {workload!r}")
