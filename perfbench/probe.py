"""Host-speed probe and import timing, run in a fresh interpreter by run.py.

Prints one JSON line with four timings: three fixed pieces of reference
work, and then ``import bnlocus, bnlocus.cli``.  The reference work uses the
standard library only, runs before the package is imported and with the
cyclic garbage collector off, so its time depends on the host's speed and
not on the program under test.  The pieces stand for the kinds of work the
workloads do: ``loop`` is tight ``Fraction`` arithmetic on a few objects,
``scatter`` builds and reads back some megabytes of ``Fraction`` objects and
dict entries in a scattered order, and ``parse`` builds ``argparse``
parsers and formats JSON.  The shared host speeds these up by different
amounts, so run.py scales the program's timings by all three, taken around
them; see NOTES.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from fractions import Fraction

LOOP_STEPS = 12_000
SCATTER_SIZE = 40_000
KEY_SPACE = 1_000_003  # prime, so the multiplied keys below are distinct
PARSERS = 60


def loop() -> None:
    acc = Fraction(0)
    seen = {}
    for i in range(1, LOOP_STEPS):
        x = Fraction(i % 97, i % 13 + 1)
        acc = acc - x / 3 if x < acc else acc + x
        seen[(i % 50, i % 7)] = x


def scatter() -> None:
    n = SCATTER_SIZE
    data = [Fraction(i, i % 7 + 1) for i in range(n)]
    table = {(i * 7919) % KEY_SPACE: data[i] for i in range(n)}
    below = 0
    for k in range(n):
        if data[(k * 2654435761) % n] < table[(k * 7919) % KEY_SPACE]:
            below += 1


def parse() -> None:
    for i in range(PARSERS):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for name in ("classify", "verify", "enumerate", "plot"):
            cmd = sub.add_parser(name)
            for option in ("--genus", "--rank", "--degree", "--sections"):
                cmd.add_argument(option, type=int, default=0)
            cmd.add_argument("--curve", choices=("a", "b", "c", "d"))
            cmd.add_argument("--json", action="store_true")
        args = parser.parse_args(["classify", "--genus", str(i), "--rank", "2", "--json"])
        json.dumps(vars(args), sort_keys=True)


def seconds(work) -> float:
    """Seconds taken by one piece of reference work, with the cyclic garbage
    collector off."""
    gc.disable()
    try:
        t = time.perf_counter()
        work()
        return time.perf_counter() - t
    finally:
        gc.enable()


def main() -> int:
    out = {"loop_s": seconds(loop), "scatter_s": seconds(scatter), "parse_s": seconds(parse)}
    t = time.perf_counter()
    import bnlocus  # noqa: F401
    import bnlocus.cli  # noqa: F401
    out["import_s"] = time.perf_counter() - t
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
