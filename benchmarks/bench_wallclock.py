#!/usr/bin/env python
"""Host-dependent wall-clock gates: the one front door to repro.bench.perf.

Unlike the figure benches (scientific output = *simulated* time) and the
layered benchmark (``BENCHMARK.json``: every other wall-clock number,
compared between commits), this script runs the four gates that need a
particular host to witness — ``workers``, ``kernel_backend``,
``kernel_backend_parallel``, ``campaign`` — and writes a
``BENCH_wallclock.json`` whose entries are self-normalised ratios of two
current code paths run back-to-back on this machine.  A gate this host
cannot witness (too few cores, no numba) is recorded as a skipped entry
with no numbers in it.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --out BENCH_wallclock.json
    PYTHONPATH=src python benchmarks/bench_wallclock.py --only campaign
    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --require-live workers --require-live campaign          # CI mode

Exit status is non-zero if a live entry misses its gate, an audit is
false, or a ``--require-live`` kind was skipped.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.bench import perf  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_wallclock.json")
    ap.add_argument(
        "--require-live", metavar="KIND", action="append", default=[],
        choices=list(perf.DRIVERS),
        help="fail if the entry of this kind was skipped instead of "
        "running its gate (e.g. --require-live workers on a CI runner "
        "that is known to have >= 4 cores); repeatable",
    )
    ap.add_argument(
        "--only", metavar="KIND", default=None, choices=list(perf.DRIVERS),
        help="run only the driver of this kind (e.g. --only campaign)",
    )
    args = ap.parse_args(argv)

    print("wall-clock host gates:")
    doc = perf.run_suite(only=args.only)
    perf.save_bench(doc, args.out)
    print(f"wrote {args.out}")

    failures = perf.check_gates(doc)
    for kind in args.require_live:
        for e in doc["entries"]:
            if e["kind"] == kind and e.get("gate_skipped"):
                failures.append(
                    f"{e['name']}: gate skipped ({e['gate_skipped']}) but "
                    f"--require-live {kind} demands it runs on this host"
                )
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("all gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
