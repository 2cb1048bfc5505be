#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload sim_linear --seed 1 --seconds 30 --trace 0

Prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``), then, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and the metrics.

The program under test is the ``logicast`` package in ``src/`` of the
checkout that holds this file; the benchmark exits with code 2 before
measuring anything when that package is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("sim_linear", "sim_exact", "cli_roundtrip")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print it as JSON and exit")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        p.error("--seed must fit in 64 bits")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "logicast" / "__init__.py").is_file():
        print(f"error: no logicast package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import harness  # imports numpy and every logicast module

    import_s = perf_counter() - t0
    if args.setup_only:
        return harness.setup_only(args, import_s)
    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
