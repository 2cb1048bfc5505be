#!/usr/bin/env python3
"""Time the linear codec's row draw and elimination on sim_linear's systems.

For each cell of the `sim_linear` benchmark workload (t4 `Nested(0.25,
0.75)`, t4 `Nested(0.1, 0.7)`, t5 `Conditional(0.5, .25, .75, .25, .75)`),
each m and seed, runs one `simlab.run_trials` trial and keeps every
(vector, shared randomness) pair that `linear_encode` receives: one per
non-empty side of the split. For each pair prints one row: the constraint
count k, the rows drawn, J, and the best process time of
`partition._linear_system` (drawing the rows and packing the system) and
of `partition.first_solvable_prefix` on a fresh copy of it. The two
alternate call by call, so drift on a shared machine hits both alike.
Exits 1 if the rows the solver picks, drawn again row by row by
`linear_decode`, miss the target on any constrained cell. ROADMAP item 6
quotes its rows.

    PYTHONPATH=src python3 scripts/linear_sweep.py --m 8 10 12 --best-of 5 --seeds 1 2
"""

import argparse
import math
import sys
import time

import numpy as np

from logicast import partition, protocols, simlab
from logicast.bitcodec import BitReader, Bits, bits_to_int, elias_delta_encode
from logicast.simlab import Conditional, Nested

CELLS = {
    "t4_a": ("t4", Nested(0.25, 0.75)),
    "t4_b": ("t4", Nested(0.1, 0.7)),
    "t5": ("t5", Conditional(0.5, 0.25, 0.75, 0.25, 0.75)),
}


def captured(scenario: str, law, m: int, seed: int) -> list:
    """The (vector, shared) pairs linear_encode gets in one trial."""
    calls = []
    encode = protocols.linear_encode

    def record(x, shared):
        calls.append((x, shared))
        return encode(x, shared)

    protocols.linear_encode = record
    try:
        simlab.run_trials(scenario, law, m, trials=1, codec="linear", seed=seed)
    finally:
        protocols.linear_encode = encode
    return calls


def best_pair(x, shared, best_of: int) -> tuple[int, int, int, float, float]:
    """(k, rows, J, draw s, solve s) of the encoder's first system for x."""
    psi = x.psi()
    ones = (x.entries[psi] == 1).astype("<u8")
    rows = min(psi.size + partition._SURPLUS, partition.J_MAX)
    draw = solve = math.inf
    for _ in range(best_of):
        start = time.process_time()
        system = partition._linear_system(shared.seed, psi, ones, rows)
        draw = min(draw, time.process_time() - start)
        start = time.process_time()
        j, combo = partition.first_solvable_prefix(system, rows)
        solve = min(solve, time.process_time() - start)
    bits = elias_delta_encode(j) + [(combo >> r) & 1 for r in range(j)]
    y = partition.linear_decode(BitReader(Bits(bits_to_int(bits), len(bits))), x.n, shared)
    if not np.array_equal(y[psi], x.entries[psi]):
        raise SystemExit(f"picked rows miss the target: k={psi.size}, seed={shared.seed}")
    return psi.size, rows, j, draw, solve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=range(8, 13))
    ap.add_argument("--cells", nargs="+", choices=CELLS, default=list(CELLS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--best-of", type=int, default=3)
    args = ap.parse_args()
    if args.best_of < 1 or not all(2 <= m <= 14 for m in args.m):
        ap.error("need best-of >= 1 and 2 <= m <= 14")
    print("cell\tm\tseed\tk\trows\tJ\tdraw_ms\tsolve_ms")
    for name in args.cells:
        scenario, law = CELLS[name]
        for m in args.m:
            for seed in args.seeds:
                for x, shared in captured(scenario, law, m, seed):
                    k, rows, j, draw, solve = best_pair(x, shared, args.best_of)
                    print(f"{name}\t{m}\t{seed}\t{k}\t{rows}\t{j}\t"
                          f"{draw * 1e3:.3f}\t{solve * 1e3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
