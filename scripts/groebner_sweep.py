#!/usr/bin/env python3
"""Time Buchberger against the Macaulay-matrix elimination on the same inputs.

For each input family, m and seed, prints one row: the number of
generators, the Macaulay matrix's size in bits (generators · 4^m), the
best process time of `groebner._buchberger` and of `groebner._macaulay`
on the same packed generators, Buchberger's time over the matrix's, and
the path `groebner_basis` picks. The two paths alternate call by call, so
drift on a shared machine hits both alike, and every pair of bases is
checked to be equal. The comment on `groebner._MACAULAY_MAX_BITS` quotes
its rows.

Families: `t3`, the background of `Nested(0.15, 0.5)` (one dense
generator); `single`, the statement of `Single(0.2)`; `five`, five
statements of five monomials of degree at most 3; `sparse`, one generator
of six random monomials; `many`, as many random three-term generators as
the bound admits (one from m = 9 on).

    PYTHONPATH=src python3 scripts/groebner_sweep.py --best-of 5 --seeds 1 2
"""

import argparse
import math
import random
import sys
import time

from logicast import groebner
from logicast.poly import Poly, PolySet
from logicast.simlab import Nested, Single, sample


def _five(m: int, seed: int) -> PolySet:
    rng = random.Random(seed)
    return PolySet(m, frozenset(
        Poly(sum(1 << v for v in rng.sample(range(m), rng.randint(0, min(3, m)))) for _ in range(5))
        for _ in range(5)
    ))


def _sparse(m: int, seed: int) -> PolySet:
    rng = random.Random(seed)
    return PolySet(m, frozenset([Poly(rng.sample(range(1 << m), 6))]))


# The matrix path holds a 4^m-entry count array per generator: 32 MB at m = 11.
M_MAX = 11


def _many(m: int, seed: int) -> PolySet:
    """As many three-term generators as the matrix bound admits."""
    rng = random.Random(seed)
    count = min(max(1, groebner._MACAULAY_MAX_BITS >> 2 * m), math.comb(1 << m, 3))
    polys: set[Poly] = set()
    while len(polys) < count:
        polys.add(Poly(rng.sample(range(1 << m), 3)))
    return PolySet(m, frozenset(polys))


FAMILIES = {
    "t3": lambda m, seed: sample(Nested(0.15, 0.5), m, seed)[1][1],
    "single": lambda m, seed: sample(Single(0.2), m, seed)[1][0],
    "five": _five,
    "sparse": _sparse,
    "many": _many,
}


def best_pair(gens: list[int], m: int, best_of: int) -> tuple[float, float]:
    """Best process seconds of Buchberger and of the Macaulay elimination."""
    best = {groebner._buchberger: math.inf, groebner._macaulay: math.inf}
    bases = {}
    for _ in range(best_of):
        for complete in best:
            start = time.process_time()
            out = complete(gens, m)
            best[complete] = min(best[complete], time.process_time() - start)
            bases[complete] = out.elems
    if bases[groebner._buchberger] != bases[groebner._macaulay]:
        raise SystemExit(f"bases differ at m={m}, generators {gens}")
    return best[groebner._buchberger], best[groebner._macaulay]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=range(4, 11))
    ap.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--best-of", type=int, default=3)
    args = ap.parse_args()
    if args.best_of < 1 or not all(2 <= m <= M_MAX for m in args.m):
        ap.error(f"need best-of >= 1 and 2 <= m <= {M_MAX}")
    print("family\tm\tseed\tgens\tmatrix_bits\tbuchberger_ms\tmacaulay_ms\tspeedup\tpath")
    for family in args.families:
        for m in args.m:
            groebner._tables(m)  # built once, outside the timings
            for seed in args.seeds:
                ps = FAMILIES[family](m, seed)
                gens = sorted(groebner._pack(q, m) for q in ps.polys if not q.is_zero)
                buch, mac = best_pair(gens, m, args.best_of)
                bits = len(gens) << 2 * m
                path = groebner._completion(len(gens), m).__name__.lstrip("_")
                print(f"{family}\t{m}\t{seed}\t{len(gens)}\t{bits}\t{buch * 1e3:.3f}\t"
                      f"{mac * 1e3:.3f}\t{buch / max(mac, 1e-9):.2f}\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
