#!/usr/bin/env python3
"""Time the colex unrank's walk steps against its float-guessed chunks.

For random k-subsets of {0..n-1} with k = n // 5 (or --ratio), prints one
row per (n, seed): the bits of C(n, k), then the best process time of
`bitcodec._unrank` with walk steps only and with chunks tried first. The
two modes alternate call by call, so drift on a shared machine hits both
alike. The crossover moves with k / n; the comment on
`bitcodec._UNRANK_CHUNK_MIN_BITS` quotes rows at several ratios.

    PYTHONPATH=src python3 scripts/colex_sweep.py --best-of 9 --seeds 1 2
"""

import argparse
import math
import random
import sys
import time

from logicast import bitcodec

SIZES = (128, 1024, 2048, 2560, 3072, 3584, 4096, 6000, 8192, 16384)


def best_pair(n: int, members: list[int], best_of: int) -> tuple[float, float]:
    """Best process seconds of the walk-only and the chunked unrank."""
    k = len(members)
    rank = bitcodec.subset_rank(n, members)
    top = math.comb(n - 1, k)
    walk = chunk = math.inf
    for _ in range(best_of):
        for chunks in (False, True):
            start = time.process_time()
            got = bitcodec._unrank(n, k, rank, top, chunks)
            took = time.process_time() - start
            if got != tuple(members):
                raise SystemExit(f"unrank mismatch at n={n}, k={k}, chunks={chunks}")
            if chunks:
                chunk = min(chunk, took)
            else:
                walk = min(walk, took)
    return walk, chunk


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--ratio", type=float, default=0.2, help="k / n")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--best-of", type=int, default=5)
    args = ap.parse_args()
    if not 0 < args.ratio < 1 or args.best_of < 1 or min(args.sizes) < 2:
        ap.error("need 0 < ratio < 1, best-of >= 1 and sizes >= 2")
    print("n\tk\tseed\tbits\twalk_ms\tchunk_ms")
    for n in args.sizes:
        k = max(1, int(n * args.ratio))
        for seed in args.seeds:
            members = sorted(random.Random(seed).sample(range(n), k))
            walk, chunk = best_pair(n, members, args.best_of)
            bits = math.comb(n, k).bit_length()
            print(f"{n}\t{k}\t{seed}\t{bits}\t{walk * 1e3:.3f}\t{chunk * 1e3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
