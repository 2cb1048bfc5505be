#!/usr/bin/env python3
"""Layer sweeps: one tab-separated row per input, times in ms.

    PYTHONPATH=src python3 scripts/sweep.py <layer> [sizes ...] [options]

The four timed layers take best process times over --best-of rounds, each
round calling every timed function once in turn, so drift on a shared
machine hits them all alike. Each layer checks its results and exits 1
with a message on the first mismatch.

* ``ranked [n ...]``: for random k-subsets of {0..n-1}, k = n * --ratio, the
  bits of C(n, k), then the rank and unrank of the halving order that
  ranked payloads of codec id 3 carry (`bitcodec.subset_rank` and
  `bitcodec.subset_unrank`), the colex unrank that codec id 0 still takes
  (`bitcodec.colex_unrank`), fed the subset's colex rank from a slow
  oracle, then `math.comb(n, k)` and `bitcodec.binom(n, k)`. Exits 1 if an
  unrank misses its subset or binom differs from math.comb.
* ``roundtrip [m ...]``: in-process t1 round trips of `Single(0.2)` and t2
  round trips of `Nested(0.125, 0.5)` (`simlab.sample`): the candidates n
  and members k, the payload bits, then `protocols` encode and decode.
  Exits 1 if a decoded zero set differs from the sampled one.
* ``groebner [m ...]``: per input family, the generators, the Macaulay
  matrix's bits (generators · 4^m), `groebner._buchberger` and
  `groebner._macaulay` on the same packed generators, the first's time over
  the second's, and the path `groebner_basis` picks. Exits 1 if the two
  bases differ. Families: `t3`, the background of `Nested(0.15, 0.5)` (one
  dense generator); `single`, the statement of `Single(0.2)`; `five`, five
  statements of five monomials of degree at most 3; `sparse`, one
  generator of six random monomials; `many`, as many random three-term
  generators as `_MACAULAY_MAX_BITS` admits (one from m = 9 on).
* ``linear [m ...]``: for every (vector, shared randomness) pair that
  `linear_encode` receives in one `simlab.run_trials` trial of each
  `sim_linear` cell, the constraint count k, the rows drawn, J, then
  `partition._linear_system` (drawing and packing the system) and
  `partition.first_solvable_prefix` on the system just drawn, then
  `step_us`, the solve time over its ceil(J / 8) eight-column steps: the
  per-step cost, which numpy's fixed cost per call sets at m <= 12 and the
  row tiles each step looks up and XORs set from m = 13 on. Exits 1 if the
  picked rows, drawn again by `linear_decode`, miss the target.
* ``poly [m ...]``: for a point set of `Single(0.2)` (`simlab.sample`), its
  points, its polynomial's terms, then `algset.zeros`, `algset.reconstruct`,
  `render_statements` and `parse_statements` on the rendered file, on it
  with blank runs and tabs around every operator (`parse_padded_ms`) and on
  SHORT_LINES canonical lines of one to four terms of degree at most three
  (`parse_lines_ms`); then `parse_statements` on FORMULA_LINES random
  formula lines over x1..x12 (`formula_lines`) and, last, on SHORT_LINES
  raw lines over x1..x12 that the bulk pass refuses, each spelling one
  short canonical line with x0<i> factors, 1 factors, a 0 term and a
  comment (`raw_lines`). `parse_peak_x` is the `tracemalloc` peak of
  one warm parse of the rendered file over its bytes: the parse's
  footprint, which a cold parse exceeds by the per-thread rows it grows.
  The m=12 row parses and renders the same law at the same size as
  cli_roundtrip's t1 files. Exits 1 if zeros(reconstruct(a)) != a, or a
  file parses to another set (the raw lines: than their canonical lines).
* ``rates``: the rate report of every `simlab.DEFAULT_MATRIX` cell, with
  its wall seconds.
* ``write``: the cli_roundtrip benchmark loop in process with
  `cli._write_output` swapped, in blocks of cycles, between four ways to
  replace a file: truncate on open, in place then `os.ftruncate` (the
  CLI's writer), a temporary file then `os.replace`, and unlink then
  create. Per writer the writes, their p50 and p90 wall µs (the first
  cycle of each block, which follows another writer, left out), then the
  volume written: its path, device, mount point, filesystem and options.

    PYTHONPATH=src python3 scripts/sweep.py ranked 8192 16384 --best-of 9 --seeds 1 2
    PYTHONPATH=src python3 scripts/sweep.py poly 12 14 16 --best-of 15
"""

import argparse
import math
import os
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from logicast import bitcodec, groebner, partition, protocols, simlab
from logicast.algset import reconstruct, zeros
from logicast.bitcodec import BitReader, Bits, bits_to_int, elias_delta_encode
from logicast.poly import Poly, PolySet
from logicast.simlab import DEFAULT_MATRIX, Conditional, Nested, Single, run_trials, sample
from logicast.statements import parse_statements, poly_to_text, render_statements

ROOT = Path(__file__).resolve().parents[1]


def timed(calls, best_of: int) -> tuple[list[float], list]:
    """Best process ms of each call over best_of rounds that make every
    call in turn, and the last round's results."""
    best = [math.inf] * len(calls)
    for _ in range(best_of):
        out = []
        for i, call in enumerate(calls):
            start = time.process_time()
            out.append(call())
            best[i] = min(best[i], time.process_time() - start)
    return [t * 1e3 for t in best], out


def check(ok: bool, message: str) -> None:
    """Every layer's mismatch exits 1 here, with its message."""
    if not ok:
        raise SystemExit(message)


# ------------------------------------------------------------------ ranked

def _colex_rank(members: list[int]) -> int:
    """Oracle: the sum of C(v_i, i + 1) over sorted members. Each term after
    the first nonzero one is the last times C(u, i + 1) / C(v, i), an exact
    quotient of small products."""
    rank = term = 0
    for i, u in enumerate(members):
        if term:
            term = term * math.perm(u, u - v) // ((i + 1) * math.perm(u - i - 1, u - v - 1))
        elif u > i:
            term = math.comb(u, i + 1)
        rank += term
        v = u
    return rank


def _ranked(args):
    # a source tree from before codec id 3 has no colex_unrank: its
    # subset_rank and subset_unrank are the colex pair
    colex_unrank = getattr(bitcodec, "colex_unrank", bitcodec.subset_unrank)
    for n in args.sizes:
        k = max(1, int(n * args.ratio))
        for seed in args.seeds:
            members = sorted(random.Random(seed).sample(range(n), k))
            rank, colex = bitcodec.subset_rank(n, members), _colex_rank(members)
            ms, (_, back, old, comb, binom) = timed([
                lambda: bitcodec.subset_rank(n, members),
                lambda: bitcodec.subset_unrank(n, k, rank),
                lambda: colex_unrank(n, k, colex),
                lambda: math.comb(n, k),
                lambda: bitcodec.binom(n, k),
            ], args.best_of)
            check(back == tuple(members), f"round trip misses its subset at n={n}, k={k}")
            check(old == tuple(members), f"colex unrank misses its subset at n={n}, k={k}")
            check(comb == binom, f"binom({n}, {k}) differs from math.comb")
            yield n, k, seed, comb.bit_length(), *ms


ROUND_TRIPS = {
    "t1": (Single(0.2), lambda s, r: protocols.t1_encode(s), lambda tx, r: protocols.t1_decode(tx)),
    "t2": (Nested(0.125, 0.5), protocols.t2_encode, protocols.t2_decode),
}


def _roundtrip(args):
    for scenario, (law, encode, decode) in ROUND_TRIPS.items():
        for m in args.sizes:
            for seed in args.seeds:
                zero_sets, (s, *r) = sample(law, m, seed)
                r = r[0] if r else None
                tx = encode(s, r)
                ms, (_, back) = timed([lambda: encode(s, r), lambda: decode(tx, r)], args.best_of)
                check(zeros(back) == zero_sets[0], f"{scenario} round trip differs at m={m}")
                n = zero_sets[1].size if r else 1 << m
                yield scenario, m, seed, n, zero_sets[0].size, len(tx.payload), *ms


# ---------------------------------------------------------------- groebner

def _five(m: int, seed: int) -> PolySet:
    rng = random.Random(seed)
    return PolySet(m, frozenset(
        Poly(sum(1 << v for v in rng.sample(range(m), rng.randint(0, min(3, m)))) for _ in range(5))
        for _ in range(5)
    ))


def _many(m: int, seed: int) -> PolySet:
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
    "sparse": lambda m, seed: PolySet(m, frozenset([Poly(random.Random(seed).sample(range(1 << m), 6))])),
    "many": _many,
}


def _groebner(args):
    for family in args.families:
        for m in args.sizes:
            groebner._tables(m)  # built once, outside the timings
            for seed in args.seeds:
                ps = FAMILIES[family](m, seed)
                gens = sorted(groebner._pack(q, m) for q in ps.polys if not q.is_zero)
                (buch, mac), (b, c) = timed([lambda: groebner._buchberger(gens, m),
                                             lambda: groebner._macaulay(gens, m)], args.best_of)
                check(b.elems == c.elems, f"bases differ at m={m}, generators {gens}")
                path = groebner._completion(len(gens), m).__name__.lstrip("_")
                yield (family, m, seed, len(gens), len(gens) << 2 * m, buch, mac,
                       f"{buch / max(mac, 1e-6):.2f}", path)


# ------------------------------------------------------------------ linear

CELLS = {
    "t4_a": ("t4", Nested(0.25, 0.75)),
    "t4_b": ("t4", Nested(0.1, 0.7)),
    "t5": ("t5", Conditional(0.5, 0.25, 0.75, 0.25, 0.75)),
}


def _captured(scenario: str, law, m: int, seed: int) -> list:
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


def _linear(args):
    for name in args.cells:
        scenario, law = CELLS[name]
        for m in args.sizes:
            for seed in args.seeds:
                for x, shared in _captured(scenario, law, m, seed):
                    psi = x.psi()
                    ones = (x.entries[psi] == 1).astype("<u8")
                    rows = min(psi.size + partition._SURPLUS, partition.J_MAX)
                    system = []
                    (draw, solve), (_, (j, combo)) = timed([
                        lambda: system.append(partition._linear_system(shared.seed, psi, ones, rows)),
                        lambda: partition.first_solvable_prefix(system.pop(), rows),
                    ], args.best_of)
                    bits = elias_delta_encode(j) + [(combo >> r) & 1 for r in range(j)]
                    y = partition.linear_decode(BitReader(Bits(bits_to_int(bits), len(bits))), x.n, shared)
                    check(np.array_equal(y[psi], x.entries[psi]),
                          f"picked rows miss the target: k={psi.size}, seed={shared.seed}")
                    yield name, m, seed, psi.size, rows, j, draw, solve, solve * 1e3 / -(-j // 8)


# -------------------------------------------------------------------- poly

DENSITY = 0.2
FORMULA_LINES = 2000
SHORT_LINES = 2000
# blank runs and tabs put around each operator of a rendered file
PADS = {" + ": " \t+  ", "*": "\t* ", " = ": "  =\t "}


def _formula(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return ("NOT " if rng.random() < 0.3 else "") + f"x{rng.randint(1, 12)}"
    op = rng.choice(["AND", "OR", "XOR", "IMPLIES"])
    return f"({_formula(rng, depth - 1)} {op} {_formula(rng, depth - 1)})"


def poly_files(m: int, seed: int) -> dict[str, tuple[str, object]]:
    """The three statement files the poly layer parses at (m, seed), each
    with the set it states: the rendered one, it padded, and SHORT_LINES
    short canonical lines (seeded by m alone)."""
    ps = sample(Single(DENSITY), m, seed)[1][0]
    text = render_statements(ps)
    padded = text
    for op, pad in PADS.items():
        padded = padded.replace(op, pad)
    polys = _short_polys(m)
    lines = "".join(f"{poly_to_text(q)} = 0\n" for q in polys)
    return {"rendered": (text, ps), "padded": (padded, ps),
            "many-line": (lines, PolySet(m, frozenset(polys)))}


def _short_polys(m: int) -> list[Poly]:
    """SHORT_LINES nonzero polynomials of one to four terms of degree at most
    three over x1..xm, seeded by m."""
    rng = random.Random(m)
    polys = []
    while len(polys) < SHORT_LINES:
        q = Poly(sum(1 << v for v in rng.sample(range(m), rng.randint(0, min(3, m))))
                 for _ in range(rng.randint(1, 4)))
        if not q.is_zero:
            polys.append(q)
    return polys


def _raw_line(rng: random.Random, q: Poly, m: int) -> str:
    """A raw line of q that only the tokenizer reads, such as
    `x03*x7 + x5*0 + x2 + 1 = 0 # c`: some factors spelled x0<i>, a 1 factor
    in some terms, a term with a 0 factor, and a comment."""
    terms = []
    for t in q.terms.tolist():
        factors = [f"x0{v + 1}" if rng.random() < 0.3 else f"x{v + 1}"
                   for v in range(m) if t >> v & 1]
        if not factors or rng.random() < 0.3:
            factors.append("1")
        terms.append("*".join(factors))
    terms.insert(rng.randint(0, len(terms)), f"x{rng.randint(1, m)}*0")
    return " + ".join(terms) + " = 0 # c"


def _parse_peak_x(text: str, m: int) -> float:
    """Traced peak of one warm `parse_statements` of text over its bytes."""
    parse_statements(text, m)
    tracemalloc.start()
    try:
        parse_statements(text, m)
        return tracemalloc.get_traced_memory()[1] / len(text.encode())
    finally:
        tracemalloc.stop()


def _poly(args):
    for m in args.sizes:
        for seed in args.seeds:
            (a,), (ps,) = sample(Single(DENSITY), m, seed)
            (q,) = ps.polys
            files = poly_files(m, seed)
            ms, (z, back, _, *parsed) = timed([
                lambda: zeros(ps), lambda: reconstruct(a), lambda: render_statements(ps),
                *(lambda t=text: parse_statements(t, m) for text, _ in files.values()),
            ], args.best_of)
            check(z == a and back == ps, f"zeros(reconstruct(a)) != a at m={m}, seed={seed}")
            for (name, (_, want)), got in zip(files.items(), parsed):
                check(got == want, f"{name} file parses to another set at m={m}, seed={seed}")
            yield m, seed, a.size, q.terms.size, *ms, _parse_peak_x(files["rendered"][0], m)
    rng = random.Random(2000)
    tails = ["", " is TRUE", " is FALSE"]
    text = "".join(f"{_formula(rng, 3)}{rng.choice(tails)}\n" for _ in range(FORMULA_LINES))
    (ms,), _ = timed([lambda: parse_statements(text)], args.best_of)
    yield "formula_lines", FORMULA_LINES, "parse_ms", ms
    polys = _short_polys(12)
    text = "".join(f"{_raw_line(rng, q, 12)}\n" for q in polys)
    want = parse_statements("".join(f"{poly_to_text(q)} = 0\n" for q in polys), 12)
    (ms,), (got,) = timed([lambda: parse_statements(text, 12)], args.best_of)
    check(got == want, "raw lines parse to another set than their canonical lines")
    yield "raw_lines", len(polys), "parse_ms", ms


# ------------------------------------------------------------------- rates

def _rates(args):
    for scenario, law, m, codec, trials in DEFAULT_MATRIX:
        start = time.perf_counter()
        rep = run_trials(scenario, law, m, trials=args.trials or trials, codec=codec, seed=args.seed)
        yield f"{rep.to_text()}seconds={time.perf_counter() - start:.1f}\n"


# ------------------------------------------------------------------- write

def _write_truncating(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_replacing(path: str, data: bytes) -> None:
    _write_truncating(path + ".tmp", data)
    os.replace(path + ".tmp", path)


def _write_recreating(path: str, data: bytes) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    _write_truncating(path, data)


def _mount_of(path: Path) -> tuple[str, str, str, str]:
    """Device, mount point, filesystem type and options of the mount holding `path`."""
    best = ("unknown",) * 4
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                dev, point, fstype, opts = line.split()[:4]
                point = point.replace("\\040", " ")
                inside = str(path) == point or str(path).startswith(point.rstrip("/") + "/")
                if inside and (best[1] == "unknown" or len(point) > len(best[1])):
                    best = (dev, point, fstype, opts)
    except OSError:
        pass
    return best


def _write(args):
    sys.path.insert(0, str(ROOT / "bench"))
    import harness  # the benchmark's cli_roundtrip workload
    from logicast import cli
    from logicast.randomness import derive_seed

    ways = {"truncate on open": _write_truncating, "in place + ftruncate": cli._write_output,
            "temp + os.replace": _write_replacing, "unlink + create": _write_recreating}
    times = {name: [] for name in ways}
    workload = harness.make_workload("cli_roundtrip")
    workload.setup(args.seed)
    ncells = len(workload.cells)
    for c in range(args.cycles):
        name = list(ways)[c // args.block % len(ways)]
        for k in range(ncells):
            i = c * ncells + k

            def timed_write(path, data, write=ways[name], sink=times[name], warm=c % args.block > 0):
                t = time.perf_counter()
                write(path, data)
                if warm:
                    sink.append((time.perf_counter() - t) * 1e6)

            cli._write_output = timed_write
            try:
                workload.check(k, c, i, workload.op(k, c, i, derive_seed(args.seed, i)))
            finally:
                cli._write_output = ways["in place + ftruncate"]
    for name, ts in times.items():
        yield name, len(ts), statistics.median(ts), statistics.quantiles(ts, n=10)[-1]
    volume = harness.OUT.resolve()
    yield "volume", volume, *_mount_of(volume)


# -------------------------------------------------------------------- main

# layer: (rows, header, default sizes, smallest and largest size, default best-of)
TIMED = {
    "ranked": (_ranked, "n\tk\tseed\tbits\trank_ms\tunrank_ms\tcolex_unrank_ms\tcomb_ms\tbinom_ms",
               (128, 1024, 4096, 8192, 16384, 65536), 2, math.inf, 5),
    "roundtrip": (_roundtrip, "scenario\tm\tseed\tn\tk\tpayload_bits\tencode_ms\tdecode_ms",
                  (12, 14, 16), 1, 24, 5),
    # the matrix path holds a 4^m-entry count array per generator: 32 MB at m = 11
    "groebner": (_groebner, "family\tm\tseed\tgens\tmatrix_bits\tbuchberger_ms\tmacaulay_ms"
                 "\tspeedup\tpath", range(4, 11), 2, 11, 3),
    "linear": (_linear, "cell\tm\tseed\tk\trows\tJ\tdraw_ms\tsolve_ms\tstep_us", range(8, 13), 2, 14, 3),
    "poly": (_poly, "m\tseed\tpoints\tterms\tzeros_ms\treconstruct_ms\trender_ms\tparse_ms"
             "\tparse_padded_ms\tparse_lines_ms\tparse_peak_x", range(8, 17), 1, 20, 5),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = ap.add_subparsers(dest="layer", required=True)
    for name, (rows, header, sizes, lo, hi, best_of) in TIMED.items():
        p = subs.add_parser(name, help="columns: " + ", ".join(header.split("\t")))
        p.add_argument("sizes", type=int, nargs="*", default=list(sizes),
                       help=f"{'n' if name == 'ranked' else 'm'} values from {lo}"
                       + (f" to {hi}" if hi < math.inf else ""))
        p.add_argument("--seeds", type=int, nargs="+", default=[1])
        p.add_argument("--best-of", type=int, default=best_of)
        p.set_defaults(rows=rows, header=header, lo=lo, hi=hi)
    subs.choices["ranked"].add_argument("--ratio", type=float, default=0.2, help="k / n")
    subs.choices["groebner"].add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    subs.choices["linear"].add_argument("--cells", nargs="+", choices=CELLS, default=list(CELLS))
    p = subs.add_parser("rates", help="rate report per default matrix cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None, help="override the per-cell trial counts")
    p.set_defaults(rows=_rates, header=None)
    p = subs.add_parser("write", help="the CLI's per-write cost against three other writers")
    p.add_argument("--seed", type=int, default=2626)
    p.add_argument("--cycles", type=int, default=400)
    p.add_argument("--block", type=int, default=25, help="cycles per writer in turn")
    p.set_defaults(rows=_write, header="writer\twrites\tp50_us\tp90_us")
    args = ap.parse_args(argv)
    if args.layer in TIMED and (args.best_of < 1 or not all(args.lo <= s <= args.hi for s in args.sizes)):
        ap.error(f"need best-of >= 1 and sizes in {args.lo}..{args.hi}")
    if args.layer == "ranked" and not 0 < args.ratio < 1:
        ap.error("need 0 < ratio < 1")
    if args.layer == "write" and not 2 <= args.block <= args.cycles // 4:
        ap.error("need 2 <= block <= cycles / 4, so that each of the four writers has warm writes")
    if args.header:
        print(args.header)
    for row in args.rows(args):
        print(row if isinstance(row, str) else
              "\t".join(f"{v:.3f}" if isinstance(v, float) else str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
