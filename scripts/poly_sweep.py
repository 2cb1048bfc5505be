#!/usr/bin/env python3
"""Time the polynomial <-> zero-set conversions and the statement text path.

For each m and seed, samples one point set from `Single(DENSITY)` with
`simlab.sample` and prints one row: its points, the terms of its canonical
polynomial, and the best process time of `algset.zeros`,
`algset.reconstruct`, `statements.render_statements` and
`statements.parse_statements` on it. Two more parse times follow: of the
rendered file with blank runs and tabs around every operator
(`parse_padded_ms`), and of a file of SHORT_LINES canonical lines over
x1..xm, one to four terms of degree at most three each (`parse_lines_ms`,
fixed seed). Then prints the best time of `parse_statements` on a file of
FORMULA_LINES random formula lines over x1..x12 (fixed seed), the path
whose connectives run on sets of masks. Exits 1 if
`zeros(reconstruct(a)) != a`, or if a rendered, padded or many-line file
does not parse back to the same PolySet.

    PYTHONPATH=src python3 scripts/poly_sweep.py --m 8 10 12 14 16 --best-of 5 --seeds 1 2
"""

import argparse
import math
import random
import sys
import time

from logicast.algset import reconstruct, zeros
from logicast.poly import Poly, PolySet
from logicast.simlab import Single, sample
from logicast.statements import parse_statements, poly_to_text, render_statements

DENSITY = 0.2
FORMULA_LINES = 2000
SHORT_LINES = 2000
# blank runs and tabs put around each operator of a rendered file
PADS = {" + ": " \t+  ", "*": "\t* ", " = ": "  =\t "}


def best(fn, arg, best_of: int) -> tuple[float, object]:
    """Best process seconds of fn(arg) over best_of calls, and its result."""
    took = math.inf
    for _ in range(best_of):
        start = time.process_time()
        out = fn(arg)
        took = min(took, time.process_time() - start)
    return took, out


def formula(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return ("NOT " if rng.random() < 0.3 else "") + f"x{rng.randint(1, 12)}"
    op = rng.choice(["AND", "OR", "XOR", "IMPLIES"])
    return f"({formula(rng, depth - 1)} {op} {formula(rng, depth - 1)})"


def formula_file(lines: int) -> str:
    rng = random.Random(2000)
    tail = ["", " is TRUE", " is FALSE"]
    return "".join(f"{formula(rng, 3)}{rng.choice(tail)}\n" for _ in range(lines))


def padded(text: str) -> str:
    for op, pad in PADS.items():
        text = text.replace(op, pad)
    return text


def short_lines(m: int, lines: int) -> tuple[str, PolySet]:
    """A file of `lines` canonical lines over x1..xm (fixed seed), each of
    one to four terms of degree at most three, and the set it states."""
    rng = random.Random(m)
    polys = []
    while len(polys) < lines:
        q = Poly(sum(1 << v for v in rng.sample(range(m), rng.randint(0, min(3, m))))
                 for _ in range(rng.randint(1, 4)))
        if not q.is_zero:
            polys.append(q)
    text = "".join(f"{poly_to_text(q)} = 0\n" for q in polys)
    return text, PolySet(m, frozenset(polys))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=range(8, 17))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--best-of", type=int, default=5)
    args = ap.parse_args()
    if args.best_of < 1 or not all(1 <= m <= 20 for m in args.m):
        ap.error("need best-of >= 1 and 1 <= m <= 20")
    print("m\tseed\tpoints\tterms\tzeros_ms\treconstruct_ms\trender_ms\tparse_ms"
          "\tparse_padded_ms\tparse_lines_ms")
    for m in args.m:
        for seed in args.seeds:
            (a,), (ps,) = sample(Single(DENSITY), m, seed)
            (q,) = ps.polys
            t_zeros, z = best(zeros, ps, args.best_of)
            t_rec, back = best(reconstruct, a, args.best_of)
            if z != a or back != ps:
                print(f"zeros(reconstruct(a)) != a at m={m}, seed={seed}", file=sys.stderr)
                return 1
            t_render, text = best(render_statements, ps, args.best_of)
            t_parse, parsed = best(lambda t: parse_statements(t, m), text, args.best_of)
            t_padded, parsed_padded = best(lambda t: parse_statements(t, m), padded(text),
                                           args.best_of)
            many_text, many = short_lines(m, SHORT_LINES)
            t_lines, parsed_lines = best(lambda t: parse_statements(t, m), many_text,
                                         args.best_of)
            for name, got, want in (("rendered", parsed, ps), ("padded", parsed_padded, ps),
                                    ("many-line", parsed_lines, many)):
                if got != want:
                    print(f"{name} file parses to another set at m={m}, seed={seed}",
                          file=sys.stderr)
                    return 1
            print(f"{m}\t{seed}\t{a.size}\t{q.terms.size}\t{t_zeros * 1e3:.3f}\t"
                  f"{t_rec * 1e3:.3f}\t{t_render * 1e3:.3f}\t{t_parse * 1e3:.3f}\t"
                  f"{t_padded * 1e3:.3f}\t{t_lines * 1e3:.3f}")
    t_formula, _ = best(parse_statements, formula_file(FORMULA_LINES), args.best_of)
    print(f"formula_lines\t{FORMULA_LINES}\tparse_ms\t{t_formula * 1e3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
