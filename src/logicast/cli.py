"""Command-line surface: encode/decode statement files, prove entailment,
run simulations, print bound tables, emit sweep CSVs.

Exit codes: 0 on success, 1 on a domain failure (including a failed
proof), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .algset import entails
from .errors import LogicastError
from .groebner import entails_groebner
from .poly import PolySet
from .protocols import (
    BACKGROUND_SCENARIOS,
    CODECS,
    PARTITION_SCENARIOS,
    SCENARIOS,
    peek_header,
    read_transmission,
    t1_decode,
    t1_encode,
    t2_decode,
    t2_encode,
    t3_decode,
    t3_encode,
    t4_decode,
    t4_encode,
    t5_decode,
    t5_encode,
)
from .simlab import (
    Conditional,
    Nested,
    Single,
    bounds_table,
    run_trials,
    sweep_lambda_vs_naive,
)
from .statements import parse_statements, render_statements


class _UsageError(Exception):
    """Flag combination rejected before any work happens."""


def _load_statements(path: str, m: int | None) -> PolySet:
    return parse_statements(Path(path).read_text(), m)


def _codec_for(scenario: str, flag: str | None) -> str | None:
    if scenario in PARTITION_SCENARIOS:
        return flag or "linear"
    if flag is not None:
        raise _UsageError(f"{scenario} does not take --codec")
    return None


# ----------------------------------------------------------------- encode

def cmd_encode(args: argparse.Namespace) -> int:
    scenario = args.scenario
    for flag, takers in (("background", BACKGROUND_SCENARIOS), ("query", PARTITION_SCENARIOS)):
        if (scenario in takers) != bool(getattr(args, flag)):
            verb = "needs" if scenario in takers else "does not take"
            raise _UsageError(f"{scenario} {verb} --{flag}")
    codec = _codec_for(scenario, args.codec)

    # the encoders take s, then q, then r: whichever of them the scenario uses
    paths = (args.infile, args.query, args.background)
    operands = [_load_statements(path, args.vars) for path in paths if path]
    encode = {"t1": t1_encode, "t2": t2_encode, "t3": t3_encode,
              "t4": t4_encode, "t5": t5_encode}[scenario]
    kw = {} if codec is None else {"codec": codec}
    tx = encode(*operands, seed=args.seed, **kw)
    Path(args.out).write_bytes(tx.to_bytes())
    print(f"payload_bits={len(tx.payload)}")
    return 0


# ----------------------------------------------------------------- decode

def cmd_decode(args: argparse.Namespace) -> int:
    data = Path(args.infile).read_bytes()
    scenario, _, m = peek_header(data)
    background = ()
    if scenario in BACKGROUND_SCENARIOS:
        if not args.background:
            raise _UsageError(f"{scenario} needs --background to decode")
        background = (_load_statements(args.background, m),)
    tx, _ = read_transmission(data, 0, *background)
    decode = {"t1": t1_decode, "t2": t2_decode, "t3": t3_decode,
              "t4": t4_decode, "t5": t5_decode}[scenario]
    out = decode(tx, *background)
    Path(args.out).write_text(render_statements(out))
    print(f"scenario={scenario}")
    return 0


# ----------------------------------------------------------------- prove

def cmd_prove(args: argparse.Namespace) -> int:
    k = _load_statements(args.knowledge, None)
    q = _load_statements(args.query, None)
    m = max(k.m, q.m, 1)
    # re-wrapping revalidates every term, so only a set below m is re-wrapped
    k, q = (s if s.m == m else PolySet(m, s.polys) for s in (k, q))
    check = entails if args.engine == "brute" else entails_groebner
    if check(k, q):
        print("entailed")
        return 0
    print("not entailed")
    return 1


# ----------------------------------------------------------------- simlab

_LAW_FLAGS = ("ps", "pq", "pr", "ps_in", "pq_in", "ps_out", "pq_out")

# Per scenario: the density flags it takes, and the law they describe.  For
# t2/t3 the natural knobs are the background density --pr and the
# conditional inclusion --ps, so the stored inner marginal is their product.
_LAW_FROM_FLAGS = {
    "t1": (("ps",), lambda a: Single(a.ps)),
    "t2": (("pr", "ps"), lambda a: Nested(a.pr * a.ps, a.pr)),
    "t3": (("pr", "ps"), lambda a: Nested(a.pr * a.ps, a.pr)),
    "t4": (("ps", "pq"), lambda a: Nested(a.ps, a.pq)),
    "t5": (("pr", "ps_in", "pq_in", "ps_out", "pq_out"),
           lambda a: Conditional(a.pr, a.ps_in, a.pq_in, a.ps_out, a.pq_out)),
}


def _law_from_flags(scenario: str, args: argparse.Namespace):
    """Map decimal CLI densities onto a law, refusing missing or foreign flags."""
    wanted, build = _LAW_FROM_FLAGS[scenario]
    for name in _LAW_FLAGS:
        given = getattr(args, name) is not None
        if given and name not in wanted:
            raise _UsageError(f"{scenario} does not take --{name.replace('_', '-')}")
        if not given and name in wanted:
            raise _UsageError(f"{scenario} needs --{name.replace('_', '-')}")
    return build(args)


def cmd_simulate(args: argparse.Namespace) -> int:
    codec = _codec_for(args.scenario, args.codec)
    law = _law_from_flags(args.scenario, args)
    rep = run_trials(args.scenario, law, args.m, trials=args.trials,
                     codec=codec, seed=args.seed)
    print(rep.to_text(), end="")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    codec = _codec_for(args.scenario, args.codec)
    law = _law_from_flags(args.scenario, args)
    rep = bounds_table(args.scenario, law, args.m, codec=codec)
    lines = rep.lines()
    if args.scenario in PARTITION_SCENARIOS:
        lines.append(f"lambda={rep.lower_bound:.6f}")
    print("\n".join(lines))
    return 0


_GRID_MAX = 1001  # points per sweep axis; the CSV has up to about half its square


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError("grid must look like start:step:stop")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"grid {spec!r} is not numeric") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise _UsageError(f"grid {spec!r} is not finite")
    if step <= 0 or stop < start:
        raise _UsageError("grid must increase from start to stop")
    count = int(round((stop - start) / step)) + 1
    if count > _GRID_MAX:
        raise _UsageError(f"grid {spec!r} has {count} points, more than {_GRID_MAX}")
    axis = [round(start + i * step, 12) for i in range(count)]
    return [a for a in axis if a <= stop + 1e-12]


def cmd_sweep(args: argparse.Namespace) -> int:
    axis = _parse_grid(args.grid)
    pairs = [(a, b) for a in axis for b in axis if a + b <= 1.0]
    print(sweep_lambda_vs_naive(pairs, n=args.n), end="")
    return 0


# ----------------------------------------------------------------- parser

def _add_law_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ps", type=float, help="density of Z(s); conditional for t2/t3")
    sub.add_argument("--pq", type=float, help="density of Z(q) (t4)")
    sub.add_argument("--pr", type=float, help="density of Z(r) (t2/t3/t5)")
    sub.add_argument("--ps-in", type=float, help="density of s inside Z(r) (t5)")
    sub.add_argument("--pq-in", type=float, help="density of q inside Z(r) (t5)")
    sub.add_argument("--ps-out", type=float, help="density of s outside Z(r) (t5)")
    sub.add_argument("--pq-out", type=float, help="density of q outside Z(r) (t5)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logicast",
        description="Transmit propositional knowledge near its entropy.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="encode a statement file")
    enc.add_argument("--scenario", required=True, choices=SCENARIOS)
    enc.add_argument("--in", dest="infile", required=True, metavar="S.LOGIC")
    enc.add_argument("--background", metavar="R.LOGIC",
                     help="shared background (t2/t3/t5)")
    enc.add_argument("--query", metavar="Q.LOGIC", help="query density (t4/t5)")
    enc.add_argument("--vars", type=int, required=True, metavar="M")
    enc.add_argument("--codec", choices=CODECS,
                     help="partition codec (t4/t5, default linear)")
    enc.add_argument("--seed", type=int, default=0)
    enc.add_argument("--out", required=True, metavar="TX.BIN")
    enc.set_defaults(func=cmd_encode)

    dec = subs.add_parser("decode", help="decode a transmission file")
    dec.add_argument("--in", dest="infile", required=True, metavar="TX.BIN")
    dec.add_argument("--background", metavar="R.LOGIC",
                     help="required for t2/t3/t5 transmissions")
    dec.add_argument("--out", required=True, metavar="SHAT.LOGIC")
    dec.set_defaults(func=cmd_decode)

    prv = subs.add_parser("prove", help="check entailment between files")
    prv.add_argument("--knowledge", required=True, metavar="K.LOGIC")
    prv.add_argument("--query", required=True, metavar="Q.LOGIC")
    prv.add_argument("--engine", choices=("brute", "groebner"), default="brute")
    prv.set_defaults(func=cmd_prove)

    sim = subs.add_parser("simulate", help="Monte-Carlo rate measurement")
    sim.add_argument("--scenario", required=True, choices=SCENARIOS)
    sim.add_argument("--m", type=int, default=12)
    sim.add_argument("--trials", type=int, default=200)
    sim.add_argument("--codec", choices=CODECS)
    sim.add_argument("--seed", type=int, default=0)
    _add_law_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    bnd = subs.add_parser("bounds", help="print analytic rate bounds")
    bnd.add_argument("--scenario", required=True, choices=SCENARIOS)
    bnd.add_argument("--m", type=int, default=12)
    bnd.add_argument("--codec", choices=CODECS)
    _add_law_flags(bnd)
    bnd.set_defaults(func=cmd_bounds)

    swp = subs.add_parser("sweep", help="CSV of Lambda against naive rates")
    swp.add_argument("--grid", required=True, metavar="START:STEP:STOP")
    swp.add_argument("--n", type=int, default=4096,
                     help="block length for the finite-n linear rate")
    swp.set_defaults(func=cmd_sweep)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except LogicastError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
