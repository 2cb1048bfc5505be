#!/usr/bin/env python3
"""A/B of two checkouts: the benchmark end to end, traced, and layer sweeps.

    python3 scripts/ab.py --parent ../parent --parent-rev <sha> --layer "<what changed>" \\
        --pairs cli_roundtrip=10 sim_exact=3 sim_linear=3 --seconds 30 --seed 2727 \\
        --sweep "poly 12 14 16 --best-of 15" --out BENCH_<pr>_<name>.json

One JSON file:

* ``end_to_end``: ``bench/run.py --trace 0`` of the parent checkout and of
  this one, in pairs whose first side alternates, one run at a time, with
  the pair count set per workload; each side's median and quartiles per
  metric, and how many pairs the change won (ties count for neither).
* ``per_layer_traced``: one ``--trace 1`` run per side on the first
  workload of ``--pairs``.
* ``sweep`` (with ``--sweep``, which may repeat): a list with one report
  per ``--sweep`` in the order given, each of this checkout's
  ``scripts/sweep.py`` with each side's ``src`` first on ``PYTHONPATH``,
  ``--rounds`` rounds whose first side alternates, each after an untimed
  warm-up sweep of that side whose rows are dropped; for the poly layer,
  also the bytes of each file it parses.
* ``machine`` (``bench/harness.machine_meta``) and ``end_to_end_effect``:
  per workload, the op_p50_ms medians, their ratio, the pairs won and the
  parent's interquartile range.
* ``change_head`` and ``change_dirty``: this checkout's ``git rev-parse
  HEAD`` and whether ``git status --porcelain`` lists any change, both
  taken before the first run (None outside a git checkout). The change
  side is the working tree, so with ``change_dirty`` true it is not
  ``change_head``; ``machine.git_sha`` is the same HEAD.

The parent checkout can be an exported copy (``git archive``); run nothing
else meanwhile, as every run shares the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WORKLOADS = ("cli_roundtrip", "sim_exact", "sim_linear")


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _checkout() -> dict:
    """This checkout's HEAD and whether `git status` lists any change."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"change_head": head, "change_dirty": None if status is None else status != ""}


def _summary(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def _ab(trees: dict[str, Path], workload: str, pairs: int, seed: int, seconds: float) -> dict:
    first, runs = [], {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(_bench(trees[side], workload, seed, seconds, 0))
            print(f"{workload} pair {i + 1}/{pairs} {side}: "
                  f"op_p50_ms={runs[side][-1]['metrics']['op_p50_ms']:.3f}", file=sys.stderr)
    metrics = {}
    for name, better in BETTER.items():
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        sign = 1 if better == "higher" else -1
        ps, cs = _summary(p), _summary(c)
        metrics[name] = {
            "better": better, "parent": p, "change": c,
            "parent_summary": ps, "change_summary": cs,
            "ratio_of_medians": cs["median"] / ps["median"] if ps["median"] else None,
            "parent_iqr": ps["q3"] - ps["q1"],
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
    return {
        "pairs": pairs, "first": first,
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "metrics": metrics,
    }


def _effect(end_to_end: dict) -> str:
    """Each workload's op_p50_ms medians, ratio, pairs won and parent IQR."""
    parts = []
    for w, e in end_to_end.items():
        m = e["metrics"]["op_p50_ms"]
        p, c = m["parent_summary"]["median"], m["change_summary"]["median"]
        parts.append(f"{w} op_p50_ms {p:.4f} -> {c:.4f} ms ({c / p:.4f}x, {m['change_wins']} of "
                     f"{e['pairs']} pairs; parent IQR {m['parent_iqr']:.4f} ms)")
    return "; ".join(parts)


def _field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _sweep(trees: dict[str, Path], argv: list[str], rounds: int) -> dict:
    runs = {side: [] for side in trees}
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        # a round's first sweep read slower on unchanged code, so an untimed
        # sweep of that side runs first and its rows are dropped
        for timed, side in enumerate((order[0], *order)):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "sweep.py"), *argv], capture_output=True,
                text=True, check=True, env=dict(os.environ, PYTHONPATH=str(trees[side] / "src")),
            )
            header, *rows = proc.stdout.splitlines()
            if timed:
                runs[side].append([[_field(f) for f in row.split("\t")] for row in rows])
    report = {
        "method": f"scripts/sweep.py {shlex.join(argv)} (this checkout's) with each side's src "
                  f"first on PYTHONPATH, {rounds} rounds alternating; each round first runs one "
                  "untimed sweep of its first side and drops its rows",
        "columns": header.split("\t"),
        "runs": runs,
    }
    if argv[0] == "poly":
        import sweep

        report["bytes"] = {
            int(m): {name: len(text.encode()) for name, (text, _) in sweep.poly_files(int(m), int(seed)).items()}
            for m, seed, *_ in runs["change"][0] if isinstance(m, float)
        }
    return report


def _pairs(spec: str) -> tuple[str, int]:
    workload, _, count = spec.partition("=")
    if workload not in WORKLOADS or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"want WORKLOAD=PAIRS with a workload of {WORKLOADS}, got {spec!r}")
    return workload, int(count)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--parent-rev", default="unknown", help="the parent's revision, recorded as given")
    p.add_argument("--layer", help="the layer the change targets, recorded as given")
    p.add_argument("--pairs", type=_pairs, nargs="+", default=[(w, 10) for w in WORKLOADS],
                   metavar="WORKLOAD=PAIRS", help="the first workload named also gets the traced runs")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--traced-seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=2626)
    p.add_argument("--sweep", type=shlex.split, action="append", metavar="'LAYER [ARGS]'",
                   help="a scripts/sweep.py command line; repeat for more sweeps")
    p.add_argument("--rounds", type=int, default=2, help="sweep rounds per side")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]
    import harness  # this checkout's benchmark, for the machine record

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    checkout = _checkout()
    pairs = dict(args.pairs)
    end_to_end = {w: _ab(trees, w, n, args.seed, args.seconds) for w, n in pairs.items()}
    report = {
        "parent": args.parent_rev,
        "layer": args.layer,
        "machine": harness.machine_meta(args.seed),
        **checkout,
        "end_to_end_effect": _effect(end_to_end),
        "method": f"bench/run.py --seconds {args.seconds:g} --trace 0 --seed {args.seed}; "
                  + ", ".join(f"{n} pairs on {w}" for w, n in pairs.items())
                  + ", the side that runs first alternating ('first'), one run at a time; "
                  "quartiles are statistics.quantiles (inclusive, as numpy's linear "
                  "percentile); 'change_wins' counts pairs where the change is better, ties "
                  "counting for neither",
        "end_to_end": end_to_end,
        "per_layer_traced": {
            side: _bench(tree, next(iter(pairs)), args.seed, args.traced_seconds, 1)
            for side, tree in trees.items()
        },
    }
    if args.sweep:
        report["sweep"] = [_sweep(trees, argv, args.rounds) for argv in args.sweep]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
