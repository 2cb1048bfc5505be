#!/usr/bin/env python3
"""A/B of two checkouts on the benchmark and on the statement text path.

    python3 scripts/text_path_ab.py --parent ../parent --pairs 10 --sim-pairs 3 \\
        --seconds 30 --seed 2727 --out BENCH_27_text_path_translate.json

Four parts, one JSON file:

* ``end_to_end``: ``bench/run.py --trace 0`` of the parent checkout and of
  this one in alternating pairs (``output_write_ab._ab``): ``--pairs`` on
  cli_roundtrip, ``--sim-pairs`` on sim_exact and sim_linear.
* ``per_layer_traced``: one ``--trace 1`` cli_roundtrip run per side.
* ``text_files``: per side, in a fresh process, ``parse_statements`` and
  ``render_statements`` on the statement files that the cli_roundtrip
  workload writes at the seed (about 44 kB each): per file, the best and
  the median of ``--calls`` calls, in µs; the sides alternate over
  ``--rounds`` rounds.
* ``sweep``: this checkout's ``scripts/poly_sweep.py --m 12 14 16`` run
  with each side's ``src`` first on ``PYTHONPATH``, so the same files
  (canonical, padded, many short lines) go through each side's parser, and
  the bytes of each file.

The parent checkout can be an exported copy (``git archive``); run nothing
else meanwhile, as every run shares the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from output_write_ab import ROOT, _ab, _bench

SWEEP_M = (12, 14, 16)


def _text_files_child(tree: Path, seed: int, calls: int) -> dict:
    """Parse and render times of the cli_roundtrip files, in this process."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import harness
    from logicast.statements import parse_statements, render_statements

    workload = harness.make_workload("cli_roundtrip")
    workload.setup(seed)
    out = {}
    for path in sorted(workload.dir.glob("*.logic")):
        if path.name == "shat.logic":
            continue
        text = path.read_text()
        ps = parse_statements(text, harness.CLI_M)
        times = {"parse": [], "render": []}
        for _ in range(calls):
            t = time.perf_counter()
            parse_statements(text, harness.CLI_M)
            times["parse"].append(time.perf_counter() - t)
            t = time.perf_counter()
            render_statements(ps)
            times["render"].append(time.perf_counter() - t)
        out[path.name] = {"bytes": len(text.encode())} | {
            f"{op}_{stat}_us": fn(ts) * 1e6
            for op, ts in times.items() for stat, fn in (("best", min), ("median", statistics.median))
        }
    return out


def _text_files(trees: dict[str, Path], seed: int, calls: int, rounds: int) -> dict:
    runs = {side: [] for side in trees}
    for i in range(rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            proc = subprocess.run(
                [sys.executable, __file__, "--text-files-child", str(trees[side]),
                 "--seed", str(seed), "--calls", str(calls)],
                capture_output=True, text=True, check=True,
            )
            runs[side].append(json.loads(proc.stdout))
    summary = {}
    for side, rs in runs.items():
        for stat in ("parse_best_us", "parse_median_us", "render_best_us", "render_median_us"):
            # per round, the mean over files; then the median over rounds
            summary.setdefault(side, {})[f"mean_file_{stat}"] = statistics.median(
                statistics.fmean(f[stat] for f in r.values()) for r in rs)
    return {
        "method": f"fresh process per side and round, {rounds} rounds alternating; "
                  f"{calls} calls each of parse_statements(text, 12) and "
                  "render_statements(parsed set), perf_counter, on every statement file "
                  "the cli_roundtrip workload writes at the seed",
        "summary": summary,
        "runs": runs,
    }


def _sweep(trees: dict[str, Path], best_of: int, rounds: int) -> dict:
    runs = {side: [] for side in trees}
    for i in range(rounds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
            proc = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "poly_sweep.py"), "--m",
                 *map(str, SWEEP_M), "--best-of", str(best_of)],
                capture_output=True, text=True, check=True, env=env,
            )
            header, *rows = proc.stdout.splitlines()
            names = header.split("\t")
            runs[side].append([dict(zip(names, map(float, row.split("\t"))))
                               for row in rows if not row.startswith("formula_lines")])
    sys.path.insert(0, str(ROOT / "src"))
    import poly_sweep
    from logicast.simlab import Single, sample
    from logicast.statements import render_statements

    sizes = {}
    for m in SWEEP_M:
        text = render_statements(sample(Single(poly_sweep.DENSITY), m, 1)[1][0])
        sizes[m] = {"canonical": len(text), "padded": len(poly_sweep.padded(text)),
                    "lines": len(poly_sweep.short_lines(m, poly_sweep.SHORT_LINES)[0])}
    return {
        "method": f"scripts/poly_sweep.py --m {' '.join(map(str, SWEEP_M))} --best-of {best_of} "
                  f"(this checkout's) with each side's src on PYTHONPATH, {rounds} rounds "
                  "alternating; times are best process ms",
        "bytes": sizes,
        "runs": runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--parent-rev", default="unknown", help="the parent's revision, recorded as given")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--sim-pairs", type=int, default=3)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--traced-seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=2727)
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--best-of", type=int, default=15)
    p.add_argument("--out", type=Path)
    p.add_argument("--text-files-child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.text_files_child:
        print(json.dumps(_text_files_child(args.text_files_child, args.seed, args.calls)))
        return 0
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required")
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    report = {
        "parent": args.parent_rev,
        "method": f"bench/run.py --seconds {args.seconds:g} --trace 0 --seed {args.seed}; "
                  f"{args.pairs} pairs on cli_roundtrip and {args.sim_pairs} on sim_exact and "
                  "sim_linear, the side that runs first alternating ('first'), one run at a "
                  "time; quartiles are statistics.quantiles (inclusive, as numpy's linear "
                  "percentile); 'change_wins' counts pairs where the change is better, ties "
                  "counting for neither",
        "end_to_end": {
            w: _ab(trees, w, args.pairs if w == "cli_roundtrip" else args.sim_pairs,
                   args.seed, args.seconds)
            for w in ("cli_roundtrip", "sim_exact", "sim_linear")
        },
        "per_layer_traced": {
            side: _bench(tree, "cli_roundtrip", args.seed, args.traced_seconds, 1)
            for side, tree in trees.items()
        },
        "text_files": _text_files(trees, args.seed, args.calls, args.rounds),
        "sweep": _sweep(trees, args.best_of, args.rounds),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
