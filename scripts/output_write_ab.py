#!/usr/bin/env python3
"""A/B of two checkouts on the benchmark, plus the CLI's per-write cost.

    python3 scripts/output_write_ab.py --parent ../parent --pairs 10 \\
        --seconds 30 --seed 2626 --out BENCH_26_cli_inplace_writes.json

Three parts, one JSON file:

* ``end_to_end``: ``bench/run.py --trace 0`` of the parent checkout and of
  this one, in pairs whose first side alternates, one run at a time, on
  every workload; each side's median and quartiles per metric, and how
  many pairs the change won (ties count for neither).
* ``per_layer_traced``: one ``--trace 1`` run per side on cli_roundtrip.
* ``write_table``: the cli_roundtrip loop of this checkout, in process,
  with the output writer swapped, in blocks of cycles, between four ways
  to replace a file: truncate on open (``open(path, "wb")``), in place
  then ``os.ftruncate`` (the CLI's writer), a temporary file then
  ``os.replace``, and unlink then create. Each write's wall time, p50 and
  p90 in µs, and the filesystem and mount options of the volume written.

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


# ------------------------------------------------------------ per-write cost

def _write_truncating(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_replacing(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    _write_truncating(tmp, data)
    os.replace(tmp, path)


def _write_recreating(path: str, data: bytes) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    _write_truncating(path, data)


def _mount_of(path: Path) -> dict:
    """Device, filesystem type and options of the mount holding `path`."""
    best = None
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                dev, point, fstype, opts = line.split()[:4]
                point = point.replace("\\040", " ")
                inside = str(path) == point or str(path).startswith(point.rstrip("/") + "/")
                if inside and (best is None or len(point) > len(best["mount_point"])):
                    best = {"device": dev, "mount_point": point, "fstype": fstype,
                            "options": opts.split(",")}
    except OSError:
        pass
    return best or {"device": "unknown", "mount_point": "unknown", "fstype": "unknown", "options": []}


def _write_table(seed: int, cycles: int, block: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import harness  # this checkout's benchmark and logicast
    from logicast import cli
    from logicast.randomness import derive_seed

    ways = {"truncate on open": _write_truncating, "in place + ftruncate": cli._write_output,
            "temp + os.replace": _write_replacing, "unlink + create": _write_recreating}
    times = {name: [] for name in ways}
    workload = harness.make_workload("cli_roundtrip")
    workload.setup(seed)
    ncells = len(workload.cells)
    for c in range(cycles):
        name = list(ways)[c // block % len(ways)]
        for k in range(ncells):
            i = c * ncells + k

            def timed(path, data, write=ways[name], sink=times[name], warm=c % block > 0):
                t = time.perf_counter()
                write(path, data)
                if warm:  # the first cycle of a block follows another writer
                    sink.append((time.perf_counter() - t) * 1e6)

            cli._write_output = timed
            try:
                workload.check(k, c, i, workload.op(k, c, i, derive_seed(seed, i)))
            finally:
                cli._write_output = ways["in place + ftruncate"]
    table = {}
    for name, ts in times.items():
        deciles = statistics.quantiles(ts, n=10)
        table[name] = {"writes": len(ts), "p50_us": statistics.median(ts), "p90_us": deciles[-1]}
    return {
        "method": f"{cycles} cli_roundtrip cycles in one process at seed {seed}; the four "
                  f"writers take turns in blocks of {block} cycles, each op writing tx.bin and "
                  "shat.logic over existing files; wall time of each write call in µs, the "
                  "first cycle of each block left out",
        "volume": {"path": str(harness.OUT.resolve()), **_mount_of(harness.OUT.resolve())},
        "writers": table,
        "machine": harness.machine_meta(seed),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--parent-rev", default="unknown", help="the parent's revision, recorded as given")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--traced-seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=2626)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--write-cycles", type=int, default=400)
    p.add_argument("--write-block", type=int, default=25)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    report = {
        "parent": args.parent_rev,
        "method": f"bench/run.py --seconds {args.seconds:g} --trace 0 --seed {args.seed}; "
                  f"{args.pairs} pairs per workload, the side that runs first alternating "
                  "('first'), one run at a time; quartiles are statistics.quantiles "
                  "(inclusive, as numpy's linear percentile); 'change_wins' counts pairs "
                  "where the change is better, ties counting for neither",
        "end_to_end": {w: _ab(trees, w, args.pairs, args.seed, args.seconds) for w in args.workloads},
        "per_layer_traced": {
            side: _bench(tree, "cli_roundtrip", args.seed, args.traced_seconds, 1)
            for side, tree in trees.items()
        },
        "write_table": _write_table(args.seed, args.write_cycles, args.write_block),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
