#!/usr/bin/env python3
"""Print the benchmark trajectory: every BENCH_*.json of the repository, in PR order.

    python3 scripts/trajectory.py

One tab-separated row per file and workload: the op_p50_ms median of the
parent's runs and of the change's, their ratio, the pairs the change won,
and the file's layer (up to its first colon), machine and whether it
states its end-to-end effect; "not recorded" where a file lacks one. Two
schemas hold the runs: ``{median, q1, q3, runs}`` per side, or a list of
runs per side beside ``parent_summary`` and ``change_summary``. Exits 1,
naming the file, if a file lacks a field, holds other than one run per
pair, or stores a median that is not the median of its runs.
"""

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_RECORDED = "not recorded"


def bench_files(root: Path = ROOT) -> list[Path]:
    return sorted(root.glob("BENCH_*.json"), key=lambda path: int(path.name.split("_")[1]))


def _runs(metric: dict, side: str) -> tuple[list[float], float]:
    """One side's runs and its stored median, in either schema."""
    value = metric[side]
    if isinstance(value, dict):
        return value["runs"], value["median"]
    return value, metric[f"{side}_summary"]["median"]


def rows(path: Path) -> list[tuple]:
    """(pr, workload, parent median, change median, wins, pairs, layer, machine, effect)
    per workload of one BENCH file."""
    data = json.loads(path.read_text())
    pr = int(path.name.split("_")[1])
    layer, machine = data.get("layer"), data.get("machine")
    layer = layer.split(":")[0][:40] if layer else NOT_RECORDED
    machine = (f"{machine['nproc']} cores, CPython {machine['python']}, numpy {machine['numpy']}"
               if machine else NOT_RECORDED)
    effect = "stated" if data.get("end_to_end_effect") else NOT_RECORDED
    out = []
    for workload, e in data["end_to_end"].items():
        metric = e["metrics"]["op_p50_ms"]
        medians = []
        for side in ("parent", "change"):
            runs, stored = _runs(metric, side)
            median = statistics.median(runs)
            if len(runs) != e["pairs"] or not math.isclose(median, stored, rel_tol=1e-9, abs_tol=1e-4):
                raise ValueError(f"{workload} {side}: {len(runs)} runs for {e['pairs']} pairs, "
                                 f"median {median} stored as {stored}")
            medians.append(median)
        out.append((pr, workload, *medians, metric["change_wins"], e["pairs"], layer, machine, effect))
    return out


def main() -> int:
    print("pr\tworkload\tparent_ms\tchange_ms\tratio\twins\tlayer\tmachine\teffect")
    for path in bench_files():
        try:
            table = rows(path)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            print(f"{path.name}: malformed: {e!r}", file=sys.stderr)
            return 1
        for pr, workload, parent, change, wins, pairs, *rest in table:
            print(f"{pr}\t{workload}\t{parent:.4f}\t{change:.4f}\t{change / parent:.3f}\t"
                  f"{wins}/{pairs}\t" + "\t".join(rest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
