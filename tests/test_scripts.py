"""The measuring scripts' pure parts: the trajectory reader, the A/B pair summary and sweep order."""

from __future__ import annotations

import importlib.util
import json
import re
import statistics
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_prints_the_median_of_every_files_runs(capsys):
    trajectory = _load("trajectory")
    assert trajectory.main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split("\t")[:4] == ["pr", "workload", "parent_ms", "change_ms"]
    printed = {}
    for line in lines:
        pr, workload, parent, change, *_ = line.split("\t")
        printed[int(pr), workload] = (parent, change, line)
    schemas = set()
    for path in trajectory.bench_files():
        data = json.loads(path.read_text())
        pr = int(path.name.split("_")[1])
        for workload, e in data["end_to_end"].items():
            metric = e["metrics"]["op_p50_ms"]
            want = []
            for side in ("parent", "change"):
                if isinstance(metric[side], dict):  # {median, q1, q3, runs}
                    runs = metric[side]["runs"]
                    schemas.add("objects")
                else:  # run lists beside parent_summary and change_summary
                    runs = metric[side]
                    schemas.add("lists")
                want.append(f"{statistics.median(runs):.4f}")
            parent, change, line = printed.pop((pr, workload))
            assert (parent, change) == tuple(want), line
            if "machine" not in data:
                assert line.endswith("not recorded\tnot recorded\tnot recorded"), line
    assert not printed
    assert schemas == {"objects", "lists"}


def test_trajectory_refuses_a_median_its_runs_do_not_give(tmp_path):
    trajectory = _load("trajectory")
    metric = {"parent": {"median": 2.0, "runs": [1.0, 2.0, 3.0]},
              "change": {"median": 2.5, "runs": [1.0, 2.0, 3.0]}, "change_wins": 1}
    path = tmp_path / "BENCH_99_bad.json"
    path.write_text(json.dumps({"end_to_end": {"sim_exact": {"pairs": 3, "metrics": {"op_p50_ms": metric}}}}))
    with pytest.raises(ValueError, match="change"):
        trajectory.rows(path)
    metric["change"]["median"] = 2.0
    path.write_text(json.dumps({"end_to_end": {"sim_exact": {"pairs": 4, "metrics": {"op_p50_ms": metric}}}}))
    with pytest.raises(ValueError, match="3 runs for 4 pairs"):
        trajectory.rows(path)


def test_ab_pairs_alternate_count_ties_for_neither_and_use_inclusive_quartiles(monkeypatch):
    ab = _load("ab")
    trees = {"parent": Path("parent"), "change": Path("change")}
    values = {"parent": iter([10.0, 12.0, 11.0, 13.0, 9.0]),
              "change": iter([9.0, 12.0, 12.0, 10.0, 8.0])}
    calls = []

    def bench(tree, workload, seed, seconds, trace):
        side = "parent" if tree == trees["parent"] else "change"
        calls.append(side)
        return {"attempted": 7, "failed": 0, "metrics": dict.fromkeys(ab.BETTER, next(values[side]))}

    monkeypatch.setattr(ab, "_bench", bench)
    out = ab._ab(trees, "sim_exact", 5, 1, 1.0)
    assert out["first"] == ["parent", "change", "parent", "change", "parent"]
    assert calls == [side for first in out["first"]
                     for side in (first, "change" if first == "parent" else "parent")]
    lower, higher = out["metrics"]["op_p50_ms"], out["metrics"]["ops_per_s"]
    # pair 2 ties: it counts for neither side, whichever way is better
    assert lower["change_wins"] == 3 and higher["change_wins"] == 1
    # inclusive quartiles of 9..13 are 10 and 12; the exclusive ones are 9.5 and 12.5
    assert lower["parent_summary"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert lower["parent_iqr"] == 2.0
    assert ab._effect({"sim_exact": out}) == (
        "sim_exact op_p50_ms 11.0000 -> 10.0000 ms (0.9091x, 3 of 5 pairs; parent IQR 2.0000 ms)")


def test_ab_sweep_warms_up_before_each_round_and_drops_the_warm_up_rows(monkeypatch):
    ab = _load("ab")
    trees = {"parent": Path("parent"), "change": Path("change")}
    calls = []

    def run(cmd, *, env, **kwargs):
        side = Path(env["PYTHONPATH"]).parent.name
        calls.append(side)
        # each sweep prints one row naming its call, so a kept row shows where it came from
        return subprocess.CompletedProcess(cmd, 0, stdout=f"m\tcall\n4\t{side}{len(calls)}\n")

    monkeypatch.setattr(ab.subprocess, "run", run)
    out = ab._sweep(trees, ["groebner", "4"], 3)
    # per round: an untimed sweep of its first side, then the two timed ones
    assert calls == ["parent", "parent", "change", "change", "change", "parent",
                     "parent", "parent", "change"]
    assert out["runs"] == {"parent": [[[4.0, "parent2"]], [[4.0, "parent6"]], [[4.0, "parent8"]]],
                           "change": [[[4.0, "change3"]], [[4.0, "change5"]], [[4.0, "change9"]]]}
    assert out["columns"] == ["m", "call"]
    assert "untimed sweep" in out["method"]


def test_ab_records_the_change_sides_head_and_whether_it_is_dirty(tmp_path, monkeypatch):
    ab = _load("ab")
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert ab._checkout() == {"change_head": None, "change_dirty": None}  # not a checkout
    git = ["git", "-C", str(tmp_path), "-c", "user.name=ab", "-c", "user.email=ab@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    (tmp_path / "f").write_text("1")
    subprocess.run([*git, "add", "f"], check=True)
    subprocess.run([*git, "commit", "-qm", "f"], check=True)
    clean = ab._checkout()
    assert re.fullmatch("[0-9a-f]{40}", clean["change_head"]) and clean["change_dirty"] is False
    (tmp_path / "f").write_text("2")
    assert ab._checkout() == {"change_head": clean["change_head"], "change_dirty": True}
