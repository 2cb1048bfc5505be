"""Workloads, measurement loop, output checks and metrics of the benchmark.

Every workload is a fixed cycle of cells, one op per cell, run by a single
closed-loop client in one thread: the next op starts when the previous one
has returned.  Runs consist of whole cycles, so each cell gets the same
number of ops however long the run lasts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import logicast
from logicast import cli, simlab
from logicast.algset import zeros
from logicast.randomness import derive_seed
from logicast.simlab import Conditional, Nested, Single
from logicast.statements import parse_statements, render_statements

from speed import REF_KERNEL_S, SpeedGauge
from tracing import COUNT_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

if Path(logicast.__file__).resolve().parent != ROOT / "src" / "logicast":
    raise ImportError(f"logicast was imported from {logicast.__file__}, not from {ROOT / 'src'}")

# Seed lanes for inputs that are not ops, far above any op index.
WARM_LANE = 1 << 40
INPUT_LANE = 1 << 41
# Cold set-ups in fresh processes, besides the run's own, for setup_s.
SETUP_CHILDREN = 2


def _lane_seed(seed: int, lane: int, index: int) -> int:
    return derive_seed(derive_seed(seed, lane), index)


class OpFailed(Exception):
    """An op returned, but its output did not pass the check."""


# ------------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Cell:
    scenario: str
    law: object
    m: int
    codec: str | None

    @property
    def label(self) -> str:
        codec = f"/{self.codec}" if self.codec else ""
        return f"{self.scenario}{codec} {self.law!r} m={self.m}"

    def bounds(self) -> tuple[float, float]:
        rep = simlab.bounds_table(self.scenario, self.law, self.m, codec=self.codec)
        return rep.lower_bound, rep.upper_bound


class SimWorkload:
    """Op i is ``run_trials(cell, trials=1, seed=derive_seed(seed, i))``.

    ``run_trials`` checks each round trip against the scenario's contract
    and raises on a breach, so an op fails exactly when it raises.
    """

    def __init__(self, cells: tuple[Cell, ...]) -> None:
        self.cells = cells

    def setup(self, seed: int) -> None:
        """Nothing to prepare: each op samples its own statements."""

    def op(self, k: int, cycle: int, i: int, op_seed: int):
        c = self.cells[k]
        return simlab.run_trials(c.scenario, c.law, c.m, trials=1, codec=c.codec, seed=op_seed)

    def check(self, k: int, cycle: int, i: int, report) -> tuple[object, float]:
        """(input key, payload bits per point) of a passed op."""
        rate = report.mean_rate
        if not (math.isfinite(rate) and rate > 0.0):
            raise OpFailed(f"implausible rate {rate}")
        return i, rate


CLI_M = 12
CLI_POOL = 8


class CliWorkload:
    """Op = in-process ``logicast`` encode, decode, prove on statement files.

    Cells alternate t1 and t2; t2 ops carry ``--background``.  Set-up
    samples ``CLI_POOL`` inputs per cell with ``simlab.sample`` and writes
    them with ``render_statements``; cycle c uses input c mod CLI_POOL.
    """

    cells = (
        Cell("t1", Single(0.2), CLI_M, None),
        Cell("t2", Nested(0.125, 0.5), CLI_M, None),
    )

    def setup(self, seed: int) -> None:
        self.dir = OUT / "cli_roundtrip"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = []  # [cell][pool index] -> (argv extra, source path, source text, Z(s))
        for k, cell in enumerate(self.cells):
            row = []
            for p in range(CLI_POOL):
                sets, stmts = simlab.sample(cell.law, CLI_M, _lane_seed(seed, INPUT_LANE, k * CLI_POOL + p))
                s_path = self.dir / f"{cell.scenario}_{p}_s.logic"
                s_text = render_statements(stmts[0])
                s_path.write_text(s_text)
                extra = []
                if cell.scenario == "t2":
                    r_path = self.dir / f"{cell.scenario}_{p}_r.logic"
                    r_path.write_text(render_statements(stmts[1]))
                    extra = ["--background", str(r_path)]
                row.append((extra, s_path, s_text, sets[0]))
            self.inputs.append(row)

    def op(self, k: int, cycle: int, i: int, op_seed: int):
        extra, s_path, _, _ = self.inputs[k][cycle % CLI_POOL]
        tx, shat = self.dir / "tx.bin", self.dir / "shat.logic"
        argvs = (
            ["encode", "--scenario", self.cells[k].scenario, "--in", str(s_path),
             "--vars", str(CLI_M), "--seed", str(op_seed), "--out", str(tx), *extra],
            ["decode", "--in", str(tx), "--out", str(shat), *extra],
            ["prove", "--knowledge", str(shat), "--query", str(s_path), "--engine", "brute"],
        )
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((argv[0], code, out.getvalue(), err.getvalue()))
            if code != 0:
                break
        return results

    def check(self, k: int, cycle: int, i: int, results) -> tuple[object, float]:
        for command, code, out, err in results:
            if code != 0:
                raise OpFailed(f"{command} exited {code}: {err.strip()}")
        (_, _, enc_out, _), _, (_, _, prove_out, _) = results
        if prove_out.strip() != "entailed":
            raise OpFailed(f"prove printed {prove_out.strip()!r}")
        bits = [ln for ln in enc_out.splitlines() if ln.startswith("payload_bits=")]
        if len(bits) != 1:
            raise OpFailed(f"encode printed no payload size: {enc_out!r}")
        p = cycle % CLI_POOL
        _, _, s_text, zs = self.inputs[k][p]
        decoded = (self.dir / "shat.logic").read_text()
        # Both scenarios decode Z(s) exactly.  The source file is the
        # canonical rendering of Z(s), so equal text settles it cheaply;
        # otherwise compare the zero sets themselves.
        if decoded != s_text and zeros(parse_statements(decoded, CLI_M)) != zs:
            raise OpFailed("decoded statements have another zero set than the source")
        return p, int(bits[0].split("=", 1)[1]) / (1 << CLI_M)


def make_workload(name: str):
    if name == "sim_linear":
        return SimWorkload((
            Cell("t4", Nested(0.25, 0.75), 12, "linear"),
            Cell("t4", Nested(0.1, 0.7), 12, "linear"),
            Cell("t5", Conditional(0.5, 0.25, 0.75, 0.25, 0.75), 12, "linear"),
        ))
    if name == "sim_exact":
        return SimWorkload((
            Cell("t1", Single(0.2), 14, None),
            Cell("t2", Nested(0.125, 0.5), 14, None),
            Cell("t3", Nested(0.15, 0.5), 8, None),
        ))
    if name == "cli_roundtrip":
        return CliWorkload()
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------- measurement

@dataclass
class OpRecord:
    cell: int
    op_id: int
    seconds: float  # at reference speed, see speed.py
    wall_seconds: float
    traced: bool
    ok: bool
    key: object = None
    bits_per_point: float = 0.0


@dataclass
class Run:
    records: list[OpRecord] = field(default_factory=list)
    elapsed: float = 0.0
    first_error: str | None = None


def _one_op(workload, k: int, cycle: int, i: int, seed: int, gauge: SpeedGauge,
            tracer: Tracer | None, run: Run) -> None:
    op_seed = derive_seed(seed, i)
    try:
        with gauge.measure() as reading:
            if tracer is not None:
                with tracer.op_span(i):
                    result = workload.op(k, cycle, i, op_seed)
            else:
                result = workload.op(k, cycle, i, op_seed)
        key, bpp = workload.check(k, cycle, i, result)
    except Exception:  # an op failing must not end the run
        if run.first_error is None:
            run.first_error = traceback.format_exc()
        run.records.append(OpRecord(k, i, reading.normalized_s, reading.wall_s, tracer is not None, False))
        return
    run.records.append(OpRecord(k, i, reading.normalized_s, reading.wall_s, tracer is not None, True, key, bpp))


def measure(workload, seed: int, seconds: float | None = None, cycles: int | None = None,
            tracer: Tracer | None = None) -> Run:
    """Run whole cycles until `seconds` have passed, or exactly `cycles` of them.

    With a tracer, odd cycles run traced and even cycles untraced, so both
    halves see the same cells in the same proportions.
    """
    run = Run()
    ncells = len(workload.cells)
    start = perf_counter()
    deadline = start + (seconds if seconds is not None else math.inf)
    c = 0
    with SpeedGauge() as gauge:
        while (c < cycles) if cycles is not None else (perf_counter() < deadline):
            traced = tracer is not None and c % 2 == 1
            if traced:
                tracer.install()
            try:
                for k in range(ncells):
                    _one_op(workload, k, c, c * ncells + k, seed, gauge, tracer if traced else None, run)
            finally:
                if traced:
                    tracer.uninstall()
            c += 1
    run.elapsed = perf_counter() - start
    return run


def set_up(name: str, seed: int, import_s: float):
    """Make the workload's inputs and run one op per cell on inputs no measured
    op uses.  Returns the workload and the set-up seconds at reference speed,
    `import_s` included."""
    with SpeedGauge() as gauge, gauge.measure() as reading:
        workload = make_workload(name)
        workload.setup(seed)
        for k in range(len(workload.cells)):
            with contextlib.suppress(Exception):  # the measured ops report failures
                workload.op(k, 0, 0, _lane_seed(seed, WARM_LANE, k))
    return workload, (import_s + reading.net_s) * REF_KERNEL_S / reading.kernel_s


def setup_only(args, import_s: float) -> int:
    _, setup_s = set_up(args.workload, args.seed, import_s)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _child_setups(args) -> list[float]:
    """Cold set-up times from fresh interpreters, so lazy first-call work counts."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ------------------------------------------------------------------- metrics

def _cell_times(records, ncells, wall=False) -> list[list[float]]:
    per = [[] for _ in range(ncells)]
    for r in records:
        if r.ok:
            per[r.cell].append((r.wall_seconds if wall else r.seconds) * 1e3)
    return per


def cell_mean_p50(records, ncells, wall=False) -> float:
    """Median op latency of each cell, averaged over cells, in ms.

    A percentile of the pooled ops of a mix of cells lands in the gap
    between two cells' latencies, or in the body of the slowest cell, and
    jumps with a few ops; the per-cell percentiles do not.
    """
    per = _cell_times(records, ncells, wall)
    if any(not t for t in per):
        return 0.0
    return statistics.fmean(statistics.median(t) for t in per)


def cell_mean_p90(records, ncells) -> tuple[float, list[int], list[int]]:
    """90th percentile op latency of each cell, averaged over cells, in ms,
    with each cell's sample count and number of samples beyond its p90."""
    per = _cell_times(records, ncells)
    if any(len(t) < 2 for t in per):
        return 0.0, [len(t) for t in per], [0] * ncells
    p90s = [statistics.quantiles(t, n=10)[-1] for t in per]
    beyond = [sum(x > p for x in t) for t, p in zip(per, p90s)]
    return statistics.fmean(p90s), [len(t) for t in per], beyond


def bits_per_point(records, ncells) -> tuple[float, list[float]]:
    """Mean payload bits per point: per distinct input, then per cell, then overall."""
    per: list[dict] = [{} for _ in range(ncells)]
    for r in records:
        if r.ok:
            per[r.cell][r.key] = r.bits_per_point
    cells = [statistics.fmean(d.values()) if d else math.nan for d in per]
    overall = statistics.fmean(cells) if all(d for d in per) else 0.0
    return overall, cells


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_meta(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }


# ----------------------------------------------------------------------- run

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, import_s: float) -> int:
    child = _child_setups(args)
    workload, own = set_up(args.workload, args.seed, import_s)
    setup_s = statistics.median(child + [own])
    tracer = Tracer() if args.trace else None
    r = measure(workload, args.seed, seconds=args.seconds, tracer=tracer)
    ncells = len(workload.cells)
    attempted = len(r.records)
    failed = sum(not x.ok for x in r.records)
    meta = machine_meta(args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta))
    if r.first_error:
        print("first failure:\n" + r.first_error, file=sys.stderr)

    untraced = [x for x in r.records if not x.traced]
    bpp, cell_bpp = bits_per_point(r.records, ncells)
    cell_times = _cell_times(untraced, ncells)
    bounds = [cell.bounds() for cell in workload.cells]
    for k, cell in enumerate(workload.cells):
        lo, up = bounds[k]
        times = cell_times[k]
        p50 = statistics.median(times) if times else math.nan
        print(f"cell {cell.label}: ops={len(times)} p50_ms={p50:.3f} "
              f"bits_per_point={cell_bpp[k]:.6f} lower_bound={lo:.6f} upper_bound={up:.6f}")
    print(f"failed_frac={failed / max(attempted, 1):.6f} ({failed} of {attempted} ops)")

    if args.trace:
        traced = [x for x in r.records if x.traced and x.ok]
        metrics = {
            name: _metric(v, "count" if name in COUNT_METRICS else "ms")
            for name, v in tracer.layer_metrics({x.op_id: x.seconds / x.wall_seconds for x in traced}).items()
        }
        p50_on = cell_mean_p50(traced, ncells)
        p50_off = cell_mean_p50(untraced, ncells)
        overhead = p50_on / p50_off if p50_off else 0.0
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
        print(f"traced op_p50_ms={p50_on:.3f} untraced op_p50_ms={p50_off:.3f} "
              f"overhead_ratio={overhead:.4f} traced_ops={len(traced)}")
        for k, cell in enumerate(workload.cells):
            rows = tracer.shares({x.op_id: x.seconds / x.wall_seconds for x in traced if x.cell == k})
            total = sum(ms for _, ms in rows) or 1.0
            top = ", ".join(f"{n} {ms:.1f} ms ({100 * ms / total:.0f}%)" for n, ms in rows[:6])
            print(f"self time per op, {cell.label}: {total:.1f} ms = {top}")
        nspans = tracer.write(out_dir / "spans.tsv", out_dir / "counts.tsv")
        print(f"wrote {nspans} spans to {out_dir / 'spans.tsv'}")
    else:
        p90, counts, beyond = cell_mean_p90(untraced, ncells)
        ok = attempted - failed
        metrics = {
            "ops_per_s": _metric(ok / sum(x.seconds for x in r.records), "1/s"),
            "op_p50_ms": _metric(cell_mean_p50(untraced, ncells), "ms"),
            "op_p90_ms": _metric(p90, "ms"),
            "bits_per_point": _metric(bpp, "bit/point"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        }
        print(f"latency samples per cell={counts} beyond each p90={beyond}; setup samples="
              + ",".join(f"{s:.3f}" for s in child + [own]))
        print(f"wall clock: ops_per_s={ok / r.elapsed:.6f} "
              f"op_p50_ms={cell_mean_p50(untraced, ncells, wall=True):.3f}")
    for name, m in metrics.items():
        print(f"{name}={m['value']:.6f} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "workload": args.workload, **result,
                    "cells": [{"cell": c.label, "bits_per_point": b, "bounds": lu}
                              for c, b, lu in zip(workload.cells, cell_bpp, bounds)],
                    # cell, op id, ms at reference speed, wall ms, traced, passed
                    "ops": [[x.cell, x.op_id, x.seconds * 1e3, x.wall_seconds * 1e3, x.traced, x.ok]
                            for x in r.records]}) + "\n")
    print(json.dumps(result))
    return 0
