"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

Counters and bits_per_point must repeat exactly for one seed and one op
count, self times must account for every op's duration, the speed gauge
must take its own kernel runs out of the time it reports, and a failed op
must be counted without ending the run.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
from logicast import cli, simlab  # noqa: E402
from logicast.errors import ContractViolation  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT = (
    "randomness.words_drawn",
    "partition.rows_drawn",
    "partition.overshoot_rows",
    "bitcodec.rank_bits",
    "groebner.basis_size",
    "protocols.payload_bits",
)

# Counters that must be non-zero where the workload runs their layer.
RUNS_ON = {
    "sim_linear": ("partition.rows_drawn", "randomness.words_drawn", "protocols.payload_bits"),
    "sim_exact": ("bitcodec.rank_bits", "groebner.basis_size", "protocols.payload_bits"),
    "cli_roundtrip": ("bitcodec.rank_bits", "statements.text_bytes", "protocols.payload_bits"),
}


def _traced_run(name: str, seed: int, cycles: int):
    workload = harness.make_workload(name)
    workload.setup(seed)
    tracer = Tracer()
    result = harness.measure(workload, seed, cycles=cycles, tracer=tracer)
    ops = {r.op_id: 1.0 for r in result.records if r.traced}
    bpp, _ = harness.bits_per_point(result.records, len(workload.cells))
    return result, tracer, ops, bpp


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name):
    first, tracer, ops, bpp = _traced_run(name, seed=7, cycles=2)
    second, tracer2, ops2, bpp2 = _traced_run(name, seed=7, cycles=2)
    assert first.first_error is None and second.first_error is None
    assert all(r.ok for r in first.records + second.records)
    assert ops == ops2 and ops
    a, b = tracer.layer_metrics(ops), tracer2.layer_metrics(ops2)
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}
    assert bpp == bpp2 and bpp > 0
    for counter in RUNS_ON[name]:
        assert a[counter] > 0, counter


def test_self_times_add_up_to_op_duration():
    _, tracer, ops, _ = _traced_run("sim_exact", seed=3, cycles=2)
    names, op_of, self_ms = tracer.self_ms()
    for op in ops:
        root = next(i for i in range(len(tracer.name)) if tracer.op[i] == op and tracer.parent[i] == -1)
        duration_ms = (tracer.end[root] - tracer.start[root]) * 1e3
        assert self_ms[op_of == op].sum() == pytest.approx(duration_ms, rel=1e-9)
        assert (self_ms[op_of == op] >= -1e-9).all()


def test_hooks_are_removed_after_a_traced_cycle():
    before = (simlab.t4_encode, cli.parse_statements)
    _traced_run("sim_exact", seed=1, cycles=2)
    assert (simlab.t4_encode, cli.parse_statements) == before


def test_gauge_takes_its_kernel_runs_out_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedGauge() as gauge, gauge.measure() as reading:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.2 <= reading.wall_s < 0.5
    assert 0.0 < reading.net_s < reading.wall_s  # timer ticks ran the kernel
    assert reading.kernel_s > 0.0


def test_failed_sim_op_is_counted_and_the_run_goes_on(monkeypatch):
    real = simlab.run_trials
    calls = []

    def flaky(*args, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise ContractViolation("injected")
        return real(*args, **kw)

    monkeypatch.setattr(simlab, "run_trials", flaky)
    workload = harness.make_workload("sim_exact")
    workload.setup(5)
    result = harness.measure(workload, 5, cycles=1)
    assert [r.ok for r in result.records] == [True, False, True]
    assert "ContractViolation" in result.first_error


def test_cli_op_fails_unless_prove_says_entailed(monkeypatch):
    real = cli.main

    def deny(argv):
        if argv[0] == "prove":
            print("not entailed")
            return 1
        return real(argv)

    monkeypatch.setattr(cli, "main", deny)
    workload = harness.make_workload("cli_roundtrip")
    workload.setup(5)
    result = harness.measure(workload, 5, cycles=1)
    assert [r.ok for r in result.records] == [False, False]
    assert "prove exited 1" in result.first_error
