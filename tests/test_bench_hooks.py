"""The traced benchmark wraps names inside `logicast`; keep them in place.

`bench/tracing.py` replaces module-global names (and one class attribute)
that callers look up at call time.  A refactor that moves a call away from
such a name does not fail the benchmark: its per-layer metric just reads 0.
These tests fail instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from logicast import simlab
from logicast.bitcodec import BitReader
from logicast.partition import read_codeword
from logicast.protocols import t1_encode, t4_encode
from logicast.simlab import Nested, Single, sample

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    # the same lookup as Tracer.install
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_hook_target_resolves(tracing):
    for module, path, _, _ in tracing.HOOKS:
        assert callable(_resolve(module, path)), (module, path)


@pytest.fixture
def traced(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _span_names(tracer) -> set[str]:
    return {tracer.names[nid] for nid in tracer.name}


def test_traced_trials_reach_every_codec_layer(traced):
    with traced.op_span(0):
        simlab.run_trials("t1", Single(0.3), 6, trials=1, seed=3)
        simlab.run_trials("t4", Nested(0.25, 0.75), 6, trials=1, codec="linear", seed=3)
        _, (s,) = sample(Single(0.3), 5, 4)
        t1_encode(s).to_bytes()
    assert {
        "bitcodec.subset_rank",
        "bitcodec.subset_unrank",
        "partition.linear_encode",
        "partition.linear_decode",
        "protocols.to_bytes",
        "protocols.encode",
        "protocols.decode",
    } <= _span_names(traced)
    assert traced.counts[(0, "bitcodec.rank_bits")] > 0
    assert traced.counts[(0, "protocols.payload_bits")] > 0


def test_row_counter_reads_j_from_the_payload(traced):
    _, (s, q) = sample(Nested(0.25, 0.75), 7, 11)
    with traced.op_span(1):
        tx = t4_encode(s, q, codec="linear", seed=11)
    j, _ = read_codeword(BitReader(tx.payload), "linear", 1 << 7)
    # the counter is elias_delta_decode(linear_encode(x, shared)[:64])[0]
    assert traced.counts[(1, "partition.rows_drawn")] == j
