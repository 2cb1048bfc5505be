"""Span tracing for the logicast benchmark, applied from outside the package.

Each hook replaces one module-global name (or class attribute) that a
caller inside ``logicast`` looks up at call time, e.g.
``logicast.protocols.subset_rank`` or ``logicast.partition.draw_array``,
with a wrapper that records a span around the original.  Nothing under
``src/`` changes, and with the hooks removed the program runs exactly as
shipped.

A span is (name, start, end, parent span, op id).  Spans live in flat
arrays while the benchmark runs and are written out once at the end.
Counters are taken at the same boundaries from each call's arguments and
result, so they cost nothing inside the program.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

from logicast.bitcodec import elias_delta_decode
from logicast.partition import FREE


# ------------------------------------------------------------------ counters
# Each takes (tracer, args, kwargs, result) of one traced call.

def _count_words(tr, args, kw, out):
    tr.count("randomness.words_drawn", out.size)


def _count_payload(tr, args, kw, out):
    tr.count("protocols.payload_bits", len(out.payload))


def _count_rank_bits(tr, args, kw, out):
    tr.count("bitcodec.rank_bits", out.bit_length())


def _count_rows(tr, args, kw, out):
    # linear_encode(x, shared) emits elias(J) then J combination bits;
    # the prefix is far shorter than 64 bits for any J the codec allows.
    rows, _ = elias_delta_decode(out[:64])
    constrained = int(np.count_nonzero(args[0].entries != FREE))
    tr.count("partition.rows_drawn", rows)
    tr.count("partition.overshoot_rows", rows - constrained)


def _count_basis(tr, args, kw, out):
    tr.count("groebner.basis_size", len(out))


def _count_text_in(tr, args, kw, out):
    tr.count("statements.text_bytes", len(args[0]))


def _count_text_out(tr, args, kw, out):
    tr.count("statements.text_bytes", len(out))


_ENCODERS = ("t1_encode", "t2_encode", "t3_encode", "t4_encode", "t5_encode")
_DECODERS = ("t1_decode", "t2_decode", "t3_decode", "t4_decode", "t5_decode")

# (module, attribute path, span name, counter).  The attribute is the name
# the calling module looks up, so each layer is listed once per caller.
HOOKS = (
    [("logicast.simlab", "sample", "simlab.sample", None),
     ("logicast.simlab", "draw_array", "randomness.draw_array", _count_words),
     ("logicast.simlab", "reconstruct", "algset.reconstruct", None),
     ("logicast.simlab", "zeros", "algset.zeros", None),
     ("logicast.simlab", "entails", "algset.entails", None)]
    + [("logicast.simlab", f, "protocols.encode", _count_payload) for f in _ENCODERS]
    + [("logicast.simlab", f, "protocols.decode", None) for f in _DECODERS]
    + [("logicast.protocols", "psi", "protocols.psi", None),
       ("logicast.protocols", "zeros", "algset.zeros", None),
       ("logicast.protocols", "entails", "algset.entails", None),
       ("logicast.protocols", "reconstruct", "algset.reconstruct", None),
       ("logicast.protocols", "subset_rank", "bitcodec.subset_rank", _count_rank_bits),
       ("logicast.protocols", "subset_unrank", "bitcodec.subset_unrank", None),
       ("logicast.protocols", "linear_encode", "partition.linear_encode", _count_rows),
       ("logicast.protocols", "linear_decode", "partition.linear_decode", None),
       ("logicast.protocols", "Transmission.to_bytes", "protocols.to_bytes", None),
       ("logicast.partition", "draw_array", "randomness.draw_array", _count_words),
       ("logicast.algset", "zeros", "algset.zeros", None),
       ("logicast.groebner", "groebner_basis", "groebner.groebner_basis", _count_basis),
       ("logicast.groebner", "normal_form", "groebner.normal_form", None),
       ("logicast.groebner", "_entails_points", "algset.entails", None),
       ("logicast.poly", "Poly.__add__", "poly.arith", None),
       ("logicast.poly", "Poly.__mul__", "poly.arith", None),
       ("logicast.cli", "main", "cli.command", None),
       ("logicast.cli", "parse_statements", "statements.parse", _count_text_in),
       ("logicast.cli", "render_statements", "statements.render", _count_text_out),
       ("logicast.cli", "entails", "algset.entails", None),
       ("logicast.cli", "read_transmission", "protocols.read_transmission", None)]
    + [("logicast.cli", f, "protocols.encode", _count_payload) for f in _ENCODERS]
    + [("logicast.cli", f, "protocols.decode", None) for f in _DECODERS]
)

# Per-layer metric -> span name whose self time it reports, in ms per op.
TIME_METRICS = {
    "partition.linear_encode_ms": "partition.linear_encode",
    "partition.linear_decode_ms": "partition.linear_decode",
    "randomness.draw_array_ms": "randomness.draw_array",
    "bitcodec.subset_rank_ms": "bitcodec.subset_rank",
    "bitcodec.subset_unrank_ms": "bitcodec.subset_unrank",
    "protocols.encode_ms": "protocols.encode",
    "protocols.decode_ms": "protocols.decode",
    "algset.reconstruct_ms": "algset.reconstruct",
    "algset.zeros_ms": "algset.zeros",
    "groebner.groebner_basis_ms": "groebner.groebner_basis",
    "groebner.normal_form_ms": "groebner.normal_form",
    "statements.parse_ms": "statements.parse",
    "statements.render_ms": "statements.render",
    "poly.arith_ms": "poly.arith",
    "protocols.to_bytes_ms": "protocols.to_bytes",
    "protocols.read_transmission_ms": "protocols.read_transmission",
    "cli.command_ms": "cli.command",
    "simlab.sample_ms": "simlab.sample",
    "protocols.psi_ms": "protocols.psi",
    "algset.entails_ms": "algset.entails",
}

# Per-layer counters, reported as a mean per op.
COUNT_METRICS = (
    "randomness.words_drawn",
    "partition.rows_drawn",
    "partition.overshoot_rows",
    "bitcodec.rank_bits",
    "groebner.basis_size",
    "statements.text_bytes",
    "protocols.payload_bits",
)

OP_SPAN = "op"


class Tracer:
    """In-memory span and counter store plus the hooks that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self._name_id = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        # (op id, counter) -> value
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[(self._op_id, name)] += value

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; spans opened inside it carry its op id."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    # -- hooks

    def _wrap(self, fn, name: str, counter):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kw):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kw)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, args, kw, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every hooked name by its tracing wrapper."""
        if self._saved:
            raise RuntimeError("tracing hooks are already installed")
        for module, path, name, counter in HOOKS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        """Put every hooked name back, so untraced ops run the shipped code."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results

    def self_ms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, op id, self ms) per span: duration minus child spans.

        Spans nest strictly (one thread, every wrapper closes before its
        caller continues), so the children of a span cover disjoint parts
        of it and their durations simply add up.
        """
        # copies, so the arrays stay free to grow after this call
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        names = np.array(self.name, dtype=np.int64)
        ops = np.array(self.op, dtype=np.int64)
        return names, ops, (dur - covered) * 1e3

    def _per_name_ms(self, scales: dict[int, float]) -> np.ndarray:
        """Total self ms per span name over the given ops, each op's spans
        multiplied by its scale (see speed.py), divided by the op count."""
        names, ops, self_ms = self.self_ms()
        lookup = np.zeros(max(max(scales, default=0), int(ops.max(initial=0))) + 2)
        for op, scale in scales.items():
            lookup[op] = scale
        weight = lookup[ops]  # spans outside any op have op -1, the last slot, 0
        per_name = np.bincount(names, weights=self_ms * weight, minlength=len(self.names))
        return per_name / max(len(scales), 1)

    def layer_metrics(self, scales: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics as a mean per op over the ops keyed in `scales`."""
        per_name = self._per_name_ms(scales)
        out = {}
        for metric, span in TIME_METRICS.items():
            nid = self._name_id.get(span)
            out[metric] = float(per_name[nid]) if nid is not None else 0.0
        for metric in COUNT_METRICS:
            total = sum(v for (op, c), v in self.counts.items() if c == metric and op in scales)
            out[metric] = total / max(len(scales), 1)
        return out

    def shares(self, scales: dict[int, float]) -> list[tuple[str, float]]:
        """(span name, self ms per op) over the ops keyed in `scales`, largest first."""
        per_name = self._per_name_ms(scales)
        return sorted(zip(self.names, per_name.tolist()), key=lambda r: -r[1])

    def write(self, spans_path, counts_path) -> int:
        """Write spans and counters as tab-separated text; returns the span count."""
        with open(spans_path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (nid, par, op, s, e) in enumerate(
                zip(self.name, self.parent, self.op, self.start, self.end)
            ):
                fh.write(f"{i}\t{par}\t{op}\t{names[nid]}\t{s:.9f}\t{e:.9f}\n")
        with open(counts_path, "w") as fh:
            fh.write("op\tcounter\tvalue\n")
            for (op, name), value in sorted(self.counts.items()):
                fh.write(f"{op}\t{name}\t{value}\n")
        return len(self.name)

