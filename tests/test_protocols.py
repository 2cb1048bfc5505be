from __future__ import annotations

import os
import dataclasses
import math
import random
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logicast
from logicast import algset, bitcodec, partition, protocols
from logicast.algset import AlgSet, entails, reconstruct, zeros
from logicast.bitcodec import Bits, BitWriter, elias_delta_length, rank_width, subset_rank
from logicast.errors import (
    DomainError,
    LogicastError,
    MalformedCodeword,
    MalformedHeader,
    NotEntailed,
    RankOutOfRange,
    TruncatedStream,
)
from logicast.groebner import entails_groebner
from logicast.partition import FREE, J_MAX, SharedRandomness, binary_entropy, lambda_fn
from logicast.poly import Poly, PolySet
from logicast.protocols import (
    Transmission,
    peek_header,
    psi,
    quantize_param,
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
from logicast.simlab import Nested, Single, sample

V = Poly.variable


def _sigma_of(m: int, points) -> PolySet:
    return reconstruct(AlgSet.from_points(m, points))


def _random_nested(rng: random.Random, m: int, p_s: float, p_q: float):
    """Sample (s, q) with Z(s) inside Z(q) by per-point coupling."""
    inner, outer = [], []
    for i in range(1 << m):
        u = rng.random()
        if u < p_s:
            inner.append(i)
            outer.append(i)
        elif u < p_q:
            outer.append(i)
    return _sigma_of(m, inner), _sigma_of(m, outer)


def _alice() -> PolySet:
    p1 = V(1) * V(2) * V(3)
    p2 = (Poly.one() + V(1)) * (Poly.one() + V(2)) * (Poly.one() + V(3))
    return PolySet.of(3, [p1, p2])


# ------------------------------------------------------------------------ psi

def test_psi_worked_example():
    s = PolySet.of(2, [V(1), V(2)])
    q = PolySet.of(2, [V(1) * V(2)])
    x = psi(s, q)
    assert x.to_string() == "0**1"


def test_psi_no_free_when_q_equals_s():
    s = PolySet.of(2, [V(1), V(2)])
    x = psi(s, s)
    assert FREE not in x.entries.tolist()
    assert x.to_string() == "0111"


def test_psi_all_free_on_degenerate_pair():
    s = PolySet.of(2, [Poly.one()])
    q = PolySet.of(2, [Poly.zero()])
    assert psi(s, q).to_string() == "****"


def test_psi_requires_entailment():
    s = PolySet.of(2, [V(1)])
    q = PolySet.of(2, [V(1), V(2)])
    # Z(s) = {00, 10} is not inside Z(q) = {00}
    with pytest.raises(NotEntailed):
        psi(s, q)


def test_psi_rejects_mixed_universes():
    with pytest.raises(DomainError):
        psi(PolySet.of(2, [V(1)]), PolySet.of(3, [V(1)]))


# ------------------------------------------------------------------ wire form

def test_header_layout():
    s = PolySet.of(3, [V(1)])
    tx = t1_encode(s, seed=0x0102030405060708)
    blob = tx.to_bytes()
    assert blob[:4] == b"LGC1"
    assert blob[4] == 1  # scenario tag
    assert blob[5] == 0  # no codec
    assert blob[6:8] == bytes([0, 3])
    assert blob[8:16] == bytes([1, 2, 3, 4, 5, 6, 7, 8])
    # p_s slot holds the empirical density |Z|/8 = 0.5
    assert int.from_bytes(blob[16:18], "big") == 32768
    assert blob[18:24] == bytes(6)
    assert len(blob) == 24 + (len(tx.payload) + 7) // 8


def test_quantize_param_clamps():
    assert quantize_param(0.0) == 0
    assert quantize_param(0.25) == 16384
    assert quantize_param(1.0) == 65535
    with pytest.raises(DomainError):
        quantize_param(1.5)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: quantize_param(_NAN), id="quantize_param-nan"),
    pytest.param(lambda: t2_encode(_alice(), PolySet(3, frozenset()), p_s=_NAN),
                 id="t2_encode-nan"),
    pytest.param(lambda: t5_encode(_alice(), _alice(), PolySet(3, frozenset()),
                                   conditionals=(_NAN, 0.5, 0.25, 0.5)),
                 id="t5_encode-nan"),
    pytest.param(lambda: SharedRandomness.for_law(1, _NAN, 0.5), id="for_law-nan"),
    pytest.param(lambda: SharedRandomness.for_law(1, _INF, 0.5), id="for_law-inf"),
    pytest.param(lambda: binary_entropy(_NAN), id="binary_entropy-nan"),
    pytest.param(lambda: lambda_fn(_NAN, 0.5), id="lambda_fn-nan"),
    pytest.param(lambda: lambda_fn(0.5, _INF), id="lambda_fn-inf"),
])
def test_nan_and_infinite_densities_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_read_transmission_roundtrip():
    s = _alice()
    tx = t1_encode(s, seed=99)
    back, used = read_transmission(tx.to_bytes())
    assert back == tx
    assert used == len(tx.to_bytes())


def test_read_transmission_rejects_garbage():
    s = PolySet.of(2, [V(1)])
    blob = bytearray(t1_encode(s).to_bytes())
    blob[0] ^= 0xFF
    with pytest.raises(MalformedHeader):
        read_transmission(bytes(blob))
    with pytest.raises(MalformedHeader):
        read_transmission(bytes(12))
    tagged = bytearray(t1_encode(s).to_bytes())
    tagged[4] = 9
    with pytest.raises(MalformedHeader):
        read_transmission(bytes(tagged))
    # codec id must match the scenario family
    crossed = bytearray(t1_encode(s).to_bytes())
    crossed[5] = 2
    with pytest.raises(MalformedHeader):
        read_transmission(bytes(crossed))


def test_negative_offset_is_a_domain_error():
    blob = t1_encode(_alice(), seed=99).to_bytes()
    # -1 once raised struct.error; -len(blob) read the header and returned
    # end offset 0, so a loop over concatenated transmissions never advanced
    for offset in (-1, -len(blob)):
        for call in (peek_header, read_transmission):
            with pytest.raises(DomainError, match="negative offset"):
                call(blob, offset)


def test_concatenated_transmissions_self_delimit():
    rng = random.Random(7)
    s1, q1 = _random_nested(rng, 4, 0.3, 0.7)
    s2 = _sigma_of(3, [0, 5])
    first = t4_encode(s1, q1, codec="linear", seed=11)
    second = t1_encode(s2, seed=12)
    blob = first.to_bytes() + second.to_bytes()
    got1, off = read_transmission(blob)
    got2, end = read_transmission(blob, offset=off)
    assert got1 == first
    assert got2 == second
    assert end == len(blob)
    assert zeros(t4_decode(got1)) == zeros(t4_decode(first))
    assert zeros(t1_decode(got2)) == zeros(s2)


def test_framing_a_long_stream_reads_bounded_windows(monkeypatch):
    # a reader over the whole rest of the stream made framing quadratic in
    # its length; each transmission now builds one reader over a window of
    # 2^m + 256 bits, rounded up to bytes, past its header
    m, rng = 3, random.Random(5)
    txs = []
    for i in range(300):
        if i % 2:
            s, q = _random_nested(rng, m, 0.3, 0.7)
            txs.append(t4_encode(s, q, codec=("linear", "random")[i % 4 // 2], seed=i))
        else:
            s = _sigma_of(m, rng.sample(range(1 << m), rng.randint(0, 1 << m)))
            txs.append(t1_encode(s, seed=i))
    blob = b"".join(tx.to_bytes() for tx in txs)
    sizes = []
    reader = protocols.BitReader

    def recording_reader(data, *args):
        sizes.append(len(data))
        return reader(data, *args)

    monkeypatch.setattr(protocols, "BitReader", recording_reader)
    back, offset = [], 0
    while offset < len(blob):
        tx, offset = read_transmission(blob, offset)
        back.append(tx)
    assert back == txs and offset == len(blob)
    assert len(sizes) == len(txs)
    assert max(sizes) <= ((1 << m) + 263) // 8 < len(blob) // 100


def test_ranked_count_without_rank_bits_fails_before_binomial(monkeypatch):
    # a t1 header at m=20 claiming 2^19 members, then nothing: neither
    # C(2^20, 2^19) nor the rank width may be computed for a stream this short
    body = BitWriter()
    body.write_elias_delta((1 << 19) + 1)
    blob = Transmission("t1", 20, None, 0, (0, 0, 0, 0), body.to_bits()).to_bytes()

    def not_called(n, k):
        raise AssertionError("rank sized")

    monkeypatch.setattr(bitcodec, "binom", not_called)
    monkeypatch.setattr(protocols, "rank_width", not_called)
    with pytest.raises(TruncatedStream):
        read_transmission(blob)


def test_framing_a_t1_payload_builds_no_binomial(monkeypatch):
    # the framer reads the rank in rank_width(n, k) bits, a log-gamma
    # estimate here, and leaves C(n, k) to the unrank
    m = 12
    s = _sigma_of(m, random.Random(3).sample(range(1 << m), 800))
    blob = t1_encode(s).to_bytes()
    built = []
    binom = bitcodec.binom

    def counting_binom(n, k):
        built.append((n, k))
        return binom(n, k)

    monkeypatch.setattr(bitcodec, "binom", counting_binom)
    tx, used = read_transmission(blob)
    assert built == [] and used == len(blob)
    assert zeros(t1_decode(tx)) == zeros(s)
    assert built == [(1 << m, 800)]


def test_t1_round_trip_builds_the_binomial_once(monkeypatch):
    # the unrank's C(n, k); the encoder's and the decoder's rank widths
    # come from a log-gamma estimate
    m = 12
    s = _sigma_of(m, random.Random(3).sample(range(1 << m), 800))
    built = []
    comb = math.comb

    def counting_comb(n, k):
        if n == 1 << m:
            built.append(k)
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting_comb)
    back = t1_decode(t1_encode(s))
    monkeypatch.undo()
    assert zeros(back) == zeros(s)
    assert built == [800]


def test_ranked_codeword_errors_name_field_and_offset():
    # the count is elias(k + 1) from bit 0; the rank follows it
    s = _sigma_of(5, [0, 3, 9, 17, 30])
    tx = t1_encode(s)
    rank_at = elias_delta_length(5 + 1)
    assert len(tx.payload) == rank_at + rank_width(32, 5)

    def cut(nbits):
        bits = Bits(tx.payload.value >> (len(tx.payload) - nbits), nbits)
        return dataclasses.replace(tx, payload=bits)

    with pytest.raises(TruncatedStream, match=rf"^bit stream exhausted \(rank at bit {rank_at}\)$"):
        t1_decode(cut(rank_at + 3))
    with pytest.raises(TruncatedStream, match=r"^bit stream exhausted \(zero set size at bit 0\)$"):
        t1_decode(cut(rank_at - 1))
    # a count past the 2^m candidates
    body = BitWriter()
    body.write_elias_delta(34)
    with pytest.raises(MalformedCodeword, match=r"exceeds the 32 candidates \(zero set size at bit 0\)$"):
        t1_decode(dataclasses.replace(tx, payload=body.to_bits()))
    # the framer counts from the payload's first bit too, wherever the
    # transmission starts in the stream
    lead = t1_encode(_sigma_of(5, [1, 2])).to_bytes()
    blob = lead + tx.to_bytes()
    for cut_bytes, field, at in ((0, "zero set size", 0), (1, "rank", rank_at)):
        data = blob[: len(lead) + protocols.HEADER_BYTES + cut_bytes]
        with pytest.raises(TruncatedStream, match=rf"^bit stream exhausted \({field} at bit {at}\)$"):
            read_transmission(data, len(lead))


def test_t1_rank_equal_to_the_binomial_raises_at_m16():
    # C(65536, 13107) is built from prime powers; the largest rank its
    # width holds is C(n, k) itself, one past the last subset
    n, k = 1 << 16, (1 << 16) // 5
    total = math.comb(n, k)
    body = BitWriter()
    body.write_elias_delta(k + 1)
    body.write_bits(total, rank_width(n, k))
    tx = Transmission("t1", 16, None, 0, (0, 0, 0, 0), body.to_bits())
    with pytest.raises(RankOutOfRange):
        t1_decode(tx)


def test_rank_out_of_range_names_the_rank_field():
    # a forged t1 payload at m = 5: k = 10 (elias(11) takes bits 0..7) and
    # the largest rank its 26 bits hold, past C(32, 10) = 64512240
    body = BitWriter()
    body.write_elias_delta(11)
    body.write_bits((1 << 26) - 1, rank_width(32, 10))
    tx = Transmission("t1", 5, None, 0, (0, 0, 0, 0), body.to_bits())
    refused = r"^rank 67108863 outside 0\.\.C\(32, 10\) - 1 \(rank at bit 8\)$"
    with pytest.raises(RankOutOfRange, match=refused):
        t1_decode(tx)
    with pytest.raises(RankOutOfRange, match=refused):
        t1_decode(read_transmission(tx.to_bytes())[0])


@pytest.mark.parametrize("scenario", ["t1", "t2"])
def test_ranked_round_trip_at_m16(scenario):
    # both payloads pass 5000 bits and take binom's prime-power path
    if scenario == "t1":
        (zs,), (s,) = sample(Single(0.2), 16, 25)
        back = t1_decode(t1_encode(s, seed=25))
    else:
        (zs, _), (s, r) = sample(Nested(0.125, 0.5), 16, 25)
        back = t2_decode(t2_encode(s, r, seed=25), r)
    assert zeros(back) == zs


def test_encode_determinism():
    rng = random.Random(15)
    s, q = _random_nested(rng, 5, 0.25, 0.75)
    a = t4_encode(s, q, codec="random", seed=21).to_bytes()
    b = t4_encode(s, q, codec="random", seed=21).to_bytes()
    assert a == b


# ------------------------------------------------------------------------- t1

def test_t1_worked_example():
    s = _alice()
    tx = t1_encode(s)
    assert len(tx.payload) == elias_delta_length(7) + rank_width(8, 6)
    shat = t1_decode(tx)
    assert zeros(shat) == zeros(s)
    # surface forms differ yet the statements are mutually entailed
    other = PolySet.of(3, [V(1) * V(2) + V(1) * V(3) + V(2) * V(3)
                           + V(1) + V(2) + V(3) + Poly.one()])
    assert entails(shat, other) and entails(other, shat)


def test_t1_empty_and_full_sets():
    empty = PolySet.of(3, [Poly.one()])
    tx = t1_encode(empty)
    assert len(tx.payload) == elias_delta_length(1)
    assert zeros(t1_decode(tx)).size == 0

    full = PolySet.of(3, [])
    tx2 = t1_encode(full)
    assert len(tx2.payload) == elias_delta_length((1 << 3) + 1)
    assert zeros(t1_decode(tx2)).size == 8


def test_t1_roundtrip_random():
    rng = random.Random(29)
    for _ in range(40):
        m = rng.randrange(1, 9)
        pts = [i for i in range(1 << m) if rng.random() < 0.4]
        s = _sigma_of(m, pts)
        tx = t1_encode(s, seed=rng.getrandbits(32))
        assert zeros(t1_decode(tx)) == AlgSet.from_points(m, pts)


# --------------------------------------------------------------------- t2, t3

def test_t2_roundtrip_and_width():
    rng = random.Random(31)
    for _ in range(30):
        m = rng.randrange(2, 9)
        s, r = _random_nested(rng, m, 0.2, 0.6)
        tx = t2_encode(s, r, seed=5)
        k = zeros(s).size
        assert len(tx.payload) == (
            elias_delta_length(k + 1) + rank_width(zeros(r).size, k)
        )
        assert zeros(t2_decode(tx, r)) == zeros(s)


def test_t2_payload_matches_position_ranking_oracle():
    # oracle: each member of Z(s) is ranked by its position in the ascending
    # enumeration of Z(r), looked up point by point
    for m in (10, 12):
        for seed in (1, 2, 3):
            s, r = _random_nested(random.Random(seed), m, 0.1, 0.5)
            zs, zr = zeros(s), zeros(r)
            position = {pt: i for i, pt in enumerate(
                pt for pt in range(1 << m) if zr.bits >> pt & 1)}
            ranked = [position[pt] for pt in range(1 << m) if zs.bits >> pt & 1]
            want = BitWriter()
            want.write_elias_delta(len(ranked) + 1)
            want.write_bits(subset_rank(zr.size, ranked),
                            rank_width(zr.size, len(ranked)))
            tx = t2_encode(s, r, seed=seed)
            assert tx.payload == want.to_bits()
            assert zeros(t2_decode(tx, r)) == zs


def test_t2_full_background_matches_t1():
    rng = random.Random(37)
    for m in (2, 4, 6):
        pts = [i for i in range(1 << m) if rng.random() < 0.35]
        s = _sigma_of(m, pts)
        r = PolySet.of(m, [])
        assert t2_encode(s, r).payload == t1_encode(s).payload


def test_t2_equal_sets_costs_only_header():
    s = _sigma_of(4, [1, 6, 9])
    tx = t2_encode(s, s)
    assert len(tx.payload) == elias_delta_length(4)
    assert zeros(t2_decode(tx, s)) == zeros(s)


def test_t2_requires_nesting():
    s = _sigma_of(3, [0, 1])
    r = _sigma_of(3, [1, 2])
    with pytest.raises(NotEntailed):
        t2_encode(s, r)


def test_t3_payload_matches_t2():
    rng = random.Random(41)
    s, r = _random_nested(rng, 6, 0.25, 0.7)
    a = t2_encode(s, r, seed=3)
    b = t3_encode(s, r, seed=3)
    assert a.payload == b.payload
    assert a.scenario == "t2" and b.scenario == "t3"


def test_t3_delta_contract():
    rng = random.Random(43)
    for _ in range(10):
        m = rng.randrange(2, 7)
        s, r = _random_nested(rng, m, 0.3, 0.7)
        tx = t3_encode(s, r)
        delta = t3_decode(tx, r)
        assert zeros(delta.union(r)) == zeros(s)
        for w in delta:
            assert not entails(r, PolySet.of(m, [w]))


def test_t3_nothing_new_gives_empty_delta():
    s = _sigma_of(4, [2, 3, 11])
    tx = t3_encode(s, s)
    assert len(t3_decode(tx, s)) == 0


def test_t3_decode_accepts_t2_transmission():
    rng = random.Random(47)
    s, r = _random_nested(rng, 5, 0.3, 0.8)
    delta = t3_decode(t2_encode(s, r), r)
    assert zeros(delta.union(r)) == zeros(s)


def test_challenge_stage_both_engines():
    rng = random.Random(53)
    for _ in range(6):
        m = rng.randrange(2, 6)
        s, r = _random_nested(rng, m, 0.3, 0.7)
        shat = t1_decode(t1_encode(s))
        extra = [i for i in range(1 << m) if rng.random() < 0.3]
        qprime = _sigma_of(m, sorted(set(zeros(s).points_list()) | set(extra)))
        assert entails(s, qprime)
        assert entails(shat, qprime)
        assert entails_groebner(shat, qprime)
        delta = t3_decode(t3_encode(s, r), r)
        taught = delta.union(r)
        assert entails(taught, qprime)
        assert entails_groebner(taught, qprime)


# ------------------------------------------------------------------------- t4

@pytest.mark.parametrize("codec", ["linear", "random"])
def test_t4_sandwich_roundtrip(codec):
    rng = random.Random(59)
    # the random codec's row scan is exponential in the constraint
    # count, so keep its universes small
    m_hi = 7 if codec == "linear" else 5
    for trial in range(12):
        m = rng.randrange(2, m_hi)
        s, q = _random_nested(rng, m, 0.25, 0.75)
        tx = t4_encode(s, q, codec=codec, seed=100 + trial)
        shat = t4_decode(tx)
        assert zeros(s).issubset(zeros(shat))
        assert zeros(shat).issubset(zeros(q))


def test_t4_exact_when_query_equals_statement():
    rng = random.Random(61)
    s, _ = _random_nested(rng, 5, 0.4, 0.9)
    tx = t4_encode(s, s, codec="linear", seed=8)
    assert zeros(t4_decode(tx)) == zeros(s)


def test_t4_less_is_more():
    # hunt for a trial where the decoded set lies strictly between
    rng = random.Random(67)
    for trial in range(50):
        s, q = _random_nested(rng, 6, 0.2, 0.8)
        tx = t4_encode(s, q, codec="linear", seed=trial)
        shat = t4_decode(tx)
        zs, zh, zq = zeros(s), zeros(shat), zeros(q)
        if zs.size < zh.size < zq.size:
            qprime = reconstruct(zh)
            assert entails(shat, qprime)
            assert not entails(q, qprime)
            return
    pytest.fail("no strict sandwich found in 50 seeded trials")


def test_t4_requires_entailment():
    s = _sigma_of(3, [0, 1])
    q = _sigma_of(3, [1, 2])
    with pytest.raises(NotEntailed):
        t4_encode(s, q)


@pytest.mark.parametrize("codec", ["linear", "random"])
def test_t4_one_sided_edges(codec):
    m = 4
    none = PolySet.of(m, [Poly.one()])      # empty algebraic set
    everything = PolySet.of(m, [])          # full algebraic set
    for s, q in [(none, everything), (none, _sigma_of(m, [1, 2, 3])),
                 (everything, everything)]:
        tx = t4_encode(s, q, codec=codec, seed=5)
        shat = t4_decode(tx)
        assert zeros(s).issubset(zeros(shat))
        assert zeros(shat).issubset(zeros(q))


# ------------------------------------------------------------------------- t5

def test_t5_full_background_payload_matches_t4():
    rng = random.Random(71)
    s, q = _random_nested(rng, 5, 0.25, 0.7)
    r = PolySet.of(5, [])
    for codec in ("linear", "random"):
        a = t4_encode(s, q, codec=codec, seed=13)
        b = t5_encode(s, q, r, codec=codec, seed=13)
        assert a.payload == b.payload
        assert zeros(t5_decode(b, r)) == zeros(t4_decode(a))


@pytest.mark.parametrize("codec", ["linear", "random"])
def test_t5_sandwich_with_misinformation(codec):
    rng = random.Random(73)
    m_hi = 7 if codec == "linear" else 5
    for trial in range(12):
        m = rng.randrange(2, m_hi)
        s, q = _random_nested(rng, m, 0.25, 0.75)
        # background sampled independently: misinformation permitted
        r = _sigma_of(m, [i for i in range(1 << m) if rng.random() < 0.5])
        tx = t5_encode(s, q, r, codec=codec, seed=400 + trial)
        shat = t5_decode(tx, r)
        assert zeros(s).issubset(zeros(shat))
        assert zeros(shat).issubset(zeros(q))


def test_t5_payload_is_two_side_codewords():
    rng = random.Random(79)
    s, q = _random_nested(rng, 4, 0.3, 0.8)
    r = _sigma_of(4, [0, 1, 2, 3, 4, 5, 6, 7])
    tx = t5_encode(s, q, r, codec="linear", seed=2)
    blob = tx.to_bytes()
    back, used = read_transmission(blob, r=r)
    assert used == len(blob)
    assert back == tx
    assert zeros(t5_decode(back, r)) == zeros(t5_decode(tx, r))


def test_t5_empty_background_side_emits_no_extra_bits():
    rng = random.Random(83)
    s, q = _random_nested(rng, 4, 0.3, 0.8)
    r_empty = PolySet.of(4, [Poly.one()])
    tx = t5_encode(s, q, r_empty, codec="linear", seed=6)
    # the Z(r) side is empty, so the whole payload is one codeword
    solo = t5_decode(tx, r_empty)
    assert zeros(s).issubset(zeros(solo))
    assert zeros(solo).issubset(zeros(q))


def test_t5_conditional_params_on_header():
    s = _sigma_of(3, [0, 1])
    q = _sigma_of(3, [0, 1, 2, 3])
    r = _sigma_of(3, [0, 1, 2, 3])
    tx = t5_encode(s, q, r, codec="linear", seed=1)
    # inside Z(r): 2 of 4 points are zeros of s, all 4 are zeros of q
    assert tx.params[0] == quantize_param(0.5)
    assert tx.params[1] == quantize_param(1.0)


# ----------------------------------------------------------- stream with r

def test_read_transmission_needs_background_for_t2():
    rng = random.Random(89)
    s, r = _random_nested(rng, 4, 0.3, 0.7)
    blob = t2_encode(s, r).to_bytes()
    with pytest.raises(DomainError):
        read_transmission(blob)
    tx, used = read_transmission(blob, r=r)
    assert used == len(blob)
    assert zeros(t2_decode(tx, r)) == zeros(s)


def test_peek_header_reads_scenario_and_universe():
    s = PolySet.of(2, [V(1)])
    blob = t1_encode(s, seed=9).to_bytes()
    assert peek_header(blob) == ("t1", None, 2)
    with pytest.raises(MalformedHeader):
        peek_header(blob[:10])
    with pytest.raises(MalformedHeader):
        peek_header(b"XXXX" + blob[4:])


def test_a_malformed_header_names_its_byte_offset():
    # each refusal of the second header of a stream ends in its byte offset
    lead = t1_encode(PolySet.of(2, [V(1)]), seed=9).to_bytes()
    at = len(lead)

    def forged(pos: int, raw: bytes) -> bytes:
        return lead[:pos] + raw + lead[pos + len(raw):]

    for header, what in (
        (lead[:10], "truncated header"),
        (forged(0, b"XXXX"), "bad magic b'XXXX'"),
        (forged(4, b"\x09"), "unknown scenario tag 9"),
        (forged(5, b"\x07"), "unknown codec id 7"),
        (forged(5, b"\x02"), "codec id inconsistent with scenario tag"),
        (forged(6, b"\x00\x19"), "universe size 25 unsupported"),
    ):
        for call in (peek_header, read_transmission):
            with pytest.raises(MalformedHeader, match=rf"^{re.escape(what)} \(header at byte {at}\)$"):
                call(lead + header, at)
    with pytest.raises(MalformedHeader, match=r"^bad magic b'XXXX' \(header at byte 0\)$"):
        peek_header(forged(0, b"XXXX"))


# ------------------------------------------------------------ hostile input

def _t4_with_row_index(codec: str, j: int) -> Transmission:
    """A t4 transmission at m=3 whose one codeword claims row index j."""
    body = BitWriter()
    body.write_elias_delta(j)
    return Transmission("t4", 3, codec, 0, (16384, 32768, 0, 0), body.to_bits())


@pytest.mark.parametrize("codec", ["linear", "random"])
@pytest.mark.parametrize("j", [J_MAX + 1, 1 << 40, 1 << 70])
def test_row_index_past_j_max_is_malformed(codec, j):
    # no encoder emits J > J_MAX; past 2^38 the row keys wrap in uint64
    tx = _t4_with_row_index(codec, j)
    with pytest.raises(MalformedCodeword):
        read_transmission(tx.to_bytes())
    with pytest.raises(MalformedCodeword):
        t4_decode(tx)


def test_row_index_at_j_max_still_reads():
    tx = _t4_with_row_index("random", J_MAX)
    assert read_transmission(tx.to_bytes())[0] == tx


_DECODE_UNDER_1GB = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from logicast.bitcodec import BitWriter
from logicast.errors import LogicastError
from logicast.protocols import Transmission, read_transmission, t4_decode
j = 1 << 20
body = BitWriter()
body.write_elias_delta(j)
for _ in range(j >> 10):
    body.write_bits((1 << 1024) - 1, 1024)
data = Transmission("t4", 12, "linear", 7, (16384, 32768, 0, 0), body.to_bits()).to_bytes()
assert len(data) < 132 * 1024
try:
    t4_decode(read_transmission(data)[0])
    print("returned")
except LogicastError as exc:
    print("raised", type(exc).__name__)
"""


def test_forged_linear_row_count_is_refused_before_any_draw(monkeypatch):
    # J = 2^23 with every combination bit set: 1 MB of t4 payload at m=12,
    # whose first side has 4096 cells, so no encoder sends more than 4160 rows
    j = 1 << 23
    head = BitWriter()
    head.write_elias_delta(j)
    head = head.to_bits()
    payload = Bits((head.value << j) | ((1 << j) - 1), head.nbits + j)
    tx = Transmission("t4", 12, "linear", 7, (16384, 32768, 0, 0), payload)
    drawn = []
    monkeypatch.setattr(partition, "draw_array", lambda *a: drawn.append(a))
    refused = r"^row index 8388608 exceeds 4096 cells \+ 64 rows \(row index at bit 0\)$"
    with pytest.raises(MalformedCodeword, match=refused):
        t4_decode(tx)
    with pytest.raises(MalformedCodeword, match=refused):
        read_transmission(tx.to_bytes())
    assert drawn == []


def test_linear_decode_memory_bounded_on_forged_row_count():
    # 2^20 picked rows of 2^12 bits: 128 kB of payload, while drawing every
    # picked row at once would take 512 MB of row words plus their keys
    src = str(Path(logicast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DECODE_UNDER_1GB], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] in ("returned", "raised"), proc.stdout


@lru_cache(maxsize=None)
def _valid_transmission(scenario: str, codec: str, m: int, seed: int):
    """(bytes, background) of one valid transmission; background None for t1/t4."""
    rng = random.Random(seed * 100 + m)
    s, q = _random_nested(rng, m, 0.3, 0.7)
    if scenario == "t1":
        return t1_encode(s, seed=seed).to_bytes(), None
    if scenario in ("t2", "t3"):
        encode = t2_encode if scenario == "t2" else t3_encode
        return encode(s, q, seed=seed).to_bytes(), q
    if scenario == "t4":
        return t4_encode(s, q, codec=codec, seed=seed).to_bytes(), None
    r = _sigma_of(m, [i for i in range(1 << m) if rng.random() < 0.5])
    return t5_encode(s, q, r, codec=codec, seed=seed).to_bytes(), r


_DECODERS = {"t1": t1_decode, "t2": t2_decode, "t3": t3_decode,
             "t4": t4_decode, "t5": t5_decode}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_payload_decodes_or_raises_logicast_error(data):
    scenario = data.draw(st.sampled_from(sorted(_DECODERS)))
    m = data.draw(st.integers(3, 5))
    codec = data.draw(st.sampled_from(["linear", "random"] if m <= 4 else ["linear"]))
    blob, r = _valid_transmission(scenario, codec, m, data.draw(st.integers(0, 3)))
    head, payload = blob[: protocols.HEADER_BYTES], bytearray(blob[protocols.HEADER_BYTES :])
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["flip", "truncate", "append"]))
        if op == "flip" and payload:
            i = data.draw(st.integers(0, len(payload) - 1))
            payload[i] ^= 1 << data.draw(st.integers(0, 7))
        elif op == "truncate":
            del payload[data.draw(st.integers(0, len(payload))) :]
        elif op == "append":
            payload += data.draw(st.binary(min_size=1, max_size=8))
    try:
        tx, _ = read_transmission(head + bytes(payload), r=r)
        decoded = _DECODERS[scenario](tx, r) if r is not None else _DECODERS[scenario](tx)
    except LogicastError:
        return
    assert decoded.m == m
