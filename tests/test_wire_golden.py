"""Golden wire vectors: the exact bytes of each scenario for fixed inputs.

The wire format is a contract, so these hex strings were recorded once
from the encoders and must never change.  It is revised only by a new
codec id: a new codec id keeps MAGIC, and an existing id's bytes never
change.  So the ranked payloads that the encoders wrote as codec id 0
(colex), before they wrote id 3 (the halving order), stay pinned as id-0
vectors that must still decode to the encoder's zero set.  Inputs come
from `simlab.sample` with fixed seeds, so the vectors also pin the
sampler and the shared randomness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from logicast.algset import zeros
from logicast.bitcodec import BitWriter, rank_width
from logicast.protocols import (
    read_transmission,
    t1_decode,
    t1_encode,
    t2_decode,
    t2_encode,
    t3_encode,
    t4_encode,
    t5_encode,
)
from logicast.simlab import Conditional, Nested, Single, sample

T1_LAW = Single(0.3)
T23_LAW = Nested(0.2, 0.6)
T4_LAW = Nested(0.25, 0.75)
T5_LAW = Conditional(0.5, 0.25, 0.75, 0.25, 0.75)


def _seed(scenario: str, codec: str | None, m: int) -> int:
    return 1000 * m + int(scenario[1]) * 10 + (codec == "random")


def _case(scenario: str, codec: str | None, m: int):
    """(transmission, background or None) for one golden cell; codec is the
    partition codec a t4/t5 encoder takes, None for t1-t3."""
    seed = _seed(scenario, codec, m)
    if scenario == "t1":
        _, (s,) = sample(T1_LAW, m, seed)
        return t1_encode(s, seed=seed, p_s=T1_LAW.p_s), None
    if scenario in ("t2", "t3"):
        _, (s, r) = sample(T23_LAW, m, seed)
        enc = t2_encode if scenario == "t2" else t3_encode
        return enc(s, r, seed=seed, p_s=T23_LAW.p_s, p_r=T23_LAW.p_q), r
    if scenario == "t4":
        _, (s, q) = sample(T4_LAW, m, seed)
        tx = t4_encode(s, q, codec=codec, seed=seed, p_s=T4_LAW.p_s, p_q=T4_LAW.p_q)
        return tx, None
    _, (s, q, r) = sample(T5_LAW, m, seed)
    law = T5_LAW
    conditionals = (law.p_s_in, law.p_q_in, law.p_s_out, law.p_q_out)
    return t5_encode(s, q, r, codec=codec, seed=seed, conditionals=conditionals), r


# The random codec's row scan is exponential in the constraint count, so
# its cells stop at m = 5 for t4 and m = 4 for t5.
CELLS = (
    [(sc, None, m) for sc in ("t1", "t2", "t3") for m in range(3, 7)]
    + [("t4", "linear", m) for m in range(3, 7)]
    + [("t4", "random", m) for m in range(3, 6)]
    + [("t5", "linear", m) for m in range(3, 7)]
    + [("t5", "random", m) for m in range(3, 5)]
)

# t1-t3 as codec id 3; for m <= 6 (at most 64 candidates) the halving
# order is colex, so each payload equals its id-0 vector's in COLEX_GOLDEN
GOLDEN: dict[tuple[str, str | None, int], str] = {
    ("t1", None, 3): (
        "4c474331010300030000000000000bc24ccd00000000000063c0"
    ),
    ("t1", None, 4): (
        "4c474331010300040000000000000faa4ccd000000000000735800"
    ),
    ("t1", None, 5): (
        "4c4743310103000500000000000013924ccd0000000000002191ffa4"
    ),
    ("t1", None, 6): (
        "4c47433101030006000000000000177a4ccd0000000000002bb5636114b41213"
        "c0"
    ),
    ("t2", None, 3): (
        "4c474331020300030000000000000bcc3333999a000000006260"
    ),
    ("t2", None, 4): (
        "4c474331020300040000000000000fb43333999a000000006c20"
    ),
    ("t2", None, 5): (
        "4c47433102030005000000000000139c3333999a000000006c1b"
    ),
    ("t2", None, 6): (
        "4c4743310203000600000000000017843333999a000000002a89912e1930"
    ),
    ("t3", None, 3): (
        "4c474331030300030000000000000bd63333999a0000000050"
    ),
    ("t3", None, 4): (
        "4c474331030300040000000000000fbe3333999a000000005500"
    ),
    ("t3", None, 5): (
        "4c4743310303000500000000000013a63333999a000000007bc418"
    ),
    ("t3", None, 6): (
        "4c47433103030006000000000000178e3333999a00000000259df221b2"
    ),
    ("t4", "linear", 3): (
        "4c474331040200030000000000000be04000c000000000004c"
    ),
    ("t4", "linear", 4): (
        "4c474331040200040000000000000fc84000c0000000000020cd"
    ),
    ("t4", "linear", 5): (
        "4c4743310402000500000000000013b04000c00000000000272b4e"
    ),
    ("t4", "linear", 6): (
        "4c4743310402000600000000000017984000c000000000002f5ba90802"
    ),
    ("t4", "random", 3): (
        "4c474331040100030000000000000be14000c000000000002900"
    ),
    ("t4", "random", 4): (
        "4c474331040100040000000000000fc94000c000000000001272"
    ),
    ("t4", "random", 5): (
        "4c4743310401000500000000000013b14000c00000000000083a78"
    ),
    ("t5", "linear", 3): (
        "4c474331050200030000000000000bea4000c0004000c00091"
    ),
    ("t5", "linear", 4): (
        "4c474331050200040000000000000fd24000c0004000c0005f00"
    ),
    ("t5", "linear", 5): (
        "4c4743310502000500000000000013ba4000c0004000c00069dff4"
    ),
    ("t5", "linear", 6): (
        "4c4743310502000600000000000017a24000c0004000c0002981a652a20c8080"
    ),
    ("t5", "random", 3): (
        "4c474331050100030000000000000beb4000c0004000c0005780"
    ),
    ("t5", "random", 4): (
        "4c474331050100040000000000000fd34000c0004000c0003bac"
    ),
}

# The t1-t3 vectors of codec id 0, which the encoders wrote before id 3.
COLEX_GOLDEN: dict[tuple[str, None, int], str] = {
    ("t1", None, 3): (
        "4c474331010000030000000000000bc24ccd00000000000063c0"
    ),
    ("t1", None, 4): (
        "4c474331010000040000000000000faa4ccd000000000000735800"
    ),
    ("t1", None, 5): (
        "4c4743310100000500000000000013924ccd0000000000002191ffa4"
    ),
    ("t1", None, 6): (
        "4c47433101000006000000000000177a4ccd0000000000002bb5636114b41213"
        "c0"
    ),
    ("t2", None, 3): (
        "4c474331020000030000000000000bcc3333999a000000006260"
    ),
    ("t2", None, 4): (
        "4c474331020000040000000000000fb43333999a000000006c20"
    ),
    ("t2", None, 5): (
        "4c47433102000005000000000000139c3333999a000000006c1b"
    ),
    ("t2", None, 6): (
        "4c4743310200000600000000000017843333999a000000002a89912e1930"
    ),
    ("t3", None, 3): (
        "4c474331030000030000000000000bd63333999a0000000050"
    ),
    ("t3", None, 4): (
        "4c474331030000040000000000000fbe3333999a000000005500"
    ),
    ("t3", None, 5): (
        "4c4743310300000500000000000013a63333999a000000007bc418"
    ),
    ("t3", None, 6): (
        "4c47433103000006000000000000178e3333999a00000000259df221b2"
    ),
}


@pytest.mark.parametrize("scenario,codec,m", CELLS)
def test_wire_bytes_are_pinned(scenario, codec, m):
    tx, _ = _case(scenario, codec, m)
    assert tx.to_bytes().hex() == GOLDEN[(scenario, codec, m)]


@pytest.mark.parametrize("scenario,codec,m", CELLS)
def test_golden_bytes_read_back(scenario, codec, m):
    tx, r = _case(scenario, codec, m)
    blob = bytes.fromhex(GOLDEN[(scenario, codec, m)])
    back, end = read_transmission(blob, r=r)
    assert back == tx
    assert end == len(blob)


def _zero_set(scenario: str, m: int):
    """Z(s) of a t1-t3 cell's statements, as `simlab.sample` drew them."""
    law = T1_LAW if scenario == "t1" else T23_LAW
    zero_sets, _ = sample(law, m, _seed(scenario, None, m))
    return zero_sets[0]


def _ranked_zero_set(tx, r):
    # t2_decode reads t3's bits too; t3_decode would strip what r proves
    return zeros(t1_decode(tx) if r is None else t2_decode(tx, r))


@pytest.mark.parametrize("scenario,codec,m", [c for c in CELLS if c[1] is None])
def test_colex_vectors_decode_to_the_encoders_zero_set(scenario, codec, m):
    tx, r = _case(scenario, codec, m)
    blob = bytes.fromhex(COLEX_GOLDEN[(scenario, codec, m)])
    back, end = read_transmission(blob, r=r)
    assert (back.codec, end) == ("colex", len(blob))
    assert _ranked_zero_set(back, r) == _zero_set(scenario, m)
    # at most 64 candidates: the id-3 payload has id 0's bits, and only the
    # codec byte differs
    assert back.payload == tx.payload
    new = tx.to_bytes()
    assert (blob[5], new[5]) == (0, 3)
    assert blob[:5] + blob[6:] == new[:5] + new[6:]


# SHA-256 of whole transmissions at sizes the hex vectors above (m <= 6) do
# not reach: t1 and t2 where the halving order splits the candidates down
# to 64-candidate leaves, and t4 and t5 with the linear codec, whose systems
# there span many draw calls of row words and hundreds of elimination steps.
DIGESTS = {
    ("t1", 12): "d277f8efe2fa24c0d4620f34ef341f93880609e442f8e3c1489a689edf90405f",
    ("t1", 14): "514b2c435f22bcb48c62502b93aaf6fc64c003bb332978d390b3acbebac55a2e",
    ("t2", 12): "ab6168fae9a0ac4ea8549e921af70bd04d764e3fd5a661e9a2dc34fdd47b7631",
    ("t2", 14): "9e32f14571ff911f21eee2feb3485d17fcc2f22c4eae61a175a8311cad045d46",
    ("t4", 10): "477f468189555318bb801fd98b30168b1432cc69f5338002fe7a3e76d415a749",
    ("t4", 12): "c076c356c3ae7ecc648b85e988ffc1c39d2f5bba7e65a0bf70bdd5659d9525cb",
    ("t5", 10): "a780224fb3b907299443de019e6f6768b82c8655cda0d24111e8260882382446",
    ("t5", 12): "32ceba01e854499e900e1a05bc00f47f17be39daae091d5d4811ff4420bfd209",
}


@pytest.mark.parametrize("scenario,m", sorted(DIGESTS))
def test_large_wire_digests_are_pinned(scenario, m):
    codec = "linear" if scenario in ("t4", "t5") else None
    tx, r = _case(scenario, codec, m)
    blob = tx.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[(scenario, m)]
    if codec:
        back, end = read_transmission(blob, r=r)
        assert back == tx
        assert end == len(blob)
        return
    # decoding and encoding again gives the same bytes
    if r is None:
        again = t1_encode(t1_decode(tx), seed=tx.seed, p_s=T1_LAW.p_s)
    else:
        again = t2_encode(t2_decode(tx, r), r, seed=tx.seed, p_s=T23_LAW.p_s, p_r=T23_LAW.p_q)
    assert again.to_bytes() == tx.to_bytes()


# SHA-256 of the t1 and t2 cells above as codec id 0, which the encoders
# wrote before id 3: the colex rank ran through chunks of members there.
COLEX_DIGESTS = {
    ("t1", 12): "4032cf2c2227e5cb2f8b99afe3a414cf5073577b7b4bd0732d65af696ff6bb49",
    ("t1", 14): "8cb1c3807a58ac36788b6b8f8adb18e4e0b811b30c73352b29f96ddc7962c80d",
    ("t2", 12): "356617a6ed088f01b5a36d25b15f7d55b9791eb193028d4805cac192335329ab",
    ("t2", 14): "c92c8701e8f4f1bcdc9d6bdcc0b6314db819e264229bea1c99e1b3cc5abfc88b",
}


def _colex_rank(members: list[int]) -> int:
    """The sum of C(v_i, i + 1) over sorted members. Each term after the
    first nonzero one is the last times C(u, i + 1) / C(v, i), an exact
    quotient of small products, so no term is built from scratch."""
    rank = term = 0
    for i, u in enumerate(members):
        if term:
            term = term * math.perm(u, u - v) // ((i + 1) * math.perm(u - i - 1, u - v - 1))
        elif u > i:
            term = math.comb(u, i + 1)
        rank += term
        v = u
    return rank


@pytest.mark.parametrize("scenario,m", sorted(COLEX_DIGESTS))
def test_colex_digests_still_decode_to_the_encoders_zero_set(scenario, m):
    tx, r = _case(scenario, None, m)
    zs = _zero_set(scenario, m)
    candidates = np.ones(1 << m, dtype=bool) if r is None else zeros(r).to_bool_array()
    members = np.flatnonzero(zs.to_bool_array()[candidates]).tolist()
    body = BitWriter()
    body.write_elias_delta(len(members) + 1)
    body.write_bits(_colex_rank(members), rank_width(int(candidates.sum()), len(members)))
    old = dataclasses.replace(tx, codec="colex", payload=body.to_bits())
    blob = old.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == COLEX_DIGESTS[(scenario, m)]
    back, end = read_transmission(blob, r=r)
    assert back == old and end == len(blob)
    assert _ranked_zero_set(back, r) == zs
    # the halving order changed no payload length
    assert len(tx.payload) == len(old.payload)
