"""Golden wire vectors: the exact bytes of each scenario for fixed inputs.

The wire format is a contract, so these hex strings were recorded once
from the encoders and must never change unless the format is deliberately
revised (with a new MAGIC).  Inputs come from `simlab.sample` with fixed
seeds, so the vectors also pin the sampler and the shared randomness.
"""

from __future__ import annotations

import hashlib

import pytest

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


def _case(scenario: str, codec: str | None, m: int):
    """(transmission, background or None) for one golden cell."""
    seed = 1000 * m + int(scenario[1]) * 10 + (codec == "random")
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

GOLDEN: dict[tuple[str, str | None, int], str] = {
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


# SHA-256 of whole t1 and t2 transmissions at sizes where the colex rank
# runs through chunks of members; the hex vectors above stop at m = 6.
DIGESTS = {
    ("t1", 12): "4032cf2c2227e5cb2f8b99afe3a414cf5073577b7b4bd0732d65af696ff6bb49",
    ("t1", 14): "8cb1c3807a58ac36788b6b8f8adb18e4e0b811b30c73352b29f96ddc7962c80d",
    ("t2", 12): "356617a6ed088f01b5a36d25b15f7d55b9791eb193028d4805cac192335329ab",
    ("t2", 14): "c92c8701e8f4f1bcdc9d6bdcc0b6314db819e264229bea1c99e1b3cc5abfc88b",
}


@pytest.mark.parametrize("scenario,m", sorted(DIGESTS))
def test_large_wire_digests_are_pinned(scenario, m):
    tx, r = _case(scenario, None, m)
    assert hashlib.sha256(tx.to_bytes()).hexdigest() == DIGESTS[(scenario, m)]
    # decoding and encoding again gives the same bytes
    if r is None:
        again = t1_encode(t1_decode(tx), seed=tx.seed, p_s=T1_LAW.p_s)
    else:
        again = t2_encode(t2_decode(tx, r), r, seed=tx.seed, p_s=T23_LAW.p_s, p_r=T23_LAW.p_q)
    assert again.to_bytes() == tx.to_bytes()
