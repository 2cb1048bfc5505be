from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicast import bitcodec
from logicast.bitcodec import (
    Bits,
    BitReader,
    BitWriter,
    binom,
    bits_to_int,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
    rank_width,
    subset_rank,
    subset_unrank,
)
from logicast.errors import (
    DomainError,
    MalformedCodeword,
    RankOutOfRange,
    TruncatedStream,
    WidthOverflow,
)


def _colex_order(n: int, k: int) -> list[tuple[int, ...]]:
    """Oracle: all k-subsets of range(n) in colexicographic order."""
    subs = itertools.combinations(range(n), k)
    return sorted(subs, key=lambda s: tuple(reversed(s)))


def _elias_length_formula(n: int) -> int:
    lg = math.floor(math.log2(n))
    return lg + 2 * math.floor(math.log2(1 + lg)) + 1


# ---------------------------------------------------------------- elias delta

def test_elias_known_codewords():
    assert elias_delta_encode(1) == [1]
    assert elias_delta_encode(2) == [0, 1, 0, 0]
    assert elias_delta_encode(3) == [0, 1, 0, 1]
    assert elias_delta_encode(17) == [0, 0, 1, 0, 1, 0, 0, 0, 1]


def test_elias_decode_known():
    assert elias_delta_decode([0, 1, 0, 1]) == (3, 4)
    assert elias_delta_decode([1]) == (1, 1)
    # trailing garbage is ignored, consumption reported
    assert elias_delta_decode([1, 0, 0, 1]) == (1, 1)


def test_elias_rejects_nonpositive():
    with pytest.raises(DomainError):
        elias_delta_encode(0)
    with pytest.raises(DomainError):
        elias_delta_encode(-3)


def test_elias_length_closed_form_small():
    for n in range(1, 5000):
        bits = elias_delta_encode(n)
        assert len(bits) == elias_delta_length(n) == _elias_length_formula(n)


def test_elias_truncated_stream():
    with pytest.raises(TruncatedStream):
        elias_delta_decode([0, 1])
    with pytest.raises(TruncatedStream):
        elias_delta_decode([0, 0, 1, 0, 1])


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=2**40))
def test_elias_roundtrip(n):
    bits = elias_delta_encode(n)
    value, used = elias_delta_decode(bits)
    assert value == n and used == len(bits)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=2**20), min_size=1, max_size=8))
def test_elias_prefix_free_concatenation(values):
    stream: list[int] = []
    for v in values:
        stream.extend(elias_delta_encode(v))
    pos = 0
    out = []
    while pos < len(stream):
        v, used = elias_delta_decode(stream[pos:])
        out.append(v)
        pos += used
    assert out == values


# ------------------------------------------------------------------ binomial

def test_binom_matches_math_comb():
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert binom(n, k) == math.comb(n, k)
    assert binom(10, 12) == 0
    with pytest.raises(DomainError):
        binom(-1, 0)
    with pytest.raises(DomainError):
        binom(3, -1)


# --------------------------------------------------------- subset rank/unrank

def test_rank_known_values():
    assert subset_rank(4, (0, 1)) == 0
    assert subset_rank(4, ()) == 0
    assert subset_unrank(4, 2, 5) == (2, 3)
    assert subset_unrank(4, 0, 0) == ()


def test_rank_against_colex_oracle():
    for n in range(0, 9):
        for k in range(0, n + 1):
            order = _colex_order(n, k)
            for r, sub in enumerate(order):
                assert subset_rank(n, sub) == r
                assert subset_unrank(n, k, r) == sub


def test_rank_unrank_identity_medium():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 300)
        k = rng.randrange(0, n + 1)
        members = tuple(sorted(rng.sample(range(n), k)))
        r = subset_rank(n, members)
        assert 0 <= r < binom(n, k)
        assert subset_unrank(n, k, r) == members


def test_rank_domain_errors():
    with pytest.raises(DomainError):
        subset_rank(4, (0, 4))
    with pytest.raises(DomainError):
        subset_rank(4, (2, 2))
    with pytest.raises(RankOutOfRange):
        subset_unrank(4, 2, 6)
    with pytest.raises(RankOutOfRange):
        subset_unrank(4, 2, -1)


# The walks over positions that subset_rank and subset_unrank were before
# the chunked forms: the bit-exact oracle for rank and for both unrank modes.

def _walk_rank(n: int, subset) -> int:
    members = sorted(subset)
    rank = 0
    take = 0
    j = 1
    coeff = 0
    for v in range(members[-1] + 1 if members else 0):
        if take < len(members) and members[take] == v:
            rank += coeff
            take += 1
            coeff = coeff * (v - j) // (j + 1) if v > j else 0
            j += 1
        nxt = v + 1
        if nxt < j:
            coeff = 0
        elif nxt == j:
            coeff = 1
        else:
            coeff = coeff * nxt // (nxt - j)
    return rank


def _walk_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    out: list[int] = []
    v = n - 1
    coeff = math.comb(n - 1, k) if k > 0 else 1
    for t in range(k, 0, -1):
        while coeff > rank:
            coeff = coeff * (v - t) // v
            v -= 1
        out.append(v)
        rank -= coeff
        if t > 1:
            coeff = 1 if v == t - 1 else coeff * t // (v - t + 1)
    return tuple(reversed(out))


def _check_both_paths(n: int, members: tuple[int, ...]) -> None:
    """Public functions, and the unrank loop in both modes, match the walks."""
    k = len(members)
    want = _walk_rank(n, members)
    assert subset_rank(n, members) == want
    assert subset_unrank(n, k, want) == members
    assert _walk_unrank(n, k, want) == members
    if k:
        top = math.comb(n - 1, k)
        assert bitcodec._unrank(n, k, want, top, True) == members
        assert bitcodec._unrank(n, k, want, top, False) == members


@st.composite
def _subsets(draw):
    """(n, members) with n <= 2^14: sparse, middling or dense."""
    n = draw(st.integers(min_value=1, max_value=1 << 14))
    shape = draw(st.sampled_from(("sparse", "middling", "dense")))
    if shape == "sparse":
        k = draw(st.integers(min_value=0, max_value=min(n, 64)))
    elif shape == "dense":
        k = n - draw(st.integers(min_value=0, max_value=min(n, 64)))
    else:
        k = draw(st.integers(min_value=0, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return n, tuple(sorted(random.Random(seed).sample(range(n), k)))


@settings(max_examples=40, deadline=None)
@given(_subsets())
def test_rank_unrank_match_the_walks(case):
    n, members = case
    _check_both_paths(n, members)


def test_rank_unrank_match_the_walks_at_boundary_ranks():
    # ranks C(y, t) - 1, C(y, t) and C(y, t) + 1: the subsets
    # {y - t, ..., y - 1}, {0, ..., t - 2, y} and {0, ..., t - 3, t - 1, y},
    # where a float or fixed-point guess lands on the wrong side
    n = 1 << 12
    for t in (3, 40, 800, 2048, n - 84):
        for y in (t, t + 1, t + 7, (n + t) // 2, n - 1):
            c = math.comb(y, t)
            cases = [tuple(range(y - t, y)), tuple(range(t - 1)) + (y,)]
            if t >= 2:
                cases.append(tuple(range(t - 2)) + (t - 1, y))
            for members, rank in zip(cases, (c - 1, c, c + 1)):
                assert _walk_rank(n, members) == rank
                _check_both_paths(n, members)


def test_rank_unrank_match_the_walks_at_extreme_sizes():
    rng = random.Random(11)
    for n in (1, 2, 64, 4096, 1 << 14):
        for k in sorted({0, 1, n - 1, n}):
            total = math.comb(n, k)
            for rank in sorted({0, total - 1}):
                members = _walk_unrank(n, k, rank)
                assert subset_unrank(n, k, rank) == members
                assert subset_unrank(n, k, rank, total) == members
                _check_both_paths(n, members)
            _check_both_paths(n, tuple(sorted(rng.sample(range(n), k))))


def _correct_closes(members: tuple[int, ...]):
    """A test of whether a chunk's (taken, anchor) is a stretch of the true members.

    From the top, the true members u_1 > u_2 > ... take the terms
    binom(u_i, k - i + 1) and leave the anchor binom(u_i - 1, k - i). A chunk
    that guessed true members u_(j+1)..u_i closes with the terms' sum and the
    anchor after u_i, and the unrank keeps exactly those chunks.
    """
    k = len(members)
    sums = [0]
    ends: dict[int, list[int]] = {}
    for i, (u, s) in enumerate(zip(reversed(members), range(k, 0, -1)), 1):
        sums.append(sums[-1] + math.comb(u, s))
        if u >= s:  # a chunk's guess v is at least s
            ends.setdefault(math.comb(u - 1, s - 1), []).append(i)
    index = {p: j for j, p in enumerate(sums)}
    return lambda taken, low: any(
        index.get(sums[i] - taken, i) < i for i in ends.get(low, ())
    )


# (_CHUNK_BITS, _GUESS_TOL): tiny chunks, closed after a member or two; and
# long chunks guessed to the last bit of a double, which run past its
# precision, so their later guesses are wrong
_FORCED_CHUNKS = ((24, 0.0), (1 << 16, 0.0))


def test_bad_chunk_guesses_fall_back_to_walk_steps(monkeypatch):
    # Every chunk closes through _close_chunk. One whose (taken, anchor) is
    # not a stretch of the true members failed its test, and the unrank then
    # took an exact walk step; the answer must still be the walk's.
    real_close = bitcodec._close_chunk
    closes = []

    def recording_close(*args):
        closes.append(real_close(*args))
        return closes[-1]

    monkeypatch.setattr(bitcodec, "_close_chunk", recording_close)
    monkeypatch.setattr(bitcodec, "_UNRANK_CHUNK_MIN_BITS", 0)
    for chunk_bits, tol in _FORCED_CHUNKS:
        monkeypatch.setattr(bitcodec, "_CHUNK_BITS", chunk_bits)
        monkeypatch.setattr(bitcodec, "_GUESS_TOL", tol)
        rng = random.Random(5)
        kept = failed = 0
        for n in (1, 5, 60, 300, 2000):
            for k in sorted({0, 1, n // 7, n // 2, n - 3, n - 1, n} & set(range(n + 1))):
                members = tuple(sorted(rng.sample(range(n), k)))
                rank = _walk_rank(n, members)
                closes.clear()
                assert subset_unrank(n, k, rank) == members == _walk_unrank(n, k, rank)
                correct = _correct_closes(members)
                good = sum(correct(taken, low) for taken, low in closes)
                kept += good
                failed += len(closes) - good
        assert kept > 0 and failed > 0, (chunk_bits, tol)


def test_guessed_chunks_at_boundary_ranks(monkeypatch):
    # ranks 0 and C(n, k) - 1, ranks C(v, k) (nothing left after the top
    # member v), runs of adjacent members, k = 1 and k = n, through the
    # public unrank with chunks tried at every size. At the default
    # tolerance no chunk may fail: a member whose z lies within rounding of
    # 1, on either side, ends its chunk before it is guessed.
    real_close = bitcodec._close_chunk
    closes = []

    def recording_close(*args):
        closes.append(real_close(*args))
        return closes[-1]

    monkeypatch.setattr(bitcodec, "_close_chunk", recording_close)
    monkeypatch.setattr(bitcodec, "_UNRANK_CHUNK_MIN_BITS", 0)
    n = 700
    cases = [(1, 0), (1, n - 1), (n, 0)]
    for k in (2, 9, 64, 350, n - 5, n - 1):
        total = math.comb(n, k)
        cases += [(k, 0), (k, total - 1), (k, total // 2)]
        cases += [(k, math.comb(v, k)) for v in {k, k + 1, k + 40, (n + k) // 2, n - 1} if v < n]
        # adjacent members: a run below a gap, and a run at the top
        run = tuple(range(k // 2)) + tuple(range(n - k + k // 2, n))
        cases.append((k, _walk_rank(n, run)))
    default = (bitcodec._CHUNK_BITS, bitcodec._GUESS_TOL)
    for chunk_bits, tol in (default,) + _FORCED_CHUNKS:
        monkeypatch.setattr(bitcodec, "_CHUNK_BITS", chunk_bits)
        monkeypatch.setattr(bitcodec, "_GUESS_TOL", tol)
        for k, rank in cases:
            members = _walk_unrank(n, k, rank)
            closes.clear()
            assert subset_unrank(n, k, rank) == members, (chunk_bits, tol, k, rank)
            if (chunk_bits, tol) == default:
                correct = _correct_closes(members)
                assert all(correct(*c) for c in closes), (k, rank)
            assert subset_rank(n, members) == rank


@settings(max_examples=40, deadline=None)
@given(_subsets())
def test_public_unrank_with_chunks_at_every_size(case):
    n, members = case
    rank = _walk_rank(n, members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitcodec, "_UNRANK_CHUNK_MIN_BITS", 0)
        assert subset_unrank(n, len(members), rank) == members


def test_sparse_subset_of_a_large_universe_ranks_as_the_walk_and_unranks():
    # C(2^18, 200) has about 2360 bits; gaps of about 1300 positions, some
    # of several thousand, make each step's products long
    n, k = 1 << 18, 200
    members = tuple(sorted(random.Random(18).sample(range(n), k)))
    rank = subset_rank(n, members)
    assert rank == _walk_rank(n, members)
    assert bitcodec._unrank(n, k, rank, math.comb(n - 1, k), True) == members
    assert subset_unrank(n, k, rank) == members


def test_rank_width():
    assert rank_width(4, 2) == 3      # binom = 6
    assert rank_width(8, 6) == 5      # binom = 28
    assert rank_width(5, 0) == 0      # binom = 1
    assert rank_width(5, 5) == 0      # binom = 1
    assert rank_width(4096, 819) == (math.comb(4096, 819) - 1).bit_length()


def test_rank_width_is_exact_for_every_k_up_to_1200():
    row = [1]
    for n in range(1201):
        if n:
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        for k, c in enumerate(row):
            assert rank_width(n, k) == (c - 1).bit_length(), (n, k)


def test_rank_width_is_exact_on_a_sample_up_to_2_pow_24():
    # min(k, n - k) stays below 2^13 so that math.comb is quick; the
    # estimate's error does not grow with it
    rng = random.Random(24)
    for _ in range(400):
        n = rng.randrange(2, (1 << rng.randrange(7, 25)) + 1)
        j = min(int(2 ** rng.uniform(0, 13)), n // 2)
        for k in (j, n - j):
            assert rank_width(n, k) == (math.comb(n, k) - 1).bit_length(), (n, k)
    # powers of two: C(2^a, 1) and C(2^a, 2^a - 1) are exactly 2^a
    for a in range(25):
        assert rank_width(1 << a, 1) == rank_width(1 << a, (1 << a) - 1) == a
    # every small k at the top of the estimate's range
    for n in ((1 << 24) - 1, 1 << 24):
        for k in range(1, 65):
            assert rank_width(n, k) == (math.comb(n, k) - 1).bit_length(), (n, k)


# ------------------------------------------------------------------ bitstream

def test_writer_packs_msb_first():
    w = BitWriter()
    w.write_bit(1)
    w.write_bit(0)
    w.write_bit(1)
    assert w.bit_length == 3
    assert w.to_bytes() == b"\xa0"


def test_writer_fixed_width_big_endian():
    w = BitWriter()
    w.write_bits(5, 3)
    assert w.to_bytes() == b"\xa0"
    w2 = BitWriter()
    w2.write_bits(0, 0)
    assert w2.bit_length == 0 and w2.to_bytes() == b""


def test_writer_width_overflow():
    w = BitWriter()
    with pytest.raises(WidthOverflow):
        w.write_bits(8, 3)
    with pytest.raises(WidthOverflow):
        w.write_bits(-1, 3)


def test_reader_roundtrip_mixed_fields():
    w = BitWriter()
    w.write_elias_delta(40)
    w.write_bits(0b1011, 4)
    w.write_elias_delta(1)
    w.write_bit(1)
    data = w.to_bytes()

    r = BitReader(data)
    assert r.read_elias_delta() == 40
    assert r.read_bits(4) == 0b1011
    assert r.read_elias_delta() == 1
    assert r.read_bits(1) == 1
    assert r.bits_read == w.bit_length


def test_reader_truncation():
    r = BitReader(b"")
    with pytest.raises(TruncatedStream):
        r.read_bits(1)
    w = BitWriter()
    w.write_bits(3, 2)
    r2 = BitReader(w.to_bytes())
    r2.read_bits(2)
    # padding bits exist up to the byte boundary, then the stream ends
    r2.read_bits(6)
    with pytest.raises(TruncatedStream):
        r2.read_bits(1)


def test_reader_bit_offset():
    w = BitWriter()
    w.write_bits(0b0110, 4)
    w.write_elias_delta(3)
    r = BitReader(w.to_bytes(), bit_offset=4)
    assert r.read_elias_delta() == 3


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**20), st.integers(min_value=0, max_value=24)),
        max_size=12,
    )
)
def test_stream_roundtrip_random_fields(fields):
    w = BitWriter()
    wrote = []
    for value, width in fields:
        value &= (1 << width) - 1
        w.write_bits(value, width)
        wrote.append((value, width))
    data = w.to_bytes()
    assert len(data) == (w.bit_length + 7) // 8
    r = BitReader(data)
    for value, width in wrote:
        assert r.read_bits(width) == value


# ------------------------------------------- packed stream against bit lists
# The reference keeps the stream as a plain list of 0/1 ints and packs it
# with numpy, so it shares no code with the integer-backed writer/reader.


def _field_bits(value: int, width: int) -> list[int]:
    return [(value >> s) & 1 for s in range(width - 1, -1, -1)]


def _packed(bits: list[int]) -> bytes:
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


def _unpacked(data: bytes) -> list[int]:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()


def _reference_field(bits: list[int], pos: int, width: int) -> tuple[int, int]:
    if pos + width > len(bits):
        raise TruncatedStream("reference ran out")
    return int("".join(map(str, bits[pos : pos + width])) or "0", 2), pos + width


def _reference_elias(bits: list[int], pos: int) -> tuple[int, int]:
    """(value, end) of the Elias-delta codeword at `pos`, read bit by bit."""
    zeros = 0
    while True:
        if pos >= len(bits):
            raise TruncatedStream("reference ran out")
        if bits[pos]:
            break
        zeros += 1
        pos += 1
        if zeros > 57:
            raise MalformedCodeword("reference prefix cap")
    length, pos = _reference_field(bits, pos, zeros + 1)
    low, pos = _reference_field(bits, pos, length - 1)
    return (1 << (length - 1)) | low, pos


_fields = st.lists(
    st.integers(min_value=0, max_value=200).flatmap(
        lambda w: st.tuples(st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w))
    ),
    max_size=12,
)


@settings(max_examples=300)
@given(_fields)
def test_writer_matches_packbits_reference(fields):
    w = BitWriter()
    ref: list[int] = []
    for value, width in fields:
        w.write_bits(value, width)
        ref += _field_bits(value, width)
    assert w.bit_length == len(ref)
    assert w.to_bytes() == _packed(ref)
    assert w.to_bits() == Bits(int("".join(map(str, ref)) or "0", 2), len(ref))
    assert w.to_bits().to_bytes() == _packed(ref)


@settings(max_examples=300)
@given(st.binary(max_size=40), st.data())
def test_reader_matches_reference_at_any_offset(data, draw):
    ref = _unpacked(data)
    offset = draw.draw(st.integers(min_value=0, max_value=len(ref)))
    widths = draw.draw(st.lists(st.integers(min_value=0, max_value=90), max_size=8))
    r = BitReader(data, bit_offset=offset)
    pos = offset
    for width in widths:
        if pos + width > len(ref):
            with pytest.raises(TruncatedStream):
                r.read_bits(width)
            return
        want, pos = _reference_field(ref, pos, width)
        assert r.read_bits(width) == want
        assert r.bits_read == pos


@settings(max_examples=500)
@given(st.binary(max_size=40), st.data())
def test_elias_reader_on_arbitrary_bytes(data, draw):
    """Any input decodes like the reference or raises one of its two errors."""
    ref = _unpacked(data)
    offset = draw.draw(st.integers(min_value=0, max_value=len(ref)))
    try:
        want = _reference_elias(ref, offset)
    except (TruncatedStream, MalformedCodeword) as exc:
        with pytest.raises(type(exc)):
            BitReader(data, bit_offset=offset).read_elias_delta()
        return
    r = BitReader(data, bit_offset=offset)
    assert (r.read_elias_delta(), r.bits_read) == want


def test_elias_length_prefix_cap():
    # 57 zeros still name a length (2^57 bits, which the stream lacks) ...
    w = BitWriter()
    w.write_bits(1, 58)
    w.write_bits(0, 200)
    with pytest.raises(TruncatedStream):
        BitReader(w.to_bytes()).read_elias_delta()
    # ... but a 58th zero is corruption, whatever follows
    w = BitWriter()
    w.write_bits(1, 59)
    w.write_bits(0, 200)
    with pytest.raises(MalformedCodeword):
        BitReader(w.to_bytes()).read_elias_delta()
    with pytest.raises(MalformedCodeword):
        BitReader(bytes(8)).read_elias_delta()


def test_bits_value_type():
    assert len(Bits(5, 3)) == 3 and Bits(5, 3).to_bytes() == b"\xa0"
    assert Bits(0, 0).to_bytes() == b""
    with pytest.raises(DomainError):
        Bits(8, 3)
    r = BitReader(Bits(0b101, 3))
    assert r.read_bits(3) == 0b101
    with pytest.raises(TruncatedStream):
        r.read_bits(1)


def test_bits_to_int_accepts_only_bits():
    assert bits_to_int([1, 0, 1]) == 5 and bits_to_int([]) == 0
    assert bits_to_int(np.array([1, 1], dtype=np.int64)) == 3
    # 32 and 95 would pass as ' ' and '_' if the digits were parsed as text
    for bad in ([0, 2], [-1], [32, 1], [1, 95, 1], ["1"]):
        with pytest.raises(DomainError):
            bits_to_int(bad)
