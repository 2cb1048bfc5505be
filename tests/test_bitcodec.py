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
    colex_unrank,
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


def _colex_rank(members) -> int:
    """Oracle: the colex rank as defined, the sum of comb(v_i, i + 1) over
    sorted members. Slow past a few thousand dense members."""
    return sum(math.comb(v, i + 1) for i, v in enumerate(sorted(members)))


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

def _binom_grid():
    """Every (n, k) with n < 64, then seeded n up to 2^18 on both sides of
    binom's switch to prime powers, with k at both ends and in between."""
    for n in range(64):
        for k in range(n + 1):
            yield n, k
    rng = random.Random(25)
    for e in range(7, 19):
        n = rng.randrange((1 << e - 1) + 1, (1 << e) + 1)
        for k in (0, 1, n // 20, n // 5, n // 2, n - 1, n):
            yield n, k


def test_binom_matches_math_comb(monkeypatch):
    # both paths against math.comb on the whole grid; binom takes prime
    # powers from its bound on, unless k is sparse, and the grid reaches
    # both sides of the bound at k = n/20, n/5 and n/2
    prime_power_binom = bitcodec._prime_power_binom
    took = []

    def counting(n, k):
        took.append((n, k))
        return prime_power_binom(n, k)

    monkeypatch.setattr(bitcodec, "_prime_power_binom", counting)
    sides = {20: set(), 5: set(), 2: set()}
    for n, k in _binom_grid():
        want = math.comb(n, k)
        took.clear()
        assert binom(n, k) == prime_power_binom(n, k) == want, (n, k)
        lg = bitcodec._log2_binom(n, k)
        past = lg >= bitcodec._BINOM_PRIME_MIN_BITS
        assert took == ([(n, k)] if past and lg * n.bit_length() >= n else []), (n, k)
        for d in sides:
            if n >= 64 and k == n // d:
                sides[d].add(past)
        assert rank_width(n, k) == (want - 1).bit_length(), (n, k)
    assert sides == {20: {False, True}, 5: {False, True}, 2: {False, True}}
    # C(4096, 2048), 4090 bits, which prime powers build about 8x faster
    took.clear()
    binom(4096, 2048)
    assert took == [(4096, 2048)]
    assert binom(np.int64(16384), np.int64(3276)) == math.comb(16384, 3276)
    assert binom(10, 12) == 0
    with pytest.raises(DomainError):
        binom(-1, 0)
    with pytest.raises(DomainError):
        binom(3, -1)


# --------------------------------------------------------- subset rank/unrank

def test_rank_known_values():
    assert subset_rank(4, (0, 1)) == 0
    assert subset_rank(4, ()) == 0
    assert subset_unrank(4, 2, 5) == colex_unrank(4, 2, 5) == (2, 3)
    assert subset_unrank(4, 0, 0) == colex_unrank(4, 0, 0) == ()


def test_rank_against_colex_oracle():
    # up to 64 candidates the halving order is colex
    for n in range(0, 9):
        for k in range(0, n + 1):
            order = _colex_order(n, k)
            for r, sub in enumerate(order):
                assert subset_rank(n, sub) == _colex_rank(sub) == r
                assert subset_unrank(n, k, r) == colex_unrank(n, k, r) == sub


def test_rank_unrank_identity_medium():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 300)
        k = rng.randrange(0, n + 1)
        members = tuple(sorted(rng.sample(range(n), k)))
        r = subset_rank(n, members)
        assert 0 <= r < binom(n, k)
        assert subset_unrank(n, k, r) == members
        assert colex_unrank(n, k, _colex_rank(members)) == members


def test_rank_domain_errors():
    with pytest.raises(DomainError):
        subset_rank(4, (0, 4))
    with pytest.raises(DomainError):
        subset_rank(4, (2, 2))
    for unrank in (subset_unrank, colex_unrank):
        with pytest.raises(RankOutOfRange):
            unrank(4, 2, 6)
        with pytest.raises(RankOutOfRange):
            unrank(4, 2, -1)
        with pytest.raises(DomainError):
            unrank(4, 5, 0)


# ------------------------------------------------------------ halving order
# A reference written from the `protocols` docstring with math.comb only.

def _block_order(m0: int, lo: int, hi: int) -> list[int]:
    """The counts in block order: m0, m0 + 1, m0 - 1, m0 + 2, ..., within [lo, hi]."""
    order = [m0]
    for d in range(1, hi - lo + 1):
        order += [b for b in (m0 + d, m0 - d) if lo <= b <= hi]
    return order


def _halving_blocks(n: int, k: int) -> tuple[int, list[int]]:
    h = n // 2
    lo, hi = max(0, k - (n - h)), min(k, h)
    return h, _block_order(min(max(k * h // n, lo), hi), lo, hi)


def _halving_rank(n: int, members, leaf: int = 64) -> int:
    members = sorted(members)
    if n <= leaf:
        return _colex_rank(members)
    h, order = _halving_blocks(n, len(members))
    low = [v for v in members if v < h]
    high = [v - h for v in members if v >= h]
    a = len(low)
    before = sum(math.comb(h, b) * math.comb(n - h, len(members) - b)
                 for b in order[: order.index(a)])
    return before + _halving_rank(n - h, high, leaf) * math.comb(h, a) + _halving_rank(h, low, leaf)


def _halving_unrank(n: int, k: int, rank: int, leaf: int = 64) -> tuple[int, ...]:
    if n <= leaf:
        out = []
        for s in range(k, 0, -1):
            v = max(v for v in range(n) if math.comb(v, s) <= rank)
            rank -= math.comb(v, s)
            out.append(v)
            n = v
        return tuple(reversed(out))
    h, order = _halving_blocks(n, k)
    for a in order:
        block = math.comb(h, a) * math.comb(n - h, k - a)
        if rank < block:
            break
        rank -= block
    high, low = divmod(rank, math.comb(h, a))
    return _halving_unrank(h, a, low, leaf) + tuple(
        h + v for v in _halving_unrank(n - h, k - a, high, leaf))


@pytest.mark.parametrize("leaf", [2, 4])
def test_halving_order_is_a_bijection_with_small_leaves(monkeypatch, leaf):
    # at the real leaf of 64 candidates no n here would leave the colex leaf
    monkeypatch.setattr(bitcodec, "_LEAF", leaf)
    for n in range(13):
        for k in range(n + 1):
            ranks = []
            for sub in itertools.combinations(range(n), k):
                r = subset_rank(n, sub)
                assert r == _halving_rank(n, sub, leaf), (n, sub)
                assert subset_unrank(n, k, r) == sub
                ranks.append(r)
            assert sorted(ranks) == list(range(math.comb(n, k))), (n, k)


def _halving_cases():
    """(n, members) with 64 <= n <= 2^14: uniform at several densities, and
    skewed, so that blocks far from m0 and binomials far from the last of
    their size are reached. Then n next to the leaves ranked inside their
    parent's call (64), the 129-row Pascal table (128) and the largest node
    that reads every binomial from it (256), and n whose odd halves stay odd."""
    rng = random.Random(37)
    for _ in range(12):
        n = rng.randrange(65, (1 << rng.randrange(7, 15)) + 1)
        for k in (0, 1, n // 5, n // 2, n - 1, n):
            yield n, tuple(sorted(rng.sample(range(n), k)))
    for n in (65, 200, 4096):
        k = n // 5
        yield n, tuple(sorted(rng.sample(range(n // 4), k // 2) + rng.sample(range(n // 2, n), k // 2)))
        yield n, tuple(range(n - k, n))
    for n in (64, 65, 128, 129, 130, 256, 257, 258, 511, 513, 1023, 1025, 1365, 2049):
        for k in (0, 1, n // 5, n // 2, n - 1, n):
            yield n, tuple(sorted(rng.sample(range(n), k)))
        k = n // 5
        yield n, tuple(range(k))
        yield n, tuple(range(n - k, n))
        yield n, tuple(range(0, 5 * k, 5))
        yield n, tuple(sorted(rng.sample(range(n // 3), k // 2) + rng.sample(range(n - n // 8, n), k // 2)))


def test_halving_rank_and_unrank_match_the_reference():
    for n, members in _halving_cases():
        k = len(members)
        rank = _halving_rank(n, members)
        assert subset_rank(n, members) == rank, (n, k)
        assert subset_unrank(n, k, rank) == members, (n, k)
        total = math.comb(n, k)
        for r in {0, total - 1, total // 3}:
            assert subset_unrank(n, k, r) == _halving_unrank(n, k, r), (n, k, r)


def test_nodes_of_at_most_256_candidates_read_binomials_from_the_table(monkeypatch):
    # below the unrank's C(n, k), n = 256 reads every binomial from the
    # Pascal table; at n = 257 the root steps or builds those of its halves,
    # 128 and 129 candidates, and binom builds none of at most 128 anywhere
    near, built = [], []
    binom_near, fresh = bitcodec._binom_near, bitcodec.binom

    def counting_near(size, j, cache):
        near.append(size)
        return binom_near(size, j, cache)

    def counting_binom(n, k):
        built.append(n)
        return fresh(n, k)

    monkeypatch.setattr(bitcodec, "_binom_near", counting_near)
    monkeypatch.setattr(bitcodec, "binom", counting_binom)
    rng = random.Random(256)
    for n in (256, 257):
        for k in (n // 5, n // 2):
            members = tuple(sorted(rng.sample(range(n), k)))
            near.clear()
            built.clear()
            assert subset_unrank(n, k, subset_rank(n, members)) == members
            assert all(size > 128 for size in built), (n, built)
            assert set(near) == (set() if n == 256 else {128, 129}), (n, near)


def test_halving_order_is_colex_up_to_64_candidates():
    rng = random.Random(64)
    for n in (1, 17, 63, 64):
        for k in range(n + 1):
            members = tuple(sorted(rng.sample(range(n), k)))
            assert subset_rank(n, members) == _colex_rank(members)


# The walks over positions that the colex rank and unrank were before the
# chunked forms: the bit-exact oracle for both unrank modes, and for the
# colex sum where that sum is too slow.

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
    """The colex unrank, and its loop in both modes, match the walks; the
    walk's rank is the colex sum wherever that sum is quick to take."""
    k = len(members)
    want = _walk_rank(n, members)
    if k <= 300 or n <= 2048:
        assert _colex_rank(members) == want
    assert colex_unrank(n, k, want) == members
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
                assert colex_unrank(n, k, rank) == members
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
                rank = _colex_rank(members)
                closes.clear()
                assert colex_unrank(n, k, rank) == members == _walk_unrank(n, k, rank)
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
            assert colex_unrank(n, k, rank) == members, (chunk_bits, tol, k, rank)
            if (chunk_bits, tol) == default:
                correct = _correct_closes(members)
                assert all(correct(*c) for c in closes), (k, rank)
            assert _colex_rank(members) == rank


@settings(max_examples=40, deadline=None)
@given(_subsets())
def test_public_unrank_with_chunks_at_every_size(case):
    n, members = case
    rank = _walk_rank(n, members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitcodec, "_UNRANK_CHUNK_MIN_BITS", 0)
        assert colex_unrank(n, len(members), rank) == members


def test_closes_in_lowest_terms_match_the_plain_quotients(monkeypatch):
    # every close the chunked colex unrank makes, at sizes where the anchor
    # outgrows the chunk's denominator and its ratio is cancelled
    real_close = bitcodec._close_chunk
    closes = []

    def recording_close(*args):
        closes.append((args, real_close(*args)))
        return closes[-1][1]

    monkeypatch.setattr(bitcodec, "_close_chunk", recording_close)
    cancelled = 0
    for n in (1 << 13, 1 << 14):
        for k in (n // 5, n // 2, n - 30):
            members = tuple(sorted(random.Random(n + k).sample(range(n), k)))
            closes.clear()
            rank = _walk_rank(n, members)
            assert bitcodec._unrank(n, k, rank, math.comb(n - 1, k), True) == members
            assert _walk_unrank(n, k, rank) == members
            assert closes, (n, k)
            for (anchor, part, num, den), got in closes:
                assert got == (anchor * part // den, anchor * num // den)
                assert anchor * part % den == 0 and anchor * num % den == 0
                if anchor.bit_length() > den.bit_length():
                    cancelled += math.gcd(num, part, den) > 1
    assert cancelled > 0


def test_sparse_subset_of_a_large_universe_ranks_as_the_walk_and_unranks():
    # C(2^18, 200) has about 2360 bits; gaps of about 1300 positions, some
    # of several thousand, make each step's products long
    n, k = 1 << 18, 200
    members = tuple(sorted(random.Random(18).sample(range(n), k)))
    rank = _colex_rank(members)
    assert rank == _walk_rank(n, members)
    assert bitcodec._unrank(n, k, rank, math.comb(n - 1, k), True) == members
    assert colex_unrank(n, k, rank) == members


def test_rank_width():
    assert rank_width(4, 2) == 3      # binom = 6
    assert rank_width(8, 6) == 5      # binom = 28
    assert rank_width(5, 0) == 0      # binom = 1
    assert rank_width(5, 5) == 0      # binom = 1
    assert rank_width(4096, 819) == (math.comb(4096, 819) - 1).bit_length()
    for n, k in ((0, 1), (5, 6), (4096, 5000)):
        with pytest.raises(DomainError):
            rank_width(n, k)  # no k-subset exists


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
    assert len(w.to_bits()) == 3
    assert w.to_bytes() == b"\xa0"


def test_writer_fixed_width_big_endian():
    w = BitWriter()
    w.write_bits(5, 3)
    assert w.to_bytes() == b"\xa0"
    w2 = BitWriter()
    w2.write_bits(0, 0)
    assert len(w2.to_bits()) == 0 and w2.to_bytes() == b""


def test_writer_width_overflow():
    w = BitWriter()
    with pytest.raises(WidthOverflow):
        w.write_bits(8, 3)
    with pytest.raises(WidthOverflow):
        w.write_bits(-1, 3)


def test_writer_width_overflow_names_a_long_value_by_its_length():
    # str() refuses ints past 4300 digits; the message must not need one
    with pytest.raises(WidthOverflow, match=r"^value of 20001 bits does not fit in 10 bits$"):
        BitWriter().write_bits(1 << 20000, 10)


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
    assert r.bits_read == len(w.to_bits())


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
    assert len(data) == (len(w.to_bits()) + 7) // 8
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
    assert len(w.to_bits()) == len(ref)
    assert w.to_bytes() == _packed(ref)
    assert w.to_bits() == Bits(int("".join(map(str, ref)) or "0", 2), len(ref))
    assert w.to_bits().to_bytes() == _packed(ref)


@settings(max_examples=300)
@given(st.binary(max_size=40), st.data())
def test_reader_matches_reference_at_any_offset(data, draw):
    ref = _unpacked(data)
    offset = draw.draw(st.integers(min_value=0, max_value=len(ref)))
    widths = draw.draw(st.lists(st.integers(min_value=0, max_value=90), max_size=8))
    r = BitReader(data)
    r.read_bits(offset)
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
        r = BitReader(data)
        r.read_bits(offset)
        with pytest.raises(type(exc)):
            r.read_elias_delta()
        return
    r = BitReader(data)
    r.read_bits(offset)
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
    with pytest.raises(DomainError, match=r"^value 8 is not a 3-bit string$"):
        Bits(8, 3)
    r = BitReader(Bits(0b101, 3))
    assert r.read_bits(3) == 0b101
    with pytest.raises(TruncatedStream):
        r.read_bits(1)


def test_bits_names_a_long_value_by_its_length():
    # str() refuses ints past 4300 digits; the message must not need one
    with pytest.raises(DomainError, match=r"^value of 20001 bits is not a 10-bit string$"):
        Bits(1 << 20000, 10)


def test_bits_to_int_accepts_only_bits():
    assert bits_to_int([1, 0, 1]) == 5 and bits_to_int([]) == 0
    assert bits_to_int(np.array([1, 1], dtype=np.int64)) == 3
    # 32 and 95 would pass as ' ' and '_' if the digits were parsed as text
    for bad in ([0, 2], [-1], [32, 1], [1, 95, 1], ["1"]):
        with pytest.raises(DomainError):
            bits_to_int(bad)
