from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logicast.partition as partition
from logicast.bitcodec import Bits, BitReader, BitWriter, elias_delta_encode
from logicast.errors import (
    DomainError,
    DuplicateColumns,
    MalformedCodeword,
    SearchExhausted,
    TruncatedStream,
)
from logicast.partition import (
    FREE,
    SharedRandomness,
    TernaryVector,
    binary_entropy,
    cw_check,
    cw_matrix,
    first_solvable_prefix,
    lambda_fn,
    linear_decode,
    linear_encode,
    pack_columns,
    random_decode,
    random_encode,
    read_codeword,
    total_distortion,
)
from logicast.randomness import MASK64, draw, draw_array


# ---------------------------------------------------------------- references

def _h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _lam(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return (a + b) * _h(a / (a + b))


def _splitmix64_reference(seed: int, k: int) -> int:
    """Textbook splitmix64: k-th output of the stream started at `seed`."""
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _tv(text: str) -> TernaryVector:
    return TernaryVector("01*".index(ch) for ch in text)


def _reader(bits) -> BitReader:
    w = BitWriter()
    for bit in bits:
        w.write_bit(bit)
    return BitReader(w.to_bytes())


def _random_tv(rng: random.Random, n: int, p_free=0.5) -> TernaryVector:
    vals = [
        FREE if rng.random() < p_free else rng.randrange(2)
        for _ in range(n)
    ]
    return TernaryVector(vals)


# ------------------------------------------------------------------- the prng

def test_draw_matches_reference_splitmix64():
    rng = random.Random(3)
    for _ in range(200):
        seed = rng.getrandbits(64)
        k = rng.getrandbits(50)
        assert draw(seed, k) == _splitmix64_reference(seed, k)


def test_draw_array_matches_scalar():
    rng = random.Random(4)
    seed = rng.getrandbits(64)
    keys = np.array([rng.getrandbits(52) for _ in range(500)], dtype=np.uint64)
    vec = draw_array(seed, keys)
    assert vec.dtype == np.uint64
    for k, w in zip(keys.tolist(), vec.tolist()):
        assert w == _splitmix64_reference(seed, k)


# -------------------------------------------------------------------- vectors

def test_ternary_vector_construction():
    x = TernaryVector([0, 1, 2, 0])
    assert x.n == 4
    assert list(x.psi()) == [0, 1, 3]
    assert x.to_string() == "01*0"


def test_ternary_vector_validation():
    with pytest.raises(DomainError):
        TernaryVector([])
    with pytest.raises(DomainError):
        TernaryVector([0, 3])


def test_ternary_vector_from_array():
    src = np.array([0, 1, 2, 0], dtype=np.int8)
    x = TernaryVector(src)
    assert x == TernaryVector([0, 1, 2, 0])
    assert x.entries.dtype == np.int8
    src[0] = 1  # the vector holds its own copy
    assert x.to_string() == "01*0"
    # range is checked before the int8 cast, so 256 cannot wrap to 0
    for bad in ([0, 256], [0, -1], [0, 3]):
        with pytest.raises(DomainError):
            TernaryVector(np.array(bad, dtype=np.int64))


def test_ternary_vector_immutable():
    x = TernaryVector([0, 1, 2])
    with pytest.raises(ValueError):
        x.entries[0] = 1


def test_total_distortion():
    x = _tv("01*1")
    assert total_distortion(x, np.array([0, 1, 0, 1], dtype=np.uint8)) == 0
    assert total_distortion(x, np.array([1, 1, 1, 0], dtype=np.uint8)) == 2


# ------------------------------------------------------------------ lambda_fn

def test_lambda_known_values():
    assert lambda_fn(0.25, 0.25) == pytest.approx(0.5, abs=1e-12)
    assert lambda_fn(0.0, 0.3) == 0.0
    assert lambda_fn(0.3, 0.0) == 0.0
    assert lambda_fn(0.1, 0.4) == pytest.approx(0.360964, abs=1e-6)


def test_lambda_matches_closed_form():
    rng = random.Random(11)
    for _ in range(300):
        a = rng.uniform(0, 0.8)
        b = rng.uniform(0, 1.0 - a)
        assert lambda_fn(a, b) == pytest.approx(_lam(a, b), abs=1e-12)


def test_lambda_rejects_negatives():
    with pytest.raises(DomainError):
        lambda_fn(-0.1, 0.2)
    with pytest.raises(DomainError):
        lambda_fn(0.1, -0.2)


def test_lambda_symmetry_concavity_monotonicity():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.uniform(0.01, 0.6)
        b = rng.uniform(0.01, min(0.6, 0.99 - a))
        assert lambda_fn(a, b) == pytest.approx(lambda_fn(b, a), abs=1e-12)
        a2 = rng.uniform(0.01, 0.5)
        b2 = rng.uniform(0.01, min(0.5, 0.99 - a2))
        mid = lambda_fn((a + a2) / 2, (b + b2) / 2)
        assert mid >= (lambda_fn(a, b) + lambda_fn(a2, b2)) / 2 - 1e-12
        bump = rng.uniform(0.005, 0.2)
        assert lambda_fn(a + bump, b) > lambda_fn(a, b)
        assert lambda_fn(a, b + bump) > lambda_fn(a, b)


def test_lambda_below_entropy_of_mixture():
    rng = random.Random(17)
    for _ in range(300):
        a = rng.uniform(0.02, 0.9)
        b = rng.uniform(0.02, max(0.021, 0.95 - a))
        if a + b >= 1.0:
            continue
        lam = rng.random()
        assert lambda_fn(a, b) < _h(lam * a + (1 - lam) * b)


# --------------------------------------------------------------- random codec

def test_random_codec_free_only():
    shared = SharedRandomness.for_law(99, 0.25, 0.25)
    x = _tv("********")
    bits = random_encode(x, shared)
    assert bits == [1]
    y = random_decode(_reader(bits), 8, shared)
    assert y.shape == (8,)
    assert total_distortion(x, y) == 0


def test_random_codec_roundtrip_and_determinism():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randrange(1, 22)
        x = _random_tv(rng, n, p_free=0.7)
        shared = SharedRandomness.for_law(1000 + trial, 0.25, 0.25)
        bits = random_encode(x, shared)
        assert bits == random_encode(x, shared)
        reader = _reader(bits)
        y = random_decode(reader, n, shared)
        assert reader.bits_read == len(bits)
        assert total_distortion(x, y) == 0


def test_random_codec_requires_positive_law():
    # a codebook of bias 0 (a zero density) never shows a 0 cell, and one of
    # bias 1 (a zero one-density) never shows a 1 cell
    for bias in (0, 1):
        with pytest.raises(DomainError):
            random_encode(_tv("01"), SharedRandomness(5, Fraction(bias)))
    assert SharedRandomness.for_law(5, 0.0, 0.5).bias == 0
    assert SharedRandomness.for_law(5, 0.5, 0.0).bias == 1


def test_random_codec_zero_density_side_without_cells():
    # bias 0 makes every cell 1, bias 1 every cell 0: row 1 matches outright
    for text, bias in (("1*1", 0), ("0**0", 1), ("***", 0)):
        shared = SharedRandomness(5, Fraction(bias))
        assert random_encode(_tv(text), shared) == elias_delta_encode(1)
    with pytest.raises(DomainError):
        random_encode(_tv("1*0"), SharedRandomness(5, Fraction(0)))


def test_random_codec_search_exhaustion(monkeypatch):
    monkeypatch.setattr(partition, "J_MAX", 8)
    rng = random.Random(37)
    x = TernaryVector([rng.randrange(2) for _ in range(26)])
    shared = SharedRandomness.for_law(7, 0.5, 0.5)
    with pytest.raises(SearchExhausted):
        random_encode(x, shared)


def test_random_codec_mean_length_smoke():
    # at n=16, p_a=p_b=0.25 the long-run mean is below 17 bits
    lengths = []
    rng = random.Random(41)
    for trial in range(30):
        x = TernaryVector(
            [
                0 if rng.random() < 0.25 else (1 if rng.random() < 1 / 3 else FREE)
                for _ in range(16)
            ]
        )
        shared = SharedRandomness.for_law(5000 + trial, 0.25, 0.25)
        lengths.append(len(random_encode(x, shared)))
    assert sum(lengths) / len(lengths) < 25.0


# --------------------------------------------------------------- linear codec

def _read_elias(bits):
    from logicast.bitcodec import elias_delta_decode

    return elias_delta_decode(bits)


def test_linear_codec_free_only():
    shared = SharedRandomness.for_law(71, 0.5, 0.5)
    x = _tv("****")
    bits = linear_encode(x, shared)
    assert bits == [1, 0]
    y = linear_decode(_reader(bits), 4, shared)
    assert list(y) == [0, 0, 0, 0]


def test_linear_codec_homogeneous():
    shared = SharedRandomness.for_law(72, 0.5, 0.5)
    x = _tv("0000")
    bits = linear_encode(x, shared)
    assert bits == [1, 0]
    y = linear_decode(_reader(bits), 4, shared)
    assert total_distortion(x, y) == 0


def test_linear_codec_roundtrip_random():
    rng = random.Random(43)
    for trial in range(60):
        n = rng.randrange(1, 200)
        x = _random_tv(rng, n, p_free=rng.uniform(0.2, 0.9))
        shared = SharedRandomness.for_law(9000 + trial, 0.5, 0.5)
        bits = linear_encode(x, shared)
        assert bits == linear_encode(x, shared)
        j, used = _read_elias(bits)
        assert len(bits) == used + j
        reader = _reader(bits)
        y = linear_decode(reader, n, shared)
        assert reader.bits_read == len(bits)
        assert total_distortion(x, y) == 0


def test_linear_codec_j_close_to_psi():
    rng = random.Random(47)
    excesses = []
    for trial in range(40):
        x = _random_tv(rng, 64, p_free=0.5)
        shared = SharedRandomness.for_law(400 + trial, 0.5, 0.5)
        bits = linear_encode(x, shared)
        j, _ = _read_elias(bits)
        excess = j - len(x.psi())
        assert excess <= 40
        excesses.append(max(excess, 0))
    assert sum(excesses) / len(excesses) <= 6.0


def test_read_codeword_fields():
    shared = SharedRandomness.for_law(77, 0.5, 0.5)
    x = _random_tv(random.Random(59), 40)
    bits = linear_encode(x, shared)
    j, used = _read_elias(bits)
    combo = int("".join(str(b) for b in bits[used:]), 2)
    assert read_codeword(_reader(bits), "linear", 40) == (j, combo)
    assert read_codeword(_reader(bits[:used]), "random", 40) == (j, 0)


def test_linear_decode_truncated_combination():
    shared = SharedRandomness.for_law(78, 0.5, 0.5)
    x = _random_tv(random.Random(61), 40)
    bits = linear_encode(x, shared)
    short = bits[:-1]
    reader = BitReader(Bits(int("".join(str(b) for b in short), 2), len(short)))
    with pytest.raises(TruncatedStream):
        linear_decode(reader, 40, shared)


def _incremental_prefix(rows, target: int) -> tuple[int, int]:
    """The bigint pivot loop the packed eliminator replaced, kept as its oracle."""
    # pivot bit -> (reduced row, combination of original rows)
    basis: dict[int, tuple[int, int]] = {}
    combo = 0
    j = 0
    for j, vec in enumerate(rows, start=1):
        vec_combo = 1 << (j - 1)
        while vec:
            pivot = vec.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = (vec, vec_combo)
                break
            bv, bc = basis[pivot]
            vec ^= bv
            vec_combo ^= bc
        while target:
            pivot = target.bit_length() - 1
            if pivot not in basis:
                break
            bv, bc = basis[pivot]
            target ^= bv
            combo ^= bc
        if not target:
            return j, combo
    raise SearchExhausted(f"no solvable prefix within {j} rows")


def _system(rows: list[int], target: int, k: int) -> np.ndarray:
    """Packed transposed system: row i holds bit i of every generator row,
    then bit i of the target."""
    cols = [*rows, target]
    bits = np.array([[(v >> i) & 1 for v in cols] for i in range(k)], dtype=np.uint8)
    return pack_columns(bits.reshape(k, len(cols)))


def _solve(rows: list[int], target: int, k: int) -> tuple[int, int]:
    return first_solvable_prefix(_system(rows, target, k), len(rows))


def _outcome(solver, *args):
    try:
        return solver(*args)
    except SearchExhausted as exc:
        return str(exc)


def test_first_solvable_prefix_matches_bruteforce():
    rng = random.Random(97)
    for _ in range(300):
        rows = [rng.getrandbits(6) for _ in range(rng.randint(1, 10))]
        target = rng.getrandbits(6)
        # rows independent of the rows before them
        free = [k for k in range(len(rows)) if all(
            reduce(xor, (rows[i] for i in sub), 0) != rows[k]
            for n in range(k + 1) for sub in combinations(range(k), n))]
        hits = [(j, sub) for j in range(1, len(rows) + 1)
                for n in range(j + 1) for sub in combinations(range(j), n)
                if reduce(xor, (rows[i] for i in sub), 0) == target]
        if not hits:
            with pytest.raises(SearchExhausted):
                _solve(rows, target, 6)
            continue
        j = hits[0][0]
        on_profile = [sub for jj, sub in hits if jj == j and set(sub) <= set(free)]
        assert len(on_profile) == 1
        want = sum(1 << i for i in on_profile[0])
        assert _solve(rows, target, 6) == (j, want)


@st.composite
def _prefix_systems(draw):
    """(rows, target, k): k constraints, not a multiple of 8 or 64 in general;
    zero rows, single-constraint rows, repeated rows and rows that are sums
    of earlier rows (often in an earlier 8-column block); targets 0, in the
    span, or random."""
    k = draw(st.integers(0, 150))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows: list[int] = []
    for _ in range(draw(st.integers(0, 600))):
        kind = rng.randrange(5) if rows else 0
        if kind == 0:
            rows.append(rng.getrandbits(k) if rng.random() < 0.9 else 0)
        elif kind == 4:
            rows.append(1 << rng.randrange(k) if k else 0)
        elif kind == 1:
            rows.append(rng.choice(rows))
        else:
            picked = rng.sample(rows, rng.randint(1, min(len(rows), 4)))
            rows.append(reduce(xor, picked, 0))
    kind = draw(st.sampled_from(["zero", "span", "random"]))
    if kind == "zero" or not rows:
        target = 0
    elif kind == "span":
        target = reduce(xor, (v for v in rows if rng.random() < 0.5), 0)
    else:
        target = rng.getrandbits(k)
    return rows, target, k


@settings(max_examples=150, deadline=None)
@given(_prefix_systems())
def test_first_solvable_prefix_matches_incremental_oracle(case):
    rows, target, k = case
    want = _outcome(_incremental_prefix, iter(rows), target)
    assert _outcome(_solve, rows, target, k) == want


def test_first_solvable_prefix_low_rank_blocks():
    # every block of 8 generator rows spans at most 3 dimensions, so most
    # blocks find fewer pivots than columns
    rng = random.Random(101)
    for _ in range(20):
        k = rng.randint(60, 140)
        rows = []
        for _ in range(rng.randint(100, 300)):
            base = rows[-(len(rows) % 8):] if len(rows) % 8 >= 3 else []
            rows.append(reduce(xor, rng.sample(base, 2), 0) if base else rng.getrandbits(k))
        target = reduce(xor, (v for v in rows if rng.random() < 0.3), 0)
        want = _outcome(_incremental_prefix, iter(rows), target)
        assert _outcome(_solve, rows, target, k) == want


def test_first_solvable_prefix_late_pivot():
    # generator row 1 holds the first 60 constraints; row 2 only constraint
    # 90, so its pivot sits past the first 32 rows that are nonzero in the
    # block, all of which row 1 already explains
    k = 100
    rows = [(1 << 60) - 1, 1 << 90, 1 << 95]
    assert _solve(rows, (1 << 60) - 1 ^ 1 << 90, k) == (2, 0b11)
    assert _solve(rows, 1 << 95, k) == (3, 0b100)
    assert _outcome(_solve, rows, 1 << 99, k) == "no solvable prefix within 3 rows"


def test_first_solvable_prefix_multi_slab():
    # benchmark scale: k constraints and k + 64 rows make rows of 34 words in
    # 9 tiles of 4, so the lookups run two full slabs of 4 tiles and a
    # partial one.  The target needs
    # a row of the last block that reaches full rank, columns k & ~7 on; k is
    # not a multiple of 8, so that step finds fewer than 8 pivots (4 here)
    k = 2100
    rng = random.Random(114)
    rows = [rng.getrandbits(k) for _ in range(k + 64)]
    target = rng.getrandbits(k)
    system = _system(rows, target, k)
    assert system.shape == (9, k, partition._TILE)
    j, combo = first_solvable_prefix(system, len(rows))
    assert j > k & ~7
    assert (j, combo) == _incremental_prefix(iter(rows), target)


# The eliminator tests whether the target is in the span at the first step and
# then only once at most _SURPLUS rows are live; the next three systems reach
# their answer, or fail to, where no test runs.


def test_first_solvable_prefix_target_in_span_long_before_full_rank():
    # the target is rows 2 + 5, in the span after the first block, when about
    # 295 of the 300 rows are still live; the answer is read at full rank
    k = 300
    rng = random.Random(321)
    rows = [rng.getrandbits(k) for _ in range(k + 64)]
    target = rows[1] ^ rows[4]
    assert _solve(rows, target, k) == (5, 0b10010) == _incremental_prefix(iter(rows), target)


def test_first_solvable_prefix_low_rank_never_tests_again():
    # 120 rows spanning 40 dimensions leave 160 of the 200 rows live, so after
    # the first step only the final check sees the target
    k = 200
    rng = random.Random(322)
    basis = [rng.getrandbits(k) for _ in range(40)]
    rows = [reduce(xor, rng.sample(basis, rng.randint(1, 40)), 0) for _ in range(120)]
    for _ in range(5):
        target = reduce(xor, (v for v in rows if rng.random() < 0.5), 0)
        assert _solve(rows, target, k) == _incremental_prefix(iter(rows), target)
    target = rng.getrandbits(k)
    assert _outcome(_incremental_prefix, iter(rows), target) == "no solvable prefix within 120 rows"
    assert _outcome(_solve, rows, target, k) == "no solvable prefix within 120 rows"


def test_first_solvable_prefix_zero_target_stops_at_first_step():
    k = 300
    rng = random.Random(323)
    rows = [rng.getrandbits(k) for _ in range(k + 64)]
    assert _solve(rows, 0, k) == (1, 0) == _incremental_prefix(iter(rows), 0)


def test_gray_walk_visits_every_combination_once():
    # the eliminator's table of kk source rows: from combination 0, step p
    # flips bit _RULER[p - 1], and _GRAY_RANK finds the step of a combination
    for kk in range(1, 9):
        flips = np.left_shift(1, partition._RULER[: (1 << kk) - 1])
        walk = [0, *np.bitwise_xor.accumulate(flips).tolist()]
        assert sorted(walk) == list(range(1 << kk))
        assert [partition._GRAY_RANK[combo] for combo in walk] == list(range(1 << kk))


def _fair_rows(seed: int, care: int):
    """Generator rows over the constrained columns, column i at bit i."""
    nblk = (care.bit_length() + 63) >> 6
    for row in range(1, partition.J_MAX + 1):
        keys = (np.uint64(row) << np.uint64(partition.COL_SHIFT)) | np.arange(nblk, dtype=np.uint64)
        words = draw_array(seed, keys).astype("<u8", copy=False)
        yield int.from_bytes(words.tobytes(), "little") & care


def test_draw_columns_match_row_by_row_draws():
    # n = 300 leaves the last 64-cell block partly filled; word counts reach
    # one past a tile, so the last call draws fewer words than a tile holds
    # and the words past them stay 0
    n = 300
    rng = random.Random(111)
    cell_sets = [[0], [63], [64], [n - 1], [], list(range(n))]
    cell_sets += [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)]
    for words in range(1, partition._TILE + 2):
        seed = 15000 + words
        rows = list(islice(_fair_rows(seed, (1 << n) - 1), 64 * words))
        # column c over all drawn rows, row r at bit r - 1
        columns = [sum(((v >> c) & 1) << r for r, v in enumerate(rows)) for c in range(n)]
        for cells in cell_sets:
            tiles = -(-words // partition._TILE)
            out = np.zeros((tiles, len(cells), partition._TILE), dtype="<u8")
            partition._draw_columns(seed, np.array(cells, dtype=np.int64), out, words)
            # word w of every cell, then the words past `words`
            flat = out.transpose(0, 2, 1).reshape(tiles * partition._TILE, len(cells))
            want = [[(columns[c] >> 64 * w) & MASK64 for c in cells] for w in range(words)]
            assert flat[:words].tolist() == want, (words, cells)
            assert not flat[words:].any(), (words, cells)


def _oracle_encode(x: TernaryVector, shared: SharedRandomness) -> list[int]:
    care = sum(1 << int(i) for i in x.psi())
    target = sum(1 << int(i) for i in np.flatnonzero(x.entries == 1))
    j, combo = _incremental_prefix(_fair_rows(shared.seed, care), target)
    return elias_delta_encode(j) + [(combo >> r) & 1 for r in range(j)]


def test_linear_decode_in_chunks_matches_row_xor(monkeypatch):
    # one word per chunk: 8-row chunks, so J and the byte padding of the
    # combination straddle chunk boundaries; J stays within the n + 64 rows
    # that read_codeword accepts
    monkeypatch.setattr(partition, "_CHUNK_WORDS", 1)
    rng = random.Random(105)
    for trial in range(30):
        n = rng.randrange(1, 130)
        j = rng.randrange(1, min(90, n + 65))
        combo = rng.getrandbits(j)
        shared = SharedRandomness.for_law(14000 + trial, 0.5, 0.5)
        rows = list(islice(_fair_rows(shared.seed, (1 << n) - 1), j))
        want = reduce(xor, (rows[r] for r in range(j) if combo >> (j - 1 - r) & 1), 0)
        bits = elias_delta_encode(j) + [(combo >> (j - 1 - r)) & 1 for r in range(j)]
        y = linear_decode(_reader(bits), n, shared)
        assert y.tolist() == [(want >> i) & 1 for i in range(n)]


def test_linear_encode_matches_oracle():
    rng = random.Random(103)
    for trial in range(40):
        x = _random_tv(rng, rng.randrange(1, 400), p_free=rng.uniform(0.0, 0.95))
        shared = SharedRandomness.for_law(12000 + trial, 0.5, 0.5)
        assert linear_encode(x, shared) == _oracle_encode(x, shared)


def test_linear_encode_draws_more_rows_when_short(monkeypatch):
    # no surplus: the first system has as many rows as constraints, and a
    # square random system is rank deficient about 70% of the time
    monkeypatch.setattr(partition, "_SURPLUS", 0)
    calls = []
    solve = partition.first_solvable_prefix

    def counted(system, rows):
        calls.append(rows)
        return solve(system, rows)

    monkeypatch.setattr(partition, "first_solvable_prefix", counted)
    rng = random.Random(107)
    for trial in range(50):
        x = _random_tv(rng, rng.randrange(1, 301), p_free=rng.uniform(0.0, 0.8))
        shared = SharedRandomness.for_law(13000 + trial, 0.5, 0.5)
        assert linear_encode(x, shared) == _oracle_encode(x, shared)
    assert len(calls) > 50  # some vectors took the retry


def test_linear_encode_search_exhaustion(monkeypatch):
    monkeypatch.setattr(partition, "J_MAX", 8)
    rng = random.Random(109)
    x = TernaryVector([rng.randrange(2) for _ in range(26)])
    shared = SharedRandomness.for_law(7, 0.5, 0.5)
    with pytest.raises(SearchExhausted, match=r"^no solvable prefix within 8 rows$"):
        linear_encode(x, shared)


def test_linear_encode_stops_where_the_decoder_refuses(monkeypatch):
    # a target no prefix reaches: the redraws end at n + _SURPLUS rows, the
    # longest J that read_codeword accepts for n cells
    asked = []

    def never(system, rows):
        asked.append(rows)
        assert rows <= 264, "redrew past the rows the decoder accepts"
        raise SearchExhausted(f"no solvable prefix within {rows} rows")

    monkeypatch.setattr(partition, "first_solvable_prefix", never)
    rng = random.Random(113)
    x = TernaryVector([rng.choice([0, 1, FREE]) for _ in range(200)])
    with pytest.raises(SearchExhausted, match=r"^no solvable prefix within 264 rows$"):
        linear_encode(x, SharedRandomness.for_law(7, 0.5, 0.5))
    assert asked[0] == x.psi().size + 64 and asked[-1] == 264
    w = BitWriter()
    w.write_elias_delta(265)
    with pytest.raises(MalformedCodeword, match=r"^row index 265 exceeds 200 cells \+ 64 rows"):
        read_codeword(BitReader(w.to_bits()), "linear", 200)
    w = BitWriter()
    w.write_elias_delta(264)
    w.write_bits(0, 264)
    assert read_codeword(BitReader(w.to_bits()), "linear", 200) == (264, 0)


def test_read_codeword_errors_name_field_and_offset():
    shared = SharedRandomness.for_law(79, 0.5, 0.5)
    bits = linear_encode(_random_tv(random.Random(67), 40), shared)
    _, used = _read_elias(bits)
    # three leading bits, then the codeword cut inside its combination bits
    reader = BitReader(Bits(int("101" + "".join(map(str, bits[:-1])), 2), 3 + len(bits) - 1))
    reader.read_bits(3)
    with pytest.raises(TruncatedStream, match=rf"combination bits at bit {3 + used}\)$"):
        read_codeword(reader, "linear", 40)
    # the Elias prefix itself cut short
    reader = BitReader(Bits(int("101" + "".join(map(str, bits[:used - 1])), 2), 2 + used))
    reader.read_bits(3)
    with pytest.raises(TruncatedStream, match=r"row index at bit 3\)$"):
        read_codeword(reader, "linear", 40)
    w = BitWriter()
    w.write_bits(0b11, 2)
    w.write_elias_delta(partition.J_MAX + 1)
    reader = BitReader(w.to_bits())
    reader.read_bits(2)
    with pytest.raises(MalformedCodeword, match=r"exceeds J_MAX .* \(row index at bit 2\)$"):
        read_codeword(reader, "random", 40)


# ---------------------------------------------------- constant-weight columns

WEIGHT2_4X6 = [
    [0, 0, 0, 1, 1, 1],
    [0, 1, 1, 0, 1, 0],
    [1, 0, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 1],
]


def test_cw_check_reference_matrix():
    assert cw_check(WEIGHT2_4X6) is True


def test_cw_matrix_construction():
    mat = cw_matrix(4, 6, 2)
    assert mat.shape == (4, 6)
    assert all(int(mat[:, c].sum()) == 2 for c in range(6))
    cols = {tuple(mat[:, c]) for c in range(6)}
    assert len(cols) == 6
    assert cw_check(mat) is True


def test_cw_matrix_exhausts_columns():
    with pytest.raises(DuplicateColumns):
        cw_matrix(4, 7, 2)
    with pytest.raises(DomainError):
        cw_matrix(3, 1, 4)


def test_cw_check_duplicate_columns_fail():
    mat = [
        [1, 1, 0],
        [1, 1, 1],
        [0, 0, 1],
    ]
    assert cw_check(mat) is False


def test_cw_check_unequal_weights_rejected():
    with pytest.raises(DomainError):
        cw_check([[1, 1], [0, 1]])


def test_cw_check_random_weight2_sets():
    rng = random.Random(53)
    full = cw_matrix(5, 10, 2)
    for _ in range(25):
        picked = sorted(rng.sample(range(10), 6))
        sub = full[:, picked]
        assert cw_check(sub) is True


# ------------------------------------------------ entropy, shared randomness

def test_binary_entropy():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.2) == pytest.approx(0.721928, abs=1e-6)
    with pytest.raises(DomainError):
        binary_entropy(1.2)


def test_shared_randomness_for_law():
    shared = SharedRandomness.for_law(42, 0.25, 0.25)
    assert shared.bias == Fraction(1, 2)
    assert shared.seed == 42
    with pytest.raises(DomainError):
        SharedRandomness(1, Fraction(3, 2))
