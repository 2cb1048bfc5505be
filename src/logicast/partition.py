"""Compression of partially constrained binary vectors.

A ternary vector over {0, 1, free} describes a partition of its
coordinates: some positions must come out 0, some must come out 1, the
rest are unconstrained.  A codec for such vectors emits a bit stream
from which any binary vector consistent with the constraints can be
rebuilt.  Free positions carry no distortion penalty, so the measure of
success is stream length, not reconstruction of the free cells.

Two codecs live here.

* ``random``: scan a shared random codebook for the first row that
  matches every constrained cell, transmit the row index.  Approaches
  the optimum (a + b) * H(a / (a + b)) bits per coordinate, written
  :func:`lambda_fn`, at the price of an exponential search.
* ``linear``: solve for the combination of shared random rows that matches
  the constrained cells (:func:`first_solvable_prefix`) and transmit it.
  Polynomial work, about k^3/512 word operations on k^2/8 bytes of packed
  matrix for k constrained cells, each row's words kept in tiles of four
  so that a table lookup copies 32 bytes, but one bit per constrained
  cell: a + b bits per coordinate, meeting :func:`lambda_fn` only at a = b.

Both shared-randomness codecs draw their codebooks from a splitmix64
keystream (see :mod:`logicast.randomness`), so encoder and decoder only
need to agree on a seed and a bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitcodec import BitReader, binom, elias_delta_encode
from .errors import (
    DomainError,
    DuplicateColumns,
    MalformedCodeword,
    SearchExhausted,
    TruncatedStream,
)
from .randomness import MASK64, draw_array

FREE = 2

# Codebook row indices are packed as (row << COL_SHIFT) | column, so a
# codebook is addressable up to 2**COL_SHIFT rows and columns.  The row
# scan of the random codec gives up after J_MAX rows.
COL_SHIFT = 26
J_MAX = 1 << 26


class TernaryVector:
    """Immutable vector with entries 0, 1, or FREE."""

    __slots__ = ("entries",)

    def __init__(self, values: Iterable[int]) -> None:
        # one call for an array; the range check precedes the int8 cast
        arr = np.array(values if isinstance(values, np.ndarray) else list(values))
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("ternary vector must be non-empty")
        if np.any((arr < 0) | (arr > FREE)):
            raise DomainError("ternary entries must be 0, 1, or FREE")
        arr = arr.astype(np.int8, copy=False)
        arr.flags.writeable = False
        self.entries = arr

    @property
    def n(self) -> int:
        return self.entries.size

    def psi(self) -> np.ndarray:
        """Indices of the constrained positions, ascending."""
        return np.flatnonzero(self.entries != FREE)

    def to_string(self) -> str:
        return "".join("01*"[v] for v in self.entries.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryVector):
            return NotImplemented
        return bool(np.array_equal(self.entries, other.entries))

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())

    def __repr__(self) -> str:
        return f"TernaryVector({self.to_string()!r})"


def total_distortion(x: TernaryVector, y: Sequence[int]) -> int:
    arr = np.asarray(y)
    if arr.shape != (x.n,):
        raise DomainError(f"reconstruction has shape {arr.shape}, want ({x.n},)")
    e = x.entries
    return int(np.count_nonzero((e != FREE) & (e != arr)))


# --------------------------------------------------------------------------
# rate functions


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability out of range: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def lambda_fn(p_a: float, p_b: float) -> float:
    """Optimal bits per coordinate: (a + b) * H(a / (a + b)).

    Strictly below min(H(a), H(b)) whenever both densities are positive
    and a + b < 1, which is what makes joint coding of the two sides
    worthwhile.
    """
    if not (p_a >= 0.0 and p_b >= 0.0 and p_a + p_b < math.inf):
        raise DomainError("densities must be finite and non-negative")
    if p_a == 0.0 or p_b == 0.0:
        return 0.0
    total = p_a + p_b
    return total * binary_entropy(p_a / total)


# --------------------------------------------------------------------------
# shared randomness


@dataclass(frozen=True)
class SharedRandomness:
    """Seed and cell bias that encoder and decoder agree on.

    ``bias`` is the probability that a codebook cell is 0.  It is kept
    as an exact fraction so both ends threshold the keystream
    identically.
    """

    seed: int
    bias: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= MASK64:
            raise DomainError("seed must fit in 64 bits")
        if not 0 <= self.bias <= 1:
            raise DomainError(f"bias {self.bias} outside [0, 1]")

    @classmethod
    def for_law(cls, seed: int, p_a: float, p_b: float) -> "SharedRandomness":
        """Codebook matched to a source with the given side densities."""
        if not (p_a >= 0.0 and p_b >= 0.0 and 0.0 < p_a + p_b < math.inf):
            raise DomainError(f"({p_a}, {p_b}) is not a usable density pair")
        fa, fb = Fraction(p_a), Fraction(p_b)
        return cls(seed, fa / (fa + fb))


def _threshold(bias: Fraction) -> int:
    # P(cell = 0) = threshold / 2**53, exact for dyadic biases.
    return (bias.numerator << 53) // bias.denominator


def _biased_cells(shared: SharedRandomness, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Codebook cells for the outer product rows x cols, dtype uint8."""
    keys = (rows[:, None] << np.uint64(COL_SHIFT)) | cols[None, :]
    words = draw_array(shared.seed, keys.ravel()).reshape(rows.size, cols.size)
    thresh = np.uint64(_threshold(shared.bias))
    return ((words >> np.uint64(11)) >= thresh).astype(np.uint8)


def _biased_row(shared: SharedRandomness, row: int, n: int) -> np.ndarray:
    cols = np.arange(n, dtype=np.uint64)
    return _biased_cells(shared, np.array([row], dtype=np.uint64), cols)[0]


# --------------------------------------------------------------------------
# random codec: first matching codebook row


def random_encode(x: TernaryVector, shared: SharedRandomness) -> list[int]:
    """Index of the first codebook row agreeing with x on its constraints.

    A codebook of bias 0 shows only 1 cells and one of bias 1 only 0 cells,
    so x may then have no constrained cell of the other value; such a
    vector matches row 1 outright.  Raises SearchExhausted past J_MAX rows.
    """
    e = x.entries
    if (shared.bias == 0 and np.any(e == 0)) or (shared.bias == 1 and np.any(e == 1)):
        raise DomainError("random codec needs strictly positive densities")
    psi = x.psi()
    if psi.size == 0:
        return elias_delta_encode(1)
    target = x.entries[psi].astype(np.uint8)
    cols = psi.astype(np.uint64)
    per_batch = max(1, 65536 // int(psi.size))
    row = 1
    while row <= J_MAX:
        hi = min(row + per_batch - 1, J_MAX)
        rows = np.arange(row, hi + 1, dtype=np.uint64)
        cells = _biased_cells(shared, rows, cols)
        hits = np.flatnonzero(np.all(cells == target[None, :], axis=1))
        if hits.size:
            return elias_delta_encode(row + int(hits[0]))
        row = hi + 1
    raise SearchExhausted(f"no codebook row matched within {J_MAX} rows")


def random_decode(reader: BitReader, n: int, shared: SharedRandomness) -> np.ndarray:
    j, _ = read_codeword(reader, "random", n)
    return _biased_row(shared, j, n)


# --------------------------------------------------------------------------
# linear codec: first solvable prefix of a random generator matrix


# Each row word of the transposed system holds 64 generator rows of one
# constraint; the encoder first draws _SURPLUS rows past the constrained
# count, and a random system that long spans its target with probability
# about 1 - 2**-_SURPLUS.
_ROW_WORD = 64
_SURPLUS = 64
# The packed system keeps each row's words in tiles of this many: row i's
# words 4t .. 4t + 3 (columns 256t .. 256t + 255) sit together at
# system[t, i], so a table lookup copies 32 bytes per row, numpy's widest
# fixed-size take; 2 words a tile were slower and 8 slower still.  The
# encoder draws one tile of row words per draw_array call: for k = 2048
# cells of 4096 (33 words), 4 words a call beat one word a call, and one call
# for all 33 words was no faster but raised peak RSS by 4.0 MB against
# 1.05 MB (`draw_group_size` in BENCH_20_linear_draw.json).
_TILE = 4
# The decoder XORs its selected rows in chunks of about this many words; at
# 2^16 words the chunk's draw temporaries raised peak RSS at m=12 by 1.2 MB.
_CHUNK_WORDS = 1 << 14
# The eliminator XORs table rows into the matrix this many words (_SLAB //
# _TILE tiles) per row at a time; one full-width lookup temporary per block
# raised peak RSS at m=12 by about 0.5 MB, and slabs run no slower.
_SLAB = 16
# _BIT_MASKS[b, v] is 0xFF where the byte v has bit b set, else 0
_BIT_MASKS = np.unpackbits(np.arange(256, dtype=np.uint8)[None, :], axis=0, bitorder="little") * np.uint8(0xFF)
# The Gray walk visits the combinations p ^ p >> 1, p = 0 .. 255, each one
# bit from the last: step p flips bit _RULER[p - 1], and _GRAY_RANK[combo] is
# the step reaching combo, a map linear over GF(2) (bit i of the step is the
# XOR of the combination's bits i and up)
_RULER = np.array([(p & -p).bit_length() - 1 for p in range(1, 256)], dtype=np.intp)
_GRAY_RANK = sorted(range(256), key=lambda p: p ^ p >> 1)
# (j, mask) of the six swap rounds of a 64 x 64 bit transpose: the mask
# keeps the low j bits of every 2j
_TRANSPOSE_ROUNDS = [
    (j, np.uint64(sum(((1 << j) - 1) << i for i in range(0, 64, 2 * j))))
    for j in (32, 16, 8, 4, 2, 1)
]


def pack_columns(bits: np.ndarray) -> np.ndarray:
    """A (k, c) 0/1 array as the tiled packed system that
    :func:`first_solvable_prefix` reads, a (tiles, k, _TILE) uint64 array:
    entry [t, i, u] is the little-endian word holding columns 64w .. 64w + 63
    of row i, w = _TILE * t + u, column j at bit j % 64.  Words past the last
    column are 0."""
    k, c = bits.shape
    tiles = -(-c // (64 * _TILE))
    out = np.zeros((k, tiles * 8 * _TILE), dtype=np.uint8)
    out[:, : (c + 7) >> 3] = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(out.view("<u8").reshape(k, tiles, _TILE).transpose(1, 0, 2))


def _live_tail(block: np.ndarray, live: np.ndarray, start: int, valid: int) -> Iterator[tuple[int, int]]:
    """(row, byte & valid) of each live row from ``start`` on whose ``block``
    byte has a bit in ``valid``, masked only once the caller asks for one."""
    rest = block[start:] & valid
    rest[live[start:] == 0] = 0
    at = np.flatnonzero(rest)
    yield from zip((at + start).tolist(), rest[at].tolist())


def first_solvable_prefix(system: np.ndarray, rows: int) -> tuple[int, int]:
    """(J, combination) of the shortest prefix of generator rows spanning a target.

    ``system`` is the transposed GF(2) system as packed by :func:`pack_columns`,
    in tiles of _TILE words: one row per constraint, column c < ``rows`` is
    generator row c + 1 and column ``rows`` is the target.  Bit r - 1 of the
    combination picks row r, and only rows independent of the rows before
    them are picked, so the answer is unique.  Raises SearchExhausted when
    all ``rows`` rows leave the target outside their span.

    Four-Russians elimination (Arlazarov, Dinic, Kronrod and Faradzev; the
    M4RI variant of Albrecht and Bard) to reduced echelon form, in place:
    each step finds the pivots among 8 columns, tabulates the 2^kk
    combinations of its kk pivot (source) rows, and clears those columns
    from every row with one table lookup and one XOR of the tiles from the
    block's tile on, _SLAB // _TILE tiles at a time, so each lookup copies
    a row's 32-byte tile.  The words of the block's tile left of the block
    hold only columns already passed, which are read no more.  The table
    follows a Gray walk (Bard), so it is one XOR accumulate of the source
    rows' tiles gathered in walk order, into a view of one
    (tiles, 256, _TILE) buffer whose column 0 is zeroed once.  A
    row's lookup index is the walk step of the combination that clears its
    pivot bits; a source row's is that of its reduced combination XOR
    itself, so the same sweep leaves the reduced pivot rows in place.  At
    k <= 2100 the numpy calls per step, not the XORed words, set the time,
    so the step's pivot bookkeeping stays in Python lists and a dict.  Rows
    stay where they are; a byte mask keeps the target bit of the live rows
    (no pivot yet), the rows searched for pivots.  For k constraints that
    is about k^3/512 word operations on k^2/8 bytes.  The pivot columns are
    the row rank profile of the generator prefix, and in reduced form the
    target column holds the combination.  The stop test (no live row holds
    the target bit) runs at the first step, then only while at most
    _SURPLUS rows are live.  Testing late is exact: once the target is in
    the span no later source row holds the target bit, so no later XOR
    moves one; it costs extra steps only (on random systems, odds ~2**-64).
    """
    k = system.shape[1]
    if rows < 1:
        raise SearchExhausted("no solvable prefix within 0 rows")
    tiles = system.shape[0]
    m8 = system.view(np.uint8)
    # the byte of each row holding column c, of word w = c >> 6, is
    # m8[w // 4, row, (w % 4) * 8 + (c >> 3 & 7)]: a tile of _TILE = 4
    # words holds 256 columns, 32 bytes a row
    target = m8[rows >> 8, :, rows >> 3 & 31]
    t_bit = 1 << (rows & 7)
    live = np.full(k, t_bit, dtype=np.uint8)  # 0 once the row is a pivot row
    first = 0  # no live row before it
    pivot_col: dict[int, int] = {}  # pivot row -> its column
    buf = np.empty((tiles, 256, _TILE), dtype=system.dtype)
    buf[:, 0] = 0
    slab = _SLAB // _TILE
    for c in range(0, rows, 8):
        # stop once the target lies in the span of the columns left of c,
        # tested at the first step and near full rank (see above)
        if (c == 0 or k - len(pivot_col) <= _SURPLUS) and not np.count_nonzero(target & live):
            break
        valid = (1 << min(rows - c, 8)) - 1
        block = m8[c >> 8, :, c >> 3 & 31]
        # pivots of this block: src[a] is the live row behind basis[a] =
        # [pivot bit, reduced byte, combination of src rows]
        src: list[int] = []
        basis: list[list[int]] = []
        need = valid.bit_count()
        head = enumerate(block[first : first + 64].tolist(), first)
        for i, v in chain(head, _live_tail(block, live, first + 64, valid)):
            v &= valid
            if not v or i in pivot_col:
                continue
            combo = 1 << len(src)
            for e in basis:
                if v & e[0]:
                    v ^= e[1]
                    combo ^= e[2]
            if v:
                low = v & -v
                for e in basis:
                    if e[1] & low:
                        e[1] ^= v
                        e[2] ^= combo
                basis.append([low, v, combo])
                src.append(i)
                if len(src) == need:
                    break
        if not src:
            continue
        # table[:, p]: XOR of the source rows in combination p ^ p >> 1, tiles
        # from the block's on
        t0 = c >> 8
        steps = (1 << len(src)) - 1
        table = buf[: tiles - t0, : steps + 1]
        walk = np.array(src)[_RULER[:steps]]
        np.bitwise_xor.accumulate(np.take(system[t0:], walk, axis=1), axis=1, out=table[:, 1:])
        # lut[byte]: the walk step of the source combination that clears the
        # byte's pivot bits, the XOR of its bits' steps
        step_of_bit = [0] * 8
        for e, i in zip(basis, src):
            p = e[0].bit_length() - 1
            step_of_bit[p] = _GRAY_RANK[e[2]]
            pivot_col[i] = c + p
        lut = np.bitwise_xor.reduce(_BIT_MASKS & np.array(step_of_bit, dtype=np.uint8)[:, None], axis=0)
        idx = lut.astype(np.intp).take(block)
        # a source row is XORed with the rest of its reduced combination
        idx[src] = [_GRAY_RANK[e[2] ^ 1 << a] for a, e in enumerate(basis)]
        for t in range(t0, tiles, slab):
            system[t : t + slab] ^= np.take(table[t - t0 : t - t0 + slab], idx, axis=1)
        live[src] = 0
        while first in pivot_col:
            first += 1
    if np.count_nonzero(target & live):
        raise SearchExhausted(f"no solvable prefix within {rows} rows")
    # every row left with the target bit is a pivot row
    picked = [pivot_col[i] for i in np.flatnonzero(target & t_bit).tolist()]
    j = max(picked) + 1 if picked else 1
    flags = np.zeros(j, dtype=np.uint8)
    flags[picked] = 1
    return j, int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _draw_columns(seed: int, cells: np.ndarray, out: np.ndarray, words: int) -> None:
    """Fill the first ``words`` words of ``out``, a (tiles, cells.size, _TILE)
    uint64 array laid out as :func:`pack_columns` packs it, with generator
    rows 1 .. 64 * words at the given ascending cells: word w of cell
    cells[i], out[w // _TILE, i, w % _TILE], holds row 64w + 1 + b at bit b.
    Words past ``words`` are left as they are.

    Each draw_array call covers one tile of rows.  Row r's word at column
    block blk holds cells 64 blk .. 64 blk + 63, so each 64 rows x one block
    is a 64 x 64 bit matrix whose transpose holds one word per cell; six
    masked swap rounds transpose all blocks at once (Warren, Hacker's
    Delight, section 7-3).
    """
    nblk = (int(cells[-1]) >> 6) + 1 if cells.size else 0
    blk = np.arange(nblk, dtype=np.uint64)
    bit, col = cells & 63, cells >> 6
    for w0 in range(0, words, _TILE):
        g = min(_TILE, words - w0)
        rows = np.arange(w0 * _ROW_WORD + 1, (w0 + g) * _ROW_WORD + 1, dtype=np.uint64)
        keys = (rows[:, None] << np.uint64(COL_SHIFT)) | blk
        x = draw_array(seed, keys).reshape(g, _ROW_WORD, nblk)
        for j, mask in _TRANSPOSE_ROUNDS:
            # each row a with bit j of a clear swaps the high j bits of every
            # 2j of its word with the low j bits of row a + j's
            pairs = x.reshape(g, _ROW_WORD // (2 * j), 2, j, nblk)
            lo, hi = pairs[:, :, 0], pairs[:, :, 1]
            t = lo >> np.uint64(j)
            t ^= hi
            t &= mask
            hi ^= t
            t <<= np.uint64(j)
            lo ^= t
        out[w0 // _TILE, :, :g] = x[:, bit, col].T


def linear_encode(x: TernaryVector, shared: SharedRandomness) -> list[int]:
    """Shortest generator prefix whose span hits x on its constraints.

    Emits elias(J) followed by the J combination bits M, where the
    reconstruction is M applied to the first J generator rows.  J stays
    near the number of constraints, on either side of it: a few rows
    above it when the prefix needs them to reach full rank, below it
    when the target already lies in the span of a shorter prefix.
    Raises SearchExhausted when the first n + _SURPLUS rows (n cells, at
    most J_MAX rows) do not reach the target, the longest J that
    :func:`read_codeword` accepts; from k constraints on, k + _SURPLUS
    rows miss it with probability about 2**-_SURPLUS.
    """
    psi = x.psi()
    ones = (x.entries[psi] == 1).astype("<u8")
    most = min(x.entries.size + _SURPLUS, J_MAX)
    rows = min(psi.size + _SURPLUS, most)
    while True:
        system = _linear_system(shared.seed, psi, ones, rows)
        try:
            j, combo = first_solvable_prefix(system, rows)
            break
        except SearchExhausted:  # elimination is in place, so redraw all rows
            if rows == most:
                raise
            rows = min(rows + _ROW_WORD, most)
    bits = elias_delta_encode(j)
    # bit r of the combination is character r of the reversed binary text
    bits.extend(format(combo, f"0{j}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1")))
    return bits


def _linear_system(seed: int, cells: np.ndarray, ones: np.ndarray, rows: int) -> np.ndarray:
    """The packed system :func:`linear_encode` solves: generator rows
    1 .. ``rows`` at the constrained cells, then the target bits ``ones``
    (one uint64 0 or 1 per cell) as column ``rows``."""
    full = rows >> 6
    system = np.zeros((full // _TILE + 1, cells.size, _TILE), dtype="<u8")
    _draw_columns(seed, cells, system, (rows + _ROW_WORD - 1) // _ROW_WORD)
    # the target column follows row `rows`; drop the rows drawn past it
    last = system[full // _TILE, :, full % _TILE]
    last &= np.uint64((1 << (rows & 63)) - 1)
    last |= ones << np.uint64(rows & 63)
    return system


def linear_decode(reader: BitReader, n: int, shared: SharedRandomness) -> np.ndarray:
    """XOR of the generator rows the codeword picks, drawn in chunks of rows
    so that memory is bounded by the chunk, not by J."""
    j, combo = read_codeword(reader, "linear", n)
    nblk = (n + 63) >> 6
    chunk = max(8, _CHUNK_WORDS // nblk) & ~7
    cols = np.arange(nblk, dtype=np.uint64)
    # row 1's bit was sent first: with j padded to whole bytes at the top,
    # row r sits at big-endian bit position pad + r - 1
    pad = -j & 7
    raw = np.frombuffer(combo.to_bytes((j + pad) >> 3, "big"), dtype=np.uint8)
    y = np.zeros(nblk, dtype=np.uint64)
    for start in range(0, j + pad, chunk):
        picked = np.flatnonzero(np.unpackbits(raw[start >> 3 : (start + chunk) >> 3]))
        if picked.size:
            rows = (picked + (start - pad + 1)).astype(np.uint64)
            keys = (rows[:, None] << np.uint64(COL_SHIFT)) | cols[None, :]
            drawn = draw_array(shared.seed, keys.ravel()).reshape(rows.size, nblk)
            y ^= np.bitwise_xor.reduce(drawn, axis=0)
    raw_y = y.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw_y, count=n, bitorder="little")


def read_codeword(reader: BitReader, codec: str, n: int) -> tuple[int, int]:
    """Fields (J, combination bits) of one codeword of either codec over n cells.

    The random codec sends only its row index J, so its combination is 0;
    the linear codec follows J with J combination bits, row 1 first, and
    its J is refused past n + _SURPLUS, where :func:`linear_encode` stops,
    before the decoder draws J rows of n cells.  A truncated or malformed
    field is re-raised with the field's name and the reader's bit offset
    where it began.
    """
    at = reader.bits_read
    try:
        j = reader.read_elias_delta()
        if j > J_MAX:  # no encoder emits it, and the row keys would overflow
            raise MalformedCodeword(f"row index {j} exceeds J_MAX = {J_MAX}")
        if codec == "linear" and j > n + _SURPLUS:
            raise MalformedCodeword(f"row index {j} exceeds {n} cells + {_SURPLUS} rows")
    except (TruncatedStream, MalformedCodeword) as exc:
        raise type(exc)(f"{exc} (row index at bit {at})") from None
    if codec != "linear":
        return j, 0
    at = reader.bits_read
    try:
        return j, reader.read_bits(j)
    except TruncatedStream as exc:
        raise TruncatedStream(f"{exc} (combination bits at bit {at})") from None


# --------------------------------------------------------------------------
# constant-weight column matrices


def cw_matrix(t: int, n: int, w: int) -> np.ndarray:
    """t x n binary matrix whose columns are the first n weight-w subsets.

    Columns are distinct by construction; asking for more than C(t, w)
    of them raises DuplicateColumns.
    """
    if t < 1 or n < 1 or w < 1 or w > t:
        raise DomainError(f"no {t}x{n} matrix with column weight {w}")
    if n > binom(t, w):
        raise DuplicateColumns(
            f"only {binom(t, w)} distinct weight-{w} columns exist over {t} rows"
        )
    mat = np.zeros((t, n), dtype=np.uint8)
    for col, rows in enumerate(islice(combinations(range(t), w), n)):
        mat[list(rows), col] = 1
    return mat


def cw_check(mat: Sequence[Sequence[int]]) -> bool:
    """Whether a binary matrix has distinct columns of one common weight.

    Unequal column weights are a malformed input rather than a failed
    check, so they raise instead of returning False.
    """
    arr = np.asarray(mat, dtype=np.uint8)
    if arr.ndim != 2 or arr.size == 0:
        raise DomainError("expected a non-empty binary matrix")
    if np.any(arr > 1):
        raise DomainError("matrix entries must be bits")
    weights = arr.sum(axis=0)
    if np.any(weights != weights[0]):
        raise DomainError("column weights differ")
    seen = {arr[:, c].tobytes() for c in range(arr.shape[1])}
    return len(seen) == arr.shape[1]
