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
  matrix for k constrained cells, but one bit per constrained cell: a + b
  bits per coordinate, meeting :func:`lambda_fn` only at a = b.

Both shared-randomness codecs draw their codebooks from a splitmix64
keystream (see :mod:`logicast.randomness`), so encoder and decoder only
need to agree on a seed and a bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterable, Sequence

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

    @classmethod
    def from_string(cls, text: str) -> "TernaryVector":
        table = {"0": 0, "1": 1, "*": FREE, "⊗": FREE}
        try:
            return cls(table[ch] for ch in text)
        except KeyError as exc:
            raise DomainError(f"unexpected symbol {exc.args[0]!r}") from None

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
    j, _ = read_codeword(reader, "random")
    return _biased_row(shared, j, n)


# --------------------------------------------------------------------------
# linear codec: first solvable prefix of a random generator matrix


# Each row word of the transposed system holds 64 generator rows of one
# constraint; the encoder first draws _SURPLUS rows past the constrained
# count, and a random system that long spans its target with probability
# about 1 - 2**-_SURPLUS.
_ROW_WORD = 64
_SURPLUS = 64
# The encoder draws this many row words per draw_array call.  For k = 2048
# cells of 4096 (33 words), 4 words a call built the system in 3.2 ms against
# 5.8 ms for one word a call; one call for all 33 words was no faster (3.7 ms)
# but raised peak RSS by 4.0 MB against 1.05 MB (best of 15, process time).
_DRAW_WORDS = 4
# The decoder XORs its selected rows in chunks of about this many words; at
# 2^16 words the chunk's draw temporaries raised peak RSS at m=12 by 1.2 MB.
_CHUNK_WORDS = 1 << 14
# The eliminator XORs table rows into the matrix this many words per row at a
# time; one full-width lookup temporary per block raised peak RSS at m=12 by
# about 0.5 MB, and slabs run no slower.
_SLAB = 16
# _BIT_MASKS[b, v] is 0xFF where the byte v has bit b set, else 0
_BIT_MASKS = np.unpackbits(np.arange(256, dtype=np.uint8)[None, :], axis=0, bitorder="little") * np.uint8(0xFF)
# (j, mask) of the six swap rounds of a 64 x 64 bit transpose: the mask
# keeps the low j bits of every 2j
_TRANSPOSE_ROUNDS = [
    (j, np.uint64(sum(((1 << j) - 1) << i for i in range(0, 64, 2 * j))))
    for j in (32, 16, 8, 4, 2, 1)
]


def pack_columns(bits: np.ndarray) -> np.ndarray:
    """A (k, c) 0/1 array as the word-major packed system that
    :func:`first_solvable_prefix` reads: entry [w, i] is the little-endian
    uint64 holding columns 64w .. 64w + 63 of row i, column j at bit j % 64."""
    k, c = bits.shape
    out = np.zeros((k, ((c + 63) >> 6) * 8), dtype=np.uint8)
    out[:, : (c + 7) >> 3] = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(out.view("<u8").T)


def first_solvable_prefix(system: np.ndarray, rows: int) -> tuple[int, int]:
    """(J, combination) of the shortest prefix of generator rows spanning a target.

    ``system`` is the transposed GF(2) system as packed by :func:`pack_columns`:
    one row per constraint, column c < ``rows`` is generator row c + 1 and
    column ``rows`` is the target.  Bit r - 1 of the combination picks row r,
    and only rows independent of the rows before them are picked, so the
    answer is unique.  Raises SearchExhausted when all ``rows`` rows leave the
    target outside their span.

    Four-Russians elimination (Arlazarov, Dinic, Kronrod and Faradzev; the
    M4RI variant of Albrecht and Bard) to reduced echelon form, in place:
    each step finds the pivots among 8 columns, tabulates the 2^kk
    combinations of its kk pivot rows, and clears those columns from every
    row with one table lookup and one XOR of the words from the block on.
    Rows stay where they are; a byte mask marks the live rows (no pivot
    yet), and only those are searched for pivots.  For k constraints that
    is about k^3/512 word operations on k^2/8 bytes.  The pivot columns are
    the row rank profile of the generator prefix, and in reduced form the
    target column holds the combination.
    """
    k = system.shape[1]
    if rows < 1:
        raise SearchExhausted("no solvable prefix within 0 rows")
    m8 = system.view(np.uint8)
    # the byte of each row holding column c is m8[c >> 6, 8 * row + (c >> 3 & 7)]
    target = m8[rows >> 6, rows >> 3 & 7 :: 8]
    t_bit = 1 << (rows & 7)
    live = np.full(k, 0xFF, dtype=np.uint8)  # 0 once the row is a pivot row
    first = 0  # no live row before it
    pivot_col = np.zeros(k, dtype=np.int64)
    for c in range(0, rows, 8):
        # stop once the target lies in the span of the columns left of c
        if not np.count_nonzero(target & live & t_bit):
            break
        valid = (1 << min(rows - c, 8)) - 1
        block = m8[c >> 6, c >> 3 & 7 :: 8]
        # pivots of this block: src[a] is the live row behind basis[a] =
        # [pivot bit, reduced byte, combination of src rows]; most blocks
        # fill all 8 columns from the first few nonzero live rows, so rows
        # past the first 64 from `first` are masked only when they do not
        src: list[int] = []
        basis: list[list[int]] = []
        need = valid.bit_count()
        parts = ((first, first + 64), (first + 64, k))
        for i in chain.from_iterable(
            (np.flatnonzero(block[a:b] & live[a:b] & valid) + a).tolist() for a, b in parts
        ):
            v = int(block[i]) & valid
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
        # table[:, s]: XOR of the source rows in s, words from the block on
        w0 = c >> 6
        rows_src = system[w0:, src]
        table = np.empty((system.shape[0] - w0, 1 << len(src)), dtype=system.dtype)
        table[:, 0] = 0
        for a in range(len(src)):
            np.bitwise_xor(table[:, : 1 << a], rows_src[:, a, None], out=table[:, 1 << a : 2 << a])
        # lut[byte]: the source combination that clears the byte's pivot bits
        of_bit = np.zeros(8, dtype=np.uint8)
        pivots = [e[0].bit_length() - 1 for e in basis]
        of_bit[pivots] = [e[2] for e in basis]
        idx = np.bitwise_xor.reduce(_BIT_MASKS & of_bit[:, None], axis=0).take(block)
        for w in range(w0, system.shape[0], _SLAB):
            system[w : w + _SLAB] ^= np.take(table[w - w0 : w - w0 + _SLAB], idx, axis=1)
        # that cleared the source rows too; they become the reduced pivots
        system[w0:, src] = table[:, [e[2] for e in basis]]
        pivot_col[src] = [c + p for p in pivots]
        live[src] = 0
        while first < k and not live[first]:
            first += 1
    if np.count_nonzero(target & live & t_bit):
        raise SearchExhausted(f"no solvable prefix within {rows} rows")
    picked = pivot_col[(target & ~live & t_bit) != 0]
    j = int(picked.max()) + 1 if picked.size else 1
    flags = np.zeros(j, dtype=np.uint8)
    flags[picked] = 1
    return j, int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _draw_columns(seed: int, cells: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, a (words, cells.size) uint64 array, with generator rows
    1 .. 64 * words at the given ascending cells: out[w, i] holds row
    64w + 1 + b of cell cells[i] at bit b.

    Each draw_array call covers _DRAW_WORDS words of rows.  Row r's word at
    column block blk holds cells 64 blk .. 64 blk + 63, so each 64 rows x
    one block is a 64 x 64 bit matrix whose transpose holds one word per
    cell; six masked swap rounds transpose all blocks at once (Warren,
    Hacker's Delight, section 7-3).
    """
    words = out.shape[0]
    nblk = (int(cells[-1]) >> 6) + 1 if cells.size else 0
    blk = np.arange(nblk, dtype=np.uint64)
    bit, col = cells & 63, cells >> 6
    for w0 in range(0, words, _DRAW_WORDS):
        g = min(_DRAW_WORDS, words - w0)
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
        out[w0 : w0 + g] = x[:, bit, col]


def linear_encode(x: TernaryVector, shared: SharedRandomness) -> list[int]:
    """Shortest generator prefix whose span hits x on its constraints.

    Emits elias(J) followed by the J combination bits M, where the
    reconstruction is M applied to the first J generator rows.  J stays
    near the number of constraints, on either side of it: a few rows
    above it when the prefix needs them to reach full rank, below it
    when the target already lies in the span of a shorter prefix.
    Raises SearchExhausted when J_MAX rows do not reach the target.
    """
    psi = x.psi()
    ones = (x.entries[psi] == 1).astype("<u8")
    rows = min(psi.size + _SURPLUS, J_MAX)
    while True:
        system = _linear_system(shared.seed, psi, ones, rows)
        try:
            j, combo = first_solvable_prefix(system, rows)
            break
        except SearchExhausted:  # elimination is in place, so redraw all rows
            if rows == J_MAX:
                raise
            rows = min(rows + _ROW_WORD, J_MAX)
    bits = elias_delta_encode(j)
    bits.extend((combo >> r) & 1 for r in range(j))
    return bits


def _linear_system(seed: int, cells: np.ndarray, ones: np.ndarray, rows: int) -> np.ndarray:
    """The packed system :func:`linear_encode` solves: generator rows
    1 .. ``rows`` at the constrained cells, then the target bits ``ones``
    (one uint64 0 or 1 per cell) as column ``rows``."""
    full = rows >> 6
    system = np.zeros((full + 1, cells.size), dtype="<u8")
    _draw_columns(seed, cells, system[: (rows + _ROW_WORD - 1) // _ROW_WORD])
    # the target column follows row `rows`; drop the rows drawn past it
    system[full] &= np.uint64((1 << (rows & 63)) - 1)
    system[full] |= ones << np.uint64(rows & 63)
    return system


def linear_decode(reader: BitReader, n: int, shared: SharedRandomness) -> np.ndarray:
    """XOR of the generator rows the codeword picks, drawn in chunks of rows
    so that memory is bounded by the chunk, not by J."""
    j, combo = read_codeword(reader, "linear")
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


def read_codeword(reader: BitReader, codec: str) -> tuple[int, int]:
    """Fields (J, combination bits) of one codeword of either codec.

    The random codec sends only its row index J, so its combination is 0;
    the linear codec follows J with J combination bits, row 1 first.  A
    truncated or malformed field is re-raised with the field's name and the
    reader's bit offset where it began.
    """
    at = reader.bits_read
    try:
        j = reader.read_elias_delta()
        if j > J_MAX:  # no encoder emits it, and the row keys would overflow
            raise MalformedCodeword(f"row index {j} exceeds J_MAX = {J_MAX}")
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
