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
  Polynomial work, but one bit per constrained cell: a + b bits per
  coordinate, meeting :func:`lambda_fn` only at a = b.

Both shared-randomness codecs draw their codebooks from a splitmix64
keystream (see :mod:`logicast.randomness`), so encoder and decoder only
need to agree on a seed and a bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .bitcodec import BitReader, binom, elias_delta_encode
from .errors import DomainError, DuplicateColumns, MalformedCodeword, SearchExhausted
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
    if p < 0.0 or p > 1.0:
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
    if p_a < 0.0 or p_b < 0.0:
        raise DomainError("densities must be non-negative")
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
        if p_a < 0.0 or p_b < 0.0 or p_a + p_b <= 0.0:
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


def random_encode(
    x: TernaryVector, p_a: float, p_b: float, shared: SharedRandomness
) -> list[int]:
    """Index of the first codebook row agreeing with x on its constraints.

    A side whose density is 0 must have no constrained cells: a codebook
    matched to that law never shows that side's value.  With bias 0 every
    cell is 1, so a vector with no 0 cells matches row 1 outright.  Raises
    SearchExhausted past J_MAX rows.
    """
    e = x.entries
    if (p_a <= 0.0 and np.any(e == 0)) or (p_b <= 0.0 and np.any(e == 1)):
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


def _fair_row(seed: int, row: int, n: int) -> int:
    """Row of the fair generator matrix over n columns, column i at bit i."""
    nblk = (n + 63) >> 6
    keys = (np.uint64(row) << np.uint64(COL_SHIFT)) | np.arange(nblk, dtype=np.uint64)
    words = draw_array(seed, keys).astype("<u8", copy=False)
    return int.from_bytes(words.tobytes(), "little") & ((1 << n) - 1)


def _pack_le(bits: np.ndarray) -> int:
    """A 0/1 array as one int, element i at bit i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def first_solvable_prefix(rows: Iterable[int], target: int) -> tuple[int, int]:
    """(J, combination) of the shortest prefix of packed GF(2) rows spanning the
    target; bit k picks row k + 1, only from rows independent of earlier ones."""
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


def linear_encode(x: TernaryVector, shared: SharedRandomness) -> list[int]:
    """Shortest generator prefix whose span hits x on its constraints.

    Emits elias(J) followed by the J combination bits M, where the
    reconstruction is M applied to the first J generator rows.  J stays
    near the number of constraints, on either side of it: a few rows
    above it when the prefix needs them to reach full rank, below it
    when the target already lies in the span of a shorter prefix.
    """
    # masking keeps the column order, so J and the combination are those of
    # the rows restricted to the constrained columns
    care = _pack_le(x.entries != FREE)
    n = care.bit_length()
    rows = (_fair_row(shared.seed, j, n) & care for j in range(1, J_MAX + 1))
    j, combo = first_solvable_prefix(rows, _pack_le(x.entries == 1))
    bits = elias_delta_encode(j)
    bits.extend((combo >> r) & 1 for r in range(j))
    return bits


def linear_decode(reader: BitReader, n: int, shared: SharedRandomness) -> np.ndarray:
    j, combo = read_codeword(reader, "linear")
    y = 0
    # row 1's bit was sent first, so it is the top bit of the combination
    for row, bit in enumerate(f"{combo:0{j}b}", start=1):
        if bit == "1":
            y ^= _fair_row(shared.seed, row, n)
    raw = np.frombuffer(y.to_bytes((n + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def read_codeword(reader: BitReader, codec: str) -> tuple[int, int]:
    """Fields (J, combination bits) of one codeword of either codec.

    The random codec sends only its row index J, so its combination is 0;
    the linear codec follows J with J combination bits, row 1 first.
    """
    j = reader.read_elias_delta()
    if j > J_MAX:  # no encoder emits it, and the row keys would overflow
        raise MalformedCodeword(f"row index {j} exceeds J_MAX = {J_MAX}")
    return j, reader.read_bits(j) if codec == "linear" else 0


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
