"""Algebraic sets: the common zeros of a PolySet, and the converse map.

Points are assignment indices (bit i-1 of the index is the value of x_i).
Membership for all 2^m points is held in one Python integer.  Members cross
to and from numpy in one call each way (`to_bool_array`/`from_bool_array`),
never one point at a time.  The polynomial <-> truth-table conversions run
through the subset-XOR (Moebius) transform, which is an involution over
GF(2) and costs O(m * 2^m) bit operations.  It runs on the 2^m-bit table
packed little-endian into 64-bit words (bit i of the table is bit i % 64 of
word i // 64, so a point set's integer is the words' bytes).  Round j
XORs each bit whose index has bit j clear onto the bit 2^j above it: for
j < 6 that is one masked shift-XOR inside every word (the masked-shift idiom
of Warren, Hacker's Delight), and for j >= 6 one XOR of whole blocks of
words.  Universes stop at m = M_MAX, the variable cap of every polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, UniverseTooLarge
from .poly import M_MAX, Poly, PolySet


def check_m(m: int) -> None:
    if m < 0:
        raise DomainError(f"variable count must be >= 0, got {m}")
    if m > M_MAX:
        raise UniverseTooLarge(f"2^{m} assignments exceed the supported 2^{M_MAX}")


@dataclass(frozen=True)
class AlgSet:
    """A subset of the 2^m assignments, packed into the bits of one integer."""

    m: int
    bits: int

    def __post_init__(self):
        check_m(self.m)
        if self.bits < 0 or self.bits >> (1 << self.m):
            raise DomainError("membership bits outside the assignment space")

    @classmethod
    def from_points(cls, m: int, points: Iterable[int]) -> "AlgSet":
        check_m(m)
        pts = list(points)
        for pt in pts:
            if pt < 0 or pt >> m:
                raise DomainError(f"point {pt} outside the {m}-variable space")
        arr = np.zeros(1 << m, dtype=bool)
        arr[pts] = True
        return cls.from_bool_array(m, arr)

    @classmethod
    def from_bool_array(cls, m: int, arr: np.ndarray) -> "AlgSet":
        packed = np.packbits(arr.astype(bool), bitorder="little")
        return cls(m, int.from_bytes(packed.tobytes(), "little"))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def points_list(self) -> list[int]:
        """Member points in ascending order."""
        return np.flatnonzero(self.to_bool_array()).tolist()

    def to_bool_array(self) -> np.ndarray:
        n = 1 << self.m
        raw = self.bits.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little").astype(bool)

    def issubset(self, other: "AlgSet") -> bool:
        self._check_peer(other)
        return self.bits & ~other.bits == 0

    def _check_peer(self, other: "AlgSet") -> None:
        if self.m != other.m:
            raise DomainError(f"mixed assignment spaces: m={self.m} vs m={other.m}")


# _LOW[j]: the bits of a word whose index i % 64 has bit j clear
_LOW = np.array([0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF], "<u8")


def _xor_subset_transform(words: np.ndarray, m: int) -> np.ndarray:
    """In-place GF(2) zeta/Moebius transform of the 2^m-bit table packed into
    `words`: bit i becomes the XOR of the bits at the subsets of i.  Below
    m = 6 the table is the low 2^m bits of one word; the bits above it move
    only upward, so they never reach the table."""
    for j in range(min(m, 6)):
        words ^= (words & _LOW[j]) << np.uint64(1 << j)
    for j in range(6, m):
        blocks = words.reshape(-1, 2, 1 << (j - 6))
        blocks[:, 1] ^= blocks[:, 0]
    return words


def _value_words(q: Poly, m: int) -> np.ndarray:
    """The value table of q on the 2^m points, packed into words."""
    coeffs = np.zeros(max(1 << m, 64), dtype=bool)
    coeffs[q.terms] = True
    return _xor_subset_transform(np.packbits(coeffs, bitorder="little").view("<u8"), m)


def zeros(ps: PolySet) -> AlgSet:
    """The points where every polynomial of the set vanishes."""
    check_m(ps.m)
    violated = np.zeros(max(1, (1 << ps.m) >> 6), dtype="<u8")
    for q in ps.polys:
        violated |= _value_words(q, ps.m)
    everywhere = (1 << (1 << ps.m)) - 1
    return AlgSet(ps.m, everywhere ^ int.from_bytes(violated.tobytes(), "little"))


def entails(s: PolySet, t: PolySet) -> bool:
    """True iff every model of s is a model of t (zero-set inclusion)."""
    if s.m != t.m:
        raise DomainError(f"mixed assignment spaces: m={s.m} vs m={t.m}")
    return zeros(s).issubset(zeros(t))


def reconstruct(a: AlgSet) -> PolySet:
    """The canonical single-polynomial set whose zeros are exactly `a`.

    The polynomial is the multilinear indicator of the complement of `a`
    (equivalently 1 plus the sum of the point indicators of `a`), so it also
    generates the largest ideal vanishing on `a`.
    """
    n = 1 << a.m
    outside = ((1 << n) - 1) ^ a.bits
    words = np.frombuffer(bytearray(outside.to_bytes(max(8, n >> 3), "little")), "<u8")
    coeffs = np.unpackbits(_xor_subset_transform(words, a.m).view(np.uint8), count=n,
                           bitorder="little")
    # nonzero reads a bool array several times faster than a uint8 one
    return PolySet(a.m, frozenset({Poly.of_sorted(np.flatnonzero(coeffs.view(bool)))}))
