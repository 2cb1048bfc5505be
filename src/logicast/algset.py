"""Algebraic sets: the common zeros of a PolySet, and the converse map.

Points are assignment indices (bit i-1 of the index is the value of x_i).
Membership for all 2^m points is held in one Python integer.  Members cross
to and from numpy in one call each way (`to_bool_array`/`from_bool_array`),
never one point at a time.  The polynomial <-> truth-table conversions run
through the subset-XOR (Moebius) transform, which is an involution over
GF(2) and costs O(m * 2^m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, UniverseTooLarge
from .poly import Poly, PolySet

M_MAX = 24


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

    def __contains__(self, point: int) -> bool:
        return 0 <= point < (1 << self.m) and (self.bits >> point) & 1 == 1

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


def _xor_subset_transform(values: np.ndarray, m: int) -> np.ndarray:
    """In-place GF(2) zeta/Moebius transform over the subset lattice."""
    for i in range(m):
        values = values.reshape(-1, 2, 1 << i)
        values[:, 1, :] ^= values[:, 0, :]
    return values.reshape(-1)


def _poly_value_table(q: Poly, m: int) -> np.ndarray:
    coeffs = np.zeros(1 << m, dtype=np.uint8)
    if q.masks:
        coeffs[np.fromiter(q.masks, dtype=np.int64, count=len(q.masks))] = 1
    return _xor_subset_transform(coeffs, m)


def zeros(ps: PolySet) -> AlgSet:
    """The points where every polynomial of the set vanishes."""
    check_m(ps.m)
    violated = np.zeros(1 << ps.m, dtype=np.uint8)
    for q in ps.polys:
        violated |= _poly_value_table(q, ps.m)
    return AlgSet.from_bool_array(ps.m, violated == 0)


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
    coeffs = _xor_subset_transform(~a.to_bool_array(), a.m)
    q = Poly.of_distinct(frozenset(np.flatnonzero(coeffs).tolist()))
    return PolySet(a.m, frozenset({q}))
