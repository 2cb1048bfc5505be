"""Multilinear polynomials over GF(2) and the statement sets built from them.

A monomial is a bitmask over variable indices: bit i-1 set means the variable
x_i occurs. The empty mask is the constant 1. A polynomial is a set of
monomials combined by XOR, i.e. arithmetic lives in GF(2)[x1..xm] modulo the
relations x_i^2 = x_i, so squaring is the identity and every polynomial is a
function {0,1}^m -> GF(2). Assignments are packed into a point index whose
bit i-1 is the value of x_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import VariableOutOfRange


def monomial_from_vars(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        if i < 1:
            raise VariableOutOfRange(f"variable index must be >= 1, got {i}")
        mask |= 1 << (i - 1)
    return mask


class Poly:
    """Multilinear GF(2) polynomial as a frozenset of monomial masks."""

    __slots__ = ("masks",)

    def __init__(self, terms: Iterable[int] = ()):
        acc: set[int] = set()
        for t in terms:
            if t < 0:
                raise VariableOutOfRange(f"monomial mask must be >= 0, got {t}")
            if t in acc:
                acc.remove(t)
            else:
                acc.add(t)
        self.masks: frozenset[int] = frozenset(acc)

    @classmethod
    def of_distinct(cls, masks: frozenset[int]) -> "Poly":
        """The polynomial whose terms are `masks`, which the caller knows to
        be non-negative; being a set, no two of them cancel."""
        out = cls.__new__(cls)
        out.masks = masks
        return out

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((0,))

    @classmethod
    def variable(cls, index: int) -> "Poly":
        return cls((monomial_from_vars((index,)),))

    @property
    def is_zero(self) -> bool:
        return not self.masks

    def max_var(self) -> int:
        return max(self.masks, default=0).bit_length()

    def eval(self, point: int) -> int:
        """Value at the assignment packed into `point` (bit i-1 = x_i)."""
        acc = 0
        for t in self.masks:
            if t & point == t:
                acc ^= 1
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.of_distinct(self.masks ^ other.masks)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: set[int] = set()
        for a in self.masks:
            for b in other.masks:
                t = a | b
                if t in acc:
                    acc.remove(t)
                else:
                    acc.add(t)
        return Poly.of_distinct(frozenset(acc))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Poly({sorted(self.masks)})"


# ------------------------------------------------------------------ PolySet

@dataclass(frozen=True)
class PolySet:
    """A knowledge state: finitely many polynomials over x1..xm, read as
    simultaneous equations `p = 0`."""

    m: int
    polys: frozenset[Poly]

    def __post_init__(self):
        if self.m < 0:
            raise VariableOutOfRange(f"variable count must be >= 0, got {self.m}")
        for q in self.polys:
            if q.max_var() > self.m:
                raise VariableOutOfRange(
                    f"polynomial uses x{q.max_var()} but the set declares m={self.m}"
                )

    @classmethod
    def of(cls, m: int, polys: Iterable[Poly]) -> "PolySet":
        return cls(m, frozenset(polys))

    def union(self, other: "PolySet") -> "PolySet":
        if other.m != self.m:
            raise VariableOutOfRange(
                f"cannot combine sets over m={self.m} and m={other.m}"
            )
        return PolySet(self.m, self.polys | other.polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)
