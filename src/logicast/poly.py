"""Multilinear polynomials over GF(2) and the statement sets built from them.

A monomial is a bitmask over variable indices: bit i-1 set means the variable
x_i occurs. The empty mask is the constant 1. A polynomial is a set of
monomials combined by XOR, i.e. arithmetic lives in GF(2)[x1..xm] modulo the
relations x_i^2 = x_i, so squaring is the identity and every polynomial is a
function {0,1}^m -> GF(2). Assignments are packed into a point index whose
bit i-1 is the value of x_i.

Every polynomial lives in x1..x`M_MAX`: each mask is below 2^M_MAX, and the
constructors refuse a larger mask or index with UniverseTooLarge. A
polynomial holds its monomials as one read-only int64 array, `terms`, sorted
ascending with no repeats, so its largest variable is read off the last term.
Arithmetic that builds a polynomial a term at a time (the product, and the
statement parser's connectives) runs on Python sets of masks and makes the
array once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

import numpy as np

from .errors import UniverseTooLarge, VariableOutOfRange

M_MAX = 24  # the largest variable index of any polynomial


def monomial_from_vars(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        if i < 1:
            raise VariableOutOfRange(f"variable index must be >= 1, got {i}")
        if i > M_MAX:
            raise UniverseTooLarge(f"variable index must be <= {M_MAX}, got {i}")
        mask |= 1 << (i - 1)
    return mask


def mask_product(a: Iterable[int], b: Collection[int]) -> set[int]:
    """Terms of the product of two polynomials given by their distinct
    masks: the unions a | b that occur an odd number of times."""
    acc: set[int] = set()
    for x in a:
        for y in b:
            t = x | y
            if t in acc:
                acc.remove(t)
            else:
                acc.add(t)
    return acc


class Poly:
    """Multilinear GF(2) polynomial as a sorted array of monomial masks."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[int] = ()):
        acc: set[int] = set()
        for t in terms:
            if t < 0:
                raise VariableOutOfRange(f"monomial mask must be >= 0, got {t}")
            if t >> M_MAX:
                raise UniverseTooLarge(f"monomial mask uses x{int(t).bit_length()}, past x{M_MAX}")
            if t in acc:
                acc.remove(t)
            else:
                acc.add(t)
        self.terms = Poly.of_distinct(acc).terms

    @classmethod
    def of_distinct(cls, masks: Collection[int]) -> "Poly":
        """The polynomial whose terms are `masks`, which the caller knows to
        be distinct and in 0..2^M_MAX - 1, so that no two of them cancel."""
        terms = np.fromiter(masks, np.int64, len(masks))
        terms.sort()
        return cls.of_sorted(terms)

    @classmethod
    def of_sorted(cls, terms: np.ndarray) -> "Poly":
        """The polynomial over `terms`, which the caller knows to be sorted,
        distinct, int64 and in 0..2^M_MAX - 1. The array is made read-only
        and kept, not copied."""
        terms.setflags(write=False)
        out = cls.__new__(cls)
        out.terms = terms
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
        return not self.terms.size

    def max_var(self) -> int:
        return int(self.terms[-1]).bit_length() if self.terms.size else 0

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.of_distinct(set(self.terms.tolist()) ^ set(other.terms.tolist()))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly.of_distinct(mask_product(self.terms.tolist(), other.terms.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return False
        a, b = self.terms, other.terms
        return a.shape == b.shape and bool((a == b).all())

    def __hash__(self) -> int:
        return hash(self.terms.tobytes())

    def __repr__(self) -> str:
        return f"Poly({self.terms.tolist()})"


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
