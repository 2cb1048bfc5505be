"""Groebner bases for systems of idempotent polynomials.

Everything lives in GF(2)[x1..xm] modulo the relations xi*xi = xi, so each
polynomial is a xor of square-free monomials and each monomial is an m-bit
mask.  A whole polynomial is packed into one Python integer whose bit at
position `mask` is the coefficient of that monomial: addition is a single
xor, and multiplying by a variable is a shift-and-fold.

The monomial order is degree first, then a reversed-mask tie break so that
low-numbered variables sort first within a degree.  Reducing a monomial only
ever introduces strictly smaller monomials under this order, which lets the
normal-form loop sweep one descending pointer across the monomial list
without ever backing up.

The completion loop is Buchberger over the quotient ring with the normal
selection strategy (smallest lcm degree first, ties by the order on the
lcm).  Besides the usual S-pairs it queues, for every basis element and
every variable of its leading term, the product of the two: that is the
S-polynomial against the implicit idempotency relation, and skipping it is
what makes textbook Buchberger wrong in this ring.  The coprime-leading-term
shortcut is equally invalid here, so the only pruning applied is the chain
criterion, whose syzygy argument does not depend on the coefficient ring.

Reducers look divisors up in one table over all 2^m monomials, and one pass
in ascending leading-term order makes the completed basis minimal and reduced.
"""
from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from typing import Iterable

import numpy as np

from .algset import entails as _entails_points
from .errors import DomainError, PreconditionViolated, UniverseTooLarge
from .poly import Poly, PolySet

__all__ = [
    "GroebnerBasis",
    "groebner_basis",
    "normal_form",
    "entails_groebner",
    "delta",
    "monomial_key",
    "leading_term",
]


# `_tables` holds 2^m probes of up to 2^m bits: about 300 MB at m = 16.
GB_M_MAX = 16


def monomial_key(mask: int, m: int) -> int:
    """Sort key of a monomial mask; larger key means later in the order."""
    if m < 1:
        raise DomainError(f"need at least one variable, got m={m}")
    if not 0 <= mask < (1 << m):
        raise DomainError(f"monomial {mask:#x} out of range for m={m}")
    rev = 0
    t = mask
    while t:
        low = t & -t
        rev |= 1 << (m - low.bit_length())
        t ^= low
    full = (1 << m) - 1
    return (mask.bit_count() << m) | (full ^ rev)


def leading_term(q: Poly, m: int) -> int:
    if q.is_zero:
        raise DomainError("the zero polynomial has no leading term")
    return max(q.masks, key=lambda t: monomial_key(t, m))


@lru_cache(maxsize=16)
def _tables(m: int):
    """Per-m data: monomial masks in descending order, the matching packed
    single-bit probes, an or-of-64 coarsening of those probes for skipping
    dead stretches, for each variable bit b the packed positions whose
    mask contains b, and every mask as a read-only numpy index array."""
    if m > GB_M_MAX:
        raise UniverseTooLarge(f"Groebner tables support m <= {GB_M_MAX}, got m={m}")
    n = 1 << m
    desc = tuple(sorted(range(n), key=lambda t: monomial_key(t, m), reverse=True))
    descbit = tuple(1 << mask for mask in desc)
    blocks = []
    for start in range(0, n, 64):
        acc = 0
        for probe in descbit[start : start + 64]:
            acc |= probe
        blocks.append(acc)
    hi = []
    for b in range(m):
        seg = (1 << (1 << b)) - 1
        pat = seg << (1 << b)
        width = 1 << (b + 1)
        while width < n:
            pat |= pat << width
            width <<= 1
        hi.append(pat)
    monos = np.arange(n, dtype=np.min_scalar_type(n - 1))
    monos.flags.writeable = False
    return desc, descbit, tuple(blocks), tuple(hi), monos


def _xb_mul(acc: int, b: int, hi) -> int:
    """Multiply a packed polynomial by variable bit b (idempotent product)."""
    keep = acc & hi[b]
    return ((acc ^ keep) << (1 << b)) ^ keep


def _mono_mul(acc: int, u: int, hi) -> int:
    while u:
        low = u & -u
        acc = _xb_mul(acc, low.bit_length() - 1, hi)
        u ^= low
    return acc


class _Reducer:
    """Reduction against an append-only element list through a divisor table.

    `div[mono]` is the index of the first element whose leading term
    divides mono, or -1 if none does.  Elements are never removed and their
    leading terms never change, so an entry never changes once set and
    `append` fills only the still-empty multiples of the new leading term.
    """

    __slots__ = ("elems", "div", "monos", "hi", "desc", "descbit", "blocks")

    def __init__(self, m: int):
        self.elems: list[tuple[int, int]] = []
        self.desc, self.descbit, self.blocks, self.hi, self.monos = _tables(m)
        self.div = np.full(self.monos.size, -1, dtype=np.int32)

    def append(self, lt: int, body: int) -> None:
        self.div[(self.monos & lt == lt) & (self.div < 0)] = len(self.elems)
        self.elems.append((lt, body))

    def _reduce(self, acc: int, collect: bool):
        """Shared loop of `top` and `full`; returns (residue, irreducible lt).

        The pointer sweeps the descending monomial list once per call:
        clearing a monomial only introduces strictly smaller ones, and the
        block masks let the sweep hop over dead 64-entry stretches.
        """
        descbit, desc, blocks = self.descbit, self.desc, self.blocks
        hi, elems = self.hi, self.elems
        div = self.div.data  # indexing the memoryview yields plain ints
        out = 0
        ptr = 0
        while acc:
            blk = ptr >> 6
            if not acc & blocks[blk]:
                ptr = (blk + 1) << 6
                continue
            if not acc & descbit[ptr]:
                ptr += 1
                continue
            mono = desc[ptr]
            idx = div[mono]
            if idx < 0:
                if not collect:
                    return acc, mono
                out |= descbit[ptr]
                acc ^= descbit[ptr]
                ptr += 1
                continue
            lt, body = elems[idx]
            u = mono ^ lt
            while u:
                low = u & -u
                b = low.bit_length() - 1
                keep = body & hi[b]
                body = ((body ^ keep) << (1 << b)) ^ keep
                u ^= low
            acc ^= body
        return out, -1

    def top(self, acc: int):
        """Reduce until the leading monomial has no divisor; (poly, lt)."""
        return self._reduce(acc, collect=False)

    def full(self, acc: int) -> int:
        return self._reduce(acc, collect=True)[0]


def _buchberger(gens: Iterable[int], m: int) -> _Reducer:
    red = _Reducer(m)
    elems = red.elems
    lts: list[int] = []
    heap: list[tuple[int, int, int, int, int]] = []
    tick = count()

    def add(acc: int) -> None:
        acc, lt = red.top(acc)
        if not acc:
            return
        ltbit = 1 << lt
        acc = ltbit | red.full(acc ^ ltbit)  # keep the lead, reduce the tail
        idx = len(elems)
        # one pair per distinct lcm: S-polynomials of same-lcm pairs differ
        # by a multiple of the older pair's S-polynomial, already queued
        fresh: dict[int, int] = {}
        for j, olt in enumerate(lts):
            fresh.setdefault(lt | olt, j)
        for lcm, j in fresh.items():
            heappush(heap, (monomial_key(lcm, m), next(tick), 0, j, idx))
        for b in range(m):
            if (lt >> b) & 1:
                # the pair against xb*xb = xb carries one extra degree unit
                heappush(heap, (monomial_key(lt, m) + (1 << m), next(tick), 1, idx, b))
        red.append(lt, acc)
        lts.append(lt)

    def chained(lti: int, ltj: int, lcm: int) -> bool:
        """Chain criterion: some third element splits this pair into two
        pairs with strictly smaller lcms, so it is already accounted for.
        Leading terms are pairwise distinct, so comparing them by value is
        enough to rule the pair's own members out."""
        for ltk in lts:
            if (
                ltk & lcm == ltk
                and ltk != lti
                and ltk != ltj
                and lti | ltk != lcm
                and ltj | ltk != lcm
            ):
                return True
        return False

    hi = red.hi
    for gen in gens:
        add(gen)
    while heap:
        _, _, kind, a, b = heappop(heap)
        if kind == 0:
            lta, pa = elems[a]
            ltb, pb = elems[b]
            lcm = lta | ltb
            if chained(lta, ltb, lcm):
                continue
            add(_mono_mul(pa, lcm ^ lta, hi) ^ _mono_mul(pb, lcm ^ ltb, hi))
        else:
            add(_xb_mul(elems[a][1], b, hi))

    # A proper divisor has a smaller degree, so it is kept before its
    # multiples are met; no leading term divides a smaller monomial, so a
    # tail reduced against every kept element is reduced against the others.
    out = _Reducer(m)
    for lt, body in sorted(elems, key=lambda e: monomial_key(e[0], m)):
        if out.div[lt] < 0:
            out.append(lt, body)
    out.elems[:] = [(lt, (1 << lt) | out.full(body ^ (1 << lt))) for lt, body in out.elems]
    return out


def _pack(q: Poly, m: int) -> int:
    acc = 0
    for mask in q.masks:
        if mask >> m:
            raise DomainError(f"polynomial uses variables beyond m={m}")
        acc |= 1 << mask
    return acc


def _unpack(acc: int) -> Poly:
    masks = []
    while acc:
        low = acc & -acc
        masks.append(low.bit_length() - 1)
        acc ^= low
    return Poly(masks)


class GroebnerBasis:
    """Reduced basis of an ideal; `polys` ascend by leading-term order."""

    __slots__ = ("m", "polys", "_reducer")

    def __init__(self, m: int, reducer: _Reducer):
        self.m = m
        self._reducer = reducer
        self.polys = tuple(_unpack(body) for _, body in reducer.elems)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __repr__(self) -> str:
        return f"GroebnerBasis(m={self.m}, {len(self.polys)} polynomials)"


def groebner_basis(ps: PolySet) -> GroebnerBasis:
    gens = sorted(_pack(q, ps.m) for q in ps.polys if not q.is_zero)
    return GroebnerBasis(ps.m, _buchberger(gens, ps.m))


def normal_form(q: Poly, gb: GroebnerBasis) -> Poly:
    return _unpack(gb._reducer.full(_pack(q, gb.m)))


def entails_groebner(s: PolySet, t: PolySet) -> bool:
    """True when every zero of s is a zero of t, decided by normal forms."""
    if s.m != t.m:
        raise DomainError(f"variable counts differ: {s.m} vs {t.m}")
    gb = groebner_basis(s)
    return all(normal_form(q, gb).is_zero for q in t.polys)


def delta(u: PolySet, v: PolySet) -> PolySet:
    """Incremental residue of u over v: normal forms of u's members modulo
    the ideal of v, with the ones v already implies dropped.

    Requires u to entail v; the result d then satisfies
    zeros(d union v) == zeros(u), and no member of d follows from v alone.
    """
    if u.m != v.m:
        raise DomainError(f"variable counts differ: {u.m} vs {v.m}")
    if not _entails_points(u, v):
        raise PreconditionViolated("the update must entail the background")
    gb = groebner_basis(v)
    residue = {normal_form(q, gb) for q in u.polys}
    residue.discard(Poly.zero())
    return PolySet(u.m, frozenset(residue))
