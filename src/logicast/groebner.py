"""Groebner bases for systems of idempotent polynomials.

Everything lives in GF(2)[x1..xm] modulo the relations xi*xi = xi, so each
polynomial is a xor of square-free monomials and each monomial is an m-bit
mask.  Monomials are ordered by degree first, then by a reversed-mask tie
break so that low-numbered variables sort first within a degree.

A polynomial is packed into one Python integer whose bit pos(t), the low m
bits of `monomial_key(t, m)`, is the coefficient of monomial t.  pos is an
involution, so one table maps both ways.  Addition is a single xor.  Within
a degree the order on monomials is the order on positions, so the leading
term is the top bit of the highest non-empty degree class.  Multiplying by
xb shifts the monomials that lack xb down by 2^(m-1-b) onto the ones that
have it.  Reducing a monomial only ever introduces strictly smaller ones, so
the normal-form loop walks the degree classes downward without backing up.

The completion loop is Buchberger with the normal selection strategy
(smallest lcm degree first, ties by the order on the lcm) and the pair
update of Gebauer and Moeller, run in GF(2)[x] with each xb^2 + xb an
ordinary pair partner, as in PolyBoRi.  An element stays active until a newer
leading term divides its own.  A new element is paired with the active ones,
once per distinct lcm, and criterion M drops a pair whose lcm another new
pair's lcm properly divides.  Criterion B drops a queued pair whose lcm the
new leading term divides when pairing it with either member gives another
lcm.  The pair of g with xb^2 + xb is xb*g, queued for each xb of g's
leading term (for any other xb the leading terms are coprime).  It is
skipped once g is inactive, which is criterion B's case, and when every
term of g has xb, so that xb*g = g.  The product criterion is not applied
between two elements.

Reducers look divisors up in one table indexed by position.  One pass in
ascending leading-term order makes the completed basis minimal, and one tail
reduction, shared by both completions, makes it reduced.

Small inputs skip Buchberger.  Modulo the field equations, the ideal of G is
spanned as a vector space by the products t*g over every monomial t and every
g in G, so one forward echelon form of those rows, with columns in the term
order, holds the whole ideal (Lazard's Macaulay matrix; PolyBoRi uses the
same view in this ring).  Its rows whose leading term no smaller one divides
are a minimal basis for the shared tail reduction.  The matrix has
(generators)*4^m bits, and `groebner_basis` builds it only up to
`_MACAULAY_MAX_BITS`.  Buchberger's work follows the basis rather than the
matrix, so it is faster on sparse inputs past that bound and is the only
path up to `GB_M_MAX`.  Neither path reads the zero set, so this engine
stays independent of `algset`'s.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import count
from operator import and_
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
]


# A cap on work: the tables are Θ(m·2^m) bits, but every reduction step costs
# a few 2^m-bit operations, and Buchberger's bases of five random sparse
# statements (tests/test_groebner.py::_sparse_statements) pass a second at
# m = 16.
GB_M_MAX = 16

# The largest Macaulay matrix, generators * 4^m bits, that `groebner_basis`
# eliminates instead of running Buchberger.  Up to 2^17 bits the matrix won
# on every input of one to five generators but one at m = 4, and lost with
# as many generators as fill the bound, whose rows mostly reduce to zero.
# Past 2^17 bits sparse generators lose on some seeds while dense ones still
# gain, but the size alone does not tell them apart (`scripts/sweep.py
# groebner`; the table is in BENCH_19_groebner_macaulay.json).
_MACAULAY_MAX_BITS = 1 << 17


def monomial_key(mask: int, m: int) -> int:
    """Sort key of a monomial mask; larger key means later in the order."""
    if m < 1:
        raise DomainError(f"need at least one variable, got m={m}")
    if not 0 <= mask < (1 << m):
        raise DomainError(f"monomial {mask:#x} out of range for m={m}")
    rev = int(f"{mask:0{m}b}"[::-1], 2)
    return (mask.bit_count() << m) | (((1 << m) - 1) ^ rev)


def _bitmask(flags: np.ndarray) -> int:
    """Pack a boolean array into an int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=16)
def _tables(m: int):
    """Per-m data in Θ(m·2^m) bits: `pos`, the read-only array mapping each
    position to its monomial and each monomial to its position; `classes[d]`,
    the packed positions of the degree-d monomials; `has[b]`, the packed
    positions of the monomials that contain variable bit b; and `column`,
    the read-only array mapping each position to its monomial's index in
    the term order (the Macaulay matrix's column)."""
    if m > GB_M_MAX:
        raise UniverseTooLarge(f"Groebner tables support m <= {GB_M_MAX}, got m={m}")
    full = (1 << m) - 1
    index = np.arange(1 << m, dtype=np.min_scalar_type(full))
    pos = np.full_like(index, full)
    deg = np.zeros(index.size, dtype=np.uint8)
    for b in range(m):
        bit = (index >> b) & 1
        pos ^= bit << (m - 1 - b)
        deg += bit == 0  # each clear position bit is a variable of the monomial
    pos.flags.writeable = False
    classes = tuple(_bitmask(deg == d) for d in range(m + 1))
    has = tuple(_bitmask((pos >> b) & 1 == 1) for b in range(m))
    column = np.empty_like(index)
    column[np.lexsort((index, deg))] = index  # degree first, then position
    column.flags.writeable = False
    return pos, classes, has, column


def _mono_mul(acc: int, u: int, has, m: int) -> int:
    """Multiply a packed polynomial by monomial u (idempotent product)."""
    while u:
        low = u & -u
        b = low.bit_length() - 1
        # the shift lands a term that lacks xb inside has[b] and one that
        # has it outside, so the mask keeps exactly the moved and kept terms
        acc = (acc ^ acc >> (1 << (m - 1 - b))) & has[b]
        u ^= low
    return acc


class _Reducer:
    """Reduction against an append-only element list through a divisor table.

    Each element is (leading term, packed body).  `div[p]` is the index of
    the first element whose leading term divides the monomial at position
    p, or -1 if none does, and `multiples[d]` packs the positions of degree
    d where it is not -1.  Elements are never removed and their leading terms
    never change, so an entry never changes once set and `append` fills
    only the still-empty multiples of the new leading term.
    """

    __slots__ = ("m", "elems", "div", "multiples", "pos", "classes", "has")

    def __init__(self, m: int):
        self.m = m
        self.elems: list[tuple[int, int]] = []
        self.pos, self.classes, self.has, _ = _tables(m)
        self.div = np.full(self.pos.size, -1, dtype=np.int32)
        self.multiples = [0] * (m + 1)

    def append(self, lt: int, body: int) -> None:
        fresh = (self.pos & lt == lt) & (self.div < 0)
        self.div[fresh] = len(self.elems)
        packed = _bitmask(fresh)
        self.multiples = [old | packed & c for old, c in zip(self.multiples, self.classes)]
        self.elems.append((lt, body))

    def _reduce(self, acc: int, masks):
        """Reduce the top monomial of acc inside masks[d], the highest class
        that has one, until it has no divisor; returns (residue, its position
        or -1).  Clearing it only introduces strictly smaller monomials, so
        the class index d only moves down."""
        has, elems, m = self.has, self.elems, self.m
        pos, div = self.pos.data, self.div.data  # memoryviews index to plain ints
        d = m
        while d >= 0:
            lead = acc & masks[d]
            if not lead:
                d -= 1
                continue
            p = lead.bit_length() - 1
            idx = div[p]
            if idx < 0:
                return acc, p
            lt, body = elems[idx]
            acc ^= _mono_mul(body, pos[p] ^ lt, has, m)
        return acc, -1

    def top(self, acc: int):
        """Reduce until the leading monomial has no divisor; (poly, lt position)."""
        return self._reduce(acc, self.classes)

    def full(self, acc: int) -> int:
        """Normal form: reduce every monomial that has a divisor."""
        return self._reduce(acc, self.multiples)[0]


def _buchberger(gens: Iterable[int], m: int) -> _Reducer:
    red = _Reducer(m)
    elems, has, pos = red.elems, red.has, red.pos.data
    lts: list[int] = []
    active: dict[int, None] = {}  # elements whose leading term no newer one divides
    live: dict[int, set[tuple[int, int]]] = {}  # queued S-pairs by lcm
    livebits = 0  # the positions of live's lcms, a superset once pairs are popped
    heap: list[tuple[int, int, int, int, int]] = []
    tick = count()

    def add(acc: int) -> None:
        nonlocal active, livebits
        acc, p = red.top(acc)
        if not acc:
            return
        lt = pos[p]
        acc = (1 << p) | red.full(acc ^ (1 << p))  # keep the lead, reduce the tail
        idx = len(elems)
        # criterion B; lt's multiples are the positions in has[b] for every xb of lt
        hit = livebits & reduce(and_, (has[b] for b in range(m) if lt >> b & 1), -1)
        while hit:
            q = hit.bit_length() - 1
            hit ^= 1 << q
            lcm = pos[q]
            live[lcm] = {(i, j) for i, j in live[lcm] if lcm in (lts[i] | lt, lts[j] | lt)}
            if not live[lcm]:
                livebits ^= 1 << q
        # one pair per distinct lcm, the oldest element's (same-lcm S-polynomials
        # differ by a multiple of an older pair's), then criterion M: test the
        # lcms by ascending degree against the ones kept so far
        fresh = {lts[j] | lt: j for j in reversed(active)}
        kept: list[int] = []
        for lcm in sorted(fresh, key=int.bit_count):
            if not any(k & lcm == k for k in kept):
                kept.append(lcm)
                heappush(heap, (monomial_key(lcm, m), next(tick), 0, fresh[lcm], idx))
                live.setdefault(lcm, set()).add((fresh[lcm], idx))
                livebits |= 1 << pos[lcm]
        for b in range(m):
            if (lt >> b) & 1:
                # the pair against xb*xb = xb carries one extra degree unit
                heappush(heap, (monomial_key(lt, m) + (1 << m), next(tick), 1, idx, b))
        active = dict.fromkeys([*(j for j in active if lts[j] & lt != lt), idx])
        red.append(lt, acc)
        lts.append(lt)

    for gen in gens:
        add(gen)
    while heap:
        _, _, kind, a, b = heappop(heap)
        if kind == 0:
            lta, pa = elems[a]
            ltb, pb = elems[b]
            lcm = lta | ltb
            if (a, b) in live[lcm]:  # else criterion B dropped it
                live[lcm].remove((a, b))
                add(_mono_mul(pa, lcm ^ lta, has, m) ^ _mono_mul(pb, lcm ^ ltb, has, m))
        elif a in active and elems[a][1] & has[b] != elems[a][1]:  # the two field-pair skips
            add(_mono_mul(elems[a][1], 1 << b, has, m))

    # A proper divisor has a smaller degree, so it is kept before its multiples
    out = _Reducer(m)
    for lt, body in sorted(elems, key=lambda e: monomial_key(e[0], m)):
        if out.div[pos[lt]] < 0:
            out.append(lt, body)
    return _reduce_tails(out)


def _reduce_tails(red: _Reducer) -> _Reducer:
    """Reduce a minimal basis: each element's tail becomes its normal form
    against the basis (no leading term divides a smaller monomial)."""
    pos = red.pos.data
    red.elems[:] = [(lt, (1 << pos[lt]) | red.full(body ^ (1 << pos[lt])))
                    for lt, body in red.elems]
    return red


def _macaulay(gens: list[int], m: int) -> _Reducer:
    """Reduced basis from one forward elimination of the Macaulay matrix: a
    row t*g for every monomial t and generator g, whose bit `column[pos[u]]`
    holds the coefficient of monomial u.  The pivot columns are the ideal's
    leading terms, so the pivot rows whose leading term no smaller one
    divides are a minimal basis, which `_reduce_tails` reduces."""
    n = 1 << m
    pos, _, _, column = _tables(m)
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(g.to_bytes(width, "little") for g in gens), np.uint8)
    # the generator index and the position of every term
    which, at = np.nonzero(np.unpackbits(packed.reshape(len(gens), width), axis=1, count=n,
                                         bitorder="little"))
    t = np.arange(n)[:, None]
    # bit c of row (g, t) is the parity of the terms u of g with t|u in column c
    cells = column[pos][t | pos[at]] + t * n
    cells += which * n * n
    odd = np.bincount(cells.ravel(), minlength=len(gens) * n * n) & 1
    data = np.packbits(odd.reshape(-1, n), axis=1, bitorder="little").tobytes()
    rows = {int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)}
    pivots = [0] * n  # pivots[c]: the row whose leading column is c, or 0
    for row in sorted(rows):
        while row:
            c = row.bit_length() - 1
            if not pivots[c]:
                pivots[c] = row
                break
            row ^= pivots[c]
    # A proper divisor has a smaller degree, so it is kept before its multiples
    out = _Reducer(m)
    monomial = pos[np.argsort(column)].tolist()  # each column's monomial
    for lt, row in zip(monomial, pivots):
        if row and out.div[pos[lt]] < 0:
            out.append(lt, row)
    # back from columns to positions: bit p of a body is bit column[p] of its row
    data = b"".join(row.to_bytes(width, "little") for _, row in out.elems)
    bits = np.unpackbits(np.frombuffer(data, np.uint8).reshape(len(out.elems), width),
                         axis=1, bitorder="little")
    data = np.packbits(bits[:, column], axis=1, bitorder="little").tobytes()
    out.elems[:] = [(lt, int.from_bytes(data[i:i + width], "little"))
                    for (lt, _), i in zip(out.elems, range(0, len(data), width))]
    return _reduce_tails(out)


def _positions(acc: int, m: int) -> np.ndarray:
    """Ascending positions of the set bits of a packed polynomial."""
    packed = np.frombuffer(acc.to_bytes(((1 << m) + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little"))


def _pack(q: Poly, m: int) -> int:
    if q.max_var() > m:
        raise DomainError(f"polynomial uses variables beyond m={m}")
    flags = np.zeros(1 << m, dtype=bool)
    flags[_tables(m)[0][q.terms]] = True
    return _bitmask(flags)


def _unpack(acc: int, m: int) -> Poly:
    return Poly.of_sorted(np.sort(_tables(m)[0][_positions(acc, m)]).astype(np.int64))


class GroebnerBasis:
    """Reduced basis of an ideal; `polys`, unpacked when read, ascend by leading-term order."""

    __slots__ = ("m", "_reducer")

    def __init__(self, m: int, reducer: _Reducer):
        self.m = m
        self._reducer = reducer

    @property
    def polys(self) -> tuple[Poly, ...]:
        return tuple(_unpack(body, self.m) for _, body in self._reducer.elems)

    def __len__(self) -> int:
        return len(self._reducer.elems)

    def __repr__(self) -> str:
        return f"GroebnerBasis(m={self.m}, {len(self)} polynomials)"


def _completion(ngens: int, m: int):
    """The completion path for ngens generators in m variables."""
    return _macaulay if ngens << 2 * m <= _MACAULAY_MAX_BITS else _buchberger


def groebner_basis(ps: PolySet) -> GroebnerBasis:
    gens = sorted(_pack(q, ps.m) for q in ps.polys if not q.is_zero)
    return GroebnerBasis(ps.m, _completion(len(gens), ps.m)(gens, ps.m))


def normal_form(q: Poly, gb: GroebnerBasis) -> Poly:
    return _unpack(gb._reducer.full(_pack(q, gb.m)), gb.m)


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
