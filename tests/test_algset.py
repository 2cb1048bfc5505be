from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicast import algset
from logicast.algset import M_MAX, AlgSet, entails, reconstruct, zeros
from logicast.errors import DomainError, UniverseTooLarge
from logicast.poly import Poly, PolySet, monomial_from_vars
from logicast.statements import parse_statements


def p(*termvars) -> Poly:
    return Poly(monomial_from_vars(t) for t in termvars)


def _value(q: Poly, point: int) -> int:
    """q at `point`, whose bit i-1 is x_i: the parity of the terms the point covers."""
    return sum(t & point == t for t in q.terms.tolist()) & 1


def _zeros_oracle(ps: PolySet) -> set[int]:
    """Oracle: brute-force evaluation of every polynomial at every point."""
    out = set()
    for point in range(1 << ps.m):
        if all(_value(q, point) == 0 for q in ps.polys):
            out.add(point)
    return out


def _reconstruct_oracle(a: AlgSet) -> Poly:
    """Oracle: 1 + sum over members of the product of coordinate indicators."""
    total = Poly.one()
    for c in a.points_list():
        prod = Poly.one()
        for i in range(1, a.m + 1):
            bit = (c >> (i - 1)) & 1
            ind = Poly.variable(i) + Poly.one()  # x_i + 0 + 1
            if bit:
                ind = Poly.variable(i)  # x_i + 1 + 1
            prod = prod * ind
        total = total + prod
    return total


def _points_oracle(bits: int) -> list[int]:
    """Oracle: members in ascending order by peeling the lowest set bit."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _random_polyset(rng: random.Random, m: int, npolys: int) -> PolySet:
    polys = []
    for _ in range(npolys):
        nterms = rng.randrange(0, 6)
        polys.append(Poly(rng.randrange(1 << m) for _ in range(nterms)))
    return PolySet(m, frozenset(polys))


# -------------------------------------------------------------------- AlgSet

def test_algset_basics():
    a = AlgSet.from_points(3, [1, 4, 6])
    assert a.size == 3
    assert a.points_list() == [1, 4, 6]
    assert a.issubset(AlgSet(3, (1 << 8) - 1))
    assert AlgSet(3, 0).issubset(a)
    assert not a.issubset(AlgSet.from_points(3, [1, 4]))


def test_algset_rejects_bad_points():
    # the message names the first point out of range
    for m, pts, bad in [(2, [4], 4), (2, [-1], -1), (2, [1, 5, -1], 5),
                        (3, [0, -2, 8], -2), (0, [0, 1], 1)]:
        msg = f"point {bad} outside the {m}-variable space"
        with pytest.raises(DomainError, match=re.escape(msg)):
            AlgSet.from_points(m, pts)


@settings(max_examples=200)
@given(st.data())
def test_points_list_matches_lowest_bit_walk(data):
    m = data.draw(st.integers(min_value=0, max_value=10))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << m)) - 1))
    a = AlgSet(m, bits)
    pts = a.points_list()
    assert pts == _points_oracle(bits)
    assert all(type(pt) is int for pt in pts)
    assert AlgSet.from_points(m, pts) == a


def test_bool_array_roundtrip():
    a = AlgSet.from_points(4, [0, 3, 9, 15])
    arr = a.to_bool_array()
    assert arr.sum() == 4 and arr[3] and not arr[4]
    assert AlgSet.from_bool_array(4, arr) == a


# --------------------------------------------------------------------- zeros

def test_zeros_conjunction_pair():
    # "not all true" and "not all false" leave 6 of 8 assignments
    ps = parse_statements(
        "x1 AND x2 AND x3 is FALSE\nNOT x1 AND NOT x2 AND NOT x3 is FALSE\n"
    )
    z = zeros(ps)
    assert z.size == 6
    assert z.points_list() == [1, 2, 3, 4, 5, 6]


def test_zeros_simple_sets():
    assert zeros(PolySet.of(2, [p((1,))])).points_list() == [0, 2]
    assert zeros(PolySet.of(2, [])).size == 4
    assert zeros(PolySet.of(2, [Poly.one()])).size == 0
    assert zeros(PolySet.of(2, [Poly.zero()])).size == 4


def test_zeros_matches_bruteforce_oracle():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randrange(0, 7)
        ps = _random_polyset(rng, m, rng.randrange(0, 4))
        assert set(zeros(ps).points_list()) == _zeros_oracle(ps)


def test_zeros_universe_cap():
    with pytest.raises(UniverseTooLarge):
        zeros(PolySet.of(M_MAX + 1, [Poly.one()]))


# ------------------------------------------------------------------- entails

def test_entails_examples():
    s = PolySet.of(2, [p((1,))])
    t = PolySet.of(2, [p((1, 2))])
    assert entails(s, t)
    assert not entails(t, s)
    assert entails(s, s)


def test_entails_monotone_in_knowledge():
    # more statements only shrink the zero set, preserving old entailments
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randrange(1, 6)
        s = _random_polyset(rng, m, 2)
        t = _random_polyset(rng, m, 1)
        if entails(s, t):
            bigger = PolySet(m, s.polys | {Poly(rng.randrange(1 << m) for _ in range(3))})
            assert entails(bigger, t)


def test_entails_requires_matching_m():
    with pytest.raises(DomainError):
        entails(PolySet.of(2, [p((1,))]), PolySet.of(3, [p((1,))]))


# --------------------------------------------------------------- reconstruct

def test_reconstruct_two_point_set():
    a = AlgSet.from_points(2, [0b01, 0b10])
    ps = reconstruct(a)
    assert ps.polys == frozenset({p((1,), (2,), ())})  # x1 + x2 + 1


def test_reconstruct_edge_sets():
    assert reconstruct(AlgSet(2, 0)).polys == frozenset({Poly.one()})
    assert reconstruct(AlgSet(2, (1 << 4) - 1)).polys == frozenset({Poly.zero()})


def test_reconstruct_roundtrip_exhaustive_small():
    for m in range(0, 4):
        for bits in range(1 << (1 << m)):
            a = AlgSet(m, bits)
            assert zeros(reconstruct(a)) == a


def test_reconstruct_matches_indicator_oracle():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randrange(0, 5)
        pts = [pt for pt in range(1 << m) if rng.random() < 0.4]
        a = AlgSet.from_points(m, pts)
        got = reconstruct(a)
        assert got.polys == frozenset({_reconstruct_oracle(a)})


def test_reconstruct_roundtrip_medium():
    rng = random.Random(31)
    for _ in range(50):
        m = 12
        pts = rng.sample(range(1 << m), rng.randrange(0, 900))
        a = AlgSet.from_points(m, pts)
        assert zeros(reconstruct(a)) == a


def test_reconstruct_exhaustive_pairs_consistency():
    # entailment is exactly zero-set inclusion for reconstructed sets
    for abits, bbits in itertools.product(range(16), repeat=2):
        a, b = AlgSet(2, abits), AlgSet(2, bbits)
        expect = (abits | bbits) == bbits  # a subset of b
        assert entails(reconstruct(a), reconstruct(b)) == expect


# --------------------------------------------------- packed subset transform

def _byte_transform(values: np.ndarray, m: int) -> np.ndarray:
    """Oracle: the subset-XOR transform on one byte per point, in place."""
    for i in range(m):
        values = values.reshape(-1, 2, 1 << i)
        values[:, 1, :] ^= values[:, 0, :]
    return values.reshape(-1)


def _packed_transform(table: np.ndarray, m: int) -> np.ndarray:
    """The packed-word transform of a 0/1 byte table, read back per point."""
    padded = np.zeros(max(1 << m, 64), dtype=np.uint8)
    padded[:table.size] = table
    words = np.packbits(padded, bitorder="little").view("<u8")
    out = algset._xor_subset_transform(words, m)
    return np.unpackbits(out.view(np.uint8), count=1 << m, bitorder="little")


def test_packed_transform_matches_the_byte_transform():
    rng = np.random.default_rng(2101)
    for m in range(17):
        n = 1 << m
        tables = [np.zeros(n, np.uint8), np.ones(n, np.uint8)]
        tables += [np.eye(1, n, k, dtype=np.uint8)[0] for k in {0, n // 2, n - 1}]
        tables += [rng.integers(0, 2, n, dtype=np.uint8) for _ in range(3)]
        for table in tables:
            want = _byte_transform(table.copy(), m)
            assert np.array_equal(_packed_transform(table, m), want), m
            # the transform is an involution
            assert np.array_equal(_packed_transform(want, m), table), m


def test_packed_transform_leaves_the_word_past_a_short_table():
    # below m = 6 the table is the low 2^m bits of one word; set bits above
    # it must not reach the table
    for m in range(6):
        table = np.random.default_rng(m).integers(0, 2, 1 << m, dtype=np.uint8)
        word = np.packbits(np.concatenate([table, np.ones(64 - table.size, np.uint8)]),
                           bitorder="little").view("<u8")
        got = np.unpackbits(algset._xor_subset_transform(word, m).view(np.uint8),
                            count=1 << m, bitorder="little")
        assert np.array_equal(got, _byte_transform(table.copy(), m)), m


def test_zeros_of_reconstruct_is_the_identity_up_to_m_14():
    rng = np.random.default_rng(2102)
    for m in range(15):
        for density in (0.0, 0.05, 0.5, 1.0):
            a = AlgSet.from_bool_array(m, rng.random(1 << m) < density)
            (q,) = reconstruct(a).polys
            assert q.terms.dtype == np.int64 and not q.terms.flags.writeable
            assert zeros(reconstruct(a)) == a, (m, density)
