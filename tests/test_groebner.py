from __future__ import annotations

import os
import random
import subprocess
import sys
from heapq import heappop, heappush
from itertools import count
from pathlib import Path

import numpy as np
import pytest

import logicast
from logicast.algset import AlgSet, entails, reconstruct, zeros
from logicast.errors import DomainError, PreconditionViolated, UniverseTooLarge
from logicast.groebner import (
    GB_M_MAX,
    GroebnerBasis,
    _mono_mul,
    _pack,
    _Reducer,
    _tables,
    entails_groebner,
    groebner_basis,
    delta,
    leading_term,
    monomial_key,
    normal_form,
)
from logicast.partition import first_solvable_prefix, pack_columns
from logicast.poly import Poly, PolySet, monomial_from_vars
from logicast.simlab import Nested, sample


def p(*termvars) -> Poly:
    return Poly(monomial_from_vars(t) for t in termvars)


def _random_polyset(rng: random.Random, m: int, npolys: int, nterms=5) -> PolySet:
    polys = []
    for _ in range(npolys):
        k = rng.randrange(0, nterms)
        polys.append(Poly(rng.randrange(1 << m) for _ in range(k)))
    return PolySet(m, frozenset(polys))


def _vanishes_on(q: Poly, points, m: int) -> bool:
    return all(q.eval(pt) == 0 for pt in points)


def _random_order_reduce(q: Poly, gb: GroebnerBasis, rng: random.Random) -> Poly:
    """Oracle: full reduction choosing reducible monomial and divisor at random."""
    lts = [(leading_term(g, gb.m), g) for g in gb.polys]
    masks = set(q.masks)
    while True:
        options = [
            (mono, g, lt)
            for mono in masks
            for lt, g in lts
            if lt & mono == lt
        ]
        if not options:
            return Poly(masks)
        mono, g, lt = rng.choice(options)
        update = Poly([mono & ~lt]) * g
        masks ^= update.masks


# ------------------------------------------------------------ monomial order

def test_monomial_order_small():
    m = 2
    one, x1, x2, x12 = 0b00, 0b01, 0b10, 0b11
    keys = [monomial_key(t, m) for t in (one, x1, x2, x12)]
    assert keys == sorted(keys)
    assert len(set(keys)) == 4


def test_monomial_order_degree_major_then_low_vars_first():
    m = 3
    x1, x2, x3 = 0b001, 0b010, 0b100
    assert monomial_key(x1, m) < monomial_key(x2, m) < monomial_key(x3, m)
    # any degree-2 monomial sorts above every variable
    assert monomial_key(x1 | x2, m) > monomial_key(x3, m)
    assert (
        monomial_key(x1 | x2, m)
        < monomial_key(x1 | x3, m)
        < monomial_key(x2 | x3, m)
    )


def test_monomial_key_low_bits_are_the_reducers_positions():
    # a polynomial's bit pos[t] is the low m bits of monomial_key(t, m), so
    # the pair heap and the reducer's packed classes see one order
    for m in range(1, 11):
        pos = _tables(m)[0]
        for t in range(1 << m):
            assert monomial_key(t, m) == (t.bit_count() << m) | int(pos[t])


def test_leading_term():
    assert leading_term(p((1, 2), (3,), ()), 3) == 0b011
    assert leading_term(p((3,), (1,)), 3) == 0b100
    with pytest.raises(DomainError):
        leading_term(Poly.zero(), 3)


# ------------------------------------------------------------------ reduction

def test_normal_form_single_generator():
    gb = groebner_basis(PolySet.of(2, [p((1,))]))
    assert normal_form(p((1, 2), (2,)), gb) == p((2,))
    assert normal_form(p((1,)), gb) == Poly.zero()
    assert normal_form(Poly.one(), gb) == Poly.one()


def test_basis_completion_example():
    # x1 + 1 and x1*x2 force x2 into the ideal
    gb = groebner_basis(PolySet.of(2, [p((1,), ()), p((1, 2))]))
    assert set(gb.polys) == {p((1,), ()), p((2,))}
    assert normal_form(p((2,)), gb) == Poly.zero()


def test_inconsistent_ideal_collapses_to_one():
    gb = groebner_basis(PolySet.of(2, [Poly.one(), p((1, 2))]))
    assert gb.polys == (Poly.one(),)
    assert normal_form(p((2,), (1,)), gb) == Poly.zero()


def test_empty_ideal():
    gb = groebner_basis(PolySet.of(3, []))
    assert gb.polys == ()
    q = p((1, 3), (2,))
    assert normal_form(q, gb) == q


def test_reduced_basis_invariants():
    rng = random.Random(17)
    for _ in range(80):
        m = rng.randrange(1, 6)
        gb = groebner_basis(_random_polyset(rng, m, rng.randrange(1, 4)))
        lts = [leading_term(g, m) for g in gb.polys]
        assert len(set(lts)) == len(lts)
        for i, a in enumerate(lts):
            for j, b in enumerate(lts):
                if i != j:
                    assert not (a & b == a)  # no leading term divides another
        # fully reduced: no monomial of any element is divisible by another's LT
        for i, g in enumerate(gb.polys):
            for mono in g.masks:
                for j, lt in enumerate(lts):
                    if i != j:
                        assert lt & mono != lt


def _t3_background(m: int, seed: int) -> PolySet:
    return sample(Nested(0.15, 0.5), m, seed)[1][1]


def _sparse_statements(m: int, seed: int) -> PolySet:
    """Five statements of five monomials, each of degree at most 3."""
    rng = random.Random(seed)
    return PolySet(m, frozenset(
        Poly(monomial_from_vars(rng.sample(range(1, m + 1), rng.randint(0, 3))) for _ in range(5))
        for _ in range(5)
    ))


def test_spolynomials_reduce_to_zero():
    rng = random.Random(29)
    systems = [_random_polyset(rng, m, rng.randrange(1, 4))
               for m in (rng.randrange(1, 5) for _ in range(40))]
    systems += [_t3_background(m, seed) for m in (6, 7, 8) for seed in (1, 2)]
    for v in systems:
        m = v.m
        gb = groebner_basis(v)
        # the basis generates the input's ideal: a basis of a smaller ideal
        # can still pass the pair checks below
        for f in v.polys:
            assert normal_form(f, gb) == Poly.zero()
        lts = [(leading_term(g, m), g) for g in gb.polys]
        for i in range(len(lts)):
            for j in range(i):
                lti, gi = lts[i]
                ltj, gj = lts[j]
                lcm = lti | ltj
                s = Poly([lcm & ~lti]) * gi + Poly([lcm & ~ltj]) * gj
                assert normal_form(s, gb) == Poly.zero()
        # pairs against the implicit field relations: x * g stays in the ideal
        for lt, g in lts:
            for v in range(1, m + 1):
                assert normal_form(Poly.variable(v) * g, gb) == Poly.zero()


def test_membership_matches_vanishing_oracle():
    rng = random.Random(41)
    for _ in range(120):
        m = rng.randrange(1, 6)
        v = _random_polyset(rng, m, rng.randrange(1, 3))
        gb = groebner_basis(v)
        zpts = zeros(v).points_list()
        for _ in range(4):
            q = Poly(rng.randrange(1 << m) for _ in range(rng.randrange(0, 5)))
            in_ideal = normal_form(q, gb) == Poly.zero()
            assert in_ideal == _vanishes_on(q, zpts, m)


def test_normal_form_idempotent_and_order_independent():
    rng = random.Random(57)
    for _ in range(60):
        m = rng.randrange(1, 5)
        gb = groebner_basis(_random_polyset(rng, m, rng.randrange(1, 3)))
        q = Poly(rng.randrange(1 << m) for _ in range(rng.randrange(0, 6)))
        nf = normal_form(q, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(q + nf, gb) == Poly.zero()
        assert _random_order_reduce(q, gb, rng) == nf


# ----------------------------------------------------------------- entailment

def test_entails_groebner_agrees_with_zero_sets():
    rng = random.Random(73)
    for _ in range(150):
        m = rng.randrange(1, 6)
        s = _random_polyset(rng, m, rng.randrange(1, 3))
        t = _random_polyset(rng, m, rng.randrange(1, 3))
        assert entails_groebner(s, t) == entails(s, t)


def test_entails_groebner_m_mismatch():
    with pytest.raises(DomainError):
        entails_groebner(PolySet.of(2, [p((1,))]), PolySet.of(3, [p((1,))]))


def test_universe_cap():
    big = PolySet.of(GB_M_MAX + 1, [p((GB_M_MAX + 1,))])
    for call in (groebner_basis, lambda ps: delta(ps, ps),
                 lambda ps: entails_groebner(ps, ps)):
        with pytest.raises(UniverseTooLarge):
            call(big)


_RSS_AT_CAP = """
import resource
from logicast.groebner import GB_M_MAX, groebner_basis
from logicast.poly import Poly, PolySet
gb = groebner_basis(PolySet(GB_M_MAX, frozenset([Poly([1 << (GB_M_MAX - 1)])])))
assert len(gb) == 1
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_memory_at_universe_cap():
    # the basis of x16 = 0 in a fresh process: packed polynomials and the
    # per-m tables are Θ(m·2^m) bits, so the peak is mostly the interpreter
    src = str(Path(logicast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_AT_CAP], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 120 * 1024  # ru_maxrss is in KiB on Linux


# -------------------------------------------------------------- deltas

def test_delta_simple():
    u = PolySet.of(2, [p((1,)), p((2,))])
    v = PolySet.of(2, [p((1,))])
    d = delta(u, v)
    assert d.polys == frozenset({p((2,))})
    assert zeros(d.union(v)) == zeros(u)


def test_delta_empty_when_nothing_new():
    u = PolySet.of(2, [p((1,)), p((1, 2))])
    v = PolySet.of(2, [p((1,))])
    d = delta(u, v)
    assert d.polys == frozenset()


def test_delta_requires_entailment():
    with pytest.raises(PreconditionViolated):
        delta(PolySet.of(2, [p((1,))]), PolySet.of(2, [p((2,))]))


def test_delta_contract_random():
    rng = random.Random(91)
    done = 0
    while done < 60:
        m = rng.randrange(1, 6)
        v = _random_polyset(rng, m, rng.randrange(1, 3))
        extra = _random_polyset(rng, m, rng.randrange(1, 3))
        u = v.union(extra)  # guarantees u entails v
        d = delta(u, v)
        assert zeros(d.union(v)) == zeros(u)
        for q in d.polys:
            assert not q.is_zero
            assert not entails(v, PolySet.of(m, [q]))
        done += 1


def _point_normal_form(q: Poly, r: PolySet) -> Poly:
    """Oracle without Buchberger: r's ideal vanishes exactly on Z(r), so the
    normal form of q is the combination of standard monomials (values on Z(r)
    independent of every smaller monomial's) that equals q on Z(r)."""
    points = np.flatnonzero(zeros(r).to_bool_array())
    monos = sorted(range(1 << r.m), key=lambda t: monomial_key(t, r.m))
    target = ~zeros(PolySet.of(r.m, [q])).to_bool_array()[points]
    # one row per point: each monomial's value there, then q's
    at = np.array(monos)
    values = np.column_stack([points[:, None] & at == at, target])
    j, combo = first_solvable_prefix(pack_columns(values.astype(np.uint8)), len(monos))
    return Poly(t for k, t in enumerate(monos[:j]) if combo >> k & 1)


def test_delta_matches_point_normal_forms():
    # t3's backgrounds, and criterion 07's draw: Z(s) a random part of a
    # random Z(r); s is reconstructed from Z(s), as t2 decoding returns it
    pairs = [sample(Nested(0.15, 0.5), m, seed)[1] for m in range(3, 10) for seed in (1, 2, 3)]
    rng = random.Random(709)
    for _ in range(60):
        m = rng.randrange(2, 8)
        pts_r = rng.sample(range(1 << m), rng.randint(1, 1 << m))
        pts_s = [pt for pt in pts_r if rng.random() < 0.6] or pts_r[:1]
        pairs.append(tuple(reconstruct(AlgSet.from_points(m, pts)) for pts in (pts_s, pts_r)))
    for s, r in pairs:
        want = {_point_normal_form(q, r) for q in s.polys} - {Poly.zero()}
        assert delta(s, r).polys == want


def _point_basis(r: PolySet) -> tuple[Poly, ...]:
    """Oracle without Buchberger: the reduced basis is t + NF(t) over the
    minimal non-standard monomials t (NF(t) != t), ascending; a proper
    divisor has a smaller degree, so it is met before its multiples."""
    lead: list[int] = []
    basis = []
    for t in sorted(range(1 << r.m), key=lambda t: monomial_key(t, r.m)):
        if any(u & t == u for u in lead):
            continue
        nf = _point_normal_form(Poly([t]), r)
        if nf != Poly([t]):
            lead.append(t)
            basis.append(Poly([t]) + nf)
    return tuple(basis)


def test_reduced_basis_matches_point_oracle():
    systems = [_t3_background(m, seed) for m in range(3, 9) for seed in (1, 2, 3)]
    rng = random.Random(811)
    systems += [_random_polyset(rng, rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(120)]
    for r in systems:
        assert groebner_basis(r).polys == _point_basis(r)


def _reference_basis(r: PolySet) -> tuple[Poly, ...]:
    """Oracle: the earlier completion loop, which pairs each new element with
    every earlier one, queues every field pair, and prunes only by the chain
    criterion when a pair is popped.  It shares the module's reducer and
    repeats its final minimal and reduced pass."""
    m = r.m
    red = _Reducer(m)
    elems, has, pos = red.elems, red.has, red.pos.data
    lts: list[int] = []
    heap: list[tuple[int, int, int, int, int]] = []
    tick = count()

    def add(acc: int) -> None:
        acc, p = red.top(acc)
        if not acc:
            return
        lt = pos[p]
        acc = (1 << p) | red.full(acc ^ (1 << p))
        idx = len(elems)
        fresh: dict[int, int] = {}
        for j, olt in enumerate(lts):
            fresh.setdefault(lt | olt, j)
        for lcm, j in fresh.items():
            heappush(heap, (monomial_key(lcm, m), next(tick), 0, j, idx))
        for b in range(m):
            if (lt >> b) & 1:
                heappush(heap, (monomial_key(lt, m) + (1 << m), next(tick), 1, idx, b))
        red.append(lt, acc)
        lts.append(lt)

    def chained(lti: int, ltj: int, lcm: int) -> bool:
        return any(
            ltk & lcm == ltk and ltk not in (lti, ltj) and lcm not in (lti | ltk, ltj | ltk)
            for ltk in lts
        )

    for gen in sorted(_pack(q, m) for q in r.polys if not q.is_zero):
        add(gen)
    while heap:
        _, _, kind, a, b = heappop(heap)
        if kind == 0:
            lta, pa = elems[a]
            ltb, pb = elems[b]
            lcm = lta | ltb
            if not chained(lta, ltb, lcm):
                add(_mono_mul(pa, lcm ^ lta, has, m) ^ _mono_mul(pb, lcm ^ ltb, has, m))
        else:
            add(_mono_mul(elems[a][1], 1 << b, has, m))
    out = _Reducer(m)
    for lt, body in sorted(elems, key=lambda e: monomial_key(e[0], m)):
        if out.div[pos[lt]] < 0:
            out.append(lt, body)
    out.elems[:] = [
        (lt, (1 << pos[lt]) | out.full(body ^ (1 << pos[lt]))) for lt, body in out.elems
    ]
    return GroebnerBasis(m, out).polys


def _assert_bases_match_reference(systems) -> None:
    for r in systems:
        assert groebner_basis(r).polys == _reference_basis(r), r


def test_reduced_basis_matches_reference_on_t3_backgrounds():
    # strong backgrounds, where the pair criteria drop the most pairs
    _assert_bases_match_reference(
        _t3_background(m, seed) for m in range(3, 12) for seed in (1, 2, 3)
    )


def test_reduced_basis_matches_reference_on_random_systems():
    rng = random.Random(1709)
    _assert_bases_match_reference(
        _random_polyset(rng, rng.randrange(1, 7), rng.randrange(1, 5), rng.randrange(2, 9))
        for _ in range(400)
    )


def test_reduced_basis_matches_reference_on_sparse_statements():
    # `prove --engine groebner`'s slow case: few short statements, many variables
    _assert_bases_match_reference(
        _sparse_statements(m, seed) for m in (12, 13) for seed in range(1, 6)
    )
