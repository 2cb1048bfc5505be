from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicast.algset import reconstruct, zeros
from logicast.errors import UniverseTooLarge, VariableOutOfRange
from logicast.groebner import groebner_basis, normal_form
from logicast.poly import Poly, PolySet, monomial_from_vars
from logicast.statements import parse_statements, poly_to_text, render_statements


def p(*termvars) -> Poly:
    """Poly from var-index tuples, e.g. p((1, 2), (), (1,))."""
    return Poly(monomial_from_vars(t) for t in termvars)


def _value(q: Poly, point: int) -> int:
    """q at `point`, whose bit i-1 is x_i: the parity of the terms the point covers."""
    return sum(t & point == t for t in q.terms.tolist()) & 1


# ----------------------------------------------------------------- monomials

def test_monomial_helpers():
    assert monomial_from_vars(()) == 0
    assert monomial_from_vars((1, 3)) == 0b101
    with pytest.raises(VariableOutOfRange):
        monomial_from_vars((0,))


# ---------------------------------------------------------------- arithmetic

def test_add_is_xor_of_terms():
    assert p((1,)) + p((1,)) == Poly.zero()
    assert p((1,), ()) + p((2,)) == p((1,), (2,), ())
    assert Poly.zero() + p((1, 2)) == p((1, 2))


def test_mul_known_products():
    # (x1 + 1)(x2 + 1) = x1x2 + x1 + x2 + 1
    assert p((1,), ()) * p((2,), ()) == p((1, 2), (1,), (2,), ())
    # idempotent variables: x1 * x1 = x1
    assert p((1,)) * p((1,)) == p((1,))
    assert p((1, 2)) * p((2, 3)) == p((1, 2, 3))
    assert Poly.one() * p((1,), (2,)) == p((1,), (2,))
    assert Poly.zero() * p((1,)) == Poly.zero()


def test_mul_collapses_mod_2():
    # (x1 + x2) * x1x2 = x1x2 + x1x2 = 0
    assert p((1,), (2,)) * p((1, 2)) == Poly.zero()


@settings(max_examples=150)
@given(st.data())
def test_ring_axioms(data):
    masks = st.sets(st.integers(min_value=0, max_value=2**6 - 1), max_size=12)
    a = Poly(data.draw(masks))
    b = Poly(data.draw(masks))
    c = Poly(data.draw(masks))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == Poly.zero()
    assert a * a == a  # multilinear quotient ring is idempotent


@settings(max_examples=150)
@given(st.data())
def test_eval_is_ring_morphism(data):
    masks = st.sets(st.integers(min_value=0, max_value=2**6 - 1), max_size=10)
    a = Poly(data.draw(masks))
    b = Poly(data.draw(masks))
    point = data.draw(st.integers(min_value=0, max_value=2**6 - 1))
    assert _value(a + b, point) == _value(a, point) ^ _value(b, point)
    assert _value(a * b, point) == _value(a, point) & _value(b, point)


# ------------------------------------------------------------------- PolySet

def test_polyset_validation_and_normalize():
    ps = PolySet(2, frozenset({p((1,), (2,)), Poly.zero()}))
    assert ps.m == 2
    with pytest.raises(VariableOutOfRange):
        PolySet(1, frozenset({p((2,))}))


def test_polyset_union():
    s = PolySet(2, frozenset({p((1,))}))
    t = PolySet(2, frozenset({p((2,))}))
    assert s.union(t).polys == frozenset({p((1,)), p((2,))})


def test_poly_max_var():
    assert p((1, 3), (2,)).max_var() == 3
    assert Poly.zero().max_var() == 0
    assert Poly.one().max_var() == 0


# ------------------------------------------------------------- term arrays

def _assert_canonical(q: Poly) -> None:
    """terms is sorted, duplicate-free, read-only and int64."""
    values = q.terms.tolist()
    assert values == sorted(set(values))
    assert not q.terms.flags.writeable
    assert q.terms.dtype == np.int64


def _formula(masks: list[int]) -> str:
    """A formula line whose member polynomial has exactly these terms."""
    def term(t: int) -> str:
        vs = [f"x{i + 1}" for i in range(t.bit_length()) if t >> i & 1]
        return "(" + " AND ".join(vs) + ")" if vs else "(x1 OR NOT x1)"
    return (" XOR ".join(term(t) for t in masks) or "x1 AND NOT x1") + " is FALSE"


def _built_every_way(masks: list[int], m: int) -> list[Poly]:
    """The polynomial with these distinct terms, from every constructor."""
    q = Poly(masks)
    r = Poly([1, 6, 7][: len(masks) % 4])
    built = [
        q,
        Poly(masks + masks[:2] * 2),  # repeats cancel in pairs
        Poly(reversed(masks)),
        Poly.of_distinct(set(masks)),
        Poly.of_distinct(masks[::-1]),
        q + Poly.zero(),
        Poly.zero() + q,
        (q + r) + r,
        q * Poly.one(),
        Poly.one() * q,
        normal_form(q, groebner_basis(PolySet(m, frozenset()))),
    ]
    (rec,) = reconstruct(zeros(PolySet(m, frozenset({q})))).polys
    built.append(rec)
    for line in (f"{poly_to_text(q)} = 0", _formula(masks)):
        (parsed,) = parse_statements(line + "\n", m).polys
        built.append(parsed)
    return built


def test_repeated_terms_cancel_in_pairs_and_negative_masks_raise():
    assert Poly([3, 3]) == Poly.zero()
    assert Poly([3, 3, 3, 5, 5, 0]) == Poly([0, 3])
    top = 1 << 23  # x24, the last variable
    assert Poly([top, 2, top, top]) == Poly([2, top])
    with pytest.raises(VariableOutOfRange):
        Poly([1, -1])
    with pytest.raises(VariableOutOfRange):
        Poly([top, -top])


def test_every_constructor_builds_one_canonical_polynomial():
    rng = random.Random(2103)
    for trial in range(60):
        m = trial % 8 + 1
        masks = rng.sample(range(1 << m), rng.randint(0, min(12, 1 << m)))
        built = _built_every_way(masks, m)
        for q in built:
            _assert_canonical(q)
            assert q == built[0] and hash(q) == hash(built[0]), (masks, q)
        assert len(set(built)) == 1


def test_terms_are_read_only():
    q = Poly([5, 1])
    with pytest.raises(ValueError):
        q.terms[0] = 2
    assert q.terms.tolist() == [1, 5]


def test_masks_and_indices_past_x24_raise():
    top = 1 << 23
    for build in (lambda: Poly([1 << 24]), lambda: Poly([5, top | 1 << 24]),
                  lambda: Poly([1 << 70]), lambda: Poly.variable(25),
                  lambda: monomial_from_vars([25]), lambda: monomial_from_vars([1, 25])):
        with pytest.raises(UniverseTooLarge):
            build()
    assert Poly.variable(24) == Poly([top]) and monomial_from_vars([24]) == top
    full = Poly([(1 << 24) - 1])
    _assert_canonical(full)
    assert full.max_var() == 24
    assert parse_statements(render_statements(PolySet(24, frozenset({full}))), 24).polys == {full}
