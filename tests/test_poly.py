from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicast.errors import VariableOutOfRange
from logicast.poly import Poly, PolySet, monomial_from_vars


def p(*termvars) -> Poly:
    """Poly from var-index tuples, e.g. p((1, 2), (), (1,))."""
    return Poly(monomial_from_vars(t) for t in termvars)


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


def test_eval_points():
    q = p((1, 2), (1,), ())  # x1x2 + x1 + 1
    assert q.eval(0b00) == 1
    assert q.eval(0b01) == 0  # x1=1, x2=0
    assert q.eval(0b10) == 1
    assert q.eval(0b11) == 1


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
    assert (a + b).eval(point) == a.eval(point) ^ b.eval(point)
    assert (a * b).eval(point) == a.eval(point) & b.eval(point)


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
