from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logicast
from logicast.errors import StatementSyntaxError, UniverseTooLarge, VariableOutOfRange
from logicast.poly import Poly, PolySet, monomial_from_vars
from logicast.statements import parse_statements, poly_to_text, render_statements


def p(*termvars) -> Poly:
    return Poly(monomial_from_vars(t) for t in termvars)


# ------------------------------------------------------------------- parsing

def test_conjunction_asserted_false():
    ps = parse_statements("x1 AND x2 AND x3 is FALSE\n")
    assert ps.m == 3
    assert ps.polys == frozenset({p((1, 2, 3))})


def test_negated_conjunction_asserted_false():
    ps = parse_statements("NOT x1 AND NOT x2 AND NOT x3 is FALSE\n")
    # (x1+1)(x2+1)(x3+1)
    expect = p((1,), ()) * p((2,), ()) * p((3,), ())
    assert ps.polys == frozenset({expect})


def test_default_polarity_is_true():
    ps = parse_statements("x1 OR x2\n")
    expect = p((1,), (2,), (1, 2), ())  # (x1+x2+x1x2) + 1
    assert ps.polys == frozenset({expect})
    assert parse_statements("x1 OR x2 is TRUE\n") == ps


def test_precedence_chain():
    # NOT > AND > XOR > OR > IMPLIES
    a = parse_statements("NOT x1 AND x2 is FALSE\n")
    b = parse_statements("( NOT x1 ) AND x2 is FALSE\n")
    assert a == b
    c = parse_statements("x1 XOR x2 AND x3 is FALSE\n")
    d = parse_statements("x1 XOR ( x2 AND x3 ) is FALSE\n")
    assert c == d
    e = parse_statements("x1 OR x2 XOR x3 is FALSE\n")
    f = parse_statements("x1 OR ( x2 XOR x3 ) is FALSE\n")
    assert e == f
    g = parse_statements("x1 IMPLIES x2 OR x3 is FALSE\n")
    h = parse_statements("x1 IMPLIES ( x2 OR x3 ) is FALSE\n")
    assert g == h


def test_implies_right_associative():
    a = parse_statements("x1 IMPLIES x2 IMPLIES x3 is FALSE\n")
    b = parse_statements("x1 IMPLIES ( x2 IMPLIES x3 ) is FALSE\n")
    assert a == b


def test_comments_and_blank_lines():
    text = """
# background knowledge
x1 AND x2 is FALSE   # trailing comment

x2 OR x3
"""
    ps = parse_statements(text)
    assert len(ps.polys) == 2
    assert ps.m == 3


def test_multiple_statements_collapse_duplicates():
    ps = parse_statements("x1 is TRUE\nx1 is TRUE\n")
    assert len(ps.polys) == 1


def test_raw_polynomial_lines():
    ps = parse_statements("x1*x2 + x1 + 1 = 0\n")
    assert ps.polys == frozenset({p((1, 2), (1,), ())})
    assert parse_statements("0 = 0\n").polys == frozenset({Poly.zero()})
    assert parse_statements("1 = 0\n").polys == frozenset({Poly.one()})


def test_raw_terms_collapse_mod_2():
    ps = parse_statements("x1 + x1 = 0\n")
    assert ps.polys == frozenset({Poly.zero()})


def test_explicit_variable_count():
    ps = parse_statements("x1 is TRUE\n", m=4)
    assert ps.m == 4
    assert parse_statements("x002 is TRUE\n", m=2) == parse_statements("x2 is TRUE\n", m=2)
    with pytest.raises(VariableOutOfRange):
        parse_statements("x3 is TRUE\n", m=2)


def test_zero_indexed_variable_rejected():
    with pytest.raises(VariableOutOfRange):
        parse_statements("x0 AND x1 is FALSE\n")


_HUGE_INDEX_CHILD = """
import resource, sys
from pathlib import Path
from logicast.cli import main
from logicast.statements import parse_statements
# cap the address space so that a 2^index-bit mask fails here, not the machine
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for m in (12, None):
    try:
        parse_statements("x1000000000000 = 0\\n", m)
        print("parsed")
    except Exception as e:
        print(type(e).__name__)
path = Path(sys.argv[1])
path.write_text("x10000000000 = 0\\n")
try:
    code = main(["encode", "--scenario", "t1", "--vars", "12", "--in", str(path), "--out", sys.argv[2]])
    print(code)
except MemoryError:
    print("MemoryError")
"""


def test_huge_variable_index_is_refused_before_any_mask(tmp_path):
    src = str(Path(logicast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_INDEX_CHILD, str(tmp_path / "s.logic"), str(tmp_path / "s.lgc")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.split() == ["VariableOutOfRange", "UniverseTooLarge", "1"], proc.stderr
    assert proc.stderr.startswith("error: VariableOutOfRange: line 1, col 1: ")


def test_syntax_error_position():
    with pytest.raises(StatementSyntaxError) as ei:
        parse_statements("x1 AND\nx1 OR OR x2\n")
    assert ei.value.line == 1  # first failure reported
    with pytest.raises(StatementSyntaxError) as ei2:
        parse_statements("x1 AND ( x2 OR x3\n")
    assert ei2.value.line == 1


# (exception, line, col) for one malformed line after a valid one
@pytest.mark.parametrize(
    "bad, error, col",
    [
        ("x1 & x2", StatementSyntaxError, 4),
        ("x1 NAND x2", StatementSyntaxError, 4),
        ("x0 AND x1", VariableOutOfRange, 1),
        ("x1 AND ( x2 OR x3", StatementSyntaxError, 18),
        ("x1 is MAYBE", StatementSyntaxError, 7),
        ("x1 + x2 = 1", StatementSyntaxError, 11),
        ("x1 AND x2 = 0", StatementSyntaxError, 4),
        ("x1 AND", StatementSyntaxError, 7),
        ("x1 + x25 = 0", UniverseTooLarge, 6),
        pytest.param("x" + "9" * 5000 + " = 0", UniverseTooLarge, 1, id="past-int-digit-cap"),
    ],
)
def test_error_positions(bad, error, col):
    with pytest.raises(error) as ei:
        parse_statements(f"x1 OR x2\n{bad}\n")
    assert type(ei.value) is error
    assert str(ei.value).startswith(f"line 2, col {col}: ")
    if error is StatementSyntaxError:
        assert (ei.value.line, ei.value.col) == (2, col)


@pytest.mark.parametrize(
    "deep",
    [
        "( " * 1000 + "x1" + " )" * 1000,
        "NOT " * 5000 + "x1",
        " IMPLIES ".join(["x1"] * 2000),
    ],
    ids=["parentheses", "not", "implies"],
)
def test_deep_nesting_is_a_syntax_error(deep):
    with pytest.raises(StatementSyntaxError) as ei:
        parse_statements(f"x1 OR x2\n\n{deep}\n")
    assert (ei.value.line, ei.value.col) == (3, 1)
    assert "nests too deeply" in str(ei.value)


def test_long_flat_chain_parses():
    # a flat chain nests nothing, however long it is
    text = " OR ".join(f"x{i % 4 + 1}" for i in range(3000))
    assert parse_statements(f"{text} is FALSE\n") == parse_statements(
        "x1 OR x2 OR x3 OR x4 is FALSE\n"
    )


def test_unknown_token_rejected():
    with pytest.raises(StatementSyntaxError):
        parse_statements("x1 NAND x2\n")
    with pytest.raises(StatementSyntaxError):
        parse_statements("x1 & x2\n")


def test_raw_mode_rejects_formula_tokens():
    with pytest.raises(StatementSyntaxError):
        parse_statements("x1 AND x2 = 0\n")
    with pytest.raises(StatementSyntaxError):
        parse_statements("x1 + x2 = 1\n")


# ------------------------------------------------------- formula semantics
# A formula is a tuple tree: ("var", i), ("not", f) or (op, f, g) for op in
# and/or/xor/implies. It is rendered to text and parsed; the truth polynomial
# ("f is FALSE" gives truth(f) itself) must match the oracle everywhere.

_ORACLE = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "implies": lambda a, b: (1 - a) | b,
}
_PREC = {"implies": 0, "or": 1, "xor": 2, "and": 3, "not": 4, "var": 5}


def _eval_formula(f, assign) -> int:
    """Oracle: truth value of a formula under assign: {index: bit}."""
    if f[0] == "var":
        return assign[f[1]]
    if f[0] == "not":
        return 1 - _eval_formula(f[1], assign)
    return _ORACLE[f[0]](_eval_formula(f[1], assign), _eval_formula(f[2], assign))


def _render(f, minimal: bool) -> str:
    """Formula text: every operand parenthesised, or only where precedence
    (NOT > AND > XOR > OR > IMPLIES, IMPLIES right-associative) needs it."""
    if f[0] == "var":
        return f"x{f[1]}"

    def operand(g, lowest):
        text = _render(g, minimal)
        return text if minimal and _PREC[g[0]] >= lowest else f"( {text} )"

    if f[0] == "not":
        return f"NOT {operand(f[1], _PREC['not'])}"
    prec = _PREC[f[0]]
    left, right = (prec + 1, prec) if f[0] == "implies" else (prec, prec + 1)
    return f"{operand(f[1], left)} {f[0].upper()} {operand(f[2], right)}"


def _truth_poly(f, minimal: bool) -> Poly:
    (q,) = parse_statements(f"{_render(f, minimal)} is FALSE\n").polys
    return q


def _assign_to_point(assign, m):
    return sum(assign[i] << (i - 1) for i in range(1, m + 1))


def _assert_faithful(f, m):
    for minimal in (False, True):
        q = _truth_poly(f, minimal)
        for bits in itertools.product((0, 1), repeat=m):
            assign = {i + 1: bits[i] for i in range(m)}
            assert q.eval(_assign_to_point(assign, m)) == _eval_formula(f, assign), (
                _render(f, minimal)
            )


def test_connective_truth_tables_exhaustive():
    a, b = ("var", 1), ("var", 2)
    for f in [("not", a), *((op, a, b) for op in _ORACLE)]:
        _assert_faithful(f, 2)


def test_known_polynomial_forms():
    def truth(text):
        (q,) = parse_statements(f"{text} is FALSE\n").polys
        return q

    assert truth("NOT x1") == p((1,), ())
    assert truth("x1 AND x2") == p((1, 2))
    assert truth("x1 OR x2") == p((1,), (2,), (1, 2))
    assert truth("x1 XOR x2") == p((1,), (2,))
    assert truth("x1 IMPLIES x2") == p((1, 2), (1,), ())


def test_statement_polarity():
    (truth,) = parse_statements("x1 OR x2 is FALSE\n").polys
    # asserted TRUE: the member vanishes exactly on satisfying assignments
    for text in ("x1 OR x2 is TRUE\n", "x1 OR x2\n"):
        assert parse_statements(text).polys == frozenset({truth + Poly.one()})
    assert truth == p((1,), (2,), (1, 2))


def _formulas(max_var=3):
    leaves = st.tuples(st.just("var"), st.integers(min_value=1, max_value=max_var))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.just("not"), sub),
            st.tuples(st.sampled_from(sorted(_ORACLE)), sub, sub),
        ),
        max_leaves=10,
    )


@settings(max_examples=200)
@given(_formulas())
def test_formula_poly_faithful_on_all_assignments(f):
    _assert_faithful(f, 3)
    assert _truth_poly(f, False) == _truth_poly(f, True)


# ----------------------------------------------------------------- rendering

def test_poly_to_text_ordering():
    assert poly_to_text(p((1, 2), (1,), ())) == "x1*x2 + x1 + 1"
    assert poly_to_text(p((2,), (1,))) == "x1 + x2"
    assert poly_to_text(Poly.zero()) == "0"
    assert poly_to_text(Poly.one()) == "1"
    # degree-major: quadratic terms precede linear ones
    assert poly_to_text(p((2, 3), (1, 2), (3,))) == "x1*x2 + x2*x3 + x3"


def test_render_statements_shape():
    ps = PolySet(2, frozenset({p((1,), ()), p((1, 2))}))
    text = render_statements(ps)
    lines = [ln for ln in text.splitlines() if ln]
    assert sorted(lines) == sorted(["x1 + 1 = 0", "x1*x2 = 0"])


@settings(max_examples=200)
@given(
    st.sets(
        st.frozensets(st.integers(min_value=0, max_value=2**5 - 1), max_size=8),
        max_size=5,
    )
)
def test_parse_render_roundtrip(mask_sets):
    polys = frozenset(Poly(ms) for ms in mask_sets)
    m = max((q.max_var() for q in polys), default=0)
    ps = PolySet(m, polys)
    assert parse_statements(render_statements(ps), m=m) == ps
