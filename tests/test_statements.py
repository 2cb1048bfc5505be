from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logicast
from logicast import statements
from logicast.errors import (
    LogicastError,
    StatementSyntaxError,
    UniverseTooLarge,
    VariableOutOfRange,
)
from logicast.poly import Poly, PolySet, monomial_from_vars
from logicast.simlab import Single, sample
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
    # without m, the file's m is the largest index left after cancelling
    assert ps.m == 0
    assert parse_statements("x5 + x2 + x5 = 0\nx3 = 0\n").m == 3
    assert parse_statements("x5*x1 + x2 = 0\nx3 + x5*x1 = 0\n").m == 5


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


def _value(q: Poly, point: int) -> int:
    """q at `point`, whose bit i-1 is x_i: the parity of the terms the point covers."""
    return sum(t & point == t for t in q.terms.tolist()) & 1


def _assign_to_point(assign, m):
    return sum(assign[i] << (i - 1) for i in range(1, m + 1))


def _assert_faithful(f, m):
    for minimal in (False, True):
        q = _truth_poly(f, minimal)
        for bits in itertools.product((0, 1), repeat=m):
            assign = {i + 1: bits[i] for i in range(m)}
            assert _value(q, _assign_to_point(assign, m)) == _eval_formula(f, assign), (
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


# ------------------------------------------------- bulk raw-line path vs tokens
# parse_statements reads canonical raw lines in bulk; the reference below
# sends every line through the tokenizer and recursive descent instead.

def _token_parse(text: str, m: int | None) -> PolySet:
    polys, seen_m = set(), 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        q = statements._parse_line(raw, line_no, m)
        if q is not None:
            polys.add(q)
            seen_m = max(seen_m, q.max_var())
    return PolySet(seen_m if m is None else m, frozenset(polys))


def _outcome(parse, text, m):
    try:
        return parse(text, m)
    except LogicastError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _random_polyset(rng: random.Random, m: int) -> PolySet:
    polys = set()
    for _ in range(rng.randint(0, 4)):
        terms = rng.choice([0, 1, 2, rng.randint(0, 30)])
        # and-ing two draws favours the low degrees real statements have
        polys.add(Poly(rng.getrandbits(m) & rng.getrandbits(m) for _ in range(terms)))
    return PolySet(m, frozenset(polys))


_VAR = re.compile(r"x(\d+)")
_STRAY = "!&()=+*01x# \t\u00a0AZ"


def _sub_one(rng, pattern, line, repl):
    """line with one random match of pattern replaced by repl(match)."""
    found = list(re.finditer(pattern, line))
    if not found:
        return line
    mo = rng.choice(found)
    return line[: mo.start()] + repl(mo) + line[mo.end():]


def _insert(rng, line, piece):
    at = rng.randint(0, len(line))
    return line[:at] + piece + line[at:]


def _mutate(rng: random.Random, line: str, m: int) -> str:
    kind = rng.randrange(13)
    if kind == 0:  # blanks between tokens
        return _sub_one(rng, r" ?[*+=] ?", line,
                        lambda mo: rng.choice(["  ", "\t", " \t "]) + mo.group().strip()
                        + rng.choice(["", " ", "\t\t"]))
    if kind == 1:  # blanks, tabs or \r anywhere, names included
        return _insert(rng, line, rng.choice([" ", "\t", "\r", " \r\n "]))
    if kind == 2:
        return _sub_one(rng, _VAR, line, lambda mo: "x0" + mo.group(1))
    if kind == 3:  # 0 and 1 factors
        return _sub_one(rng, r"x\d+|\b1\b", line,
                        lambda mo: rng.choice(["0*", "1*", ""]) + mo.group()
                        + rng.choice(["*0", "*1", ""]))
    if kind == 4:  # repeated variable
        return _sub_one(rng, _VAR, line, lambda mo: f"{mo.group()}*{mo.group()}")
    if kind == 5:  # repeated or reordered terms
        lhs, eq, rhs = line.partition("=")
        terms = lhs.split("+")
        terms.append(rng.choice(terms))
        rng.shuffle(terms)
        return "+".join(terms) + eq + rhs
    if kind == 6:  # variables of a term in another order
        return _sub_one(rng, r"x\d+\*x\d+", line,
                        lambda mo: "*".join(reversed(mo.group().split("*"))))
    if kind == 7:
        return line + rng.choice([" # comment", "#", "\t# x1 + 1 = 0"])
    if kind == 8:  # a variable past m, or past M_MAX
        big = rng.choice([m + 1, m + 3, 25, 10**12])
        return _sub_one(rng, _VAR, line, lambda mo: f"x{big}")
    if kind == 9:  # the right-hand side dropped or wrong
        return line.replace(" = 0", rng.choice(["", " =", " = 1", " = 00", " = 0 0"]))
    if kind == 10:
        return _insert(rng, line, rng.choice(_STRAY))
    if kind == 11:  # a formula keyword among the terms
        return _sub_one(rng, r" \+ ", line, lambda mo: rng.choice([" AND ", " XOR ", " is "]))
    return line


def _random_text(rng: random.Random, m: int) -> str:
    lines = render_statements(_random_polyset(rng, m)).splitlines()
    if rng.random() < 0.2:
        lines.append("0 = 0")
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# note", "x1 OR x2"]))
    # about half the lines get one mutation, a few of them a second one
    lines = [_mutate(rng, ln, m) if rng.random() < 0.5 else ln for ln in lines]
    for _ in range(rng.choice([0, 0, 1, 2]) if lines else 0):
        i = rng.randrange(len(lines))
        lines[i] = _mutate(rng, lines[i], m)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def test_bulk_path_matches_token_path():
    rng = random.Random(20261018)
    bulk_lines = 0
    for trial in range(1500):
        m = trial % 24 + 1
        text = _random_text(rng, m)
        bulk_lines += sum(q is not None for q in statements._bulk_polys(text.splitlines(), m))
        for m_arg in (m, None):
            assert _outcome(parse_statements, text, m_arg) == _outcome(_token_parse, text, m_arg), (
                text, m_arg
            )
    # both paths get real work: canonical lines, and lines only tokens read
    assert bulk_lines > 1000


def test_canonical_lines_skip_the_tokenizer(monkeypatch):
    rng = random.Random(5)
    # every canonical line but the zero polynomial's "0 = 0", which has a 0 factor
    sets = [_random_polyset(rng, m) for m in (1, 12, 24) for _ in range(5)]
    texts = [render_statements(PolySet(ps.m, ps.polys - {Poly.zero()})) for ps in sets]
    texts.append("x1*x2 + x3 + 1 = 0\n\tx2 *x1+  1\t=0  \n x12 = 0\n")
    expected = [_token_parse(text, 24) for text in texts]

    def no_tokens(*args):
        raise AssertionError("tokenizer called on a canonical line")

    monkeypatch.setattr(statements, "_tokenize_line", no_tokens)
    assert [parse_statements(text, 24) for text in texts] == expected


def _respell(rng: random.Random, line: str, m: int) -> str:
    """A canonical raw line with edits that keep its meaning, at least one of
    which (an x0<i> spelling, an added x<j>*0 term, a trailing comment) the
    bulk pass refuses; the others are *1 factors, a repeated factor and
    blank runs."""
    terms = [term.split("*") for term in line.removesuffix(" = 0").split(" + ")]
    factors = [f for term in terms for f in term if f != "1"]
    refused = set(rng.sample(["x0", "zero", "note"], rng.randint(1, 3)))
    if not factors and refused == {"x0"}:
        refused.add("note")
    if "x0" in refused and factors:
        named = set(rng.sample(factors, rng.randint(1, len(factors))))
        terms = [[f"x0{f[1:]}" if f in named else f for f in term] for term in terms]
    for term in terms:
        if rng.random() < 0.3:
            term.insert(rng.randint(0, len(term)), "1")
        if rng.random() < 0.3:
            term.append(rng.choice(term))
    texts = [rng.choice(["*", " * ", "\t*  "]).join(term) for term in terms]
    if "zero" in refused:
        texts.insert(rng.randint(0, len(texts)), f"x{rng.randint(1, m)}*0")
    text = rng.choice([" + ", "  +\t", "+"]).join(texts) + rng.choice([" = 0", "=0", "  =\t0"])
    return text + (rng.choice([" # note", "\t# x1 + 1 = 0", "#"]) if "note" in refused else "")


def test_respelled_raw_lines_parse_as_their_canonical_line():
    # the token path's raw lines against the bulk pass, which reads each
    # canonical line and refuses each respelled one
    rng = random.Random(3131)
    checked = 0
    for m in (1, 2, 3, 5, 8, 12, 17, 24):
        for _ in range(50):
            for line in render_statements(_random_polyset(rng, m)).splitlines():
                if line == "0 = 0":  # the one rendered line the bulk pass refuses
                    continue
                (want,) = statements._bulk_polys([line], m)
                assert want is not None, line
                edited = _respell(rng, line, m)
                assert statements._bulk_polys([edited], m) == [None], edited
                assert statements._parse_line(edited, 1, m) == want, (line, edited)
                assert parse_statements(edited, m) == parse_statements(line, m), (line, edited)
                checked += 1
    assert checked > 300
    # the raw form's + and * are the formula form's XOR and AND
    for a, b, c in [(1, 2, 3), (2, 1, 3), (5, 5, 2), (24, 3, 1), (7, 4, 7)]:
        raw = f"x{a}*x{b} + x{c} = 0"
        want = statements._parse_line(f"(x{a} AND x{b}) XOR x{c} is FALSE", 1, None)
        assert statements._parse_line(raw, 1, None) == want
        assert statements._bulk_polys([raw], 24) == [want]


# Lines built from a unit repeated to a given size: near misses of the bulk
# path (refused by it after a walk over the whole line) and two lines it
# accepts.  The bulk attempt alone must stay linear on 1 MB.  A refused line
# then goes through the tokenizer, which takes 0.5-1 s per megabyte on a
# 2-core VM, so the whole parse is bounded on 256 kB lines: a quadratic step
# on either path would take minutes there.
@pytest.mark.parametrize(
    "unit, tail, error",
    [
        pytest.param("x1 + ", "", StatementSyntaxError, id="plus-without-rhs"),
        pytest.param("x1 + ", "x2 = 1", StatementSyntaxError, id="wrong-rhs"),
        pytest.param("x1  ", "", StatementSyntaxError, id="terms-without-operators"),
        pytest.param("x1*", "x2 =", StatementSyntaxError, id="star-chain-without-zero"),
        pytest.param("x1 + ", "x01 = 0", None, id="x01-in-the-last-term"),
        pytest.param("x1 + ", "x2 = 0 #", None, id="comment-after-the-rhs"),
        pytest.param(" ", "x1 + x2 = 0", None, id="blanks"),
        pytest.param("x1 + ", "x2 = 0", None, id="canonical"),
    ],
)
def test_long_lines_parse_in_linear_time(unit, tail, error):
    line = unit * (1_000_000 // len(unit)) + tail
    start = time.process_time()
    statements._bulk_polys([line], 12)
    assert time.process_time() - start < 1.0
    line = unit * (256_000 // len(unit)) + tail
    start = time.process_time()
    outcome = _outcome(parse_statements, line + "\n", 12)
    assert time.process_time() - start < 1.0
    if error is None:
        assert isinstance(outcome, PolySet)
    else:
        assert outcome[0] is error


# ----------------------------------------- whole-text paths vs per-line oracles
# parse_statements checks and reads canonical raw lines in one numpy pass
# over the whole text, and render_statements sorts and spells the terms of a
# whole PolySet at once.  The per-line and per-term code they replaced is
# kept here as the byte-exact reference.

def _oracle_monomial_vars(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _oracle_poly_to_text(q: Poly) -> str:
    if q.is_zero:
        return "0"
    names = [f"x{i}" for i in range(q.max_var() + 1)]
    keyed = sorted((-t.bit_count(), _oracle_monomial_vars(t)) for t in q.terms.tolist())
    return " + ".join(
        "*".join([names[i] for i in vs]) if vs else "1" for _, vs in keyed
    )


def _oracle_render(ps: PolySet) -> str:
    lines = sorted(f"{_oracle_poly_to_text(q)} = 0" for q in ps.polys)
    return "\n".join(lines) + ("\n" if lines else "")


def _oracle_bulk_poly(line: str, bits: dict[str, int]) -> Poly | None:
    lhs, _, rhs = line.partition("=")
    if rhs.strip(" \t") != "0":
        return None
    masks = []
    try:
        for term in lhs.split("+"):
            mask = 0
            for name in term.split("*"):
                mask |= bits[name.strip(" \t")]
            masks.append(mask)
    except KeyError:
        return None
    return Poly(masks)


def _oracle_bits(m: int | None) -> dict[str, int]:
    limit = 24 if m is None else min(m, 24)
    return {f"x{i}": 1 << (i - 1) for i in range(1, limit + 1)} | {"1": 0}


def _oracle_parse(text: str, m: int | None) -> PolySet:
    bits = _oracle_bits(m)
    polys, seen_m = set(), 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        q = _oracle_bulk_poly(raw, bits)
        if q is None:
            q = statements._parse_line(raw, line_no, m)
            if q is None:
                continue
        polys.add(q)
        seen_m = max(seen_m, q.max_var())
    return PolySet(seen_m if m is None else m, frozenset(polys))


def _edge_polyset(rng: random.Random, m: int) -> PolySet:
    """The zero polynomial, 1, the degree-m monomial, and random polynomials
    whose masks cross bits 8 and 16, over x1..xm."""
    full = (1 << m) - 1
    polys = {Poly.zero(), Poly.one(), Poly([full]), Poly([full, 0])}
    crossing = [(3 << 7) & full, (3 << 15) & full, (1 << 7 | 1 << 8 | 1 << 15 | 1 << 16) & full]
    for _ in range(6):
        size = rng.choice([1, 2, 5, rng.randint(0, 300)])
        terms = [rng.getrandbits(m) if m else 0 for _ in range(size)]
        polys.add(Poly(terms + rng.sample(crossing, rng.randint(0, 3))))
    return PolySet(m, frozenset(polys))


def test_render_matches_the_per_term_oracle():
    rng = random.Random(1410)
    for m in range(25):
        for _ in range(4):
            ps = _edge_polyset(rng, m)
            assert render_statements(ps) == _oracle_render(ps), m
            for q in ps.polys:
                assert poly_to_text(q) == _oracle_poly_to_text(q), (m, q)
    assert render_statements(PolySet(0, frozenset())) == ""


_ODD_LINES = [
    "",
    "   \t ",
    "# a comment",
    "x1 AND NOT x2 is FALSE  # trailing comment",
    "x1 OR x2",
    "x1 + x2 = 0 # comment after the right-hand side",
    "x1*0 + x2 = 0",
    "x01 + x2 = 0",
    "0 = 0",
    "1 = 0",
    "x1 + x1 = 0",
    "x2*x1 + 1*x3 = 0",
    "x1 + x2 = 0 é",
    "x1 + x² = 0",
    " x1 = 0",
    "x1 + x2 = 0",
    "x1 x2 = 0",
    "x1 + + x2 = 0",
    "+ x1 = 0",
    "x1 + = 0",
    "= 0",
    "x1 = 0 = 0",
    "x1 = 00",
    "x12x = 0",
    "x1x2 = 0",
    "x1 + x2x13 = 0",
    "1x1 = 0",
    "x123 = 0",
    "11 = 0",
    "x1 + x2 = 0\x0cx3 = 0",
    # blanks inside a factor or between two words; a blank before '*' only
    "x1 2 = 0",
    "x 12 = 0",
    "x1\t \t2 = 0",
    "1 1 = 0",
    "x1 + x2 = 0 0",
    "x1 *x2 + x3 = 0",
]


def _pad(rng: random.Random, line: str) -> str:
    """line with blanks and tabs around each operator and at both ends."""
    def blanks():
        return rng.choice(["", " ", "\t", "  \t", " \t "])
    for op in "*+=":
        line = line.replace(f" {op} ", op).replace(op, f"{blanks()}{op}{blanks()}")
    return blanks() + line + blanks()


def test_whole_file_parse_matches_the_per_line_oracle():
    rng = random.Random(1411)
    accepted = refused = 0
    for trial in range(300):
        m = trial % 25
        lines = render_statements(_random_polyset(rng, m)).splitlines()
        lines += [_pad(rng, ln) for ln in lines if rng.random() < 0.5]
        lines += rng.sample(_ODD_LINES, rng.randint(0, 6))
        rng.shuffle(lines)
        text = "".join(ln + rng.choice(["\n", "\r\n"]) for ln in lines)
        split = text.splitlines()
        for m_arg in (m, None, 24):
            bits = _oracle_bits(m_arg)
            want = [_oracle_bulk_poly(ln, bits) for ln in split]
            limit = 24 if m_arg is None else m_arg
            assert statements._bulk_polys(split, limit) == want, (split, m_arg)
            assert _outcome(parse_statements, text, m_arg) == _outcome(_oracle_parse, text, m_arg)
            accepted += sum(q is not None for q in want)
            refused += sum(q is None for q in want)
    assert accepted > 1000 and refused > 1000


def test_a_blank_inside_a_factor_refuses_only_its_line():
    # the other lines pass, so only the per-line count of adjacent factor
    # bytes before and after the blanks are deleted can refuse the middle one
    lines = ["x1*x2 + x3 = 0", "x1*x1 2 + x3 = 0", "x12 + 1 = 0"]
    bits = _oracle_bits(12)
    want = [_oracle_bulk_poly(ln, bits) for ln in lines]
    assert want[0] is not None and want[1] is None and want[2] is not None
    assert statements._bulk_polys(lines, 12) == want
    for i in range(3):  # the same line alone, and each neighbour alone
        assert statements._bulk_polys(lines[i:i + 1], 12) == want[i:i + 1]


def test_render_then_parse_is_the_identity_at_m_24():
    rng = random.Random(1412)
    for _ in range(20):
        ps = _edge_polyset(rng, 24)
        text = render_statements(ps)
        assert parse_statements(text) == ps
        assert parse_statements(text.replace("\n", "\r\n"), 24) == ps


def test_a_warm_parse_peaks_under_eight_times_its_text():
    # the m=12 Single(0.2) statement file, about 45 kB on one line
    ps = sample(Single(0.2), 12, 1)[1][0]
    text = render_statements(ps)
    assert parse_statements(text, 12) == ps  # grows this thread's rows
    tracemalloc.start()
    try:
        parse_statements(text, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(text), f"peak {peak / len(text):.2f}x the text"


def _mixed_file(rng: random.Random, m: int, lines: int) -> str:
    """Rendered lines of random polynomials over x1..xm, with padded lines and
    the odd lines that parse among them, so both the bulk pass and the
    tokenizer accept some."""
    out = []
    while len(out) < lines:
        out += render_statements(_random_polyset(rng, m)).splitlines()
    out += [_pad(rng, ln) for ln in out if rng.random() < 0.3]
    out += [ln for ln in _ODD_LINES if isinstance(_outcome(_oracle_parse, ln, m), PolySet)]
    rng.shuffle(out)
    return "\n".join(out) + "\n"


def test_a_parse_keeps_its_set_after_later_parses_reuse_the_rows():
    rng = random.Random(1415)
    a, b = _mixed_file(rng, 12, 60), _mixed_file(rng, 12, 240)
    c = render_statements(PolySet(12, frozenset([Poly(rng.sample(range(1 << 12), 60))])))
    assert len(c) < len(a) < len(b) and c.count("\n") == 1  # C takes the one-line path
    results = {}

    def run():  # a new thread starts with no rows, so B grows them and C reuses them
        for name, text in (("a", a), ("b", b), ("c", c)):
            results[name] = parse_statements(text, 12)
        rows = statements._LOCAL.rows
        results["shared"] = [np.shares_memory(q.terms, rows)
                             for ps in results.values() for q in ps.polys]

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert results["a"] == _oracle_parse(a, 12)
    assert results["b"] == _oracle_parse(b, 12)
    assert results["c"] == _oracle_parse(c, 12)
    assert not any(results["shared"])


def test_threads_parsing_at_once_each_get_their_own_set():
    # more threads than cores, switching often, each on its own file
    rng = random.Random(1416)
    files = [render_statements(sample(Single(0.2), 12, seed)[1][0]) + _mixed_file(rng, 12, 200)
             for seed in (1, 2, 3, 4)]
    wants = [_oracle_parse(text, 12) for text in files]
    start = threading.Barrier(len(files))
    got = [[] for _ in files]

    def run(i):
        start.wait()
        for _ in range(50):
            got[i].append(parse_statements(files[i], 12))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(files))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, sets in zip(wants, got):
        assert len(sets) == 50 and all(ps == want for ps in sets)
