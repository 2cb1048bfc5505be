"""Line-oriented statement files and their canonical polynomial rendering.

Each nonempty line is one statement. Two forms exist:

    formula [is TRUE | is FALSE]     e.g.  NOT x1 AND x2 is FALSE
    polynomial = 0                   e.g.  x1*x2 + x1 + 1 = 0

Formula connectives bind NOT > AND > XOR > OR > IMPLIES, with IMPLIES
right-associative; a bare formula is read as asserted TRUE. `#` starts a
comment. Variables are written x1, x2, ... (1-indexed).

No syntax tree is built: each connective is applied to its operands'
polynomials as parsed, and a raw line is read as a list of monomial masks.
A raw line in the canonical shape `render_statements` writes (factors
spelled x<i> or 1, no comment) is read in bulk, by splits and a name ->
bit table; every other line, and every error, goes through the tokenizer.
"""

from __future__ import annotations

import re

from .algset import M_MAX
from .errors import StatementSyntaxError, UniverseTooLarge, VariableOutOfRange
from .poly import Poly, PolySet, monomial_vars

_TOKEN_RE = re.compile(
    r"""(?P<space>[ \t\r]+)
      | (?P<comment>\#.*)
      | (?P<word>[A-Za-z]+[0-9]*)
      | (?P<sym>[()+*=])
      | (?P<digit>[01])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"NOT", "AND", "OR", "XOR", "IMPLIES", "is", "TRUE", "FALSE"}
_SYMS = {"(": "LP", ")": "RP", "+": "PLUS", "*": "STAR", "=": "EQ"}
_ONE = Poly.one()


# canonical variable names; any other spelling goes through _variable_index
_NAMES = {f"x{i}": i for i in range(1, M_MAX + 1)}


def _variable_index(word: str, m: int | None, where: str) -> int:
    """Index of a variable word not in _NAMES, range-checked before the parser
    turns it into the mask 1 << (index - 1), an index-bit integer."""
    digits = word[1:].lstrip("0")
    if not digits:
        raise VariableOutOfRange(f"{where}: variables are 1-indexed, got {word}")
    # int() refuses more than 4300 digits; any index this long is past M_MAX
    index = int(digits) if len(digits) <= 9 else M_MAX + 1
    if m is not None and index > m:
        raise VariableOutOfRange(
            f"{where}: statements use {word} but only {m} variables were declared"
        )
    if index > M_MAX:
        raise UniverseTooLarge(f"{where}: {word} is beyond the supported {M_MAX} variables")
    return index


def _tokenize_line(text: str, line_no: int, m: int | None) -> list[tuple[str, int, int]]:
    """Tokens as (kind, value, col) tuples, ending with an END token.

    kind is VAR, a keyword, LP RP PLUS STAR EQ, ZERO or ONE; value is the
    variable index when kind is VAR.
    """
    tokens = []
    limit = M_MAX if m is None else m
    for mo in _TOKEN_RE.finditer(text):
        group = mo.lastgroup
        col = mo.start() + 1
        if group == "space":
            continue
        if group == "comment":
            break
        if group == "word":
            word = mo.group()
            if word in _KEYWORDS:
                tokens.append((word, 0, col))
            elif word in _NAMES and _NAMES[word] <= limit:
                tokens.append(("VAR", _NAMES[word], col))
            elif word[0] == "x" and word[1:].isdigit():
                index = _variable_index(word, m, f"line {line_no}, col {col}")
                tokens.append(("VAR", index, col))
            else:
                raise StatementSyntaxError(f"unknown token {word!r}", line_no, col)
        elif group == "sym":
            tokens.append((_SYMS[mo.group()], 0, col))
        elif group == "digit":
            tokens.append(("ONE" if mo.group() == "1" else "ZERO", 0, col))
        else:
            raise StatementSyntaxError(
                f"unexpected character {mo.group()!r}", line_no, col
            )
    tokens.append(("END", 0, len(text) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[tuple[str, int, int]], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.i = 0

    def kind(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, int, int]:
        tok = self.tokens[self.i]
        if tok[0] != "END":
            self.i += 1
        return tok

    def error(self, message: str) -> StatementSyntaxError:
        return StatementSyntaxError(message, self.line_no, self.tokens[self.i][2])

    def expect(self, kind: str, what: str) -> None:
        if self.kind() != kind:
            raise self.error(f"expected {what}")
        self.next()


# ------------------------------------------------------------ formula parser
# Each level returns the truth polynomial of what it parsed.

def _parse_implies(cur: _Cursor) -> Poly:
    a = _parse_or(cur)
    if cur.kind() == "IMPLIES":
        cur.next()
        b = _parse_implies(cur)  # right-associative
        return a * b + a + _ONE
    return a


def _parse_or(cur: _Cursor) -> Poly:
    a = _parse_xor(cur)
    while cur.kind() == "OR":
        cur.next()
        b = _parse_xor(cur)
        a = a + b + a * b
    return a


def _parse_xor(cur: _Cursor) -> Poly:
    a = _parse_and(cur)
    while cur.kind() == "XOR":
        cur.next()
        a = a + _parse_and(cur)
    return a


def _parse_and(cur: _Cursor) -> Poly:
    a = _parse_unary(cur)
    while cur.kind() == "AND":
        cur.next()
        a = a * _parse_unary(cur)
    return a


def _parse_unary(cur: _Cursor) -> Poly:
    kind = cur.kind()
    if kind == "NOT":
        cur.next()
        return _parse_unary(cur) + _ONE
    if kind == "VAR":
        return Poly.variable(cur.next()[1])
    if kind == "LP":
        cur.next()
        a = _parse_implies(cur)
        cur.expect("RP", "')'")
        return a
    raise cur.error("expected a variable, NOT, or '('")


def _parse_formula_line(cur: _Cursor) -> Poly:
    """Member polynomial of a formula statement: zero exactly where it holds.

    "f is TRUE" (or bare f) gives truth(f) + 1; "f is FALSE" gives truth(f).
    """
    truth = _parse_implies(cur)
    asserted = True
    if cur.kind() == "is":
        cur.next()
        if cur.kind() == "TRUE":
            cur.next()
        elif cur.kind() == "FALSE":
            cur.next()
            asserted = False
        else:
            raise cur.error("expected TRUE or FALSE after 'is'")
    cur.expect("END", "end of statement")
    return truth + _ONE if asserted else truth


# --------------------------------------------------------- raw polynomial mode

def _bulk_poly(line: str, bits: dict[str, int]) -> Poly | None:
    """Polynomial of a raw line whose factors, blanks and tabs around them
    aside, are all keys of `bits` (factor text -> mask bit) and whose
    right-hand side is a lone 0; None for any other line."""
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
    except KeyError:  # any other factor: the tokenizer reads or reports it
        return None
    return Poly(masks)


def _parse_term(cur: _Cursor) -> int | None:
    """Monomial mask of one product of factors; None when a factor is 0."""
    mask = 0
    vanishes = False
    while True:
        if cur.kind() not in ("VAR", "ONE", "ZERO"):
            raise cur.error("expected a variable, 1, or 0")
        kind, value, _ = cur.next()
        if kind == "VAR":
            mask |= 1 << (value - 1)
        elif kind == "ZERO":
            vanishes = True
        if cur.kind() != "STAR":
            return None if vanishes else mask
        cur.next()


def _parse_poly_line(cur: _Cursor) -> Poly:
    terms = []
    while True:
        mask = _parse_term(cur)
        if mask is not None:
            terms.append(mask)
        if cur.kind() != "PLUS":
            break
        cur.next()
    cur.expect("EQ", "'='")
    cur.expect("ZERO", "'0' on the right-hand side")
    cur.expect("END", "end of statement")
    return Poly(terms)


# ------------------------------------------------------------------ lines

def _parse_line(raw: str, line_no: int, m: int | None) -> Poly | None:
    """Member polynomial of one line through the tokenizer; None when blank."""
    tokens = _tokenize_line(raw, line_no, m)
    if tokens[0][0] == "END":
        return None
    cur = _Cursor(tokens, line_no)
    raw_poly = any(tok[0] == "EQ" for tok in tokens)
    try:
        return _parse_poly_line(cur) if raw_poly else _parse_formula_line(cur)
    except RecursionError:
        raise StatementSyntaxError("statement nests too deeply", line_no, 1) from None


# ------------------------------------------------------------------ public

def parse_statements(text: str, m: int | None = None) -> PolySet:
    """Parse a statement file into a PolySet.

    The variable count is `m` when given, else the largest index used.
    A variable past `m` or past algset.M_MAX is refused as it is read.
    """
    limit = M_MAX if m is None else m
    bits = {name: 1 << (i - 1) for name, i in _NAMES.items() if i <= limit}
    bits["1"] = 0
    polys: set[Poly] = set()
    seen_m = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        q = _bulk_poly(raw, bits)
        if q is None:
            q = _parse_line(raw, line_no, m)
            if q is None:
                continue
        polys.add(q)
        seen_m = max(seen_m, q.max_var())
    return PolySet(seen_m if m is None else m, frozenset(polys))


def poly_to_text(q: Poly) -> str:
    """Canonical text: terms in degree-major order, variables ascending."""
    if q.is_zero:
        return "0"
    names = [f"x{i}" for i in range(q.max_var() + 1)]
    keyed = sorted((-t.bit_count(), monomial_vars(t)) for t in q.masks)
    return " + ".join(
        "*".join([names[i] for i in vs]) if vs else "1" for _, vs in keyed
    )


def render_statements(ps: PolySet) -> str:
    """Render a PolySet as raw-polynomial statement lines, one per polynomial."""
    lines = sorted(f"{poly_to_text(q)} = 0" for q in ps.polys)
    return "\n".join(lines) + ("\n" if lines else "")
