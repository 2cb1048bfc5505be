"""Line-oriented statement files and their canonical polynomial rendering.

Each nonempty line is one statement. Two forms exist:

    formula [is TRUE | is FALSE]     e.g.  NOT x1 AND x2 is FALSE
    polynomial = 0                   e.g.  x1*x2 + x1 + 1 = 0

Formula connectives bind NOT > AND > XOR > OR > IMPLIES, with IMPLIES
right-associative; a bare formula is read as asserted TRUE. `#` starts a
comment. Variables are written x1, x2, ... (1-indexed).

No syntax tree is built: each connective is applied to its operands'
polynomials as parsed, and a raw line is read as a list of monomial masks.
Raw lines in the canonical shape `render_statements` writes (factors
spelled x<i> or 1, blanks or tabs only around factors, no comment) are read
in one pass of numpy work over the whole text: the bytes are classified,
each line checked, and each factor x<i> becomes the bit 1 << (i - 1), ORed
into term masks by `np.bitwise_or.reduceat`. Every other line, and every
error, goes through the tokenizer. Rendering sorts and spells the terms of
a whole PolySet at once, from per-byte tables of variable names.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .algset import M_MAX
from .errors import StatementSyntaxError, UniverseTooLarge, VariableOutOfRange
from .poly import Poly, PolySet

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


# ------------------------------------------------------ whole-text bulk pass
# Byte classes of the canonical raw-line alphabet: a digit is its own value.
_X, _STAR, _PLUS, _EQ, _NL, _BLANK, _OTHER = range(10, 17)
_CLASS = bytes(
    {"x": _X, "*": _STAR, "+": _PLUS, "=": _EQ, "\n": _NL, " ": _BLANK, "\t": _BLANK,
     **{str(d): d for d in range(10)}}.get(chr(b), _OTHER)
    for b in range(256)
)


def _bulk_polys(lines: list[str], limit: int) -> tuple[list[Poly | None], int | None]:
    """Polynomial of each line that reads `t + ... + t = 0`, each term t a
    product of factors x<i> (1 <= i <= limit, no leading zero) or 1, with
    blanks or tabs only around factors; None for any other line. Also the
    largest i those lines use, or None when a line repeats a term, whose
    cancelling may drop its largest variable.

    The work is numpy calls over the whole text, not per line: the blanks
    are dropped and every byte is checked against its neighbours.
    """
    out: list[Poly | None] = [None] * len(lines)
    if not lines:
        return out, 0
    # one byte per character: anything not ASCII becomes '?', which no line takes
    text = "\n".join(lines).encode("ascii", "replace").translate(_CLASS)
    cls = np.frombuffer(text, np.uint8)
    keep = cls != _BLANK
    # bit 7 marks a character after a blank, so that one pass drops the blanks
    tagged = np.zeros(len(cls), np.uint8)
    tagged[1:] = ~keep[:-1]
    tagged = (cls | tagged << 7)[keep]
    # The classes with the blanks dropped (gap: a blank came before), two
    # newlines before and three after, so every shift below stays in range;
    # position 1 opens the first line, as each newline opens the next.
    nl = np.full(3, _NL, np.uint8)
    c = np.concatenate((nl[:2], tagged & 127, nl))
    gap = np.concatenate(([False, False], tagged > 127, [False] * 3))
    word = c <= _X
    cur, prev, nxt, nxt2 = c[1:-3], c[:-4], c[2:-2], c[3:-1]
    wcur, wprev, wnxt, wnxt3 = word[1:-3], word[:-4], word[2:-2], word[4:]
    x = cur == _X
    eq = cur == _EQ
    number = (cur <= 9) & ~wprev  # a word that starts with a digit
    # the index i of x<i>: one digit, or two; classes stay below 17, so the
    # uint8 sums stay below 256 (np.where with a mixed mask is far slower)
    index = nxt + (nxt2 <= 9) * (nxt * 9 + nxt2)
    bad = (cur == _OTHER) | (gap[1:-3] & wcur & wprev)  # a blank inside a factor
    # an operator follows a factor; the word after it is checked in turn,
    # and the line must end in '=' and a lone 0
    bad |= (cur >= _STAR) & (cur <= _EQ) & ~wprev
    # x<i>: x opens the word, then a digit 1-9 and at most one more digit
    bad |= x & (wprev | (nxt == 0) | (nxt > 9) | ((nxt2 <= 9) & wnxt3) | (index > limit))
    # a number is the factor 1, or the 0 right after '='
    bad |= number & (wnxt | ((cur != 1) & ((cur != 0) | (prev != _EQ))))
    # '=' ends the line with a lone 0
    bad |= eq & ((nxt != 0) | (nxt2 != _NL))

    starts = np.flatnonzero(cur == _NL)
    ok = np.logical_or.reduceat(eq, starts) & ~np.logical_or.reduceat(bad, starts)
    factor = (x | (number & (cur == 1))) & np.repeat(ok, np.diff(starts, append=len(cur)))
    at = np.flatnonzero(factor)
    # x<i> is the bit 1 << (i - 1); the factor 1 is no bit
    bits = np.left_shift(1, (index[at] * x[at]).astype(np.int64)) >> 1
    term = (prev[at] == _PLUS) | (prev[at] == _NL)
    masks = np.bitwise_or.reduceat(bits, np.flatnonzero(term)).tolist()
    line_of_term = np.searchsorted(starts, at[term], side="right") - 1
    counts = np.bincount(line_of_term, minlength=len(lines))[ok].tolist()
    lo = 0
    top: int | None = int(np.bitwise_or.reduce(bits)).bit_length()
    for line, n in zip(np.flatnonzero(ok).tolist(), counts):
        terms = masks[lo:lo + n]
        lo += n
        distinct = frozenset(terms)
        if len(distinct) == n:
            out[line] = Poly.of_distinct(distinct)
        else:  # Poly(terms) cancels repeated terms in pairs, one term at a time
            out[line] = Poly(terms)
            top = None
    return out, top


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
    lines = text.splitlines()
    bulk, top = _bulk_polys(lines, M_MAX if m is None else min(m, M_MAX))
    polys: set[Poly] = set()
    seen_m = top or 0
    for line_no, (raw, q) in enumerate(zip(lines, bulk), start=1):
        tokenized = q is None
        if tokenized:
            q = _parse_line(raw, line_no, m)
            if q is None:
                continue
        polys.add(q)
        if m is None and (tokenized or top is None):
            seen_m = max(seen_m, q.max_var())
    return PolySet(seen_m if m is None else m, frozenset(polys))


@functools.cache
def _name_row(r: int) -> np.ndarray:
    """Names of the variables of byte value b in byte r of a monomial mask,
    each name followed by '*', at index b."""
    return np.array(
        ["".join(f"x{8 * r + i + 1}*" for i in range(8) if b >> i & 1) for b in range(256)],
        dtype=object,
    )


# the rows for x1..x24 are built at import; any further row on first use
for _r in range((M_MAX + 7) // 8):
    _name_row(_r)
del _r
# _POPCOUNT and _REVERSED map a byte to its count of set bits and to its
# bits in reverse order.
_POPCOUNT = np.array([b.bit_count() for b in range(256)], np.int64)
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.int64)


def _poly_texts(polys: list[Poly]) -> list[str]:
    """Canonical text of each nonzero polynomial (see poly_to_text), with
    the terms of all of them sorted and spelled by numpy calls at once."""
    top = max((q.max_var() for q in polys), default=0)
    rows = max(1, (top + 7) // 8)
    # masks past x24 may not fit the int64 sort key; Python ints fit any
    dtype = np.int64 if top <= M_MAX else object
    sizes = [len(q.masks) for q in polys]
    masks = np.fromiter(itertools.chain.from_iterable(q.masks for q in polys), dtype, sum(sizes))
    byte = [(masks >> 8 * r & 255).astype(np.int64) for r in range(rows)]
    degree = sum(_POPCOUNT[b] for b in byte)
    # One key per term: its polynomial, then degree descending, then the
    # bit-reversed mask descending (its bytes complemented, x1's first),
    # which puts equal degrees in ascending variable tuples.
    owner = np.repeat(np.arange(len(polys)), sizes).astype(dtype, copy=False)
    key = owner << top.bit_length() | top - degree
    for b in byte:
        key = key << 8 | 255 - _REVERSED[b]
    order = np.argsort(key)
    # one row of parts per term: its variables' names, then " + " or, after
    # a polynomial's last term, "\n"; the '*' before either is cut below
    parts = np.empty((len(order), rows + 1), object)
    for r, b in enumerate(byte):
        parts[:, r] = _name_row(r)[b[order]]
    parts[degree[order] == 0, 0] = "1*"
    parts[:, -1] = " + "
    parts[np.cumsum(sizes, dtype=np.int64) - 1, -1] = "\n"
    text = "".join(parts.ravel().tolist()).replace("* + ", " + ").replace("*\n", "\n")
    return text.split("\n")[:-1]


def poly_to_text(q: Poly) -> str:
    """Canonical text: terms in degree-major order, variables ascending."""
    return _poly_texts([q])[0] if q.masks else "0"


def render_statements(ps: PolySet) -> str:
    """Render a PolySet as raw-polynomial statement lines, one per polynomial."""
    live = [q for q in ps.polys if q.masks]
    lines = [f"{t} = 0" for t in _poly_texts(live)]
    if len(live) < len(ps.polys):
        lines.append("0 = 0")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
