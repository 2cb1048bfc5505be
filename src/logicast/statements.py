"""Line-oriented statement files and their canonical polynomial rendering.

Each nonempty line is one statement. Two forms exist:

    formula [is TRUE | is FALSE]     e.g.  NOT x1 AND x2 is FALSE
    polynomial = 0                   e.g.  x1*x2 + x1 + 1 = 0

Formula connectives bind NOT > AND > XOR > OR > IMPLIES, with IMPLIES
right-associative; a bare formula is read as asserted TRUE. `#` starts a
comment. Variables are written x1, x2, ... (1-indexed).

Both forms share one expression engine: precedence climbing over one table
of binary operators, in which a raw line's `+` and `*` are XOR and AND at
those connectives' precedence, and its factors 1 and 0 are constants. No
syntax tree is built: each operator is applied to its operands' terms as
parsed, held as Python sets of monomial masks, and a line's `Poly` (its
sorted int64 array of terms) is built once from the result.

Raw lines in the canonical shape `render_statements` writes (factors
spelled x<i> or 1, blanks or tabs only around factors, no comment) are
read in one pass of numpy work over the whole text: one `bytes.translate` classifies the bytes and deletes blanks
and tabs, each line is checked, and each factor x<i> becomes the bit
1 << (i - 1), ORed into term masks by `np.bitwise_or.reduceat`; one sort
gives every line its term array. The pass writes its per-byte flags into
six uint8 rows that each thread keeps (`threading.local`), at the length
of the longest text it has parsed, so a warm parse allocates no per-byte
array; a thread that has parsed an n-byte text retains about 6n bytes.
Every other line, and every error, goes through the tokenizer. Rendering
sorts and spells the terms of a whole PolySet at once, from per-byte
tables that hold each run of variable names with and without its leading
'*'. Timings: `scripts/sweep.py poly`.
"""

from __future__ import annotations

import operator
import re
import threading

import numpy as np

from .errors import StatementSyntaxError, UniverseTooLarge, VariableOutOfRange
from .poly import M_MAX, Poly, PolySet, mask_product

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
_ONE = frozenset({0})  # the terms of the constant 1


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


# ------------------------------------------------------------- expressions
# Both forms share one engine. Every value is the set of distinct monomial
# masks of a polynomial, owned by the expression that made it (so a sum may
# update its left operand): sum is symmetric difference, product
# mask_product. A formula's value is its truth polynomial; a raw line's +
# and * are XOR and AND under other names.

# The binary operators of formula lines, then of raw lines:
# token kind -> (precedence, right-associative, combine).
_OPERATORS = (
    {
        "IMPLIES": (1, True, lambda a, b: mask_product(a, b) ^ a ^ _ONE),
        "OR": (2, False, lambda a, b: a ^ b ^ mask_product(a, b)),
        "XOR": (3, False, operator.ixor),
        "AND": (4, False, mask_product),
    },
    {"PLUS": (3, False, operator.ixor), "STAR": (4, False, mask_product)},
)


def _parse_expr(cur: _Cursor, raw: bool, lowest: int = 1) -> set[int]:
    """Terms of the expression at the cursor, by precedence climbing: only
    operators of precedence >= lowest join it; a flat chain nests nothing."""
    operators = _OPERATORS[raw]
    a = _parse_atom(cur, raw)
    while (op := operators.get(cur.kind())) and op[0] >= lowest:
        prec, right, combine = op
        cur.next()
        a = combine(a, _parse_expr(cur, raw, prec if right else prec + 1))
    return a


def _parse_atom(cur: _Cursor, raw: bool) -> set[int]:
    """Terms of one operand: a variable; on raw lines also 1 ({0}) or 0 (no
    terms), in formulas NOT and a parenthesised expression."""
    kind, value, col = cur.next()
    if kind == "VAR":
        return {1 << (value - 1)}
    if raw and kind in ("ONE", "ZERO"):
        return {0} if kind == "ONE" else set()
    if not raw and kind == "NOT":
        return _parse_atom(cur, raw) ^ _ONE
    if not raw and kind == "LP":
        a = _parse_expr(cur, raw)
        cur.expect("RP", "')'")
        return a
    what = "a variable, 1, or 0" if raw else "a variable, NOT, or '('"
    raise StatementSyntaxError(f"expected {what}", cur.line_no, col)


# ------------------------------------------------------ whole-text bulk pass
# Byte classes of the canonical raw-line alphabet: a digit is its own value.
_X, _STAR, _PLUS, _EQ, _NL, _OTHER = range(10, 16)
_CLASS = bytes(
    {"x": _X, "*": _STAR, "+": _PLUS, "=": _EQ, "\n": _NL, **{str(d): d for d in range(10)}}
    .get(chr(b), _OTHER) for b in range(256)
)


_LOCAL = threading.local()  # rows: this thread's per-byte scratch


def _bulk_polys(lines: list[str], limit: int) -> list[Poly | None]:
    """Polynomial of each line that reads `t + ... + t = 0`, each term t a
    product of factors x<i> (1 <= i <= limit, no leading zero) or 1, with
    blanks or tabs only around factors; None for any other line.

    Numpy calls over the whole text: one `bytes.translate` classifies the
    bytes and deletes blanks and tabs, and every byte left is checked against
    its neighbours. A line with a blank inside a factor has more pairs of
    adjacent factor bytes after the deletion than before it. Every per-byte
    flag is written with `out=` into this thread's six rows, allocated by
    its first parse, replaced only by a longer text's and kept between
    calls; only the factor-level arrays are new, and no `Poly` shares them.
    """
    out: list[Poly | None] = [None] * len(lines)
    if not lines:
        return out
    # One byte per character (not ASCII: '?', which no line takes), two
    # newlines before and three after, so every shift below stays in range;
    # position 1 opens the first line, as each newline opens the next.
    raw = "\n".join(["\n", *lines, "\n\n"]).encode("ascii", "replace")
    r = np.frombuffer(raw, np.uint8)
    rows = getattr(_LOCAL, "rows", None)
    if rows is None or rows.shape[1] < r.size:
        _LOCAL.rows = rows = None  # the old rows go before the new come
        rows = _LOCAL.rows = np.empty((6, r.size), np.uint8)
    flags = rows.view(bool)
    # adjacent factor bytes (digits, x) before the deletion; row 2 is scratch
    f, g = flags[0, :r.size], flags[1, :r.size]
    np.less(np.subtract(r, 48, out=rows[2, :r.size]), 10, out=f)
    f |= np.equal(r, 120, out=g)
    raw_pair = np.logical_and(f[1:], f[:-1], out=g[1:])
    c = np.frombuffer(raw.translate(_CLASS, b" \t"), np.uint8)  # blanks deleted
    word = np.less_equal(c, _X, out=flags[0, :c.size])  # the factor bytes after it
    pair = np.logical_and(word[1:], word[:-1], out=flags[2, 1:c.size])
    joined = None
    if np.count_nonzero(pair) != np.count_nonzero(raw_pair):  # on which lines?
        # the pairs before each newline; line i lies between newlines i + 1 and i + 2
        raw_before, before = (
            np.searchsorted(np.flatnonzero(p), np.flatnonzero(np.equal(text, nl, out=flags[3, :text.size])))
            for p, text, nl in ((raw_pair, r, 10), (pair, c, _NL)))
        joined = np.diff(before - raw_before)[1:-2] > 0
    del raw, r  # c and the rows hold all that is read from here on
    cur, prev, nxt, nxt2 = c[1:-3], c[:-4], c[2:-2], c[3:-1]
    wprev, wnxt, wnxt3 = word[:-4], word[2:-2], word[4:]
    x, bad, t, u = flags[1:5, :cur.size]
    index = rows[5, :cur.size]
    np.equal(cur, _X, out=x)
    # the index i of x<i> (one digit, or two), 0 off an x; classes stay
    # below 16, so the uint8 sums stay below 256
    np.less_equal(nxt2, 9, out=t)
    np.multiply(nxt, 9, out=index)
    index += nxt2
    index *= t
    index += nxt
    index *= x
    # x<i>: x opens the word, then a digit 1-9 and at most one more digit
    t &= wnxt3
    t |= wprev
    t |= np.equal(nxt, 0, out=u)
    t |= np.greater(nxt, 9, out=u)
    np.logical_and(t, x, out=bad)
    bad |= np.equal(cur, _OTHER, out=u)
    bad |= np.greater(index, limit, out=u)
    # an operator follows a factor; the word after it is checked in turn,
    # and the line must end in '=' and a lone 0
    np.logical_and(np.greater_equal(cur, _STAR, out=t), np.less_equal(cur, _EQ, out=u), out=t)
    np.logical_not(wprev, out=u)  # no word byte before; the numbers read it too
    bad |= np.logical_and(t, u, out=t)
    # a number (a word that starts with a digit) is the factor 1, or the 0
    # right after '='; a 1 there fails the check of '=' below
    np.logical_and(np.less_equal(cur, 9, out=t), u, out=t)
    np.not_equal(cur, np.not_equal(prev, _EQ, out=u), out=u)
    u |= wnxt
    bad |= np.logical_and(u, t, out=u)
    x |= np.logical_and(np.equal(cur, 1, out=u), t, out=u)  # x<i> or 1: a factor
    # '=' ends the line with a lone 0
    eq = np.count_nonzero(np.equal(cur, _EQ, out=t))
    bad |= np.logical_and(np.not_equal(nxt, 0, out=u), t, out=u)
    bad |= np.logical_and(np.not_equal(nxt2, _NL, out=u), t, out=u)
    ok = np.ones(len(lines), bool)
    starts = np.flatnonzero(np.equal(cur, _NL, out=t)) if len(lines) > 1 else np.zeros(1, np.intp)
    # no bad byte leaves two '=' on a line, so one per line means all pass
    if joined is not None or eq != len(lines) or bad.any():
        ok = np.logical_or.reduceat(np.equal(cur, _EQ, out=t), starts)
        ok &= ~np.logical_or.reduceat(bad, starts)
        if joined is not None:
            ok &= ~joined
        # t marks the bytes of accepted lines: xor runs over each change of ok
        t.fill(False)
        t[starts] = np.diff(ok, prepend=False)
        x &= np.logical_xor.accumulate(t, out=t)
    # the first factor of each term
    np.logical_and(np.not_equal(prev, _STAR, out=t), x, out=t)
    at = np.flatnonzero(x)
    first, index = np.flatnonzero(t[at]), index[at]  # per factor from here
    del at  # the int64 positions go before the int32 bits come
    bits = np.left_shift(1, index, dtype=np.int32)  # x<i>: 1 << (i - 1); 1: none
    bits >>= 1
    masks = np.bitwise_or.reduceat(bits, first)
    if len(lines) > 1:  # each mask's line, above its at most M_MAX bits
        masks = np.searchsorted(starts, np.flatnonzero(t), side="right") - 1 << M_MAX | masks
    # One sort by line, then mask; of each run of equal terms an odd count
    # leaves one, an even count none.
    key = np.sort(masks)
    if not (key[1:] != key[:-1]).all():
        run = np.flatnonzero(np.diff(key, prepend=-1))
        key = key[run[np.diff(run, append=len(key)) & 1 == 1]]
    key = key.astype(np.int64, copy=False)
    if len(lines) == 1:  # one slice, the whole key
        out[0] = Poly.of_sorted(key) if ok[0] else None
        return out
    masks = key & (1 << M_MAX) - 1
    bounds = np.searchsorted(key >> M_MAX, np.arange(len(lines) + 1)).tolist()
    for line in np.flatnonzero(ok).tolist():
        out[line] = Poly.of_sorted(masks[bounds[line]:bounds[line + 1]])
    return out


# ------------------------------------------------------------------ lines

def _parse_line(raw: str, line_no: int, m: int | None) -> Poly | None:
    """Member polynomial of one line through the tokenizer, zero exactly where
    the statement holds; None when blank. "p = 0" gives p; "f is FALSE" gives
    truth(f), and "f is TRUE" (or bare f) truth(f) + 1."""
    tokens = _tokenize_line(raw, line_no, m)
    if tokens[0][0] == "END":
        return None
    cur = _Cursor(tokens, line_no)
    raw_poly = any(tok[0] == "EQ" for tok in tokens)
    try:
        terms = _parse_expr(cur, raw_poly)
    except RecursionError:
        raise StatementSyntaxError("statement nests too deeply", line_no, 1) from None
    if raw_poly:
        cur.expect("EQ", "'='")
        cur.expect("ZERO", "'0' on the right-hand side")
    elif cur.kind() == "is":
        cur.next()
        if cur.kind() not in ("TRUE", "FALSE"):
            raise cur.error("expected TRUE or FALSE after 'is'")
        if cur.next()[0] == "TRUE":
            terms ^= _ONE
    else:
        terms ^= _ONE
    cur.expect("END", "end of statement")
    return Poly.of_distinct(terms)


# ------------------------------------------------------------------ public

def parse_statements(text: str, m: int | None = None) -> PolySet:
    """Parse a statement file into a PolySet.

    The variable count is `m` when given, else the largest index used.
    A variable past `m` or past poly.M_MAX is refused as it is read.
    """
    lines = text.splitlines()
    bulk = _bulk_polys(lines, M_MAX if m is None else min(m, M_MAX))
    polys: set[Poly] = set()
    for line_no, (raw, q) in enumerate(zip(lines, bulk), start=1):
        if q is None:
            q = _parse_line(raw, line_no, m)
            if q is None:
                continue
        polys.add(q)
    if m is None:
        m = max((q.max_var() for q in polys), default=0)
    return PolySet(m, frozenset(polys))


# _NAME_ROWS[r][b] names the variables of byte value b in byte r of a mask,
# each after a '*' (entry 256 + b drops the first one); _POPCOUNT and
# _REVERSED map a byte to its count of set bits and to its bits reversed.
_NAME_ROWS = tuple(
    np.array(names + [s[1:] for s in names], dtype=object)
    for names in (["".join(f"*x{8 * r + i + 1}" for i in range(8) if b >> i & 1)
                   for b in range(256)] for r in range((M_MAX + 7) // 8))
)
_POPCOUNT = np.array([b.bit_count() for b in range(256)], np.int64)
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.int64)


def _poly_texts(polys: list[Poly]) -> list[str]:
    """Canonical text of each nonzero polynomial (see poly_to_text): numpy
    calls sort the terms of all of them at once and pick each term's names,
    which one join spells out with no pass over the text after it."""
    if not polys:
        return []
    top = max(q.max_var() for q in polys)
    rows = max(1, (top + 7) // 8)
    sizes = [q.terms.size for q in polys]
    masks = np.concatenate([q.terms for q in polys])
    byte = [masks >> 8 * r & 255 for r in range(rows)]
    degree = sum(_POPCOUNT[b] for b in byte)
    # One key per term: its polynomial, then degree descending, then the
    # bit-reversed mask descending (its bytes complemented, x1's first),
    # which puts equal degrees in ascending variable tuples. The key fits
    # int64: the owner, 5 bits of degree and at most M_MAX bits of mask.
    owner = np.repeat(np.arange(len(polys)), sizes)
    key = owner << top.bit_length() | top - degree
    for b in byte:
        key = key << 8 | 255 - _REVERSED[b]
    order = np.argsort(key)
    masks = masks[order]
    # one row of parts per term: its variables' names, each after a '*'
    # but the term's first, then " + " or, after a polynomial's last term, "\n"
    parts = np.empty((len(order), rows + 1), object)
    for r, b in enumerate(byte):  # + 256 where the bytes below are empty
        parts[:, r] = _NAME_ROWS[r][b[order] | (masks & (1 << 8 * r) - 1 == 0) << 8]
    parts[degree[order] == 0, 0] = "1"
    parts[:, -1] = " + "
    parts[np.cumsum(sizes, dtype=np.int64) - 1, -1] = "\n"
    return "".join(parts.ravel().tolist()).split("\n")[:-1]


def poly_to_text(q: Poly) -> str:
    """Canonical text: terms in degree-major order, variables ascending."""
    return "0" if q.is_zero else _poly_texts([q])[0]


def render_statements(ps: PolySet) -> str:
    """Render a PolySet as raw-polynomial statement lines, one per polynomial."""
    live = [q for q in ps.polys if not q.is_zero]
    lines = [f"{t} = 0" for t in _poly_texts(live)]
    if len(live) < len(ps.polys):
        lines.append("0 = 0")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
