"""Bit-level coding primitives: Elias-delta integers and enumerative subset codes.

Every multi-bit field is written most-significant-bit first, and bytes are
filled from bit 7 downward; the final byte is zero-padded. A bit string is
held as one integer plus its length (:class:`Bits`), so fields are written
and read with one shift each. Subset ranks use the colexicographic order on
k-subsets of {0, ..., n-1}, 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    MalformedCodeword,
    RankOutOfRange,
    TruncatedStream,
    WidthOverflow,
)

# A codeword whose length prefix claims more than 2^57 payload bits is not a
# plausible message; treat it as corruption instead of allocating for it.
_MAX_ELIAS_WIDTH_BITS = 57


@dataclass(frozen=True)
class Bits:
    """A packed bit string: `nbits` bits held MSB-first in one integer."""

    value: int
    nbits: int

    def __post_init__(self) -> None:
        if self.nbits < 0 or self.value < 0 or self.value >> self.nbits:
            raise DomainError(f"value {self.value} is not a {self.nbits}-bit string")

    def __len__(self) -> int:
        return self.nbits

    def to_bytes(self) -> bytes:
        """The bits followed by zero padding up to the byte boundary."""
        pad = -self.nbits % 8
        return (self.value << pad).to_bytes((self.nbits + pad) // 8, "big")


_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def bits_to_int(bits: Iterable[int]) -> int:
    """A sequence of 0/1 ints read as one big-endian integer."""
    try:
        # iterate, so a numpy array of wide ints is not read as its raw buffer
        raw = bytes(iter(bits))
    except (TypeError, ValueError):
        raise DomainError("bits must be 0 or 1") from None
    if raw.translate(None, b"\x00\x01"):
        raise DomainError("bits must be 0 or 1")
    return int(raw.translate(_ASCII_BITS) or b"0", 2)


class BitWriter:
    """Append-only bit buffer, packed MSB-first into one integer."""

    def __init__(self) -> None:
        self._value = 0
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        return self._nbits

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise DomainError(f"bit must be 0 or 1, got {bit!r}")
        self.write_bits(int(bit), 1)

    def write_bits(self, value: int, width: int) -> None:
        """Write `value` in exactly `width` bits, big-endian."""
        if width < 0:
            raise DomainError(f"width must be >= 0, got {width}")
        if value < 0 or value >> width:
            raise WidthOverflow(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._nbits += width

    def write_elias_delta(self, n: int) -> None:
        self.write_bits(*_elias_delta_codeword(n))

    def to_bits(self) -> Bits:
        return Bits(self._value, self._nbits)

    def to_bytes(self) -> bytes:
        return self.to_bits().to_bytes()


class BitReader:
    """Sequential reader over packed bits: bytes from :class:`BitWriter`, or Bits."""

    def __init__(self, data: bytes | Bits, bit_offset: int = 0) -> None:
        if isinstance(data, Bits):
            self._value, self._end = data.value, data.nbits
        else:
            self._value, self._end = int.from_bytes(data, "big"), 8 * len(data)
        if bit_offset < 0 or bit_offset > self._end:
            raise DomainError(f"bit_offset {bit_offset} outside stream")
        self._pos = bit_offset

    @property
    def bits_read(self) -> int:
        return self._pos

    @property
    def bits_left(self) -> int:
        return self._end - self._pos

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise DomainError(f"width must be >= 0, got {width}")
        after = self._end - self._pos - width
        if after < 0:
            raise TruncatedStream("bit stream exhausted")
        self._pos += width
        return (self._value >> after) & ((1 << width) - 1)

    def read_elias_delta(self) -> int:
        left = self._end - self._pos
        # zeros before the next 1, counted in one step
        zeros = left - (self._value & ((1 << left) - 1)).bit_length()
        if zeros > _MAX_ELIAS_WIDTH_BITS:
            raise MalformedCodeword("Elias-delta length prefix out of range")
        if zeros == left:
            raise TruncatedStream("bit stream exhausted")
        # `zeros + 1` bits encode L = 1 + floor(log2 n); skip the leading 1.
        self._pos += zeros + 1
        length = (1 << zeros) | self.read_bits(zeros)
        # read before shifting, so a corrupt length fails as truncation
        # instead of allocating 2^length bits
        low = self.read_bits(length - 1)
        return (1 << (length - 1)) | low


def _elias_delta_codeword(n: int) -> tuple[int, int]:
    """Elias-delta codeword of a positive integer, as (value, width)."""
    if n <= 0:
        raise DomainError(f"Elias-delta encodes positive integers, got {n}")
    nbits = n.bit_length()
    lbits = nbits.bit_length()
    # lbits - 1 zeros, nbits in lbits bits, then n below its leading 1
    low = nbits - 1
    return (nbits << low) | (n ^ (1 << low)), 2 * lbits - 1 + low


def elias_delta_encode(n: int) -> list[int]:
    """Elias-delta codeword of a positive integer, as a list of bits."""
    value, width = _elias_delta_codeword(n)
    return [(value >> s) & 1 for s in range(width - 1, -1, -1)]


def elias_delta_decode(bits: Sequence[int]) -> tuple[int, int]:
    """Decode one codeword from a bit sequence; returns (value, bits consumed)."""
    reader = BitReader(Bits(bits_to_int(bits), len(bits)))
    try:
        value = reader.read_elias_delta()
    except TruncatedStream:
        raise TruncatedStream("incomplete Elias-delta codeword") from None
    return value, reader.bits_read


def elias_delta_length(n: int) -> int:
    """Codeword length in bits: floor(log2 n) + 2*floor(log2(1 + floor(log2 n))) + 1."""
    if n <= 0:
        raise DomainError(f"Elias-delta encodes positive integers, got {n}")
    lg = n.bit_length() - 1
    return lg + 2 * ((1 + lg).bit_length() - 1) + 1


def binom(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def rank_width(n: int, k: int) -> int:
    """Bits needed for a 0-based rank among binom(n, k) subsets; 0 when only one.

    ceil(log2 binom(n, k)) from `math.lgamma`, whose error stays below 1e-6
    bits up to n = 2^24; binom itself is built past that n, for k outside
    1..n - 1, or when the estimate lies within 1e-4 of an integer.
    """
    if 0 < k < n <= 1 << 24:
        lg = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)
        low = math.floor(lg)
        if 1e-4 < lg - low < 1 - 1e-4:
            return low + 1
    return (binom(n, k) - 1).bit_length()


# Colex unranks whose C(n, k) has fewer bits than this go by exact walk
# steps only. scripts/colex_sweep.py (CPython 3.11, best of 3-9), walk
# against chunks in ms: k = n/5 crosses near 2200 bits (1.36/1.32 at 2212,
# 4.33/2.90 at 4326), k = n/2 near 4500 (3.88/4.12 at 4090, 12.4/7.9 at
# 8186), k = n/1310 near 8000 (116/193 at 2355, 832/869 at 7074, 1509/1293
# at 9433). No benchmark cell has sparse subsets to set it below 5000 on.
_UNRANK_CHUNK_MIN_BITS = 5000
# A chunk ends once the denominator of its exact ratio passes this many bits.
_CHUNK_BITS = 2048
# A guessed unrank chunk takes a member only while its margin z - 1 exceeds
# _GUESS_TOL times z's error bound in units of 2^-52: an 8-bit safety margin.
_GUESS_TOL = 2.0 ** -44


def subset_rank(n: int, subset: Iterable[int]) -> int:
    """Colex rank of a subset of {0..n-1}: sum of binom(v_i, i+1) over sorted members.

    The log2 C(n, k)-bit integer is touched once per chunk of members, by
    one divmod and two multiplies with the chunk's product of about
    `_CHUNK_BITS` bits, instead of once per position as in a walk over
    0..max(subset); each gap's factors come from `math.perm`. In CPython
    3.11 that measured 1.2-5.0 times faster than the walk at n = 128..65536.
    """
    members = sorted(subset)
    if members:
        if members[0] < 0 or members[-1] >= n:
            raise DomainError(f"subset members must lie in 0..{n - 1}")
        for a, b in zip(members, members[1:]):
            if a == b:
                raise DomainError(f"duplicate subset member {a}")
    return _rank_chunked(members)


def _rank_chunked(members: list[int]) -> int:
    """The colex sum of sorted members, with the big integer touched once per chunk.

    From the term binom(v, i+1) to the next, binom(u, i+2), the ratio is
    (v+1)...u / ((i+2) * w...(w'-1)) with w = v - i and w' = u - i - 1,
    each run of factors one `math.perm` call. Within a chunk, num/den is the
    current term over the anchor (an exact term, log2 C(n, k) bits at most)
    and part/den is the chunk's sum over it; closing the chunk adds
    anchor * part / den to the rank and moves the anchor to
    anchor * num / den.
    """
    k = len(members)
    i = 0
    while i < k and members[i] == i:  # binom(i, i+1) = 0
        i += 1
    if i == k:
        return 0
    v = members[i]
    w = v - i
    anchor = math.comb(v, i + 1)
    rank = 0
    num = den = part = 1
    for j in range(i + 1, k):
        u = members[j]
        wu = u - j
        p = math.perm(u, u - v)  # (v+1)...u
        q = (j + 1) * math.perm(wu - 1, wu - w)  # (j+1) * w...(wu-1)
        num *= p
        den *= q
        part = part * q + num
        v, w = u, wu
        if den.bit_length() > _CHUNK_BITS:
            taken, anchor = _close_chunk(anchor, part, num, den)
            rank += taken
            num = den = 1
            part = 0
    return rank + _close_chunk(anchor, part, num, den)[0]


def _close_chunk(anchor: int, part: int, num: int, den: int) -> tuple[int, int]:
    """(anchor * part / den, anchor * num / den), both exact integers, from
    one divmod and two multiplies of the big anchor."""
    a, r = divmod(anchor, den)
    return a * part + r * part // den, a * num + r * num // den


def subset_unrank(n: int, k: int, rank: int, total: int | None = None) -> tuple[int, ...]:
    """Inverse of :func:`subset_rank` for k-subsets of {0..n-1}.

    `total` is C(n, k) when the caller has built it already. From
    `_UNRANK_CHUNK_MIN_BITS` bits of C(n, k) on, :func:`_unrank` guesses chunks.
    """
    if k < 0 or k > n:
        raise DomainError(f"k must lie in 0..{n}, got {k}")
    if total is None:
        total = binom(n, k)
    if rank < 0 or rank >= total:
        raise RankOutOfRange(f"rank {rank} outside 0..{total - 1}")
    if not k:
        return ()
    top = total * (n - k) // n  # binom(n - 1, k)
    return _unrank(n, k, rank, top, total.bit_length() >= _UNRANK_CHUNK_MIN_BITS)


def _unrank(n: int, k: int, rank: int, anchor: int, chunks: bool) -> tuple[int, ...]:
    """The k-subset of colex rank `rank`, its members found from the largest down.

    The state is (y, s, R, A): s members are left, all at most y, they
    must sum to R < binom(y + 1, s), and A = binom(y, s). The exact walk
    step lowers v from y while A = binom(v, s) > R, by
    binom(v - 1, s) = A * (v - s) / v, takes the v it stops at, and moves
    to (v - 1, s - 1, R - A, A * s / v). It touches the big A once per
    position it passes.

    With `chunks`, each round first guesses a chunk of members from the
    float z = R / A: the next is the largest v <= y with
    z * binom(y, s) / binom(v, s) >= 1, and taking it maps z to
    (z - 1) * v / s. The chunk ends before a v whose z, or z at v + 1, lies
    within rounding of 1. num/den and part/den track binom(y, s) / A and
    the sum taken over A exactly, as in :func:`_rank_chunked`. By the
    uniqueness of the combinatorial number system (TAOCP 7.2.1.3) the
    guesses are the unrank's members iff what is left of R lies in
    [0, binom(v, s)), v the last guess and s the count still to find; a
    chunk that fails is dropped for one exact walk step.
    """
    out: list[int] = []
    y, s, R = n - 1, k, rank
    while s:
        if not R:  # every remaining term is binom(i, i+1) = 0
            out.extend(range(s - 1, -1, -1))
            break
        if chunks:
            z = R / anchor
            err = 1.0  # bound on the relative error of z, in units of 2^-52
            num, den, part = 1, 1, 0
            start, top, left = len(out), y, s
            while s and den.bit_length() <= _CHUNK_BITS:
                v, w = y, 0.0  # w: z one position up, at v + 1
                while z < 1.0 and v > s:
                    w = z
                    z *= v / (v - s)
                    v -= 1
                e = z * (err + y - v + 2)  # each float step rounds twice
                d = z - 1.0
                if d <= e * _GUESS_TOL or 1.0 - w <= e * _GUESS_TOL:
                    break
                err = e / d
                if v < y:
                    # binom(v, s) / binom(y, s) = dn / up
                    up = math.perm(y, y - v)  # (v+1)...y
                    dn = math.perm(y - s, y - v)  # (v+1-s)...(y-s)
                    part = (part * up + num * dn) * v
                    num *= dn * s
                    den *= up * v
                else:
                    part = (part + num) * v
                    num *= s
                    den *= v
                out.append(v)
                z = d * v / s
                y, s = v - 1, s - 1
            if len(out) > start:
                taken, low = _close_chunk(anchor, part, num, den)
                rest = R - taken
                # rest < binom(y + 1, s) = low * (y + 1) / (y + 1 - s)
                if rest >= 0 and rest * (y + 1 - s) < low * (y + 1):
                    R, anchor = rest, low
                    continue
                del out[start:]
                y, s = top, left
        v = y
        while anchor > R:
            anchor = anchor * (v - s) // v
            v -= 1
        out.append(v)
        R -= anchor
        anchor = anchor * s // v  # binom(v - 1, s - 1)
        y, s = v - 1, s - 1
    return tuple(reversed(out))
