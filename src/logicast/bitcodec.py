"""Bit-level coding primitives: Elias-delta integers and enumerative subset codes.

Every multi-bit field is written most-significant-bit first, and bytes are
filled from bit 7 downward; the final byte is zero-padded. A bit string is
held as one integer plus its length (:class:`Bits`), so fields are written
and read with one shift each. A subset rank is a 0-based index among the
k-subsets of {0, ..., n-1}, in one of two orders: the halving order of
:func:`subset_rank` and :func:`subset_unrank`, which `protocols` states
and writes, and the colexicographic order, which :func:`colex_unrank`
reads back from older streams.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


def _shown(value: int) -> str:
    """An int for an error message: str() refuses ints past 4300 digits,
    so a long one shows its bit length."""
    return str(value) if abs(value) < 1 << 64 else f"of {value.bit_length()} bits"


@dataclass(frozen=True)
class Bits:
    """A packed bit string: `nbits` bits held MSB-first in one integer."""

    value: int
    nbits: int

    def __post_init__(self) -> None:
        if self.nbits < 0 or self.value < 0 or self.value >> self.nbits:
            raise DomainError(f"value {_shown(self.value)} is not a {self.nbits}-bit string")

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

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise DomainError(f"bit must be 0 or 1, got {bit!r}")
        self.write_bits(int(bit), 1)

    def write_bits(self, value: int, width: int) -> None:
        """Write `value` in exactly `width` bits, big-endian."""
        if width < 0:
            raise DomainError(f"width must be >= 0, got {width}")
        if value < 0 or value >> width:
            raise WidthOverflow(f"value {_shown(value)} does not fit in {width} bits")
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

    def __init__(self, data: bytes | Bits) -> None:
        if isinstance(data, Bits):
            self._value, self._end = data.value, data.nbits
        else:
            self._value, self._end = int.from_bytes(data, "big"), 8 * len(data)
        self._pos = 0

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
    """C(n, k), exactly; 0 when k > n.

    From `_UNRANK_CHUNK_MIN_BITS` bits on (by the `math.lgamma` estimate),
    C(n, k) is built from prime powers by :func:`_prime_power_binom`, which
    never divides a big integer. `math.comb` wins on small values and on
    sparse k: values of fewer than n / log2(n) bits stay on it, because the
    prime path touches all n / ln(n) primes up to n. Timings:
    `scripts/sweep.py ranked` and BENCH_25_binom_prime_powers.json.
    """
    n, k = operator.index(n), operator.index(k)  # numpy ints too, as math.comb takes
    if n < 0 or k < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return 0
    lg = _log2_binom(n, k)
    if lg < _UNRANK_CHUNK_MIN_BITS or lg * n.bit_length() < n:
        return math.comb(n, k)
    return _prime_power_binom(n, k)


def _log2_binom(n: int, k: int) -> float:
    """log2 C(n, k) from `math.lgamma`, for 0 <= k <= n."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


# (limit, every prime up to limit as an int64 array): grown by _primes_upto
# to the largest n it is asked for, never at import. Its contents depend on
# the limit alone, so callers cannot see each other through it.
_sieve: tuple[int, np.ndarray] = (1, np.zeros(0, dtype=np.int64))


def _primes_upto(n: int) -> np.ndarray:
    """The primes up to n in ascending order, from a cached numpy sieve."""
    global _sieve
    limit, primes = _sieve
    if n > limit:
        is_prime = np.ones(n + 1, dtype=bool)
        is_prime[:2] = False
        is_prime[4::2] = False
        for p in range(3, math.isqrt(n) + 1, 2):
            if is_prime[p]:
                is_prime[p * p :: 2 * p] = False
        primes = np.flatnonzero(is_prime).astype(np.int64, copy=False)
        if n > _sieve[0]:  # another thread may have sieved further meanwhile
            _sieve = (n, primes)
    return primes[: np.searchsorted(primes, n, side="right")]


def _prime_power_binom(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n as a balanced product of prime powers p^e.

    e is Legendre's sum over i >= 1 of floor(n / p^i) - floor(k / p^i) -
    floor((n - k) / p^i) (Goetgheluck 1987). Each term is 1 exactly when
    n mod p^i < k mod p^i, a carry when adding k and n - k in base p
    (Kummer), so p^e <= n: the factors are multiplied pairwise as int64
    while the products stay below 2^62, then pairwise as Python ints.
    Only primes up to sqrt(n) have i >= 2 terms, summed here in Python.
    """
    primes = _primes_upto(n)
    e = (n % primes < k % primes).astype(np.int64)
    higher = []
    for p in primes[: np.searchsorted(primes, math.isqrt(n), side="right")].tolist():
        c, q = 0, p * p
        while q <= n:
            c += n % q < k % q
            q *= p
        higher.append(c)
    e[: len(higher)] += np.array(higher, dtype=np.int64)
    some = e > 0
    factors = primes[some] ** e[some]
    bound = n  # no factor exceeds it
    while factors.size > 1 and bound < 1 << 31:
        if factors.size & 1:
            factors = np.append(factors, 1)
        factors = factors[0::2] * factors[1::2]
        bound *= bound
    xs = factors.tolist() or [1]
    while len(xs) > 1:
        if len(xs) & 1:
            xs.append(1)
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])]
    return xs[0]


def rank_width(n: int, k: int) -> int:
    """Bits needed for a 0-based rank among binom(n, k) subsets; 0 when only one.

    ceil(log2 binom(n, k)) from `math.lgamma`, whose error stays below 1e-6
    bits up to n = 2^24; binom itself is built past that n, for k outside
    1..n - 1, or when the estimate lies within 1e-4 of an integer.  k > n
    has no subsets to rank and raises `DomainError`.
    """
    if k > n:
        raise DomainError(f"no {k}-subsets of {n} elements to rank")
    if 0 < k < n <= 1 << 24:
        lg = _log2_binom(n, k)
        low = math.floor(lg)
        if 1e-4 < lg - low < 1 - 1e-4:
            return low + 1
    return (binom(n, k) - 1).bit_length()


def subset_rank(n: int, subset: Iterable[int]) -> int:
    """Rank of a subset of {0..n-1} in the halving order (`protocols` states it).

    Up to `_LEAF` candidates the rank is colex, the sum of binom(v_i, i+1)
    over sorted members, read from `_PASCAL`. Above, the members below
    h = n // 2 and the rest are ranked on their own, so the big integers
    are built by multiplying halves instead of one colex term at a time.
    Timings: `scripts/sweep.py ranked`.
    """
    members = sorted(subset)
    if members:
        if members[0] < 0 or members[-1] >= n:
            raise DomainError(f"subset members must lie in 0..{n - 1}")
        for a, b in zip(members, members[1:]):
            if a == b:
                raise DomainError(f"duplicate subset member {a}")
    return _rank_halves(n, members, 0, len(members), 0, {})


def subset_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_rank` for k-subsets of {0..n-1}.

    :func:`binom` builds C(n, k) once, to refuse a rank past the last
    subset; below the root, a binomial is stepped from the last one of its
    size or built afresh.
    """
    _check_rank(n, k, rank)
    out: list[int] = []
    _unrank_halves(n, k, rank, 0, out, {})
    return tuple(out)


def _check_rank(n: int, k: int, rank: int) -> int:
    """C(n, k), after refusing a k outside 0..n or a rank outside 0..C(n, k) - 1."""
    if k < 0 or k > n:
        raise DomainError(f"k must lie in 0..{n}, got {k}")
    total = binom(n, k)
    if rank < 0 or rank >= total:
        raise RankOutOfRange(f"rank {_shown(rank)} outside 0..C({n}, {k}) - 1")
    return total


# Subsets of at most _LEAF candidates rank in colex order from _PASCAL, which
# holds C(v, j) for 0 <= v, j <= 64, each below 2^61.
_LEAF = 64
_PASCAL = tuple(tuple(math.comb(v, j) for j in range(65)) for v in range(65))


def _split(n: int, k: int) -> tuple[int, int, int]:
    """(h, n - h, m0): the halves of n candidates and the first block's count."""
    h = n // 2
    return h, n - h, min(max(k * h // n, k - (n - h), 0), k, h)


def _blocks(h: int, g: int, k: int, m0: int, t: int):
    """(a, T(a)) in the halving order, from T(m0) = t: the counts a of members
    below h, with T(a) = C(h, a) * C(g, k - a) subsets each, g = n - h."""
    lo, hi = max(0, k - g), min(k, h)
    yield m0, t
    up = down = m0
    t_up = t_down = t
    while up < hi or down > lo:
        if up < hi:
            t_up = t_up * ((h - up) * (k - up)) // ((up + 1) * (g - k + up + 1))
            up += 1
            yield up, t_up
        if down > lo:
            t_down = t_down * (down * (g - k + down)) // ((h - down + 1) * (k - down + 1))
            down -= 1
            yield down, t_down


def _binom_near(size: int, j: int, cache: dict[int, tuple[int, int]]) -> int:
    """C(size, j): from `_PASCAL`, stepped from the cached binomial of this
    size, or from :func:`binom` when that is more than size / 32 steps away.

    A step is one multiply and one exact division by small ints. A fresh
    binom of C(size, size / 5) cost about size / 25 steps at sizes
    256..4096 and 55 to 75 steps at 8192..32768, where it is the
    prime-power product (process time, 2-core VM).
    """
    if size < len(_PASCAL):
        return _PASCAL[size][j]
    last = cache.get(size)
    if last is None or abs(last[0] - j) > size >> 5:
        c = binom(size, j)
    else:
        i, c = last
        for v in range(i, j):
            c = c * (size - v) // (v + 1)
        for v in range(i, j, -1):
            c = c * v // (size - v + 1)
    cache[size] = (j, c)
    return c


def _rank_halves(n: int, members: list[int], i: int, j: int, base: int, cache) -> int:
    """The halving rank of members[i:j] - base, a subset of {0..n-1}."""
    k = j - i
    if k == 0 or k == n:
        return 0
    if n <= _LEAF:
        return sum(_PASCAL[members[i + s] - base][s + 1] for s in range(k))
    h, g, m0 = _split(n, k)
    mid = bisect_left(members, base + h, i, j)
    a = mid - i
    rank = _rank_halves(h, members, i, mid, base, cache)
    if a != m0:
        t = _binom_near(h, m0, cache) * _binom_near(g, k - m0, cache)
        for b, t in _blocks(h, g, k, m0, t):
            if b == a:
                break
            rank += t
    high = _rank_halves(g, members, mid, j, base + h, cache)
    return rank + high * _binom_near(h, a, cache)


def _unrank_halves(n: int, k: int, rank: int, base: int, out: list[int], cache) -> None:
    """Append the k-subset of {0..n-1} of halving rank `rank`, plus base, to out."""
    if k == 0:
        return
    if k == n:
        out.extend(range(base, base + n))
        return
    if n <= _LEAF:
        found = []
        v = n - 1
        for s in range(k, 0, -1):
            while _PASCAL[v][s] > rank:
                v -= 1
            rank -= _PASCAL[v][s]
            found.append(base + v)
            v -= 1
        out.extend(reversed(found))
        return
    h, g, m0 = _split(n, k)
    t = _binom_near(h, m0, cache) * _binom_near(g, k - m0, cache)
    for a, t in _blocks(h, g, k, m0, t):
        if rank < t:
            break
        rank -= t
    high, low = divmod(rank, _binom_near(h, a, cache))
    _unrank_halves(h, a, low, base, out, cache)
    _unrank_halves(g, k - a, high, base + h, out, cache)


# --------------------------------------------------------------------------
# the colex order, codec id 0: decoders still read it

# Colex unranks whose C(n, k) has fewer bits than this go by exact walk
# steps only. The walk/chunk crossover moves with k / n, from below 4090
# bits at k = n/2 to between 2355 and 7074 at k = n/1310
# (BENCH_22_colex_lowest_terms.json), and no benchmark cell has sparse
# subsets to set it below 5000 on. binom builds a C(n, k) of
# fewer bits with math.comb.
_UNRANK_CHUNK_MIN_BITS = 5000
# A chunk ends once the denominator of its exact ratio passes this many bits.
_CHUNK_BITS = 2048
# A guessed unrank chunk takes a member only while its margin z - 1 exceeds
# _GUESS_TOL times z's error bound in units of 2^-52: an 8-bit safety margin.
_GUESS_TOL = 2.0 ** -44


def colex_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The k-subset of {0..n-1} whose colex rank, sum of binom(v_i, i+1) over
    sorted members, is `rank`.

    :func:`binom` builds C(n, k), from prime powers past its size bound. From
    `_UNRANK_CHUNK_MIN_BITS` bits of C(n, k) on, :func:`_unrank` guesses chunks.
    """
    total = _check_rank(n, k, rank)
    if not k:
        return ()
    top = total * (n - k) // n  # binom(n - 1, k)
    return _unrank(n, k, rank, top, total.bit_length() >= _UNRANK_CHUNK_MIN_BITS)


def _close_chunk(anchor: int, part: int, num: int, den: int) -> tuple[int, int]:
    """(anchor * part / den, anchor * num / den), both exact integers, from
    one divmod and two multiplies of the big anchor.

    When the anchor is longer than den, the chunk's ratios are first put in
    lowest terms, which shortens the divisor of the long anchor: at
    n = 16384, k = 3276 that took 40% of den's bits off in the unrank
    (BENCH_22_colex_lowest_terms.json). A shorter anchor skips the gcd,
    which costs more than it saves there.
    """
    if anchor.bit_length() > den.bit_length():
        g = math.gcd(num, part, den)
        num, part, den = num // g, part // g, den // g
    a, r = divmod(anchor, den)
    return a * part + r * part // den, a * num + r * num // den


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
    the sum taken over A exactly. By the uniqueness of the combinatorial
    number system (TAOCP 7.2.1.3) the guesses are the unrank's members iff
    what is left of R lies in [0, binom(v, s)), v the last guess and s the
    count still to find; a chunk that fails is dropped for one exact walk
    step.
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
