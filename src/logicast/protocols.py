"""Wire protocols for shipping algebraic sets between two parties.

Five scenarios share one envelope.  A transmission is a 24 byte header
(magic, scenario tag, codec id, universe size m, seed, four quantized
law parameters) followed by a self-delimiting payload bit stream:

* t1: the whole zero set, sent as size plus combinatorial rank.
* t2: the zero set ranked inside the background's zero set, which both
  parties can enumerate.
* t3: the same bits as t2; the decoder additionally strips everything
  the background already proves and hands back only the increment.
* t4: a partition codeword for the ternary vector psi(s, q), letting
  the reconstruction land anywhere between Z(s) and Z(q).
* t5: psi(s, q) split along the background's zero set, each part coded
  with its own codebook so conditional densities can differ.

t1 and t4 are t2 and t5 against the empty background, whose zero set is
every assignment: one ranked layout and one split-partition layout carry
all five scenarios, and only the tag byte and t1's zero background
density in the header tell them apart.

Payloads are decodable from the header plus whatever the decoder is
assumed to know already (the background r for t2, t3, t5).  Nothing in
the stream is byte-padded except the tail of each payload, so
transmissions concatenate cleanly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algset import M_MAX, AlgSet, entails, reconstruct, zeros
from .bitcodec import (
    Bits,
    BitReader,
    BitWriter,
    binom,
    bits_to_int,
    rank_width,
    subset_rank,
    subset_unrank,
)
from .errors import (
    DomainError,
    MalformedCodeword,
    MalformedHeader,
    NotEntailed,
    TruncatedStream,
)
from .groebner import delta
from .partition import (
    SharedRandomness,
    TernaryVector,
    linear_decode,
    linear_encode,
    random_decode,
    random_encode,
    read_codeword,
)
from .poly import PolySet
from .randomness import MASK64, derive_seed

MAGIC = b"LGC1"
# magic, scenario tag, codec id, m, seed, four law parameters; big-endian
_HEADER = struct.Struct(">4sBBHQ4H")
HEADER_BYTES = _HEADER.size

SCENARIOS = ("t1", "t2", "t3", "t4", "t5")
_TAG_OF = {name: i for i, name in enumerate(SCENARIOS, 1)}
_NAME_OF = {v: k for k, v in _TAG_OF.items()}
# Partition codec names, in the order of their header ids 1, 2, ...
CODECS = ("random", "linear")
_CODEC_ID = {None: 0, **{name: i for i, name in enumerate(CODECS, 1)}}
_CODEC_NAME = {v: k for k, v in _CODEC_ID.items()}

# Scenarios that code psi(s, q) with a partition codec, so take a codec and
# a query; and scenarios whose decoder holds the shared background r.
PARTITION_SCENARIOS = ("t4", "t5")
BACKGROUND_SCENARIOS = ("t2", "t3", "t5")

# Law parameters ride in the header as 16-bit fixed point, value/65536.
PARAM_SCALE = 65536


def quantize_param(p: float) -> int:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"law parameter out of range: {p}")
    return min(PARAM_SCALE - 1, round(p * PARAM_SCALE))


@dataclass(frozen=True)
class Transmission:
    scenario: str
    m: int
    codec: str | None
    seed: int
    params: tuple[int, int, int, int]
    payload: Bits

    def __post_init__(self) -> None:
        if self.scenario not in _TAG_OF:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.codec not in _CODEC_ID:
            raise DomainError(f"unknown codec {self.codec!r}")
        if (self.codec is None) == (self.scenario in PARTITION_SCENARIOS):
            raise DomainError("codec choice and scenario disagree")
        if not 1 <= self.m <= M_MAX:
            raise DomainError(f"universe size {self.m} unsupported")
        if not 0 <= self.seed <= MASK64:
            raise DomainError("seed must fit in 64 bits")
        if len(self.params) != 4 or any(
            not 0 <= p < PARAM_SCALE for p in self.params
        ):
            raise DomainError("law parameters must be four 16-bit values")

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(
            MAGIC, _TAG_OF[self.scenario], _CODEC_ID[self.codec], self.m,
            self.seed, *self.params,
        )
        return head + self.payload.to_bytes()


# --------------------------------------------------------------------------
# count + rank codeword: a k-subset of {0..n-1} as elias(k + 1), then its
# colex rank in rank_width(n, k) bits


def _write_ranked(writer: BitWriter, n: int, members: list[int]) -> None:
    writer.write_elias_delta(len(members) + 1)
    writer.write_bits(subset_rank(n, members), rank_width(n, len(members)))


def _read_ranked(reader: BitReader, n: int) -> tuple[int, int, int]:
    """(k, rank, C(n, k)) of one count + rank codeword over n candidates.

    A truncated or malformed field is re-raised with the field's name and
    the reader's bit offset where it began.
    """
    at = reader.bits_read
    try:
        k = reader.read_elias_delta() - 1
        if k > n:
            raise MalformedCodeword(f"zero set size {k} exceeds the {n} candidates")
    except (TruncatedStream, MalformedCodeword) as exc:
        raise type(exc)(f"{exc} (zero set size at bit {at})") from None
    at = reader.bits_read
    # C(n, k) >= (n // k')^k', k' = min(k, n - k): check before building C(n, k)
    k_low = min(k, n - k)
    try:
        if k_low and reader.bits_left < k_low * ((n // k_low).bit_length() - 1):
            raise TruncatedStream("bit stream exhausted")
        total = binom(n, k)
        return k, reader.read_bits((total - 1).bit_length()), total
    except TruncatedStream as exc:
        raise TruncatedStream(f"{exc} (rank at bit {at})") from None


# --------------------------------------------------------------------------
# the ternary source


def psi(s: PolySet, q: PolySet) -> TernaryVector:
    """Ternary vector with 0 on Z(s), 1 outside Z(q), free between.

    Well defined because entailment makes Z(s) and the complement of
    Z(q) disjoint.
    """
    if s.m != q.m:
        raise DomainError(f"universe mismatch: {s.m} vs {q.m}")
    if not entails(s, q):
        raise NotEntailed("statements do not entail the query")
    vals = np.full(1 << s.m, 2, dtype=np.int8)
    vals[~zeros(q).to_bool_array()] = 1
    vals[zeros(s).to_bool_array()] = 0
    return TernaryVector(vals)


def _empirical_pair(entries: np.ndarray) -> tuple[float, float]:
    # densities of the zero side and of the query's zero set, read off
    # the vector itself so encoder defaults need no law input; an empty
    # side reads (0, 0)
    ln = entries.size
    if not ln:
        return 0.0, 0.0
    z = int(np.count_nonzero(entries == 0))
    o = int(np.count_nonzero(entries == 1))
    return z / ln, (ln - o) / ln


# --------------------------------------------------------------------------
# t1/t2/t3: the zero set ranked inside the background's zero set


def t1_encode(s: PolySet, seed: int = 0, p_s: float | None = None) -> Transmission:
    # the empty background; its density 0.0 keeps header slot 1 at 0
    return _ranked_within(s, PolySet(s.m, frozenset()), "t1", seed, p_s, 0.0)


def t1_decode(tx: Transmission) -> PolySet:
    return _ranked_decode(tx, PolySet(tx.m, frozenset()), ("t1",))


def t2_encode(
    s: PolySet,
    r: PolySet,
    seed: int = 0,
    p_s: float | None = None,
    p_r: float | None = None,
) -> Transmission:
    """Rank Z(s) within the shared enumeration of Z(r)."""
    return _ranked_within(s, r, "t2", seed, p_s, p_r)


def t3_encode(
    s: PolySet,
    r: PolySet,
    seed: int = 0,
    p_s: float | None = None,
    p_r: float | None = None,
) -> Transmission:
    # the encoder is t2's; only the tag tells the decoder to diff
    return _ranked_within(s, r, "t3", seed, p_s, p_r)


def _ranked_within(
    s: PolySet,
    r: PolySet,
    scenario: str,
    seed: int,
    p_s: float | None,
    p_r: float | None,
) -> Transmission:
    if s.m != r.m:
        raise DomainError(f"universe mismatch: {s.m} vs {r.m}")
    zs, zr = zeros(s), zeros(r)
    if not zs.issubset(zr):
        raise NotEntailed("statements do not entail the background")
    ranked = np.flatnonzero(zs.to_bool_array()[zr.to_bool_array()]).tolist()
    body = BitWriter()
    _write_ranked(body, zr.size, ranked)
    n = 1 << s.m
    dens_s = p_s if p_s is not None else zs.size / n
    dens_r = p_r if p_r is not None else zr.size / n
    return Transmission(
        scenario,
        s.m,
        None,
        seed,
        (quantize_param(dens_s), quantize_param(dens_r), 0, 0),
        body.to_bits(),
    )


def _check_decode(tx: Transmission, r: PolySet, scenarios: tuple[str, ...]) -> None:
    if tx.scenario not in scenarios:
        raise DomainError(
            f"expected a {'/'.join(scenarios)} transmission, got {tx.scenario}"
        )
    if r.m != tx.m:
        raise DomainError(f"background universe {r.m} does not match header {tx.m}")


def _ranked_decode(tx: Transmission, r: PolySet, scenarios: tuple[str, ...]) -> PolySet:
    _check_decode(tx, r, scenarios)
    points = np.flatnonzero(zeros(r).to_bool_array())
    n = points.size
    members = subset_unrank(n, *_read_ranked(BitReader(tx.payload), n))
    mask = np.zeros(1 << tx.m, dtype=bool)
    mask[points[list(members)]] = True
    return reconstruct(AlgSet.from_bool_array(tx.m, mask))


def t2_decode(tx: Transmission, r: PolySet) -> PolySet:
    return _ranked_decode(tx, r, ("t2", "t3"))


def t3_decode(tx: Transmission, r: PolySet) -> PolySet:
    """Decode, then keep only what the background does not already prove."""
    return delta(t2_decode(tx, r), r)


# --------------------------------------------------------------------------
# t4/t5: psi(s, q) split along the background's zero set, one partition
# codeword per non-empty side: inside Z(r) under the seed, then outside
# under a derived seed


def _side_shared(seed: int, q_zero: int, q_query: int) -> SharedRandomness:
    # q_query < PARAM_SCALE always, so the one-density never quantizes
    # to zero and the fraction below is well defined
    q_one = PARAM_SCALE - q_query
    return SharedRandomness(seed, Fraction(q_zero, q_zero + q_one))


def _codec(name: str):
    """The (encode, decode) pair of a partition codec, looked up at call time."""
    pairs = {"random": (random_encode, random_decode), "linear": (linear_encode, linear_decode)}
    if name not in pairs:
        raise DomainError(f"unknown codec {name!r}")
    return pairs[name]


def t4_encode(
    s: PolySet,
    q: PolySet,
    codec: str = "linear",
    seed: int = 0,
    p_s: float | None = None,
    p_q: float | None = None,
) -> Transmission:
    """Partition codeword for psi(s, q); decoder lands between s and q."""
    empty = PolySet(s.m, frozenset())
    return _split_encode("t4", s, q, empty, codec, seed, (p_s, p_q, None, None))


def t4_decode(tx: Transmission) -> PolySet:
    return _split_decode(tx, PolySet(tx.m, frozenset()), ("t4",))


def t5_encode(
    s: PolySet,
    q: PolySet,
    r: PolySet,
    codec: str = "linear",
    seed: int = 0,
    conditionals: tuple[float, float, float, float] | None = None,
) -> Transmission:
    """Code psi(s, q) separately inside and outside Z(r).

    The background may contradict s; the split only changes which
    codebook covers each coordinate, so the sandwich survives
    misinformation.  An empty side contributes no payload bits.
    """
    return _split_encode("t5", s, q, r, codec, seed, conditionals or (None,) * 4)


def _split_encode(
    scenario: str, s: PolySet, q: PolySet, r: PolySet, codec: str, seed: int,
    conditionals: tuple[float | None, ...],
) -> Transmission:
    # a law parameter given as None is read off its side of the vector
    x = psi(s, q)
    if r.m != s.m:
        raise DomainError(f"universe mismatch: {s.m} vs {r.m}")
    mask = zeros(r).to_bool_array()
    sides = (x.entries[mask], x.entries[~mask])
    empirical = (*_empirical_pair(sides[0]), *_empirical_pair(sides[1]))
    qp = tuple(
        quantize_param(e if c is None else c) for c, e in zip(conditionals, empirical)
    )
    encode, _ = _codec(codec)
    body = BitWriter()
    for k, side_seed in enumerate((seed, derive_seed(seed, 1))):
        if sides[k].size:
            shared = _side_shared(side_seed, *qp[2 * k : 2 * k + 2])
            bits = encode(TernaryVector(sides[k]), shared)
            body.write_bits(bits_to_int(bits), len(bits))
    return Transmission(scenario, s.m, codec, seed, qp, body.to_bits())


def _split_decode(tx: Transmission, r: PolySet, scenarios: tuple[str, ...]) -> PolySet:
    _check_decode(tx, r, scenarios)
    _, decode = _codec(tx.codec)
    mask = zeros(r).to_bool_array()
    reader = BitReader(tx.payload)
    y = np.empty(mask.size, dtype=np.uint8)
    for k, side_seed in enumerate((tx.seed, derive_seed(tx.seed, 1))):
        side = mask if k == 0 else ~mask
        n = int(np.count_nonzero(side))
        if n:
            shared = _side_shared(side_seed, *tx.params[2 * k : 2 * k + 2])
            y[side] = decode(reader, n, shared)
    return reconstruct(AlgSet.from_bool_array(tx.m, y == 0))


def t5_decode(tx: Transmission, r: PolySet) -> PolySet:
    return _split_decode(tx, r, ("t5",))


# --------------------------------------------------------------------------
# stream framing


def _scan_payload(
    scenario: str, codec: str | None, m: int, reader: BitReader, r: PolySet | None
) -> None:
    if scenario not in BACKGROUND_SCENARIOS:
        r = PolySet(m, frozenset())
    elif r is None:
        raise DomainError(f"{scenario} payloads delimit only with the background")
    inner = zeros(r).size
    if scenario in PARTITION_SCENARIOS:
        for side in (inner, (1 << m) - inner):
            if side:
                read_codeword(reader, codec)
    else:
        _read_ranked(reader, inner)


def peek_header(data: bytes, offset: int = 0) -> tuple[str, str | None, int]:
    """Validate a header and return (scenario, codec, universe size).

    Lets a caller learn the universe size before committing to a full
    parse, e.g. to read the background statements the payload needs.
    """
    if len(data) - offset < HEADER_BYTES:
        raise MalformedHeader("truncated header")
    magic, tag, codec_id, m = _HEADER.unpack_from(data, offset)[:4]
    if magic != MAGIC:
        raise MalformedHeader(f"bad magic {magic!r}")
    if tag not in _NAME_OF:
        raise MalformedHeader(f"unknown scenario tag {tag}")
    scenario = _NAME_OF[tag]
    if codec_id not in _CODEC_NAME:
        raise MalformedHeader(f"unknown codec id {codec_id}")
    codec = _CODEC_NAME[codec_id]
    if (codec is None) == (scenario in PARTITION_SCENARIOS):
        raise MalformedHeader("codec id inconsistent with scenario tag")
    if not 1 <= m <= M_MAX:
        raise MalformedHeader(f"universe size {m} unsupported")
    return scenario, codec, m


def read_transmission(
    data: bytes, offset: int = 0, r: PolySet | None = None
) -> tuple[Transmission, int]:
    """Parse one transmission; returns it plus the offset just past it.

    Scenarios whose payload geometry depends on the background need r
    to find their own end.
    """
    scenario, codec, m = peek_header(data, offset)
    if r is not None and r.m != m:
        raise DomainError(f"background universe {r.m} does not match header {m}")
    seed, *params = _HEADER.unpack_from(data, offset)[4:]
    # a reader from the payload's first bit: error offsets match t1_decode's
    body = data[offset + HEADER_BYTES:]
    scanner = BitReader(body)
    _scan_payload(scenario, codec, m, scanner, r)
    nbits = scanner.bits_read
    payload = Bits(BitReader(body).read_bits(nbits), nbits)
    tx = Transmission(scenario, m, codec, seed, tuple(params), payload)
    return tx, offset + HEADER_BYTES + (nbits + 7) // 8
