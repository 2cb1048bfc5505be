"""Acceptance checks: one test per numbered criterion, at stated tolerances."""

import itertools
import math
import random
import time

import numpy as np
import pytest

from logicast.algset import AlgSet, entails, reconstruct, zeros
from logicast.bitcodec import (
    BitReader,
    BitWriter,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
)
from logicast.groebner import entails_groebner
from logicast.partition import (
    FREE,
    SharedRandomness,
    TernaryVector,
    cw_check,
    cw_matrix,
    random_decode,
    random_encode,
    total_distortion,
)
from logicast.poly import Poly, PolySet
from logicast.protocols import t2_encode, t3_decode, t3_encode
from logicast.simlab import DEFAULT_MATRIX, run_trials, sweep_lambda_vs_naive

V = Poly.variable

# Two renderings of the same three-variable knowledge: not all true, not
# all false.  The second is the symmetric-polynomial form.
ALICE_PAIR = PolySet.of(3, [
    V(1) * V(2) * V(3),
    (Poly.one() + V(1)) * (Poly.one() + V(2)) * (Poly.one() + V(3)),
])
ALICE_SINGLE = PolySet.of(3, [Poly(frozenset([3, 5, 6, 1, 2, 4, 0]))])

WEIGHT2_4X6 = [
    [0, 0, 0, 1, 1, 1],
    [0, 1, 1, 0, 1, 0],
    [1, 0, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 1],
]


def _reader(bits):
    w = BitWriter()
    for b in bits:
        w.write_bit(b)
    return BitReader(w.to_bytes())


@pytest.fixture(scope="module")
def matrix_reports():
    """Run every default-matrix cell once; criteria 1, 2 and 10 share it."""
    out = {}
    for scenario, law, m, codec, trials in DEFAULT_MATRIX:
        start = time.perf_counter()
        rep = run_trials(scenario, law, m, trials=trials, codec=codec, seed=0)
        out[(scenario, m, codec)] = (rep, time.perf_counter() - start)
    return out


def test_criterion_01_t1_rate_near_entropy(matrix_reports):
    rep, seconds = matrix_reports[("t1", 12, None)]
    assert rep.trials == 200
    assert 0.702 <= rep.mean_rate <= 0.742
    assert rep.upper_bound == pytest.approx(0.726866, abs=5e-4)
    assert rep.mean_rate <= rep.upper_bound
    assert seconds < 30.0
    print(f"criterion 1: PASS mean={rep.mean_rate:.6f} "
          f"<= {rep.upper_bound:.6f}, {seconds:.1f}s")


def test_criterion_02_t4_linear_rate(matrix_reports):
    rep, _ = matrix_reports[("t4", 12, "linear")]
    # run_trials aborts on any sandwich breach, so a full report means the
    # sandwich held on 100% of trials.
    assert rep.trials == 100
    assert 0.48 <= rep.mean_rate <= 0.5056
    print(f"criterion 2: PASS mean={rep.mean_rate:.6f}, "
          f"gap to Lambda(0.25,0.25)=0.5 is {rep.gap:.6f}")


def test_criterion_03_random_codec_short_codewords():
    rng = random.Random(303)
    shared = SharedRandomness.for_law(99, 0.25, 0.25)
    lengths = []
    for _ in range(100):
        vals = []
        for _ in range(16):
            u = rng.random()
            vals.append(0 if u < 0.25 else 1 if u < 0.5 else FREE)
        x = TernaryVector(vals)
        bits = random_encode(x, shared)
        lengths.append(len(bits))
        y = random_decode(_reader(bits), 16, shared)
        assert total_distortion(x, y) == 0
    mean = sum(lengths) / len(lengths)
    assert mean <= 17.0
    print(f"criterion 3: PASS mean codeword {mean:.2f} bits <= 17")


def test_criterion_04_lambda_beats_naive_on_sweep():
    axis = [round(0.02 * i, 10) for i in range(1, 21)]
    text = sweep_lambda_vs_naive([(a, b) for a in axis for b in axis])
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 400
    for row in rows:
        p_a, p_b, h_a, h_b, _, lam = (float(x) for x in row.split(","))
        assert p_a + p_b < 1.0
        assert lam < min(h_a, h_b)
    print("criterion 4: PASS Lambda < min(H_a, H_b) at all 400 grid points")


def test_criterion_05_sigma_zeros_roundtrip():
    for bits in range(256):
        a = AlgSet(3, bits)
        assert zeros(reconstruct(a)) == a
    rng = random.Random(505)
    for _ in range(500):
        dens = rng.random()
        arr = np.array([rng.random() < dens for _ in range(4096)])
        a = AlgSet.from_bool_array(12, arr)
        assert zeros(reconstruct(a)) == a
    print("criterion 5: PASS 256 exhaustive + 500 random reconstructions")


def test_criterion_06_entailment_engines_agree():
    rng = random.Random(606)

    def random_polyset(m, max_polys):
        polys = []
        for _ in range(rng.randint(1, max_polys)):
            masks = frozenset(rng.randrange(1 << m) for _ in range(rng.randint(0, 8)))
            polys.append(Poly(masks))
        return PolySet.of(m, polys)

    entailed = 0
    for i in range(500):
        m = rng.randint(2, 6)
        s = random_polyset(m, 3)
        if i % 2 == 0:
            t = random_polyset(m, 2)
        else:
            extra = {p for p in range(1 << m) if rng.random() < 0.3}
            t = reconstruct(AlgSet.from_points(
                m, sorted(extra | set(zeros(s).points_list()))))
        brute = entails(s, t)
        assert brute == entails_groebner(s, t)
        entailed += brute
    assert 0 < entailed < 500
    assert entails(ALICE_PAIR, ALICE_SINGLE)
    assert entails(ALICE_SINGLE, ALICE_PAIR)
    assert entails_groebner(ALICE_PAIR, ALICE_SINGLE)
    assert entails_groebner(ALICE_SINGLE, ALICE_PAIR)
    print(f"criterion 6: PASS engines agree on 500 pairs ({entailed} entailed)")


def test_criterion_07_incremental_difference():
    rng = random.Random(707)
    ms = ([2, 3, 4, 5, 6, 7, 8] * 28)[:194] + [9, 9, 9, 9, 10, 10]
    for i, m in enumerate(ms):
        n = 1 << m
        pts_r = rng.sample(range(n), rng.randint(1, n))
        pts_s = [p for p in pts_r if rng.random() < 0.6] or pts_r[:1]
        zs = AlgSet.from_points(m, pts_s)
        r = reconstruct(AlgSet.from_points(m, pts_r))
        s = reconstruct(zs)
        tx3 = t3_encode(s, r, seed=i)
        assert tx3.payload == t2_encode(s, r, seed=i).payload
        d = t3_decode(tx3, r)
        assert zeros(d.union(r)) == zs
        for w in d:
            assert not entails(r, PolySet.of(m, [w]))
    assert len(ms) == 200
    print("criterion 7: PASS 200 nested pairs, m up to 10")


def test_criterion_08_elias_delta_lengths():
    for n in range(1, 1 << 20):
        lg = n.bit_length() - 1
        assert elias_delta_length(n) == lg + 2 * ((1 + lg).bit_length() - 1) + 1
    for n in range(1, 1 << 20):
        bits = elias_delta_encode(n)
        value, used = elias_delta_decode(bits)
        assert value == n and used == len(bits) == elias_delta_length(n)
    print("criterion 8: PASS lengths and round trips for all n < 2^20")


def test_criterion_09_constant_column_weight():
    assert cw_check(WEIGHT2_4X6)
    assert cw_check(cw_matrix(4, 6, 2))
    cols5 = cw_matrix(5, 10, 2)
    for pick in itertools.combinations(range(10), 6):
        sub = [[row[c] for c in pick] for row in cols5]
        assert cw_check(sub)
    dup = [[row[c] for c in (0, 0, 1, 2, 3, 4)] for row in cols5]
    assert not cw_check(dup)
    print("criterion 9: PASS weight-2 matrices accepted, duplicate rejected")


def test_criterion_10_means_respect_lower_bounds(matrix_reports):
    assert len(matrix_reports) == len(DEFAULT_MATRIX)
    for key, (rep, _) in matrix_reports.items():
        assert not rep.lower_violation, key
        assert not rep.upper_violation, key
    print("criterion 10: PASS no bound violations across the default matrix")
