"""Tests for the simulation harness: law sampling, rate trials, bounds."""

import dataclasses
import math

import numpy as np
import pytest

from logicast import simlab
from logicast.algset import M_MAX, AlgSet, entails, zeros
from logicast.errors import ContractViolation, DomainError, UniverseTooLarge
from logicast.partition import binary_entropy, lambda_fn
from logicast.poly import Poly, PolySet
from logicast.simlab import (
    DEFAULT_MATRIX,
    Conditional,
    Nested,
    RateReport,
    Single,
    bounds_table,
    run_trials,
    sample,
    sweep_lambda_vs_naive,
)


# ---------------------------------------------------------------- law specs

def test_single_validates_probability():
    Single(0.0)
    Single(1.0)
    Single(0.37)
    with pytest.raises(DomainError):
        Single(-0.1)
    with pytest.raises(DomainError):
        Single(1.5)


def test_nested_requires_inner_not_exceeding_outer():
    Nested(0.2, 0.6)
    Nested(0.3, 0.3)
    with pytest.raises(DomainError):
        Nested(0.6, 0.5)
    with pytest.raises(DomainError):
        Nested(-0.1, 0.5)
    with pytest.raises(DomainError):
        Nested(0.1, 1.2)


def test_conditional_validates_each_side():
    Conditional(0.5, 0.25, 0.75, 0.1, 0.9)
    Conditional(1.0, 0.2, 0.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        Conditional(0.5, 0.8, 0.7, 0.1, 0.9)  # inner side inverted
    with pytest.raises(DomainError):
        Conditional(0.5, 0.1, 0.9, 0.7, 0.6)  # outer side inverted
    with pytest.raises(DomainError):
        Conditional(1.5, 0.1, 0.9, 0.1, 0.9)


def test_laws_are_frozen():
    law = Single(0.2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        law.p_s = 0.3


# ---------------------------------------------------------------- sampling

def test_sample_is_deterministic():
    law = Nested(0.2, 0.6)
    a1, p1 = sample(law, 8, seed=41)
    a2, p2 = sample(law, 8, seed=41)
    assert a1 == a2
    assert [zeros(ps) for ps in p1] == [zeros(ps) for ps in p2]
    b1, _ = sample(law, 8, seed=42)
    assert a1 != b1


def test_sample_single_edge_probabilities():
    (empty,), (s_empty,) = sample(Single(0.0), 5, seed=3)
    assert empty.size == 0
    assert zeros(s_empty) == empty
    (full,), (s_full,) = sample(Single(1.0), 5, seed=3)
    assert full.size == 32
    assert zeros(s_full) == full


def test_sample_single_matches_binomial_moment():
    # E[|Z|] = 4096 * 0.2 = 819.2, per-sample sd = sqrt(4096*0.16) = 25.6.
    sizes = []
    for i in range(200):
        (a,), _ = sample(Single(0.2), 12, seed=9000 + i)
        sizes.append(a.size)
    mean = sum(sizes) / len(sizes)
    se = 25.6 / math.sqrt(200)
    assert abs(mean - 819.2) < 3 * se


def test_sample_nested_is_nested_and_has_right_marginals():
    law = Nested(0.2, 0.6)
    inner_total = 0
    outer_total = 0
    for i in range(50):
        (zs, zq), (s, q) = sample(law, 10, seed=100 + i)
        assert zs.issubset(zq)
        assert zeros(s) == zs
        assert zeros(q) == zq
        inner_total += zs.size
        outer_total += zq.size
    n = 1 << 10
    assert abs(inner_total / 50 - 0.2 * n) < 3 * math.sqrt(n * 0.2 * 0.8 / 50)
    assert abs(outer_total / 50 - 0.6 * n) < 3 * math.sqrt(n * 0.6 * 0.4 / 50)


def test_sample_conditional_structure():
    law = Conditional(0.5, 0.8, 0.9, 0.1, 0.5)
    (zs, zq, zr), (s, q, r) = sample(law, 12, seed=77)
    assert zs.issubset(zq)
    assert zeros(r) == zr
    r_mask = zr.to_bool_array()
    s_mask = zs.to_bool_array()
    n_r = int(r_mask.sum())
    assert abs(n_r - 2048) < 3 * 32  # sd = sqrt(4096*0.25) = 32
    frac_in = float(s_mask[r_mask].mean())
    frac_out = float(s_mask[~r_mask].mean())
    assert abs(frac_in - 0.8) < 3 * math.sqrt(0.8 * 0.2 / n_r)
    assert abs(frac_out - 0.1) < 3 * math.sqrt(0.1 * 0.9 / (4096 - n_r))


def test_sample_conditional_extreme_background():
    (zs, zq, zr), _ = sample(Conditional(1.0, 0.3, 0.7, 0.0, 1.0), 6, seed=5)
    assert zr.size == 64
    (zs2, zq2, zr2), _ = sample(Conditional(0.0, 0.3, 0.7, 0.0, 1.0), 6, seed=5)
    assert zr2.size == 0
    assert zs2.size == 0
    assert zq2.size == 64


@pytest.mark.parametrize("m, error", [(-1, DomainError), (64, UniverseTooLarge)])
def test_sample_refuses_a_universe_size_before_drawing(m, error):
    with pytest.raises(error):
        sample(Single(0.2), m, seed=0)


def test_sample_past_m_max_allocates_nothing(monkeypatch):
    def refuse(seed, keys):
        raise AssertionError("drew points for a universe past M_MAX")

    monkeypatch.setattr(simlab, "draw_array", refuse)
    with pytest.raises(UniverseTooLarge):
        sample(Single(0.2), M_MAX + 1, seed=0)


# ---------------------------------------------------------------- run_trials

def test_run_trials_t1_report_shape():
    law = Single(0.2)
    rep = run_trials("t1", law, 8, trials=20, seed=5)
    assert rep.scenario == "t1"
    assert rep.law == law
    assert rep.m == 8
    assert rep.codec is None
    assert rep.trials == 20
    assert rep.mean_rate > 0
    assert rep.std_rate >= 0
    assert rep.lower_bound == pytest.approx(binary_entropy(0.2), abs=1e-12)
    assert rep.upper_bound > rep.lower_bound
    assert not rep.lower_violation
    assert not rep.upper_violation
    again = run_trials("t1", law, 8, trials=20, seed=5)
    assert again == rep


def test_run_trials_t1_trivial_law_is_one_elias_bit():
    rep = run_trials("t1", Single(0.0), 6, trials=5, seed=1)
    assert rep.mean_rate == pytest.approx(1 / 64, abs=1e-15)
    assert rep.std_rate == 0.0
    assert not rep.upper_violation


def test_run_trials_t2_bounds():
    rep = run_trials("t2", Nested(0.125, 0.5), 8, trials=10, seed=2)
    assert rep.lower_bound == pytest.approx(0.5 * binary_entropy(0.25), abs=1e-12)
    assert not rep.lower_violation
    assert not rep.upper_violation


def test_run_trials_t3_matches_t2_rate():
    # Same law, same seed: the difference payload is bit-identical to the
    # conditional enumeration payload, so the measured rates agree.
    law = Nested(0.15, 0.5)
    r2 = run_trials("t2", law, 6, trials=6, seed=3)
    r3 = run_trials("t3", law, 6, trials=6, seed=3)
    assert r3.mean_rate == r2.mean_rate
    assert r3.scenario == "t3"


def test_run_trials_t4_linear_small():
    rep = run_trials("t4", Nested(0.25, 0.75), 6, trials=15, codec="linear", seed=4)
    assert rep.codec == "linear"
    assert rep.lower_bound == pytest.approx(0.5, abs=1e-12)
    assert not rep.lower_violation
    assert not rep.upper_violation


def test_run_trials_t4_random_small():
    rep = run_trials("t4", Nested(0.25, 0.75), 4, trials=10, codec="random", seed=6)
    assert rep.codec == "random"
    assert not rep.lower_violation
    assert not rep.upper_violation


def test_run_trials_t5_small():
    law = Conditional(0.5, 0.25, 0.75, 0.25, 0.75)
    rep = run_trials("t5", law, 7, trials=8, codec="linear", seed=7)
    assert rep.scenario == "t5"
    expected_lower = 0.5 * lambda_fn(0.25, 0.25) + 0.5 * lambda_fn(0.25, 0.25)
    assert rep.lower_bound == pytest.approx(expected_lower, abs=1e-12)
    assert not rep.lower_violation
    assert not rep.upper_violation


def test_run_trials_rejects_bad_combinations():
    with pytest.raises(DomainError):
        run_trials("t9", Single(0.2), 6, trials=3)
    with pytest.raises(DomainError):
        run_trials("t1", Nested(0.1, 0.5), 6, trials=3)
    with pytest.raises(DomainError):
        run_trials("t2", Single(0.2), 6, trials=3)
    with pytest.raises(DomainError):
        run_trials("t4", Conditional(0.5, 0.1, 0.9, 0.1, 0.9), 6, trials=3)
    with pytest.raises(DomainError):
        run_trials("t5", Nested(0.1, 0.5), 6, trials=3, codec="linear")
    with pytest.raises(DomainError):
        run_trials("t4", Nested(0.25, 0.75), 6, trials=3)  # codec required
    with pytest.raises(DomainError):
        run_trials("t1", Single(0.2), 6, trials=3, codec="linear")
    with pytest.raises(DomainError):
        run_trials("t4", Nested(0.25, 0.75), 6, trials=3, codec="huffman")
    with pytest.raises(DomainError):
        run_trials("t1", Single(0.2), 6, trials=0)


# ---------------------------------------------------------------- contracts
# A decoder that breaks its scenario's contract must stop the trial loop.


def _nothing(m):
    # the statement 1 = 0: its zero set is empty
    return PolySet.of(m, [Poly.one()])


def _everything(m):
    return PolySet(m, frozenset())


@pytest.mark.parametrize("scenario, law, codec, decoder, wrong", [
    ("t1", Single(0.2), None, "t1_decode", lambda tx: _nothing(tx.m)),
    ("t1", Single(0.2), None, "t1_decode", lambda tx: _everything(tx.m)),
    ("t2", Nested(0.125, 0.5), None, "t2_decode", lambda tx, r: _nothing(tx.m)),
    ("t4", Nested(0.25, 0.75), "linear", "t4_decode", lambda tx: _everything(tx.m)),
    ("t4", Nested(0.25, 0.75), "linear", "t4_decode", lambda tx: _nothing(tx.m)),
    ("t5", Conditional(0.5, 0.25, 0.75, 0.25, 0.75), "linear", "t5_decode",
     lambda tx, r: _everything(tx.m)),
])
def test_trial_loop_rejects_a_set_outside_the_contract(
    monkeypatch, scenario, law, codec, decoder, wrong
):
    # at m = 6 and this seed Z(s) is not empty and Z(q) is not every point
    (zs, *outer), _ = sample(law, 6, simlab.derive_seed(3, 0))
    assert zs.size > 0 and all(zq.size < 64 for zq in outer[:1])
    monkeypatch.setattr(simlab, decoder, wrong)
    with pytest.raises(ContractViolation):
        run_trials(scenario, law, 6, trials=1, codec=codec, seed=3)


def test_trial_loop_rejects_a_t3_difference_the_background_implies(monkeypatch):
    # adding r's own members keeps Z(d + r) right but breaks the difference
    law = Nested(0.15, 0.5)
    _, (_, r) = sample(law, 6, simlab.derive_seed(3, 0))
    assert len(r) > 0
    decode = simlab.t3_decode
    monkeypatch.setattr(simlab, "t3_decode", lambda tx, r: decode(tx, r).union(r))
    with pytest.raises(ContractViolation, match="background"):
        run_trials("t3", law, 6, trials=1, seed=3)


def test_trial_loop_rejects_a_t3_difference_that_misses_the_source(monkeypatch):
    law = Nested(0.15, 0.5)
    monkeypatch.setattr(simlab, "t3_decode", lambda tx, r: _nothing(tx.m))
    with pytest.raises(ContractViolation):
        run_trials("t3", law, 6, trials=1, seed=3)


# ---------------------------------------------------------------- bounds

def test_bounds_table_is_trial_free():
    rep = bounds_table("t1", Single(0.2), 12)
    assert rep.trials == 0
    assert math.isnan(rep.mean_rate)
    assert math.isnan(rep.std_rate)
    assert not rep.lower_violation
    assert not rep.upper_violation


def test_bounds_table_t1_frozen_values():
    rep = bounds_table("t1", Single(0.2), 12)
    assert rep.lower_bound == pytest.approx(0.721928095, abs=1e-8)
    assert rep.upper_bound == pytest.approx(0.726866452, abs=1e-8)


def test_bounds_table_t4_frozen_values():
    lin = bounds_table("t4", Nested(0.25, 0.75), 12, codec="linear")
    assert lin.lower_bound == pytest.approx(0.5, abs=1e-12)
    assert lin.upper_bound == pytest.approx(0.505595860, abs=1e-8)
    rnd = bounds_table("t4", Nested(0.25, 0.75), 12, codec="random")
    assert rnd.lower_bound == pytest.approx(0.5, abs=1e-12)
    assert rnd.upper_bound == pytest.approx(0.506103516, abs=1e-8)


def test_bounds_table_t2_frozen_values():
    rep = bounds_table("t2", Nested(0.125, 0.5), 12)
    assert rep.lower_bound == pytest.approx(0.405639062, abs=1e-8)
    assert rep.upper_bound == pytest.approx(0.410360705, abs=1e-8)


# Exact bounds of every default-matrix cell and every benchmark cell:
# (scenario, law, m, codec, lower, upper).
_PINNED_BOUNDS = [
    ("t1", Single(0.2), 12, None, 0.7219280948873623, 0.7268664521190974),
    ("t2", Nested(0.125, 0.5), 12, None, 0.4056390622295664, 0.4103607052966769),
    ("t3", Nested(0.15, 0.5), 7, None, 0.44064544961534635, 0.5378860418322124),
    ("t4", Nested(0.25, 0.75), 12, "linear", 0.5, 0.505595859567614),
    ("t4", Nested(0.25, 0.75), 4, "random", 0.5, 1.0625),
    ("t5", Conditional(0.5, 0.25, 0.75, 0.25, 0.75), 12, "linear",
     0.5, 0.510570060221138),
    ("t4", Nested(0.1, 0.7), 12, "linear", 0.32451124978365314, 0.405496451662785),
    ("t1", Single(0.2), 14, None, 0.7219280948873623, 0.7233178368486398),
    ("t2", Nested(0.125, 0.5), 14, None, 0.4056390622295664, 0.40697688347207583),
    ("t3", Nested(0.15, 0.5), 8, None, 0.44064544961534635, 0.49554710609232755),
]


def _bounds(scenario, law, m, codec=None):
    rep = bounds_table(scenario, law, m, codec=codec)
    return rep.lower_bound, rep.upper_bound


@pytest.mark.parametrize("scenario, law, m, codec, lower, upper", _PINNED_BOUNDS)
def test_bounds_table_pins_default_and_benchmark_cells(scenario, law, m, codec, lower, upper):
    assert _bounds(scenario, law, m, codec) == (lower, upper)


def test_pinned_bounds_cover_the_default_matrix():
    assert {row[:4] for row in DEFAULT_MATRIX} <= {row[:4] for row in _PINNED_BOUNDS}


def test_bounds_table_t5_with_certain_background_matches_t4():
    # a certain background leaves one side, so t5 is t4 whatever the other
    # side's densities; likewise t1 is t2 against the background of every point
    for codec in ("linear", "random"):
        for m, p_s, p_q in ((12, 0.25, 0.75), (12, 0.1, 0.7), (4, 0.3, 0.3),
                            (9, 0.0, 0.6), (16, 0.05, 1.0), (1, 0.5, 0.5)):
            t5 = _bounds("t5", Conditional(1.0, p_s, p_q, 0.3, 0.9), m, codec)
            assert t5 == _bounds("t4", Nested(p_s, p_q), m, codec)
    for m, p in ((12, 0.2), (14, 0.125), (1, 0.5), (7, 0.0), (10, 1.0), (16, 0.01)):
        assert _bounds("t1", Single(p), m) == _bounds("t2", Nested(p, 1.0), m)


# ---------------------------------------------------------------- reports

def test_report_lines_format():
    rep = run_trials("t1", Single(0.2), 6, trials=4, seed=11)
    lines = rep.lines()
    kv = dict(line.split("=", 1) for line in lines)
    assert kv["scenario"] == "t1"
    assert kv["law"] == "Single(p_s=0.2)"
    assert kv["m"] == "6"
    assert kv["n"] == "64"
    assert kv["codec"] == "none"
    assert kv["trials"] == "4"
    assert kv["mean_rate"] == f"{rep.mean_rate:.6f}"
    assert kv["std_rate"] == f"{rep.std_rate:.6f}"
    assert kv["lower_bound"] == f"{rep.lower_bound:.6f}"
    assert kv["upper_bound"] == f"{rep.upper_bound:.6f}"
    assert kv["gap"] == f"{rep.mean_rate - rep.lower_bound:.6f}"
    assert kv["lower_violation"] == "no"
    assert kv["upper_violation"] == "no"
    assert rep.to_text() == "\n".join(lines) + "\n"


def test_report_gap_property():
    rep = run_trials("t4", Nested(0.25, 0.75), 5, trials=5, codec="linear", seed=8)
    assert rep.gap == pytest.approx(rep.mean_rate - rep.lower_bound, abs=1e-15)


# ---------------------------------------------------------------- sweep

def test_sweep_csv_shape_and_header():
    text = sweep_lambda_vs_naive([(0.1, 0.1), (0.25, 0.25), (0.0, 0.3), (0.3, 0.5)])
    lines = text.strip().split("\n")
    assert lines[0] == "p_a,p_b,h_a,h_b,linear_rate,lambda"
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 6
        for f in fields:
            float(f)
            assert len(f.split(".")[1]) == 6


def test_sweep_frozen_row():
    text = sweep_lambda_vs_naive([(0.25, 0.25)])
    row = text.strip().split("\n")[1]
    assert row == "0.250000,0.250000,0.811278,0.811278,0.505596,0.500000"


def test_sweep_lambda_beats_naive_inside_simplex():
    grid = [(a / 20, b / 20) for a in range(1, 10) for b in range(1, 10)
            if (a + b) / 20 < 1.0]
    text = sweep_lambda_vs_naive(grid)
    for row in text.strip().split("\n")[1:]:
        _, _, h_a, h_b, _, lam = (float(x) for x in row.split(","))
        assert lam < min(h_a, h_b)


def test_sweep_degenerate_side_is_free():
    text = sweep_lambda_vs_naive([(0.0, 0.3)])
    row = text.strip().split("\n")[1]
    assert row.split(",")[5] == "0.000000"


def test_sweep_rejects_points_outside_simplex():
    with pytest.raises(DomainError):
        sweep_lambda_vs_naive([(0.6, 0.5)])
    with pytest.raises(DomainError):
        sweep_lambda_vs_naive([(-0.1, 0.2)])


# ---------------------------------------------------------------- matrix

def test_default_matrix_covers_every_scenario():
    scenarios = {row[0] for row in DEFAULT_MATRIX}
    assert scenarios == {"t1", "t2", "t3", "t4", "t5"}
    for scenario, law, m, codec, trials in DEFAULT_MATRIX:
        assert trials > 0
        assert 1 <= m <= 24
        if scenario in ("t4", "t5"):
            assert codec in ("random", "linear")
        else:
            assert codec is None
    assert ("t1", Single(0.2), 12, None, 200) in DEFAULT_MATRIX
    assert ("t4", Nested(0.25, 0.75), 12, "linear", 100) in DEFAULT_MATRIX
