"""Monte-Carlo harness for the transmission protocols.

Statements are drawn from i.i.d. point-membership laws, pushed through a
protocol round trip, checked against the scenario's correctness contract,
and the measured payload rates are compared with the analytic bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .algset import AlgSet, check_m, entails, reconstruct, zeros
from .errors import ContractViolation, DomainError
from .partition import binary_entropy, lambda_fn
from .poly import PolySet
from .protocols import (
    BACKGROUND_SCENARIOS,
    CODECS,
    PARTITION_SCENARIOS,
    t1_decode,
    t1_encode,
    t2_decode,
    t2_encode,
    t3_decode,
    t3_encode,
    t4_decode,
    t4_encode,
    t5_decode,
    t5_encode,
)
from .randomness import derive_seed, draw_array


def _check_probs(law: LawSpec) -> None:
    for field in fields(law):
        p = getattr(law, field.name)
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"{field.name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class Single:
    """Each point lands in Z(s) independently with probability p_s."""

    p_s: float

    def __post_init__(self) -> None:
        _check_probs(self)


@dataclass(frozen=True)
class Nested:
    """Coupled pair with Z(s) inside Z(q), marginal densities p_s <= p_q.

    The outer set is the query for t4 and the shared background r for
    t2/t3; t1's Single(p_s) has the bounds of t2's Nested(p_s, 1.0).
    """

    p_s: float
    p_q: float

    def __post_init__(self) -> None:
        _check_probs(self)
        if self.p_s > self.p_q:
            raise DomainError("inner density p_s may not exceed outer density p_q")


@dataclass(frozen=True)
class Conditional:
    """Nested pair whose densities switch on membership in an independent Z(r)."""

    p_r: float
    p_s_in: float
    p_q_in: float
    p_s_out: float
    p_q_out: float

    def __post_init__(self) -> None:
        _check_probs(self)
        if self.p_s_in > self.p_q_in:
            raise DomainError("p_s_in may not exceed p_q_in")
        if self.p_s_out > self.p_q_out:
            raise DomainError("p_s_out may not exceed p_q_out")


LawSpec = Single | Nested | Conditional

# Per scenario: the law it takes, and the header densities its encoder is
# given.  A Nested law's outer density is the background's, p_r, for t2/t3
# and the query's, p_q, for t4.
_LAW_FOR = {
    "t1": (Single, lambda law: {"p_s": law.p_s}),
    "t2": (Nested, lambda law: {"p_s": law.p_s, "p_r": law.p_q}),
    "t3": (Nested, lambda law: {"p_s": law.p_s, "p_r": law.p_q}),
    "t4": (Nested, lambda law: {"p_s": law.p_s, "p_q": law.p_q}),
    "t5": (Conditional, lambda law: {
        "conditionals": (law.p_s_in, law.p_q_in, law.p_s_out, law.p_q_out),
    }),
}


def _member(words: np.ndarray, p: float) -> np.ndarray:
    """Membership mask: the point is in iff its word falls below p * 2**64."""
    if p <= 0.0:
        return np.zeros(words.shape, dtype=bool)
    if p >= 1.0:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(int(p * 2.0**64))


def sample(
    law: LawSpec, m: int, seed: int
) -> tuple[tuple[AlgSet, ...], tuple[PolySet, ...]]:
    """Draw one instance of the law over the 2**m points.

    Sets come inner first: Single -> (Z(s),), Nested -> (Z(s), Z(q)),
    Conditional -> (Z(s), Z(q), Z(r)).  Coupling via a shared word per point
    keeps the nesting exact, not just in expectation.  The second element is
    the matching statements, recovered from the sets.
    """
    check_m(m)
    keys = np.arange(1 << m, dtype=np.uint64)
    if isinstance(law, Single):
        words = draw_array(seed, keys)
        masks = (_member(words, law.p_s),)
    elif isinstance(law, Nested):
        words = draw_array(seed, keys)
        masks = (_member(words, law.p_s), _member(words, law.p_q))
    elif isinstance(law, Conditional):
        r_mask = _member(draw_array(derive_seed(seed, 0), keys), law.p_r)
        w = draw_array(derive_seed(seed, 1), keys)
        s_mask = np.where(r_mask, _member(w, law.p_s_in), _member(w, law.p_s_out))
        q_mask = np.where(r_mask, _member(w, law.p_q_in), _member(w, law.p_q_out))
        masks = (s_mask, q_mask, r_mask)
    else:
        raise DomainError(f"unknown law {law!r}")
    sets = tuple(AlgSet.from_bool_array(m, mk) for mk in masks)
    return sets, tuple(reconstruct(a) for a in sets)


# ------------------------------------------------------------------ trials

def _validate_combo(scenario: str, law: LawSpec, m: int, codec: str | None) -> None:
    if scenario not in _LAW_FOR:
        raise DomainError(f"unknown scenario {scenario!r}")
    want, _ = _LAW_FOR[scenario]
    if not isinstance(law, want):
        raise DomainError(
            f"scenario {scenario} takes a {want.__name__} law, "
            f"got {type(law).__name__}"
        )
    if scenario in PARTITION_SCENARIOS:
        if codec not in CODECS:
            raise DomainError(f"scenarios t4/t5 need codec {' or '.join(map(repr, CODECS))}")
    elif codec is not None:
        raise DomainError(f"scenario {scenario} does not take a partition codec")
    if m < 1:
        raise DomainError(f"universe size m must be at least 1, got {m}")
    check_m(m)


def _one_trial(
    scenario: str, law: LawSpec, m: int, trial_seed: int, codec: str | None
) -> int:
    """Sample, encode, decode, enforce the contract; return payload bits.

    The contract is Z(s) within the estimate within Z(q) for t4/t5, or
    within Z(s) itself for t1-t3, whose estimate for t3 is the difference plus r.
    """
    sets, stmts = sample(law, m, trial_seed)
    encode, decode = {"t1": (t1_encode, t1_decode), "t2": (t2_encode, t2_decode),
                      "t3": (t3_encode, t3_decode), "t4": (t4_encode, t4_decode),
                      "t5": (t5_encode, t5_decode)}[scenario]
    _, header = _LAW_FOR[scenario]
    kw = header(law)
    if codec is not None:
        kw["codec"] = codec
    tx = encode(*stmts, seed=trial_seed, **kw)
    # the background, when the scenario has one, is the last statement set
    background = stmts[-1:] if scenario in BACKGROUND_SCENARIOS else ()
    estimate = decode(tx, *background)
    if scenario == "t3":
        (r,) = background
        if any(entails(r, PolySet.of(m, [w])) for w in estimate):
            raise ContractViolation("difference member already follows from the background")
        estimate = estimate.union(r)
    zhat = zeros(estimate)
    outer = sets[1] if scenario in PARTITION_SCENARIOS else sets[0]
    if not (sets[0].issubset(zhat) and zhat.issubset(outer)):
        raise ContractViolation(f"{scenario} estimate escapes the sandwich")
    return len(tx.payload)


# ------------------------------------------------------------------ bounds

def _elias_overhead(k: float, c: float) -> float:
    """Worst-case bits spent on the self-delimiting length prefix."""
    k = max(k, 2.0)
    lg = max(math.log2(k), 1.0)
    return lg + 2.0 * math.log2(lg) + c


def _linear_rate(density: float, n: float) -> float:
    """Linear-codec bits per point: one per constrained cell, plus elias(J)."""
    return density + _elias_overhead(n * density + 2.0, 5.0) / n


def _analytic_bounds(
    scenario: str, law: LawSpec, m: int, codec: str | None
) -> tuple[float, float]:
    """Per-point converse and achievability bounds for the given setting.

    t1 and t4 are t2 and t5 against the empty background, which holds
    every point, so Single(p_s) is read as Nested(p_s, 1.0) and t4's
    Nested(p_s, p_q) as Conditional(1.0, p_s, p_q, 0.0, 0.0).  Nested
    pays p_r * H(p_s / p_r) plus the enumeration preamble; Conditional
    pays Lambda per side of Z(r), plus the codec's index overhead above.
    """
    if isinstance(law, Single):
        law = Nested(law.p_s, 1.0)
    if scenario in PARTITION_SCENARIOS and isinstance(law, Nested):
        law = Conditional(1.0, law.p_s, law.p_q, 0.0, 0.0)
    n = float(1 << m)
    if isinstance(law, Nested):
        cond = min(1.0, law.p_s / law.p_q) if law.p_q > 0.0 else 0.0
        lo = law.p_q * binary_entropy(cond)
        return lo, lo + _elias_overhead(law.p_s * n, 4.0) / n
    sides = (
        (law.p_r, law.p_s_in, 1.0 - law.p_q_in),
        (1.0 - law.p_r, law.p_s_out, 1.0 - law.p_q_out),
    )
    lo = 0.0
    up = 0.0
    for w, a, b in sides:
        if w <= 0.0:
            continue
        lam = lambda_fn(a, b)
        lo += w * lam
        if codec == "linear":
            up += _linear_rate(w * (a + b), n)
        else:
            nl = w * n * lam
            lg = math.log2(nl) if nl > 1.0 else 0.0
            up += w * lam + (2.0 * lg + 3.0) / n
    return lo, up


@dataclass(frozen=True)
class RateReport:
    """Measured rate of one scenario/law cell next to its analytic bounds.

    Rates are payload bits per point; the constant 24-byte header is not
    counted.  Violation flags compare the sample mean against a bound with
    three standard errors of slack.
    """

    scenario: str
    law: LawSpec
    m: int
    codec: str | None
    trials: int
    mean_rate: float
    std_rate: float
    lower_bound: float
    upper_bound: float
    lower_violation: bool
    upper_violation: bool

    @property
    def gap(self) -> float:
        return self.mean_rate - self.lower_bound

    def lines(self) -> list[str]:
        return [
            f"scenario={self.scenario}",
            f"law={self.law!r}",
            f"m={self.m}",
            f"n={1 << self.m}",
            f"codec={self.codec or 'none'}",
            f"trials={self.trials}",
            f"mean_rate={self.mean_rate:.6f}",
            f"std_rate={self.std_rate:.6f}",
            f"lower_bound={self.lower_bound:.6f}",
            f"upper_bound={self.upper_bound:.6f}",
            f"gap={self.gap:.6f}",
            f"lower_violation={'yes' if self.lower_violation else 'no'}",
            f"upper_violation={'yes' if self.upper_violation else 'no'}",
        ]

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def run_trials(
    scenario: str,
    law: LawSpec,
    m: int,
    trials: int = 100,
    codec: str | None = None,
    seed: int = 0,
) -> RateReport:
    """Measure the mean payload rate of a scenario over seeded trials.

    Each trial gets the child seed derive_seed(seed, index), so reports are
    reproducible and trials are independent.  Every round trip is checked
    against the scenario's contract; a breach raises ContractViolation
    rather than polluting the average.
    """
    report = bounds_table(scenario, law, m, codec)
    if trials < 1:
        raise DomainError("trials must be positive")
    n = 1 << m
    rates = []
    for t in range(trials):
        bits = _one_trial(scenario, law, m, derive_seed(seed, t), codec)
        rates.append(bits / n)
    mean = math.fsum(rates) / trials
    if trials > 1:
        var = math.fsum((x - mean) ** 2 for x in rates) / (trials - 1)
    else:
        var = 0.0
    std = math.sqrt(var)
    slack = 3.0 * std / math.sqrt(trials) + 1e-12
    return replace(
        report,
        trials=trials,
        mean_rate=mean,
        std_rate=std,
        lower_violation=mean < report.lower_bound - slack,
        upper_violation=mean > report.upper_bound + slack,
    )


def bounds_table(
    scenario: str, law: LawSpec, m: int, codec: str | None = None
) -> RateReport:
    """Analytic bounds only, packaged as a trial-free report."""
    _validate_combo(scenario, law, m, codec)
    lo, up = _analytic_bounds(scenario, law, m, codec)
    nan = float("nan")
    return RateReport(
        scenario=scenario,
        law=law,
        m=m,
        codec=codec,
        trials=0,
        mean_rate=nan,
        std_rate=nan,
        lower_bound=lo,
        upper_bound=up,
        lower_violation=False,
        upper_violation=False,
    )


def sweep_lambda_vs_naive(
    grid: Iterable[tuple[float, float]], n: int = 4096
) -> str:
    """CSV comparing the one-sided naive rates, the linear codec and Lambda.

    One row per (p_a, p_b) grid point: the naive cost of either side alone
    (its binary entropy), the linear codec's finite-n rate, and the optimal
    Lambda.  Points must stay inside the simplex p_a + p_b <= 1.
    """
    if n < 1:
        raise DomainError(f"block length n must be at least 1, got {n}")
    rows = ["p_a,p_b,h_a,h_b,linear_rate,lambda"]
    for p_a, p_b in grid:
        if not (0.0 <= p_a and 0.0 <= p_b and p_a + p_b <= 1.0):
            raise DomainError(f"({p_a}, {p_b}) lies outside the simplex")
        lam = lambda_fn(p_a, p_b)
        lin = _linear_rate(p_a + p_b, n)
        rows.append(
            f"{p_a:.6f},{p_b:.6f},{binary_entropy(p_a):.6f},"
            f"{binary_entropy(p_b):.6f},{lin:.6f},{lam:.6f}"
        )
    return "\n".join(rows) + "\n"


# Scenario/law cells exercised by default: enough trials to pin the mean
# without making the suite crawl.  The random codec row stays tiny because
# its codebook scan is exponential in the constraint count.
DEFAULT_MATRIX = (
    ("t1", Single(0.2), 12, None, 200),
    ("t2", Nested(0.125, 0.5), 12, None, 100),
    ("t3", Nested(0.15, 0.5), 7, None, 50),
    ("t4", Nested(0.25, 0.75), 12, "linear", 100),
    ("t4", Nested(0.25, 0.75), 4, "random", 100),
    ("t5", Conditional(0.5, 0.25, 0.75, 0.25, 0.75), 12, "linear", 50),
)
