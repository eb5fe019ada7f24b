"""Cost-constrained optimal (m, n) and cross-strategy profitability verdicts.

Each sampling strategy prices a budget C0 against per-unit costs (C1 for
the study variate in the second phase, C2 for x and C3 for z in the first
phase) and minimizes its own first-order variance, which always has the
shape A/m + B/n - K/N:

    strategy   A               B               K          first-phase cost
    single     V0              --              V0         --
    H          V0 - V1         V1              V0         C2
    g          V0 - V1         V1 - V2         V0 - V2    C2 + C3
    F          V0 - V1 - V3    V1 - V2 + V3    V0 - V2    C2 + C3

The Lagrange optimum under C1*m + cn*n = C0 is m proportional to
sqrt(A/C1) and n proportional to sqrt(B/cn), giving the optimal variance
(sqrt(A*C1) + sqrt(B*cn))^2 / C0 - K/N.  Profitability verdicts are
decided by comparing these optimal variances numerically (large-N terms),
with the closed-form threshold ratios reported as diagnostics; an
exhaustive integer grid search provides an independent oracle.  F is
infeasible where V3 is None (collinear auxiliaries), so its verdicts are
not-comparable there; the other strategies never read V3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_stats import _finite, _integers
from .variance_theory import VarianceComponents

__all__ = [
    "CostModel",
    "AllocationResult",
    "Verdict",
    "ProfitabilityReport",
    "allocate",
    "grid_search_allocation",
    "profitability_report",
    "STRATEGIES",
]

STRATEGIES = ("single", "H", "g", "F")


@dataclass(frozen=True)
class CostModel:
    """Total budget and per-unit observation costs, with C1 > C2 > C3."""

    c0: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        for name in ("c0", "c1", "c2", "c3"):
            v = getattr(self, name)
            if not (_finite(v) and v > 0.0):
                raise ValueError(f"cost {name} must be positive, got {v!r}")
        if not self.c1 > self.c2 > self.c3:
            raise ValueError(
                f"require c1 > c2 > c3, got c1={self.c1}, c2={self.c2}, c3={self.c3}"
            )


@dataclass(frozen=True)
class AllocationResult:
    """Continuous and rounded optima for one strategy.

    ``opt_variance`` is the variance at the continuous optimum including
    the exact -K/N term; ``variance_large_n`` drops it.  ``feasible`` is
    False when a model precondition fails or the budget cannot buy a valid
    design, in which case ``note`` names the violated condition.
    """

    strategy: str
    m_real: float | None = None
    n_real: float | None = None
    m_int: int | None = None
    n_int: int | None = None
    opt_variance: float | None = None
    variance_large_n: float | None = None
    feasible: bool = False
    note: str = ""


_NO_V3 = "V3 undefined: collinear auxiliaries (|rho_xz| = 1)"
_OUT_OF_RANGE = "continuous optimum is out of float range"
_NO_GRID = "no feasible integer (m, n) with 2 <= m < n under the budget"


def _check(strategy: str, N) -> None:
    """The checks every allocation makes: a known strategy, and a population
    size N that is an integer >= 1."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not (_integers(N) and _finite(N) and N >= 1):
        raise ValueError(f"population size N must be an integer >= 1, got {N!r}")


def _strategy_terms(strategy: str, comps: VarianceComponents, cost: CostModel):
    """(A, B, K, cn) of the two-phase strategy's variance A/m + B/n - K/N
    and its first-phase unit cost: the one place each is built.  F's terms
    need V3, so a caller asks for them only where V3 is defined."""
    if strategy == "H":
        return comps.V0 - comps.V1, comps.V1, comps.V0, cost.c2
    if strategy == "g":
        return comps.V0 - comps.V1, comps.V1 - comps.V2, comps.V0 - comps.V2, cost.c2 + cost.c3
    return (
        comps.V0 - comps.V1 - comps.V3,
        comps.V1 - comps.V2 + comps.V3,
        comps.V0 - comps.V2,
        cost.c2 + cost.c3,
    )


def _allocate_single(cost: CostModel, comps: VarianceComponents, N: int) -> AllocationResult:
    """Single-phase optimum: spend everything on y, m = C0/C1."""
    m_real = cost.c0 / cost.c1
    if m_real < 1.0:
        return AllocationResult("single", note="budget below the cost of one observation")
    if m_real == math.inf:
        return AllocationResult("single", note=_OUT_OF_RANGE)
    m_int = min(N, int(math.floor(m_real)))
    large_n = comps.V0 * cost.c1 / cost.c0
    return AllocationResult(
        strategy="single",
        m_real=m_real,
        m_int=m_int,
        opt_variance=large_n - comps.V0 / N,
        variance_large_n=large_n,
        feasible=True,
        note="" if m_real <= N else f"continuous optimum m={m_real:.3f} exceeds N",
    )


def _allocate_two_phase(
    strategy: str, cost: CostModel, comps: VarianceComponents, N: int
) -> AllocationResult:
    if strategy == "F" and comps.V3 is None:
        return AllocationResult("F", note=_NO_V3)
    a_coef, b_coef, k_coef, cn = _strategy_terms(strategy, comps, cost)
    if a_coef <= 0.0:
        names = {"H": "V0 - V1", "g": "V0 - V1", "F": "V0 - V1 - V3"}
        note = f"{names[strategy]} <= 0: nothing left for the second phase"
        return AllocationResult(strategy, note=note)
    if b_coef <= 0.0:
        notes = {
            "H": "V1 = 0: auxiliary carries no association; use single-phase",
            "g": "V1 - V2 <= 0: second auxiliary removes first-phase value",
            "F": "V1 - V2 + V3 <= 0: first phase carries no value",
        }
        return AllocationResult(strategy, note=notes[strategy])
    denom = math.sqrt(a_coef * cost.c1) + math.sqrt(b_coef * cn)
    m_real = cost.c0 * math.sqrt(a_coef / cost.c1) / denom
    n_real = cost.c0 * math.sqrt(b_coef / cn) / denom
    large_n = denom * denom / cost.c0
    if not all(map(math.isfinite, (m_real, n_real, large_n))):
        return AllocationResult(strategy, note=_OUT_OF_RANGE)
    opt_var = large_n - k_coef / N

    notes = []
    feasible = True
    if m_real < 2.0:
        feasible = False
        notes.append(f"continuous optimum m={m_real:.3f} < 2")
    if m_real >= n_real:
        feasible = False
        notes.append("continuous optimum has m >= n: two-phase design not worthwhile")
    if n_real > N:
        notes.append(f"continuous optimum n={n_real:.3f} exceeds N={N}")

    m_int = max(2, int(round(m_real)))
    # the largest affordable n: the budget left after m_int, +-inf past the float range
    n_int = math.floor(min(N, max((cost.c0 - cost.c1 * m_int) / cn, 0.0)))
    if n_int <= m_int:
        feasible = False
        notes.append("no integer n > m fits the budget at the rounded m")
        m_int = None
        n_int = None
    return AllocationResult(
        strategy=strategy,
        m_real=m_real,
        n_real=n_real,
        m_int=m_int,
        n_int=n_int,
        opt_variance=opt_var,
        variance_large_n=large_n,
        feasible=feasible,
        note="; ".join(notes),
    )


def allocate(strategy: str, cost: CostModel, comps: VarianceComponents, N: int) -> AllocationResult:
    """The named strategy's closed-form optimum (m, n) under
    C1*m + cn*n = C0, cn its first-phase cost (C2 for H, C2 + C3 for g
    and F); single spends the whole budget on y, m = C0/C1."""
    _check(strategy, N)
    if strategy == "single":
        return _allocate_single(cost, comps, N)
    return _allocate_two_phase(strategy, cost, comps, N)


def grid_search_allocation(
    cost: CostModel, comps: VarianceComponents, N: int, strategy: str
) -> AllocationResult:
    """Exhaustive integer search over feasible (m, n): the independent
    oracle for the closed forms.

    For each affordable m, the strategy's variance is monotone in 1/n, so
    only the extreme feasible n (largest affordable or m+1) can win; both
    are evaluated, which makes the scan exhaustive over the full grid.  An
    m >= N leaves no n with m < n <= N, so m stops at N - 1; a grid that
    still cannot be allocated raises ValueError.
    """
    _check(strategy, N)
    if strategy == "single":
        m_int = math.floor(min(N, cost.c0 / cost.c1))
        if m_int < 1:
            return AllocationResult("single", note="budget below the cost of one observation")
        var = comps.V0 * (1.0 / m_int - 1.0 / N)
        return AllocationResult(
            strategy="single",
            m_real=float(m_int),
            m_int=m_int,
            opt_variance=var,
            variance_large_n=comps.V0 / m_int,
            feasible=True,
            note="grid",
        )

    if strategy == "F" and comps.V3 is None:
        return AllocationResult("F", note=_NO_V3)
    a_coef, b_coef, k_coef, cn = _strategy_terms(strategy, comps, cost)
    m_upper = math.floor(min(N - 1, (cost.c0 - cn) / (cost.c1 + cn)))
    if m_upper < 2:
        return AllocationResult(strategy, note=_NO_GRID)
    try:
        ms = np.arange(2, m_upper + 1, dtype=np.int64)
    except (MemoryError, ValueError):  # numpy: too large to allocate, or to index
        raise ValueError(f"the grid of m = 2..{m_upper} does not fit in memory") from None
    with np.errstate(over="ignore"):  # a tiny cn: every n up to N is affordable
        n_hi = np.minimum(N, np.floor((cost.c0 - cost.c1 * ms) / cn))  # floats: N may pass int64
    valid = n_hi > ms
    if not np.any(valid):
        return AllocationResult(strategy, note=_NO_GRID)
    ms = ms[valid]
    n_hi = n_hi[valid]
    n_lo = ms + 1
    var_hi = a_coef / ms + b_coef / n_hi
    var_lo = a_coef / ms + b_coef / n_lo
    take_hi = var_hi <= var_lo
    var = np.where(take_hi, var_hi, var_lo) - k_coef / N
    ns = np.where(take_hi, n_hi, n_lo)
    best = int(np.argmin(var))
    return AllocationResult(
        strategy=strategy,
        m_real=float(ms[best]),
        n_real=float(ns[best]),
        m_int=int(ms[best]),
        n_int=int(ns[best]),
        opt_variance=float(var[best]),
        variance_large_n=float(var[best] + k_coef / N),
        feasible=True,
        note="grid",
    )


# ---------------------------------------------------------------------------
# Profitability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one strategy comparison at the large-N cost optimum.

    ``verdict`` is one of profitable / not-profitable / no-gain /
    not-comparable.  ``closed_form_lhs`` < ``closed_form_rhs`` is the
    corrected printed-inequality diagnostic for the same comparison (None
    where no clean ratio form exists or a guard divides by zero).
    """

    comparison: str
    variance_candidate: float | None
    variance_reference: float | None
    verdict: str
    closed_form_lhs: float | None = None
    closed_form_rhs: float | None = None


def _verdict(comparison, cand, ref, lhs=None, rhs=None) -> Verdict:
    if cand is None or ref is None:
        return Verdict(comparison, cand, ref, "not-comparable", lhs, rhs)
    scale = max(abs(cand), abs(ref), 1e-300)
    if abs(cand - ref) <= 1e-12 * scale:
        word = "no-gain"
    elif cand < ref:
        word = "profitable"
    else:
        word = "not-profitable"
    return Verdict(comparison, cand, ref, word, lhs, rhs)


@dataclass(frozen=True)
class ProfitabilityReport:
    """The four cross-strategy verdicts plus each strategy's allocation."""

    g_vs_single: Verdict
    g_vs_H: Verdict
    F_vs_H: Verdict
    F_vs_g: Verdict
    single: AllocationResult
    H: AllocationResult
    g: AllocationResult
    F: AllocationResult


def profitability_report(cost: CostModel, comps: VarianceComponents, N: int) -> ProfitabilityReport:
    """Decide every comparison numerically from the large-N optimal
    variances; report the corrected closed-form thresholds as diagnostics."""
    res = {s: allocate(s, cost, comps, N) for s in STRATEGIES}
    big_n = {s: r.variance_large_n if r.feasible else None for s, r in res.items()}

    a_h, b_h, v0, cn_h = _strategy_terms("H", comps, cost)
    a_g, b_g, _, cn_g = _strategy_terms("g", comps, cost)

    def ratio(num: float, den: float) -> float | None:
        if den <= 0.0:
            return None
        return num / den

    # g against single; F against g shares its left side, C2 + C3 over C1
    lhs_single = cn_g / cost.c1
    rhs_single = ratio((math.sqrt(v0) - math.sqrt(max(a_h, 0.0))) ** 2, b_g)

    lhs_h = cn_g / cn_h
    rhs_h = ratio(b_h, b_g)

    rhs_fg = None
    if comps.V3 is not None:
        a_f, b_f, _, _ = _strategy_terms("F", comps, cost)
        if a_f >= 0.0 and b_g >= 0.0 and b_f >= 0.0:
            den = math.sqrt(b_f) - math.sqrt(b_g)
            if den > 0.0:
                rhs_fg = ((math.sqrt(a_g) - math.sqrt(a_f)) / den) ** 2

    sum_f = None
    sum_h = None
    if big_n["F"] is not None:
        sum_f = math.sqrt(big_n["F"] * cost.c0)
    if big_n["H"] is not None:
        sum_h = math.sqrt(big_n["H"] * cost.c0)

    return ProfitabilityReport(
        g_vs_single=_verdict("g-vs-single", big_n["g"], big_n["single"], lhs_single, rhs_single),
        g_vs_H=_verdict("g-vs-H", big_n["g"], big_n["H"], lhs_h, rhs_h),
        F_vs_H=_verdict("F-vs-H", big_n["F"], big_n["H"], sum_f, sum_h),
        F_vs_g=_verdict("F-vs-g", big_n["F"], big_n["g"], lhs_single, rhs_fg),
        single=res["single"],
        H=res["H"],
        g=res["g"],
        F=res["F"],
    )
