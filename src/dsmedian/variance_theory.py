"""Closed-form first-order variances and minimum variances.

All formulas are expressed through three finite-population factors

    theta_mN = 1/m - 1/N,   theta_mn = 1/m - 1/n,   theta_nN = 1/n - 1/N

and four variance building blocks

    V0 = 1 / (4 f_y(M_y)^2)          sample-median variance scale
    V1 = V0 * rho_xy^2               gain available from x
    V2 = V0 * rho_yz^2               gain available from z
    V3 = V0 * D^2 / (1 - rho_xz^2)   extra gain from the x-z association

with rho_ab = 4*P11(a, b) - 1 the median-concordance coefficients and
D = rho_yz - rho_xy * rho_xz.  The minimum variances then read

    var(median)  = theta_mN*V0
    min var (H)  = theta_mN*V0 - theta_mn*V1          (one auxiliary)
    min var (g)  = min var (H) - theta_nN*V2          (two auxiliaries)
    min var (F)  = min var (g) - theta_mn*V3          (generalized class)

so the efficiency ordering F <= g <= H <= median holds identically, with
the g-vs-H gap exactly theta_nN*V2 and the F-vs-g gap exactly theta_mn*V3.

Every formula reads a summary's concordances through
:attr:`PopulationSummary.concordances`, clamped into [-1, 1].  The optimum
derivatives are the negated :func:`~dsmedian.estimators.true_coefficients`
of the summary, the same values the ``*-true`` estimators run with.  Only
the generalized class needs 1 - rho_xz^2 > 0: at |rho_xz| = 1 (collinear
auxiliaries) V3 is None, and min var (F) and the true coefficients'
``generalized()`` raise, while V0..V2 and every other class stay defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core_stats import _finite, _integers
from .estimators import composite_concordance
from .population import PopulationSummary

__all__ = [
    "DesignSizes",
    "VarianceComponents",
    "var_sample_median",
    "var_class_g",
    "min_var_g",
    "min_var_H",
    "var_class_F",
    "min_var_F",
    "variance_components",
]


@dataclass(frozen=True)
class DesignSizes:
    """Second-phase, first-phase, and population sizes: integers with
    2 <= m < n <= N, and N (so all three) in the float range."""

    m: int
    n: int
    N: int

    def __post_init__(self) -> None:
        if not (_integers(self.m, self.n, self.N) and _finite(self.N)):
            raise ValueError(f"require integer sizes, got m={self.m!r}, n={self.n!r}, N={self.N!r}")
        if not 2 <= self.m < self.n <= self.N:
            raise ValueError(f"require 2 <= m < n <= N, got m={self.m}, n={self.n}, N={self.N}")

    @property
    def theta_mN(self) -> float:
        return 1.0 / self.m - 1.0 / self.N

    @property
    def theta_mn(self) -> float:
        return 1.0 / self.m - 1.0 / self.n

    @property
    def theta_nN(self) -> float:
        return 1.0 / self.n - 1.0 / self.N


def _scale_ratios(numerator: float, summary: PopulationSummary) -> tuple[float, float]:
    """numerator / scale_x and numerator / scale_z, with scale_a = M_a f_a(M_a).
    The class variances are written in relative errors of the auxiliary
    medians, so both products must be finite and nonzero."""
    scales = (summary.median_x * summary.density_x, summary.median_z * summary.density_z)
    for name, scale in zip(("scale_x", "scale_z"), scales):
        if not (math.isfinite(scale) and scale != 0.0):
            raise ValueError(f"{name}={scale!r} must be finite and nonzero")
    return numerator / scales[0], numerator / scales[1]


@dataclass(frozen=True)
class VarianceComponents:
    """V0 with the three nested gain terms V1, V2, V3 (squared y-units);
    V3 is None where the auxiliaries are collinear (|rho_xz| = 1)."""

    V0: float
    V1: float
    V2: float
    V3: float | None

    def __post_init__(self) -> None:
        if not (_finite(self.V0) and self.V0 > 0.0):
            raise ValueError(f"V0 must be positive, got {self.V0!r}")
        for name in ("V1", "V2", "V3"):
            v = getattr(self, name)
            if v is None and name == "V3":
                continue
            if not (_finite(v) and v >= 0.0):
                raise ValueError(f"{name} must be nonnegative, got {v!r}")
        for name in ("V1", "V2"):
            if getattr(self, name) > self.V0 * (1.0 + 1e-12):
                raise ValueError(f"{name} cannot exceed V0")

    @staticmethod
    def scaled_v0(theta: float, density_y: float) -> float:
        """theta * V0, as theta / (4 f_y^2); theta = 1 gives V0 itself.  An
        f_y whose 4 f_y^2 overflows or underflows to 0, or whose quotient
        overflows (a subnormal 4 f_y^2), raises ValueError."""
        try:
            scale = 4.0 * density_y**2
            scaled = theta / scale
        except (OverflowError, ZeroDivisionError):
            scale = scaled = math.inf
        if not (scale < math.inf and math.isfinite(scaled)):
            raise ValueError(f"V0 = 1/(4 f_y^2) is out of float range at f_y = {density_y!r}")
        return scaled

    @classmethod
    def from_concordances(
        cls, V0: float, rho_xy: float, rho_yz: float, rho_xz: float
    ) -> "VarianceComponents":
        v3 = None
        if rho_xz * rho_xz < 1.0:
            d = composite_concordance(rho_xy, rho_yz, rho_xz)
            v3 = V0 * d * d / (1.0 - rho_xz * rho_xz)
        return cls(V0=V0, V1=V0 * rho_xy * rho_xy, V2=V0 * rho_yz * rho_yz, V3=v3)


def variance_components(summary: PopulationSummary) -> VarianceComponents:
    """V0..V3 of a population summary: f_y and the clamped concordances."""
    v0 = VarianceComponents.scaled_v0(1.0, summary.density_y)
    return VarianceComponents.from_concordances(v0, *summary.concordances)


def var_sample_median(sizes: DesignSizes, summary: PopulationSummary) -> float:
    """First-order variance of the plain sample median: theta_mN / (4 f_y^2)."""
    return VarianceComponents.scaled_v0(sizes.theta_mN, summary.density_y)


# ---------------------------------------------------------------------------
# Two-ratio class: variance at arbitrary derivatives, optimum, minimum
# ---------------------------------------------------------------------------


def var_class_g(
    sizes: DesignSizes, summary: PopulationSummary, g1_deriv: float, g2_deriv: float
) -> float:
    """First-order variance of the two-ratio class at derivatives
    (g1, g2) = (dg/du, dg/dv) at (1, 1).  The optimum derivatives are the
    negated alphas of the summary's true coefficients,
    ``-a for a in true_coefficients(summary).alphas()``."""
    rx, rz = _scale_ratios(summary.median_y * summary.density_y, summary)
    rho_xy, rho_yz, _ = summary.concordances
    a_term = rx * g1_deriv * (rx * g1_deriv + 2.0 * rho_xy)
    b_term = rz * g2_deriv * (rz * g2_deriv + 2.0 * rho_yz)
    v0 = VarianceComponents.scaled_v0(1.0, summary.density_y)
    return v0 * (sizes.theta_mN + sizes.theta_mn * a_term + sizes.theta_nN * b_term)


def min_var_g(sizes: DesignSizes, comps: VarianceComponents) -> float:
    """Minimum variance of the two-ratio (and wider) class:
    theta_mN*V0 - theta_mn*V1 - theta_nN*V2."""
    return sizes.theta_mN * comps.V0 - sizes.theta_mn * comps.V1 - sizes.theta_nN * comps.V2


def min_var_H(sizes: DesignSizes, comps: VarianceComponents) -> float:
    """Minimum variance of the single-auxiliary class:
    theta_mN*V0 - theta_mn*V1."""
    return sizes.theta_mN * comps.V0 - sizes.theta_mn * comps.V1


# ---------------------------------------------------------------------------
# Generalized three-ratio class
# ---------------------------------------------------------------------------


def var_class_F(
    sizes: DesignSizes,
    summary: PopulationSummary,
    f2_deriv: float,
    f3_deriv: float,
    f4_deriv: float,
) -> float:
    """First-order variance of the generalized class at derivatives
    (F2, F3, F4) with respect to (u, v, w) at the expansion point.  The
    optimum derivatives are the negated a1..a3 of the summary's true
    coefficients, ``-a for a in true_coefficients(summary).generalized()``;
    D = rho_yz - rho_xy*rho_xz (:func:`composite_concordance`) drives
    their extra V3 gain."""
    cx, cz = _scale_ratios(summary.density_y, summary)
    rho_xy, rho_yz, rho_xz = summary.concordances
    a1_term = 1.0 + (cz * f4_deriv) ** 2 + 2.0 * rho_yz * cz * f4_deriv
    a2_term = cx * (
        cx * f2_deriv**2
        + 2.0 * rho_xy * f2_deriv
        + 2.0 * rho_xz * cz * f2_deriv * f4_deriv
    )
    a3_term = cz * (
        cz * f3_deriv**2 + 2.0 * rho_yz * f3_deriv + 2.0 * cz * f3_deriv * f4_deriv
    )
    v0 = VarianceComponents.scaled_v0(1.0, summary.density_y)
    return v0 * (
        sizes.theta_mN * a1_term + sizes.theta_mn * a2_term + sizes.theta_nN * a3_term
    )


def min_var_F(sizes: DesignSizes, comps: VarianceComponents) -> float:
    """Minimum variance of the generalized class: min_var_g - theta_mn*V3."""
    if comps.V3 is None:
        raise ValueError("V3 undefined: collinear auxiliaries (|rho_xz| = 1)")
    return min_var_g(sizes, comps) - sizes.theta_mn * comps.V3
