"""Point estimators of the study-variate median from a two-phase sample.

The catalog covers the known-auxiliary-median baselines (ratio, position,
stratification), the double-sampling ratio, the linear regression
representatives of the ratio-function classes (one and two auxiliaries,
and the generalized three-ratio class), and seven concrete parametric
ratio forms.  Plug-in coefficients estimate the optimum parameters from
second-phase data only, so each class can be run at its estimated optimum
without outside information.

Conventions shared by all estimators: every median is the left-continuous
inverse ECDF at 0.5; ``u = mx / mx1`` (second-phase over first-phase
auxiliary median), ``v = mz1 / Mz`` and ``w = mz / Mz`` where ``Mz`` is
the known population median of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_stats import (
    _quantile_sorted,
    _silverman_bandwidth,
    kde_at,
    proportion_matrix,
)
from .population import Population, PopulationSummary
from .sampling import TwoPhaseSample

__all__ = [
    "EstimatorError",
    "SampleView",
    "SampleMedians",
    "PluginCoefficients",
    "GForm",
    "ratio_known",
    "position_estimator",
    "position_probability",
    "stratification_estimator",
    "ratio_double",
    "optimum_coefficients",
    "composite_concordance",
    "plugin_coefficients",
    "true_coefficients",
    "regression_two_aux",
    "regression_single_aux",
    "class_g_estimate",
    "class_F_estimate",
    "gform_estimated_optimum",
    "ESTIMATOR_IDS",
    "G_FORM_IDS",
    "evaluate_estimator",
    "evaluate_with_diagnostics",
]


class EstimatorError(ValueError):
    """An estimator's domain requirements are not met by the sample at hand."""


def _frozen(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel().copy()
    if arr.size == 0:
        raise EstimatorError(f"empty sample: {name}")
    if not np.all(np.isfinite(arr)):
        raise EstimatorError(f"invalid datum in {name}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SampleView:
    """The data an estimator sees: second-phase (x, y, z) triples,
    first-phase (x, z) pairs, and the known population medians.

    ``known_mz`` (the population median of z) is always available in the
    designs covered here; ``known_mx`` is optional and only consumed by
    the single-phase baselines (ratio-known, position, stratified).

    Every estimator is a function of the same order statistics, so the
    view sorts each variable once when it is built: ``sorted_y_m``,
    ``sorted_x_m``, ``sorted_z_m``, ``sorted_x_n`` and ``sorted_z_n`` are
    read-only sorted copies, and ``medians`` holds the five phase medians.
    Standard deviations and kernel sums still run over the arrays in
    their original order, because the summation order decides the last
    bits of a floating-point sum.
    """

    y_m: np.ndarray
    x_m: np.ndarray
    z_m: np.ndarray
    x_n: np.ndarray
    z_n: np.ndarray
    known_mz: float
    known_mx: float | None = None
    sorted_y_m: np.ndarray = field(init=False, repr=False)
    sorted_x_m: np.ndarray = field(init=False, repr=False)
    sorted_z_m: np.ndarray = field(init=False, repr=False)
    sorted_x_n: np.ndarray = field(init=False, repr=False)
    sorted_z_n: np.ndarray = field(init=False, repr=False)
    medians: SampleMedians = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("y_m", "x_m", "z_m", "x_n", "z_n"):
            arr = _frozen(getattr(self, name), name)
            ordered = np.sort(arr)
            ordered.flags.writeable = False
            object.__setattr__(self, name, arr)
            object.__setattr__(self, "sorted_" + name, ordered)
        if not (self.y_m.size == self.x_m.size == self.z_m.size):
            raise EstimatorError("second-phase variables must have equal length")
        if self.x_n.size != self.z_n.size:
            raise EstimatorError("first-phase variables must have equal length")
        if self.x_n.size < self.y_m.size:
            raise EstimatorError("first phase cannot be smaller than second phase")
        if not math.isfinite(self.known_mz):
            raise EstimatorError("known_mz must be finite")
        if self.known_mx is not None and not math.isfinite(self.known_mx):
            raise EstimatorError("known_mx must be finite when given")
        medians = SampleMedians(
            my=_quantile_sorted(self.sorted_y_m, 0.5),
            mx=_quantile_sorted(self.sorted_x_m, 0.5),
            mx1=_quantile_sorted(self.sorted_x_n, 0.5),
            mz=_quantile_sorted(self.sorted_z_m, 0.5),
            mz1=_quantile_sorted(self.sorted_z_n, 0.5),
        )
        object.__setattr__(self, "medians", medians)

    @property
    def m(self) -> int:
        return self.y_m.size

    @property
    def n(self) -> int:
        return self.x_n.size

    @classmethod
    def from_population(cls, pop: Population, sample: TwoPhaseSample) -> "SampleView":
        """Materialise the view for a drawn sample; the known medians are
        the census medians of the population (knowable from the frame)."""
        sm, sn = sample.second_phase, sample.first_phase
        return cls(
            y_m=pop.y[sm],
            x_m=pop.x[sm],
            z_m=pop.z[sm],
            x_n=pop.x[sn],
            z_n=pop.z[sn],
            known_mz=pop.median_z,
            known_mx=pop.median_x,
        )


@dataclass(frozen=True)
class SampleMedians:
    """Phase-wise sample medians: my, mx, mz over S_m; mx1, mz1 over S_n."""

    my: float
    mx: float
    mx1: float
    mz: float
    mz1: float


# ---------------------------------------------------------------------------
# Known-auxiliary-median baselines
# ---------------------------------------------------------------------------


def _require_known_mx(view: SampleView) -> float:
    if view.known_mx is None:
        raise EstimatorError("known population median of x required")
    return view.known_mx


def ratio_known(view: SampleView) -> float:
    """Ratio estimator with known auxiliary median: my * Mx / mx."""
    mx_known = _require_known_mx(view)
    meds = view.medians
    if meds.mx == 0.0:
        raise EstimatorError("ratio undefined: second-phase median of x is zero")
    return meds.my * (mx_known / meds.mx)


def position_probability(view: SampleView) -> tuple[float, float, bool]:
    """The re-estimated proportion below the median used by the position
    estimator.

    Returns (raw, clamped, clamp_fired).  The proportion is the two-term
    form 2*(m_x*p11 + (m - m_x)*p12)/m with quadrant proportions taken
    about the second-phase sample medians and m_x counted against the
    known median of x.
    """
    mx_known = _require_known_mx(view)
    m = view.m
    if m < 2:
        raise EstimatorError("position estimator needs m >= 2")
    meds = view.medians
    pm = proportion_matrix(np.column_stack((view.x_m, view.y_m)), meds.mx, meds.my)
    m_x = int(np.count_nonzero(view.x_m <= mx_known))
    raw = 2.0 * (m_x * pm.p11 + (m - m_x) * pm.p12) / m
    clamped = min(max(raw, 1.0 / m), 1.0)
    return raw, clamped, clamped != raw


# (value, clamped, fell_back): an estimate with the diagnostics of the call
# that computed it -- the position estimator clamped its proportion into
# [1/m, 1], the stratification estimator found a stratum empty and returned
# the sample median
Estimate = tuple[float, bool, bool]


def _position(view: SampleView) -> Estimate:
    _, p_hat, clamped = position_probability(view)
    return _quantile_sorted(view.sorted_y_m, p_hat), clamped, False


def position_estimator(view: SampleView) -> float:
    """Position estimator: invert the second-phase ECDF of y at the
    auxiliary-stratified proportion estimate."""
    return _position(view)[0]


def _stratified(view: SampleView) -> Estimate:
    mx_known = _require_known_mx(view)
    low = view.x_m <= mx_known
    y_low = np.sort(view.y_m[low])
    y_high = np.sort(view.y_m[~low])
    if y_low.size == 0 or y_high.size == 0:
        return view.medians.my, False, True
    ys = view.sorted_y_m
    f_low = np.searchsorted(y_low, ys, side="right") / y_low.size
    f_high = np.searchsorted(y_high, ys, side="right") / y_high.size
    f_avg = 0.5 * (f_low + f_high)
    return float(ys[int(np.argmax(f_avg >= 0.5))]), False, False


def stratification_estimator(view: SampleView) -> float:
    """Smallest y where the average of the two within-stratum ECDFs
    (strata split at the known median of x) reaches 0.5; an empty stratum
    raises (:func:`evaluate_with_diagnostics` falls back instead)."""
    value, _, fell_back = _stratified(view)
    if fell_back:
        raise EstimatorError("stratification undefined: one stratum is empty")
    return value


# ---------------------------------------------------------------------------
# Double-sampling estimators
# ---------------------------------------------------------------------------


def ratio_double(view: SampleView) -> float:
    """Double-sampling ratio estimator: my * mx1 / mx."""
    meds = view.medians
    if meds.mx == 0.0:
        raise EstimatorError("ratio undefined: second-phase median of x is zero")
    return meds.my * (meds.mx1 / meds.mx)


@dataclass(frozen=True)
class PluginCoefficients:
    """Regression and optimum-parameter coefficients.

    Normally these are the second-phase sample plug-ins (hats); the same
    container carries the population-true values when the optimum is
    computed from a :class:`PopulationSummary` instead (they are the
    estimands of the hats).  Each set is None outside its own domain:
    ``alpha1_hat``/``alpha2_hat`` when the median of y is zero,
    ``a1_hat``..``a3_hat`` when the auxiliaries are collinear.
    """

    d1_hat: float
    d2_hat: float
    alpha1_hat: float | None
    alpha2_hat: float | None
    alpha1_star_hat: float
    alpha2_star_hat: float
    a1_hat: float | None
    a2_hat: float | None
    a3_hat: float | None

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise EstimatorError(f"non-finite coefficient {name}")

    def alphas(self) -> tuple[float, float]:
        """(alpha1, alpha2), the optimum of the two-ratio class."""
        if self.alpha1_hat is None:
            raise EstimatorError("median of y is zero: alpha coefficients undefined")
        return self.alpha1_hat, self.alpha2_hat

    def generalized(self) -> tuple[float, float, float]:
        """(a1, a2, a3), the optimum of the generalized three-ratio class."""
        if self.a1_hat is None:
            raise EstimatorError("collinear auxiliaries: (4 p11(x,z) - 1)^2 reached 1")
        return self.a1_hat, self.a2_hat, self.a3_hat


def composite_concordance(rho_xy: float, rho_yz: float, rho_xz: float) -> float:
    """D = rho_yz - rho_xy*rho_xz: the y-z concordance left after x."""
    return rho_yz - rho_xy * rho_xz


def optimum_coefficients(
    medians: tuple[float, float, float],
    densities: tuple[float, float, float],
    rhos: tuple[float, float, float],
) -> PluginCoefficients:
    """Every optimum coefficient at medians (M_x, M_y, M_z), densities
    (f_x, f_y, f_z) at the medians and concordances (rho_xy, rho_yz,
    rho_xz): the hats at second-phase plug-ins, the true optima at
    population values.  All need f_y > 0; alpha1/alpha2 also M_y != 0,
    a1..a3 also 1 - rho_xz^2 > 0."""
    mx, my, mz = medians
    fx, fy, fz = densities
    rho_xy, rho_yz, rho_xz = rhos
    if fy <= 0.0:
        raise EstimatorError("zero density: f_y at its median vanished")
    alpha1_star = mx * fx * rho_xy / fy
    alpha2_star = mz * fz * rho_yz / fy
    alpha1 = alpha2 = a1 = a2 = a3 = None
    if my != 0.0:
        alpha1 = alpha1_star / my
        alpha2 = alpha2_star / my
    denom = 1.0 - rho_xz * rho_xz
    if denom > 0.0:
        d_x = rho_xy - rho_yz * rho_xz
        a1 = d_x * mx * fx / (denom * fy)
        a2 = rho_xz * d_x * mz * fz / (denom * fy)
        a3 = composite_concordance(rho_xy, rho_yz, rho_xz) * mz * fz / (denom * fy)
    return PluginCoefficients(
        d1_hat=(fx / fy) * rho_xy,
        d2_hat=(fz / fy) * rho_yz,
        alpha1_hat=alpha1,
        alpha2_hat=alpha2,
        alpha1_star_hat=alpha1_star,
        alpha2_star_hat=alpha2_star,
        a1_hat=a1,
        a2_hat=a2,
        a3_hat=a3,
    )


def plugin_coefficients(view: SampleView) -> PluginCoefficients:
    """Sample analogues of every optimum coefficient, from S_m only.

    Quadrant proportions are taken about the second-phase sample medians;
    densities are Gaussian KDEs with Silverman bandwidths at those medians.
    """
    if view.m < 4:
        raise EstimatorError("plug-in coefficients need m >= 4")
    meds = view.medians
    dens = {}
    for name, values, ordered, at in (
        ("x", view.x_m, view.sorted_x_m, meds.mx),
        ("y", view.y_m, view.sorted_y_m, meds.my),
        ("z", view.z_m, view.sorted_z_m, meds.mz),
    ):
        try:
            h = _silverman_bandwidth(values, ordered)
        except ValueError as exc:
            raise EstimatorError(f"degenerate second-phase {name} sample") from exc
        dens[name] = kde_at(values, at, h).value
    pm_xy = proportion_matrix(np.column_stack((view.x_m, view.y_m)), meds.mx, meds.my)
    pm_xz = proportion_matrix(np.column_stack((view.x_m, view.z_m)), meds.mx, meds.mz)
    pm_yz = proportion_matrix(np.column_stack((view.y_m, view.z_m)), meds.my, meds.mz)
    return optimum_coefficients(
        (meds.mx, meds.my, meds.mz),
        (dens["x"], dens["y"], dens["z"]),
        (pm_xy.concordance, pm_yz.concordance, pm_xz.concordance),
    )


def true_coefficients(summary: PopulationSummary) -> PluginCoefficients:
    """Population-true optimum coefficients from a summary (no hats)."""
    return optimum_coefficients(
        (summary.median_x, summary.median_y, summary.median_z),
        (summary.density_x, summary.density_y, summary.density_z),
        (summary.pm_xy.concordance, summary.pm_yz.concordance, summary.pm_xz.concordance),
    )


def regression_two_aux(view: SampleView, coeffs: PluginCoefficients) -> float:
    """Linear regression estimator with both auxiliaries:
    my + d1*(mx1 - mx) + d2*(Mz - mz1).  Attains the class minimum
    variance to first order."""
    meds = view.medians
    return (
        meds.my
        + coeffs.d1_hat * (meds.mx1 - meds.mx)
        + coeffs.d2_hat * (view.known_mz - meds.mz1)
    )


def regression_single_aux(view: SampleView, coeffs: PluginCoefficients) -> float:
    """Single-auxiliary regression estimator: my + d1*(mx1 - mx)."""
    meds = view.medians
    return meds.my + coeffs.d1_hat * (meds.mx1 - meds.mx)


# ---------------------------------------------------------------------------
# Parametric ratio-function classes
# ---------------------------------------------------------------------------

G_FORM_IDS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")


@dataclass(frozen=True)
class GForm:
    """A concrete member of the two-ratio estimator class, g(1, 1) = 1.

    form g1: u**alpha * v**beta
    form g2: (1 + alpha*(u-1)) / (1 - beta*(v-1))
    form g3: 1 + alpha*(u-1) + beta*(v-1)
    form g4: 1 / (1 - alpha*(u-1) - beta*(v-1))
    form g5: w1*u**alpha + w2*v**beta, w1 + w2 = 1
    form g6: alpha*u + (1-alpha)*v**beta
    form g7: exp(alpha*(u-1) + beta*(v-1))
    """

    form: str
    alpha: float
    beta: float
    w1: float | None = None
    w2: float | None = None

    def __post_init__(self) -> None:
        if self.form not in G_FORM_IDS:
            raise EstimatorError(f"unknown g-form {self.form!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise EstimatorError("g-form parameters must be finite")
        if self.form == "g5":
            if self.w1 is None or self.w2 is None:
                raise EstimatorError("g5 needs weights w1, w2")
            if abs(self.w1 + self.w2 - 1.0) > 1e-12:
                raise EstimatorError("g5 weights must sum to 1")
        elif self.w1 is not None or self.w2 is not None:
            raise EstimatorError(f"weights only apply to g5, not {self.form}")

    def __call__(self, u: float, v: float) -> float:
        a, b = self.alpha, self.beta
        try:
            if self.form == "g1":
                _require_positive_ratios(u, v)
                return u**a * v**b
            if self.form == "g2":
                denom = 1.0 - b * (v - 1.0)
                if denom == 0.0:
                    raise EstimatorError("g2 denominator vanished")
                return (1.0 + a * (u - 1.0)) / denom
            if self.form == "g3":
                return 1.0 + a * (u - 1.0) + b * (v - 1.0)
            if self.form == "g4":
                denom = 1.0 - a * (u - 1.0) - b * (v - 1.0)
                if denom <= 0.0:
                    raise EstimatorError("g4 denominator not positive")
                return 1.0 / denom
            if self.form == "g5":
                _require_positive_ratios(u, v)
                return self.w1 * u**a + self.w2 * v**b
            if self.form == "g6":
                if v <= 0.0:
                    raise EstimatorError("invalid ratio for power form: requires v > 0")
                return a * u + (1.0 - a) * v**b
            # g7
            return math.exp(a * (u - 1.0) + b * (v - 1.0))
        except OverflowError:
            raise EstimatorError(f"{self.form} overflows at u={u!r}, v={v!r}") from None


def _require_positive_ratios(u: float, v: float) -> None:
    if u <= 0.0 or v <= 0.0:
        raise EstimatorError("invalid ratio for power form: requires u > 0 and v > 0")


def gform_estimated_optimum(form: str, alpha1: float, alpha2: float) -> GForm:
    """Parameterize a g-form so its (u, v) gradient at (1, 1) equals
    (-alpha1, -alpha2), the optimum of the class.

    g5 uses equal weights; g6 solves (1 - alpha)*beta = -alpha2 and needs
    1 + alpha1 != 0.
    """
    if form == "g5":
        return GForm(form="g5", alpha=-2.0 * alpha1, beta=-2.0 * alpha2, w1=0.5, w2=0.5)
    if form == "g6":
        if 1.0 + alpha1 == 0.0:
            raise EstimatorError("g6 optimum undefined: 1 + alpha1 = 0")
        return GForm(form="g6", alpha=-alpha1, beta=-alpha2 / (1.0 + alpha1))
    if form in G_FORM_IDS:
        return GForm(form=form, alpha=-alpha1, beta=-alpha2)
    raise EstimatorError(f"unknown g-form {form!r}")


def _ratios(view: SampleView, meds: SampleMedians) -> tuple[float, float, float]:
    if meds.mx1 == 0.0:
        raise EstimatorError("first-phase median of x is zero: u undefined")
    if view.known_mz == 0.0:
        raise EstimatorError("known median of z is zero: v, w undefined")
    u = meds.mx / meds.mx1
    v = meds.mz1 / view.known_mz
    w = meds.mz / view.known_mz
    return u, v, w


def class_g_estimate(view: SampleView, form: GForm) -> float:
    """my * g(u, v) for a concrete parametric form."""
    meds = view.medians
    u, v, _ = _ratios(view, meds)
    return meds.my * form(u, v)


def class_F_estimate(view: SampleView, coeffs: PluginCoefficients) -> float:
    """Linear representative of the generalized three-ratio class:
    my - a1*(u-1) - a2*(v-1) - a3*(w-1), at the (estimated) optimum."""
    a1, a2, a3 = coeffs.generalized()
    meds = view.medians
    u, v, w = _ratios(view, meds)
    return meds.my - a1 * (u - 1.0) - a2 * (v - 1.0) - a3 * (w - 1.0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ESTIMATOR_IDS = (
    "median",
    "ratio-known",
    "position",
    "stratified",
    "ratio-double",
    "reg-x",
    "reg-xz",
    *G_FORM_IDS,
    "f-linear",
)

#: Estimator ids that consume plug-in (or true) optimum coefficients.
COEFFICIENT_IDS = frozenset(("reg-x", "reg-xz", "f-linear", *G_FORM_IDS))


def evaluate_estimator(
    est_id: str, view: SampleView, coeffs: PluginCoefficients | None = None
) -> float:
    """Evaluate one catalog estimator by its stable id.

    ``coeffs`` feeds the regression estimators, the g-forms (run at the
    optimum parameters implied by alpha1/alpha2) and the generalized-class
    representative; when omitted it is computed from the view.
    """
    if est_id == "median":
        return view.medians.my
    if est_id == "ratio-known":
        return ratio_known(view)
    if est_id == "position":
        return position_estimator(view)
    if est_id == "stratified":
        return stratification_estimator(view)
    if est_id == "ratio-double":
        return ratio_double(view)
    if est_id in COEFFICIENT_IDS:
        if coeffs is None:
            coeffs = plugin_coefficients(view)
        if est_id == "reg-x":
            return regression_single_aux(view, coeffs)
        if est_id == "reg-xz":
            return regression_two_aux(view, coeffs)
        if est_id == "f-linear":
            return class_F_estimate(view, coeffs)
        return class_g_estimate(view, gform_estimated_optimum(est_id, *coeffs.alphas()))
    raise EstimatorError(f"unknown estimator id {est_id!r}")


def evaluate_with_diagnostics(
    est_id: str, view: SampleView, coeffs: PluginCoefficients | None = None
) -> Estimate:
    """:func:`evaluate_estimator` as ``(value, clamped, fell_back)``:
    ``position`` reports whether its proportion estimate was clamped, and
    ``stratified`` falls back to the second-phase median on an empty
    stratum (which :func:`evaluate_estimator` rejects) and says so."""
    if est_id == "position":
        return _position(view)
    if est_id == "stratified":
        return _stratified(view)
    return evaluate_estimator(est_id, view, coeffs), False, False
