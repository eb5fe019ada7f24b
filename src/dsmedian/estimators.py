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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core_stats import (
    _finite,
    _finite_floats,
    _median_split,
    _quadrant_counts,
    _quantile_selected,
    _quantile_sorted,
    _split_failure,
)
from .population import Population, PopulationSummary
from .sampling import TwoPhaseSample, _unchecked

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


def _checked(values, name: str) -> np.ndarray:
    arr = _finite_floats(values)
    if arr is None:
        raise EstimatorError(f"invalid datum in {name}")
    if arr.size == 0:
        raise EstimatorError(f"empty sample: {name}")
    return arr.ravel()


def _require_finite(value, message: str) -> None:
    if not _finite(value):
        raise EstimatorError(message)


class _KnownMedianX:
    """SampleView.known_mx: a finite float, None, or a Population read as its median of x."""

    def __get__(self, view, owner=None):
        known = None if view is None else view.__dict__["_known_mx"]
        return known.median_x if isinstance(known, Population) else known

    def __set__(self, view, known) -> None:
        if not (known is None or isinstance(known, Population)):
            _require_finite(known, "known_mx must be finite when given")
        view.__dict__["_known_mx"] = known


@dataclass(frozen=True, eq=False)
class SampleView:
    """The data an estimator sees: second-phase (x, y, z) triples,
    first-phase (x, z) pairs, and the known population medians.

    ``known_mz`` (the population median of z) is always available in the
    designs covered here; ``known_mx`` is optional and only consumed by
    the single-phase baselines (ratio-known, position, stratified); given
    the population, it is its census median, computed on first read.

    Every estimator is a function of the same order statistics, so the
    view keeps three read-only sorted copies, ``sorted_y_m``, ``sorted_x_m``
    and ``sorted_z_m``; ``medians`` holds their medians and the two
    first-phase medians, selected.  Standard deviations and kernel sums
    run over the arrays in their original order, because the summation
    order decides the last bits of a floating-point sum.

    Every view comes from one builder, :func:`_views`, which the
    replicate engine calls once per chunk of samples, :meth:`from_population`
    with one sample, and this constructor with read-only copies of the
    arrays passed in, once they pass its checks.  The builder's views hold
    the read-only arrays, sorted copies and medians it computed, unchecked:
    they never pass through this constructor, whose checks always run.
    """

    y_m: np.ndarray
    x_m: np.ndarray
    z_m: np.ndarray
    x_n: np.ndarray
    z_n: np.ndarray
    known_mz: float
    known_mx: float | Population | None = _KnownMedianX()
    sorted_y_m: np.ndarray = field(init=False, repr=False)
    sorted_x_m: np.ndarray = field(init=False, repr=False)
    sorted_z_m: np.ndarray = field(init=False, repr=False)
    medians: SampleMedians = field(init=False, repr=False)

    def __post_init__(self) -> None:
        y_m, x_m, z_m, x_n, z_n = (
            _checked(getattr(self, name), name) for name in ("y_m", "x_m", "z_m", "x_n", "z_n")
        )
        if not (y_m.size == x_m.size == z_m.size):
            raise EstimatorError("second-phase variables must have equal length")
        if x_n.size != z_n.size:
            raise EstimatorError("first-phase variables must have equal length")
        if x_n.size < y_m.size:
            raise EstimatorError("first phase cannot be smaller than second phase")
        _require_finite(self.known_mz, "known_mz must be finite")
        [view], _, _ = _views(np.array((x_m, y_m, z_m))[:, None], np.array((x_n, z_n))[:, None],
                              self.known_mz, self.__dict__["_known_mx"])
        self.__dict__.update(view.__dict__)

    @property
    def m(self) -> int:
        return self.y_m.size

    @classmethod
    def from_population(cls, pop: Population, sample: TwoPhaseSample) -> "SampleView":
        """Materialise the view for a drawn sample; the known medians are
        the census medians of the population (knowable from the frame)."""
        [view], _, _ = _views(pop.xyz.take(sample.second_phase[None], axis=1),
                              pop.xyz.take(sample.first_phase[None], axis=1)[::2],
                              pop.median_z, pop)
        return view


@dataclass(frozen=True)
class SampleMedians:
    """Phase-wise sample medians: my, mx, mz over S_m; mx1, mz1 over S_n."""

    my: float
    mx: float
    mx1: float
    mz: float
    mz1: float


def _views(
    second: np.ndarray, first: np.ndarray, known_mz, known_mx
) -> tuple[list[SampleView], np.ndarray, np.ndarray]:
    """The views of k samples, from their (3, k, m) x, y, z values over S_m
    and (2, k, n) x, z values over S_n, which it makes read-only: the one
    owner of a view's sorted copies and five phase medians, which are
    floats (from ``tolist``) that no constructor checks again.  Returns the
    views, whose arrays are rows of these, with the (3, k, m) sorted copies
    and (3, k) medians of x, y, z over S_m that :func:`_plugin_rows` reads."""
    ordered = np.sort(second, axis=-1)
    meds = _quantile_sorted(ordered, 0.5)
    first_meds = _quantile_selected(first, 0.5)
    for arr in (second, first, ordered):
        arr.flags.writeable = False
    views = [
        _unchecked(SampleView, y_m=y, x_m=x, z_m=z, x_n=x1, z_n=z1, known_mz=known_mz,
                   _known_mx=known_mx, sorted_y_m=sy, sorted_x_m=sx, sorted_z_m=sz,
                   medians=_unchecked(SampleMedians, my=my, mx=mx, mx1=mx1, mz=mz, mz1=mz1))
        for x, y, z, x1, z1, sx, sy, sz, mx, my, mz, mx1, mz1
        in zip(*second, *first, *ordered, *meds.tolist(), *first_meds.tolist())
    ]
    return views, ordered, meds


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
    c11, c12, _, _ = (int(c) for c in _quadrant_counts(view.x_m <= meds.mx, view.y_m <= meds.my))
    m_x = int(np.count_nonzero(view.x_m <= mx_known))
    raw = 2.0 * (m_x * (c11 / m) + (m - m_x) * (c12 / m)) / m
    clamped = min(max(raw, 1.0 / m), 1.0)
    return raw, clamped, clamped != raw


# (value, clamped, fell_back): an estimate with the diagnostics of the call
# that computed it -- the position estimator clamped its proportion into
# [1/m, 1], the stratification estimator found a stratum empty and returned
# the sample median
Estimate = tuple[float, bool, bool]


def _position(view: SampleView) -> Estimate:
    _, p_hat, clamped = position_probability(view)
    return float(_quantile_sorted(view.sorted_y_m, p_hat)), clamped, False


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
    return evaluate_estimator("stratified", view)


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
            if value is not None and not _finite(value):
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
    a1..a3 also 1 - rho_xz^2 > 0.  Its nine floats are checked once, in
    field order, so a non-finite one raises the EstimatorError the public
    constructor would, and the result is built past that constructor."""
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
    coefficients = dict(
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
    for name, value in coefficients.items():
        if value is not None and not math.isfinite(value):
            raise EstimatorError(f"non-finite coefficient {name}")
    return _unchecked(PluginCoefficients, **coefficients)


def plugin_coefficients(view: SampleView) -> PluginCoefficients:
    """Sample analogues of every optimum coefficient, from S_m only.

    Densities are Gaussian KDEs with Silverman bandwidths at the
    second-phase sample medians, concordances 4*p11 - 1 come from the
    quadrant counts about them, both from the owner the census summary
    shares, :func:`~dsmedian.core_stats._median_split`.  A sample whose
    bandwidth is not finite and positive, or whose density overflows, is
    degenerate and raises EstimatorError.
    The concordances are not clamped, unlike the census ones of
    :attr:`PopulationSummary.concordances`: about a lower median they reach
    1 + 2/m at odd m (ties push them further), and |rho_xz| >= 1 leaves
    a1..a3 None.
    """
    meds = view.medians
    [coeffs] = _plugin_rows(np.array((view.x_m, view.y_m, view.z_m))[:, None],
                            np.array((view.sorted_x_m, view.sorted_y_m, view.sorted_z_m))[:, None],
                            np.array(((meds.mx,), (meds.my,), (meds.mz,))))
    if isinstance(coeffs, EstimatorError):
        raise coeffs
    return coeffs


def _plugin_rows(values: np.ndarray, ordered: np.ndarray,
                 medians: np.ndarray) -> list[PluginCoefficients | EstimatorError]:
    """:func:`plugin_coefficients` along the last axis of (3, k, m)
    second-phase x, y, z samples, given their sorted copies and (3, k)
    medians: per sample, its coefficients or the EstimatorError that says
    why it has none."""
    m = values.shape[-1]
    if m < 4:
        return [EstimatorError("plug-in coefficients need m >= 4")] * values.shape[1]
    dens, (c11, *_), codes = _median_split(values, ordered, medians)
    rhos = 4.0 * (c11 / m) - 1.0  # the concordances of the three pairs
    out: list[PluginCoefficients | EstimatorError] = []
    for code, *row in zip(codes.tolist(), *medians.tolist(), *dens.tolist(), *rhos.tolist()):
        try:  # row: the medians, the densities and the concordances
            if code:
                name, overflowed = _split_failure(code)
                why = ": density overflows" if overflowed else ""
                raise EstimatorError(f"degenerate second-phase {name} sample{why}")
            out.append(optimum_coefficients(row[:3], row[3:6], row[6:]))
        except EstimatorError as exc:
            out.append(exc)
    return out


def true_coefficients(summary: PopulationSummary) -> PluginCoefficients:
    """Population-true optimum coefficients from a summary (no hats), at its
    clamped concordances: the one optimum at a summary, which the variance
    theory and the ``*-true`` estimators both read."""
    return optimum_coefficients(
        (summary.median_x, summary.median_y, summary.median_z),
        (summary.density_x, summary.density_y, summary.density_z),
        summary.concordances,
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
        _require_finite_parameters(self.alpha, self.beta)
        if self.form == "g5":
            if self.w1 is None or self.w2 is None:
                raise EstimatorError("g5 needs weights w1, w2")
            _require_finite_parameters(self.w1, self.w2)
            if abs(self.w1 + self.w2 - 1.0) > 1e-12:
                raise EstimatorError("g5 weights must sum to 1")
        elif self.w1 is not None or self.w2 is not None:
            raise EstimatorError(f"weights only apply to g5, not {self.form}")

    def __call__(self, u: float, v: float) -> float:
        return _g_value(self.form, self.alpha, self.beta, self.w1, self.w2, u, v)


def _require_finite_parameters(a: float, b: float) -> None:
    if not (_finite(a) and _finite(b)):
        raise EstimatorError("g-form parameters must be finite")


def _g_value(form: str, a: float, b: float, w1: float | None, w2: float | None,
             u: float, v: float) -> float:
    """g(u, v) of ``form`` at parameters alpha = a, beta = b and the g5
    weights: the one owner of the seven formulas of :class:`GForm`."""
    try:
        if form == "g1":
            _require_positive_ratios(u, v)
            return u**a * v**b
        if form == "g2":
            denom = 1.0 - b * (v - 1.0)
            if denom == 0.0:
                raise EstimatorError("g2 denominator vanished")
            return (1.0 + a * (u - 1.0)) / denom
        if form == "g3":
            return 1.0 + a * (u - 1.0) + b * (v - 1.0)
        if form == "g4":
            denom = 1.0 - a * (u - 1.0) - b * (v - 1.0)
            if denom <= 0.0:
                raise EstimatorError("g4 denominator not positive")
            return 1.0 / denom
        if form == "g5":
            _require_positive_ratios(u, v)
            return w1 * u**a + w2 * v**b
        if form == "g6":
            if v <= 0.0:
                raise EstimatorError("invalid ratio for power form: requires v > 0")
            return a * u + (1.0 - a) * v**b
        # g7
        return math.exp(a * (u - 1.0) + b * (v - 1.0))
    except OverflowError:
        raise EstimatorError(f"{form} overflows at u={u!r}, v={v!r}") from None


def _require_positive_ratios(u: float, v: float) -> None:
    if u <= 0.0 or v <= 0.0:
        raise EstimatorError("invalid ratio for power form: requires u > 0 and v > 0")


def gform_estimated_optimum(form: str, alpha1: float, alpha2: float) -> GForm:
    """Parameterize a g-form so its (u, v) gradient at (1, 1) equals
    (-alpha1, -alpha2), the optimum of the class.

    g5 uses equal weights; g6 solves (1 - alpha)*beta = -alpha2 and needs
    1 + alpha1 != 0.
    """
    return GForm(form, *_optimum_parameters(form, alpha1, alpha2))


def _optimum_parameters(
    form: str, alpha1: float, alpha2: float
) -> tuple[float, float, float | None, float | None]:
    """(alpha, beta, w1, w2) of :func:`gform_estimated_optimum`, unchecked
    for finiteness."""
    if form == "g5":
        return -2.0 * alpha1, -2.0 * alpha2, 0.5, 0.5
    if form == "g6":
        if 1.0 + alpha1 == 0.0:
            raise EstimatorError("g6 optimum undefined: 1 + alpha1 = 0")
        return -alpha1, -alpha2 / (1.0 + alpha1), None, None
    if form in G_FORM_IDS:
        return -alpha1, -alpha2, None, None
    raise EstimatorError(f"unknown g-form {form!r}")


def _ratios(view: SampleView) -> tuple[float, float, float]:
    """The view's (u, v, w).  Its first read computes them (:func:`_uvw`)
    and keeps them in the frozen view's ``__dict__``, as
    ``functools.cached_property`` keeps a value, so every id that reads
    one view computes them once; where one is undefined it keeps the
    message, and each read raises an EstimatorError of its own with it."""
    try:
        ratios = view.__dict__["_ratios"]
    except KeyError:
        ratios = view.__dict__["_ratios"] = _uvw(view)
    if isinstance(ratios, str):
        raise EstimatorError(ratios)
    return ratios


def _uvw(view: SampleView) -> tuple[float, float, float] | str:
    """(u, v, w) of the view, or the message that says which is undefined."""
    meds = view.medians
    if meds.mx1 == 0.0:
        return "first-phase median of x is zero: u undefined"
    if view.known_mz == 0.0:
        return "known median of z is zero: v, w undefined"
    return meds.mx / meds.mx1, meds.mz1 / view.known_mz, meds.mz / view.known_mz


def class_g_estimate(view: SampleView, form: GForm) -> float:
    """my * g(u, v) for a concrete parametric form."""
    u, v, _ = _ratios(view)
    return view.medians.my * form(u, v)


def class_F_estimate(view: SampleView, coeffs: PluginCoefficients) -> float:
    """Linear representative of the generalized three-ratio class:
    my - a1*(u-1) - a2*(v-1) - a3*(w-1), at the (estimated) optimum."""
    a1, a2, a3 = coeffs.generalized()
    u, v, w = _ratios(view)
    return view.medians.my - a1 * (u - 1.0) - a2 * (v - 1.0) - a3 * (w - 1.0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _g_estimate(form: str, view: SampleView, coeffs: PluginCoefficients) -> float:
    """class_g_estimate at gform_estimated_optimum(form, *coeffs.alphas()),
    without building the GForm: its parameters are computed floats, so a
    finiteness test is their whole check."""
    alpha1, alpha2 = coeffs.alphas()
    alpha, beta, w1, w2 = _optimum_parameters(form, alpha1, alpha2)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise EstimatorError("g-form parameters must be finite")
    u, v, _ = _ratios(view)
    return view.medians.my * _g_value(form, alpha, beta, w1, w2, u, v)


#: The catalog, in id order, and its one dispatch table: each stable id's
#: estimator, whether it takes the optimum coefficients after the view
#: (each g-form at the optimum parameters its alphas imply), and whether
#: it returns its value with the diagnostics, an :data:`Estimate`.
_CATALOG = {
    "median": (lambda view: view.medians.my, False, False),
    "ratio-known": (ratio_known, False, False),
    "position": (_position, False, True),
    "stratified": (_stratified, False, True),
    "ratio-double": (ratio_double, False, False),
    "reg-x": (regression_single_aux, True, False),
    "reg-xz": (regression_two_aux, True, False),
    **{form: (functools.partial(_g_estimate, form), True, False) for form in G_FORM_IDS},
    "f-linear": (class_F_estimate, True, False),
}

ESTIMATOR_IDS = tuple(_CATALOG)

#: Estimator ids that consume plug-in (or true) optimum coefficients.
COEFFICIENT_IDS = frozenset(e for e, (_, coefficients, _) in _CATALOG.items() if coefficients)


def evaluate_estimator(
    est_id: str, view: SampleView, coeffs: PluginCoefficients | None = None
) -> float:
    """Evaluate one catalog estimator by its stable id.

    ``coeffs`` feeds the regression estimators, the g-forms (run at the
    optimum parameters implied by alpha1/alpha2) and the generalized-class
    representative; when omitted it is computed from the view.
    """
    value, _, fell_back = evaluate_with_diagnostics(est_id, view, coeffs)
    if fell_back:  # only the stratification estimator falls back
        raise EstimatorError("stratification undefined: one stratum is empty")
    return value


def evaluate_with_diagnostics(
    est_id: str, view: SampleView, coeffs: PluginCoefficients | None = None
) -> Estimate:
    """:func:`evaluate_estimator` as ``(value, clamped, fell_back)``:
    ``position`` reports whether its proportion estimate was clamped, and
    ``stratified`` falls back to the second-phase median on an empty
    stratum (which :func:`evaluate_estimator` rejects) and says so."""
    try:
        estimator, coefficients, diagnostics = _CATALOG[est_id]
    except KeyError:
        raise EstimatorError(f"unknown estimator id {est_id!r}") from None
    if coefficients:
        value = estimator(view, plugin_coefficients(view) if coeffs is None else coeffs)
    else:
        value = estimator(view)
    return value if diagnostics else (value, False, False)
