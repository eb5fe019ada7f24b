"""Order-statistic, ECDF, kernel-density and quadrant-proportion primitives.

Everything in this package resolves quantiles through one fixed rule, the
left-continuous inverse of the empirical CDF::

    Q(p) = inf{ y in the sample : ecdf(y) >= p },   p in (0, 1]

so medians, quartiles and position probabilities agree on how ties and even
sample sizes are handled: no interpolation, ever.  Densities are Gaussian
kernel estimates with Silverman's rule-of-thumb bandwidth, and bivariate
association is summarised by the 2x2 quadrant proportions about a pair of
thresholds (normally the two medians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProportionMatrix",
    "DensityEstimate",
    "empirical_quantile",
    "median",
    "proportion_matrix",
    "silverman_bandwidth",
    "kde_at",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_finite_1d(values, name: str = "values") -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError(f"empty sample: {name} has no elements")
    if not np.isfinite(arr).all():
        raise ValueError(f"invalid datum: {name} contains non-finite values")
    return arr


def _quantile_index(k: int, p: float) -> int:
    """0-based index of the left-continuous inverse ECDF on a sorted sample.

    Smallest i with (i + 1)/k >= p.  Computed as ceil(p*k) - 1 with a
    one-step fixup against the exact grid so float rounding in p*k can
    never move the answer off the defining inequality.
    """
    idx = int(math.ceil(p * k)) - 1
    idx = min(max(idx, 0), k - 1)
    if idx > 0 and idx / k >= p:
        idx -= 1
    elif (idx + 1) / k < p:
        idx += 1
    return idx


def _rows(value, kind=float):
    """A last-axis kernel's result: an array of row values, or one ``kind``
    for a 1-D sample."""
    return value if getattr(value, "ndim", 0) else kind(value)


def _col(value):
    """One value per sample (an array, or a float for a 1-D sample) set
    against the last axis of the samples."""
    return value[..., None] if getattr(value, "ndim", 0) else value


def _where(cond, a, b):
    """``np.where`` on row values, a plain choice on the scalars of a 1-D
    sample."""
    return np.where(cond, a, b) if getattr(cond, "ndim", 0) else (a if cond else b)


def _quantile_sorted(sorted_vals: np.ndarray, p: float):
    """Quantile along the last axis of sorted samples."""
    return _rows(sorted_vals[..., _quantile_index(sorted_vals.shape[-1], p)])


def empirical_quantile(values, p: float) -> float:
    """Left-continuous inverse ECDF: smallest sample value whose ECDF reaches p.

    Parameters
    ----------
    values : array_like
        Nonempty sample of finite reals.
    p : float
        Probability in (0, 1].  ``p = 0.5`` gives the sample median used
        throughout: for even sizes this is the lower of the two middle
        order statistics (no interpolation).

    Returns
    -------
    float
        An element of ``values``.
    """
    arr = _as_finite_1d(values)
    if not (0.0 < p <= 1.0) or not math.isfinite(p):
        raise ValueError(f"quantile level must be in (0, 1], got {p!r}")
    return _quantile_selected(arr, p)


def _quantile_selected(arr: np.ndarray, p: float):
    """Quantile along the last axis of validated samples by selection, with
    the bits of the sort."""
    idx = _quantile_index(arr.shape[-1], p)
    value = _rows(np.partition(arr, idx)[..., idx])
    zero = value == 0.0
    if np.count_nonzero(zero):
        # -0.0 == 0.0, so among tied zeros selection and sorting may pick
        # different signs; the sort of each sample in its own order decides
        value = _where(zero, _rows(np.sort(arr)[..., idx]), value)
    return value


def median(values) -> float:
    """Sample median under the fixed left-continuous-inverse convention."""
    return empirical_quantile(values, 0.5)


@dataclass(frozen=True)
class ProportionMatrix:
    """2x2 quadrant proportions of a paired sample about two thresholds.

    Orientation is fixed: ``p11`` is both-low (A <= t_A, B <= t_B), ``p12``
    is A-high/B-low, ``p21`` is A-low/B-high, ``p22`` both-high.  The low
    side uses ``<=``.  ``4*p11 - 1`` is the median-concordance analogue of
    a correlation coefficient when the thresholds are the two medians.
    """

    p11: float
    p12: float
    p21: float
    p22: float

    def __post_init__(self) -> None:
        entries = (self.p11, self.p12, self.p21, self.p22)
        for name, v in zip(("p11", "p12", "p21", "p22"), entries):
            if not math.isfinite(v) or v < -1e-12 or v > 1.0 + 1e-12:
                raise ValueError(f"proportion {name}={v!r} outside [0, 1]")
        if abs(sum(entries) - 1.0) > 1e-9:
            raise ValueError(f"proportions sum to {sum(entries)!r}, expected 1")

    @property
    def concordance(self) -> float:
        """4*p11 - 1, in [-1, 1] for continuous data split at the medians."""
        return 4.0 * self.p11 - 1.0


def proportion_matrix(pairs, threshold_a: float, threshold_b: float) -> ProportionMatrix:
    """Quadrant counts of (a, b) pairs about two thresholds, divided by the count.

    Parameters
    ----------
    pairs : array_like
        Sequence of (a, b) pairs, shape (k, 2).
    threshold_a, threshold_b : float
        Finite split points; "low" means ``<=``.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("empty sample: pairs must be a nonempty (k, 2) array")
    if not np.isfinite(arr).all():
        raise ValueError("invalid datum: pairs contain non-finite values")
    if not (math.isfinite(threshold_a) and math.isfinite(threshold_b)):
        raise ValueError("thresholds must be finite")
    k = arr.shape[0]
    c11, c12, c21, c22 = _quadrant_counts(arr[:, 0] <= threshold_a, arr[:, 1] <= threshold_b)
    return ProportionMatrix(p11=c11 / k, p12=c12 / k, p21=c21 / k, p22=c22 / k)


def _quadrant_counts(a_low: np.ndarray, b_low: np.ndarray) -> tuple:
    """(c11, c12, c21, c22) along the last axis of two equal-shape boolean
    low masks, in the orientation of :class:`ProportionMatrix`: ints for
    1-D masks, else arrays of counts."""
    axis = -1 if a_low.ndim > 1 else None
    c11, b, a = (_rows(np.count_nonzero(v, axis=axis), int) for v in (a_low & b_low, b_low, a_low))
    c12, c21 = b - c11, a - c11
    return c11, c12, c21, a_low.shape[-1] - c11 - c12 - c21


def silverman_bandwidth(values) -> float:
    """Silverman's rule-of-thumb bandwidth for a Gaussian kernel.

    h = 0.9 * min(sd, IQR/1.34) * k**(-1/5), with the (k-1)-denominator
    standard deviation and quartiles under the package quantile convention.
    When the IQR is zero on a non-degenerate sample (heavy ties), the sd
    alone is used.  A sample whose h is not finite and positive (all values
    identical, a subnormal IQR that underflows h to 0, an sd that
    overflows) is degenerate and raises ValueError, so every bandwidth
    this returns can be passed to :func:`kde_at`.
    """
    arr = _as_finite_1d(values)
    if arr.size < 2:
        raise ValueError("bandwidth needs at least 2 values")
    h = _silverman_bandwidth(arr, np.sort(arr))
    if not (0.0 < h < math.inf):
        why = "all values identical" if _sd(arr) == 0.0 else f"h = {h!r}"
        raise ValueError(f"degenerate sample for bandwidth: {why}")
    return h


def _silverman_bandwidth(arr: np.ndarray, sorted_vals: np.ndarray):
    """Silverman bandwidth along the last axis of validated samples of at
    least 2 values, given their sorted copies; not finite and positive
    where the sample is degenerate.

    The sd is taken over ``arr`` in its own order, because the summation
    order decides the last bits of the result.
    """
    sd = _sd(arr)
    iqr = _quantile_sorted(sorted_vals, 0.75) - _quantile_sorted(sorted_vals, 0.25)
    q = iqr / 1.34
    scale = _where(iqr > 0.0, _where(q < sd, q, sd), sd)  # min(sd, q), ties and NaN included
    return 0.9 * scale * arr.shape[-1] ** (-0.2)


def _sd(arr: np.ndarray):
    """The bits of ``np.std(arr, ddof=1, axis=-1)`` for validated samples of
    at least 2 values, without numpy's wrapper: the same pairwise sums of
    the values and of the squared deviations from their mean."""
    k = arr.shape[-1]
    d = arr - _col(np.add.reduce(arr, axis=-1) / k)
    return _rows(np.sqrt(np.add.reduce(np.square(d, out=d), axis=-1) / (k - 1)))


@dataclass(frozen=True)
class DensityEstimate:
    """A kernel density value together with the bandwidth that produced it."""

    value: float
    bandwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"density value must be finite and >= 0, got {self.value!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")


def kde_at(values, point: float, bandwidth: float) -> DensityEstimate:
    """Gaussian-kernel density estimate at a single point.

    (1/(k*h)) * sum_i phi((point - v_i)/h) with phi the standard normal
    density; h must be finite and positive, as every bandwidth
    :func:`silverman_bandwidth` returns is.
    """
    arr = _as_finite_1d(values)
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if not math.isfinite(point):
        raise ValueError("evaluation point must be finite")
    with np.errstate(over="ignore"):  # a subnormal bandwidth can overflow it: refused below
        value = _kde(arr, point, bandwidth)
    return DensityEstimate(value=value, bandwidth=bandwidth)


def _kde(arr: np.ndarray, point, bandwidth):
    """The Gaussian KDE of :func:`kde_at` along the last axis of validated
    samples, at one finite point with one finite, positive bandwidth per
    sample.  A subnormal bandwidth can overflow the value to inf."""
    u = (_col(point) - arr) / _col(bandwidth)
    return _rows(np.exp(-0.5 * u * u).sum(axis=-1) / (arr.shape[-1] * bandwidth * _SQRT_2PI))


def _median_split(columns, sorted_columns, medians) -> tuple[tuple, tuple, np.ndarray | int]:
    """Densities at the medians and quadrant counts about them along the
    last axis of validated x, y, z samples (``sorted_columns`` their sorted
    copies): the one owner of what the census summary and the plug-ins
    take from the data besides the medians, with the bits of
    :func:`silverman_bandwidth`, :func:`kde_at` and :func:`proportion_matrix`.

    Returns ``(f_x, f_y, f_z)``, the :func:`_quadrant_counts` of (x, y),
    (y, z), (x, z), and a code per sample: 0 if usable, else 2j + 1 if the
    bandwidth of the first failing column j (0, 1, 2 for x, y, z) is not
    finite and positive, 2j + 2 if its density overflows.  The float faults
    on the way stay silent."""
    hs, dens, lows = [], [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for values, ordered, at in zip(columns, sorted_columns, medians):
            hs.append(_silverman_bandwidth(values, ordered))
            dens.append(_kde(values, at, hs[-1]))
            lows.append(values <= _col(at))
    code = 0
    for j in (2, 1, 0):  # the first failing column decides
        h, f = hs[j], dens[j]
        code = _where((h > 0.0) & (h < math.inf), _where(f == math.inf, 2 * j + 2, code), 2 * j + 1)
    x_low, y_low, z_low = lows
    pairs = ((x_low, y_low), (y_low, z_low), (x_low, z_low))
    counts = tuple(_quadrant_counts(a_low, b_low) for a_low, b_low in pairs)
    return tuple(dens), counts, code


def _split_failure(code: int) -> tuple[str, bool]:
    """The column ("x", "y" or "z") a nonzero :func:`_median_split` code
    names, and whether its density overflowed, not its bandwidth."""
    return "xyz"[(code - 1) // 2], code % 2 == 0
