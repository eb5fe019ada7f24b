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


def _quantile_sorted(sorted_vals: np.ndarray, p: float) -> float:
    return float(sorted_vals[_quantile_index(sorted_vals.size, p)])


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


def _quantile_selected(arr: np.ndarray, p: float) -> float:
    """Quantile of a validated sample by selection, with the bits of the sort."""
    idx = _quantile_index(arr.size, p)
    value = np.partition(arr, idx)[idx]
    if value == 0.0:
        # -0.0 == 0.0, so among tied zeros selection and sorting may pick
        # different signs; the sort decides which zero is the quantile
        value = np.sort(arr)[idx]
    return float(value)


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


def _quadrant_counts(a_low: np.ndarray, b_low: np.ndarray) -> tuple[int, int, int, int]:
    """(c11, c12, c21, c22) of two equal-length boolean low masks, in the
    orientation of :class:`ProportionMatrix`."""
    c11 = int(np.count_nonzero(a_low & b_low))
    c12 = int(np.count_nonzero(b_low)) - c11
    c21 = int(np.count_nonzero(a_low)) - c11
    return c11, c12, c21, a_low.size - c11 - c12 - c21


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
    return _silverman_bandwidth(arr, np.sort(arr))


def _silverman_bandwidth(arr: np.ndarray, sorted_vals: np.ndarray) -> float:
    """Silverman bandwidth of a validated sample given its sorted copy.

    The sd is taken over ``arr`` in its own order, because the summation
    order decides the last bits of the result.
    """
    k = arr.size
    if k < 2:
        raise ValueError("bandwidth needs at least 2 values")
    sd = _sd(arr)
    if sd == 0.0:
        raise ValueError("degenerate sample for bandwidth: all values identical")
    iqr = _quantile_sorted(sorted_vals, 0.75) - _quantile_sorted(sorted_vals, 0.25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * scale * k ** (-0.2)
    if not (0.0 < h < math.inf):
        raise ValueError(f"degenerate sample for bandwidth: h = {h!r}")
    return h


def _sd(arr: np.ndarray) -> float:
    """The bits of ``np.std(arr, ddof=1)`` for a validated 1-D float sample
    of at least 2 values, without numpy's wrapper: the same pairwise sums
    of the values and of the squared deviations from their mean."""
    d = arr - np.add.reduce(arr) / arr.size
    return math.sqrt(np.add.reduce(np.square(d, out=d)) / (arr.size - 1))


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
    return DensityEstimate(value=_kde(arr, point, bandwidth), bandwidth=bandwidth)


def _kde(arr: np.ndarray, point: float, bandwidth: float) -> float:
    """The Gaussian KDE of :func:`kde_at` over a validated sample, at a
    finite point with a finite, positive bandwidth.  A subnormal bandwidth
    can overflow the value to inf."""
    u = (point - arr) / bandwidth
    return float(np.exp(-0.5 * u * u).sum()) / (arr.size * bandwidth * _SQRT_2PI)


def _median_split(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    sorted_columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    medians: tuple[float, float, float],
) -> tuple[tuple[float, float, float], tuple[tuple[int, int, int, int], ...]]:
    """Densities at the medians and quadrant counts about them for
    validated x, y, z columns (``sorted_columns`` their sorted copies): the
    one owner of what the census summary and the plug-in coefficients take
    from the data besides the medians.  Returns ``(f_x, f_y, f_z)`` and the
    :func:`_quadrant_counts` of (x, y), (y, z), (x, z), with the bits of
    :func:`silverman_bandwidth`, :func:`kde_at` and :func:`proportion_matrix`.
    A column whose bandwidth is not finite and positive raises
    ``ValueError(name)``, one whose density overflows ``ValueError(name,
    "density overflows")``; the float overflow on the way stays silent."""
    dens, lows = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, values, ordered, at in zip("xyz", columns, sorted_columns, medians):
            try:
                h = _silverman_bandwidth(values, ordered)
            except ValueError as exc:
                raise ValueError(name) from exc
            density = _kde(values, at, h)
            if density == math.inf:
                raise ValueError(name, "density overflows")
            dens.append(density)
            lows.append(values <= at)
    x_low, y_low, z_low = lows
    pairs = ((x_low, y_low), (y_low, z_low), (x_low, z_low))
    return tuple(dens), tuple(_quadrant_counts(a_low, b_low) for a_low, b_low in pairs)
