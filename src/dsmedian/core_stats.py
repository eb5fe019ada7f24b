"""Order-statistic, ECDF, kernel-density and quadrant-proportion primitives.

Everything in this package resolves quantiles through one fixed rule, the
left-continuous inverse of the empirical CDF::

    Q(p) = inf{ y in the sample : ecdf(y) >= p },   p in (0, 1]

so medians, quartiles and position probabilities agree on how ties and even
sample sizes are handled: no interpolation, ever.  Densities are Gaussian
kernel estimates with Silverman's rule-of-thumb bandwidth, and bivariate
association is summarised by the 2x2 quadrant proportions about a pair of
thresholds (normally the two medians).

The private kernels are plain numpy along the last axis: the census summary
and the plug-ins run them over x, y and z stacked as (3, k, m) arrays, with
the bits of the public 1-D forms, which return Python floats and ints.
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


def _finite(value) -> bool:
    """Whether ``value`` is a finite real: False for a non-number and for an
    int past the float range too."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _finite_floats(values) -> np.ndarray | None:
    """``values`` as a float array, or None if one is not a finite real: a
    NaN, an infinity, a non-number (a str or bytes too, which numpy would
    parse) or an int past the float range."""
    try:
        raw = np.asarray(values)
        kind = raw.dtype.kind
        if kind not in "biufO" or kind == "O" and any(isinstance(v, str | bytes) for v in raw.flat):
            return None
        arr = raw.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if np.isfinite(arr).all() else None


def _as_finite_1d(values, name: str = "values") -> np.ndarray:
    arr = _finite_floats(values)
    if arr is None:
        raise ValueError(f"invalid datum: {name} contains non-finite values")
    if arr.size == 0:
        raise ValueError(f"empty sample: {name} has no elements")
    return arr.ravel()


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


def _quantile_sorted(sorted_vals: np.ndarray, p: float):
    """Quantile along the last axis of sorted samples."""
    return sorted_vals[..., _quantile_index(sorted_vals.shape[-1], p)]


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
    if not (_finite(p) and 0.0 < p <= 1.0):
        raise ValueError(f"quantile level must be in (0, 1], got {p!r}")
    return float(_quantile_selected(arr, p))


def _quantile_selected(arr: np.ndarray, p: float):
    """Quantile along the last axis of validated samples by selection, with
    the bits of the sort."""
    idx = _quantile_index(arr.shape[-1], p)
    value = np.partition(arr, idx)[..., idx]
    zero = value == 0.0
    if np.count_nonzero(zero):
        # -0.0 == 0.0, so among tied zeros selection and sorting may pick
        # different signs; the sort of each sample in its own order decides
        value = np.where(zero, np.sort(arr)[..., idx], value)
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
            if not _finite(v) or v < -1e-12 or v > 1.0 + 1e-12:
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
    arr = _finite_floats(pairs)
    if arr is None:
        raise ValueError("invalid datum: pairs contain non-finite values")
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("empty sample: pairs must be a nonempty (k, 2) array")
    if not (_finite(threshold_a) and _finite(threshold_b)):
        raise ValueError("thresholds must be finite")
    counts = _quadrant_counts(arr[:, 0] <= threshold_a, arr[:, 1] <= threshold_b)
    return ProportionMatrix(*(int(c) / arr.shape[0] for c in counts))


def _quadrant_counts(a_low: np.ndarray, b_low: np.ndarray) -> tuple:
    """The counts (c11, c12, c21, c22) along the last axis of two
    equal-shape boolean low masks, in the orientation of
    :class:`ProportionMatrix`."""
    c11, b, a = (np.add.reduce(v, axis=-1, dtype=np.intp) for v in (a_low & b_low, b_low, a_low))
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
    h = float(_silverman_bandwidth(arr, np.sort(arr)))
    if not (0.0 < h < math.inf):
        why = "all values identical" if np.std(arr, ddof=1) == 0.0 else f"h = {h!r}"
        raise ValueError(f"degenerate sample for bandwidth: {why}")
    return h


def _silverman_bandwidth(arr: np.ndarray, sorted_vals: np.ndarray):
    """Silverman bandwidth along the last axis of validated samples of at
    least 2 values, given their sorted copies; not finite and positive
    where the sample is degenerate.

    The sd is taken over ``arr`` in its own order, because the summation
    order decides the last bits of the result.
    """
    sd = np.std(arr, ddof=1, axis=-1)
    iqr = _quantile_sorted(sorted_vals, 0.75) - _quantile_sorted(sorted_vals, 0.25)
    q = iqr / 1.34
    scale = np.where(iqr > 0.0, np.where(q < sd, q, sd), sd)  # min(sd, q), ties and NaN included
    return 0.9 * scale * arr.shape[-1] ** (-0.2)


@dataclass(frozen=True)
class DensityEstimate:
    """A kernel density value together with the bandwidth that produced it."""

    value: float
    bandwidth: float

    def __post_init__(self) -> None:
        if not (_finite(self.value) and self.value >= 0.0):
            raise ValueError(f"density value must be finite and >= 0, got {self.value!r}")
        if not (_finite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")


def kde_at(values, point: float, bandwidth: float) -> DensityEstimate:
    """Gaussian-kernel density estimate at a single point.

    (1/(k*h)) * sum_i phi((point - v_i)/h) with phi the standard normal
    density; h must be finite and positive, as every bandwidth
    :func:`silverman_bandwidth` returns is.
    """
    arr = _as_finite_1d(values)
    if not (_finite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if not _finite(point):
        raise ValueError("evaluation point must be finite")
    with np.errstate(over="ignore"):  # a subnormal bandwidth can overflow it: refused below
        value = float(_kde(arr, np.float64(point), np.float64(bandwidth)))
    return DensityEstimate(value=value, bandwidth=bandwidth)


def _kde(arr: np.ndarray, point: np.ndarray, bandwidth: np.ndarray):
    """The Gaussian KDE of :func:`kde_at` along the last axis of validated
    samples, at one finite point with one finite, positive bandwidth per
    sample (numpy values, shaped as the samples less their last axis).  A
    subnormal bandwidth can overflow the value to inf."""
    u = (point[..., None] - arr) / bandwidth[..., None]
    return np.exp(-0.5 * u * u).sum(axis=-1) / (arr.shape[-1] * bandwidth * _SQRT_2PI)


_CODES = np.array([[1], [3], [5]])  # of a failing x, y, z bandwidth; a density overflow adds 1


def _median_split(values: np.ndarray, ordered: np.ndarray, medians: np.ndarray) -> tuple:
    """Densities at the medians and quadrant counts about them along the
    last axis of validated (3, k, m) x, y, z samples, given their sorted
    copies ``ordered`` and their (3, k) ``medians``: the one owner of what
    the census summary and the plug-ins take from the data besides the
    medians, with the bits of :func:`silverman_bandwidth`, :func:`kde_at`
    and :func:`proportion_matrix`.

    Returns the (3, k) densities of x, y, z, the :func:`_quadrant_counts`
    of the pairs (x, y), (y, z), (x, z), each a (3, k) array, and a (k,)
    code per sample: 0 if usable, else 2j + 1 if the bandwidth of the first
    failing variable j (0, 1, 2 for x, y, z) is not finite and positive,
    2j + 2 if its density overflows.  The float faults on the way stay
    silent."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = _silverman_bandwidth(values, ordered)
        dens = _kde(values, medians, h)
        low = values <= medians[..., None]
    # each variable's code, 7 where usable: the first failing variable has the least
    codes = np.where((h > 0.0) & (h < math.inf), np.where(dens == math.inf, _CODES + 1, 7), _CODES)
    code = np.minimum.reduce(codes, axis=0) % 7
    return dens, _quadrant_counts(low[[0, 1, 0]], low[[1, 2, 2]]), code


def _split_failure(code: int) -> tuple[str, bool]:
    """The column ("x", "y" or "z") a nonzero :func:`_median_split` code
    names, and whether its density overflowed, not its bandwidth."""
    return "xyz"[(code - 1) // 2], code % 2 == 0
