"""Unit and property tests for the quantile/KDE/proportion primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsmedian.core_stats import (
    DensityEstimate,
    ProportionMatrix,
    _kde,
    _median_split,
    _quadrant_counts,
    _quantile_index,
    _quantile_selected,
    _quantile_sorted,
    _silverman_bandwidth,
    empirical_quantile,
    kde_at,
    median,
    proportion_matrix,
    silverman_bandwidth,
)


def brute_quantile(values, p):
    """Direct transcription of inf{ y : ecdf(y) >= p } on the sorted sample."""
    s = sorted(values)
    k = len(s)
    for i, v in enumerate(s):
        if (i + 1) / k >= p:
            return v
    return s[-1]


class TestEmpiricalQuantile:
    def test_middle_order_statistic(self):
        assert empirical_quantile([3, 1, 2], 0.5) == 2

    def test_even_size_takes_lower_middle(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2

    def test_singleton(self):
        assert empirical_quantile([5], 0.5) == 5

    def test_p_one_is_max(self):
        assert empirical_quantile([4, 9, 1], 1.0) == 9

    def test_matches_definition_oracle(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 40))
            vals = rng.normal(size=k)
            if rng.random() < 0.3:
                vals = np.round(vals)  # force ties
            p = float(rng.uniform(1e-9, 1.0))
            assert empirical_quantile(vals, p) == brute_quantile(vals, p)

    def test_odd_length_median_is_middle(self, rng):
        for _ in range(100):
            k = int(rng.integers(0, 15)) * 2 + 1
            vals = rng.normal(size=k)
            assert median(vals) == np.sort(vals)[k // 2]

    def test_translation_and_scale_equivariance(self, rng):
        for _ in range(100):
            vals = rng.normal(size=int(rng.integers(1, 30)))
            p = float(rng.uniform(0.01, 1.0))
            a, c = float(rng.normal()), float(rng.uniform(0.1, 5.0))
            q = empirical_quantile(vals, p)
            assert empirical_quantile(a + c * vals, p) == pytest.approx(a + c * q, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-9, 0.25, 0.5, 0.75, 1.0])
    def test_bits_match_sorted_order_statistic(self, rng, p):
        # float.hex() tells -0.0 from 0.0, which compare equal
        for _ in range(60):
            k = int(rng.integers(1, 5001))
            if rng.random() < 0.7:
                # random weights put the zeros at every quantile level
                weights = rng.dirichlet(np.ones(6))
                vals = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=k, p=weights)
            else:
                vals = rng.normal(size=k)
            expected = float(np.sort(vals)[_quantile_index(k, p)]).hex()
            assert empirical_quantile(vals, p).hex() == expected, (k, p)
            if p == 0.5:
                assert median(vals).hex() == expected, k

    # a SampleView selects its first-phase medians and reads the
    # second-phase ones off sorted copies, so the two rules must agree bit
    # for bit, signed zeros included; numpy selects on another path above
    # 256 elements, so sizes run past the first phases the views meet
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(k=st.integers(1, 1300), seed=st.integers(0, 2**32 - 1),
           extra=st.floats(allow_nan=False, allow_infinity=False),
           weights=st.lists(st.integers(0, 9), min_size=7, max_size=7).filter(any))
    @example(k=600, seed=0, extra=0.0, weights=[0, 1, 4, 4, 1, 0, 0])
    @example(k=601, seed=1, extra=-0.0, weights=[0, 0, 1, 1, 0, 0, 0])
    def test_selection_median_equals_sorted_rule(self, k, seed, extra, weights):
        pool = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, extra]
        a = np.random.default_rng(seed).choice(pool, size=k, p=np.array(weights) / sum(weights))
        expected = float(_quantile_sorted(np.sort(a), 0.5)).hex()
        assert median(a).hex() == float(_quantile_selected(a, 0.5)).hex() == expected

    def test_errors(self):
        with pytest.raises(ValueError, match="empty sample"):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError, match="invalid datum"):
            empirical_quantile([1.0, float("nan")], 0.5)
        with pytest.raises(ValueError, match="quantile level"):
            empirical_quantile([1.0], 0.0)


def brute_proportions(pairs, ta, tb):
    k = len(pairs)
    c11 = sum(1 for a, b in pairs if a <= ta and b <= tb)
    c12 = sum(1 for a, b in pairs if a > ta and b <= tb)
    c21 = sum(1 for a, b in pairs if a <= ta and b > tb)
    c22 = sum(1 for a, b in pairs if a > ta and b > tb)
    return c11 / k, c12 / k, c21 / k, c22 / k


class TestProportionMatrix:
    def test_perfect_concordance(self):
        pm = proportion_matrix([(-1, -1), (-2, -3), (1, 2), (3, 1)], 0.0, 0.0)
        assert (pm.p11, pm.p12, pm.p21, pm.p22) == (0.5, 0.0, 0.0, 0.5)

    def test_one_point_per_quadrant(self):
        pm = proportion_matrix([(-1, 1), (1, -1), (-1, -1), (1, 1)], 0.0, 0.0)
        assert (pm.p11, pm.p12, pm.p21, pm.p22) == (0.25, 0.25, 0.25, 0.25)

    def test_single_point(self):
        pm = proportion_matrix([(-1, 5)], 0.0, 0.0)
        assert (pm.p11, pm.p12, pm.p21, pm.p22) == (0.0, 0.0, 1.0, 0.0)

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 50))
            pairs = rng.normal(size=(k, 2))
            if rng.random() < 0.4:
                pairs = np.round(pairs)  # ties on the thresholds
            ta, tb = rng.normal(), rng.normal()
            pm = proportion_matrix(pairs, ta, tb)
            assert (pm.p11, pm.p12, pm.p21, pm.p22) == brute_proportions(pairs.tolist(), ta, tb)

    def test_entries_sum_to_one(self, rng):
        for _ in range(50):
            pairs = rng.normal(size=(int(rng.integers(1, 60)), 2))
            pm = proportion_matrix(pairs, 0.0, 0.0)
            assert pm.p11 + pm.p12 + pm.p21 + pm.p22 == pytest.approx(1.0, abs=1e-12)

    def test_median_threshold_marginals(self, rng):
        # with median thresholds the marginals sit within 1/k of one half
        for _ in range(50):
            k = int(rng.integers(4, 60))
            pairs = rng.normal(size=(k, 2))
            pm = proportion_matrix(pairs, median(pairs[:, 0]), median(pairs[:, 1]))
            assert abs(pm.p11 + pm.p21 - 0.5) <= 1.0 / k + 1e-12
            assert abs(pm.p11 + pm.p12 - 0.5) <= 1.0 / k + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="empty sample"):
            proportion_matrix(np.empty((0, 2)), 0.0, 0.0)
        with pytest.raises(ValueError):
            ProportionMatrix(p11=0.9, p12=0.9, p21=0.0, p22=0.0)


class TestSilvermanBandwidth:
    def test_unit_sd_32_points(self):
        # 32**(1/5) = 2, so h = 0.9/2 when sd = 1 dominates the IQR term
        vals = np.concatenate([np.linspace(-2, 2, 30), [-0.1, 0.1]])
        vals = (vals - vals.mean()) / vals.std(ddof=1)
        assert vals.size == 32
        iqr = empirical_quantile(vals, 0.75) - empirical_quantile(vals, 0.25)
        assert iqr / 1.34 >= 1.0
        assert silverman_bandwidth(vals) == pytest.approx(0.45, abs=1e-12)

    def test_two_point_hand_value(self):
        h = silverman_bandwidth([0.0, 1.0])
        expected = 0.9 * min(math.sqrt(0.5), 1.0 / 1.34) * 2 ** (-0.2)
        assert h == pytest.approx(expected, abs=1e-15)
        assert h == pytest.approx(0.5540, abs=2e-4)

    def test_scale_equivariance(self, rng):
        for _ in range(50):
            vals = rng.normal(size=int(rng.integers(2, 40)))
            if np.std(vals, ddof=1) == 0.0:
                continue
            c = float(rng.uniform(0.1, 10.0))
            assert silverman_bandwidth(c * vals) == pytest.approx(
                c * silverman_bandwidth(vals), rel=1e-12
            )

    def test_degenerate_sample(self):
        with pytest.raises(ValueError, match="degenerate sample for bandwidth"):
            silverman_bandwidth([3.0, 3.0, 3.0])

    def test_one_value(self):
        with pytest.raises(ValueError, match="^bandwidth needs at least 2 values$"):
            silverman_bandwidth([1.0])

    def test_zero_iqr_falls_back_to_sd(self):
        # heavy ties: IQR is 0 under the type-1 quartiles but sd > 0
        h = silverman_bandwidth([0.0, 0.0, 0.0, 1.0])
        assert h > 0.0

    def test_bandwidth_outside_positive_floats_is_degenerate(self):
        # a subnormal IQR underflows h to 0.0; an overflowing sd and IQR make it inf
        subnormal_iqr = [0.0] * 15 + [5e-324] * 15 + [-1.0] * 5 + [1.0] * 5
        with pytest.raises(ValueError, match=r"degenerate sample for bandwidth: h = 0\.0"):
            silverman_bandwidth(subnormal_iqr)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="h = inf"):
            silverman_bandwidth([-1e308, -1e308, 1e308, 1e308])


class TestKdeAt:
    def test_single_kernel_at_center(self):
        est = kde_at([0.0], 0.0, 1.0)
        assert est.value == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_translation_invariance(self, rng):
        for _ in range(30):
            vals = rng.normal(size=10)
            x, c, h = rng.normal(), rng.normal(), float(rng.uniform(0.2, 3.0))
            assert kde_at(vals, x, h).value == pytest.approx(
                kde_at(vals + c, x + c, h).value, rel=1e-12
            )

    def test_two_point_hand_value(self):
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert kde_at([-1.0, 1.0], 0.0, 1.0).value == pytest.approx(phi1, abs=1e-15)

    def test_integrates_to_one(self, rng):
        for _ in range(5):
            vals = rng.normal(size=int(rng.integers(2, 51)))
            h = silverman_bandwidth(vals)
            grid = np.linspace(vals.min() - 8 * h, vals.max() + 8 * h, 4001)
            dens = [kde_at(vals, float(x), h).value for x in grid]
            assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_errors(self):
        with pytest.raises(ValueError, match="bandwidth"):
            kde_at([1.0], 0.0, 0.0)
        with pytest.raises(ValueError):
            DensityEstimate(value=-0.1, bandwidth=1.0)

    def test_overflowing_value_refused_without_warning(self):
        # a subnormal bandwidth with every value at the point overflows the
        # density to inf: refused as a value, not warned about on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="density value must be finite"):
                kde_at([1.0, 1.0, 1.0], 1.0, 5e-324)


class TestNotAFloat:
    """An int past the float range, or a non-number (a numeric str or bytes
    too), is a ValueError of each public form, not numpy's or math's OverflowError or a TypeError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: empirical_quantile([10**400, 1], 0.5), "invalid datum: values"),
        (lambda: empirical_quantile([1.0, 2.0], "a"), "quantile level must be in"),
        (lambda: silverman_bandwidth([10**400, 1, 2]), "invalid datum: values"),
        (lambda: kde_at([1.0, 2.0], 10**400, 1.0), "evaluation point must be finite"),
        (lambda: kde_at([1.0, 2.0], 1.0, 10**400), "bandwidth must be positive"),
        (lambda: proportion_matrix([(1.0, 2.0)], 10**400, 1.0), "thresholds must be finite"),
        (lambda: proportion_matrix([(10**400, 2.0)], 1.0, 1.0), "invalid datum: pairs"),
        # numpy would parse a numeric str or bytes; neither is a real
        (lambda: empirical_quantile(["1", "2", "3"], 0.5), "invalid datum: values"),
        (lambda: silverman_bandwidth([b"1", b"2", b"3"]), "invalid datum: values"),
        (lambda: proportion_matrix([("1", 2.0)], 1.0, 1.0), "invalid datum: pairs"),
        (lambda: proportion_matrix([(10**20, "1")], 1.0, 1.0), "invalid datum: pairs"),
    ], ids=["empirical_quantile", "empirical_quantile-level", "silverman_bandwidth",
            "kde_at-point", "kde_at-bandwidth", "proportion_matrix-threshold",
            "proportion_matrix-pairs", "empirical_quantile-str", "silverman_bandwidth-bytes",
            "proportion_matrix-str", "proportion_matrix-object-str"])
    def test_value_error(self, call, message):
        with pytest.raises(ValueError, match=message) as info:
            call()
        assert type(info.value) is ValueError


class TestKernels:
    """The private kernels over validated 1-D float arrays give the bits of
    the validated public forms."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(k=st.integers(2, 1300), seed=st.integers(0, 2**32 - 1),
           levels=st.one_of(st.none(), st.integers(1, 6)),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e150, 1e300]),
           offset=st.sampled_from([0.0, -0.0, 1.0, -1e9]))
    @example(k=2, seed=0, levels=1, scale=1.0, offset=0.0)
    @example(k=1300, seed=1, levels=None, scale=1e300, offset=0.0)
    def test_kernels_equal_public_forms(self, k, seed, levels, scale, offset):
        rng = np.random.default_rng(seed)
        if levels is None:
            a = rng.normal(size=k) * scale + offset
        else:  # ties, with zeros of both signs
            a = rng.integers(-levels, levels + 1, size=k) * scale + offset
            zeros = a == 0.0
            a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        b = rng.permutation(a)
        with np.errstate(all="ignore"):  # squares of 1e300 overflow in both forms
            try:
                h = silverman_bandwidth(a)
            except ValueError:
                # the kernel leaves the degenerate h for its callers to judge
                assert not 0.0 < _silverman_bandwidth(a, np.sort(a)) < math.inf
                h = 1.0
            else:
                assert _silverman_bandwidth(a, np.sort(a)).hex() == h.hex()
            point = median(a)
            density = _kde(a, np.float64(point), np.float64(h))
            if math.isfinite(density):
                assert kde_at(a, point, h).value.hex() == density.hex()
        ta, tb = median(a), float(b[0])
        counts = _quadrant_counts(a <= ta, b <= tb)
        pm = proportion_matrix(np.column_stack((a, b)), ta, tb)
        assert tuple(c / k for c in counts) == (pm.p11, pm.p12, pm.p21, pm.p22)
        assert counts == tuple(round(p * k) for p in brute_proportions(list(zip(a, b)), ta, tb))


def _edge_rows(rng, kinds, k):
    """One row of k values per kind: normal draws at scales up to 1e300,
    ties with zeros of both signs, subnormals, or one repeated value."""
    rows = []
    for kind, scale in kinds:
        if kind == "normal":
            row = rng.normal(size=k) * scale
        elif kind == "ties":
            row = rng.integers(-2, 3, size=k) * scale
            zeros = row == 0.0
            row[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        elif kind == "subnormal":
            row = rng.integers(-3, 4, size=k) * 5e-324
        else:  # degenerate
            row = np.full(k, scale)
        rows.append(row)
    return np.array(rows)


ROW_KINDS = st.tuples(st.sampled_from(["normal", "ties", "subnormal", "degenerate"]),
                      st.sampled_from([1e-300, 1e-3, 1.0, 1e150, 1e300, -0.0]))


class TestLastAxisKernels:
    """Every row of a last-axis kernel called on (rows x k) samples has the
    bits of the kernel's 1-D call on that row, and every sample of a
    (3, rows, k) :func:`_median_split` those of its (3, 1, k) call and of
    the public forms, so chunking replicates never changes a bit."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(k=st.sampled_from([*range(2, 10), *range(127, 131), *range(1023, 1026)]),
           kinds=st.lists(ROW_KINDS, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
    @example(k=4, kinds=[("degenerate", 1.0), ("ties", 1.0), ("subnormal", 1.0)], seed=0)
    def test_rows_equal_1d_calls(self, k, kinds, seed):
        rng = np.random.default_rng(seed)
        values = np.array([_edge_rows(rng, [kinds[(i + j) % len(kinds)] for i in range(len(kinds))],
                                      k) for j in range(3)])  # x, y, z: (3, rows, k)
        x = values[0]
        ordered = np.sort(values, axis=-1)
        meds = _quantile_sorted(ordered, 0.5)

        def same(rows, calls):
            assert [float(v).hex() for v in np.ravel(rows)] == [float(v).hex() for v in calls]

        with np.errstate(all="ignore"):  # overflow, underflow and 0/0 in both forms
            for p in (0.25, 0.5, 0.75):
                same(_quantile_sorted(ordered[0], p), [_quantile_sorted(o, p) for o in ordered[0]])
                same(_quantile_selected(x, p), [_quantile_selected(row, p) for row in x])
            h = _silverman_bandwidth(x, ordered[0])
            same(h, [_silverman_bandwidth(row, o) for row, o in zip(x, ordered[0])])
            same(_kde(x, meds[0], h), [_kde(row, at, hr) for row, at, hr in zip(x, meds[0], h)])
            dens, counts, code = _median_split(values, ordered, meds)
            for i in range(len(kinds)):
                one = np.s_[:, i:i + 1]
                row_dens, row_counts, row_code = _median_split(values[one], ordered[one], meds[one])
                same(dens[:, i], row_dens.ravel())
                assert np.array_equal(np.array(counts)[..., i], np.array(row_counts)[..., 0])
                assert code[i] == row_code[0] == self.public_code(values[:, i], meds[:, i],
                                                                  dens[:, i])
                for (a, b), pair_counts in zip(((0, 1), (1, 2), (0, 2)), np.array(counts)[..., i].T):
                    pm = proportion_matrix(values[(a, b), i].T, meds[a, i], meds[b, i])
                    assert tuple(pair_counts / k) == (pm.p11, pm.p12, pm.p21, pm.p22)
        lows = x <= meds[0][:, None], values[1] <= meds[1][:, None]
        rows = _quadrant_counts(*lows)
        for i in range(len(kinds)):
            assert [int(c[i]) for c in rows] == [int(c) for c in _quadrant_counts(lows[0][i],
                                                                                   lows[1][i])]

    @staticmethod
    def public_code(xyz, meds, dens):
        """The :func:`_median_split` code of one sample, from the public
        forms, whose densities must equal ``dens`` where they are usable."""
        for j, (v, at, density) in enumerate(zip(xyz, meds, dens)):
            try:
                h = silverman_bandwidth(v)
            except ValueError:
                return 2 * j + 1
            try:
                value = kde_at(v, at, h).value
            except ValueError:  # an overflowing density is refused
                return 2 * j + 2
            assert value.hex() == float(density).hex()
        return 0
