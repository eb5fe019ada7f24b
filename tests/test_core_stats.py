"""Unit and property tests for the quantile/KDE/proportion primitives."""

import math

import numpy as np
import pytest

from dsmedian.core_stats import (
    DensityEstimate,
    ProportionMatrix,
    _quantile_index,
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
            assert abs(pm.rowA_low - 0.5) <= 1.0 / k + 1e-12
            assert abs(pm.colB_low - 0.5) <= 1.0 / k + 1e-12

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

    def test_zero_iqr_falls_back_to_sd(self):
        # heavy ties: IQR is 0 under the type-1 quartiles but sd > 0
        h = silverman_bandwidth([0.0, 0.0, 0.0, 1.0])
        assert h > 0.0


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
