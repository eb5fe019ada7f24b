"""First-order variance algebra: worked values, optimum cross-checks,
stationarity, and the efficiency-ordering identities."""

import numpy as np
import pytest

from conftest import random_summary, realizable_concordances
from dsmedian.estimators import true_coefficients
from dsmedian.core_stats import ProportionMatrix
from dsmedian.population import PopulationSummary
from dsmedian.variance_theory import (
    DesignSizes,
    VarianceComponents,
    min_var_F,
    min_var_H,
    min_var_g,
    optimum_F_derivatives,
    optimum_g_derivatives,
    var_class_F,
    var_class_g,
    var_sample_median,
    variance_components,
)

WORKED = PopulationSummary.from_parameters(
    medians=(3.0, 5.0, 7.0), densities=(0.2, 0.5, 0.11), rhos=(0.8, 0.6, 0.7), N=10_000
)
SIZES = DesignSizes(m=100, n=400, N=10_000)
# ties in a census can put more than half of the units in p11
OVER = ProportionMatrix(p11=0.5005, p12=0.0, p21=0.0, p22=0.4995)
OVER_RANGE = PopulationSummary(median_x=3.0, median_y=5.0, median_z=7.0,
                               density_x=0.2, density_y=0.5, density_z=0.11,
                               pm_xy=OVER, pm_xz=OVER, pm_yz=OVER, N=100)


class TestDesignSizes:
    def test_factors(self):
        assert SIZES.theta_mN == pytest.approx(0.0099, abs=1e-15)
        assert SIZES.theta_mn == pytest.approx(0.0075, abs=1e-15)
        assert SIZES.theta_nN == pytest.approx(0.0024, abs=1e-15)

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            DesignSizes(m=100, n=100, N=1000)
        with pytest.raises(ValueError):
            DesignSizes(m=1, n=10, N=100)
        with pytest.raises(ValueError):
            DesignSizes(m=5, n=10, N=9)

    def test_non_integer_sizes_rejected(self):
        # a float m ran the design's floor but gave the theory at the float
        for m, n, N in ((150.9, 600, 5000), (150, 600.5, 5000), (150, 600, 5000.0),
                        ("150", 600, 5000)):
            with pytest.raises(ValueError, match=f"require integer sizes, got m={m!r}, n={n!r}"):
                DesignSizes(m=m, n=n, N=N)
        sizes = DesignSizes(m=np.int64(150), n=np.int32(600), N=np.uint64(5000))
        assert sizes.theta_mN == DesignSizes(150, 600, 5000).theta_mN


class TestClassDomain:
    """The class variances read the clamped concordances and divide by the
    scale products M_x f_x and M_z f_z only (a zero one of these is named in
    TestOneOwner::test_zero_scale_named)."""

    def test_concordances_from_summary(self):
        assert WORKED.concordances == pytest.approx((0.8, 0.6, 0.7), abs=1e-12)
        assert OVER.concordance > 1.0
        assert OVER_RANGE.concordances == (1.0, 1.0, 1.0)

    def test_zero_y_median_reduces_to_sample_median(self):
        s = PopulationSummary.from_parameters((3.0, -0.0, 7.0), (0.2, 0.5, 0.11),
                                              (0.8, 0.6, 0.7), 10_000)
        sizes = DesignSizes(100, 400, 10_000)
        assert var_sample_median(sizes, s) == 0.0099
        assert var_class_F(sizes, s, 0.0, 0.0, 0.0) == 0.0099
        assert var_class_g(sizes, s, -1.0, 0.0) == 0.0099


class TestVarianceComponents:
    def test_worked_triple(self):
        comps = variance_components(WORKED)
        assert comps.V0 == pytest.approx(1.0, abs=1e-12)
        assert comps.V1 == pytest.approx(0.64, abs=1e-12)
        assert comps.V2 == pytest.approx(0.36, abs=1e-12)
        assert comps.V3 == pytest.approx(0.0016 / 0.51, rel=1e-12)

    def test_zero_rhos(self):
        comps = VarianceComponents.from_concordances(2.0, 0.0, 0.0, 0.0)
        assert comps.V1 == comps.V2 == comps.V3 == 0.0

    def test_collinearity_guard(self):
        # only V3 divides by 1 - rho_xz^2: at |rho_xz| = 1 it is None, and
        # V0..V2 keep the bits they have at any other rho_xz
        defined = VarianceComponents.from_concordances(0.3, 0.7, 0.9, 0.0)
        for rho_xz in (1.0, -1.0):
            comps = VarianceComponents.from_concordances(0.3, 0.7, 0.9, rho_xz)
            assert comps.V3 is None
            assert (comps.V0, comps.V1, comps.V2) == (defined.V0, defined.V1, defined.V2)
            assert min_var_g(SIZES, comps) == min_var_g(SIZES, defined)
            with pytest.raises(ValueError, match="V3 undefined"):
                min_var_F(SIZES, comps)

    def test_gain_cannot_exceed_scale(self):
        with pytest.raises(ValueError):
            VarianceComponents(V0=1.0, V1=1.5, V2=0.0, V3=0.0)

    @pytest.mark.parametrize("f_y", [4.16e-301, 3e-155, 1e-170, 1e154, 4.17e155, 4e159])
    def test_v0_out_of_float_range(self, f_y):
        # 4 f_y^2 is subnormal, so 1/(4 f_y^2) overflows (f_y = 3e-155), it
        # underflows to 0 (f_y**2 == 0.0), overflows in the product
        # (f_y = 1e154), or f_y**2 itself raises OverflowError
        with pytest.raises(ValueError, match=r"^V0 = 1/\(4 f_y\^2\) is out of float range"):
            VarianceComponents.scaled_v0(1.0, f_y)
        summary = PopulationSummary.from_parameters((1.0, 1.0, 1.0), (1.0, f_y, 1.0),
                                                    (0.5, 0.5, 0.5), N=100)
        with pytest.raises(ValueError, match="out of float range"):
            variance_components(summary)

    def test_v0_finite_bits_unchanged(self):
        # a subnormal 4 f_y^2 keeps the bits of every quotient that stays finite
        for f_y in (1e-150, 3e-155, 0.37, 2.5, 1e150):
            for theta in (1.0, SIZES.theta_mN, 1e-3):
                expected = theta / (4.0 * f_y**2)
                if np.isfinite(expected):
                    assert VarianceComponents.scaled_v0(theta, f_y).hex() == expected.hex()


class TestSampleMedianVariance:
    def test_worked_value(self):
        assert var_sample_median(SIZES, WORKED) == pytest.approx(0.0099, abs=1e-15)

    def test_near_census_limit(self):
        # m = N is excluded by the size invariants; at m = N - 1 the variance
        # is the vanishing theta_mN times V0
        s = PopulationSummary.from_parameters((1, 1, 1), (0.5, 0.5, 0.5), (0, 0, 0), 400)
        assert var_sample_median(DesignSizes(m=399, n=400, N=400), s) == pytest.approx(
            (1 / 399 - 1 / 400) * 1.0, rel=1e-12
        )

    def test_density_scaling(self):
        s2 = PopulationSummary.from_parameters((3, 5, 7), (0.2, 1.0, 0.11), (0.8, 0.6, 0.7), 10_000)
        assert var_sample_median(SIZES, s2) == pytest.approx(
            var_sample_median(SIZES, WORKED) / 4.0, rel=1e-12
        )


class TestClassGVariance:
    def test_zero_derivatives_reduce_to_median(self):
        assert var_class_g(SIZES, WORKED, 0.0, 0.0) == var_sample_median(SIZES, WORKED)

    def test_optimum_equals_minimum_formula(self, rng):
        for _ in range(50):
            s = random_summary(rng)
            sizes = DesignSizes(m=50, n=200, N=5000)
            opt = optimum_g_derivatives(s)
            direct = var_class_g(sizes, s, opt.g1, opt.g2)
            closed = min_var_g(sizes, variance_components(s))
            assert direct == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_a_term_depends_on_scaled_derivative(self):
        # the A term depends on g1 only through (scale_y/scale_x)*g1, so
        # doubling scale_x with g1 doubled leaves the variance unchanged
        s2 = PopulationSummary.from_parameters((6.0, 5.0, 7.0), (0.2, 0.5, 0.11),
                                               (0.8, 0.6, 0.7), 10_000)
        assert var_class_g(SIZES, s2, 0.6, 0.3) == pytest.approx(
            var_class_g(SIZES, WORKED, 0.3, 0.3), rel=1e-12
        )

    def test_perturbation_increases_variance(self, rng):
        for _ in range(30):
            s = random_summary(rng)
            sizes = DesignSizes(m=50, n=200, N=5000)
            opt = optimum_g_derivatives(s)
            base = var_class_g(sizes, s, opt.g1, opt.g2)
            d1, d2 = rng.normal(scale=0.5, size=2)
            assert var_class_g(sizes, s, opt.g1 + d1, opt.g2 + d2) >= base - 1e-15


class TestOptimumGDerivatives:
    def test_zero_association(self):
        s = PopulationSummary.from_parameters((3, 5, 7), (0.2, 0.5, 0.11), (0.0, 0.3, 0.1), 100)
        assert optimum_g_derivatives(s).g1 == 0.0

    def test_symmetric_scales(self):
        s = PopulationSummary.from_parameters((5, 5, 7), (0.5, 0.5, 0.11), (0.8, 0.6, 0.7), 100)
        # scale_x = scale_y and concordance 0.8 = 4*0.45 - 1
        assert optimum_g_derivatives(s).g1 == pytest.approx(-0.8, rel=1e-12)

    def test_sign(self, rng):
        for _ in range(20):
            s = random_summary(rng)
            opt = optimum_g_derivatives(s)
            rho = s.concordances[0]
            if rho > 0:
                assert opt.g1 < 0 or rho == 0

    def test_alpha_normalizations(self):
        opt = optimum_g_derivatives(WORKED)
        assert opt.alpha1 == pytest.approx(-opt.g1, rel=1e-15)
        assert opt.alpha1_star == pytest.approx(opt.alpha1 * 5.0, rel=1e-12)
        assert opt.alpha2_star == pytest.approx(opt.alpha2 * 5.0, rel=1e-12)


class TestMinimumVariances:
    def test_worked_values(self):
        comps = variance_components(WORKED)
        assert min_var_g(SIZES, comps) == pytest.approx(0.004236, abs=1e-15)
        assert min_var_H(SIZES, comps) == pytest.approx(0.0051, abs=1e-15)
        assert min_var_F(SIZES, comps) == pytest.approx(0.004236 - 0.0075 * 0.0016 / 0.51,
                                                        rel=1e-12)

    def test_gap_identities(self):
        comps = variance_components(WORKED)
        assert min_var_H(SIZES, comps) - min_var_g(SIZES, comps) == pytest.approx(
            SIZES.theta_nN * comps.V2, rel=1e-12
        )
        assert min_var_g(SIZES, comps) - min_var_F(SIZES, comps) == pytest.approx(
            SIZES.theta_mn * comps.V3, rel=1e-12
        )

    def test_perfect_x_association(self):
        # V1 = V0: the second phase costs nothing, only theta_nN remains
        comps = VarianceComponents.from_concordances(1.0, 1.0, 0.0, 0.0)
        assert min_var_H(SIZES, comps) == pytest.approx(SIZES.theta_nN, rel=1e-12)

    def test_ordering_on_random_corpus(self, rng):
        for _ in range(200):
            s = random_summary(rng)
            m = int(rng.integers(2, 50))
            n = int(rng.integers(m + 1, 200))
            N = int(rng.integers(n, 5000)) if n < 5000 else n
            sizes = DesignSizes(m=m, n=n, N=max(N, n))
            comps = variance_components(s)
            v_med = var_sample_median(sizes, s)
            vH = min_var_H(sizes, comps)
            vg = min_var_g(sizes, comps)
            vF = min_var_F(sizes, comps)
            assert vF <= vg <= vH <= v_med
            assert vF >= -1e-15  # realizable rhos keep every minimum nonnegative


class TestClassFVariance:
    def test_zero_derivatives_reduce_to_median(self):
        assert var_class_F(SIZES, WORKED, 0.0, 0.0, 0.0) == var_sample_median(SIZES, WORKED)

    def test_optimum_equals_minimum_formula(self, rng):
        for _ in range(50):
            s = random_summary(rng)
            sizes = DesignSizes(m=50, n=200, N=5000)
            opt = optimum_F_derivatives(s)
            direct = var_class_F(sizes, s, opt.F2, opt.F3, opt.F4)
            closed = min_var_F(sizes, variance_components(s))
            assert direct == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_single_aux_reduction(self, rng):
        # F3 = F4 = 0 with F2 at the x-only optimum recovers the H minimum
        for _ in range(20):
            s = random_summary(rng)
            sizes = DesignSizes(m=50, n=200, N=5000)
            f2 = -(s.median_x * s.density_x / s.density_y) * s.concordances[0]
            assert var_class_F(sizes, s, f2, 0.0, 0.0) == pytest.approx(
                min_var_H(sizes, variance_components(s)), rel=1e-12
            )

    def test_perturbation_increases_variance(self, rng):
        for _ in range(30):
            s = random_summary(rng)
            sizes = DesignSizes(m=50, n=200, N=5000)
            opt = optimum_F_derivatives(s)
            base = var_class_F(sizes, s, opt.F2, opt.F3, opt.F4)
            d = rng.normal(scale=0.5, size=3)
            assert var_class_F(sizes, s, opt.F2 + d[0], opt.F3 + d[1], opt.F4 + d[2]) >= base - 1e-15


class TestOptimumFDerivatives:
    def test_worked_composite(self):
        opt = optimum_F_derivatives(WORKED)
        assert opt.D == pytest.approx(0.04, abs=1e-12)

    def test_independent_auxiliaries(self):
        s = PopulationSummary.from_parameters((3, 5, 7), (0.2, 0.5, 0.11), (0.8, 0.6, 0.0), 100)
        opt = optimum_F_derivatives(s)
        assert opt.F3 == 0.0
        assert opt.F4 == pytest.approx(-0.6 * 7 * 0.11 / 0.5, rel=1e-12)

    def test_zero_composite(self):
        s = PopulationSummary.from_parameters((3, 5, 7), (0.2, 0.5, 0.11), (0.8, 0.8 * 0.7, 0.7),
                                              100)
        assert optimum_F_derivatives(s).F4 == pytest.approx(0.0, abs=1e-15)

    def test_matches_negated_coefficients(self, rng):
        for _ in range(20):
            s = random_summary(rng)
            opt = optimum_F_derivatives(s)
            assert opt.F2 == -opt.a1 and opt.F3 == -opt.a2 and opt.F4 == -opt.a3

    def test_collinearity(self):
        s = PopulationSummary.from_parameters((3, 5, 7), (0.2, 0.5, 0.11), (0.5, 0.5, 1.0), 100)
        with pytest.raises(ValueError, match="collinearity"):
            optimum_F_derivatives(s)


class TestOneOwner:
    def test_optima_are_the_true_coefficients(self, rng):
        # theory and the *-true estimators evaluate one function: the fields
        # agree bit for bit on in-range summaries and on a census past the
        # clamp, where only the generalized optimum is undefined
        for s in [OVER_RANGE, *(random_summary(rng) for _ in range(200))]:
            c = true_coefficients(s)
            og = optimum_g_derivatives(s)
            assert (og.alpha1, og.alpha2, og.alpha1_star, og.alpha2_star) == (
                c.alpha1_hat, c.alpha2_hat, c.alpha1_star_hat, c.alpha2_star_hat)
            assert (og.g1, og.g2) == (-c.alpha1_hat, -c.alpha2_hat)
            if s is OVER_RANGE:
                assert c.a1_hat is None
                with pytest.raises(ValueError, match="collinearity"):
                    optimum_F_derivatives(s)
                continue
            of = optimum_F_derivatives(s)
            assert (of.a1, of.a2, of.a3) == (c.a1_hat, c.a2_hat, c.a3_hat)
            assert (of.F2, of.F3, of.F4) == (-c.a1_hat, -c.a2_hat, -c.a3_hat)

    def test_zero_y_median_keeps_components(self):
        s = PopulationSummary.from_parameters((3, -0.0, 7), (0.2, 0.5, 0.11), (0.8, 0.6, 0.7),
                                              10_000)
        assert variance_components(s) == variance_components(WORKED)

    @pytest.mark.parametrize("medians,scale", [((-0.0, 5, 7), "scale_x"), ((3, 5, 0.0), "scale_z")])
    def test_zero_scale_named(self, medians, scale):
        s = PopulationSummary.from_parameters(medians, (0.2, 0.5, 0.11), (0.8, 0.6, 0.7), 10_000)
        with pytest.raises(ValueError, match=scale):
            var_class_g(SIZES, s, -1.0, 0.0)
        with pytest.raises(ValueError, match=scale):
            var_class_F(SIZES, s, -1.0, 0.0, 0.0)


def moment_matrix(sizes, summary):
    """Covariance of (e0, e1 - e2, e4, e3) built directly from the
    first-order relative-error moments of the five sample medians: the
    independent oracle for the variance assembly.

    e0 = my_hat/M_y - 1 (second phase), e1/e2 the second/first-phase
    x-median errors, e3/e4 the second/first-phase z-median errors.
    """
    rho_xy, rho_yz, rho_xz = summary.concordances
    lam_m = sizes.theta_mN / 4.0
    lam_n = sizes.theta_nN / 4.0
    sx = summary.median_x * summary.density_x
    sy = summary.median_y * summary.density_y
    sz = summary.median_z * summary.density_z
    cov = np.zeros((4, 4))
    cov[0, 0] = lam_m / sy**2
    cov[1, 1] = (lam_m - lam_n) / sx**2
    cov[2, 2] = lam_n / sz**2
    cov[3, 3] = lam_m / sz**2
    cov[0, 1] = cov[1, 0] = (lam_m - lam_n) * rho_xy / (sx * sy)
    cov[0, 2] = cov[2, 0] = lam_n * rho_yz / (sy * sz)
    cov[0, 3] = cov[3, 0] = lam_m * rho_yz / (sy * sz)
    cov[1, 2] = cov[2, 1] = 0.0  # first- and mixed-phase x-z errors cancel
    cov[1, 3] = cov[3, 1] = (lam_m - lam_n) * rho_xz / (sx * sz)
    cov[2, 3] = cov[3, 2] = lam_n / sz**2
    return cov


class TestMomentMatrixOracle:
    """Both closed-form variances equal the quadratic form w' Sigma w of
    the error-moment matrix at arbitrary derivatives, not just at the
    optimum or at zero."""

    def test_var_class_g_quadratic_form(self, rng):
        for _ in range(50):
            s = random_summary(rng)
            sizes = DesignSizes(m=int(rng.integers(2, 80)), n=int(rng.integers(81, 300)),
                                N=int(rng.integers(301, 20_000)))
            g1, g2 = rng.normal(scale=2.0, size=2)
            w = s.median_y * np.array([1.0, g1, g2, 0.0])
            cov = moment_matrix(sizes, s)
            expected = float(w @ cov @ w)
            assert var_class_g(sizes, s, g1, g2) == pytest.approx(expected, rel=1e-12)

    def test_var_class_F_quadratic_form(self, rng):
        for _ in range(50):
            s = random_summary(rng)
            sizes = DesignSizes(m=int(rng.integers(2, 80)), n=int(rng.integers(81, 300)),
                                N=int(rng.integers(301, 20_000)))
            f2, f3, f4 = rng.normal(scale=2.0 * s.median_y, size=3)
            w = np.array([s.median_y, f2, f3, f4])
            cov = moment_matrix(sizes, s)
            expected = float(w @ cov @ w)
            assert var_class_F(sizes, s, f2, f3, f4) == pytest.approx(expected, rel=1e-12)

    def test_var_sample_median_is_corner(self, rng):
        for _ in range(20):
            s = random_summary(rng)
            sizes = DesignSizes(m=25, n=100, N=2500)
            cov = moment_matrix(sizes, s)
            assert var_sample_median(sizes, s) == pytest.approx(
                s.median_y**2 * cov[0, 0], rel=1e-12)


class TestFiniteDifferenceStationarity:
    def test_gradients_vanish_at_optima(self, rng):
        for _ in range(25):
            s = random_summary(rng)
            sizes = DesignSizes(m=40, n=160, N=4000)
            og = optimum_g_derivatives(s)
            base = var_class_g(sizes, s, og.g1, og.g2)
            for i in range(2):
                step = 1e-3 * max(1.0, abs((og.g1, og.g2)[i]))
                d = [0.0, 0.0]
                d[i] = step
                up = var_class_g(sizes, s, og.g1 + d[0], og.g2 + d[1])
                dn = var_class_g(sizes, s, og.g1 - d[0], og.g2 - d[1])
                grad = (up - dn) / (2 * step)
                curv = abs(up - 2 * base + dn) / step**2
                assert abs(grad) <= 1e-6 * max(curv * max(1.0, abs((og.g1, og.g2)[i])), 1e-12)

    def test_degenerate_reductions(self, rng):
        sizes = DesignSizes(m=30, n=120, N=3000)
        for _ in range(50):
            rho_xy, _, rho_xz = realizable_concordances(rng)
            s_v2 = PopulationSummary.from_parameters(
                (3, 5, 7), (0.2, 0.5, 0.11), (rho_xy, 0.0, rho_xz), 3000)
            comps = variance_components(s_v2)
            assert min_var_g(sizes, comps) == pytest.approx(min_var_H(sizes, comps), rel=1e-12)
            s_v3 = PopulationSummary.from_parameters(
                (3, 5, 7), (0.2, 0.5, 0.11), (rho_xy, rho_xy * rho_xz, rho_xz), 3000)
            comps3 = variance_components(s_v3)
            assert min_var_F(sizes, comps3) == pytest.approx(min_var_g(sizes, comps3), rel=1e-12)
