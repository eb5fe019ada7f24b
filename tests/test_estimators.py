"""Estimator catalog: hand examples, an independent coefficient oracle,
degeneracies, and equivariance properties."""

import dataclasses
import math

import numpy as np
import pytest

from dsmedian import core_stats
from dsmedian.core_stats import (
    _quantile_sorted,
    kde_at,
    median,
    proportion_matrix,
    silverman_bandwidth,
)
from dsmedian.estimators import (
    ESTIMATOR_IDS,
    EstimatorError,
    G_FORM_IDS,
    GForm,
    PluginCoefficients,
    SampleView,
    class_F_estimate,
    class_g_estimate,
    evaluate_estimator,
    evaluate_with_diagnostics,
    gform_estimated_optimum,
    optimum_coefficients,
    plugin_coefficients,
    position_estimator,
    position_probability,
    ratio_double,
    ratio_known,
    regression_single_aux,
    regression_two_aux,
    stratification_estimator,
    true_coefficients,
)
from dsmedian.population import PopulationSummary


def make_view(y_m, x_m, z_m, x_n, z_n, known_mz, known_mx=None):
    return SampleView(
        y_m=y_m, x_m=x_m, z_m=z_m, x_n=x_n, z_n=z_n, known_mz=known_mz, known_mx=known_mx
    )


def random_view(rng, m=24, n=80):
    x = rng.normal(10, 2, size=n)
    z = 0.6 * x + rng.normal(4, 1, size=n)
    y2 = 0.5 * x[:m] + rng.normal(5, 1, size=m)
    return make_view(
        y_m=y2, x_m=x[:m], z_m=z[:m], x_n=x, z_n=z, known_mz=10.0, known_mx=10.0
    )


def oracle_views(rng):
    """Seeded views with odd and even m, continuous and tie-heavy integer data."""
    for m in (5, 6, 23, 24, 150):
        for ties in (False, True):
            def draw(k):
                if ties:
                    return rng.integers(0, 4, size=k).astype(float)
                return rng.normal(10, 2, size=k)

            n = m + int(rng.integers(1, 9))
            x, z = draw(n), draw(n)
            yield make_view(y_m=draw(m), x_m=x[:m], z_m=z[:m], x_n=x, z_n=z,
                            known_mz=2.0, known_mx=2.0)


# ---------------------------------------------------------------------------
# Independent plain-Python oracle for the plug-in coefficients
# ---------------------------------------------------------------------------


def oracle_quantile(vals, p):
    s = sorted(vals)
    k = len(s)
    for i in range(k):
        if (i + 1) / k >= p:
            return s[i]
    return s[-1]


def oracle_bandwidth(vals):
    k = len(vals)
    mean = sum(vals) / k
    sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (k - 1))
    iqr = oracle_quantile(vals, 0.75) - oracle_quantile(vals, 0.25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * scale * k ** (-0.2)


def oracle_kde(vals, point, h):
    total = sum(math.exp(-0.5 * ((point - v) / h) ** 2) for v in vals)
    return total / (len(vals) * h * math.sqrt(2 * math.pi))


def oracle_p11(a, b, ta, tb):
    return sum(1 for ai, bi in zip(a, b) if ai <= ta and bi <= tb) / len(a)


def oracle_coefficients(x, y, z):
    """Spreadsheet-style evaluation of every coefficient from its formula."""
    mx, my, mz = (oracle_quantile(v, 0.5) for v in (x, y, z))
    fx = oracle_kde(x, mx, oracle_bandwidth(x))
    fy = oracle_kde(y, my, oracle_bandwidth(y))
    fz = oracle_kde(z, mz, oracle_bandwidth(z))
    rho_xy = 4 * oracle_p11(x, y, mx, my) - 1
    rho_yz = 4 * oracle_p11(y, z, my, mz) - 1
    rho_xz = 4 * oracle_p11(x, z, mx, mz) - 1
    denom = 1 - rho_xz**2
    return {
        "d1": (fx / fy) * rho_xy,
        "d2": (fz / fy) * rho_yz,
        "alpha1": (mx * fx) / (my * fy) * rho_xy,
        "alpha2": (mz * fz) / (my * fy) * rho_yz,
        "alpha1_star": mx * fx / fy * rho_xy,
        "alpha2_star": mz * fz / fy * rho_yz,
        "a1": (rho_xy - rho_xz * rho_yz) * mx * fx / (denom * fy),
        "a2": rho_xz * (rho_xy - rho_yz * rho_xz) * mz * fz / (denom * fy),
        "a3": (rho_yz - rho_xy * rho_xz) * mz * fz / (denom * fy),
    }


class TestSampleMedians:
    def test_phases(self):
        v = make_view(
            y_m=[1, 2, 3], x_m=[4, 5, 6], z_m=[7, 8, 9],
            x_n=[4, 5, 6, 10, 11], z_n=[7, 8, 9, 1, 2], known_mz=8.0,
        )
        meds = v.medians
        assert meds.my == 2 and meds.mx == 5 and meds.mz == 8
        assert meds.mx1 == 6 and meds.mz1 == 7

    def test_equal_phases_equal_medians(self):
        v = make_view(y_m=[1, 2], x_m=[3, 4], z_m=[5, 6], x_n=[3, 4], z_n=[5, 6], known_mz=5.0)
        meds = v.medians
        assert meds.mx == meds.mx1 and meds.mz == meds.mz1

    def test_matches_sort_oracle(self, rng):
        for _ in range(50):
            v = random_view(rng, m=int(rng.integers(1, 12)), n=int(rng.integers(12, 30)))
            meds = v.medians
            assert meds.my == oracle_quantile(list(v.y_m), 0.5)
            assert meds.mx1 == oracle_quantile(list(v.x_n), 0.5)
            assert meds.mz == oracle_quantile(list(v.z_m), 0.5)

    def test_cached_medians_equal_raw_medians(self, rng):
        for v in oracle_views(rng):
            meds = v.medians
            assert meds.my == median(v.y_m) and meds.mx == median(v.x_m)
            assert meds.mz == median(v.z_m)
            # first-phase medians are selected; no sorted copy is kept
            assert meds.mx1.hex() == float(_quantile_sorted(np.sort(v.x_n), 0.5)).hex()
            assert meds.mz1.hex() == float(_quantile_sorted(np.sort(v.z_n), 0.5)).hex()
            assert not hasattr(v, "sorted_x_n") and not hasattr(v, "sorted_z_n")
            for name in ("y_m", "x_m", "z_m"):
                ordered = getattr(v, "sorted_" + name)
                assert np.array_equal(ordered, np.sort(getattr(v, name)))
                assert not ordered.flags.writeable
                with pytest.raises(ValueError):
                    ordered[0] = 0.0

    def test_census_first_phase_recovers_population_median(self, rng):
        from dsmedian.core_stats import median as pop_median
        from dsmedian.population import Population
        from dsmedian.sampling import SeedSpec, draw_two_phase

        pop = Population(x=rng.normal(10, 2, 30), y=rng.normal(10, 2, 30),
                         z=rng.normal(10, 2, 30))
        sample = draw_two_phase(pop.N, pop.N, 8, SeedSpec(4, 0))
        view = SampleView.from_population(pop, sample)
        assert view.medians.mx1 == pop_median(pop.x)

    def test_from_population_adopts_read_only_copies(self, rng):
        from dsmedian.population import Population
        from dsmedian.sampling import SeedSpec, draw_two_phase

        pop = Population(x=rng.normal(10, 2, 200), y=rng.normal(10, 2, 200),
                         z=rng.normal(10, 2, 200))
        sample = draw_two_phase(pop.N, 60, 20, SeedSpec(4, 0))
        view = SampleView.from_population(pop, sample)
        for name, var, idx in (("y_m", "y", sample.second_phase), ("x_m", "x", sample.second_phase),
                               ("z_m", "z", sample.second_phase), ("x_n", "x", sample.first_phase),
                               ("z_n", "z", sample.first_phase)):
            arr = getattr(view, name)
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, getattr(pop, var))
            assert np.array_equal(arr, getattr(pop, var)[idx])
        # the public constructor still copies and checks what it is given
        y = np.arange(1.0, 4.0)
        v = make_view(y_m=y, x_m=[4, 5, 6], z_m=[7, 8, 9], x_n=[4, 5, 6, 1], z_n=[7, 8, 9, 1],
                      known_mz=8.0)
        assert y.flags.writeable and not np.shares_memory(v.y_m, y)
        with pytest.raises(EstimatorError, match="invalid datum in x_m"):
            make_view(y_m=[1, 2, 3], x_m=[4, np.nan, 6], z_m=[7, 8, 9], x_n=[4, 5, 6, 1],
                      z_n=[7, 8, 9, 1], known_mz=8.0)

    def test_census_median_of_x_computed_on_first_read(self, rng):
        from dsmedian.population import Population
        from dsmedian.sampling import SeedSpec, draw_two_phase

        pop = Population(x=rng.normal(10, 2, 200), y=rng.normal(10, 2, 200),
                         z=rng.normal(10, 2, 200))
        view = SampleView.from_population(pop, draw_two_phase(pop.N, 60, 20, SeedSpec(4, 0)))
        coeffs = plugin_coefficients(view)
        for est in ("median", "ratio-double", "reg-x", "reg-xz", "g1", "f-linear"):
            evaluate_estimator(est, view, coeffs)
        assert "median_x" not in pop.__dict__
        assert view.known_mx == median(pop.x)
        assert pop.__dict__["median_x"] == view.known_mx
        assert ratio_known(view) == view.medians.my * (median(pop.x) / view.medians.mx)


class TestSampleViewChecks:
    GOOD = dict(y_m=[1, 2, 3], x_m=[4, 5, 6], z_m=[7, 8, 9], x_n=[4, 5, 6, 1],
                z_n=[7, 8, 9, 1], known_mz=8.0)

    @pytest.mark.parametrize("changes, message", [
        # lengths are checked before the arrays are stacked
        (dict(x_m=[4, 5]), "second-phase variables must have equal length"),
        (dict(y_m=[1, 2, 3, 4]), "second-phase variables must have equal length"),
        (dict(z_n=[7, 8, 9]), "first-phase variables must have equal length"),
        (dict(x_n=[4, 5], z_n=[7, 8]), "first phase cannot be smaller than second phase"),
        (dict(y_m=[]), "empty sample: y_m"),
        (dict(x_n=[], z_n=[]), "empty sample: x_n"),
        (dict(z_m=[7, np.inf, 9]), "invalid datum in z_m"),
        (dict(x_n=[4, 5, np.nan, 1]), "invalid datum in x_n"),
        (dict(known_mz=math.nan), "known_mz must be finite"),
        (dict(known_mx=-math.inf), "known_mx must be finite when given"),
    ])
    def test_messages(self, changes, message):
        with pytest.raises(EstimatorError) as info:
            SampleView(**{**self.GOOD, **changes})
        assert str(info.value) == message

    @pytest.mark.parametrize("changes, message", [
        (dict(known_mz="a"), "known_mz must be finite"),
        (dict(known_mz=None), "known_mz must be finite"),
        (dict(known_mz=10**400), "known_mz must be finite"),
        (dict(known_mx="a"), "known_mx must be finite when given"),
        (dict(known_mx=10**400), "known_mx must be finite when given"),
    ])
    def test_known_median_not_a_float(self, changes, message):
        # a TypeError or an OverflowError of math.isfinite is an EstimatorError
        with pytest.raises(EstimatorError) as info:
            SampleView(**{**self.GOOD, **changes})
        assert str(info.value) == message

    @pytest.mark.parametrize("name", ["y_m", "x_n"])
    @pytest.mark.parametrize("bad", ["a", 10**400, "1", b"1"])
    def test_sample_value_not_a_float(self, name, bad):
        # numpy's ValueError or OverflowError is an EstimatorError naming the
        # array, and so is a numeric str or bytes, which numpy would parse
        values = list(self.GOOD[name])
        values[0] = bad
        with pytest.raises(EstimatorError) as info:
            SampleView(**{**self.GOOD, name: values})
        assert str(info.value) == f"invalid datum in {name}"

    def test_read_only_copies(self):
        given = {name: np.asarray(v, dtype=float) for name, v in self.GOOD.items()
                 if name != "known_mz"}
        view = SampleView(**given, known_mz=8.0, known_mx=10**20)
        copies = [(getattr(view, name), arr) for name, arr in given.items()]
        copies += [(getattr(view, "sorted_" + name), given[name]) for name in ("y_m", "x_m", "z_m")]
        for got, arr in copies:
            assert not np.shares_memory(got, arr)
            assert not got.flags.writeable and arr.flags.writeable
        for name, arr in given.items():
            assert getattr(view, name).tobytes() == arr.tobytes()
        assert view.known_mx == 10**20


class TestKnownMedianBaselines:
    def test_ratio_known_arithmetic(self):
        v = make_view(y_m=[10, 10, 10], x_m=[5, 5, 5], z_m=[1, 2, 3],
                      x_n=[5, 5, 5, 5], z_n=[1, 2, 3, 4], known_mz=2.0, known_mx=4.0)
        assert ratio_known(v) == pytest.approx(8.0, abs=1e-15)

    def test_ratio_known_identity(self, rng):
        v = random_view(rng)
        mx_hat = v.medians.mx
        v_eq = make_view(v.y_m, v.x_m, v.z_m, v.x_n, v.z_n, v.known_mz, known_mx=mx_hat)
        assert ratio_known(v_eq) == pytest.approx(v.medians.my, abs=1e-12)

    def test_ratio_known_constant_y(self):
        v = make_view(y_m=[3, 3, 3], x_m=[1, 2, 4], z_m=[1, 2, 3],
                      x_n=[1, 2, 4, 5], z_n=[1, 2, 3, 4], known_mz=2.0, known_mx=3.0)
        assert ratio_known(v) == pytest.approx(3.0 * 3.0 / 2.0, abs=1e-15)

    def test_requires_known_mx(self, rng):
        v = random_view(rng)
        v = make_view(v.y_m, v.x_m, v.z_m, v.x_n, v.z_n, v.known_mz, known_mx=None)
        with pytest.raises(EstimatorError, match="known population median"):
            ratio_known(v)

    def test_zero_mx_hat(self):
        v = make_view(y_m=[1, 2], x_m=[0, 1], z_m=[1, 2], x_n=[0, 1, 2], z_n=[1, 2, 3],
                      known_mz=1.0, known_mx=1.0)
        with pytest.raises(EstimatorError, match="ratio undefined"):
            ratio_known(v)


class TestPositionEstimator:
    def test_hand_example(self):
        v = make_view(y_m=[1, 2, 3, 4], x_m=[-1, -2, 1, 2], z_m=[0, 0, 1, 1],
                      x_n=[-1, -2, 1, 2, 0], z_n=[0, 0, 1, 1, 2], known_mz=1.0, known_mx=0.0)
        raw, clamped, fired = position_probability(v)
        assert raw == pytest.approx(0.5, abs=1e-15)
        assert not fired
        assert position_estimator(v) == 2.0

    def test_needs_two_units(self):
        v = make_view(y_m=[7], x_m=[-1], z_m=[0], x_n=[-1, 1], z_n=[0, 1], known_mz=1.0,
                      known_mx=0.0)
        with pytest.raises(EstimatorError, match="^position estimator needs m >= 2$"):
            position_estimator(v)

    def test_two_point_hand_example(self):
        v = make_view(y_m=[7, 9], x_m=[-1, 1], z_m=[0, 1], x_n=[-1, 1, 0], z_n=[0, 1, 2],
                      known_mz=1.0, known_mx=0.0)
        assert position_estimator(v) == 7.0

    def test_concordant_data_recovers_median(self, rng):
        # x and y are the same sequence, the known split is the true center
        for _ in range(20):
            m = 2 * int(rng.integers(2, 15))
            vals = rng.normal(size=m)
            v = make_view(y_m=vals, x_m=vals, z_m=rng.normal(size=m),
                          x_n=np.concatenate([vals, rng.normal(size=4)]),
                          z_n=rng.normal(size=m + 4), known_mz=0.0, known_mx=float(np.median(vals)))
            assert position_estimator(v) == oracle_quantile(list(vals), 0.5)

    def test_one_sided_strata_allowed(self):
        v = make_view(y_m=[1, 2, 3, 4], x_m=[1, 2, 3, 4], z_m=[0, 0, 1, 1],
                      x_n=[1, 2, 3, 4, 5], z_n=[0, 0, 1, 1, 2], known_mz=1.0, known_mx=0.0)
        # every x above the known median: m_x = 0, only the p12 term remains
        est = position_estimator(v)
        assert est in (1.0, 2.0, 3.0, 4.0)

    def test_clamp_fires_on_tiny_probability(self):
        # every x sits in the low stratum (m_x = m) while the low-x/low-y
        # quadrant about the sample medians is empty: raw proportion 0
        v = make_view(y_m=[3, 4, 1, 2], x_m=[-4, -3, -2, -1], z_m=[0, 0, 1, 1],
                      x_n=[-4, -3, -2, -1, 0], z_n=[0, 0, 1, 1, 2], known_mz=1.0, known_mx=0.0)
        raw, clamped, fired = position_probability(v)
        assert raw == pytest.approx(0.0, abs=1e-15)
        assert clamped == 0.25
        assert fired
        assert position_estimator(v) == 1.0


class TestStratificationEstimator:
    def test_hand_example(self):
        v = make_view(y_m=[1, 2, 3, 4], x_m=[-1, -2, 1, 2], z_m=[0, 0, 1, 1],
                      x_n=[-1, -2, 1, 2, 0], z_n=[0, 0, 1, 1, 2], known_mz=1.0, known_mx=0.0)
        assert stratification_estimator(v) == 2.0

    def test_identical_strata(self):
        v = make_view(y_m=[1, 2, 3, 1, 2, 3], x_m=[-1, -2, -3, 1, 2, 3], z_m=[0] * 6,
                      x_n=[-1, -2, -3, 1, 2, 3, 0], z_n=[0] * 7, known_mz=0.0, known_mx=0.0)
        assert stratification_estimator(v) == 2.0

    def test_singleton_strata(self):
        v = make_view(y_m=[5, 5], x_m=[-1, 1], z_m=[0, 1], x_n=[-1, 1, 0], z_n=[0, 1, 2],
                      known_mz=1.0, known_mx=0.0)
        assert stratification_estimator(v) == 5.0

    def test_empty_stratum_raises(self):
        v = make_view(y_m=[1, 2, 3], x_m=[1, 2, 3], z_m=[0, 0, 1],
                      x_n=[1, 2, 3, 4], z_n=[0, 0, 1, 1], known_mz=1.0, known_mx=0.0)
        with pytest.raises(EstimatorError, match="stratification undefined"):
            stratification_estimator(v)
        assert evaluate_with_diagnostics("stratified", v) == (2.0, False, True)


class TestRatioDouble:
    def test_arithmetic(self):
        v = make_view(y_m=[10, 10, 10], x_m=[5, 5, 5], z_m=[1, 2, 3],
                      x_n=[6, 6, 6, 6], z_n=[1, 2, 3, 4], known_mz=2.0)
        assert ratio_double(v) == pytest.approx(12.0, abs=1e-15)

    def test_equal_phases_returns_my(self, rng):
        vals = rng.normal(10, 2, size=12)
        z = rng.normal(5, 1, size=12)
        y = rng.normal(8, 1, size=12)
        v = make_view(y_m=y, x_m=vals, z_m=z, x_n=vals, z_n=z, known_mz=5.0)
        assert ratio_double(v) == v.medians.my

    def test_sign_follows_my(self, rng):
        v = random_view(rng)
        assert (ratio_double(v) > 0) == (v.medians.my > 0)


class TestPluginCoefficients:
    def test_zero_xy_concordance(self):
        # one second-phase point in each (x, y) quadrant: rho_hat(x, y) = 0
        v = make_view(y_m=[-1, 1, -1, 1], x_m=[-1, -1, 1, 1], z_m=[0, 2, 1, 3],
                      x_n=[-1, -1, 1, 1, 0], z_n=[0, 2, 1, 3, 4], known_mz=2.0)
        c = plugin_coefficients(v)
        assert c.d1_hat == 0.0
        assert c.alpha1_hat == 0.0

    def test_zero_xz_concordance_reduces_generalized(self):
        # checkerboard x-z: rho_hat(x, z) = 0, so a1 = alpha1*, a2 = 0
        v = make_view(y_m=[-1, 1, -1, 1], x_m=[-1, -1, 1, 1], z_m=[-1, 1, -1, 1],
                      x_n=[-1, -1, 1, 1, 0], z_n=[-1, 1, -1, 1, 0], known_mz=0.0)
        c = plugin_coefficients(v)
        assert c.a1_hat == pytest.approx(c.alpha1_star_hat, abs=1e-15)
        assert c.a2_hat == 0.0

    def test_eight_point_hand_oracle(self):
        x = [2.0, 3.5, 1.0, 6.0, 4.5, 5.0, 2.5, 7.0]
        y = [1.5, 4.0, 2.0, 5.5, 3.0, 6.5, 1.0, 5.0]
        z = [3.0, 2.0, 1.5, 4.0, 2.5, 5.5, 6.0, 4.5]
        v = make_view(y_m=y, x_m=x, z_m=z,
                      x_n=x + [3.0, 8.0], z_n=z + [3.5, 5.0], known_mz=3.5)
        c = plugin_coefficients(v)
        o = oracle_coefficients(x, y, z)
        assert c.d1_hat == pytest.approx(o["d1"], rel=1e-12)
        assert c.d2_hat == pytest.approx(o["d2"], rel=1e-12)
        assert c.alpha1_hat == pytest.approx(o["alpha1"], rel=1e-12)
        assert c.alpha2_hat == pytest.approx(o["alpha2"], rel=1e-12)
        assert c.alpha1_star_hat == pytest.approx(o["alpha1_star"], rel=1e-12)
        assert c.alpha2_star_hat == pytest.approx(o["alpha2_star"], rel=1e-12)
        assert c.a1_hat == pytest.approx(o["a1"], rel=1e-12)
        assert c.a2_hat == pytest.approx(o["a2"], rel=1e-12)
        assert c.a3_hat == pytest.approx(o["a3"], rel=1e-12)

    def test_random_samples_match_oracle(self, rng):
        checked = 0
        for _ in range(30):
            m = int(rng.integers(4, 30))
            v = random_view(rng, m=m, n=m + 10)
            c = plugin_coefficients(v)
            if c.a3_hat is None:
                continue  # tiny even samples can hit exact x-z collinearity
            o = oracle_coefficients(list(v.x_m), list(v.y_m), list(v.z_m))
            assert c.a3_hat == pytest.approx(o["a3"], rel=1e-10)
            assert c.d1_hat == pytest.approx(o["d1"], rel=1e-10)
            checked += 1
        assert checked >= 15

    def test_bandwidths_equal_public_silverman(self, rng, monkeypatch):
        seen = []
        kde = core_stats._kde

        def recording_kde(values, point, bandwidth):
            seen.append((values, bandwidth))
            return kde(values, point, bandwidth)

        monkeypatch.setattr(core_stats, "_kde", recording_kde)
        for v in oracle_views(rng):
            try:
                plugin_coefficients(v)
            except EstimatorError:
                pass  # tie-heavy samples may be collinear; the KDEs ran first
        # each call runs on the (3, 1, m) x, y, z stack of one view
        assert all(values.shape[:-1] == (3, 1) for values, _ in seen)
        rows = [(row, float(hr)) for values, h in seen
                for row, hr in zip(values.reshape(-1, values.shape[-1]), np.ravel(h))]
        assert len(rows) >= 20
        for values, h in rows:
            # the sd must be summed over the sample in its original order
            sd = float(np.std(values, ddof=1))
            iqr = oracle_quantile(list(values), 0.75) - oracle_quantile(list(values), 0.25)
            scale = min(sd, iqr / 1.34) if iqr > 0 else sd
            assert h == silverman_bandwidth(values) == 0.9 * scale * values.size ** (-0.2)

    def test_collinear_auxiliaries(self):
        # z == x with even m forces the x-z concordance to one; only the
        # generalized set divides by 1 - rho_xz^2
        x = [1.0, 2.0, 3.0, 4.0]
        v = make_view(y_m=[1, 2, 3, 4], x_m=x, z_m=x, x_n=x + [5.0], z_n=x + [5.0], known_mz=2.0)
        c = plugin_coefficients(v)
        assert c.a1_hat is None and c.a2_hat is None and c.a3_hat is None
        with pytest.raises(EstimatorError, match="collinear auxiliaries"):
            evaluate_estimator("f-linear", v, c)
        assert math.isfinite(evaluate_estimator("reg-xz", v, c))

    def test_odd_m_concordance_overshoots_unclamped(self):
        # x, y, z in the same order at m = 5: three of five points lie at or
        # below both lower medians, so every plug-in concordance is
        # 4 * 3/5 - 1 = 1 + 2/m = 1.4; it is kept, and only the generalized
        # set, which needs 1 - rho_xz^2 > 0, is lost
        x, y, z = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 5.0, 7.0, 11.0], [1.5, 2.5, 3.5, 4.5, 6.0]
        v = make_view(y_m=y, x_m=x, z_m=z, x_n=x + [0.5, 6.5, 8.0],
                      z_n=z + [1.0, 5.0, 7.5], known_mz=3.5)
        meds = v.medians
        for a, b, ta, tb in ((x, z, meds.mx, meds.mz), (x, y, meds.mx, meds.my)):
            rho = proportion_matrix(np.column_stack((a, b)), ta, tb).concordance
            assert rho == pytest.approx(1.0 + 2.0 / 5)
        c = plugin_coefficients(v)
        o = oracle_coefficients(x, y, z)
        assert c.d1_hat == pytest.approx(o["d1"], rel=1e-12)  # built on rho_xy = 1.4
        assert c.a1_hat is None and c.a2_hat is None and c.a3_hat is None
        with pytest.raises(EstimatorError, match="collinear auxiliaries"):
            evaluate_estimator("f-linear", v, c)
        assert math.isfinite(evaluate_estimator("reg-x", v, c))
        assert math.isfinite(evaluate_estimator("g1", v, c))

    def test_bits_equal_public_forms(self, rng):
        # the densities through np.std, kde_at and silverman's formula, the
        # concordances through proportion_matrix: every coefficient bit for bit
        from dsmedian.population import Population
        from dsmedian.sampling import SeedSpec, draw_two_phase

        pop = Population(x=rng.lognormal(1, 0.5, 2000), y=rng.normal(10, 2, 2000),
                         z=rng.integers(0, 9, 2000))
        views = [SampleView.from_population(pop, draw_two_phase(pop.N, 600, m, SeedSpec(5, r)))
                 for m in (150, 151) for r in range(10)]
        checked = 0
        for v in [*oracle_views(rng), *views]:
            meds = v.medians
            dens = []
            for values, at in ((v.x_m, meds.mx), (v.y_m, meds.my), (v.z_m, meds.mz)):
                sd = float(np.std(values, ddof=1))
                iqr = oracle_quantile(list(values), 0.75) - oracle_quantile(list(values), 0.25)
                scale = min(sd, iqr / 1.34) if iqr > 0 else sd
                dens.append(kde_at(values, at, 0.9 * scale * values.size ** (-0.2)).value)

            def rho(a, b, ta, tb):
                return proportion_matrix(np.column_stack((a, b)), ta, tb).concordance

            try:
                expected = optimum_coefficients(
                    (meds.mx, meds.my, meds.mz), tuple(dens),
                    (rho(v.x_m, v.y_m, meds.mx, meds.my), rho(v.y_m, v.z_m, meds.my, meds.mz),
                     rho(v.x_m, v.z_m, meds.mx, meds.mz)))
            except EstimatorError:
                with pytest.raises(EstimatorError):
                    plugin_coefficients(v)
                continue
            got = plugin_coefficients(v)
            for a, b in zip(dataclasses.astuple(got), dataclasses.astuple(expected)):
                assert (a is None and b is None) or a.hex() == b.hex()
            checked += 1
        assert checked >= 25

    def test_zero_bandwidth_is_degenerate(self, rng):
        # a subnormal IQR underflows Silverman's h to 0.0: the sample is
        # degenerate for the plug-ins, as an all-equal one is
        x = np.array([0.0] * 15 + [5e-324] * 15 + [-1.0] * 5 + [1.0] * 5)
        y, z = rng.normal(10, 2, 40), rng.normal(5, 1, 40)
        v = make_view(y_m=y, x_m=x, z_m=z, x_n=np.append(x, 2.0), z_n=np.append(z, 5.0),
                      known_mz=5.0)
        with pytest.raises(EstimatorError, match="degenerate second-phase x sample"):
            plugin_coefficients(v)
        with pytest.raises(EstimatorError, match="degenerate second-phase x sample"):
            evaluate_estimator("reg-xz", v)

    def test_overflowing_density_is_degenerate(self, rng):
        # a positive but subnormal h puts an infinite KDE at the median of y;
        # coefficients divided by f_y = inf would all read 0
        y = np.array([0.0] * 15 + [1e-309] * 15 + [-1.0] * 5 + [1.0] * 5)
        x, z = rng.normal(10, 2, 40), rng.normal(5, 1, 40)
        v = make_view(y_m=y, x_m=x, z_m=z, x_n=np.append(x, 2.0), z_n=np.append(z, 5.0),
                      known_mz=5.0)
        with pytest.raises(
            EstimatorError, match="degenerate second-phase y sample: density overflows"
        ):
            plugin_coefficients(v)

    def test_needs_four_points(self):
        v = make_view(y_m=[1, 2, 3], x_m=[1, 2, 3], z_m=[3, 1, 2],
                      x_n=[1, 2, 3, 4], z_n=[3, 1, 2, 4], known_mz=2.0)
        with pytest.raises(EstimatorError, match="m >= 4"):
            plugin_coefficients(v)

    def test_true_coefficients_match_summary_formulas(self):
        s = PopulationSummary.from_parameters(
            medians=(4.0, 5.0, 6.0), densities=(0.2, 0.25, 0.3), rhos=(0.5, 0.3, 0.4), N=1000
        )
        c = true_coefficients(s)
        assert c.d1_hat == pytest.approx(0.2 / 0.25 * 0.5, rel=1e-12)
        assert c.alpha1_star_hat == pytest.approx(4.0 * 0.2 * 0.5 / 0.25, rel=1e-12)
        d = 0.3 - 0.5 * 0.4
        assert c.a3_hat == pytest.approx(d * 6.0 * 0.3 / ((1 - 0.16) * 0.25), rel=1e-12)


class TestRegressionEstimators:
    def test_two_aux_arithmetic(self):
        c = PluginCoefficients(2, 1, 0, 0, 0, 0, 0, 0, 0)
        v = make_view(y_m=[10, 10], x_m=[3, 3], z_m=[1, 1], x_n=[4, 4, 4], z_n=[1.5, 1.5, 1.5],
                      known_mz=2.0)
        assert regression_two_aux(v, c) == pytest.approx(12.5, abs=1e-15)
        assert regression_single_aux(v, c) == pytest.approx(12.0, abs=1e-15)

    def test_zero_coefficients_return_my(self, rng):
        v = random_view(rng)
        c = PluginCoefficients(0, 0, 0, 0, 0, 0, 0, 0, 0)
        my = v.medians.my
        assert regression_two_aux(v, c) == my
        assert regression_single_aux(v, c) == my

    def test_equal_phases_and_known_mz(self, rng):
        vals = rng.normal(10, 2, size=12)
        z = rng.normal(5, 1, size=12)
        y = rng.normal(8, 1, size=12)
        v = make_view(y_m=y, x_m=vals, z_m=z, x_n=vals, z_n=z,
                      known_mz=oracle_quantile(list(z), 0.5))
        c = plugin_coefficients(v)
        my = v.medians.my
        assert regression_two_aux(v, c) == my
        assert regression_single_aux(v, c) == my

    def test_single_equals_two_aux_when_z_term_zero(self, rng):
        v = random_view(rng)
        c = plugin_coefficients(v)
        cz = PluginCoefficients(c.d1_hat, 0.0, c.alpha1_hat, c.alpha2_hat, c.alpha1_star_hat,
                                c.alpha2_star_hat, c.a1_hat, c.a2_hat, c.a3_hat)
        assert regression_two_aux(v, cz) == regression_single_aux(v, cz)


class TestClassG:
    def test_all_forms_identity_at_one(self, rng):
        vals = rng.normal(10, 2, size=8)
        z = rng.normal(5, 1, size=8)
        y = rng.normal(8, 1, size=8)
        v = make_view(y_m=y, x_m=vals, z_m=z, x_n=vals, z_n=z,
                      known_mz=oracle_quantile(list(z), 0.5))
        my = v.medians.my
        for form in ("g1", "g2", "g3", "g4", "g6", "g7"):
            assert class_g_estimate(v, GForm(form=form, alpha=0.8, beta=-0.4)) == my
        assert class_g_estimate(v, GForm(form="g5", alpha=0.8, beta=-0.4, w1=0.3, w2=0.7)) == my

    def test_g1_with_inverse_power_is_double_ratio(self, rng):
        # u = mx/mx1, so the double-sampling ratio estimator is u**(-1)
        v = random_view(rng)
        est = class_g_estimate(v, GForm(form="g1", alpha=-1.0, beta=0.0))
        assert est == pytest.approx(ratio_double(v), rel=1e-14)

    def test_g3_linear_arithmetic(self):
        v = make_view(y_m=[10, 10], x_m=[1.1, 1.1], z_m=[1, 1], x_n=[1.0, 1.0, 1.0],
                      z_n=[0.9, 0.9, 0.9], known_mz=1.0)
        est = class_g_estimate(v, GForm(form="g3", alpha=0.5, beta=0.25))
        assert est == pytest.approx(10 * (1 + 0.1 * 0.5 - 0.1 * 0.25), rel=1e-14)

    def test_g3_at_estimated_optimum_identity(self, rng):
        # g3 optimum equals my*(1 - alpha1*(u-1) - alpha2*(v-1)) exactly
        v = random_view(rng)
        c = plugin_coefficients(v)
        meds = v.medians
        u = meds.mx / meds.mx1
        w = meds.mz1 / v.known_mz
        expected = meds.my * (1 - c.alpha1_hat * (u - 1) - c.alpha2_hat * (w - 1))
        form = gform_estimated_optimum("g3", c.alpha1_hat, c.alpha2_hat)
        assert class_g_estimate(v, form) == pytest.approx(expected, rel=1e-12)

    def test_g3_matches_regression_to_first_order(self, rng):
        # shrink (u-1, v-1) by 10x: the g3-vs-regression gap shrinks ~100x.
        # Constant first-phase vectors pin the first-phase medians exactly.
        base = random_view(rng)
        c = plugin_coefficients(base)
        meds = base.medians
        n = base.x_n.size

        def gap(scale):
            mx1 = meds.mx + (meds.mx1 - meds.mx) * scale
            mz1 = base.known_mz + (meds.mz1 - base.known_mz) * scale
            v = make_view(base.y_m, base.x_m, base.z_m,
                          np.full(n, mx1), np.full(n, mz1), known_mz=base.known_mz)
            form = gform_estimated_optimum("g3", c.alpha1_hat, c.alpha2_hat)
            return abs(class_g_estimate(v, form) - regression_two_aux(v, c))

        g_coarse, g_fine = gap(1e-1), gap(1e-2)
        assert g_fine <= g_coarse * 3e-2 + 1e-12

    def test_power_form_rejects_nonpositive_ratio(self):
        v = make_view(y_m=[1, 2], x_m=[-1, -2], z_m=[1, 2], x_n=[1, 2, 3], z_n=[1, 2, 3],
                      known_mz=2.0)
        with pytest.raises(EstimatorError, match="power form"):
            class_g_estimate(v, GForm(form="g1", alpha=0.5, beta=0.5))

    def test_g4_denominator_guard(self):
        v = make_view(y_m=[1, 2], x_m=[4, 4], z_m=[1, 1], x_n=[1, 1, 1], z_n=[1, 1, 1],
                      known_mz=1.0)
        # u = 4: 1 - alpha*(u-1) <= 0 for alpha = 1
        with pytest.raises(EstimatorError, match="g4 denominator"):
            class_g_estimate(v, GForm(form="g4", alpha=1.0, beta=0.0))

    @pytest.mark.parametrize("form", ["g1", "g5", "g6", "g7"])
    def test_overflow_is_an_estimator_error(self, form):
        # beta >= 1000 at v = 10: every power and exponential form leaves the float range
        g = gform_estimated_optimum(form, 0.0, -1000.0)
        with pytest.raises(EstimatorError, match=f"{form} overflows"):
            g(1.0, 10.0)

    def test_g5_weights_must_sum_to_one(self):
        with pytest.raises(EstimatorError, match="sum to 1"):
            GForm(form="g5", alpha=1.0, beta=1.0, w1=0.6, w2=0.6)

    def test_g6_optimum_requires_denominator(self):
        with pytest.raises(EstimatorError, match="g6 optimum"):
            gform_estimated_optimum("g6", -1.0, 0.5)

    # (alpha1, alpha2, mx, mx1, mz1, known_mz) at each domain edge of the g-forms
    G_EDGES = {
        "g6 with 1 + alpha1 = 0": (-1.0, 0.5, 1.0, 1.0, 1.0, 1.0),
        "g5 parameters overflow": (1e308, 0.0, 1.0, 1.0, 1.0, 1.0),
        "g6 beta overflows": (-1.0 + 2.0**-52, 1e300, 1.0, 1.0, 1.0, 1.0),
        "g2 denominator zero": (0.3, -1.0, 1.0, 1.0, 2.0, 1.0),
        "g4 denominator negative": (-1.0, 0.0, 3.0, 1.0, 1.0, 1.0),
        "u negative": (0.3, 0.2, -1.0, 1.0, 1.0, 1.0),
        "v negative": (0.3, 0.2, 1.0, 1.0, -1.0, 1.0),
        "exp and powers overflow": (-1000.0, 0.0, 2.0, 1.0, 1.0, 1.0),
        "u undefined": (0.3, 0.2, 1.0, 0.0, 1.0, 1.0),
        "v undefined": (0.3, 0.2, 1.0, 1.0, 1.0, 0.0),
        "alphas undefined": (None, None, 1.0, 1.0, 1.0, 1.0),
    }

    def test_catalog_equals_gform_object_path(self, rng):
        # evaluate_estimator builds no GForm; it must give the bits, or the
        # EstimatorError message, of class_g_estimate at gform_estimated_optimum
        def outcome(f):
            try:
                return float(f()).hex()
            except EstimatorError as exc:
                return str(exc)

        cases = []
        for alpha1, alpha2, mx, mx1, mz1, known_mz in self.G_EDGES.values():
            view = make_view(y_m=[5.0, 5.0], x_m=[mx, mx], z_m=[1.0, 1.0], x_n=[mx1] * 3,
                             z_n=[mz1] * 3, known_mz=known_mz)
            cases.append((view, PluginCoefficients(0, 0, alpha1, alpha2, 0, 0, None, None, None)))
        for m in (5, 24, 150) * 10:
            view = random_view(rng, m=m, n=4 * m)
            coeffs = plugin_coefficients(view)
            scaled = dataclasses.replace(coeffs, alpha1_hat=coeffs.alpha1_hat * 40.0)
            cases += [(view, coeffs), (view, scaled)]
        messages = set()
        for form in G_FORM_IDS:
            for view, coeffs in cases:
                got = outcome(lambda: evaluate_estimator(form, view, coeffs))
                expected = outcome(lambda: class_g_estimate(
                    view, gform_estimated_optimum(form, *coeffs.alphas())))
                assert got == expected, (form, view.medians, coeffs)
                messages.add(got)
        for message in ("g6 optimum undefined", "g-form parameters must be finite",
                        "g2 denominator vanished", "g4 denominator not positive",
                        "requires u > 0 and v > 0", "requires v > 0", "g7 overflows",
                        "g5 overflows", "u undefined", "v, w undefined", "median of y is zero"):
            assert any(message in m for m in messages), message


class TestClassF:
    def test_arithmetic(self):
        c = PluginCoefficients(0, 0, 0, 0, 0, 0, 2, 1, 4)
        v = make_view(y_m=[10, 10], x_m=[1.1, 1.1], z_m=[1.05, 1.05],
                      x_n=[1.0, 1.0, 1.0], z_n=[0.9, 0.9, 0.9], known_mz=1.0)
        assert class_F_estimate(v, c) == pytest.approx(9.7, abs=1e-14)

    def test_zero_coefficients(self, rng):
        v = random_view(rng)
        c = PluginCoefficients(0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert class_F_estimate(v, c) == v.medians.my

    def test_all_ratios_one(self, rng):
        vals = rng.normal(10, 2, size=8)
        z = rng.normal(5, 1, size=8)
        y = rng.normal(8, 1, size=8)
        v = make_view(y_m=y, x_m=vals, z_m=z, x_n=vals, z_n=z,
                      known_mz=oracle_quantile(list(z), 0.5))
        c = plugin_coefficients(v)
        assert class_F_estimate(v, c) == v.medians.my

    def test_zero_known_mz_rejected(self, rng):
        v = random_view(rng)
        v0 = make_view(v.y_m, v.x_m, v.z_m, v.x_n, v.z_n, known_mz=0.0)
        c = PluginCoefficients(0, 0, 0, 0, 0, 0, 1, 1, 1)
        with pytest.raises(EstimatorError, match="known median of z"):
            class_F_estimate(v0, c)


class TestEquivariance:
    def test_x_scale_invariance(self, rng):
        v = random_view(rng)
        c = plugin_coefficients(v)
        scaled = make_view(v.y_m, 3.0 * v.x_m, v.z_m, 3.0 * v.x_n, v.z_n, v.known_mz,
                           known_mx=None)
        cs = plugin_coefficients(scaled)
        assert ratio_double(scaled) == pytest.approx(ratio_double(v), rel=1e-12)
        assert regression_two_aux(scaled, cs) == pytest.approx(
            regression_two_aux(v, c), rel=1e-12)
        assert class_F_estimate(scaled, cs) == pytest.approx(class_F_estimate(v, c), rel=1e-12)
        form = gform_estimated_optimum("g1", c.alpha1_hat, c.alpha2_hat)
        form_s = gform_estimated_optimum("g1", cs.alpha1_hat, cs.alpha2_hat)
        assert class_g_estimate(scaled, form_s) == pytest.approx(
            class_g_estimate(v, form), rel=1e-12)

    def test_y_scale_equivariance(self, rng):
        v = random_view(rng)
        c = plugin_coefficients(v)
        scaled = make_view(2.0 * v.y_m, v.x_m, v.z_m, v.x_n, v.z_n, v.known_mz, known_mx=None)
        cs = plugin_coefficients(scaled)
        assert ratio_double(scaled) == pytest.approx(2 * ratio_double(v), rel=1e-12)
        assert regression_two_aux(scaled, cs) == pytest.approx(
            2 * regression_two_aux(v, c), rel=1e-12)
        assert class_F_estimate(scaled, cs) == pytest.approx(
            2 * class_F_estimate(v, c), rel=1e-12)


class TestRegistry:
    def test_all_ids_evaluate(self, rng):
        v = random_view(rng, m=30, n=90)
        c = plugin_coefficients(v)
        for est in ESTIMATOR_IDS:
            val = evaluate_estimator(est, v, c)
            assert math.isfinite(val)

    def test_unknown_id(self, rng):
        with pytest.raises(EstimatorError, match="unknown estimator"):
            evaluate_estimator("bogus", random_view(rng))

    def test_determinism(self, rng):
        v = random_view(rng)
        c = plugin_coefficients(v)
        for est in ("median", "reg-xz", "g4", "f-linear"):
            assert evaluate_estimator(est, v, c) == evaluate_estimator(est, v, c)
