"""Monte Carlo harness: generator analytics, determinism, aggregation."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_population_csv
from dsmedian import estimators, montecarlo, population
from dsmedian.core_stats import median
from dsmedian.estimators import (
    COEFFICIENT_IDS,
    ESTIMATOR_IDS,
    G_FORM_IDS,
    EstimatorError,
    PluginCoefficients,
    SampleView,
    evaluate_estimator,
    evaluate_with_diagnostics,
    optimum_coefficients,
    plugin_coefficients,
    true_coefficients,
)
from dsmedian.montecarlo import (
    POPULATION_STREAM,
    TRUE_VARIANT_IDS,
    GeneratorSpec,
    MarginalSpec,
    PopulationInputError,
    SimConfig,
    generate_population,
    load_sim_config,
    map_replicates,
    run_simulation,
)
from dsmedian.population import Population, load_population_csv, population_summary
from dsmedian.sampling import SeedSpec, draw_two_phase

NORMAL = MarginalSpec("normal", 10.0, 2.0)
GEN = GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7,
                    marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)


def quick_config(**kw):
    base = dict(m=40, n=160, N=1000, replicates=30, master_seed=11,
                estimators=("median", "reg-xz"), generator=GEN)
    base.update(kw)
    return SimConfig(**base)


class TestMarginalSpec:
    def test_normal_analytics(self):
        assert NORMAL.true_median == 10.0
        assert NORMAL.density_at_median == pytest.approx(1 / (2 * math.sqrt(2 * math.pi)),
                                                         rel=1e-15)

    def test_lognormal_analytics(self):
        ln = MarginalSpec("lognormal", 1.0, 0.5)
        assert ln.true_median == pytest.approx(math.e, rel=1e-15)
        assert ln.density_at_median == pytest.approx(
            1 / (math.e * 0.5 * math.sqrt(2 * math.pi)), rel=1e-15
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="marginal kind"):
            MarginalSpec("cauchy", 0.0, 1.0)

    def test_lognormal_median_float_range(self):
        # exp(mu) underflows to 0 or overflows: no median, no density at it
        for mu in (-800.0, -746.0, 710.0, 800.0):
            with pytest.raises(ValueError, match=r"^lognormal median exp\(mu\) is out of float"):
                MarginalSpec("lognormal", mu, 1.0)
            assert MarginalSpec("normal", mu, 1.0).true_median == mu
        assert 0.0 < MarginalSpec("lognormal", 709.0, 1.0).true_median < math.inf

    @pytest.mark.parametrize("kind, mu, sigma", [
        ("lognormal", -745.0, 1.0),  # exp(mu) is subnormal: the density overflows
        ("normal", 0.0, 1e-310),  # a subnormal sigma
        ("lognormal", 0.0, 5e-324),
    ])
    def test_density_at_median_float_range(self, kind, mu, sigma):
        with pytest.raises(ValueError, match=f"^{kind} density at the median is out of float range"):
            MarginalSpec(kind, mu, sigma)

    @pytest.mark.parametrize("mu, sigma", [(10**400, 1.0), (0.0, 10**400), (-10**400, 1.0)])
    def test_int_past_float_range_rejected(self, mu, sigma):
        # math.isfinite raises OverflowError on such an int; the check names it
        with pytest.raises(ValueError, match=r"^marginal needs finite mu and sigma > 0$"):
            MarginalSpec("normal", mu, sigma)


class TestGeneratorSpec:
    def test_concordances_are_arcsin(self):
        rho = GEN.concordances()
        assert rho[0] == pytest.approx(2 * math.asin(0.8) / math.pi, rel=1e-15)

    def test_invalid_correlation_matrix(self):
        with pytest.raises(ValueError, match="positive definite"):
            GeneratorSpec(r_xy=0.9, r_yz=0.9, r_xz=-0.9,
                          marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)

    @pytest.mark.parametrize("name", ["r_xy", "r_yz", "r_xz"])
    def test_int_past_float_range_rejected(self, name):
        rs = {"r_xy": 0.5, "r_yz": 0.3, "r_xz": 0.4, name: 10**400}
        with pytest.raises(ValueError, match=rf"^correlation {name}=10{{400}} must satisfy"):
            GeneratorSpec(**rs, marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)

    def test_cholesky_factored_once(self, monkeypatch):
        spec, twin = (GeneratorSpec(r_xy=0.5, r_yz=0.3, r_xz=0.4, marginal_x=NORMAL,
                                    marginal_y=NORMAL, marginal_z=NORMAL) for _ in range(2))
        factor = spec.cholesky()
        assert factor is spec.cholesky() and not factor.flags.writeable
        assert np.array_equal(factor, np.linalg.cholesky(spec.correlation_matrix()))
        assert spec == twin and hash(spec) == hash(twin)  # the factor is not compared
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: pytest.fail("factored again"))
        generate_population(spec, 100, SeedSpec(1, 2))

    def test_true_summary_matches_marginals(self):
        s = GEN.true_summary(5000)
        assert s.median_y == 10.0
        assert s.density_y == NORMAL.density_at_median
        assert s.pm_xy.concordance == pytest.approx(2 * math.asin(0.8) / math.pi, rel=1e-12)


class TestGeneratePopulation:
    def test_determinism(self):
        p1 = generate_population(GEN, 500, SeedSpec(3, POPULATION_STREAM))
        p2 = generate_population(GEN, 500, SeedSpec(3, POPULATION_STREAM))
        assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.z, p2.z)

    def test_independent_copula_quadrants(self):
        gen0 = GeneratorSpec(r_xy=0.0, r_yz=0.0, r_xz=0.0,
                             marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)
        pop = generate_population(gen0, 20_000, SeedSpec(5, POPULATION_STREAM))
        s = population_summary(pop)
        band = 3 * math.sqrt(0.25 * 0.75 / 20_000)
        for pm in (s.pm_xy, s.pm_xz, s.pm_yz):
            assert abs(pm.p11 - 0.25) <= band

    def test_near_perfect_dependence(self):
        gen1 = GeneratorSpec(r_xy=0.999, r_yz=0.0, r_xz=0.0,
                             marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)
        pop = generate_population(gen1, 20_000, SeedSpec(6, POPULATION_STREAM))
        s = population_summary(pop)
        p_true = 0.25 + math.asin(0.999) / (2 * math.pi)
        band = 3 * math.sqrt(p_true * (1 - p_true) / 20_000)
        assert abs(s.pm_xy.p11 - p_true) <= band
        assert s.pm_xy.p11 > 0.47

    @pytest.mark.parametrize("N", [-1, 0, 3])
    def test_too_few_units_is_input_error(self, N):
        # Population's minimum and message, checked before the (3, N) draw
        with pytest.raises(ValueError) as owner:
            Population(x=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0], z=[1.0, 2.0, 3.0])
        with pytest.raises(PopulationInputError) as exc:
            generate_population(GEN, N, SeedSpec(3, POPULATION_STREAM))
        assert str(exc.value) == str(owner.value)

    @pytest.mark.parametrize("marginal", [MarginalSpec("normal", 0.0, 1e308),
                                          MarginalSpec("lognormal", 709.0, 3.0)])
    def test_overflow_reaches_finite_check_silently(self, marginal):
        gen = GeneratorSpec(r_xy=0.5, r_yz=0.3, r_xz=0.4,
                            marginal_x=NORMAL, marginal_y=marginal, marginal_z=NORMAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^population variable y contains non-finite"):
                generate_population(gen, 200, SeedSpec(7, POPULATION_STREAM))

    def test_lognormal_stays_positive(self):
        ln = MarginalSpec("lognormal", 0.0, 0.8)
        gen = GeneratorSpec(r_xy=0.5, r_yz=0.3, r_xz=0.4,
                            marginal_x=ln, marginal_y=ln, marginal_z=ln)
        pop = generate_population(gen, 500, SeedSpec(7, POPULATION_STREAM))
        assert np.all(pop.x > 0) and np.all(pop.y > 0)

    # sha256 of the x, y, z bytes, pinned so that no rewrite of the generator
    # moves a bit; normal and lognormal marginals, N in {4, 20000}
    MIXED = GeneratorSpec(r_xy=0.5, r_yz=0.3, r_xz=0.4,
                          marginal_x=MarginalSpec("lognormal", 1.0, 0.5),
                          marginal_y=MarginalSpec("normal", -3.0, 0.7),
                          marginal_z=MarginalSpec("lognormal", 0.2, 1.5))

    @pytest.mark.parametrize("gen, N, digest", [
        (GEN, 4, "b80a3e3e40521bde2246e8bae4f05c7dd37a5de41831bbedfe9961cbf6ac4736"),
        (GEN, 20_000, "2815b86673c3334704c66f3ffc6e03ca6581d090b61e9ebeef3a67187211d894"),
        (MIXED, 4, "67c57e786e54248383bc294c20b816a24993f34ffac436ad83c7625841ab1cdf"),
        (MIXED, 20_000, "25d7f2f68eacee3248394a7ba9f9e13c4efc5b1fc3a788ed756c5f391f48dbc1"),
    ])
    def test_bits_pinned(self, gen, N, digest):
        pop = generate_population(gen, N, SeedSpec(3, 7))
        assert not (pop.x.flags.writeable or pop.y.flags.writeable or pop.z.flags.writeable)
        blob = b"".join(v.tobytes() for v in (pop.x, pop.y, pop.z))
        assert hashlib.sha256(blob).hexdigest() == digest

    # the factor is applied in column blocks of at most B; around the block
    # edges, and in one block 2047 to 4097 columns wide, the bits must be
    # those of one full product.  Unit-scale marginals keep a last-bit
    # difference of the product visible.
    B = montecarlo._CHOLESKY_BLOCK
    UNIT = {kind: GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7,
                                **{f"marginal_{v}": MarginalSpec(kind, 0.0, 1.0) for v in "xyz"})
            for kind in ("normal", "lognormal")}

    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    @pytest.mark.parametrize("N", [4, 2047, 2048, 2049, 4097, B - 1, B, B + 1, 2 * B + 1])
    def test_blocks_equal_full_product(self, kind, N):
        gen = self.UNIT[kind]
        for seed in range(10):
            pop = generate_population(gen, N, SeedSpec(seed, 5))
            draws = SeedSpec(seed, 5).generator().standard_normal((3, N))
            values = np.matmul(np.linalg.cholesky(gen.correlation_matrix()), draws)
            for row, marginal, got in zip(values, (gen.marginal_x, gen.marginal_y, gen.marginal_z),
                                          (pop.x, pop.y, pop.z)):
                expected = row * marginal.sigma + marginal.mu
                if marginal.kind == "lognormal":
                    expected = np.exp(expected)
                assert expected.tobytes() == got.tobytes()


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="m < n"):
            quick_config(m=160, n=40)
        with pytest.raises(ValueError, match="unknown estimator"):
            quick_config(estimators=("median", "bogus"))
        with pytest.raises(ValueError, match="population source"):
            SimConfig(m=4, n=8, N=100, replicates=1, master_seed=0,
                      estimators=("median",), generator=None, csv_path=None)

    def test_non_integer_sizes_rejected(self):
        # m = 150.9 drew the m = 150 samples and reported theory at 150.9
        for sizes in (dict(m=40.5), dict(n=160.0), dict(N=1000.0), dict(m="40")):
            with pytest.raises(ValueError, match="require integer sizes"):
                quick_config(**sizes)
        cfg = quick_config(m=np.int64(40), n=np.int32(160), N=np.int64(1000))
        assert (cfg.m, cfg.n, cfg.N) == (40, 160, 1000)

    def test_numpy_integer_fields_digest_and_run_as_ints(self):
        # numpy integers passed validation, then failed to serialise in digest()
        cfg = quick_config(m=np.int64(40), n=np.int32(160), N=np.int64(1000),
                           replicates=np.int64(3), master_seed=np.uint64(11))
        for name in ("m", "n", "N", "replicates", "master_seed"):
            assert type(getattr(cfg, name)) is int, name
        assert cfg.digest() == quick_config(replicates=3).digest()
        assert run_simulation(cfg).to_json_dict() == run_simulation(
            quick_config(replicates=3)).to_json_dict()

    def test_non_integer_replicates_rejected(self):
        # 5.5 failed deep in the run, "3" on a comparison with 1
        for replicates in (5.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="replicates must be an integer"):
                quick_config(replicates=replicates)
        for replicates in (0, np.int64(-2)):
            with pytest.raises(ValueError, match="need at least one replicate"):
                quick_config(replicates=replicates)

    def test_path_and_float_fields_digest_and_run_as_the_cli_types(self, tmp_path):
        # a Path csv_path and numpy float parameters passed validation, ran
        # every replicate, then failed to serialise in digest(); int
        # parameters digested apart from the CLI's floats
        pop = generate_population(GEN, 200, SeedSpec(1, POPULATION_STREAM))
        csv_path = write_population_csv(tmp_path / "pop.csv", pop)
        as_path = quick_config(N=200, n=80, m=20, replicates=3, generator=None,
                               csv_path=Path(csv_path))
        assert type(as_path.csv_path) is str
        assert run_simulation(as_path).to_json_dict() == run_simulation(
            dataclasses.replace(as_path, csv_path=csv_path)).to_json_dict()
        ints = MarginalSpec("normal", 10, 2)
        assert (type(ints.mu), type(ints.sigma)) == (float, float) and ints == NORMAL
        numpy_floats = GeneratorSpec(r_xy=np.float32(0.8), r_yz=np.float64(0.6),
                                     r_xz=np.float32(0.75), marginal_x=ints,
                                     marginal_y=MarginalSpec("normal", np.float32(10.0), 2),
                                     marginal_z=NORMAL)
        floats = GeneratorSpec(r_xy=float(np.float32(0.8)), r_yz=0.6, r_xz=0.75,
                               marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)
        assert type(numpy_floats.r_xy) is float
        assert (quick_config(generator=numpy_floats).digest()
                == quick_config(generator=floats).digest())

    def test_malformed_estimators_and_csv_path_rejected(self):
        # a bare str was read as its characters: "unknown estimator id 'm'"
        with pytest.raises(ValueError, match="^estimators must be a sequence of ids, got 'median'$"):
            quick_config(estimators="median")
        with pytest.raises(ValueError, match="^csv_path must be a str or path-like"):
            quick_config(generator=None, csv_path=b"pop.csv")

    def test_digest_changes_with_config(self):
        a = quick_config().digest()
        b = quick_config(master_seed=12).digest()
        assert a != b and len(a) == 64

    def test_digests_pinned(self):
        assert quick_config().digest() == (
            "742a9202eb377014157950fa53f59d1979eb9d8e13d40e1af0b155fe9495dc23")
        assert quick_config(generator=None, csv_path="pop.csv").digest() == (
            "5b6ba8408e0709158264ebae9d8fba28560caff588ec22f5d0dc0d8d0a130cf7")

    def test_master_seed_range_is_seedspecs(self):
        assert quick_config(master_seed=2**64 - 1).master_seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="unsigned 64-bit integer"):
                quick_config(master_seed=seed)


class TestRunSimulation:
    def test_bit_identical_reruns(self):
        cfg = quick_config()
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        assert r1.to_json_dict() == r2.to_json_dict()

    # sha256 of the report JSON and of the estimates' bytes for the
    # acceptance config (N=5000, m=150, n=600, the 14 ids of the benchmark)
    # at R=50, pinned so that no rewrite of the replicate path moves a bit
    ACCEPTANCE_IDS = ("median", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "reg-x", "reg-xz",
                      "f-linear", "reg-x-true", "reg-xz-true", "f-linear-true")

    @pytest.mark.parametrize("marginal, report_digest, estimates_digest", [
        (NORMAL, "a375c35a2142702d387c379e82253c196f0656f21d9f39b9aeafa4e6a4b6b1ab",
         "fe0f7f9891e01c41f7c174e47551c557d93d9b3dc7be37a7d851df5afc3154ed"),
        (MarginalSpec("lognormal", 0.0, 0.5),
         "45fa4b58aeb85022b96866b8a15271fd99f0d48313b9fd2bbcdef9a397f78d9f",
         "c588591f954cba71d3ea4bb8d3595a84a96db3b724506708403b52dca15b6076"),
    ])
    def test_acceptance_bits_pinned(self, marginal, report_digest, estimates_digest):
        gen = GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7, marginal_x=marginal,
                            marginal_y=marginal, marginal_z=marginal)
        cfg = SimConfig(m=150, n=600, N=5000, replicates=50, master_seed=20250801,
                        estimators=self.ACCEPTANCE_IDS, generator=gen)
        rep = run_simulation(cfg, keep_estimates=True)
        blob = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == report_digest
        assert hashlib.sha256(rep.estimates.tobytes()).hexdigest() == estimates_digest

    def test_threads_do_not_change_results(self):
        cfg = quick_config(replicates=40)
        serial = run_simulation(cfg)
        threaded = run_simulation(cfg, threads=4)
        assert serial.to_json_dict() == threaded.to_json_dict()

    def test_mse_mc_se_finite_when_squared_deviations_overflow(self, tmp_path):
        # y has median 0, so g5's relative errors reach about 1e92 in one
        # replicate: its mse (2.5e183) is finite, its squared deviations are not
        rng = np.random.default_rng(0)
        corr = np.array([[1.0, 0.8, 0.7], [0.8, 1.0, 0.6], [0.7, 0.6, 1.0]])
        c = np.linalg.cholesky(corr) @ rng.standard_normal((3, 1001))
        y = c[1] - np.sort(c[1])[500]
        y[np.argmin(np.abs(y))] = 0.0
        path = write_population_csv(tmp_path / "zero_median.csv",
                                    Population(x=10 + 2 * c[0], y=y, z=10 + 2 * c[2]))
        cfg = SimConfig(m=31, n=120, N=1001, replicates=150, master_seed=4,
                        estimators=tuple(ESTIMATOR_IDS), csv_path=path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_simulation(cfg, keep_estimates=True)
        g5 = rep.stats("g5")
        assert g5.mse == 2.467050410400265e183
        assert math.isfinite(g5.mse_mc_se) and g5.mse_mc_se > 0.0
        # a finite direct sum keeps its bits
        sq_err = (rep.estimates[:, 0] - rep.estimand) ** 2
        k = sq_err.size
        direct = math.sqrt(math.fsum((sq_err - rep.stats("median").mse) ** 2) / (k - 1) / k)
        assert rep.stats("median").mse_mc_se == direct

    def test_census_like_config(self):
        # m = n - 1 = N - 1: every double-sampling estimate hugs the sample median
        cfg = quick_config(N=12, n=12, m=11, replicates=1,
                           estimators=("median", "ratio-double", "reg-xz", "f-linear", "g1"))
        rep = run_simulation(cfg, keep_estimates=True)
        med = rep.estimates[0, 0]
        for j in range(1, 5):
            assert abs(rep.estimates[0, j] - med) <= 1.0

    def test_stats_of_an_id_not_run(self):
        rep = run_simulation(quick_config(replicates=2))
        assert rep.stats("reg-xz").est_id == "reg-xz"
        with pytest.raises(KeyError, match="'g1'"):
            rep.stats("g1")

    def test_failures_counted_not_imputed(self, tmp_path):
        # z identical to x makes the generalized plug-in coefficients
        # collinear in every replicate; reg-xz does not use rho_xz
        rng = np.random.default_rng(0)
        x = rng.normal(10, 2, size=60)
        from dsmedian.population import Population

        pop = Population(x=x, y=rng.normal(10, 2, size=60), z=x)
        path = write_population_csv(tmp_path / "collinear.csv", pop)
        cfg = SimConfig(m=10, n=30, N=60, replicates=20, master_seed=3,
                        estimators=("median", "f-linear", "reg-xz"), csv_path=path)
        rep = run_simulation(cfg)
        med_row, f_row, reg_row = rep.rows
        assert med_row.failures == 0
        assert f_row.failures == 20
        assert reg_row.failures == 0
        assert not rep.valid

    def test_csv_population_round_trip(self, tmp_path, rng):
        pop = generate_population(GEN, 400, SeedSpec(9, POPULATION_STREAM))
        path = write_population_csv(tmp_path / "pop.csv", pop)
        cfg = SimConfig(m=30, n=120, N=400, replicates=25, master_seed=5,
                        estimators=("median", "reg-x"), csv_path=path)
        rep = run_simulation(cfg)
        assert rep.summary_source == "census"
        assert rep.estimand == median(pop.y)
        assert all(r.failures == 0 for r in rep.rows)

    def test_wrong_census_size_rejected(self, tmp_path):
        pop = generate_population(GEN, 100, SeedSpec(9, POPULATION_STREAM))
        path = write_population_csv(tmp_path / "pop.csv", pop)
        cfg = SimConfig(m=10, n=40, N=200, replicates=2, master_seed=5,
                        estimators=("median",), csv_path=path)
        with pytest.raises(ValueError, match="N=100"):
            run_simulation(cfg)

    def test_theory_attachment(self):
        cfg = quick_config(estimators=("median", "reg-x", "reg-xz", "f-linear",
                                       "ratio-double", "position", "g3"))
        rep = run_simulation(cfg)
        theory = {r.est_id: r.theory_variance for r in rep.rows}
        assert theory["position"] is None
        assert theory["median"] > theory["reg-x"] > theory["reg-xz"] > theory["f-linear"]
        assert theory["ratio-double"] is not None
        assert theory["g3"] == theory["reg-xz"]

    def test_mse_exceeds_squared_bias(self):
        rep = run_simulation(quick_config(replicates=50))
        for r in rep.rows:
            assert r.mse >= r.bias**2 - 1e-15

    def test_lognormal_marginals_track_theory(self):
        # exercises the analytic-density branch for skewed marginals
        ln = MarginalSpec("lognormal", 2.0, 0.4)
        gen = GeneratorSpec(r_xy=0.7, r_yz=0.5, r_xz=0.6,
                            marginal_x=ln, marginal_y=ln, marginal_z=ln)
        cfg = SimConfig(m=100, n=400, N=4000, replicates=400, master_seed=13,
                        estimators=("median", "reg-xz", "f-linear"), generator=gen)
        rep = run_simulation(cfg)
        for row in rep.rows:
            assert 0.6 <= row.mse_theory_ratio <= 1.6, (row.est_id, row.mse_theory_ratio)

    def test_median_mse_tracks_inverse_m(self):
        # log-log slope of the median MSE against m stays near -1
        mses = []
        ms = (150, 300, 600)
        for m in ms:
            cfg = SimConfig(m=m, n=4 * m, N=20_000, replicates=1200, master_seed=99,
                            estimators=("median",), generator=GEN)
            mses.append(run_simulation(cfg).rows[0].mse)
        slope = np.polyfit(np.log(ms), np.log(mses), 1)[0]
        assert -1.15 <= slope <= -0.85, (slope, mses)


ALL_IDS = (*ESTIMATOR_IDS, *TRUE_VARIANT_IDS)


def _position_clamped(view) -> bool:
    """Whether the position estimator's proportion leaves [1/m, 1], from
    the quadrant counts about the second-phase medians."""
    x, y = np.asarray(view.x_m), np.asarray(view.y_m)
    mx, my = sorted(x)[(x.size - 1) // 2], sorted(y)[(y.size - 1) // 2]
    m = x.size
    p11 = np.count_nonzero((x <= mx) & (y <= my)) / m
    p12 = np.count_nonzero((x > mx) & (y <= my)) / m
    m_x = int(np.count_nonzero(x <= view.known_mx))
    raw = 2.0 * (m_x * p11 + (m - m_x) * p12) / m
    return not 1.0 / m <= raw <= 1.0


def _csv_sources(tmp_path, N: int = 200) -> dict[str, str]:
    """Population CSVs of N units whose samples meet the kernels' edges: a
    tie-heavy one whose x has zeros of both signs at its median, one whose y
    median is 0, and one whose z is mostly one value, so that many
    second-phase z samples have a zero bandwidth."""
    rng = np.random.default_rng(17)
    c = np.linalg.cholesky(GEN.correlation_matrix()) @ rng.standard_normal((3, N))
    y = c[1] - np.sort(c[1])[N // 2 - 1]
    y[np.argsort(np.abs(y))[: N // 5]] = 0.0
    z = np.where(rng.random(N) < 0.8, 3.0, 10 + c[2])
    pops = {"tie-heavy": Population(np.round(2 * c[0]), *np.round(2 * c[1:] + 5)),
            "zero-y-median": Population(10 + 2 * c[0], y, 10 + 2 * c[2]),
            "zero-bandwidth": Population(10 + 2 * c[0], 10 + 2 * c[1], z)}
    return {name: write_population_csv(tmp_path / f"{name}-{N}.csv", pop)
            for name, pop in pops.items()}


def _scalar_replay(cfg: SimConfig):
    """run_simulation's estimates through the public scalar API, with the
    clamp and fallback counts recomputed from the data."""
    if cfg.generator is not None:
        pop = generate_population(cfg.generator, cfg.N, SeedSpec(cfg.master_seed, POPULATION_STREAM))
        summary = cfg.generator.true_summary(cfg.N)
    else:
        pop = load_population_csv(cfg.csv_path)
        summary = population_summary(pop)
    try:
        true_coeffs = true_coefficients(summary)
    except EstimatorError:
        true_coeffs = None
    expected = np.full((cfg.replicates, len(cfg.estimators)), np.nan)
    clamps = fallbacks = 0
    for r in range(cfg.replicates):
        sample = draw_two_phase(cfg.N, cfg.n, cfg.m, SeedSpec(cfg.master_seed, r))
        view = SampleView.from_population(pop, sample)
        try:
            coeffs = plugin_coefficients(view)
        except EstimatorError:
            coeffs = None
        low = np.asarray(view.x_m) <= view.known_mx
        empty_stratum = low.all() or not low.any()
        clamps += _position_clamped(view)
        fallbacks += empty_stratum
        for j, est in enumerate(cfg.estimators):
            base = TRUE_VARIANT_IDS.get(est, est)
            c = true_coeffs if base != est else coeffs
            if base in COEFFICIENT_IDS and c is None:
                continue
            if base == "stratified" and empty_stratum:
                expected[r, j] = median(view.y_m)
                continue
            try:
                expected[r, j] = evaluate_estimator(base, view, c)
            except EstimatorError:
                pass
    return expected, clamps, fallbacks


class TestReplicateDiagnostics:
    """run_simulation against a replay through the public scalar API, with
    the clamp and fallback counts recomputed from the data."""

    CONFIG = dict(m=4, n=20, N=200, replicates=300, master_seed=5, estimators=ALL_IDS)

    def test_equals_scalar_replay(self, tmp_path, monkeypatch):
        # every id on normal, lognormal and edge CSV sources, m below the
        # plug-ins' minimum of 4, R = 300 (not a whole number of chunks), and
        # one or two worker processes; every id reads a view built from the
        # chunk's arrays (test_engine_views_equal_public_views)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        lognormal = MarginalSpec("lognormal", 0.0, 0.5)
        configs = {
            "normal": quick_config(**self.CONFIG),
            "lognormal": quick_config(**self.CONFIG, generator=GeneratorSpec(
                r_xy=0.8, r_yz=0.6, r_xz=0.7, marginal_x=lognormal, marginal_y=lognormal,
                marginal_z=lognormal)),
            "m = 3": quick_config(**{**self.CONFIG, "m": 3}),
            **{name: quick_config(**self.CONFIG, generator=None, csv_path=path)
               for name, path in _csv_sources(tmp_path).items()},
            # first phases large enough that selection and sorting pick
            # different signs among the tied zeros at the median of x
            "tie-heavy, n = 500": quick_config(
                **{**self.CONFIG, "N": 1000, "n": 500}, generator=None,
                csv_path=_csv_sources(tmp_path, 1000)["tie-heavy"]),
        }
        for name, cfg in configs.items():
            expected, clamps, fallbacks = _scalar_replay(cfg)
            reports = [run_simulation(cfg, threads=t, keep_estimates=True) for t in (1, 2)]
            for rep in reports:
                assert rep.estimates.tobytes() == expected.tobytes(), name  # bits: -0.0 != 0.0
                assert rep.stats("position").clamps == clamps, name
                assert rep.stats("stratified").fallbacks == fallbacks, name
                assert sum(r.clamps + r.fallbacks for r in rep.rows) == clamps + fallbacks, name
            assert json.dumps(reports[0].to_json_dict()) == json.dumps(reports[1].to_json_dict())
            if name == "normal":
                assert (clamps, fallbacks) == (8, 47)
            elif name == "m = 3":
                assert np.isnan(expected[:, [ALL_IDS.index(e) for e in COEFFICIENT_IDS]]).all()

    @pytest.mark.parametrize("threads", [2, 3])
    def test_worker_processes_do_not_change_results(self, threads, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = quick_config(**{**self.CONFIG, "replicates": 7})
        serial = run_simulation(cfg, keep_estimates=True)
        forked = run_simulation(cfg, threads=threads, keep_estimates=True)
        assert (serial.stats("position").clamps, serial.stats("stratified").fallbacks) == (1, 2)
        assert json.dumps(forked.to_json_dict()) == json.dumps(serial.to_json_dict())
        assert np.array_equal(forked.estimates, serial.estimates, equal_nan=True)

    def test_views_built_once_per_chunk(self, monkeypatch):
        # one view build per chunk of 16 replicates, whatever the ids; the
        # ids that read a view's arrays gather nothing more
        calls = []
        real = montecarlo._views

        def counting(second, first, known_mz, known_mx):
            calls.append(second.shape[1])
            return real(second, first, known_mz, known_mx)

        def refused(pop, sample):
            raise AssertionError("the engine built a view of its own")

        monkeypatch.setattr(montecarlo, "_views", counting)
        monkeypatch.setattr(SampleView, "from_population", staticmethod(refused))
        for ids in (("median", "reg-xz"), ("g1", "position", "stratified"), ALL_IDS):
            calls.clear()
            run_simulation(quick_config(replicates=25, estimators=ids))
            assert calls == [16, 9], ids

    def test_engine_views_equal_public_views(self, tmp_path, monkeypatch):
        # every replicate's view equals from_population and the public
        # constructor on the same draw: arrays, sorted copies and medians,
        # bit for bit (-0.0 != 0.0)
        built = []
        real = montecarlo._views

        def recording(*args):
            out = real(*args)
            built.extend(out[0])
            return out

        monkeypatch.setattr(montecarlo, "_views", recording)
        configs = {
            "normal": quick_config(**self.CONFIG),
            "m = 3": quick_config(**{**self.CONFIG, "m": 3}),
            # tied zeros of both signs at the median of x
            "tie-heavy, n = 500": quick_config(
                **{**self.CONFIG, "N": 1000, "n": 500}, generator=None,
                csv_path=_csv_sources(tmp_path, 1000)["tie-heavy"]),
        }
        names = ("y_m", "x_m", "z_m", "x_n", "z_n", "sorted_y_m", "sorted_x_m", "sorted_z_m")
        for name, cfg in configs.items():
            built.clear()
            run_simulation(cfg)
            if cfg.generator is not None:
                pop = generate_population(cfg.generator, cfg.N,
                                          SeedSpec(cfg.master_seed, POPULATION_STREAM))
            else:
                pop = load_population_csv(cfg.csv_path)
            assert len(built) == cfg.replicates, name
            for r, view in enumerate(built):
                sample = draw_two_phase(cfg.N, cfg.n, cfg.m, SeedSpec(cfg.master_seed, r))
                sm, sn = sample.second_phase, sample.first_phase
                public = SampleView(y_m=pop.y[sm], x_m=pop.x[sm], z_m=pop.z[sm], x_n=pop.x[sn],
                                    z_n=pop.z[sn], known_mz=pop.median_z, known_mx=pop)
                for other in (SampleView.from_population(pop, sample), public):
                    for field in names:
                        assert getattr(view, field).tobytes() == getattr(other, field).tobytes()
                    assert [v.hex() for v in dataclasses.astuple(view.medians)] == [
                        v.hex() for v in dataclasses.astuple(other.medians)], (name, r)
                    assert (view.known_mz, view.known_mx) == (other.known_mz, other.known_mx)
                assert not any(getattr(view, field).flags.writeable for field in names)

    def test_position_probability_once_per_replicate(self, monkeypatch):
        # each position_probability call, whoever makes it, tabulates the
        # (x, y) quadrants once; no other id here tabulates any
        calls = []
        real = estimators._quadrant_counts

        def counting(a_low, b_low):
            calls.append((a_low, b_low))
            return real(a_low, b_low)

        monkeypatch.setattr(estimators, "_quadrant_counts", counting)
        run_simulation(quick_config(replicates=25, estimators=("median", "position")))
        assert len(calls) == 25

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_census_medians_once_per_variable(self, source, tmp_path, monkeypatch):
        N = 300
        cfg = quick_config(N=N, n=120, replicates=20, estimators=ALL_IDS)
        if source == "csv":
            pop = generate_population(GEN, N, SeedSpec(8, POPULATION_STREAM))
            path = write_population_csv(tmp_path / "pop.csv", pop)
            cfg = quick_config(N=N, n=120, replicates=20, estimators=ALL_IDS,
                               generator=None, csv_path=path)
        census = []
        real = population._quantile_selected  # the census medians' selection

        def counting(values, p):
            if p == 0.5 and np.shape(values) == (N,):
                census.append(np.asarray(values).copy())
            return real(values, p)

        monkeypatch.setattr(population, "_quantile_selected", counting)
        run_simulation(cfg)
        assert len(census) == 3
        assert not any(np.array_equal(a, b) for i, a in enumerate(census) for b in census[:i])


class TestSharedReplicateWork:
    """What the ids of one replicate share is computed once for all of them."""

    def test_ratios_once_per_replicate(self, tmp_path, monkeypatch):
        # on a tie-heavy population whose first-phase median of x is zero in
        # every replicate, every id that reads (u, v, w) reads its view's one
        # computation, which says u is undefined
        computed = []
        real = estimators._uvw

        def counting(view):
            computed.append(view)
            return real(view)

        monkeypatch.setattr(estimators, "_uvw", counting)
        cfg = quick_config(**{**TestReplicateDiagnostics.CONFIG, "N": 1000, "n": 500},
                           generator=None, csv_path=_csv_sources(tmp_path, 1000)["tie-heavy"])
        report = run_simulation(cfg)
        assert len({id(view) for view in computed}) == len(computed) == cfg.replicates
        for est in (*G_FORM_IDS, "f-linear", "f-linear-true"):
            assert report.stats(est).failures == cfg.replicates, est

    def test_undefined_ratio_fails_every_id(self, tmp_path):
        # the view keeps the message, and each id raises an error of its own with it
        pop = load_population_csv(_csv_sources(tmp_path, 1000)["tie-heavy"])
        view = SampleView.from_population(pop, draw_two_phase(1000, 500, 4, SeedSpec(5, 0)))
        assert view.medians.mx1 == 0.0
        coeffs = PluginCoefficients(0.5, 0.5, 0.2, 0.1, 0.2, 0.1, 0.3, 0.2, 0.1)
        errors = []
        for est in (*G_FORM_IDS, "f-linear"):
            with pytest.raises(EstimatorError,
                               match="^first-phase median of x is zero: u undefined$") as info:
                evaluate_with_diagnostics(est, view, coeffs)
            errors.append(info.value)
        assert len({id(error) for error in errors}) == len(errors)

    @pytest.mark.parametrize("medians, densities, rhos, name", [
        ((1.0, 1.0, 1.0), (1e10, 1e-300, 1.0), (0.5, 0.5, 0.5), "d1_hat"),
        ((1.0, 1.0, 1.0), (1.0, 1e-300, 1e10), (0.5, 0.5, 0.5), "d2_hat"),
        ((1.0, 1e-310, 1.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), "alpha1_hat"),
        ((1e300, 0.0, 1.0), (1.0, 1e-10, 1.0), (0.5, 0.5, 0.5), "alpha1_star_hat"),
        # 1 - rho_xz**2 = 2**-52 times f_y = 1e-300 is subnormal: a1 overflows, d1 does not
        ((1.0, 1.0, 1.0), (1.0, 1e-300, 1.0), (0.9, 0.0, 1.0 - 2.0**-53), "a1_hat"),
    ])
    def test_optimum_names_the_first_non_finite_coefficient(self, medians, densities, rhos,
                                                            name):
        # the coefficients are checked once, in field order, as the public constructor does
        with pytest.raises(EstimatorError, match=f"^non-finite coefficient {name}$"):
            optimum_coefficients(medians, densities, rhos)


def _squares(start: int, stop: int) -> np.ndarray:
    r = np.arange(start, stop, dtype=float)
    return np.column_stack((r, r**2))


class TestMapReplicates:
    @pytest.fixture(autouse=True)
    def eight_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    @pytest.mark.parametrize("count, workers", [(2, 5), (7, 3), (10, 4), (5, 1)])
    def test_equals_serial(self, count, workers):
        assert np.array_equal(map_replicates(_squares, count, workers), _squares(0, count))

    def test_worker_exception_reaches_caller(self):
        def block(start, stop):
            if start > 0:
                raise EstimatorError(f"block {start}..{stop} failed")
            return _squares(start, stop)

        with pytest.raises(EstimatorError, match="block 3..6 failed"):
            map_replicates(block, 6, 2)

    def test_one_core_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def start(process):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        assert np.array_equal(map_replicates(_squares, 5, 4), _squares(0, 5))


class TestConfigFile:
    INI = """
[population]
source = synthetic
units = 800
r_xy = 0.8
r_yz = 0.6
r_xz = 0.7
marginal_x = normal
mu_x = 10.0
sigma_x = 2.0
marginal_y = normal
mu_y = 10.0
sigma_y = 2.0
marginal_z = lognormal
mu_z = 1.0
sigma_z = 0.4

[design]
m = 30
n = 120

[run]
replicates = 10
master_seed = 42
estimators = median, reg-xz
"""

    def test_parse(self, tmp_path):
        p = tmp_path / "sim.ini"
        p.write_text(self.INI)
        cfg = load_sim_config(p)
        assert cfg.m == 30 and cfg.n == 120 and cfg.N == 800
        assert cfg.generator.marginal_z.kind == "lognormal"
        assert cfg.estimators == ("median", "reg-xz")

    def test_overrides_take_precedence(self, tmp_path):
        p = tmp_path / "sim.ini"
        p.write_text(self.INI)
        cfg = load_sim_config(p, {"replicates": "3", "master_seed": None})
        assert cfg.replicates == 3
        assert cfg.master_seed == 42  # None overrides are ignored

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "sim.ini"
        p.write_text("[design]\nm = 3\nwhatever = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_sim_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        # a [marginals] section was skipped, so its keys never reached the generator
        p = tmp_path / "sim.ini"
        p.write_text("[design]\nm = 3\n[marginals]\nmarginal_y = lognormal\n")
        with pytest.raises(ValueError, match=r"unknown config section \[marginals\]"):
            load_sim_config(p)

    def test_csv_source(self, tmp_path):
        pop = generate_population(GEN, 200, SeedSpec(1, POPULATION_STREAM))
        csv_path = write_population_csv(tmp_path / "pop.csv", pop)
        p = tmp_path / "sim.ini"
        p.write_text(
            "[population]\nsource = csv\ncsv_path = {}\nunits = 200\n"
            "[design]\nm = 20\nn = 80\n"
            "[run]\nreplicates = 5\nmaster_seed = 2\nestimators = median\n".format(csv_path)
        )
        cfg = load_sim_config(p)
        assert cfg.csv_path == csv_path and cfg.generator is None
        rep = run_simulation(cfg)
        assert rep.summary_source == "census"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_sim_config(tmp_path / "nope.ini")
