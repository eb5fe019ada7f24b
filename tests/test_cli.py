"""Command-line interface: artifacts, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import write_population_csv
from dsmedian import cli
from dsmedian.estimators import ESTIMATOR_IDS
from dsmedian.montecarlo import (
    POPULATION_STREAM,
    TRUE_VARIANT_IDS,
    GeneratorSpec,
    MarginalSpec,
    generate_population,
)
from dsmedian.sampling import SeedSpec

NORMAL = MarginalSpec("normal", 10.0, 2.0)
GEN = GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7,
                    marginal_x=NORMAL, marginal_y=NORMAL, marginal_z=NORMAL)


@pytest.fixture
def pop_csv(tmp_path):
    pop = generate_population(GEN, 300, SeedSpec(21, POPULATION_STREAM))
    return write_population_csv(tmp_path / "pop.csv", pop)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_identical_columns_example(self, tmp_path, capsys):
        p = tmp_path / "five.csv"
        p.write_text("x,y,z\n" + "".join(f"{i},{i},{i}\n" for i in range(1, 6)))
        code, out = run_cli(capsys, "analyze", str(p))
        assert code == 0
        doc = json.loads(out)
        s = doc["summary"]
        assert s["median_x"] == s["median_y"] == s["median_z"] == 3.0
        assert s["pm_xy"]["p11"] == 0.6

    def test_deterministic_output(self, pop_csv, capsys):
        code1, out1 = run_cli(capsys, "analyze", pop_csv)
        code2, out2 = run_cli(capsys, "analyze", pop_csv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_column_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\n3,4\n5,6\n7,8\n")
        code = cli.main(["analyze", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "x,y,z" in err

    def test_nan_cell_exit_2_names_line(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("x,y,z\n1,2,3\n4,nan,6\n7,8,9\n10,11,12\n")
        code = cli.main(["analyze", str(p)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 3: column y is not a finite number: 'nan'\n"
        )

    def test_degenerate_population_exit_3(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("x,y,z\n" + "1,2,3\n" * 5)
        code = cli.main(["analyze", str(p)])
        assert code == 3

    def test_out_file(self, pop_csv, tmp_path, capsys):
        out_path = tmp_path / "summary.json"
        code, out = run_cli(capsys, "analyze", pop_csv, "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)


class TestEstimate:
    def test_median_only(self, pop_csv, capsys):
        code, out = run_cli(capsys, "estimate", pop_csv, "--m", "30", "--n", "100",
                            "--seed", "9", "--estimators", "median")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["estimates"]) == {"median"}
        assert "value" in doc["estimates"]["median"]

    def test_seeded_determinism(self, pop_csv, capsys):
        args = ("estimate", pop_csv, "--m", "30", "--n", "100", "--seed", "9")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_env_seed_used_when_flag_absent(self, pop_csv, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "9")
        _, out_env = run_cli(capsys, "estimate", pop_csv, "--m", "30", "--n", "100")
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        _, out_flag = run_cli(capsys, "estimate", pop_csv, "--m", "30", "--n", "100",
                              "--seed", "9")
        assert json.loads(out_env)["estimates"] == json.loads(out_flag)["estimates"]

    def test_flag_beats_env(self, pop_csv, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "1")
        _, out = run_cli(capsys, "estimate", pop_csv, "--m", "30", "--n", "100", "--seed", "9")
        assert json.loads(out)["manifest"]["master_seed"] == 9

    def test_unknown_estimator_exit_2(self, pop_csv, capsys):
        code = cli.main(["estimate", pop_csv, "--m", "30", "--n", "100",
                         "--estimators", "nope"])
        assert code == 2

    @pytest.mark.parametrize("flag,env", [("-1", None), (str(2**64), None), (None, "-1")])
    def test_out_of_range_seed_exit_2(self, pop_csv, capsys, monkeypatch, flag, env):
        if env is None:
            monkeypatch.delenv("DSMEDIAN_SEED", raising=False)
        else:
            monkeypatch.setenv("DSMEDIAN_SEED", env)
        seed_args = [] if flag is None else ["--seed", flag]
        code = cli.main(["estimate", pop_csv, "--m", "10", "--n", "40", *seed_args])
        assert code == 2
        assert "unsigned 64-bit integer" in capsys.readouterr().err

    def test_bad_sizes_exit_2(self, pop_csv):
        assert cli.main(["estimate", pop_csv, "--m", "100", "--n", "30"]) == 2

    def test_per_estimator_errors_surfaced(self, tmp_path, capsys):
        # x and z identical: the generalized class fails, the others still report
        rng = np.random.default_rng(1)
        from dsmedian.population import Population

        x = rng.normal(10, 2, size=80)
        pop = Population(x=x, y=rng.normal(10, 2, size=80), z=x)
        path = write_population_csv(tmp_path / "c.csv", pop)
        code, out = run_cli(capsys, "estimate", path, "--m", "20", "--n", "60",
                            "--seed", "3", "--estimators", "median,f-linear,reg-xz")
        assert code == 0
        doc = json.loads(out)
        assert "value" in doc["estimates"]["median"]
        assert "error" in doc["estimates"]["f-linear"]
        assert "value" in doc["estimates"]["reg-xz"]
        assert doc["coefficients"]["a1_hat"] is None
        assert doc["coefficients_error"] is None


SIM_INI = """
[population]
source = synthetic
units = 400
r_xy = 0.8
r_yz = 0.6
r_xz = 0.7
marginal_x = normal
mu_x = 10.0
sigma_x = 2.0
marginal_y = normal
mu_y = 10.0
sigma_y = 2.0
marginal_z = normal
mu_z = 10.0
sigma_z = 2.0

[design]
m = 30
n = 120

[run]
replicates = 8
master_seed = 77
estimators = median, reg-xz
"""


class TestSimulate:
    def test_writes_artifacts(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        oj, oc = tmp_path / "r.json", tmp_path / "r.csv"
        code, out = run_cli(capsys, "simulate", str(ini),
                            "--out-json", str(oj), "--out-csv", str(oc))
        assert code == 0
        doc = json.loads(oj.read_text())
        assert doc["report"]["design"]["replicates"] == 8
        lines = oc.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 3

    def test_deterministic_files(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        texts = []
        for tag in ("a", "b"):
            oj = tmp_path / f"{tag}.json"
            cli.main(["simulate", str(ini), "--out-json", str(oj),
                      "--out-csv", str(tmp_path / f"{tag}.csv")])
            capsys.readouterr()
            texts.append(oj.read_text())
        assert texts[0] == texts[1]

    def test_threads_flag_never_changes_results(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        outs = []
        for threads in ("1", "4"):
            oj = tmp_path / f"t{threads}.json"
            cli.main(["simulate", str(ini), "--threads", threads,
                      "--out-json", str(oj), "--out-csv", str(tmp_path / f"t{threads}.csv")])
            capsys.readouterr()
            outs.append(oj.read_text())
        assert outs[0] == outs[1]

    def test_invalid_correlation_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI.replace("r_xz = 0.7", "r_xz = -0.9"))
        assert cli.main(["simulate", str(ini),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")]) == 2

    def test_flag_overrides(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        oj = tmp_path / "o.json"
        cli.main(["simulate", str(ini), "--replicates", "3", "--seed", "5",
                  "--out-json", str(oj), "--out-csv", str(tmp_path / "o.csv")])
        capsys.readouterr()
        doc = json.loads(oj.read_text())
        assert doc["report"]["design"]["replicates"] == 3
        assert doc["manifest"]["master_seed"] == 5

    @pytest.mark.parametrize(
        "config_seed,env,flag,expected",
        [("77", "99", None, 77), (None, "99", None, 99), ("77", "99", "5", 5)],
    )
    def test_seed_order_flag_config_env(self, tmp_path, capsys, monkeypatch,
                                        config_seed, env, flag, expected):
        ini = tmp_path / "sim.ini"
        seed_line = "master_seed = 77\n"
        ini.write_text(SIM_INI.replace(seed_line, "" if config_seed is None else seed_line))
        monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        oj = tmp_path / "o.json"
        seed_args = [] if flag is None else ["--seed", flag]
        code = cli.main(["simulate", str(ini), "--replicates", "2", *seed_args,
                         "--out-json", str(oj), "--out-csv", str(tmp_path / "o.csv")])
        capsys.readouterr()
        assert code == 0
        assert json.loads(oj.read_text())["manifest"]["master_seed"] == expected

    def test_missing_csv_path_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        ini = tmp_path / "sim.ini"
        ini.write_text(
            f"[population]\nsource = csv\ncsv_path = {missing}\nunits = 400\n"
            "[design]\nm = 30\nn = 120\n"
            "[run]\nreplicates = 2\nmaster_seed = 1\nestimators = median\n"
        )
        code = cli.main(["simulate", str(ini),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(missing) in err
        assert not (tmp_path / "x.json").exists()

    @staticmethod
    def _csv_config(tmp_path, csv_path, units, m=30, n=120, replicates=2, estimators="median"):
        ini = tmp_path / "sim.ini"
        ini.write_text(
            f"[population]\nsource = csv\ncsv_path = {csv_path}\nunits = {units}\n"
            f"[design]\nm = {m}\nn = {n}\n"
            f"[run]\nreplicates = {replicates}\nmaster_seed = 1\nestimators = {estimators}\n"
        )
        return str(ini)

    @pytest.mark.parametrize(
        "defect,line",
        [("blank", "\n"), ("cell", "1.0,oops,2.0\n")],
    )
    def test_bad_csv_exit_2_like_analyze(self, pop_csv, tmp_path, capsys, defect, line):
        rows = Path(pop_csv).read_text().splitlines(keepends=True)
        bad = tmp_path / f"{defect}.csv"
        bad.write_text("".join(rows[:100] + [line] + rows[100:]))
        assert cli.main(["analyze", str(bad)]) == 2
        analyze_err = capsys.readouterr().err
        assert "line 101" in analyze_err
        code = cli.main(["simulate", self._csv_config(tmp_path, bad, 300),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == analyze_err
        assert not (tmp_path / "x.json").exists()

    def test_csv_size_mismatch_exit_2(self, pop_csv, tmp_path, capsys):
        code = cli.main(["simulate", self._csv_config(tmp_path, pop_csv, 400),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: CSV population has N=300, config says N=400\n"

    def test_degenerate_csv_population_stays_model_error(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("x,y,z\n" + "".join(f"{i},5,{i % 7}\n" for i in range(300)))
        code = cli.main(["simulate", self._csv_config(tmp_path, flat, 300),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 3
        assert "zero density at median" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1", str(cli.MAX_THREADS + 1)])
    def test_threads_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, threads):
        def no_run(*args, **kwargs):
            raise AssertionError("run_simulation reached")

        monkeypatch.setattr(cli, "run_simulation", no_run)
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        code = cli.main(["simulate", str(ini), "--threads", threads,
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --threads must be in 1..{cli.MAX_THREADS}, got {threads}\n"
        )

    @pytest.mark.parametrize("threads", ["1", str(cli.MAX_THREADS)])
    def test_threads_bounds_accepted(self, tmp_path, capsys, monkeypatch, threads):
        seen = []

        class Stop(Exception):
            pass

        def record(config, threads):
            seen.append(threads)
            raise Stop

        monkeypatch.setattr(cli, "run_simulation", record)
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        with pytest.raises(Stop):
            cli.main(["simulate", str(ini), "--threads", threads])
        assert seen == [int(threads)]

    def test_help_states_threads_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        assert f"1..{cli.MAX_THREADS}" in capsys.readouterr().out


    # numpy warns when a g-form value near 1e181 overflows the squared error
    # in the aggregation, a fault of its own that this test does not cover
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_g_form_overflow_counted_as_failure(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(
            "[population]\nunits = 400\nr_xy = 0.8\nr_yz = 0.6\nr_xz = 0.7\n"
            "[design]\nm = 4\nn = 20\n"
            "[run]\nreplicates = 300\nmaster_seed = 5\n"
            "estimators = " + ", ".join((*ESTIMATOR_IDS, *TRUE_VARIANT_IDS)) + "\n"
        )
        oj = tmp_path / "r.json"
        code = cli.main(["simulate", str(ini), "--out-json", str(oj),
                         "--out-csv", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 0
        rows = {r["estimator"]: r for r in json.loads(oj.read_text())["report"]["estimators"]}
        assert rows["g7"]["failures"] > 0
        assert rows["g7"]["failures"] + rows["g7"]["replicates_ok"] == 300


class TestAllocate:
    ARGS = ["--c0", "100", "--c1", "4", "--c2", "1", "--c3", "0.5",
            "--units", "10000000", "--v0", "1", "--v1", "0.64", "--v2", "0.36"]

    def test_worked_example(self, capsys):
        code, out = run_cli(capsys, "allocate", *self.ARGS, "--strategy", "H")
        assert code == 0
        h = json.loads(out)["allocations"]["H"]
        assert (h["m_real"], h["n_real"]) == (15.0, 40.0)

    def test_oracle_agreement(self, capsys):
        code, out = run_cli(capsys, "allocate", *self.ARGS, "--strategy", "H", "--oracle")
        assert code == 0
        assert json.loads(out)["oracle_agreement"] is True

    def test_oracle_disagreement_exit_4(self, capsys, monkeypatch):
        from dsmedian.allocation import AllocationResult

        def fake_grid(cost, comps, N, strategy):
            return AllocationResult(strategy=strategy, m_real=2.0, n_real=3.0, m_int=2,
                                    n_int=3, opt_variance=123.0, variance_large_n=123.0,
                                    feasible=True, note="grid")

        monkeypatch.setattr(cli, "grid_search_allocation", fake_grid)
        code = cli.main(["allocate", *self.ARGS, "--strategy", "H", "--oracle"])
        capsys.readouterr()
        assert code == 4

    def test_infeasible_budget_exit_3(self, capsys):
        code = cli.main(["allocate", "--c0", "2", "--c1", "4", "--c2", "1", "--c3", "0.5",
                         "--units", "1000", "--v0", "1", "--v1", "0.64", "--v2", "0.36"])
        capsys.readouterr()
        assert code == 3

    def test_missing_components_exit_2(self, capsys):
        code = cli.main(["allocate", "--c0", "100", "--c1", "4", "--c2", "1", "--c3", "0.5",
                         "--units", "1000"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("sub", ["allocate", "compare"])
    @pytest.mark.parametrize("units", ["0", "-5"])
    def test_nonpositive_units_exit_2(self, capsys, sub, units):
        argv = [sub, *self.ARGS]
        argv[argv.index("--units") + 1] = units
        code = cli.main(argv)
        assert code == 2
        assert "--units must be at least 1" in capsys.readouterr().err

    def test_components_from_csv(self, pop_csv, capsys):
        code, out = run_cli(capsys, "allocate", "--c0", "500", "--c1", "4", "--c2", "1",
                            "--c3", "0.5", "--units", "300", "--csv", pop_csv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["allocations"]) == {"single", "H", "g", "F"}


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("dsmedian")
        if exe is None:
            pytest.skip("console script not installed")
        p = tmp_path / "five.csv"
        p.write_text("x,y,z\n" + "".join(f"{i},{i + 1},{i + 2}\n" for i in range(1, 6)))
        proc = subprocess.run([exe, "analyze", str(p)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["summary"]["median_y"] == 4.0


class TestCompare:
    def test_verdicts_present(self, capsys):
        code, out = run_cli(capsys, "compare", "--c0", "100", "--c1", "4", "--c2", "0.7",
                            "--c3", "0.3", "--units", "10000000",
                            "--v0", "1", "--v1", "0.64", "--v2", "0.36")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["g_vs_single"]["verdict"] == "profitable"
        assert set(doc["verdicts"]) == {"g_vs_single", "g_vs_H", "F_vs_H", "F_vs_g"}


class TestOutputPaths:
    @pytest.mark.parametrize("argv", [
        ["analyze", "{csv}", "--out", "{bad}"],
        ["simulate", "{ini}", "--out-json", "{bad}", "--out-csv", "{tmp}/r.csv"],
        ["simulate", "{ini}", "--out-json", "{tmp}/r.json", "--out-csv", "{bad}"],
    ])
    def test_unwritable_path_exit_2(self, pop_csv, tmp_path, capsys, argv):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        bad = tmp_path / "missing" / "out"
        code = cli.main([a.format(csv=pop_csv, ini=ini, tmp=tmp_path, bad=bad) for a in argv])
        assert code == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{bad}'\n"


def _write_columns(path, x, y, z) -> str:
    with open(path, "w") as fh:
        fh.write("x,y,z\n")
        for row in zip(x, y, z):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


def _signed_zero_column(values):
    """Values rounded to integers, with every zero written as -0.0: a
    column whose median is a signed zero."""
    out = np.round(3.0 * values)
    out[out == 0.0] = -0.0
    return out


@pytest.fixture
def correlated_normals():
    rng = np.random.default_rng(17)
    cov = [[1.0, 0.8, 0.7], [0.8, 1.0, 0.6], [0.7, 0.6, 1.0]]
    return rng.multivariate_normal([0.0, 0.0, 0.0], cov, size=600).T


class TestDegenerateMedians:
    COST = ("--c0", "1000", "--c1", "4", "--c2", "0.7", "--c3", "0.3", "--units", "600")

    def test_zero_y_median_components(self, tmp_path, capsys, correlated_normals):
        c = correlated_normals
        path = _write_columns(tmp_path / "y0.csv", 10 + 2 * c[0], _signed_zero_column(c[1]),
                              5 + c[2])
        code, out = run_cli(capsys, "analyze", path)
        assert code == 0
        doc = json.loads(out)
        assert str(doc["summary"]["median_y"]) == "-0.0"
        comps = doc["variance_components"]
        assert set(comps) == {"V0", "V1", "V2", "V3"}
        assert all(isinstance(v, float) for v in comps.values())
        for sub, extra in (("allocate", ("--strategy", "all", "--oracle")), ("compare", ())):
            code, out = run_cli(capsys, sub, *self.COST, "--csv", path, *extra)
            assert code == 0, sub
            assert json.loads(out)["manifest"]["config"]["components"] == comps

    def test_zero_y_median_simulate(self, tmp_path, capsys, correlated_normals):
        # at a zero median of y the ratio-double variance reduces to the median's;
        # it is V0 * theta_mN against theta_mN / (4 f_y^2), so equal to rounding
        c = correlated_normals
        path = _write_columns(tmp_path / "y0.csv", 10 + 2 * c[0], _signed_zero_column(c[1]),
                              5 + c[2])
        oj = tmp_path / "r.json"
        ini = TestSimulate._csv_config(tmp_path, path, 600, m=40, n=160, replicates=40,
                                       estimators="median, ratio-double")
        code = cli.main(["simulate", ini,
                         "--out-json", str(oj), "--out-csv", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 0
        rows = {r["estimator"]: r for r in json.loads(oj.read_text())["report"]["estimators"]}
        assert rows["ratio-double"]["theory_variance"] == pytest.approx(
            rows["median"]["theory_variance"], rel=1e-15)
        assert rows["ratio-double"]["mse_theory_ratio"] is not None

    def test_zero_x_median_simulate(self, tmp_path, capsys, correlated_normals):
        c = correlated_normals
        path = _write_columns(tmp_path / "x0.csv", _signed_zero_column(c[0]), 10 + 2 * c[1],
                              _signed_zero_column(c[2]))
        oj = tmp_path / "r.json"
        ini = TestSimulate._csv_config(tmp_path, path, 600, m=40, n=160, replicates=40,
                                       estimators="median, ratio-double, reg-x")
        code = cli.main(["simulate", ini,
                         "--out-json", str(oj), "--out-csv", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 0
        rows = {r["estimator"]: r for r in json.loads(oj.read_text())["report"]["estimators"]}
        assert rows["ratio-double"]["theory_variance"] is None
        assert rows["ratio-double"]["mse_theory_ratio"] is None
        assert rows["median"]["theory_variance"] is not None
        assert rows["reg-x"]["theory_variance"] is not None


class TestCollinearAuxiliaries:
    """z = 2x + 1: only the generalized class divides by 1 - rho_xz^2."""

    @pytest.fixture
    def collinear_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 9, size=3000).astype(float)
        y = np.clip(x + rng.integers(-2, 3, size=3000), 0, 12)
        return _write_columns(tmp_path / "collinear.csv", x, y, 2 * x + 1)

    def test_estimate(self, collinear_csv, capsys):
        code, out = run_cli(capsys, "estimate", collinear_csv, "--m", "31", "--n", "100",
                            "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        failed = {k for k, v in doc["estimates"].items() if "error" in v}
        assert failed == {"f-linear"}
        assert doc["estimates"]["f-linear"]["error"].startswith("collinear auxiliaries")
        assert list(doc["coefficients"]) == [
            "d1_hat", "d2_hat", "alpha1_hat", "alpha2_hat", "alpha1_star_hat",
            "alpha2_star_hat", "a1_hat", "a2_hat", "a3_hat"]
        assert [k for k, v in doc["coefficients"].items() if v is None] == [
            "a1_hat", "a2_hat", "a3_hat"]
        assert doc["coefficients_error"] is None

    def test_simulate(self, collinear_csv, tmp_path, capsys):
        oj = tmp_path / "r.json"
        ids = "reg-x, reg-xz, g1, g7, f-linear, reg-x-true, reg-xz-true, f-linear-true"
        ini = TestSimulate._csv_config(tmp_path, collinear_csv, 3000, m=31, n=100,
                                       replicates=40, estimators=ids)
        code = cli.main(["simulate", ini,
                         "--out-json", str(oj), "--out-csv", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 0
        rows = json.loads(oj.read_text())["report"]["estimators"]
        failures = {r["estimator"]: r["failures"] for r in rows}
        assert failures == {"reg-x": 0, "reg-xz": 0, "g1": 0, "g7": 0, "f-linear": 40,
                            "reg-x-true": 0, "reg-xz-true": 0, "f-linear-true": 40}
