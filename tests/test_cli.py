"""Command-line interface: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_population_csv
import dsmedian
from dsmedian import cli
from dsmedian.estimators import ESTIMATOR_IDS
from dsmedian.montecarlo import (
    POPULATION_STREAM,
    TRUE_VARIANT_IDS,
    GeneratorSpec,
    MarginalSpec,
    generate_population,
)
from dsmedian.population import load_population_csv, population_summary
from dsmedian.sampling import SeedSpec
from dsmedian.variance_theory import VarianceComponents

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

    def test_overflowing_v0_exit_3(self, tmp_path, capsys):
        # y in two clusters near -+1e152 around a lone median of 0: f_y is
        # about 3e-155, so V0 = 1 / (4 f_y^2) overflows while var(y) does not
        rng = np.random.default_rng(17)
        big = 1e152 * (1.0 + 0.1 * rng.random(600))
        y = np.concatenate([-big[:299], [0.0], big[300:]])
        path = _write_columns(tmp_path / "huge_y.csv", y / 1e152 + rng.normal(size=600), y,
                              y / 1e152 + rng.normal(size=600))
        ini = TestSimulate._csv_config(tmp_path, path, 600, m=30, n=120, replicates=3,
                                       estimators="median, reg-x")
        for argv in (["analyze", path], ["simulate", ini, "--out-json", str(tmp_path / "r.json"),
                                         "--out-csv", str(tmp_path / "r.csv")]):
            assert cli.main(argv) == 3
            assert capsys.readouterr().err == (
                "error: V0 = 1/(4 f_y^2) is out of float range at f_y = 3.102080841558174e-155\n"
            )

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

    @pytest.mark.parametrize("args, env, message", [
        (["--estimators", ","], None, "empty estimator list"),
        ([], "abc", "DSMEDIAN_SEED must be an integer, got 'abc'"),
    ], ids=["empty-estimator-list", "non-integer-env-seed"])
    def test_input_error_exit_2(self, pop_csv, capsys, monkeypatch, args, env, message):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        assert cli.main(["estimate", pop_csv, "--m", "30", "--n", "100", *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_sizes_exit_2(self, pop_csv, capsys):
        assert cli.main(["estimate", pop_csv, "--m", "100", "--n", "30"]) == 2
        assert "require 2 <= m < n <= N, got m=100, n=30, N=" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text,message", [
        ("units = 400\n", "File contains no section headers"),
        (SIM_INI.replace("units = 400", "units = 400\nunits = 500"),
         "option 'units' in section 'population' already exists"),
        (SIM_INI + "[design]\nm = 3\n", "section 'design' already exists"),
        (SIM_INI.replace("mu_x = 10.0", "mu_x = 5%"), "'%' must be followed by '%' or '('"),
        # the section was skipped: normal(0, 1) marginals ran, with exit 0
        (SIM_INI + "[marginals]\nmarginal_y = lognormal\nmu_y = 2.0\n",
         "unknown config section [marginals]"),
        # the parse errors named no key
        (SIM_INI.replace("units = 400", "units = 1e3"),
         "config key units: invalid literal for int() with base 10: '1e3'"),
        (SIM_INI.replace("r_xy = 0.8", "r_xy = abc"),
         "config key r_xy: could not convert string to float: 'abc'"),
        (SIM_INI.replace("r_xy = 0.8", "r_xy = 1.0"), "correlation r_xy=1.0 must satisfy |r| < 1"),
        (SIM_INI.replace("estimators = median, reg-xz", "estimators = ,"),
         "estimator list is empty"),
        (SIM_INI.replace("units = 400\n", ""), "missing config key 'units'"),
        (SIM_INI.replace("source = synthetic", "source = parquet"),
         "population source must be synthetic or csv, got 'parquet'"),
    ], ids=["no-section-header", "duplicate-option", "duplicate-section", "lone-percent",
            "unknown-section", "non-integer-units", "non-float-r_xy", "unit-correlation",
            "empty-estimator-list", "missing-units", "unknown-source"])
    def test_config_syntax_error_exit_2(self, tmp_path, capsys, text, message):
        ini = tmp_path / "sim.ini"
        ini.write_text(text)
        code = cli.main(["simulate", str(ini), "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

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

    @pytest.mark.parametrize("config_seed,flag,code", [
        (None, None, 2), ("77", None, 0), (None, "5", 0),
    ], ids=["env-read", "config-seed", "flag-seed"])
    def test_non_integer_env_seed_named_where_read(self, tmp_path, capsys, monkeypatch,
                                                   config_seed, flag, code):
        # a malformed DSMEDIAN_SEED is an error that names the variable, and
        # only where no flag and no config key gives the seed
        ini = tmp_path / "sim.ini"
        seed_line = "master_seed = 77\n"
        ini.write_text(SIM_INI.replace(seed_line, "" if config_seed is None else seed_line))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        seed_args = [] if flag is None else ["--seed", flag]
        assert cli.main(["simulate", str(ini), "--replicates", "2", *seed_args,
                         "--out-json", str(tmp_path / "o.json"),
                         "--out-csv", str(tmp_path / "o.csv")]) == code
        err = capsys.readouterr().err
        assert err == ("error: DSMEDIAN_SEED must be an integer, got 'abc'\n" if code else "")

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

    @pytest.mark.parametrize("units, patched", [(10**15, True), (10**20, False)])
    def test_units_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch, units, patched):
        # 10**15 units ask for 21 PiB; the allocation is patched to fail as
        # numpy's does, so nothing large is allocated.  numpy rejects 10**20
        # as a dimension before it allocates anything.
        class NoMemory:
            def standard_normal(self, shape):
                raise MemoryError(f"Unable to allocate an array with shape {shape}")

        if patched:
            monkeypatch.setattr(SeedSpec, "generator", lambda seed: NoMemory())
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        code = cli.main(["simulate", str(ini), "--units", str(units),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: units = {units}: the population does not fit in memory\n"
        )
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("replicates, patched", [(10**15, True), (2**64, False)])
    def test_replicates_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch, replicates,
                                             patched):
        # the results of 10**15 replicates ask for 336 PB; their allocation is
        # patched to fail as numpy's does, so nothing large is allocated.
        # numpy rejects 2**64 as a dimension before it allocates anything.
        zeros = np.zeros

        def no_memory(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[0] == replicates:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return zeros(shape, *args, **kwargs)

        if patched:
            monkeypatch.setattr(np, "zeros", no_memory)
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI)
        code = cli.main(["simulate", str(ini), "--replicates", str(replicates),
                         "--out-json", str(tmp_path / "x.json"),
                         "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: replicates = {replicates}: the results do not fit in memory\n"
        )
        assert not (tmp_path / "x.json").exists()

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

    def test_too_few_units_exit_2_from_either_source(self, tmp_path, capsys):
        three = tmp_path / "three.csv"
        three.write_text("x,y,z\n1,2,3\n2,3,1\n3,1,2\n")
        synthetic = tmp_path / "sim.ini"
        synthetic.write_text(SIM_INI)
        outputs = ["--out-json", str(tmp_path / "x.json"), "--out-csv", str(tmp_path / "x.csv")]
        for argv in (["simulate", str(synthetic), "--units", "3", "--m", "2", "--n", "3", *outputs],
                     ["simulate", self._csv_config(tmp_path, three, 3, m=2, n=3), *outputs],
                     ["analyze", str(three)]):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err == (
                "error: population needs at least 4 units for two-phase sampling\n"
            )
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("keys, code, message", [
        ("marginal_x = lognormal\nmu_x = -800", 2,
         "lognormal median exp(mu) is out of float range at mu = -800.0"),
        ("marginal_x = lognormal\nmu_x = 800", 2,
         "lognormal median exp(mu) is out of float range at mu = 800.0"),
        ("sigma_y = 1e308", 3, "population variable y contains non-finite values"),
        ("marginal_x = lognormal\nmu_x = -745", 2,
         "lognormal density at the median is out of float range at mu = -745.0, sigma = 1.0"),
        ("sigma_z = 1e-310", 2,
         "normal density at the median is out of float range at mu = 0.0, sigma = 1e-310"),
    ])
    def test_extreme_marginals_exit_documented(self, tmp_path, capsys, keys, code, message):
        ini = tmp_path / "sim.ini"
        ini.write_text(
            f"[population]\nunits = 200\nr_xy = 0.8\nr_yz = 0.6\nr_xz = 0.7\n{keys}\n"
            "[design]\nm = 20\nn = 60\n"
            "[run]\nreplicates = 2\nmaster_seed = 1\nestimators = median, reg-xz\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            assert cli.main(["simulate", str(ini), "--out-json", str(tmp_path / "x.json"),
                             "--out-csv", str(tmp_path / "x.csv")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_help_states_threads_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        assert f"1..{cli.MAX_THREADS}" in capsys.readouterr().out

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

    def test_overflowing_squared_errors_aggregate_without_warnings(self, tmp_path, capsys):
        # a g7 estimate near 1e306 squares to inf in the aggregation, and its
        # deviation from the inf mse is inf - inf: the report keeps both, silently
        ini = tmp_path / "sim.ini"
        ini.write_text(
            "[population]\nunits = 5000\nr_xy = 0.8\nr_yz = 0.6\nr_xz = 0.7\n"
            "[design]\nm = 150\nn = 600\n"
            "[run]\nreplicates = 300\nmaster_seed = 2002\n"
            "estimators = " + ", ".join(ESTIMATOR_IDS) + "\n"
        )
        texts = []
        for action in ("error", "ignore"):
            oj = tmp_path / f"{action}.json"
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert cli.main(["simulate", str(ini), "--out-json", str(oj),
                                 "--out-csv", str(tmp_path / f"{action}.csv")]) == 0
            capsys.readouterr()
            texts.append(oj.read_bytes())
        assert texts[0] == texts[1]


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

    # budgets and costs at the edges of the float range: the continuous
    # optimum, the budget left after m_int or the oracle's grid leaves it
    @pytest.mark.parametrize("argv, code, notes", [
        (["--c0", "1e308", "--c1", "1e-300", "--c2", "1e-301", "--c3", "1e-302",
          "--units", "100", "--v0", "1", "--v1", "0.5", "--v2", "0.2"], 3,
         {"single": "continuous optimum is out of float range"}),
        (["--c0", "1e308", "--c1", "1e308", "--c2", "300", "--c3", "2.5", "--units", "5",
          "--v0", "1e-3", "--v1", "5e-4", "--v2", "1e-4"], 0,
         {"H": "no integer n > m fits the budget at the rounded m"}),
        (["--c0", "1e308", "--c1", "1e6", "--c2", "300", "--c3", "3", "--units", "150",
          "--v0", "1", "--v1", "0.5", "--v2", "0.2", "--oracle"], 4, {}),
        (["--c0", "18446744073709551615", "--c1", "1e6", "--c2", "3", "--c3", "2",
          "--units", "3", "--v0", "1e3", "--v1", "150", "--v2", "100", "--v3", "299",
          "--oracle"], 4, {}),
    ])
    def test_extreme_costs_exit_documented(self, capsys, argv, code, notes):
        assert cli.main(["allocate", *argv]) == code
        captured = capsys.readouterr()
        allocations = json.loads(captured.out)["allocations"]
        for strategy, note in notes.items():
            assert not allocations[strategy]["feasible"]
            assert note in allocations[strategy]["note"]
        assert captured.err == (
            "error: grid-search oracle disagrees with the closed form\n" if code == 4 else "")

    def test_compare_extreme_costs(self, pop_csv, capsys):
        code, out = run_cli(capsys, "compare", "--c0", "1e308", "--c1", "1e308", "--c2", "300",
                            "--c3", "2.5", "--units", "5", "--csv", pop_csv)
        assert code == 0
        for strategy in ("H", "g", "F"):
            assert not json.loads(out)["allocations"][strategy]["feasible"]

    def test_oracle_grid_beyond_memory_exit_2(self, capsys):
        # m <= N - 1 = 2**64 - 1: numpy rejects the size before it allocates
        code = cli.main(["allocate", "--c0", "1e308", "--c1", "4", "--c2", "0.7", "--c3", "0.3",
                         "--units", str(2**64), "--v0", "1", "--v1", "0.5", "--v2", "0.2",
                         "--strategy", "H", "--oracle"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: the grid of m = 2..{2**64 - 1} does not fit in memory\n"
        )

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

    @pytest.mark.parametrize("sub", ["allocate", "compare"])
    def test_units_past_float_range_exit_2(self, capsys, sub):
        # int(--units) takes any size; the variances divide by it as a float
        argv = [sub, *self.ARGS]
        argv[argv.index("--units") + 1] = "1" + "0" * 400
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --units is out of float range\n"

    @pytest.mark.parametrize("sub", ["allocate", "compare"])
    def test_degenerate_csv_exit_3(self, tmp_path, capsys, sub):
        # a constant z loads but has no density at its median: a model error,
        # as under analyze and simulate
        p = tmp_path / "flat_z.csv"
        p.write_text("x,y,z\n" + "".join(f"{i},{2 * i},3\n" for i in range(1, 9)))
        code = cli.main([sub, *self.ARGS[:-6], "--csv", str(p)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: zero density at median: variable z is degenerate\n")
        assert cli.main(["analyze", str(p)]) == 3

    @pytest.mark.parametrize("sub", ["allocate", "compare"])
    @pytest.mark.parametrize("flags, named", [
        (ARGS[-6:], "--v0, --v1, --v2"),
        (["--v3", "0"], "--v3"),
    ], ids=["v0-v2", "v3"])
    def test_csv_excludes_component_flags(self, pop_csv, capsys, sub, flags, named):
        # the flags were dropped in silence, and the CSV's components ran
        assert cli.main([sub, *self.ARGS[:-6], *flags, "--csv", pop_csv]) == 2
        assert capsys.readouterr().err == (
            f"error: --csv derives V0..V3, so it excludes {named}\n")

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
    """z = 2x + 1, and tie-heavy integer auxiliaries whose census rho_xz
    exceeds 1: only the generalized class divides by 1 - rho_xz^2."""

    COST = ("--c0", "500", "--c1", "4", "--c2", "0.7", "--c3", "0.3", "--units", "1200")

    @pytest.fixture
    def collinear_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 9, size=3000).astype(float)
        y = np.clip(x + rng.integers(-2, 3, size=3000), 0, 12)
        return _write_columns(tmp_path / "collinear.csv", x, y, 2 * x + 1)

    @pytest.fixture
    def tie_heavy_csv(self, tmp_path):
        # x in 0..6 and z in 0..13 split a common latent variable: census
        # rho_xz = 1.47, clamped to 1, while V1 > V2 keeps g feasible
        rng = np.random.default_rng(3)
        w = rng.normal(size=1200)
        x = np.clip(np.floor(1.5 * w) + 3, 0, 6)
        z = np.clip(np.floor(3 * w) + 7, 0, 13)
        y = np.round(2 * w + 2 * rng.normal(size=1200))
        return _write_columns(tmp_path / "ties.csv", x, y, z)

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

    def test_simulate_theory(self, tie_heavy_csv, tmp_path, capsys):
        # only the generalized class's minimum reads V3
        oj = tmp_path / "r.json"
        ids = "median, reg-x, reg-xz, g1, g2, g3, g4, g5, g6, g7, f-linear, f-linear-true"
        ini = TestSimulate._csv_config(tmp_path, tie_heavy_csv, 1200, m=31, n=100,
                                       replicates=5, estimators=ids)
        code = cli.main(["simulate", ini,
                         "--out-json", str(oj), "--out-csv", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 0
        rows = json.loads(oj.read_text())["report"]["estimators"]
        undefined = {r["estimator"] for r in rows if r["theory_variance"] is None}
        assert undefined == {"f-linear", "f-linear-true"}

    def test_analyze(self, tie_heavy_csv, capsys):
        code, out = run_cli(capsys, "analyze", tie_heavy_csv)
        assert code == 0
        comps = json.loads(out)["variance_components"]
        assert list(comps) == ["V0", "V1", "V2", "V3"]
        assert comps["V3"] is None
        # V0..V2 as they were built with rho_xz in range, which none of them reads
        summary = population_summary(load_population_csv(tie_heavy_csv))
        rho_xy, rho_yz, rho_xz = summary.concordances
        assert summary.pm_xz.concordance > 1.0 and rho_xz == 1.0
        v0 = VarianceComponents.scaled_v0(1.0, summary.density_y)
        in_range = VarianceComponents.from_concordances(v0, rho_xy, rho_yz, 0.0)
        assert [comps[k] for k in ("V0", "V1", "V2")] == [in_range.V0, in_range.V1, in_range.V2]

    def test_allocate_F_infeasible(self, tie_heavy_csv, capsys):
        code, out = run_cli(capsys, "allocate", *self.COST, "--csv", tie_heavy_csv,
                            "--strategy", "all", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_agreement"] is True
        assert doc["manifest"]["config"]["components"]["V3"] is None
        feasible = {s: a["feasible"] for s, a in doc["allocations"].items()}
        assert feasible == {"single": True, "H": True, "g": True, "F": False}
        assert "V3 undefined" in doc["allocations"]["F"]["note"]
        assert doc["oracle"]["F"]["feasible"] is False

    def test_compare_F_not_comparable(self, tie_heavy_csv, capsys):
        code, out = run_cli(capsys, "compare", *self.COST, "--csv", tie_heavy_csv)
        assert code == 0
        verdicts = {k: v["verdict"] for k, v in json.loads(out)["verdicts"].items()}
        assert verdicts["F_vs_H"] == verdicts["F_vs_g"] == "not-comparable"
        assert verdicts["g_vs_H"] != "not-comparable"


class TestZeroBandwidth:
    """x in equal blocks of -1, 0, 5e-324 and 1: a second-phase sample whose
    quartiles fall on 0 and 5e-324 has a subnormal IQR, which underflows
    Silverman's h to 0.0.  The plug-ins fail as degenerate; nothing crashes."""

    @pytest.fixture
    def subnormal_iqr_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.repeat([-1.0, 0.0, 5e-324, 1.0], 100)
        rng.shuffle(x)
        return _write_columns(tmp_path / "tiny.csv", x, rng.normal(10, 2, 400),
                              rng.normal(5, 1, 400))

    def test_estimate(self, subnormal_iqr_csv, capsys):
        code, out = run_cli(capsys, "estimate", subnormal_iqr_csv, "--m", "40", "--n", "80",
                            "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] is None
        assert doc["coefficients_error"] == "degenerate second-phase x sample"
        assert doc["estimates"]["reg-xz"] == {"error": "degenerate second-phase x sample"}
        assert "value" in doc["estimates"]["median"]

    def test_simulate(self, subnormal_iqr_csv, tmp_path, capsys):
        oj = tmp_path / "r.json"
        ini = TestSimulate._csv_config(tmp_path, subnormal_iqr_csv, 400, m=40, n=80,
                                       replicates=20, estimators="median, reg-xz, reg-x-true")
        code = cli.main(["simulate", ini, "--out-json", str(oj),
                         "--out-csv", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert code == 0
        rows = {r["estimator"]: r for r in json.loads(oj.read_text())["report"]["estimators"]}
        assert 0 < rows["reg-xz"]["failures"] < 20
        assert rows["median"]["failures"] == rows["reg-x-true"]["failures"] == 0


def _scaled_y_csv(tmp_path, scale):
    """400 rows of x ~ N(10, 2), z ~ N(5, 1) and y ~ N(0, 1) * scale."""
    rng = np.random.default_rng(5)
    x, z, y = rng.normal(10, 2, 400), rng.normal(5, 1, 400), rng.normal(0, 1, 400)
    return _write_columns(tmp_path / f"y_{scale:g}.csv", x, scale * y, z)


class TestUnrepresentableV0:
    """f_y near 4e-301 (y scaled by 1e300) squares to 0, and f_y near 4e155
    (y scaled by 1e-156) or 4e159 (sigma_y = 1e-160) squares past the
    largest float: V0 = 1/(4 f_y^2) has no float value, a model error."""

    COST = ("--c0", "1000", "--c1", "4", "--c2", "0.7", "--c3", "0.3", "--units", "400")

    @pytest.mark.parametrize("scale", [1e300, 1e-156])
    def test_csv_commands_exit_3(self, tmp_path, capsys, scale):
        path = _scaled_y_csv(tmp_path, scale)
        ini = TestSimulate._csv_config(tmp_path, path, 400, m=40, n=160,
                                       estimators="median, reg-xz")
        outputs = ("--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv"))
        for argv in (["analyze", path], ["compare", *self.COST, "--csv", path],
                     ["allocate", *self.COST, "--csv", path], ["simulate", ini, *outputs]):
            assert cli.main(argv) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("error: V0 = 1/(4 f_y^2) is out of float range at f_y = ")
            assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_synthetic_sigma_y_exit_3(self, tmp_path, capsys):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI.replace("sigma_y = 2.0", "sigma_y = 1e-160"))
        code = cli.main(["simulate", str(ini), "--out-json", str(tmp_path / "r.json"),
                         "--out-csv", str(tmp_path / "r.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: V0 = 1/(4 f_y^2) is out of float range at f_y = 3.989422804014327e+159\n"
        )


class TestKernelWarnings:
    """The float overflow of the kernels on extreme samples stays off
    stderr: an sd whose squares overflow (y near 1e300), and a KDE whose
    subnormal bandwidth overflows its scaled distances (y in blocks of 0,
    1e-309, -1 and 1).  Run as a separate process, so stderr is the one a
    user sees under Python's default warning filters."""

    def run(self, *argv):
        src = str(Path(dsmedian.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run([sys.executable, "-m", "dsmedian.cli", *argv], env=env,
                              capture_output=True, text=True)

    def test_no_runtime_warning(self, tmp_path):
        rng = np.random.default_rng(5)
        x, z = rng.normal(10, 2, 400), rng.normal(5, 1, 400)
        y = np.repeat([0.0, 1e-309, -1.0, 1.0], [150, 150, 50, 50])
        rng.shuffle(y)
        subnormal = _write_columns(tmp_path / "subnormal_y.csv", x, y, z)
        big = _scaled_y_csv(tmp_path, 1e300)
        draw = ("--m", "40", "--n", "160", "--seed", "3")
        for path, error in ((big, None),
                            (subnormal, "degenerate second-phase y sample: density overflows")):
            proc = self.run("estimate", path, *draw, "--estimators", "median,reg-xz")
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(proc.stdout)["coefficients_error"] == error
        proc = self.run("analyze", subnormal)
        assert (proc.returncode, proc.stderr) == (
            3, "error: zero density at median: variable y is degenerate\n")


class TestSeedRange:
    @pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
    def test_simulate_config_seed(self, tmp_path, capsys, seed, code):
        ini = tmp_path / "sim.ini"
        ini.write_text(SIM_INI.replace("master_seed = 77", f"master_seed = {seed}"))
        oj = tmp_path / "o.json"
        assert cli.main(["simulate", str(ini), "--replicates", "2", "--out-json", str(oj),
                         "--out-csv", str(tmp_path / "o.csv")]) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"error: master_seed must be an unsigned 64-bit integer, got {seed}\n"
        else:
            assert json.loads(oj.read_text())["report"]["master_seed"] == seed
