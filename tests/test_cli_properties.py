"""Property suite over the command line: small tie-heavy integer CSVs through
``analyze``, ``allocate --csv --oracle`` and ``compare --csv``, small
``simulate`` configs, and columns at the edges of the float range.  Every
run ends in a documented exit code (0, 2, 3 or 4) with a message, never in
an uncaught exception.

The commands run in-process, so an uncaught exception fails the test with
its traceback.  Sizes stay small (N <= 200, replicates <= 3) to keep the
suite fast.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from dsmedian import cli
from dsmedian.estimators import ESTIMATOR_IDS
from dsmedian.montecarlo import TRUE_VARIANT_IDS

EXIT_CODES = {0, 2, 3, 4}
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)
COSTS = ("--c1", "4", "--c2", "0.7", "--c3", "0.3")


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


def assert_documented(argv: list[str]) -> int:
    code, err = run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("error: "), (argv, err)
    return code


@st.composite
def populations(draw) -> list[tuple[int, int, int]]:
    """3 to 200 integer rows (3 is too few for a population).  Each column
    spans 0..hi for a drawn hi, so ties, constant columns and census
    concordances past 1 are common; y then follows x and z with drawn signs."""
    hi = [draw(st.sampled_from([0, 1, 6, 13])) for _ in range(3)]
    cells = draw(st.lists(st.tuples(*(st.integers(0, h) for h in hi)), min_size=3, max_size=200))
    bx, bz = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return [(x, y + bx * x + bz * z, z) for x, y, z in cells]


def csv_text(cells: list[tuple[int, int, int]], bad_line: bool = False) -> str:
    body = "".join(f"{x},{y},{z}\n" for x, y, z in cells)
    return "x,y,z\n" + body + ("1,2\n" if bad_line else "")


@SETTINGS
@given(
    cells=populations(),
    bad_line=st.sampled_from([False, False, False, True]),
    c0=st.sampled_from(["20", "150", "500", "5000"]),
)
def test_csv_commands_exit_documented(cells, bad_line, c0):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pop.csv"
        path.write_text(csv_text(cells, bad_line))
        plan = ["--c0", c0, *COSTS, "--units", str(len(cells)), "--csv", str(path)]
        analyze = assert_documented(["analyze", str(path)])
        allocate = assert_documented(["allocate", *plan, "--strategy", "all", "--oracle"])
        compare = assert_documented(["compare", *plan])
    # the costs are valid, so only the CSV can make allocate or compare an input error
    assert allocate != 2 or analyze == 2
    assert compare != 2 or analyze == 2


IDS = (*ESTIMATOR_IDS, *TRUE_VARIANT_IDS, "bogus")
RHO = st.floats(-0.45, 0.45).map(repr)  # any three keep the correlation matrix definite
# (section, key) pairs a mutation may replace, or drop when its value is None
MUTABLE = [("population", k) for k in ("units", "r_xy", "r_xz", "marginal_x", "mu_x", "sigma_x")]
MUTABLE += [("design", "m"), ("design", "n"), ("run", "replicates"), ("run", "master_seed"),
            ("run", "estimators")]


@st.composite
def sim_configs(draw) -> tuple[str, list[tuple[int, int, int]] | None]:
    """A simulate INI text, valid but for at most one mutated or dropped key,
    and the rows of its population CSV when the source is csv."""
    rows = draw(st.one_of(st.none(), populations()))
    if rows is None:
        units = draw(st.integers(4, 200))
        population = {
            "units": units,
            "r_xy": draw(RHO),
            "r_yz": draw(RHO),
            "r_xz": draw(RHO),
            "marginal_x": draw(st.sampled_from(["normal", "lognormal"])),
            "mu_x": draw(st.floats(-3.0, 3.0)),
            "sigma_x": draw(st.floats(0.1, 3.0)),
            "marginal_z": draw(st.sampled_from(["normal", "lognormal"])),
        }
    else:
        units = max(len(rows), 4)
        population = {"source": "csv", "csv_path": "{csv}", "units": len(rows)}
    m = draw(st.integers(2, units - 2))
    sections = {
        "population": population,
        "design": {"m": m, "n": draw(st.integers(m + 1, units))},
        "run": {
            "replicates": draw(st.integers(1, 3)),
            "master_seed": draw(st.integers(0, 2**64 - 1)),
            "estimators": ", ".join(draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5))),
        },
    }
    mutation = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(MUTABLE), st.sampled_from([None, "-1", "0", "nan", "x", "1e400", "%"]))))
    if mutation is not None:
        (section, key), value = mutation
        sections[section].pop(key, None)
        if value is not None:
            sections[section][key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    return text, rows


@SETTINGS
@given(config=sim_configs())
def test_simulate_exit_documented(config):
    text, rows = config
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if rows is not None:
            (tmp / "pop.csv").write_text(csv_text(rows))
        (tmp / "sim.ini").write_text(text.replace("{csv}", str(tmp / "pop.csv")))
        assert_documented(["simulate", str(tmp / "sim.ini"),
                           "--out-json", str(tmp / "r.json"), "--out-csv", str(tmp / "r.csv")])


# f_y**2 underflows to 0 at scale 1e300 and overflows at 1e-160; the other
# columns' sds overflow at 1e300 and their squared deviations underflow at 1e-160
SCALES = (1e-160, 1.0, 1e300)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(units=st.integers(20, 200), seed=st.integers(0, 2**32 - 1),
       scales=st.tuples(*[st.sampled_from(SCALES)] * 3), sigma_y=st.sampled_from(SCALES))
def test_extreme_scales_exit_documented(units, seed, scales, sigma_y):
    """Correlated normal columns times 10**k, k in {-160, 0, 300}, through
    analyze, compare --csv and a csv simulate, and a synthetic simulate with
    sigma_y = 10**k: documented exits, and no numpy warning on the way."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=units)
    cells = [scale * (w + rng.normal(size=units)) for scale in scales]
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cells))
    design = f"[design]\nm = {units // 4}\nn = {units // 2}\n"
    run_keys = "[run]\nreplicates = 2\nmaster_seed = 1\nestimators = median, reg-xz, f-linear\n"
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        tmp = Path(tmp)
        (tmp / "pop.csv").write_text("x,y,z\n" + rows)
        (tmp / "csv.ini").write_text(f"[population]\nsource = csv\ncsv_path = {tmp / 'pop.csv'}"
                                     f"\nunits = {units}\n{design}{run_keys}")
        (tmp / "synthetic.ini").write_text(
            f"[population]\nunits = {units}\nr_xy = 0.8\nr_yz = 0.6\nr_xz = 0.7\n"
            f"sigma_y = {sigma_y!r}\n{design}{run_keys}")
        outputs = ["--out-json", str(tmp / "r.json"), "--out-csv", str(tmp / "r.csv")]
        plan = ["--c0", "500", *COSTS, "--units", str(units), "--csv", str(tmp / "pop.csv")]
        for argv in (["analyze", str(tmp / "pop.csv")], ["compare", *plan],
                     ["simulate", str(tmp / "csv.ini"), *outputs],
                     ["simulate", str(tmp / "synthetic.ini"), *outputs]):
            assert_documented(argv)


# edge pools of the argv property: integers, floats, and the synthetic
# marginals whose draws overflow or whose median leaves the floats; each
# flag draws from its pool, and every other flag keeps its valid value
INTS = ("0", "1", "3", "-1", str(2**64), str(10**400))
FLOATS = ("nan", "inf", "-inf", "5e-324", "1e308")
MARGINALS = ("", "marginal_x = lognormal\nmu_x = -800\n",
             "marginal_x = lognormal\nmu_x = 800\n", "sigma_y = 1e308\n")
POOLS = {flag: INTS for flag in ("--m", "--n", "--seed", "--units", "--replicates", "--threads")}
POOLS.update({flag: FLOATS + INTS for flag in ("--c0", "--c1", "--c2", "--c3", "--v0", "--v1",
                                                "--v2", "--v3")})


@st.composite
def edge_command_lines(draw) -> tuple[list[str], dict[str, str], bool]:
    """A valid command line with up to two flags set from their edge pools,
    with ``{tmp}`` for the example's directory; the files it reads (name ->
    text); and whether the population it names has fewer than 4 units."""
    cmd = draw(st.sampled_from(["analyze", "estimate", "simulate", "allocate", "compare"]))
    csv = draw(st.sampled_from(["valid", "valid", "three", "missing"]))
    path = f"{{tmp}}/{csv}.csv"
    files, args, flags = {}, [path], {}
    small = csv == "three"  # the population CSV has 3 rows
    if cmd == "estimate":
        flags = {"--m": "10", "--n": "30", "--seed": None}
    elif cmd == "simulate":
        flags = dict.fromkeys(("--m", "--n", "--units", "--replicates", "--seed", "--threads"))
        if draw(st.booleans()):
            units = draw(st.integers(1, 8))
            population = (f"units = {units}\nr_xy = 0.8\nr_yz = 0.6\nr_xz = 0.5\n"
                          + draw(st.sampled_from(MARGINALS)))
            design = f"m = 2\nn = {draw(st.integers(3, max(3, units)))}\n"
            small = False
        else:
            units = 3 if csv == "three" else 40
            population = f"source = csv\ncsv_path = {path}\nunits = {units}\n"
            design = "m = 2\nn = 3\n" if units == 3 else "m = 10\nn = 30\n"
        files["sim.ini"] = (f"[population]\n{population}[design]\n{design}[run]\nreplicates = 2\n"
                            "master_seed = 1\nestimators = median, reg-xz, f-linear, g7\n")
        args = ["{tmp}/sim.ini", "--out-json", "{tmp}/r.json", "--out-csv", "{tmp}/r.csv"]
    elif cmd in ("allocate", "compare"):
        flags = {"--c0": "1000", "--c1": "4", "--c2": "0.7", "--c3": "0.3", "--units": "40"}
        if draw(st.booleans()):
            args = ["--csv", path]
        else:
            args, small = [], False
            flags.update({"--v0": "1", "--v1": "0.5", "--v2": "0.2", "--v3": None})
        if cmd == "allocate" and draw(st.booleans()):
            args.append("--oracle")
    if flags:
        edges = st.sampled_from(sorted(flags)).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(POOLS[flag])))
        flags.update(draw(st.lists(edges, max_size=2)))
    if cmd == "simulate":
        small = small or int(flags["--units"] or units) < 4
    argv = [cmd, *args, *(tok for flag, v in flags.items() if v is not None for tok in (flag, v))]
    return argv, files, small


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(command=edge_command_lines())
def test_edge_argv_exit_documented(command):
    """Every subcommand over edge values of its flags and inputs: a documented
    exit, no numpy or other warning, an ``error:`` line on exits 2 and 3 (an
    all-infeasible allocate reports in stdout instead), and exit 2 for a
    population below 4 units from either source."""
    argv, files, small = command
    rng = np.random.default_rng(3)
    w = rng.normal(size=40)
    with tempfile.TemporaryDirectory() as tmp:
        valid = zip(w + rng.normal(size=40), 2 * w, w - rng.normal(size=40))
        (Path(tmp) / "valid.csv").write_text(csv_text(list(valid)))
        (Path(tmp) / "three.csv").write_text(csv_text([(1, 2, 3), (2, 3, 1), (3, 1, 2)]))
        for name, text in files.items():
            (Path(tmp) / name).write_text(text.replace("{tmp}", tmp))
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        err = err.getvalue()
    assert code in EXIT_CODES, (argv, code, err)
    if code in (2, 3) and "error: " not in err:
        assert argv[0] == "allocate" and code == 3, (argv, code, err)
        allocations = json.loads(out.getvalue())["allocations"].values()
        assert all(not a["feasible"] and a["note"] for a in allocations), argv
    if small:
        assert code == 2, (argv, code, err)
