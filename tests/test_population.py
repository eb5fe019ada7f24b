"""Population model, census summaries, and CSV ingestion."""

import dataclasses
import gzip
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import write_population_csv
from dsmedian import cli, population
from dsmedian.core_stats import kde_at, median, proportion_matrix, silverman_bandwidth
from dsmedian.population import (
    Population,
    PopulationSummary,
    load_population_csv,
    population_summary,
)


def small_population(rng, N=200):
    x = rng.normal(10, 2, size=N)
    return Population(x=x, y=x * 0.5 + rng.normal(0, 1, size=N), z=rng.normal(5, 1, size=N))


class TestPopulation:
    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="^x, y, z must have equal length$"):
            Population(x=[1, 2, 3, 4], y=[1, 2, 3], z=[1, 2, 3, 4])

    def test_requires_four_units(self):
        with pytest.raises(ValueError,
                           match="^population needs at least 4 units for two-phase sampling$"):
            Population(x=[1, 2, 3], y=[1, 2, 3], z=[1, 2, 3])

    @pytest.mark.parametrize("columns, message", [
        (([1, 2, 3, 4], [1, np.nan, 3, 4], [1, 2, 3, 4]),
         "population variable y contains non-finite values"),
        (([1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, -np.inf]),
         "population variable z contains non-finite values"),
        # numpy's OverflowError and ValueError name the variable too
        (([10**400, 1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4]),
         "population variable x contains non-finite values"),
        (([1, 2, 3, 4], [1, 2, "a", 4], [1, 2, 3, 4]),
         "population variable y contains non-finite values"),
        (([1, 2, 3, 4], [1, 2, 3, 4], [[1, 2], 3, 4, 5]),
         "population variable z contains non-finite values"),
        # numpy would parse numeric strings and bytes; they are not reals
        ((["1", "2", "3", "4"], [1, 2, 3, 4], [1, 2, 3, 4]),
         "population variable x contains non-finite values"),
        (([1, 2, 3, 4], [b"1", b"2", b"3", b"4"], [1, 2, 3, 4]),
         "population variable y contains non-finite values"),
    ])
    def test_non_finite_names_the_variable(self, columns, message):
        with pytest.raises(ValueError) as info:
            Population(*columns)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_one_read_only_layout(self, rng):
        x, y, z = (rng.normal(size=50) for _ in range(3))
        pop = Population(x=x, y=y, z=z)
        assert pop.xyz.shape == (3, 50) and not pop.xyz.flags.writeable
        for row, name, given in zip(pop.xyz, ("x", "y", "z"), (x, y, z)):
            value = getattr(pop, name)
            assert value.base is pop.xyz and np.shares_memory(value, row)
            assert value.tobytes() == given.tobytes()
            assert not np.shares_memory(pop.xyz, given)

    def test_generated_population_adopts_its_draw(self, monkeypatch):
        from dsmedian import montecarlo
        from dsmedian.montecarlo import GeneratorSpec, MarginalSpec, generate_population
        from dsmedian.sampling import SeedSpec

        draws = []
        stream_generator = montecarlo._stream_generator

        class Recording:
            def __init__(self, master_seed, stream_id):
                self.rng = stream_generator(master_seed, stream_id)

            def standard_normal(self, shape):
                draws.append(self.rng.standard_normal(shape))
                return draws[-1]

        monkeypatch.setattr(montecarlo, "_stream_generator", Recording)
        normal = MarginalSpec("normal", 0.0, 1.0)
        pop = generate_population(GeneratorSpec(0.5, 0.5, 0.5, normal, normal, normal), 40,
                                  SeedSpec(3, 7))
        assert [d.shape for d in draws] == [(3, 40)]
        assert pop.xyz is draws[0] and not pop.xyz.flags.writeable
        assert all(getattr(pop, name).base is draws[0] for name in ("x", "y", "z"))

    def test_arrays_frozen(self, rng):
        pop = small_population(rng)
        with pytest.raises(ValueError):
            pop.x[0] = 99.0

    @pytest.mark.parametrize("N", [4, 41, 1000, 1001])
    def test_census_medians_equal_median_on_signed_zeros(self, N):
        # the cached medians skip median()'s checks of the validated rows,
        # not its bits: among tied zeros of both signs the sort picks the
        # sign, where selection alone differs about one time in two at N = 1000
        rng = np.random.default_rng(N)
        signs = set()
        for _ in range(20):
            cols = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(3, N), p=[0.2, 0.3, 0.3, 0.2])
            for pop in (Population(*cols), Population(*cols, _adopt=cols.copy())):
                for name in "xyz":
                    got = getattr(pop, f"median_{name}")
                    assert got.hex() == median(getattr(pop, name)).hex()
                    signs.add(got.hex())
        assert {"-0x0.0p+0", "0x0.0p+0"} <= signs

    def test_copies_even_read_only_input(self):
        x = np.arange(1.0, 9.0)
        x.flags.writeable = False
        pop = Population(x=x, y=x, z=x)
        x.flags.writeable = True
        x[0] = 99.0
        assert pop.x[0] == pop.y[0] == pop.z[0] == 1.0


class TestPopulationSummary:
    def test_identical_variables_example(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0]
        s = population_summary(Population(x=v, y=v, z=v))
        assert s.median_x == s.median_y == s.median_z == 3.0
        assert s.pm_xy.p11 == 0.6  # three of five units at or below 3

    def test_checkerboard_quadrants(self):
        # medians under the type-1 rule are -1 for x and y, -1 for z
        x = [-1.0, -1.0, 1.0, 1.0]
        y = [-1.0, 1.0, -1.0, 1.0]
        z = [1.0, -1.0, -1.0, 1.0]
        s = population_summary(Population(x=x, y=y, z=z))
        assert (s.median_x, s.median_y, s.median_z) == (-1.0, -1.0, -1.0)
        # brute-force quadrant counts at thresholds (-1, -1)
        assert s.pm_xy.p11 == 0.25  # only (-1, -1)
        assert s.pm_xy.p12 == 0.25  # (1, -1)
        assert s.pm_xy.p21 == 0.25
        assert s.pm_xy.p22 == 0.25

    def test_shift_equivariance(self, rng):
        pop = small_population(rng)
        s0 = population_summary(pop)
        shifted = Population(x=pop.x, y=pop.y + 7.5, z=pop.z)
        s1 = population_summary(shifted)
        assert s1.median_y == pytest.approx(s0.median_y + 7.5, abs=1e-12)
        assert s1.density_y == pytest.approx(s0.density_y, rel=1e-12)
        for name in ("pm_xy", "pm_xz", "pm_yz"):
            assert getattr(s1, name) == getattr(s0, name)

    def test_deterministic(self, rng):
        pop = small_population(rng)
        assert population_summary(pop) == population_summary(pop)

    def test_monotone_map_leaves_quadrants_invariant(self, rng):
        pop = small_population(rng)
        s0 = population_summary(pop)
        for _ in range(5):
            a, b = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.05, 1.0))
            tx = a * pop.x + b * pop.x**3  # strictly increasing
            s1 = population_summary(Population(x=tx, y=pop.y, z=pop.z))
            assert s1.pm_xy == s0.pm_xy
            assert s1.pm_xz == s0.pm_xz

    def test_marginals_near_half(self, rng):
        pop = small_population(rng, N=501)
        s = population_summary(pop)
        assert abs(s.pm_xy.p11 + s.pm_xy.p21 - 0.5) <= 1.0 / pop.N

    def test_degenerate_variable(self):
        with pytest.raises(ValueError, match="zero density at median"):
            population_summary(Population(x=[1, 1, 1, 1], y=[1, 2, 3, 4], z=[1, 2, 3, 4]))

    def test_overflowing_sum_is_degenerate_without_warnings(self):
        # the sd of +-1e308 sums inf and -inf to nan: a degenerate y, silently
        y = np.array([1e308] * 200 + [-1e308] * 200)
        x = np.linspace(0.0, 1.0, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^zero density at median: variable y is"):
                population_summary(Population(x=x, y=y, z=x[::-1]))

    def test_from_parameters_matrices(self):
        s = PopulationSummary.from_parameters(
            medians=(1, 2, 3), densities=(0.1, 0.2, 0.3), rhos=(0.5, -0.2, 0.0), N=100
        )
        assert s.pm_xy.concordance == pytest.approx(0.5, abs=1e-12)
        assert s.pm_yz.concordance == pytest.approx(-0.2, abs=1e-12)
        assert s.pm_xz.concordance == pytest.approx(0.0, abs=1e-12)
        assert s.pm_xy.p11 + s.pm_xy.p21 == pytest.approx(0.5, abs=1e-12)


def oracle_summary(pop):
    """The census summary through the validated public forms, or the name of
    the variable they find degenerate (no finite positive bandwidth, or an
    infinite density, which :class:`DensityEstimate` rejects)."""
    meds = {"x": median(pop.x), "y": median(pop.y), "z": median(pop.z)}
    cols = {"x": pop.x, "y": pop.y, "z": pop.z}
    dens = {}
    for name, values in cols.items():
        try:
            dens[name] = kde_at(values, meds[name], silverman_bandwidth(values)).value
        except ValueError:
            return name

    def pm(a, b):
        return proportion_matrix(np.column_stack((cols[a], cols[b])), meds[a], meds[b])

    return PopulationSummary(*meds.values(), *dens.values(), pm_xy=pm("x", "y"),
                             pm_xz=pm("x", "z"), pm_yz=pm("y", "z"), N=pop.N)


def as_hex(value):
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple(as_hex(v) for v in dataclasses.astuple(value))
    return value


@settings(derandomize=True, deadline=None, max_examples=150)
@given(N=st.integers(4, 1500), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["normal", "lognormal", "ties", "signed-zero"]))
@example(N=600, seed=1, kind="normal")
@example(N=601, seed=1, kind="ties")
@example(N=4, seed=0, kind="signed-zero")
def test_summary_equals_public_forms(N, seed, kind):
    """population_summary, bit for bit, is the public-form oracle: the
    Silverman bandwidth, kde_at and proportion_matrix over column_stack."""
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(3, N))
    cols[1] += cols[0]
    if kind == "lognormal":
        cols = np.exp(cols)
    elif kind == "ties":
        cols = np.round(2.0 * cols)
    elif kind == "signed-zero":  # medians of -0.0 among zeros of both signs
        cols = np.round(cols)
        zeros = cols == 0.0
        cols[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    pop = Population(*cols)
    expected = oracle_summary(pop)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"variable {expected} is degenerate"):
            population_summary(pop)
        return
    got = population_summary(pop)
    assert as_hex(got) == as_hex(expected)  # hex tells -0.0 from 0.0


def data_rows(n, end="\n", seed=5):
    """n rows of round-trip 17-digit reprs, each ending in ``end``."""
    values = np.random.default_rng(seed).lognormal(size=(n, 3))
    return "".join(",".join(repr(float(v)) for v in row) + end for row in values)


BIG = data_rows(5000)
BIG_CRLF = data_rows(5000, "\r\n")
SMALL = "1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
MID = BIG.index("\n", len(BIG) // 2) + 1  # start of a row half way through

VALID_FILES = {
    "repr17-5000-rows": "x,y,z\n" + BIG,
    "integers-and-exponents": "x,y,z\n1,-2,3e2\n4.5E-3,+5,6.\n.7,8e+0,-0\n10,1e-320,12\n",
    "crlf": "x,y,z\r\n" + SMALL.replace("\n", "\r\n"),
    "crlf-5000-rows": "x,y,z\r\n" + BIG_CRLF,
    "no-final-newline": "x,y,z\n" + SMALL[:-1],
    "no-final-newline-5000-rows": "x,y,z\n" + BIG[:-1],
    "padded": "x,y,z\n 1 ,\t2,3\t\n4 , 5 ,\t 6\n7,8,9\n10,11,  12  \n",
    "quoted": 'x,y,z\n"1",2,3\n4,"5",6\n7,8,"9"\n"10","11","12"\n',
    "underscore": "x,y,z\n1_000,2,3\n4,5,6\n7,8,9\n10,11,12\n",
    "lone-cr": "x,y,z\r" + SMALL.replace("\n", "\r"),
}

MALFORMED_FILES = {
    "blank-line-middle": "x,y,z\n1,2,3\n\n4,5,6\n7,8,9\n10,11,12\n",
    "blank-line-middle-crlf": "x,y,z\r\n1,2,3\r\n\r\n4,5,6\r\n7,8,9\r\n10,11,12\r\n",
    "blank-line-middle-5000-rows": "x,y,z\n" + BIG[:MID] + "\n" + BIG[MID:],
    "blank-line-end": "x,y,z\n" + SMALL + "\n",
    "blank-line-end-crlf": "x,y,z\r\n" + SMALL.replace("\n", "\r\n") + "\r\n",
    "blank-line-end-5000-rows-crlf": "x,y,z\r\n" + BIG_CRLF + "\r\n",
    "whitespace-line": "x,y,z\n1,2,3\n \t \n4,5,6\n7,8,9\n10,11,12\n",
    "trailing-comma": "x,y,z\n1,2,3,\n4,5,6,\n7,8,9,\n10,11,12,\n",
    "bad-header": "x,y,w\n" + SMALL,
    "header-only": "x,y,z\n",
    "header-only-no-newline": "x,y,z",
    "empty": "",
    "three-rows": "x,y,z\n1,2,3\n4,5,6\n7,8,9\n",
    "non-numeric": "x,y,z\n1,2,3\n4,oops,6\n7,8,9\n10,11,12\n",
    "nan": "x,y,z\n1,2,3\n4,nan,6\n7,8,9\n10,11,12\n",
    "inf": "x,y,z\n1,2,3\n4,5,6\n7,8,-inf\n10,11,12\n",
    "cr-before-crlf": "x,y,z\n1,2,3\r\r\n4,5,6\n7,8,9\n10,11,12\n",
    "unit-separator": "x,y,z\n1\x1c,2,3\n4,5,6\n7,8,9\n10,11,12\n",
}


def write_raw(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def outcome(load, path):
    """The arrays' bytes, or the exception type and message."""
    try:
        pop = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return pop.x.tobytes(), pop.y.tobytes(), pop.z.tobytes()


def refuse_reference(monkeypatch):
    def fail(path):
        raise AssertionError("the strict csv loop ran")

    monkeypatch.setattr(population, "_load_reference", fail)


class TestCsvIngestion:
    """Strict ingestion.  ``load_population_csv`` is also checked against the
    csv + float() loop it falls back on: the same bytes, or the same
    exception and message."""

    def test_round_trip(self, rng, tmp_path):
        pop = small_population(rng, N=50)
        path = write_population_csv(tmp_path / "pop.csv", pop)
        loaded = load_population_csv(path)
        assert np.array_equal(loaded.x, pop.x)
        assert np.array_equal(loaded.y, pop.y)
        assert np.array_equal(loaded.z, pop.z)

    def test_bad_header_names_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="x,y,z"):
            load_population_csv(p)

    def test_wrong_column_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,z\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 3"):
            load_population_csv(p)

    def test_non_numeric_reports_line_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,z\n1,2,3\n4,oops,6\n")
        with pytest.raises(ValueError, match="line 3.*column y"):
            load_population_csv(p)

    def test_median_of_loaded(self, tmp_path):
        p = tmp_path / "pop.csv"
        p.write_text("x,y,z\n" + "".join(f"{i},{i},{i}\n" for i in range(1, 6)))
        pop = load_population_csv(p)
        assert median(pop.y) == 3.0

    @pytest.mark.parametrize("name", VALID_FILES)
    def test_valid_matches_reference(self, tmp_path, name):
        path = write_raw(tmp_path / "pop.csv", VALID_FILES[name])
        expected = outcome(population._load_reference, path)
        assert len(expected) == 3, expected
        assert outcome(load_population_csv, path) == expected

    @pytest.mark.parametrize("name", MALFORMED_FILES)
    def test_malformed_matches_reference(self, tmp_path, name):
        path = write_raw(tmp_path / "bad.csv", MALFORMED_FILES[name])
        expected = outcome(population._load_reference, path)
        assert expected[0] is ValueError
        assert outcome(load_population_csv, path) == expected

    @pytest.mark.parametrize(
        "name", ["repr17-5000-rows", "crlf-5000-rows", "no-final-newline-5000-rows"]
    )
    def test_large_valid_files_skip_the_reference(self, tmp_path, monkeypatch, name):
        path = write_raw(tmp_path / "pop.csv", VALID_FILES[name])
        expected = outcome(population._load_reference, path)
        refuse_reference(monkeypatch)
        assert outcome(load_population_csv, path) == expected

    def test_crlf_split_across_read_chunks(self, tmp_path, monkeypatch):
        # the CR of one CRLF is the last byte of the first 1 MiB read
        text = "x,y,z\r\n" + data_rows(20000, "\r\n")
        cut = text.rindex("\r\n", 0, 2**20 - 100) + 2
        row = "1,1," + "1" * (2**20 - 5 - cut) + "\r\n"
        text = text[:cut] + row + text[cut:]
        assert text.encode()[2**20 - 1 : 2**20 + 1] == b"\r\n"
        path = write_raw(tmp_path / "pop.csv", text)
        expected = outcome(population._load_reference, path)
        refuse_reference(monkeypatch)
        assert outcome(load_population_csv, path) == expected

    @pytest.mark.parametrize("rows", [4, 5000])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, rows, cell):
        lines = data_rows(rows).splitlines(keepends=True)
        y_cell = lines[2].split(",")[1]
        lines[2] = lines[2].replace(y_cell, cell, 1)
        path = write_raw(tmp_path / "bad.csv", "x,y,z\n" + "".join(lines))
        message = f"line 4: column y is not a finite number: {cell!r}"
        for load in (load_population_csv, population._load_reference):
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == message

    def test_compressed_names_go_to_the_reference(self, tmp_path, monkeypatch):
        # numpy's loadtxt would decompress a name ending in .gz; the loader
        # reads the bytes as they are, like the reference
        plain = write_raw(tmp_path / "plain.csv.gz", "x,y,z\n" + SMALL)
        packed = tmp_path / "packed.csv.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        expected = [outcome(population._load_reference, path) for path in (plain, packed)]
        assert len(expected[0]) == 3  # the plain file loads

        def fail(*args, **kwargs):
            raise AssertionError("numpy's reader ran")

        monkeypatch.setattr(np, "loadtxt", fail)
        assert [outcome(load_population_csv, path) for path in (plain, packed)] == expected

    def test_a_name_like_a_url_is_a_local_file(self, tmp_path, monkeypatch):
        # numpy's loadtxt fetches a name with a scheme and a host; the loader
        # reads the local file of that relative name
        local = tmp_path / "http:" / "localhost"
        local.mkdir(parents=True)
        path = write_raw(local / "pop.csv", VALID_FILES["repr17-5000-rows"])
        expected = outcome(population._load_reference, path)
        refuse_reference(monkeypatch)

        def fail(*args, **kwargs):
            raise AssertionError("numpy opened a URL")

        monkeypatch.setattr("urllib.request.urlopen", fail)
        monkeypatch.chdir(tmp_path)
        assert outcome(load_population_csv, "http://localhost/pop.csv") == expected


class TestCsvDigest:
    """The CSV commands record the digest the load took: the sha256 of the
    file, with no second pass over it."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "CSV"],
        ["estimate", "CSV", "--m", "30", "--n", "120", "--seed", "1"],
        ["allocate", "--csv", "CSV", "--c0", "1000", "--c1", "4", "--c2", "0.7", "--c3", "0.3",
         "--units", "300"],
        ["compare", "--csv", "CSV", "--c0", "1000", "--c1", "4", "--c2", "0.7", "--c3", "0.3",
         "--units", "300"],
    ], ids=lambda argv: argv[0])
    def test_manifest_takes_the_load_digest(self, rng, tmp_path, monkeypatch, capsys, argv):
        path = write_population_csv(tmp_path / "pop.csv", small_population(rng, N=300))

        def fail(path):
            raise AssertionError("the manifest read the file again")

        monkeypatch.setattr(cli, "_digest_file", fail)
        assert cli.main([path if a == "CSV" else a for a in argv]) == 0
        digests = json.loads(capsys.readouterr().out)["manifest"]["input_digests"]
        assert digests == {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()}

    def test_digest_of_a_file_the_reference_parses(self, tmp_path):
        # a lone CR sends the file to the reference; the digest is the file's still
        path = write_raw(tmp_path / "pop.csv", "x,y,z\r" + SMALL.replace("\n", "\r"))
        assert load_population_csv(path)._sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
