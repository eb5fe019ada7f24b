"""Finite-population data model and the population-level summary quantities.

A :class:`Population` is one (3, N) array of (x, y, z) values: the study
variate is y, x is the auxiliary whose median is estimated in the first
phase, and z is the second auxiliary whose population median is treated
as known.  :func:`population_summary` computes every quantity the variance
theory consumes: the three medians, the marginal densities at those
medians, and the three quadrant-proportion matrices.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .core_stats import ProportionMatrix, _finite, _finite_floats, _median_split, _quantile_selected
from .core_stats import _split_failure

__all__ = ["Population", "PopulationSummary", "population_summary", "load_population_csv"]

CSV_COLUMNS = ("x", "y", "z")

_TOO_FEW_UNITS = "population needs at least 4 units for two-phase sampling"


@dataclass(frozen=True, eq=False)
class Population:
    """A finite population of N units carrying (x, y, z) values, kept as the
    rows of one read-only (3, N) array ``xyz``: a copy of the arrays passed
    in (``_adopt``, for generate_population, is the (3, N) array whose rows
    are passed, kept without a copy)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    xyz: np.ndarray = field(init=False, repr=False)
    _adopt: InitVar[np.ndarray | None] = None

    def __post_init__(self, _adopt: np.ndarray | None) -> None:
        xyz = _adopt
        # an adopted float array takes one finiteness pass; the rows are
        # checked one by one only to name a failure
        if xyz is None or not np.isfinite(xyz).all():
            rows = [_finite_floats(getattr(self, name)) for name in ("x", "y", "z")]
            for name, row in zip(("x", "y", "z"), rows):
                if row is None:
                    raise ValueError(f"population variable {name} contains non-finite values")
            if not (rows[0].size == rows[1].size == rows[2].size):
                raise ValueError("x, y, z must have equal length")
            # reshape, unlike ravel, keeps a strided 1-D column a view: the stack is the one copy
            xyz = np.array([row.reshape(-1) for row in rows])
        if xyz.shape[1] < 4:
            raise ValueError(_TOO_FEW_UNITS)
        xyz.flags.writeable = False
        self.__dict__.update(xyz=xyz, x=xyz[0], y=xyz[1], z=xyz[2])

    N = property(lambda self: self.xyz.shape[1])

    # census medians of the validated rows, each computed on first use and
    # kept with the population: median()'s selection, without its checks
    median_x = cached_property(lambda self: float(_quantile_selected(self.x, 0.5)))
    median_y = cached_property(lambda self: float(_quantile_selected(self.y, 0.5)))
    median_z = cached_property(lambda self: float(_quantile_selected(self.z, 0.5)))


@dataclass(frozen=True)
class PopulationSummary:
    """True medians, densities at the medians, and quadrant proportions.

    These are the inputs of every closed-form variance in this package.
    ``pm_xy``, ``pm_xz``, ``pm_yz`` are the proportion matrices of the
    pairs (x, y), (x, z), (y, z) split at the respective medians.
    """

    median_x: float
    median_y: float
    median_z: float
    density_x: float
    density_y: float
    density_z: float
    pm_xy: ProportionMatrix
    pm_xz: ProportionMatrix
    pm_yz: ProportionMatrix
    N: int

    def __post_init__(self) -> None:
        for name in ("median_x", "median_y", "median_z"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("density_x", "density_y", "density_z"):
            d = getattr(self, name)
            if not (_finite(d) and d > 0.0):
                raise ValueError(f"zero density at median: {name}={d!r}")

    @property
    def concordances(self) -> tuple[float, float, float]:
        """(rho_xy, rho_yz, rho_xz), each 4*p11 - 1 clamped into [-1, 1]:
        odd counts and ties can push a census concordance past 1, while the
        variance algebra and the true optimum hold on the continuous-limit
        range.  Every reader of a summary's concordances reads them here."""
        pms = (self.pm_xy, self.pm_yz, self.pm_xz)
        return tuple(min(1.0, max(-1.0, pm.concordance)) for pm in pms)

    @classmethod
    def from_parameters(
        cls,
        medians: tuple[float, float, float],
        densities: tuple[float, float, float],
        rhos: tuple[float, float, float],
        N: int,
    ) -> "PopulationSummary":
        """Build a summary from (M_x, M_y, M_z), (f_x, f_y, f_z) and the
        median-concordance triple (rho_xy, rho_yz, rho_xz), rho = 4*P11 - 1.

        The proportion matrices are the symmetric ones with exact 0.5
        marginals: p11 = p22 = (1 + rho)/4, p12 = p21 = (1 - rho)/4.
        """

        def pm(rho: float) -> ProportionMatrix:
            if not -1.0 <= rho <= 1.0:
                raise ValueError(f"concordance coefficient {rho!r} outside [-1, 1]")
            lo, hi = (1.0 - rho) / 4.0, (1.0 + rho) / 4.0
            return ProportionMatrix(p11=hi, p12=lo, p21=lo, p22=hi)

        rho_xy, rho_yz, rho_xz = rhos
        return cls(
            median_x=medians[0],
            median_y=medians[1],
            median_z=medians[2],
            density_x=densities[0],
            density_y=densities[1],
            density_z=densities[2],
            pm_xy=pm(rho_xy),
            pm_xz=pm(rho_xz),
            pm_yz=pm(rho_yz),
            N=N,
        )


def population_summary(pop: Population) -> PopulationSummary:
    """Census summary of a population: medians, KDE densities, proportions.

    Medians use the package quantile convention; densities are Gaussian
    KDEs with Silverman bandwidths evaluated at the medians; the proportion
    matrices split each pair at the medians.  Both come from the owner the
    plug-ins share, :func:`~dsmedian.core_stats._median_split`, and a
    variable it finds degenerate raises ValueError naming it.
    Deterministic: identical input bits give identical output bits.
    """
    meds = (pop.median_x, pop.median_y, pop.median_z)
    xyz = pop.xyz[:, None]
    dens, counts, [code] = _median_split(xyz, np.sort(xyz), np.array(meds)[:, None])
    if code:
        name, _ = _split_failure(code)
        raise ValueError(f"zero density at median: variable {name} is degenerate")
    pm_xy, pm_yz, pm_xz = (ProportionMatrix(*proportions)
                           for proportions in (np.array(counts)[..., 0].T / pop.N).tolist())
    return PopulationSummary(*meds, *dens[:, 0].tolist(), pm_xy=pm_xy, pm_xz=pm_xz, pm_yz=pm_yz,
                             N=pop.N)


def load_population_csv(path) -> Population:
    """Read a population from CSV with the exact header ``x,y,z``.

    One unit per line, decimal-point reals.  Parsing is strict: a wrong
    column count, a blank line, or a non-numeric or non-finite field raises
    ValueError naming the line.

    numpy's C reader parses the data rows when the checks in
    :func:`_data_records` and :func:`_loadtxt_table` show its result is the
    one the strict ``csv`` + ``float()`` reference would give; every other
    file, valid or not, goes to the reference, which returns the population
    or raises the error that names the line.  The pass that counts the
    lines also takes the file's sha256, kept on the population as
    ``_sha256``: the digest the CLI manifest records.
    """
    with open(path, newline="") as fh:
        _read_header(csv.reader(fh))
    records, digest = _data_records(path)
    table = _loadtxt_table(path, records)
    pop = _load_reference(path) if table is None else Population(*table.T)
    object.__setattr__(pop, "_sha256", digest)
    return pop


def _read_header(reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV: missing header row") from None
    names = tuple(h.strip() for h in header)
    if names != CSV_COLUMNS:
        raise ValueError(
            f"bad header: expected columns {','.join(CSV_COLUMNS)}, got {','.join(names)}"
        )


# ASCII separators: numpy strips them around a number as whitespace, float() does not
_UNIT_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _data_records(path) -> tuple[int | None, str]:
    """Lines after a one-line header, counted as ``\\n`` bytes, or None when
    the count could be wrong (a lone CR ends a line too) or a byte in
    0x1c..0x1f could make numpy accept a field that float() rejects; and the
    sha256 hex digest of the file."""
    sha = hashlib.sha256()
    newlines = lone_crs = separators = 0
    last = b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if chunk.endswith(b"\r"):  # keep a CRLF split across chunks whole
                chunk += fh.read(1)
            sha.update(chunk)
            separators += any(sep in chunk for sep in _UNIT_SEPARATORS)
            # a byte view counts newlines about 4x faster than bytes.count
            newlines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 0x0A))
            if b"\r" in chunk:
                lone_crs += chunk.count(b"\r") - chunk.count(b"\r\n")
            last = chunk[-1:]
    records = None if separators or lone_crs else newlines - 1 + (last != b"\n")
    return records, sha.hexdigest()


# names numpy's loadtxt opens through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_table(path, records: int | None) -> np.ndarray | None:
    """The rows after the header as a (records, 3) array of finite values, or None.

    ``loadtxt`` accepts a subset of the number strings float() accepts and
    gives the same bits, but it skips blank lines, which the reference
    rejects: a row count short of ``records`` sends the file to the
    reference, as does anything else the reference must judge.

    Given a file name rather than a file object, ``loadtxt`` reads in
    blocks instead of line by line, about 15 % faster.  The name is joined
    to the working directory, so numpy never takes it for a URL, and a name
    numpy would decompress goes to the reference.
    """
    name = os.fsdecode(path)
    if records is None or name.endswith(_COMPRESSED):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                os.path.join(os.getcwd(), name), skiprows=1, delimiter=",", comments=None,
                quotechar=None, dtype=float, ndmin=2,
            )
    except ValueError:
        return None
    if table.shape != (records, 3) or not np.isfinite(table).all():
        return None
    return table


def _load_reference(path) -> Population:
    """The strict ``csv.reader`` + ``float()`` parser: the reference for the
    numpy path and the reporter of every error past the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader)
        cols: list[list[float]] = [[], [], []]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: column {CSV_COLUMNS[j]} is not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"line {lineno}: column {CSV_COLUMNS[j]} is not a finite number: {cell!r}"
                    )
                cols[j].append(value)
    return Population(*cols)
