"""Replicated two-phase sampling experiments against the variance theory.

A simulation draws R independent two-phase samples from one fixed
population (synthetic or CSV), evaluates a list of estimators on each,
and reports empirical bias and MSE next to the first-order theoretical
variance evaluated at the true population summary.  Everything is a pure
function of the configuration: replicate r uses random stream r, the
population (when synthetic) uses a reserved stream, and aggregation is
compensated summation in stream order over the rows that forked workers
return in blocks, so runs on any number of processes agree bit for bit.

Synthetic populations come from a trivariate Gaussian copula.  For a
median split of a bivariate normal with correlation r, the both-low
quadrant probability is 1/4 + arcsin(r)/(2*pi), so the concordance
coefficients of the generator are known analytically and the theory can
be evaluated at superpopulation-true values instead of census plug-ins.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .core_stats import _finite
from .estimators import (
    COEFFICIENT_IDS,
    ESTIMATOR_IDS,
    EstimatorError,
    G_FORM_IDS,
    PluginCoefficients,
    _plugin_rows,
    _views,
    evaluate_with_diagnostics,
    true_coefficients,
)
from .population import Population, PopulationSummary, load_population_csv, population_summary
from .population import _TOO_FEW_UNITS
from .sampling import SeedSpec, _draws, _integers, _stream_generator
from .variance_theory import (
    DesignSizes,
    VarianceComponents,
    min_var_F,
    min_var_H,
    min_var_g,
    var_class_g,
    var_sample_median,
    variance_components,
)

__all__ = [
    "MarginalSpec",
    "GeneratorSpec",
    "SimConfig",
    "EstimatorStats",
    "SimReport",
    "generate_population",
    "run_simulation",
    "map_replicates",
    "load_sim_config",
    "TRUE_VARIANT_IDS",
    "POPULATION_STREAM",
    "PopulationInputError",
]

#: Reserved stream id for drawing the synthetic population itself;
#: replicates use stream ids 0..R-1.
POPULATION_STREAM = 2**63

_CHOLESKY_BLOCK = 8192  # most columns per step of generate_population's Cholesky product
_CHUNK = 16  # replicates whose medians and plug-ins run as one array each

#: Fixed-coefficient twins of the plug-in estimators: same formulas run
#: with the population-true optimum coefficients (for estimated-optimum
#: equivalence checks on identical seeds).
TRUE_VARIANT_IDS = {
    "reg-x-true": "reg-x",
    "reg-xz-true": "reg-xz",
    "f-linear-true": "f-linear",
}

_ALL_IDS = tuple(ESTIMATOR_IDS) + tuple(TRUE_VARIANT_IDS)

_MARGINAL_KINDS = ("normal", "lognormal")


class PopulationInputError(ValueError):
    """The population a config names is unusable: its CSV does not load or
    has a row count other than ``units``, or ``units`` rows do not fit in
    memory.  A fault of the input, unlike the model errors
    ``run_simulation`` raises as ValueError."""


@dataclass(frozen=True)
class MarginalSpec:
    """One marginal of the generator: normal(mu, sigma) or lognormal with
    log-scale parameters (mu, sigma), whose median exp(mu) must be a
    positive finite float, as must its density at the median."""

    kind: str
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in _MARGINAL_KINDS:
            raise ValueError(f"marginal kind must be one of {_MARGINAL_KINDS}, got {self.kind!r}")
        if not (_finite(self.mu) and _finite(self.sigma) and self.sigma > 0.0):
            raise ValueError("marginal needs finite mu and sigma > 0")
        try:
            in_range = self.kind == "normal" or math.exp(self.mu) > 0.0
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(f"lognormal median exp(mu) is out of float range at mu = {self.mu!r}")
        if not math.isfinite(self.density_at_median):
            raise ValueError(
                f"{self.kind} density at the median is out of float range at "
                f"mu = {self.mu!r}, sigma = {self.sigma!r}"
            )
        for name in ("mu", "sigma"):  # an int or numpy float digests as the CLI's float
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def true_median(self) -> float:
        return self.mu if self.kind == "normal" else math.exp(self.mu)

    @property
    def density_at_median(self) -> float:
        peak = 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))
        return peak if self.kind == "normal" else peak / math.exp(self.mu)


@dataclass(frozen=True)
class GeneratorSpec:
    """Trivariate Gaussian copula with per-variable marginals."""

    r_xy: float
    r_yz: float
    r_xz: float
    marginal_x: MarginalSpec
    marginal_y: MarginalSpec
    marginal_z: MarginalSpec
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("r_xy", "r_yz", "r_xz"):
            r = getattr(self, name)
            if not (_finite(r) and abs(r) < 1.0):
                raise ValueError(f"correlation {name}={r!r} must satisfy |r| < 1")
            object.__setattr__(self, name, float(r))
        try:
            object.__setattr__(self, "_factor", np.linalg.cholesky(self.correlation_matrix()))
        except np.linalg.LinAlgError:
            raise ValueError("correlation matrix is not positive definite") from None
        self._factor.flags.writeable = False

    def correlation_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0, self.r_xy, self.r_xz],
                [self.r_xy, 1.0, self.r_yz],
                [self.r_xz, self.r_yz, 1.0],
            ]
        )

    def cholesky(self) -> np.ndarray:
        """The read-only lower Cholesky factor, computed once at construction."""
        return self._factor

    def concordances(self) -> tuple[float, float, float]:
        """(rho_xy, rho_yz, rho_xz): 2*arcsin(r)/pi for a median split of
        the Gaussian copula, invariant under the monotone marginals."""
        return tuple(2.0 * math.asin(r) / math.pi for r in (self.r_xy, self.r_yz, self.r_xz))

    def true_summary(self, N: int) -> PopulationSummary:
        """Superpopulation-true summary: analytic medians, densities and
        concordances (no census plug-ins)."""
        return PopulationSummary.from_parameters(
            medians=(
                self.marginal_x.true_median,
                self.marginal_y.true_median,
                self.marginal_z.true_median,
            ),
            densities=(
                self.marginal_x.density_at_median,
                self.marginal_y.density_at_median,
                self.marginal_z.density_at_median,
            ),
            rhos=self.concordances(),
            N=N,
        )


def generate_population(spec: GeneratorSpec, N: int, seed: SeedSpec) -> Population:
    """N i.i.d. trivariate draws: correlated standard normals through the
    Cholesky factor, applied in place over near-equal column blocks of at
    most ``_CHOLESKY_BLOCK`` (8192) columns, never one column wide, which
    numpy multiplies on another path, so no second (3, N) array is made;
    then one broadcast affine step for the three marginals and ``exp`` on
    the lognormal rows; the population adopts the array.  The standard
    normals are those of a fresh ``seed.generator()``, drawn by the
    thread's generator set to the stream's start.  An N below
    :class:`Population`'s minimum, checked before the draw, or whose (3, N)
    array cannot be allocated raises :class:`PopulationInputError`."""
    if N < 4:
        raise PopulationInputError(_TOO_FEW_UNITS)
    try:
        values = _stream_generator(seed.master_seed, seed.stream_id).standard_normal((3, N))
    except (MemoryError, ValueError):  # numpy: too large to allocate, or to index
        raise PopulationInputError(f"units = {N}: the population does not fit in memory") from None
    blocks = -(-N // _CHOLESKY_BLOCK)
    for b in range(blocks):
        block = values[:, b * N // blocks:(b + 1) * N // blocks]
        np.matmul(spec.cholesky(), block, out=block)
    marginals = (spec.marginal_x, spec.marginal_y, spec.marginal_z)
    with np.errstate(over="ignore"):  # an inf the population's finite check reports
        values *= np.array([[mg.sigma] for mg in marginals])
        values += np.array([[mg.mu] for mg in marginals])
        for row, marginal in zip(values, marginals):
            if marginal.kind == "lognormal":
                np.exp(row, out=row)
    return Population(*values, _adopt=values)


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation depends on; the report is a pure function
    of this object."""

    m: int
    n: int
    N: int
    replicates: int
    master_seed: int
    estimators: tuple[str, ...]
    generator: GeneratorSpec | None = None
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if (self.generator is None) == (self.csv_path is None):
            raise ValueError("exactly one population source required: generator or csv_path")
        DesignSizes(self.m, self.n, self.N)
        if not _integers(self.replicates):
            raise ValueError(f"replicates must be an integer, got {self.replicates!r}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if isinstance(self.estimators, str):
            raise ValueError(f"estimators must be a sequence of ids, got {self.estimators!r}")
        if not self.estimators:
            raise ValueError("estimator list is empty")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for est in self.estimators:
            if est not in _ALL_IDS:
                raise ValueError(f"unknown estimator id {est!r}")
        SeedSpec(self.master_seed)  # the seed range of every draw: [0, 2**64)
        for name in ("m", "n", "N", "replicates", "master_seed"):  # numpy integers digest as ints
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.csv_path is not None:  # a path-like digests as its str
            if not isinstance(path := os.fspath(self.csv_path), str):
                raise ValueError(f"csv_path must be a str or path-like, got {self.csv_path!r}")
            object.__setattr__(self, "csv_path", path)

    def canonical_dict(self) -> dict:
        """The fields in order, with the estimators as a list and the
        generator as its correlations and [kind, mu, sigma] marginals."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["estimators"] = list(self.estimators)
        if (g := self.generator) is not None:
            out["generator"] = {
                "r_xy": g.r_xy,
                "r_yz": g.r_yz,
                "r_xz": g.r_xz,
                "marginals": [
                    [mg.kind, mg.mu, mg.sigma]
                    for mg in (g.marginal_x, g.marginal_y, g.marginal_z)
                ],
            }
        return out

    def digest(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class EstimatorStats:
    """Aggregated Monte Carlo results for one estimator."""

    est_id: str
    replicates_ok: int
    mean: float
    bias: float
    relative_bias: float
    mse: float
    mse_mc_se: float
    theory_variance: float | None
    mse_theory_ratio: float | None
    failures: int
    clamps: int
    fallbacks: int


def _report_row(row: EstimatorStats) -> dict:
    """One row keyed by its report column names (``est_id`` is ``estimator``)."""
    d = asdict(row)
    return {"estimator": d.pop("est_id"), **d}


@dataclass(frozen=True, eq=False)
class SimReport:
    """Per-estimator statistics of one run of ``config``, the report's
    provenance: its digest, seed and design are read from it.
    ``estimates`` holds the raw R x len(estimators) matrix when requested
    (not serialized)."""

    config: SimConfig
    estimand: float
    rows: tuple[EstimatorStats, ...]
    valid: bool
    estimates: np.ndarray | None = None

    # where the theory's population summary comes from: the generator or the CSV's census
    summary_source = property(
        lambda self: "analytic" if self.config.generator is not None else "census")

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "config_digest": cfg.digest(),
            "master_seed": cfg.master_seed,
            "design": {"m": cfg.m, "n": cfg.n, "N": cfg.N, "replicates": cfg.replicates},
            "estimand": self.estimand,
            "summary_source": self.summary_source,
            "valid": self.valid,
            "estimators": [_report_row(r) for r in self.rows],
        }

    def csv_header(self) -> list[str]:
        return ["estimator", *(f.name for f in fields(EstimatorStats)[1:])]

    def csv_rows(self) -> list[list]:
        # repr keeps every bit of a float; a missing theory value is an empty cell
        return [
            [r.est_id, *("" if v is None else repr(v) for v in astuple(r)[1:])]
            for r in self.rows
        ]

    def stats(self, est_id: str) -> EstimatorStats:
        for row in self.rows:
            if row.est_id == est_id:
                return row
        raise KeyError(est_id)


def _theory_variance(
    est_id: str,
    sizes: DesignSizes,
    summary: PopulationSummary,
    comps: VarianceComponents,
) -> float | None:
    base = TRUE_VARIANT_IDS.get(est_id, est_id)
    if base == "median":
        return var_sample_median(sizes, summary)
    if base == "ratio-double":
        try:
            return var_class_g(sizes, summary, -1.0, 0.0)
        except ValueError:
            return None  # a zero scale product: the relative-error expansion is undefined
    if base == "reg-x":
        return min_var_H(sizes, comps)
    if base in ("reg-xz", *G_FORM_IDS):
        return min_var_g(sizes, comps)
    if base == "f-linear" and comps.V3 is not None:
        return min_var_F(sizes, comps)
    return None


def _mse_mc_se(sq_err: np.ndarray, mse: float) -> float:
    """Monte Carlo standard error of ``mse``, the mean of ``sq_err``.  Where
    the squared deviations from a finite ``mse`` overflow, they are summed
    relative to ``mse``; a finite direct sum keeps every bit."""
    k = sq_err.size
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf where an error overflowed
        dev_sq = (sq_err - mse) ** 2
    try:
        var_sq = math.fsum(dev_sq) / (k - 1)
    except OverflowError:  # finite terms whose sum overflows
        var_sq = math.inf
    if math.isfinite(var_sq) or not math.isfinite(mse):
        return math.sqrt(var_sq / k)
    return mse * math.sqrt(math.fsum((sq_err / mse - 1.0) ** 2) / (k - 1) / k)


def map_replicates(block: Callable[[int, int], np.ndarray], count: int, workers: int) -> np.ndarray:
    """``block(0, count)`` from contiguous blocks on forked worker processes.

    ``block(start, stop)`` returns one row per replicate.  The blocks of
    ``min(workers, os.cpu_count(), count)`` workers are concatenated in
    replicate order, so ``workers`` never changes the result.  Workers
    inherit ``block`` and its data (only rows and exceptions are pickled;
    a worker's exception is raised here), so the caller must run no other
    threads.  One worker runs ``block`` here, without multiprocessing."""
    workers = min(workers, os.cpu_count() or 1, count)
    if workers <= 1:
        return block(0, count)
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    bounds = [count * w // workers for w in range(workers + 1)]
    jobs, parts = [], []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_block, args=(sender, block, start, stop))
            with sender:
                proc.start()
            jobs.append((proc, receiver))
        for proc, receiver in jobs:
            failed, rows = receiver.recv()  # EOFError: the worker died without replying
            if failed:
                raise rows
            parts.append(rows)
    finally:
        for proc, receiver in jobs:
            if len(parts) < len(jobs):  # a worker failed: stop the others
                proc.terminate()
            proc.join()
            receiver.close()
    return np.concatenate(parts)


def _send_block(sender, block: Callable[[int, int], np.ndarray], start: int, stop: int) -> None:
    """Worker body of :func:`map_replicates`: send ``(failed, rows or exception)``."""
    with sender:
        try:
            reply = (False, block(start, stop))
        except Exception as exc:  # the parent raises it
            reply = (True, exc)
        sender.send(reply)


@dataclass(frozen=True, eq=False)
class _Plan:
    """What the replicates of a config share, with its columns: (column,
    catalog id, whether it runs with the true coefficients)."""

    config: SimConfig
    pop: Population
    true_summary: PopulationSummary
    comps: VarianceComponents
    true_coeffs: PluginCoefficients | None
    columns: tuple[tuple[int, str, bool], ...]


def _plan(config: SimConfig) -> _Plan:
    if config.generator is not None:
        pop = generate_population(
            config.generator, config.N, SeedSpec(config.master_seed, POPULATION_STREAM)
        )
        true_summary = config.generator.true_summary(config.N)
    else:
        try:
            pop = load_population_csv(config.csv_path)
        except ValueError as exc:
            raise PopulationInputError(str(exc)) from None
        if pop.N != config.N:
            raise PopulationInputError(f"CSV population has N={pop.N}, config says N={config.N}")
        true_summary = population_summary(pop)
    try:
        true_coeffs = true_coefficients(true_summary)
    except EstimatorError:
        true_coeffs = None  # every true-variant replicate counts as failed
    columns = tuple((j, TRUE_VARIANT_IDS.get(e, e), e in TRUE_VARIANT_IDS)
                    for j, e in enumerate(config.estimators))
    return _Plan(config, pop, true_summary, variance_components(true_summary), true_coeffs, columns)


def _replicate_rows(plan: _Plan, start: int, stop: int) -> np.ndarray:
    """Per replicate in [start, stop): the estimates, then the clamp and
    fallback flags, one column per id.  Each phase of the samples of
    :data:`_CHUNK` replicates is gathered from ``pop.xyz`` with one take,
    and their views (:func:`~dsmedian.estimators._views`) and plug-ins
    come from the last-axis kernels, with the bits of
    ``SampleView.from_population`` and ``plugin_coefficients`` on each
    replicate alone; every id then reads its replicate's view.  So the
    chunk size never changes a bit.  The chunk's samples are one block of
    streams, drawn by the one draw entry
    (:func:`~dsmedian.sampling._draws`), row for row the draw of
    ``draw_two_phase``."""
    cfg, pop = plan.config, plan.pop
    ids = cfg.estimators
    try:
        rows = np.zeros((stop - start, 3, len(ids)))
    except (MemoryError, ValueError, OverflowError):  # numpy: too large to allocate, or to index
        raise PopulationInputError(
            f"replicates = {cfg.replicates}: the results do not fit in memory"
        ) from None
    needs_plugin = any(e in COEFFICIENT_IDS for e in ids)
    for lo in range(start, stop, _CHUNK):
        reps = range(lo, min(lo + _CHUNK, stop))
        first_idx, second_idx = _draws(cfg.master_seed, reps, cfg.N, cfg.n, cfg.m)
        # x, y, z over S_m and x, z over S_n: take copies a strided source whole,
        # so the phase takes y too, from the contiguous array, at a cost in n not N
        second, first = pop.xyz.take(second_idx, axis=1), pop.xyz.take(first_idx, axis=1)[::2]
        views, ordered, meds = _views(second, first, pop.median_z, pop)
        coeffs = _plugin_rows(second, ordered, meds) if needs_plugin else [None] * len(reps)
        for view, c, row in zip(views, coeffs, rows[lo - start:]):
            estimates = [math.nan] * len(ids)
            for j, base, uses_true in plan.columns:
                cj = plan.true_coeffs if uses_true else c
                if base in COEFFICIENT_IDS and not isinstance(cj, PluginCoefficients):
                    continue  # the coefficients it needs are unavailable: the estimate stays NaN
                try:
                    estimates[j], clamped, fell_back = evaluate_with_diagnostics(base, view, cj)
                except EstimatorError:
                    continue  # the estimate stays NaN
                if clamped or fell_back:
                    row[1:, j] = clamped, fell_back
            row[0] = estimates
    return rows


def _aggregate(plan: _Plan, rows: np.ndarray, keep_estimates: bool) -> SimReport:
    """The report of the replicate rows: per-id statistics, summed in
    stream order."""
    cfg = plan.config
    R = cfg.replicates
    estimand = plan.pop.median_y
    sizes = DesignSizes(cfg.m, cfg.n, cfg.N)
    estimates, clamps, fallbacks = rows.transpose(1, 0, 2)
    stats = []
    valid = True
    for j, est in enumerate(cfg.estimators):
        col = estimates[:, j]
        ok = np.isfinite(col)
        k = int(np.count_nonzero(ok))
        failures = R - k
        if failures > 0.05 * R:
            valid = False
        theory = _theory_variance(est, sizes, plan.true_summary, plan.comps)
        mean = bias = relative_bias = mse = mse_mc_se = math.nan
        ratio = None
        if k:
            vals = col[ok]
            mean = math.fsum(vals) / k
            with np.errstate(over="ignore"):  # an estimate far out squares to inf
                sq_err = (vals - estimand) ** 2
            mse = math.fsum(sq_err) / k
            if k > 1:
                mse_mc_se = _mse_mc_se(sq_err, mse)
            bias = mean - estimand
            relative_bias = bias / estimand if estimand != 0.0 else math.inf
            ratio = mse / theory if theory else None
        stats.append(
            EstimatorStats(
                est_id=est,
                replicates_ok=k,
                mean=mean,
                bias=bias,
                relative_bias=relative_bias,
                mse=mse,
                mse_mc_se=mse_mc_se,
                theory_variance=theory,
                mse_theory_ratio=ratio,
                failures=failures,
                clamps=int(clamps[:, j].sum()),
                fallbacks=int(fallbacks[:, j].sum()),
            )
        )
    return SimReport(
        config=cfg,
        estimand=estimand,
        rows=tuple(stats),
        valid=valid,
        estimates=np.ascontiguousarray(estimates) if keep_estimates else None,
    )


def run_simulation(config: SimConfig, threads: int = 1, keep_estimates: bool = False) -> SimReport:
    """Run the experiment and aggregate.  Deterministic given the config;
    ``threads``, the worker process count, never changes the results.  A
    result matrix that cannot be allocated raises :class:`PopulationInputError`."""
    plan = _plan(config)
    rows = map_replicates(functools.partial(_replicate_rows, plan), config.replicates, threads)
    return _aggregate(plan, rows, keep_estimates)


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

_INI_KEYS = {
    "population": (
        "source",
        "csv_path",
        "units",
        "r_xy",
        "r_yz",
        "r_xz",
        "marginal_x",
        "mu_x",
        "sigma_x",
        "marginal_y",
        "mu_y",
        "sigma_y",
        "marginal_z",
        "mu_z",
        "sigma_z",
    ),
    "design": ("m", "n"),
    "run": ("replicates", "master_seed", "estimators"),
}


def load_sim_config(
    path,
    overrides: dict[str, str] | None = None,
    defaults: dict[str, Callable[[], object]] | None = None,
) -> SimConfig:
    """Parse a sectioned key = value simulation config; ``overrides`` are
    flat key -> string pairs (CLI flags) that take precedence, ignored where
    ``None``.  ``defaults`` map a key that both leave out to a function
    giving its value or ``None``, called only then."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    flat = {}
    try:  # a syntax or interpolation error is a fault of the file, like any other
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _INI_KEYS:
                raise ValueError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _INI_KEYS[section]:
                    raise ValueError(f"unknown config key [{section}] {key}")
                flat[key] = value
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    if overrides:
        flat.update({k: str(v) for k, v in overrides.items() if v is not None})
    for key, default in (defaults or {}).items():
        if key not in flat and (value := default()) is not None:
            flat[key] = str(value)

    def need(key: str) -> str:
        if key not in flat:
            raise ValueError(f"missing config key {key!r}")
        return flat[key]

    def parse(kind: type, key: str, default: str | None = None):
        raw = need(key) if default is None else flat.get(key, default)
        try:
            return kind(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None

    source = flat.get("source", "synthetic").strip().lower()
    estimators = tuple(
        tok.strip() for tok in need("estimators").split(",") if tok.strip()
    )
    common = dict(
        m=parse(int, "m"),
        n=parse(int, "n"),
        N=parse(int, "units"),
        replicates=parse(int, "replicates"),
        master_seed=parse(int, "master_seed"),
        estimators=estimators,
    )
    if source == "csv":
        return SimConfig(csv_path=need("csv_path"), **common)
    if source != "synthetic":
        raise ValueError(f"population source must be synthetic or csv, got {source!r}")

    def marginal(var: str) -> MarginalSpec:
        return MarginalSpec(
            kind=flat.get(f"marginal_{var}", "normal").strip().lower(),
            mu=parse(float, f"mu_{var}", "0.0"),
            sigma=parse(float, f"sigma_{var}", "1.0"),
        )

    gen = GeneratorSpec(
        r_xy=parse(float, "r_xy"),
        r_yz=parse(float, "r_yz"),
        r_xz=parse(float, "r_xz"),
        marginal_x=marginal("x"),
        marginal_y=marginal("y"),
        marginal_z=marginal("z"),
    )
    return SimConfig(generator=gen, **common)
