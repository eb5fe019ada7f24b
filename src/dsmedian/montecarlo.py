"""Replicated two-phase sampling experiments against the variance theory.

A simulation draws R independent two-phase samples from one fixed
population (synthetic or CSV), evaluates a list of estimators on each,
and reports empirical bias and MSE next to the first-order theoretical
variance evaluated at the true population summary.  Everything is a pure
function of the configuration: replicate r uses random stream r, the
population (when synthetic) uses a reserved stream, and aggregation is
compensated summation in stream order, so serial and threaded runs agree
bit for bit.

Synthetic populations come from a trivariate Gaussian copula.  For a
median split of a bivariate normal with correlation r, the both-low
quadrant probability is 1/4 + arcsin(r)/(2*pi), so the concordance
coefficients of the generator are known analytically and the theory can
be evaluated at superpopulation-true values instead of census plug-ins.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .estimators import (
    COEFFICIENT_IDS,
    ESTIMATOR_IDS,
    EstimatorError,
    G_FORM_IDS,
    PluginCoefficients,
    SampleView,
    evaluate_with_diagnostics,
    plugin_coefficients,
    true_coefficients,
)
from .population import Population, PopulationSummary, load_population_csv, population_summary
from .sampling import SeedSpec, draw_two_phase
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
    "load_sim_config",
    "TRUE_VARIANT_IDS",
    "POPULATION_STREAM",
    "PopulationInputError",
]

#: Reserved stream id for drawing the synthetic population itself;
#: replicates use stream ids 0..R-1.
POPULATION_STREAM = 2**63

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
    """The population CSV a config names is unusable: it does not load, or
    its row count differs from the config's ``units``.  A fault of the
    input, unlike the model errors ``run_simulation`` raises as ValueError."""


@dataclass(frozen=True)
class MarginalSpec:
    """One marginal of the generator: normal(mu, sigma) or lognormal with
    log-scale parameters (mu, sigma)."""

    kind: str
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in _MARGINAL_KINDS:
            raise ValueError(f"marginal kind must be one of {_MARGINAL_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("marginal needs finite mu and sigma > 0")

    @property
    def true_median(self) -> float:
        return self.mu if self.kind == "normal" else math.exp(self.mu)

    @property
    def density_at_median(self) -> float:
        peak = 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))
        return peak if self.kind == "normal" else peak / math.exp(self.mu)

    def transform(self, std_normal: np.ndarray) -> np.ndarray:
        shifted = self.sigma * std_normal
        shifted += self.mu
        return shifted if self.kind == "normal" else np.exp(shifted, out=shifted)


@dataclass(frozen=True)
class GeneratorSpec:
    """Trivariate Gaussian copula with per-variable marginals."""

    r_xy: float
    r_yz: float
    r_xz: float
    marginal_x: MarginalSpec
    marginal_y: MarginalSpec
    marginal_z: MarginalSpec

    def __post_init__(self) -> None:
        for name in ("r_xy", "r_yz", "r_xz"):
            r = getattr(self, name)
            if not (math.isfinite(r) and abs(r) < 1.0):
                raise ValueError(f"correlation {name}={r!r} must satisfy |r| < 1")
        self.cholesky()

    def correlation_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0, self.r_xy, self.r_xz],
                [self.r_xy, 1.0, self.r_yz],
                [self.r_xz, self.r_yz, 1.0],
            ]
        )

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.correlation_matrix())
        except np.linalg.LinAlgError:
            raise ValueError("correlation matrix is not positive definite") from None

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
    Cholesky factor, then the marginal transforms."""
    if N < 4:
        raise ValueError("population size must be at least 4")
    rng = seed.generator()
    std = rng.standard_normal(size=(3, N))
    corr = spec.cholesky() @ std
    return Population(
        x=spec.marginal_x.transform(corr[0]),
        y=spec.marginal_y.transform(corr[1]),
        z=spec.marginal_z.transform(corr[2]),
    )


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
        if not 2 <= self.m < self.n <= self.N:
            raise ValueError(f"require 2 <= m < n <= N, got m={self.m}, n={self.n}, N={self.N}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not self.estimators:
            raise ValueError("estimator list is empty")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for est in self.estimators:
            if est not in _ALL_IDS:
                raise ValueError(f"unknown estimator id {est!r}")
        if not 0 <= self.master_seed < 2**63:
            raise ValueError("master_seed must fit in 63 bits")

    def canonical_dict(self) -> dict:
        gen = None
        if self.generator is not None:
            g = self.generator
            gen = {
                "r_xy": g.r_xy,
                "r_yz": g.r_yz,
                "r_xz": g.r_xz,
                "marginals": [
                    [mg.kind, mg.mu, mg.sigma]
                    for mg in (g.marginal_x, g.marginal_y, g.marginal_z)
                ],
            }
        return {
            "m": self.m,
            "n": self.n,
            "N": self.N,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "estimators": list(self.estimators),
            "generator": gen,
            "csv_path": self.csv_path,
        }

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
    """Per-estimator statistics plus provenance; ``estimates`` holds the
    raw R x len(estimators) matrix when requested (not serialized)."""

    config_digest: str
    master_seed: int
    m: int
    n: int
    N: int
    replicates: int
    estimand: float
    summary_source: str
    rows: tuple[EstimatorStats, ...]
    valid: bool
    estimates: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "master_seed": self.master_seed,
            "design": {"m": self.m, "n": self.n, "N": self.N, "replicates": self.replicates},
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
    comps: VarianceComponents | None,
) -> float | None:
    base = TRUE_VARIANT_IDS.get(est_id, est_id)
    if base == "median":
        return var_sample_median(sizes, summary)
    if base == "ratio-double":
        try:
            return var_class_g(sizes, summary, -1.0, 0.0)
        except ValueError:
            return None  # a zero scale product: the relative-error expansion is undefined
    if comps is None:
        return None
    if base == "reg-x":
        return min_var_H(sizes, comps)
    if base in ("reg-xz", *G_FORM_IDS):
        return min_var_g(sizes, comps)
    if base == "f-linear":
        return min_var_F(sizes, comps)
    return None


def run_simulation(config: SimConfig, threads: int = 1, keep_estimates: bool = False) -> SimReport:
    """Run the experiment and aggregate.  Deterministic given the config;
    ``threads`` only changes the execution schedule, never the results."""
    if config.generator is not None:
        pop = generate_population(
            config.generator, config.N, SeedSpec(config.master_seed, POPULATION_STREAM)
        )
        true_summary = config.generator.true_summary(config.N)
        summary_source = "analytic"
    else:
        try:
            pop = load_population_csv(config.csv_path)
        except ValueError as exc:
            raise PopulationInputError(str(exc)) from None
        if pop.N != config.N:
            raise PopulationInputError(f"CSV population has N={pop.N}, config says N={config.N}")
        true_summary = population_summary(pop)
        summary_source = "census"

    estimand = pop.median_y
    sizes = DesignSizes(config.m, config.n, config.N)
    try:
        comps = variance_components(true_summary)
    except ValueError:
        comps = None  # collinear auxiliaries: class minima undefined
    ids = config.estimators
    needs_plugin = any(e in COEFFICIENT_IDS for e in ids)
    true_coeffs: PluginCoefficients | None = None
    if any(e in TRUE_VARIANT_IDS for e in ids):
        try:
            true_coeffs = true_coefficients(true_summary)
        except EstimatorError:
            true_coeffs = None  # every true-variant replicate counts as failed
    # (column, catalog id, whether it runs with the true coefficients)
    plan = [(j, TRUE_VARIANT_IDS.get(e, e), e in TRUE_VARIANT_IDS) for j, e in enumerate(ids)]

    R = config.replicates
    estimates = np.full((R, len(ids)), np.nan)
    clamps = np.zeros((R, len(ids)), dtype=np.int64)
    fallbacks = np.zeros((R, len(ids)), dtype=np.int64)

    def one_replicate(r: int) -> None:
        sample = draw_two_phase(config.N, config.n, config.m, SeedSpec(config.master_seed, r))
        view = SampleView.from_population(pop, sample)
        coeffs: PluginCoefficients | None = None
        if needs_plugin:
            try:
                coeffs = plugin_coefficients(view)
            except EstimatorError:
                pass  # the coefficient ids fail this replicate
        for j, base, uses_true in plan:
            c = true_coeffs if uses_true else coeffs
            if c is None and base in COEFFICIENT_IDS:
                continue  # the coefficients it needs are unavailable: the estimate stays NaN
            try:
                estimates[r, j], clamped, fell_back = evaluate_with_diagnostics(base, view, c)
            except EstimatorError:
                continue  # the estimate stays NaN
            if clamped:
                clamps[r, j] = 1
            if fell_back:
                fallbacks[r, j] = 1

    if threads <= 1:
        for r in range(R):
            one_replicate(r)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_replicate, range(R)))

    rows = []
    valid = True
    for j, est in enumerate(ids):
        col = estimates[:, j]
        ok = np.isfinite(col)
        k = int(np.count_nonzero(ok))
        failures = R - k
        if failures > 0.05 * R:
            valid = False
        theory = _theory_variance(est, sizes, true_summary, comps)
        mean = bias = relative_bias = mse = mse_mc_se = math.nan
        ratio = None
        if k:
            vals = col[ok]
            mean = math.fsum(vals) / k
            sq_err = (vals - estimand) ** 2
            mse = math.fsum(sq_err) / k
            if k > 1:
                var_sq = math.fsum((sq_err - mse) ** 2) / (k - 1)
                mse_mc_se = math.sqrt(var_sq / k)
            bias = mean - estimand
            relative_bias = bias / estimand if estimand != 0.0 else math.inf
            ratio = mse / theory if theory else None
        rows.append(
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
        config_digest=config.digest(),
        master_seed=config.master_seed,
        m=config.m,
        n=config.n,
        N=config.N,
        replicates=R,
        estimand=estimand,
        summary_source=summary_source,
        rows=tuple(rows),
        valid=valid,
        estimates=estimates if keep_estimates else None,
    )


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
    defaults: dict[str, str] | None = None,
) -> SimConfig:
    """Parse a sectioned key = value simulation config; ``overrides`` are
    flat key -> string pairs (CLI flags) that take precedence, ``defaults``
    fill keys the file leaves out.  ``None`` values are ignored."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    flat = {k: str(v) for k, v in (defaults or {}).items() if v is not None}
    for section, keys in _INI_KEYS.items():
        if not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown config key [{section}] {key}")
            flat[key] = value
    if overrides:
        flat.update({k: str(v) for k, v in overrides.items() if v is not None})

    def need(key: str) -> str:
        if key not in flat:
            raise ValueError(f"missing config key {key!r}")
        return flat[key]

    source = flat.get("source", "synthetic").strip().lower()
    estimators = tuple(
        tok.strip() for tok in need("estimators").split(",") if tok.strip()
    )
    common = dict(
        m=int(need("m")),
        n=int(need("n")),
        N=int(need("units")),
        replicates=int(need("replicates")),
        master_seed=int(need("master_seed")),
        estimators=estimators,
    )
    if source == "csv":
        return SimConfig(csv_path=need("csv_path"), **common)
    if source != "synthetic":
        raise ValueError(f"population source must be synthetic or csv, got {source!r}")

    def marginal(var: str) -> MarginalSpec:
        return MarginalSpec(
            kind=flat.get(f"marginal_{var}", "normal").strip().lower(),
            mu=float(flat.get(f"mu_{var}", "0.0")),
            sigma=float(flat.get(f"sigma_{var}", "1.0")),
        )

    gen = GeneratorSpec(
        r_xy=float(need("r_xy")),
        r_yz=float(need("r_yz")),
        r_xz=float(need("r_xz")),
        marginal_x=marginal("x"),
        marginal_y=marginal("y"),
        marginal_z=marginal("z"),
    )
    return SimConfig(generator=gen, **common)
