"""Workload process of the dsmedian benchmark.

    python3 perfbench/workloads.py setup INPUTS
    python3 perfbench/workloads.py run INPUTS SECONDS TRACE
    python3 perfbench/workloads.py record

``setup`` imports every dsmedian module and runs the workload's gate: the
untimed warm-up on fixed canonical inputs, whose digests must equal those
in golden.json.  ``run`` does the same, then repeats the workload's pass --
a fixed unit of work on the seeded inputs, identical every time -- for
SECONDS and prints one JSON line of results for run.py.  With TRACE=1 the
passes are traced: spans around every call into a dsmedian module, and
the per-layer metrics computed from them.  ``record`` prints the gate
digests of the current code, the content of golden.json.

Every process runs on one thread (run.py sets the BLAS/OpenMP variables,
and run_simulation gets threads=1).  Run from the checkout root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import dsmedian.cli as cli  # noqa: E402  (imports every dsmedian module)
from dsmedian import (  # noqa: E402
    EstimatorError,
    GeneratorSpec,
    MarginalSpec,
    SampleView,
    SeedSpec,
    SimConfig,
    draw_two_phase,
    evaluate_estimator,
    generate_population,
    median,
    plugin_coefficients,
    run_simulation,
    true_coefficients,
    variance_components,
)
from dsmedian.estimators import COEFFICIENT_IDS, G_FORM_IDS  # noqa: E402
from dsmedian.montecarlo import POPULATION_STREAM, TRUE_VARIANT_IDS  # noqa: E402

from calibrate import calibration_s, speed_factor  # noqa: E402
from inputs import GATE_CSV, GATE_CSV_SEED, GATE_CSV_UNITS, WORK_DIR, skewed_population, write_csv  # noqa: E402
from tracing import NullTracer, Tracer, counting_sorts, patched, percentile, traced  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
NULL = NullTracer()

CLASS_IDS = (*G_FORM_IDS, "reg-x", "reg-xz", "f-linear")
ACCEPTANCE_IDS = ("median", *CLASS_IDS, "reg-x-true", "reg-xz-true", "f-linear-true")
_NORMAL = MarginalSpec("normal", 10.0, 2.0)
GENERATOR = GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7,
                          marginal_x=_NORMAL, marginal_y=_NORMAL, marginal_z=_NORMAL)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    """One pass: its wall time, output digest, counts of attempted and failed
    operations, and the time of each of its timed calls (``op_s``, in a
    fixed order) with the number of replicates each call completes.

    ``failed`` counts the program's own failures, the share that
    ``failed_share`` reports: estimates that are NaN or raise
    EstimatorError, and CLI commands that exit nonzero.  They are outcomes
    of the code on the seeded inputs, the same in every pass.  ``unexpected``
    counts operations that end in none of the outcomes the program defines
    (a CLI exit code outside them); it is the result line's ``failed``."""

    wall: float
    digest: str
    attempted: int
    failed: int
    op_s: list[float]
    op_replicates: list[int]
    detail: object = None
    notes: list[str] = field(default_factory=list)
    unexpected: int = 0


# ---------------------------------------------------------------------------
# mc-acceptance: run_simulation on the acceptance config
# ---------------------------------------------------------------------------

# Keys of SimReport.to_json_dict() at the commit that recorded golden.json.
# The digest covers exactly these, so a later key added to the artifact
# does not break the gate while any change to these values does.
_REPORT_KEYS = ("config_digest", "master_seed", "design", "estimand", "summary_source", "valid")
_ROW_KEYS = ("estimator", "replicates_ok", "mean", "bias", "relative_bias", "mse", "mse_mc_se",
             "theory_variance", "mse_theory_ratio", "failures", "clamps", "fallbacks")


def report_digest(report) -> str:
    d = report.to_json_dict()
    canon = {k: d[k] for k in _REPORT_KEYS}
    canon["estimators"] = [{k: row[k] for k in _ROW_KEYS} for row in d["estimators"]]
    return sha256(json.dumps(canon, sort_keys=True))


def acceptance_config(master_seed: int, replicates: int) -> SimConfig:
    return SimConfig(m=150, n=600, N=5000, replicates=replicates, master_seed=master_seed,
                     estimators=ACCEPTANCE_IDS, generator=GENERATOR)


def _evaluate(est: str, view, coeffs, true_coeffs) -> float:
    """One estimate as run_simulation computes it, for the acceptance ids."""
    if est in TRUE_VARIANT_IDS:
        if true_coeffs is None:
            raise EstimatorError("true optimum coefficients unavailable")
        return evaluate_estimator(TRUE_VARIANT_IDS[est], view, true_coeffs)
    if est in COEFFICIENT_IDS and coeffs is None:
        raise EstimatorError("plug-in coefficients unavailable")
    return evaluate_estimator(est, view, coeffs)


def _catalog(ids, view, coeffs, true_coeffs, out: np.ndarray, tracer) -> int:
    """Fill ``out`` with the estimates (NaN where one fails); return the
    number of failures."""
    failed = 0
    for j, est in enumerate(ids):
        try:
            out[j] = _evaluate(est, view, coeffs, true_coeffs)
        except EstimatorError:
            out[j] = np.nan
        if not math.isfinite(out[j]):
            failed += 1
    tracer.count("estimators.evals", len(ids))
    tracer.count("estimators.eval_failures", failed)
    return failed


def _coefficients(view, tracer):
    with tracer.span("estimators.coef"):
        try:
            return plugin_coefficients(view)
        except EstimatorError:
            tracer.count("estimators.coef_failures")
            return None


def replay_simulation(config: SimConfig, rows, tracer=NULL) -> np.ndarray:
    """run_simulation's replicate loop through the public scalar API, for
    the replicates in ``rows``: the estimates matrix restricted to them."""
    with tracer.span("population.generate"):
        pop = generate_population(config.generator, config.N,
                                  SeedSpec(config.master_seed, POPULATION_STREAM))
    summary = config.generator.true_summary(config.N)
    with tracer.span("variance_theory.components"):
        variance_components(summary)
    try:
        true_coeffs = true_coefficients(summary)
    except EstimatorError:
        true_coeffs = None
    known_mx, known_mz = median(pop.x), median(pop.z)
    out = np.full((len(rows), len(config.estimators)), np.nan)
    for i, r in enumerate(rows):
        tracer.enter(r, replicate=True)
        with tracer.span("sampling.draw"):
            sample = draw_two_phase(config.N, config.n, config.m, SeedSpec(config.master_seed, r))
        with tracer.span("estimators.view"):
            sm, sn = sample.second_phase, sample.first_phase
            view = SampleView(y_m=pop.y[sm], x_m=pop.x[sm], z_m=pop.z[sm], x_n=pop.x[sn],
                              z_n=pop.z[sn], known_mz=known_mz, known_mx=known_mx)
        coeffs = _coefficients(view, tracer)
        with tracer.span("estimators.catalog"):
            _catalog(config.estimators, view, coeffs, true_coeffs, out[i], tracer)
    tracer.enter("aggregate")
    return out


class McAcceptance:
    """run_simulation on the acceptance config, master seed from the inputs."""

    name = "mc-acceptance"
    GATE_SEED = 20250801
    GATE_REPLICATES = 20
    PASS_REPLICATES = 200
    SPOT_CHECKS = 8

    def __init__(self, inputs: dict, replicates: int = PASS_REPLICATES) -> None:
        self.config = acceptance_config(inputs["master_seed"], replicates)
        rng = np.random.default_rng(inputs["master_seed"])
        self.spot = sorted(rng.choice(replicates, size=min(self.SPOT_CHECKS, replicates),
                                      replace=False).tolist())

    def gate(self) -> str:
        config = acceptance_config(self.GATE_SEED, self.GATE_REPLICATES)
        return report_digest(run_simulation(config, threads=1))

    def run_pass(self, tracer=NULL) -> Pass:
        R = self.config.replicates
        tracer.enter("run_simulation")
        with tracer.span("montecarlo.run_simulation"):
            t0 = time.perf_counter()
            report = run_simulation(self.config, threads=1, keep_estimates=True)
            wall = time.perf_counter() - t0
        est = report.estimates
        return Pass(wall=wall, digest=report_digest(report), attempted=est.size,
                    failed=int(np.count_nonzero(~np.isfinite(est))), op_s=[wall],
                    op_replicates=[R], detail=est)

    def check(self, first: Pass) -> list[str]:
        replayed = replay_simulation(self.config, self.spot)
        if not np.array_equal(replayed, first.detail[self.spot], equal_nan=True):
            return [f"scalar replay of replicates {self.spot} differs from run_simulation"]
        return []

    def traced_pass(self, tracer: Tracer) -> tuple[Pass, float, list[str]]:
        """run_simulation, then its replay with spans; returns the pass,
        the replay's wall time and any mismatch."""
        p = self.run_pass(tracer)
        t0 = time.perf_counter()
        with tracer.span("bench.replay"):
            replayed = replay_simulation(self.config, range(self.config.replicates), tracer)
        replay_wall = time.perf_counter() - t0
        problems = []
        if not np.array_equal(replayed, p.detail, equal_nan=True):
            problems.append("traced replay differs from run_simulation(keep_estimates=True)")
        return p, replay_wall, problems

    def sort_sample(self, tracer: Tracer) -> None:
        replay_simulation(self.config, self.spot, tracer)


# ---------------------------------------------------------------------------
# superpop-n20000: the criterion-5 superpopulation loop at its large design
# ---------------------------------------------------------------------------


class SuperpopN20000:
    """Population redrawn every replicate (even streams), draw on odd
    streams, the 10 class estimators through the scalar API."""

    name = "superpop-n20000"
    N, n, m = 20_000, 1_200, 300
    GATE_SEED = 612
    GATE_REPLICATES = 10
    PASS_REPLICATES = 50

    def __init__(self, inputs: dict, replicates: int = PASS_REPLICATES) -> None:
        self.master_seed = inputs["master_seed"]
        self.replicates = replicates

    def replicate(self, master_seed: int, r: int, out: np.ndarray, tracer) -> int:
        with tracer.span("population.generate"):
            pop = generate_population(GENERATOR, self.N, SeedSpec(master_seed, 2 * r))
        with tracer.span("sampling.draw"):
            sample = draw_two_phase(self.N, self.n, self.m, SeedSpec(master_seed, 2 * r + 1))
        with tracer.span("estimators.view"):
            view = SampleView.from_population(pop, sample)
        coeffs = _coefficients(view, tracer)
        with tracer.span("estimators.catalog"):
            return _catalog(CLASS_IDS, view, coeffs, None, out, tracer)

    def block(self, master_seed: int, replicates: int, tracer=NULL) -> Pass:
        """Bias and SE against the superpopulation median, aggregated as the
        acceptance test does: a replicate with any failure is dropped."""
        target = GENERATOR.marginal_y.true_median
        sums = np.zeros(len(CLASS_IDS))
        sums_sq = np.zeros(len(CLASS_IDS))
        kept = failed = 0
        times = []
        values = np.empty(len(CLASS_IDS))
        t0 = time.perf_counter()
        for r in range(replicates):
            tracer.enter(r, replicate=True)
            t = time.perf_counter()
            k = self.replicate(master_seed, r, values, tracer)
            times.append(time.perf_counter() - t)
            failed += k
            if k == 0:
                errs = values - target
                sums += errs
                sums_sq += errs**2
                kept += 1
        wall = time.perf_counter() - t0
        bias = sums / kept
        se = np.sqrt((sums_sq / kept - bias**2) / kept)
        digest = sha256(json.dumps([[float(b).hex() for b in bias], [float(s).hex() for s in se], kept]))
        return Pass(wall=wall, digest=digest, attempted=replicates * len(CLASS_IDS), failed=failed,
                    op_s=times, op_replicates=[1] * replicates)

    def gate(self) -> str:
        return self.block(self.GATE_SEED, self.GATE_REPLICATES).digest

    def run_pass(self, tracer=NULL) -> Pass:
        return self.block(self.master_seed, self.replicates, tracer)

    def check(self, first: Pass) -> list[str]:
        return []

    def traced_pass(self, tracer: Tracer) -> tuple[Pass, float, list[str]]:
        """An untraced pass, then the same pass traced; returns the untraced
        pass, the traced wall time and any mismatch."""
        p = self.run_pass()
        t = self.run_pass(tracer)
        return p, t.wall, [] if t.digest == p.digest else ["traced pass differs from untraced"]

    def sort_sample(self, tracer: Tracer) -> None:
        self.block(self.master_seed, 3, tracer)


# ---------------------------------------------------------------------------
# design-csv: the planning workflow through dsmedian.cli.main
# ---------------------------------------------------------------------------

COSTS = ("--c1", "4", "--c2", "0.7", "--c3", "0.3")
BUDGETS = tuple(10.0 ** (2 + k / 2) for k in range(9))  # c0 = 1e2 .. 1e6, log-spaced
ESTIMATE_SEEDS = (11, 12, 13, 14)

# dsmedian.cli names the CLI calls other modules through, and their layer span.
CLI_CALLS = {
    "load_population_csv": "population.load_csv",
    "population_summary": "population.summary",
    "variance_components": "variance_theory.components",
    "draw_two_phase": "sampling.draw",
    "plugin_coefficients": "estimators.coef",
    "evaluate_estimator": "estimators.eval",
    "allocate": "allocation.closed_form",
    "grid_search_allocation": "allocation.grid",
    "profitability_report": "allocation.profitability",
}


def grid_cells(cost, strategy: str) -> int:
    """m candidates grid_search_allocation scans: 2..floor((c0-cn)/(c1+cn))."""
    if strategy == "single":
        return 1
    cn = cost.c2 if strategy == "H" else cost.c2 + cost.c3
    return max(0, math.floor((cost.c0 - cn) / (cost.c1 + cn)) - 1)


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Spans around every call dsmedian.cli makes into another module."""
    repl = {name: traced(tracer, span, getattr(cli, name))
            for name, span in CLI_CALLS.items() if hasattr(cli, name)}
    if "grid_search_allocation" in repl:
        grid = repl["grid_search_allocation"]

        def counted_grid(cost, comps, N, strategy):
            tracer.count("allocation.grid_cells", grid_cells(cost, strategy))
            return grid(cost, comps, N, strategy)

        repl["grid_search_allocation"] = counted_grid

    class TracedSampleView(SampleView):
        @classmethod
        def from_population(cls, pop, sample):
            with tracer.span("estimators.view"):
                return SampleView.from_population(pop, sample)

    repl["SampleView"] = TracedSampleView
    with patched(cli, repl):
        yield


def run_command(argv: list[str], tracer) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span(f"cli.{argv[0]}"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), time.perf_counter() - t0


def estimate_argv(csv: str, seed: int) -> list[str]:
    return ["estimate", csv, "--m", "150", "--n", "600", "--seed", str(seed), "--estimators", "all"]


def design_script(csv: str, units: int, tracer=NULL) -> list[tuple[list[str], int, str, float]]:
    """analyze, estimate over ESTIMATE_SEEDS, then allocate and compare over
    BUDGETS with the analyze components: (argv, exit code, stdout, seconds)."""
    results = []

    def run(argv, replicate=False):
        tracer.enter(len(results), replicate=replicate)
        results.append((argv, *run_command(argv, tracer)))
        return results[-1]

    _, code, out, _ = run(["analyze", csv])
    comps = json.loads(out)["variance_components"] if code == 0 else {}
    for seed in ESTIMATE_SEEDS:
        run(estimate_argv(csv, seed), replicate=True)
    v_args = [a for k in ("V0", "V1", "V2", "V3") if comps.get(k) is not None
              for a in (f"--{k.lower()}", repr(comps[k]))]
    for sub, extra in (("allocate", ["--strategy", "all", "--oracle"]), ("compare", [])):
        for c0 in BUDGETS:
            run([sub, "--c0", repr(c0), *COSTS, "--units", str(units), *v_args, *extra])
    return results


def unexpected_exit(sub: str, code: int) -> bool:
    """An exit code outside the CLI's outcomes for the subcommand: allocate
    exits 0, 3 (infeasible) or 4 (oracle disagreement), the others 0."""
    return code not in ((0, 3, 4) if sub == "allocate" else (0,))


def _estimate_outcomes(stdout: str) -> tuple[int, int, bool]:
    """(evaluations, failed evaluations, coefficients failed) of an estimate."""
    payload = json.loads(stdout)
    values = payload["estimates"].values()
    failed = sum(1 for v in values if "error" in v or not math.isfinite(v["value"]))
    return len(values), failed, payload["coefficients_error"] is not None


class DesignCsv:
    """The planning workflow on the seeded skewed CSV population."""

    name = "design-csv"

    def __init__(self, inputs: dict) -> None:
        self.csv = inputs.get("csv")
        self.units = inputs.get("units")
        self.medians = inputs.get("medians")

    def gate(self) -> list[list]:
        return [[code, sha256(out)] for _, code, out, _ in design_script(str(GATE_CSV), GATE_CSV_UNITS)]

    def run_pass(self, tracer=NULL) -> Pass:
        t0 = time.perf_counter()
        results = design_script(self.csv, self.units, tracer)
        wall = time.perf_counter() - t0
        attempted = len(results)
        failed = sum(1 for _, code, _, _ in results if code != 0)
        notes = [f"{' '.join(argv[:3])} exits {code}" for argv, code, _, _ in results if code != 0]
        for argv, code, out, _ in results:
            if argv[0] == "estimate" and code == 0:
                evals, bad, coef_failed = _estimate_outcomes(out)
                attempted += evals
                failed += bad
                tracer.count("estimators.evals", evals)
                tracer.count("estimators.eval_failures", bad)
                tracer.count("estimators.coef_failures", int(coef_failed))
            if argv[0] == "allocate" and code == 4:
                tracer.count("allocation.oracle_disagreements")
        digest = sha256(json.dumps([[code, sha256(out)] for _, code, out, _ in results]))
        return Pass(wall=wall, digest=digest, attempted=attempted, failed=failed,
                    op_s=[r[3] for r in results],
                    op_replicates=[int(r[0][0] == "estimate") for r in results],
                    detail=results, notes=notes,
                    unexpected=sum(unexpected_exit(argv[0], code) for argv, code, _, _ in results))

    def check(self, first: Pass) -> list[str]:
        problems = []
        for argv, code, out, _ in first.detail:
            sub = argv[0]
            if sub == "allocate":
                agreement = json.loads(out).get("oracle_agreement") if code in (0, 3, 4) else None
                if unexpected_exit(sub, code) or (code == 4) != (agreement is False):
                    problems.append(f"allocate c0={argv[2]} exit {code}, oracle_agreement {agreement}")
            elif code != 0:
                problems.append(f"{' '.join(argv[:2])} exit {code}")
            elif sub == "analyze":
                summary = json.loads(out)["summary"]
                got = [summary[f"median_{v}"] for v in "xyz"]
                if got != self.medians:
                    problems.append(f"analyze medians {got} != independent medians {self.medians}")
        return problems

    def traced_pass(self, tracer: Tracer) -> tuple[Pass, float, list[str]]:
        p = self.run_pass()
        with traced_cli(tracer):
            t = self.run_pass(tracer)
        return p, t.wall, [] if t.digest == p.digest else ["traced pass differs from untraced"]

    def sort_sample(self, tracer: Tracer) -> None:
        tracer.enter("estimate", replicate=True)
        run_command(estimate_argv(self.csv, ESTIMATE_SEEDS[0]), tracer)


WORKLOADS = {cls.name: cls for cls in (McAcceptance, SuperpopN20000, DesignCsv)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def gate_problems(workload) -> list[str]:
    got, expected = workload.gate(), json.loads(GOLDEN.read_text())[workload.name]
    if got == expected:
        return []
    if isinstance(got, list) and len(got) == len(expected):
        diff = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        return [f"{workload.name} gate: commands {diff} differ from golden.json"]
    return [f"{workload.name} gate digest {json.dumps(got)} differs from golden.json"]


def end_to_end(passes: list[Pass], factors: list[float]) -> tuple[dict, dict]:
    """The bounded metrics: medians over the passes of timings scaled to
    the reference host speed (see calibrate.py), and the peak RSS."""
    rep_s = [f * sum(t for t, k in zip(p.op_s, p.op_replicates) if k) for p, f in zip(passes, factors)]
    op_s = [f * sum(p.op_s) for p, f in zip(passes, factors)]
    values = {
        "wall_s": statistics.median(p.wall * f for p, f in zip(passes, factors)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "replicates_per_s": statistics.median(sum(p.op_replicates) / t for p, t in zip(passes, rep_s)),
        "commands_per_s": statistics.median(len(p.op_s) / t for p, t in zip(passes, op_s)),
    }
    n = len(passes)
    samples = {"wall_s": n, "peak_rss_mb": 1, "replicates_per_s": n, "commands_per_s": n}
    return values, samples


def latencies(passes: list[Pass]) -> dict:
    """Percentiles of single replicate and command latencies, slow phases included."""
    rep_ms = [t / k * 1e3 for p in passes for t, k in zip(p.op_s, p.op_replicates) if k]
    cmd_ms = [t * 1e3 for p in passes for t in p.op_s]
    return {"replicate_ms_p50": percentile(rep_ms, 50), "replicate_ms_p99": percentile(rep_ms, 99),
            "command_ms_p50": percentile(cmd_ms, 50)}


# Per-layer timings: metric -> (span name, percentile, scale to the unit).
_SPAN_TIMINGS = {
    "population.generate_ms": ("population.generate", 50, 1e3),
    "population.load_csv_ms": ("population.load_csv", 50, 1e3),
    "population.summary_ms": ("population.summary", 50, 1e3),
    "sampling.draw_ms_p50": ("sampling.draw", 50, 1e3),
    "sampling.draw_ms_p99": ("sampling.draw", 99, 1e3),
    "estimators.view_ms": ("estimators.view", 50, 1e3),
    "estimators.coef_ms": ("estimators.coef", 50, 1e3),
    "variance_theory.components_ms": ("variance_theory.components", 50, 1e3),
    "allocation.grid_ms_p50": ("allocation.grid", 50, 1e3),
    "allocation.closed_form_us": ("allocation.closed_form", 50, 1e6),
    "allocation.profitability_ms": ("allocation.profitability", 50, 1e3),
    "montecarlo.run_simulation_s": ("montecarlo.run_simulation", 50, 1.0),
}


def per_layer(tracer: Tracer, counts: dict, overhead: list[float], self_ms: list[float],
              units: int | None, passes: list[Pass]) -> tuple[dict, dict]:
    """Every per-layer metric and its sample count; a layer the workload
    does not exercise reads 0."""
    metrics, samples = {}, {}
    for name, (span, q, scale) in _SPAN_TIMINGS.items():
        d = tracer.durations(span)
        metrics[name], samples[name] = percentile(d, q) * scale, len(d)
    for sub in ("analyze", "estimate", "allocate", "compare"):
        d = tracer.self_times(f"cli.{sub}")
        metrics[f"cli.{sub}.self_ms"], samples[f"cli.{sub}.self_ms"] = percentile(d, 50) * 1e3, len(d)
    catalog = list(tracer.group_totals(("estimators.catalog", "estimators.eval")).values())
    metrics["estimators.catalog_ms"], samples["estimators.catalog_ms"] = percentile(catalog, 50) * 1e3, len(catalog)
    load_s = metrics["population.load_csv_ms"] / 1e3
    metrics["population.csv_rows_per_s"] = units / load_s if units and load_s else 0.0
    evals = counts["estimators.evals"]
    metrics["estimators.useful_ratio"] = (evals - counts["estimators.eval_failures"]) / evals if evals else 0.0
    metrics["montecarlo.self_ms_per_replicate"] = percentile(self_ms, 50)
    metrics["trace.overhead_share"] = percentile(overhead, 50)
    samples["montecarlo.self_ms_per_replicate"] = len(self_ms)
    samples["trace.overhead_share"] = len(overhead)
    metrics.update(counts)
    metrics.update(latencies(passes))
    samples["replicate_ms_p50"] = samples["replicate_ms_p99"] = sum(sum(1 for k in p.op_replicates if k) for p in passes)
    samples["command_ms_p50"] = sum(len(p.op_s) for p in passes)
    return metrics, samples


def pass_counts(tracer: Tracer, sorter: Tracer) -> dict:
    """The count metrics of the current traced pass; the sort counts come
    from ``sorter``, a separate sample run with numpy.sort counted, so the
    counting does not slow the traced pass."""
    return {
        "sampling.draws": tracer.pass_spans("sampling.draw"),
        "estimators.evals": tracer.counts["estimators.evals"],
        "estimators.eval_failures": tracer.counts["estimators.eval_failures"],
        "estimators.coef_failures": tracer.counts["estimators.coef_failures"],
        "core_stats.sorts_per_replicate": sorter.per_replicate("sorts"),
        "core_stats.sorted_elements_per_replicate": sorter.per_replicate("sorted_elements"),
        "allocation.grid_cells": tracer.counts["allocation.grid_cells"],
        "allocation.oracle_disagreements": tracer.counts["allocation.oracle_disagreements"],
    }


def traced_pass_with_counts(workload, tracer: Tracer) -> tuple[Pass, float, list[str], dict]:
    """One traced pass and its count metrics."""
    tracer.begin_pass()
    p, traced_wall, problems = workload.traced_pass(tracer)
    sorter = Tracer()
    sorter.begin_pass()
    with counting_sorts(sorter):
        workload.sort_sample(sorter)
    return p, traced_wall, problems, pass_counts(tracer, sorter)


def _keep_going(walls: list[float], elapsed: float, seconds: float) -> bool:
    """Start another pass only if it is expected to end within ``seconds``."""
    return not walls or elapsed + walls[-1] <= seconds


def outcome_counts(passes: list[Pass]) -> dict:
    """The result line's attempted and failed operations, and failed_share:
    the program's own failures over the attempted operations."""
    attempted = sum(p.attempted for p in passes)
    return {"attempted": attempted, "failed": sum(p.unexpected for p in passes),
            "failed_share": sum(p.failed for p in passes) / attempted}


def timed_run(workload, seconds: float) -> dict:
    """Passes for ``seconds``, each bracketed by host-speed calibrations."""
    passes: list[Pass] = []
    calibrations = [calibration_s()]
    start = time.perf_counter()
    while _keep_going([p.wall for p in passes], time.perf_counter() - start, seconds):
        passes.append(workload.run_pass())
        calibrations.append(calibration_s())
    factors = [speed_factor(a, b) for a, b in zip(calibrations, calibrations[1:])]
    problems = [f"pass {i} digest differs from pass 0" for i, p in enumerate(passes)
                if p.digest != passes[0].digest]
    problems += workload.check(passes[0])
    metrics, samples = end_to_end(passes, factors)
    return {"problems": problems, **outcome_counts(passes), "metrics": metrics,
            "samples": samples, "notes": passes[0].notes}


def traced_run(workload, seconds: float, trace_path: Path) -> dict:
    tracer = Tracer()
    problems: list[str] = []
    counts: list[dict] = []
    overhead: list[float] = []
    self_ms: list[float] = []
    walls: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while _keep_going(walls, time.perf_counter() - start, seconds):
        t0 = time.perf_counter()
        p, traced_wall, mismatch, pass_count = traced_pass_with_counts(workload, tracer)
        walls.append(time.perf_counter() - t0)
        passes.append(p)
        problems += mismatch
        counts.append(pass_count)
        overhead.append(traced_wall / p.wall - 1.0)
        if isinstance(workload, McAcceptance):
            replay_layers = sum(s[3] - s[2] for s in tracer.spans[tracer.pass_start:]
                                if s[1] != "bench.replay" and s[1] != "montecarlo.run_simulation")
            self_ms.append((p.wall - replay_layers) / p.op_replicates[0] * 1e3)
    if any(c != counts[0] for c in counts):
        problems.append("count metrics differ between traced passes")
    tracer.write(trace_path)
    metrics, samples = per_layer(tracer, counts[0], overhead, self_ms,
                                 getattr(workload, "units", None), passes)
    outcomes = outcome_counts(passes)
    metrics["failed_share"] = outcomes["failed_share"]
    return {"problems": problems, **outcomes, "metrics": metrics,
            "samples": {"traced_passes": len(walls), "spans": len(tracer.spans), **samples},
            "notes": [f"spans written to {trace_path}"]}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "record":
        write_csv(GATE_CSV, skewed_population(GATE_CSV_SEED, GATE_CSV_UNITS))
        inputs = {"master_seed": 0}
        print(json.dumps({name: cls(inputs).gate() for name, cls in WORKLOADS.items()}, indent=1))
        return 0
    inputs = json.loads(Path(argv[1]).read_text())
    workload = WORKLOADS[inputs["workload"]](inputs)
    problems = gate_problems(workload)
    if mode == "setup":
        print(json.dumps({"problems": problems}))
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    if trace:
        path = WORK_DIR / f"trace-{inputs['workload']}-{inputs['seed']}.jsonl"
        result = traced_run(workload, seconds, path)
    else:
        result = timed_run(workload, seconds)
    result["problems"] = problems + result["problems"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
