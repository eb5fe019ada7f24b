"""Batch command-line interface.

Subcommands: ``analyze`` (population summary from CSV), ``estimate`` (one
two-phase draw and the estimator catalog), ``simulate`` (Monte Carlo
experiment from a config file), ``allocate`` (cost-optimal sample sizes),
``compare`` (profitability verdicts).  Every artifact embeds a manifest
(resolved configuration, seed, input digests, tool version) and is
deterministic given that manifest: the manifest timestamp is null unless
supplied, so identical invocations emit identical bytes.

Exit codes: 0 success, 2 input error (an unwritable output path included),
3 infeasible or degenerate model, 4 internal oracle disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import sys

from . import __version__
from .allocation import (
    CostModel,
    STRATEGIES,
    allocate,
    grid_search_allocation,
    profitability_report,
)
from .estimators import (
    COEFFICIENT_IDS,
    ESTIMATOR_IDS,
    EstimatorError,
    SampleView,
    evaluate_estimator,
    plugin_coefficients,
)
from .montecarlo import PopulationInputError, load_sim_config, run_simulation
from .population import Population, PopulationSummary, load_population_csv, population_summary
from .sampling import SeedSpec, draw_two_phase
from .variance_theory import DesignSizes, VarianceComponents, variance_components

SEED_ENV_VAR = "DSMEDIAN_SEED"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_ORACLE = 4

# simulate --threads only reschedules replicates over worker processes,
# which run_simulation caps at the core count; the bound catches typos
MAX_THREADS = 64


class _InputError(Exception):
    pass


class _ModelError(Exception):
    pass


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(subcommand: str, config: dict, seed: int | None, digests: dict[str, str]) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "master_seed": seed,
        "input_digests": digests,
        "tool_version": __version__,
        "timestamp": os.environ.get("DSMEDIAN_TIMESTAMP"),
    }


@contextlib.contextmanager
def _artifact(path: str, newline: str | None = None):
    """``path`` opened for writing; a path that cannot be written is an input error."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise _InputError(str(exc)) from None


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if out_path:
        with _artifact(out_path) as fh:
            fh.write(text + "\n")


def _env_seed() -> int | None:
    """The seed DSMEDIAN_SEED gives, or None where it is unset."""
    if (env := os.environ.get(SEED_ENV_VAR)) is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise _InputError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _resolve_seed(flag_value: int | None) -> int:
    seed = flag_value if flag_value is not None else _env_seed()
    if seed is None:
        seed = 0
    try:
        SeedSpec(seed)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load(path: str) -> Population:
    """The population in a CSV; a file that does not load is an input error."""
    try:
        return load_population_csv(path)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from None


def _census(pop: Population) -> tuple[PopulationSummary, VarianceComponents]:
    """A population's census summary and V0..V3; a degenerate one is a model error."""
    try:
        summary = population_summary(pop)
        return summary, variance_components(summary)
    except ValueError as exc:
        raise _ModelError(str(exc)) from None


def _cmd_analyze(args) -> int:
    pop = _load(args.csv)
    summary, comps = _census(pop)
    payload = {
        "manifest": _manifest("analyze", {"csv": args.csv}, None, {args.csv: pop._sha256}),
        "summary": {"N": summary.N, **dataclasses.asdict(summary)},  # N, then the fields
        "variance_components": dataclasses.asdict(comps),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _parse_estimators(raw: str) -> tuple[str, ...]:
    if raw.strip() == "all":
        return ESTIMATOR_IDS
    ids = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for est in ids:
        if est not in ESTIMATOR_IDS:
            raise _InputError(f"unknown estimator id {est!r}")
    if not ids:
        raise _InputError("empty estimator list")
    return ids


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args.seed)
    ids = _parse_estimators(args.estimators)
    pop = _load(args.csv)
    try:
        DesignSizes(args.m, args.n, pop.N)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    sample = draw_two_phase(pop.N, args.n, args.m, SeedSpec(seed, 0))
    view = SampleView.from_population(pop, sample)
    coeffs = None
    coeffs_error = None
    try:
        coeffs = plugin_coefficients(view)
    except EstimatorError as exc:
        coeffs_error = str(exc)
    estimates: dict[str, dict] = {}
    for est in ids:
        if coeffs_error is not None and est in COEFFICIENT_IDS:  # failed once, not recomputed
            estimates[est] = {"error": coeffs_error}
            continue
        try:
            estimates[est] = {"value": evaluate_estimator(est, view, coeffs)}
        except EstimatorError as exc:
            estimates[est] = {"error": str(exc)}
    config = {
        "csv": args.csv,
        "m": args.m,
        "n": args.n,
        "seed": seed,
        "estimators": list(ids),
    }
    payload = {
        "manifest": _manifest("estimate", config, seed, {args.csv: pop._sha256}),
        "estimates": estimates,
        "coefficients": None if coeffs is None else dataclasses.asdict(coeffs),
        "coefficients_error": coeffs_error,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if not 1 <= args.threads <= MAX_THREADS:
        raise _InputError(f"--threads must be in 1..{MAX_THREADS}, got {args.threads}")
    overrides = {
        "m": args.m,
        "n": args.n,
        "units": args.units,
        "replicates": args.replicates,
        "estimators": args.estimators,
        "master_seed": args.seed,
    }
    try:  # DSMEDIAN_SEED is read only where the flags and the file give no seed
        config = load_sim_config(args.config, overrides, {"master_seed": _env_seed})
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from None
    try:
        report = run_simulation(config, threads=args.threads)
    except (OSError, PopulationInputError) as exc:  # the population CSV, the only file it reads
        raise _InputError(str(exc)) from None
    except ValueError as exc:
        raise _ModelError(str(exc)) from None
    payload = {
        "manifest": _manifest(
            "simulate", config.canonical_dict(), config.master_seed,
            {args.config: _digest_file(args.config)}
        ),
        "report": report.to_json_dict(),
    }
    _emit(payload, args.out_json)
    with _artifact(args.out_csv, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.csv_header())
        writer.writerows(report.csv_rows())
    if not report.valid:
        print("warning: more than 5% estimator failures; report flagged invalid", file=sys.stderr)
    return EXIT_OK


def _components_from_args(args) -> tuple[VarianceComponents, dict[str, str]]:
    if args.csv is not None:
        if given := [f"--{k}" for k in ("v0", "v1", "v2", "v3") if getattr(args, k) is not None]:
            raise _InputError(f"--csv derives V0..V3, so it excludes {', '.join(given)}")
        pop = _load(args.csv)
        return _census(pop)[1], {args.csv: pop._sha256}
    missing = [k for k in ("v0", "v1", "v2") if getattr(args, k) is None]
    if missing:
        raise _InputError(f"missing components: {', '.join('--' + k for k in missing)} (or --csv)")
    v3 = 0.0 if args.v3 is None else args.v3
    try:
        comps = VarianceComponents(V0=args.v0, V1=args.v1, V2=args.v2, V3=v3)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return comps, {}


def _cost_from_args(args) -> CostModel:
    try:
        cost = CostModel(c0=args.c0, c1=args.c1, c2=args.c2, c3=args.c3)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if args.units < 1:
        raise _InputError(f"--units must be at least 1, got {args.units}")
    try:
        float(args.units)
    except OverflowError:
        raise _InputError("--units is out of float range") from None
    return cost


def _planning_config(args, comps: VarianceComponents) -> dict:
    """The manifest config that allocate and compare share."""
    return {
        "c0": args.c0,
        "c1": args.c1,
        "c2": args.c2,
        "c3": args.c3,
        "components": dataclasses.asdict(comps),
        "units": args.units,
    }


def _cmd_allocate(args) -> int:
    comps, inputs = _components_from_args(args)
    cost = _cost_from_args(args)
    strategies = STRATEGIES if args.strategy == "all" else (args.strategy,)
    results = {s: allocate(s, cost, comps, args.units) for s in strategies}
    oracle_results = {}
    oracle_ok = True
    if args.oracle:
        for s, res in results.items():
            try:
                grid = grid_search_allocation(cost, comps, args.units, s)
            except ValueError as exc:  # a grid too large to allocate
                raise _InputError(str(exc)) from None
            oracle_results[s] = dataclasses.asdict(grid)
            if res.feasible != grid.feasible:
                oracle_ok = False
            elif res.feasible and grid.feasible:
                rel = abs(grid.opt_variance - res.opt_variance) / max(abs(res.opt_variance), 1e-300)
                if rel > 0.005:
                    oracle_ok = False
                if s != "single" and abs(grid.m_int - res.m_int) > 1:
                    oracle_ok = False
    config = {**_planning_config(args, comps), "strategy": args.strategy}
    payload = {
        "manifest": _manifest("allocate", config, None, inputs),
        "allocations": {s: dataclasses.asdict(r) for s, r in results.items()},
    }
    if args.oracle:
        payload["oracle"] = oracle_results
        payload["oracle_agreement"] = oracle_ok
    _emit(payload, args.out)
    if not oracle_ok:
        print("error: grid-search oracle disagrees with the closed form", file=sys.stderr)
        return EXIT_ORACLE
    if all(not r.feasible for r in results.values()):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_compare(args) -> int:
    comps, inputs = _components_from_args(args)
    cost = _cost_from_args(args)
    report = profitability_report(cost, comps, args.units)
    payload = {
        "manifest": _manifest("compare", _planning_config(args, comps), None, inputs),
        "verdicts": {
            name: dataclasses.asdict(getattr(report, name))
            for name in ("g_vs_single", "g_vs_H", "F_vs_H", "F_vs_g")
        },
        "allocations": {s: dataclasses.asdict(getattr(report, s)) for s in STRATEGIES},
    }
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_component_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c0", type=float, required=True, help="total budget")
    p.add_argument("--c1", type=float, required=True, help="per-unit cost of y (second phase)")
    p.add_argument("--c2", type=float, required=True, help="per-unit cost of x (first phase)")
    p.add_argument("--c3", type=float, required=True, help="per-unit cost of z (first phase)")
    p.add_argument("--units", type=int, required=True, help="population size N")
    p.add_argument("--csv", help="derive V0..V3 from a population CSV instead of --v0..--v3")
    p.add_argument("--v0", type=float, help="sample-median variance scale V0")
    p.add_argument("--v1", type=float, help="x-association gain V1")
    p.add_argument("--v2", type=float, help="z-association gain V2")
    p.add_argument("--v3", type=float, help="x-z composite gain V3 (default 0)")
    p.add_argument("--out", help="also write the JSON artifact to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmedian",
        description="Median estimation under two-phase sampling with two auxiliary variables",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="population summary and variance components from CSV")
    p.add_argument("csv")
    p.add_argument("--out", help="also write the JSON artifact to this path")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("estimate", help="one two-phase draw and the estimator catalog")
    p.add_argument("csv")
    p.add_argument("--m", type=int, required=True, help="second-phase size")
    p.add_argument("--n", type=int, required=True, help="first-phase size")
    p.add_argument("--seed", type=int, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--estimators", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--out", help="also write the JSON artifact to this path")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo experiment from a config file")
    p.add_argument("config")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--units", type=int, help="population size N")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int, help=f"master seed (default: config, then ${SEED_ENV_VAR})")
    p.add_argument("--estimators", help="comma-separated ids")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"worker processes, 1..{MAX_THREADS} (default 1), at most one per core; never "
        "changes results",
    )
    p.add_argument("--out-json", default="simreport.json")
    p.add_argument("--out-csv", default="simreport.csv")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("allocate", help="cost-optimal (m, n) per strategy")
    _add_component_args(p)
    p.add_argument("--strategy", default="all", choices=("all",) + STRATEGIES)
    p.add_argument("--oracle", action="store_true", help="cross-check with the integer grid search")
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("compare", help="profitability verdicts across strategies")
    _add_component_args(p)
    p.set_defaults(fn=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
