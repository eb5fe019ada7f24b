"""Self-test of the benchmark: every workload at a tiny size, twice.

    python3 perfbench/selftest.py

Checks that each workload's gate matches golden.json, and that two traced
tiny passes give identical output digests and identical count metrics
(draws, evaluations and failures, sort counts, grid cells, oracle
disagreements).  Takes a few seconds; exits 1 on the first difference.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("DSMEDIAN_SEED", None)
os.environ.pop("DSMEDIAN_TIMESTAMP", None)
os.chdir(Path(__file__).resolve().parent.parent)

import workloads as W  # noqa: E402
from inputs import GATE_CSV, GATE_CSV_SEED, GATE_CSV_UNITS, lower_median, skewed_population, write_csv  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny(name: str):
    if name == "mc-acceptance":
        return W.McAcceptance({"master_seed": 7}, replicates=20)
    if name == "superpop-n20000":
        return W.SuperpopN20000({"master_seed": 7}, replicates=3)
    cols = skewed_population(GATE_CSV_SEED, GATE_CSV_UNITS)
    write_csv(GATE_CSV, cols)
    return W.DesignCsv({"csv": str(GATE_CSV), "units": GATE_CSV_UNITS,
                        "medians": [lower_median(c) for c in cols]})


def traced_once(workload) -> tuple[str, dict]:
    p, _, problems, counts = W.traced_pass_with_counts(workload, Tracer())
    problems += workload.check(p)
    if problems:
        raise AssertionError("; ".join(problems))
    return p.digest, counts


def main() -> int:
    for name in W.WORKLOADS:
        workload = tiny(name)
        problems = W.gate_problems(workload)
        first, second = traced_once(workload), traced_once(tiny(name))
        if first != second:
            problems.append(f"two tiny runs differ: {first} vs {second}")
        status = "FAIL " + "; ".join(problems) if problems else "ok"
        print(f"{name}: digest {first[0][:12]} counts {first[1]}: {status}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
