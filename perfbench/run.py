"""dsmedian benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run writes the workload's inputs from the seed (untimed), then starts
one workload process that measures for S seconds.  Around it, before and
after so that they see different moments of a noisy host, run SETUP_PROBES
fresh processes that each import dsmedian and run the workload's warm-up
gate; their median wall time, scaled to the reference host speed of
calibrate.py by the median of calibrations taken around them, is
``setup_s``.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  Comment lines before the result give provenance,
sample counts and the commands or estimates that failed.

Every process gets one thread (OMP/OPENBLAS/MKL_NUM_THREADS=1) and an
environment without DSMEDIAN_SEED and DSMEDIAN_TIMESTAMP.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = (7, 8)  # before and after the workload process
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("DSMEDIAN_SEED", "DSMEDIAN_TIMESTAMP")}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def run_child(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run perfbench/workloads.py; return its wall time and its JSON line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process timed out after {timeout:.0f} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return wall, json.loads(out.strip().splitlines()[-1])


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, master_seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dsmedian").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "master_seed": master_seed,
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {**{k: "1" for k in THREAD_VARS}, "run_simulation": 1},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "dsmedian" / "__init__.py").is_file():
        print("error: no dsmedian sources under src/ in this checkout", file=sys.stderr)
        return 2

    from calibrate import calibration_s, speed_factor
    from inputs import make_inputs

    inputs_path = make_inputs(args.workload, args.seed)
    inputs = json.loads(inputs_path.read_text())
    env = child_env()
    problems: list[str] = []
    setup_s: list[float] = []
    calibrations: list[float] = []

    def probe_setup(times: int) -> None:
        for _ in range(0 if args.trace else times):
            calibrations.append(calibration_s())
            wall, probe = run_child(["setup", str(inputs_path)], env, CHILD_TIMEOUT_S / 10)
            setup_s.append(wall)
            problems.extend(probe["problems"])
            calibrations.append(calibration_s())

    probe_setup(SETUP_PROBES[0])
    _, result = run_child(["run", str(inputs_path), str(args.seconds), str(args.trace)], env,
                          CHILD_TIMEOUT_S)
    probe_setup(SETUP_PROBES[1])
    if inputs.get("csv"):
        Path(inputs["csv"]).unlink()
    problems += result["problems"]

    kind = "per_layer" if args.trace else "end_to_end"
    values = dict(result["metrics"])
    samples = dict(result["samples"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_s) * speed_factor(statistics.median(calibrations))
        samples["setup_s"] = len(setup_s)
    names = [m["name"] for m in spec[kind]]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    print("# provenance " + json.dumps(provenance(args.workload, args.seed, inputs["master_seed"])))
    print("# samples " + json.dumps(samples))
    if not args.trace:  # the traced run has failed_share among its metrics
        print(f"# failed_share = {result['failed_share']:.6g} (estimates that are NaN or raise "
              f"EstimatorError and CLI commands that exit nonzero, over attempted operations)")
    for note in result["notes"]:
        print(f"# note: {note}")
    for problem in dict.fromkeys(problems):
        print(f"# FAILED CHECK: {problem}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={samples.get(name, 1)})")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
