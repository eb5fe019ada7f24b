"""Every workload of BENCHMARK.json, one after another, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Prints run.py's lines (provenance, sample counts, each metric with its
unit and sample count, the result) under a header per workload, and exits
1 if any run fails its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}", flush=True)
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                              "--seed", str(args.seed), "--seconds", str(seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True)
        print(out.stdout, end="", flush=True)
        lines = out.stdout.strip().splitlines()
        ok = ok and out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
