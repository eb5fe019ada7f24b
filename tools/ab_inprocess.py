"""Compare two dsmedian trees on the acceptance config in one process.

    python tools/ab_inprocess.py BASE_SRC HEAD_SRC [--pairs N]

BASE_SRC and HEAD_SRC are directories that each hold a ``dsmedian``
package, such as a checkout's ``src``.  Both are imported into this
process under distinct names, so both sides share one interpreter, one
numpy and one host phase.

It first runs the acceptance config (N = 5000, m = 150, n = 600,
R = 5000, the 14 ids of acceptance criterion 3) on each tree and says
whether the report JSON and the bytes of the estimates matrix are equal.
Then it runs N pairs (default 20) of ``run_simulation`` at R = 200 on
one worker, the side that goes first alternating from pair to pair, and
prints one line: each side's median and quartiles in ms per call, the
median of the per-pair base/head time ratios (above 1 when the head is
faster) and the pairs the head won.  It exits 1 when the outputs differ.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

MASTER_SEED = 20250801
TIMED_REPLICATES = 200
IDS = ("median", "g1", "g2", "g3", "g4", "g5", "g6", "g7", "reg-x", "reg-xz", "f-linear",
       "reg-x-true", "reg-xz-true", "f-linear-true")


def load(src: str, name: str):
    """The ``montecarlo`` module of the ``dsmedian`` package under ``src``,
    imported as the package ``name``."""
    init = Path(src, "dsmedian", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.montecarlo")


def acceptance_config(mc, replicates: int):
    normal = mc.MarginalSpec("normal", 10.0, 2.0)
    generator = mc.GeneratorSpec(r_xy=0.8, r_yz=0.6, r_xz=0.7,
                                 marginal_x=normal, marginal_y=normal, marginal_z=normal)
    return mc.SimConfig(m=150, n=600, N=5000, replicates=replicates, master_seed=MASTER_SEED,
                        estimators=IDS, generator=generator)


def outputs(mc) -> tuple[str, bytes]:
    """The acceptance report's JSON and its estimates' bytes."""
    report = mc.run_simulation(acceptance_config(mc, 5000), keep_estimates=True)
    return json.dumps(report.to_json_dict()), report.estimates.tobytes()


def summary(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{q2 * 1e3:.2f} ms [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    sides = {"base": load(args.base_src, "dsmedian_base"),
             "head": load(args.head_src, "dsmedian_head")}
    equal = outputs(sides["base"]) == outputs(sides["head"])
    configs = {side: acceptance_config(mc, TIMED_REPLICATES) for side, mc in sides.items()}
    times: dict[str, list[float]] = {"base": [], "head": []}
    for mc in sides.values():  # warm up: first-call costs and caches are not timed
        mc.run_simulation(acceptance_config(mc, 16))
    for pair in range(args.pairs):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            start = time.perf_counter()
            sides[side].run_simulation(configs[side])
            times[side].append(time.perf_counter() - start)
    ratios = [b / h for b, h in zip(times["base"], times["head"])]
    won = sum(r > 1.0 for r in ratios)
    print(f"outputs equal: {'yes' if equal else 'NO'} (acceptance report JSON and estimates "
          f"bytes, R = 5000); run_simulation at R = {TIMED_REPLICATES} over {args.pairs} pairs: "
          f"base {summary(times['base'])}, head {summary(times['head'])} (median [q1, q3]); "
          f"median base/head ratio {statistics.median(ratios):.3f}x; head won {won}/{args.pairs}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
