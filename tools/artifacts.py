"""Write dsmedian's golden-artifact set into OUT_DIR.

A change that claims to keep every artifact byte-identical runs this on
both sides and compares the two directories::

    PYTHONPATH=src python tools/artifacts.py OUT_DIR
    diff -r OUT_DIR_PARENT OUT_DIR_CHANGE

The inputs come from numpy alone, with fixed seeds, so they are the same
whatever the version of dsmedian under test.  Four populations of 2000
units are written as CSVs: normal and lognormal Gaussian-copula draws, a
tie-heavy one of integers whose x has zeros of both signs at its median,
and one whose y median is zero.  Then, in OUT_DIR and with relative paths
(so no manifest names OUT_DIR), the commands run in this process:

- on each CSV, ``analyze``, ``estimate --estimators all`` at seeds 1-3,
  and ``allocate --strategy all --oracle`` and ``compare`` with ``--csv``
  at budgets 100, 1000 and 10000;
- an 18-id ``simulate`` (every catalog id and the three ``-true`` twins)
  per source: normal and lognormal synthetic populations, and the
  tie-heavy and zero-y-median CSVs, each at ``--threads`` 1 and 2.

Each command writes its stdout to ``<name>.out`` and its stderr, if any,
to ``<name>.err``; ``commands.txt`` lists the exit code and argv of each.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

UNITS = 2000
IDS = ("median, ratio-known, position, stratified, ratio-double, reg-x, reg-xz, "
       "g1, g2, g3, g4, g5, g6, g7, f-linear, reg-x-true, reg-xz-true, f-linear-true")
COSTS = ("--c1", "4", "--c2", "0.7", "--c3", "0.3", "--units", str(UNITS))
SOURCES = ("normal", "lognormal", "tie-heavy", "zero-y-median")


def populations() -> dict[str, np.ndarray]:
    """(3, UNITS) x, y, z arrays of the SOURCES."""
    rng = np.random.default_rng(20250801)
    corr = np.array([[1.0, 0.8, 0.7], [0.8, 1.0, 0.6], [0.7, 0.6, 1.0]])
    c = np.linalg.cholesky(corr) @ rng.standard_normal((3, UNITS))
    y = c[1] - np.sort(c[1])[UNITS // 2 - 1]
    y[np.argsort(np.abs(y))[: UNITS // 5]] = 0.0
    return dict(zip(SOURCES, (
        10.0 + 2.0 * c,
        np.exp(0.5 * c),
        np.stack((np.round(2 * c[0]), *np.round(2 * c[1:] + 5))),
        np.stack((10 + 2 * c[0], y, 10 + 2 * c[2])),
    )))


def simulate_config(source: str) -> str:
    if source in ("normal", "lognormal"):
        kind, mu, sigma = ("normal", 10.0, 2.0) if source == "normal" else ("lognormal", 0.0, 0.5)
        population = "source = synthetic\nr_xy = 0.8\nr_yz = 0.6\nr_xz = 0.7\n" + "".join(
            f"marginal_{v} = {kind}\nmu_{v} = {mu}\nsigma_{v} = {sigma}\n" for v in "xyz")
    else:
        population = f"source = csv\ncsv_path = {source}.csv\n"
    return (f"[population]\n{population}units = {UNITS}\n"
            "[design]\nm = 40\nn = 200\n"
            f"[run]\nreplicates = 250\nmaster_seed = 20250801\nestimators = {IDS}\n")


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order."""
    out = []
    for source in SOURCES:
        csv = f"{source}.csv"
        out.append((f"analyze-{source}", ["analyze", csv]))
        for seed in (1, 2, 3):
            out.append((f"estimate-{source}-s{seed}",
                        ["estimate", csv, "--m", "100", "--n", "400", "--seed", str(seed),
                         "--estimators", "all"]))
        for c0 in ("100", "1000", "10000"):
            budget = ["--c0", c0, *COSTS, "--csv", csv]
            out.append((f"allocate-{source}-c{c0}",
                        ["allocate", *budget, "--strategy", "all", "--oracle"]))
            out.append((f"compare-{source}-c{c0}", ["compare", *budget]))
        for threads in ("1", "2"):
            name = f"simulate-{source}-t{threads}"
            out.append((name, ["simulate", f"{source}.ini", "--threads", threads,
                               "--out-json", f"{name}.json", "--out-csv", f"{name}.csv"]))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifacts.py OUT_DIR", file=sys.stderr)
        return 2
    from dsmedian import cli

    for name in ("DSMEDIAN_SEED", "DSMEDIAN_TIMESTAMP"):
        os.environ.pop(name, None)
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    for source, cols in populations().items():
        rows = "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(*(col.tolist() for col in cols)))
        Path(f"{source}.csv").write_text("x,y,z\n" + rows)
        Path(f"{source}.ini").write_text(simulate_config(source))
    log = []
    for name, args in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        Path(f"{name}.out").write_text(stdout.getvalue())
        if stderr.getvalue():
            Path(f"{name}.err").write_text(stderr.getvalue())
        log.append(f"{code} {' '.join(args)}\n")
    Path("commands.txt").write_text("".join(log))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
