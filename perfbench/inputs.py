"""Seeded inputs of the dsmedian benchmark, written before anything is timed.

Nothing here imports dsmedian: the program under test receives only what
these functions generate.  Paths are relative to the checkout root, which
is the working directory of every benchmark process.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

WORK_DIR = Path("perfbench") / ".work"

#: Canonical population of the design-csv gate (its digests are golden).
GATE_CSV = WORK_DIR / "gate.csv"
GATE_CSV_SEED = 20250801
GATE_CSV_UNITS = 2_000

DESIGN_CSV_UNITS = 100_000

# Gaussian copula of the skewed CSV populations: lognormal x and z, normal y.
_CORRELATION = np.array([[1.0, 0.8, 0.7], [0.8, 1.0, 0.6], [0.7, 0.6, 1.0]])


def derived_seed(seed: int, workload: str) -> int:
    """The master seed handed to the program: a 63-bit value fixed by the
    workload seed and the workload name."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def skewed_population(seed: int, units: int) -> np.ndarray:
    """(3, units) array of x, y, z: lognormal x and z, normal y."""
    rng = np.random.default_rng(seed)
    s = np.linalg.cholesky(_CORRELATION) @ rng.standard_normal((3, units))
    return np.stack((np.exp(1.0 + 0.5 * s[0]), 10.0 + 2.0 * s[1], np.exp(0.5 + 0.4 * s[2])))


def lower_median(values: np.ndarray) -> float:
    """Left-continuous inverse ECDF at 0.5, computed independently of dsmedian."""
    return float(np.sort(values)[(values.size + 1) // 2 - 1])


def write_csv(path: Path, cols: np.ndarray) -> None:
    """Write x,y,z rows with round-trip float reprs; atomic replace."""
    rows = "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(*(c.tolist() for c in cols)))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text("x,y,z\n" + rows)
    os.replace(tmp, path)


def make_inputs(workload: str, seed: int) -> Path:
    """Write the workload's inputs for ``seed`` and return the path of the
    JSON file that describes them."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    master_seed = derived_seed(seed, workload)
    inputs = {"workload": workload, "seed": seed, "master_seed": master_seed}
    if workload == "design-csv":
        write_csv(GATE_CSV, skewed_population(GATE_CSV_SEED, GATE_CSV_UNITS))
        csv = WORK_DIR / f"design-{seed}.csv"
        cols = skewed_population(master_seed, DESIGN_CSV_UNITS)
        write_csv(csv, cols)
        inputs.update(
            csv=str(csv),
            units=DESIGN_CSV_UNITS,
            medians=[lower_median(c) for c in cols],
        )
    path = WORK_DIR / f"inputs-{workload}-{seed}.json"
    path.write_text(json.dumps(inputs))
    return path
