"""Workload definitions and input generation for the stableci benchmark.

Every input is generated here from the workload seed; the package under test
only ever sees the files written by `write_inputs`. Run as a script it is one
set-up step: import the package's command line module, then write the
workload's inputs into a directory.

    python3 perfbench/workloads.py --workload sweep-screen --seed 1 --dir WORK
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

# Significant decimal digits of every number written to a CSV input. All
# values of one file share one decimal exponent, so m / 10**frac (with the
# integer m < 10**15 < 2**53) is the double the text parses back to, and
# the benchmark can check the program's estimates against the exact data.
SIG_DIGITS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep": experiment + a small select/ci; "csv": select/ci on a large design
    workers: int  # processes the experiment call uses (BLAS threads = nproc // workers)
    n: int  # rows of the select/ci design
    d: int  # columns of the select/ci design
    active: int  # leading columns with a nonzero coefficient
    signal: float  # value of each nonzero coefficient
    col_scale: float  # design entries are N(0, 1) * col_scale
    select_args: tuple[str, ...]
    ci_args: tuple[str, ...]
    pairs: int  # select/ci pairs per iteration
    config: dict | None = None  # experiment config without master_seed
    # scale call times by probes taken during the calls instead of by the
    # reference runs around them (for calls of seconds; see speed.py)
    probe_calls: bool = False


_SWEEP_DESIGN = dict(n=100, d=20, active=3, signal=5.0, col_scale=0.1, pairs=8)
_SWEEP_CONFIG = {"n": 100, "d": 20, "signal": 5.0, "active_fraction": 0.15,
                 "sigma": 1.0, "alpha": 0.1, "regenerate_x_per_trial": True}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-screen", kind="sweep", workers=1, **_SWEEP_DESIGN,
        select_args=("--method", "screen", "--k", "3", "--eta", "1.0", "--delta", "0.02"),
        ci_args=("--sigma", "known:1.0"),
        config={**_SWEEP_CONFIG, "trials": 250, "sigma_mode": "known",
                "eta_grid": [0.5, 1.0, 2.0, 4.0],
                "selector": {"method": "screen", "k": 3}},
    ),
    Workload(
        # explicit steps: the default step count grows with eta and aborts
        # a lam sweep with DegenerateLevel (an open correctness defect)
        name="sweep-lasso-lam", kind="sweep", workers=1, **_SWEEP_DESIGN,
        select_args=("--method", "lasso", "--lam", "0.5", "--steps", "20",
                     "--eta", "0.5", "--delta", "0.02"),
        ci_args=("--sigma", "estimate"),
        config={**_SWEEP_CONFIG, "trials": 60, "sigma_mode": "estimate",
                "eta_grid": [0.25, 0.5, 1.0],
                "selector": {"method": "lasso", "lam": 0.5, "steps": 20}},
    ),
    Workload(
        name="sweep-fs-pool", kind="sweep", workers=2, **_SWEEP_DESIGN,
        select_args=("--method", "fs", "--k", "3", "--eta", "1.0", "--delta", "0.02"),
        ci_args=("--sigma", "known:1.0"),
        config={**_SWEEP_CONFIG, "trials": 250, "sigma_mode": "known",
                "eta_grid": [0.5, 1.0, 2.0, 4.0],
                "selector": {"method": "fs", "k": 3}},
    ),
    Workload(
        # --delta 0.02 as in the README: select's default 0.05 certifies a
        # slack of 0.10, which leaves ci's default alpha 0.1 no level (exit 2)
        name="cli-csv", kind="csv", workers=1,
        n=20000, d=300, active=10, signal=0.5, col_scale=1.0, pairs=1,
        select_args=("--method", "fs", "--k", "5", "--eta", "1.0", "--delta", "0.02"),
        ci_args=("--sigma", "estimate"), probe_calls=True,
    ),
)}

CONFIG_FILE = "config.json"
X_FILE = "X.csv"
Y_FILE = "y.csv"


def _quantize(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(m, frac) with a ~= m / 10**frac and every |m| < 10**SIG_DIGITS."""
    top = float(np.max(np.abs(a)))
    int_digits = max(1, len(str(int(top))))
    while True:
        frac = SIG_DIGITS - int_digits
        m = np.rint(a * 10.0 ** frac).astype(np.int64)
        if int(np.max(np.abs(m))) < 10 ** SIG_DIGITS:
            return m, frac
        int_digits += 1


def make_design(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (X, y) the select/ci calls run on, exactly as written to CSV."""
    gen = np.random.default_rng([seed, w.n, w.d])
    X = gen.standard_normal((w.n, w.d)) * w.col_scale
    mx, fx = _quantize(X)
    X = mx / 10.0 ** fx
    beta = np.zeros(w.d)
    beta[:w.active] = w.signal
    y = X @ beta + gen.standard_normal(w.n)
    my, fy = _quantize(y)
    return X, my / 10.0 ** fy


def csv_bytes(a: np.ndarray, header: list[str]) -> bytes:
    """Fixed-width CSV text of a 2-D array: sign, SIG_DIGITS digits and a
    point per field, one header row. Vectorized, so writing the 20000 x 300
    design stays a small part of set-up."""
    m, frac = _quantize(a)
    n, d = m.shape
    int_digits = SIG_DIGITS - frac
    point = 1 + int_digits
    out = np.empty((n, d, SIG_DIGITS + 3), dtype=np.uint8)
    out[..., 0] = np.where(m < 0, ord("-"), ord("+"))
    rest = np.abs(m)
    for col in reversed([c for c in range(1, SIG_DIGITS + 2) if c != point]):
        out[..., col] = ord("0") + rest % 10
        rest //= 10
    out[..., point] = ord(".")
    out[..., -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    return (",".join(header) + "\n").encode() + out.tobytes()


def write_inputs(w: Workload, seed: int, directory: str) -> None:
    """Write the workload's input files; the experiment config is then
    loaded through the package so that set-up covers its validation."""
    X, y = make_design(w, seed)
    with open(os.path.join(directory, X_FILE), "wb") as fh:
        fh.write(csv_bytes(X, [f"x{j}" for j in range(w.d)]))
    with open(os.path.join(directory, Y_FILE), "wb") as fh:
        fh.write(csv_bytes(y[:, None], ["y"]))
    # the text must parse back to exactly the doubles the checks refit on
    with open(os.path.join(directory, X_FILE)) as fh:
        fh.readline()
        first = [float(c) for c in fh.readline().split(",")]
    if first != X[0].tolist():
        raise RuntimeError("CSV text does not round-trip the generated design")
    if w.config is not None:
        path = os.path.join(directory, CONFIG_FILE)
        with open(path, "w") as fh:
            json.dump({**w.config, "master_seed": seed}, fh, indent=1)
        from stableci.cli import load_config
        load_config(path)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write one workload's inputs")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args(argv)
    import stableci.cli  # noqa: F401  (import cost is part of set-up)
    write_inputs(WORKLOADS[args.workload], args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
