"""Output checks of the stableci benchmark.

Each check returns the facts the metrics need together with a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

REFIT_RTOL = 1e-10  # estimates against an independent least-squares refit


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def nearest_rank(values: list[float], level: float) -> float:
    """Nearest-rank quantile, the convention of the package's summaries."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(level * len(ordered)))) - 1]


def check_records(path: str, config: dict) -> dict:
    """records.csv of one experiment call: the row count is trials x |grid|,
    every width is finite, and coverage per eta is at least
    1 - alpha - 3 SE with SE = sqrt(alpha (1 - alpha) / kept trials)."""
    problems: list[str] = []
    grid = [float(e) for e in config["eta_grid"]]
    alpha = config["alpha"]
    covered = {eta: [0, 0] for eta in grid}
    widths: list[float] = []
    rows = flagged = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            if row["flagged"]:
                flagged += 1
                continue
            cell = covered.setdefault(float(row["eta"]), [0, 0])
            cell[0] += row["covered"] == "1"
            cell[1] += 1
            for text in filter(None, row["widths"].split("|")):
                width = float(text)
                if not math.isfinite(width):
                    problems.append(f"non-finite width {text} at eta {row['eta']}")
                widths.append(width)
    expected = config["trials"] * len(grid)
    if rows != expected:
        problems.append(f"{rows} records, expected trials x |grid| = {expected}")
    for eta, (hits, kept) in sorted(covered.items()):
        if eta not in grid:
            problems.append(f"records for eta {eta}, which is not in the grid")
        elif kept == 0:
            problems.append(f"no unflagged record at eta {eta}")
        else:
            floor = 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / kept)
            if hits / kept < floor:
                problems.append(f"coverage {hits / kept:.4f} at eta {eta} below {floor:.4f}")
    if not widths:
        problems.append("no interval widths recorded")
    return {"records": rows, "flagged": flagged, "sha256": sha256(path),
            "width_q90": nearest_rank(widths, 0.90) if widths else float("nan"),
            "problems": problems}


def check_intervals(path: str, X: np.ndarray, y: np.ndarray, size: int | None) -> dict:
    """intervals.csv of one ci call: estimates equal an independent lstsq
    refit of y on the selected columns to REFIT_RTOL (relative to the
    largest coefficient), and lower < estimate < upper for each."""
    problems: list[str] = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    model = [int(r["index"]) for r in rows]
    est = np.array([float(r["estimate"]) for r in rows])
    lower = np.array([float(r["lower"]) for r in rows])
    upper = np.array([float(r["upper"]) for r in rows])
    if size is not None and len(model) != size:
        problems.append(f"{len(model)} selected columns, expected {size}")
    if model:
        ref = np.linalg.lstsq(X[:, model], y, rcond=None)[0]
        err = float(np.max(np.abs(est - ref)))
        if not err <= REFIT_RTOL * float(np.max(np.abs(ref))):
            problems.append(f"estimates differ from the lstsq refit by {err:.3e}")
        if not np.all((lower < est) & (est < upper)):
            problems.append("an interval does not contain its estimate strictly")
    widths = (upper - lower).tolist()
    return {"model": model, "sha256": sha256(path),
            "width_q90": nearest_rank(widths, 0.90) if widths else float("nan"),
            "problems": problems}
