"""Command line front end.

Subcommands:
  select      run one noisy selector on (X, y) from CSV, write a selection file
  ci          refit a selected model and write simultaneous intervals
  experiment  run a Monte Carlo eta sweep from a JSON config into a directory
  budget      print composed stability budgets for given step parameters

Exit codes: 0 ok, 2 bad input, parameter or config key (found before any
output is written) or an output path that cannot be written, 3 dimension
mismatch, 4 rank-deficient fit, 5 not enough rows to estimate sigma.

All floats are written with repr() so files round-trip exactly; experiment
outputs are byte-identical for any worker count and block size because
trials are keyed by (master_seed, path), not by scheduling order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import multiprocessing
import os
import re
import sys
import time
from collections.abc import Iterable

import numpy as np

from . import __version__
from .errors import (
    DegenerateLevel,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    RankDeficient,
    StableCIError,
)
from .experiments import (
    WIDTH_QUANTILE_LEVELS,
    ExperimentConfig,
    SelectorSpec,
    block_trials,
    eta_sweep,
    run_selector,
)
from .linmodel import DesignMatrix, ModelSet
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .linmodel import ols_fit, sigma_hat_full_model, stderr_known_sigma  # noqa: F401
from .noise import STREAM_LAYOUT, RngStream
from .selectors import MECHANISMS, SelectionResult
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .selectors import lambda_to_c1, stable_fs, stable_lasso, stable_screening  # noqa: F401
from .stability import (
    ZERO_BUDGET,
    StabilityBudget,
    compose_adaptive_advanced,
    compose_adaptive_simple,
    infer,
    scipy_special,
    sparse_selection_eta,
)
# not called here: bound for perfbench/tracing.py, which wraps this name in this module
from .stability import best_posi_constant  # noqa: F401

SCHEMA_VERSION = 1

_SELECTION_COLUMNS = ["record", "f1", "f2", "f3", "f4", "f5", "f6"]

_LOADTXT = dict(dtype=np.float64, delimiter=",", quotechar='"', comments=None, ndmin=2)

# a line of nothing but whitespace, commas and quotes; re's \s is str.strip()'s
# whitespace, and the match stops at a data line's first data character
_FILLER = re.compile(r'[\s,"]*\Z').match


class CliParseError(ValueError):
    """Malformed file or option combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# formatting / file helpers

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError of the block into CliParseError (exit 2) naming path."""
    try:
        yield
    except OSError as e:
        raise CliParseError(f"cannot write {path}: {e}") from e


def _write_csv(path: str, header: list[str], rows: Iterable[list[str]]) -> None:
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _data_lines(fh):
    """(line number from 1, line) for each line of fh holding more than whitespace,
    commas and quotes, less a first such line with a non-numeric field: the header."""
    lines = ((n, line) for n, line in enumerate(fh, 1) if not _FILLER(line))
    for n, line in lines:  # the first line only
        try:
            [float(c) for c in next(csv.reader([line]))]
        except ValueError:
            break
        yield n, line
        break
    yield from lines


def _first_bad_line(path: str) -> str | None:
    """Why loadtxt rejects path, naming the file line: the first data line
    that does not parse alone, or that is not as wide as the first one."""
    width = None
    with open(path, encoding="utf-8-sig") as fh:
        for n, line in _data_lines(fh):
            try:
                w = np.loadtxt([line], **_LOADTXT).shape[1]
            except ValueError:
                return f"line {n} is not a row of numbers: {line.strip()!r}"
            width = width or w
            if w != width:
                return f"line {n} has {w} field(s), not {width}"


def read_matrix(path: str) -> np.ndarray:
    """Numeric CSV, one row per line; a single leading non-numeric row is
    treated as a header and skipped. Lines holding nothing but whitespace,
    commas and quotes are skipped, fields may be quoted, and '#' is data,
    not a comment. A rejection names the first bad line of the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # Excel starts a CSV with a BOM
            lines = (line for _, line in _data_lines(fh))
            first = next(lines, None)
            if first is None:
                raise CliParseError(f"{path}: no numeric rows")
            try:
                return np.loadtxt(itertools.chain([first], lines), **_LOADTXT)
            except ValueError as e:
                # rescan only on failure, so a good file is parsed once
                raise CliParseError(f"{path}: {_first_bad_line(path) or e}") from e
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e


def read_vector(path: str) -> np.ndarray:
    mat = read_matrix(path)
    if mat.shape[1] == 1:
        return mat[:, 0]
    if mat.shape[0] == 1:
        return mat[0, :]
    raise CliParseError(f"{path}: expected a single column or row, got shape {mat.shape}")


def _write_manifest(path: str, command: str, params: dict, outputs: list[str],
                    started: float) -> None:
    doc = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "stream_layout": STREAM_LAYOUT,
        "package_version": __version__,
        "parameters": params,
        "outputs": outputs,
        "wall_clock_sec": time.time() - started,
    }
    with _writing(path), open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# selection file round trip

def write_selection(path: str, method: str, params: dict, result: SelectionResult) -> None:
    rows: list[list[str]] = [["meta", "schema", str(SCHEMA_VERSION)], ["meta", "method", method],
                             ["meta", "stream_layout", str(STREAM_LAYOUT)]]
    for key in sorted(params):
        rows.append(["meta", key, _fmt(params[key])])
    for j in result.model:
        rows.append(["selected", str(j)])
    if result.theta is not None:
        for j, v in enumerate(result.theta):
            if v != 0.0:
                rows.append(["theta", str(j), repr(float(v))])
    for label, b in zip(("advanced", "linear"), result.budgets):
        rows.append(["budget", label, repr(b.eta), repr(b.tau), repr(b.nu)])
    for t in result.trace:
        row = ["trace", str(t.step), str(t.chosen), repr(t.exact_score),
               repr(t.noisy_score), repr(t.best_exact)]
        if t.objective is not None:
            row.append(repr(t.objective))
        rows.append(row)
    padded = [row + [""] * (len(_SELECTION_COLUMNS) - len(row)) for row in rows]
    _write_csv(path, _SELECTION_COLUMNS, padded)


def read_selection(path: str) -> tuple[ModelSet, list[StabilityBudget], dict]:
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e
    if rows and rows[0][0] == "record":
        rows = rows[1:]
    indices: list[int] = []
    budgets: list[StabilityBudget] = []
    meta: dict = {}
    for row in rows:
        kind = row[0]
        try:
            if kind == "selected":
                indices.append(int(row[1]))
            elif kind == "budget":
                budgets.append(StabilityBudget(float(row[2]), float(row[3]), float(row[4])))
            elif kind == "meta":
                meta[row[1]] = row[2]
        except (IndexError, ValueError) as e:
            raise CliParseError(f"{path}: bad {kind} row {row}: {e}") from e
    if not budgets:
        raise CliParseError(f"{path}: no budget rows; a selection needs its certificate "
                            "(use --model for a model chosen without looking at the data)")
    if meta.get("schema", str(SCHEMA_VERSION)) != str(SCHEMA_VERSION):
        raise CliParseError(f"{path}: selection schema {meta['schema']!r}, "
                            f"expected {SCHEMA_VERSION}")
    return ModelSet.from_unordered(indices), budgets, meta


# ---------------------------------------------------------------------------
# select

def cmd_select(args) -> int:
    started = time.time()
    if not 0 <= args.seed < 2 ** 64:
        raise CliParseError(f"--seed must be in [0, 2**64), got {args.seed}")
    spec = SelectorSpec(method=args.method, k=args.k, c1=args.c1, lam=args.lam,
                        steps=args.steps)
    X = DesignMatrix(read_matrix(args.x))
    y = read_vector(args.y)
    result = run_selector(spec, X, y, args.eta, args.delta, args.sigma, RngStream(args.seed))
    params = {"n": X.n, "d": X.d, "delta": args.delta, "eta_step": args.eta,
              "sigma": args.sigma, "seed": args.seed}
    if result.c1 is None:
        params["k"] = args.k
    elif result.c1 == 0.0:
        raise CliParseError(f"penalty {args.lam} zeroes every coordinate; nothing to select")
    else:
        if args.lam is not None:
            params["lam"] = args.lam
        params.update(c1=result.c1, steps=len(result.trace))
    write_selection(args.out, args.method, params, result)
    manifest = args.out + ".manifest.json"
    _write_manifest(manifest, "select",
                    {**params, "method": args.method,
                     "model": [int(j) for j in result.model],
                     "budgets": [[b.eta, b.tau, b.nu] for b in result.budgets]},
                    [args.out], started)
    print(f"selected {len(result.model)} of {X.d} columns -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# ci

def _parse_number(name: str, text: str, kind=int):
    """text as an int (or a float), or CliParseError naming the flag or
    variable name it came from."""
    try:
        return kind(text)
    except ValueError:
        want = "an integer" if kind is int else "a number"
        raise CliParseError(f"{name} needs {want}, got {text!r}") from None


def _parse_sigma(text: str) -> float | None:
    """--sigma accepts 'estimate' (returned as None), 'known:VALUE', or a bare number."""
    if text == "estimate":
        return None
    if text.startswith("known:"):
        text = text.split(":", 1)[1]
    try:
        value = float(text)
    except ValueError as e:
        raise CliParseError(f"--sigma must be 'estimate', 'known:VALUE', or a number, got {text!r}") from e
    if not (0 < value < math.inf):
        raise CliParseError(f"sigma must be finite and positive, got {value}")
    return value


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliParseError(f"--weights needs three comma-separated numbers, got {text!r}")
    try:
        w = tuple(float(p) for p in parts)
    except ValueError as e:
        raise CliParseError(f"bad --weights {text!r}: {e}") from e
    return w


def cmd_ci(args) -> int:
    started = time.time()
    X = DesignMatrix(read_matrix(args.x))
    y = read_vector(args.y)
    if args.selection is not None:
        model, budgets, meta = read_selection(args.selection)
        # the certificate's noise scales were calibrated on the selection's design
        shape = (meta.get("n", str(X.n)), meta.get("d", str(X.d)))
        if shape != (str(X.n), str(X.d)):
            raise DimensionMismatch(f"{args.selection} was selected on a {shape[0]}x{shape[1]} "
                                    f"design, but --x is {X.n}x{X.d}")
    else:
        indices = ([_parse_number("--model", p) for p in args.model.split(",")]
                   if args.model.strip() else [])
        model = ModelSet.from_unordered(indices)
        budgets = [ZERO_BUDGET]
    weights = _parse_weights(args.weights) if args.weights is not None else None
    sigma = _parse_sigma(args.sigma)
    ivals = infer(X, y, model, budgets, args.alpha, sigma, weights)
    rows = [[str(j), repr(float(ivals.estimates[i])), repr(float(ivals.stderrs[i])),
             repr(ivals.K), repr(float(ivals.lower[i])), repr(float(ivals.upper[i]))]
            for i, j in enumerate(model)]
    _write_csv(args.out, ["index", "estimate", "stderr", "K", "lower", "upper"], rows)
    _write_manifest(args.out + ".manifest.json", "ci",
                    {"alpha": args.alpha, "delta_level": ivals.level, "K": ivals.K,
                     "sigma_mode": "estimate" if sigma is None else "known",
                     "sigma": ivals.sigma,
                     "model": [int(j) for j in model],
                     "budget_used": [ivals.budget.eta, ivals.budget.tau, ivals.budget.nu],
                     "weights": args.weights},
                    [args.out], started)
    print(f"K={ivals.K!r} delta_level={ivals.level!r} model_size={len(model)} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# experiment

def load_config(path: str) -> ExperimentConfig:
    """An `experiment` JSON config as an ExperimentConfig. Each key is the
    field of the same name of ExperimentConfig or SelectorSpec, which check
    it, the eta grid included; here only the shape of the file is checked."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise CliParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliParseError(f"{path} is not valid JSON: {e}") from e
    if not (isinstance(raw, dict) and isinstance(raw.get("selector"), dict)):
        raise CliParseError(f"{path}: a config is a JSON object with an object 'selector'")
    sel = raw.pop("selector")
    nulls = [key for key, value in sel.items() if value is None]
    if nulls:  # SelectorSpec would read a null knob as an absent one
        raise CliParseError(f"{path}: selector {nulls[0]} is null")
    try:
        return ExperimentConfig(**raw, selector=SelectorSpec(**sel))
    except TypeError as e:  # a missing or unknown key
        raise CliParseError(f"{path}: {e}") from e


def _records_rows(eta: float, runs) -> list[list[str]]:
    """records.csv rows of one eta's Runs: one repr per float of a column,
    and per certificate row that a run uses."""
    eta, offsets, cert = repr(eta), runs.offsets.tolist(), runs.cert.tolist()
    cols, widths = list(map(str, runs.cols.tolist())), list(map(repr, runs.widths.tolist()))
    rows = runs.certs.tolist()
    certs = {c: list(map(repr, rows[c])) for c in set(cert)}
    risk = ["" if math.isnan(v) else repr(v) for v in runs.risk.tolist()]
    columns = zip(map(str, runs.trial.tolist()), offsets, offsets[1:], runs.covered.tolist(),
                  map(repr, runs.fdr.tolist()), risk, map(repr, runs.K.tolist()), cert)
    return [[eta, trial, runs.flagged.get(r, ""), str(b - a), "|".join(cols[a:b]),
             "1" if covered else "0", fdr, risk, K, *certs[c], "|".join(widths[a:b])]
            for r, (trial, a, b, covered, fdr, risk, K, c) in enumerate(columns)]


def cmd_experiment(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    workers = args.workers
    if workers is None:
        workers = _parse_number("STABLECI_WORKERS", os.environ.get("STABLECI_WORKERS", "1"))
    if workers < 1:
        raise CliParseError(f"workers must be >= 1, got {workers}")
    made = []  # the directories makedirs makes, deepest first
    path = os.path.abspath(args.out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    with _writing(args.out_dir):
        os.makedirs(args.out_dir, exist_ok=True)

    # a process per block at most: a sweep has ceil(trials / block size) blocks
    processes = min(workers, -(-cfg.trials // block_trials(cfg)))
    try:
        if processes > 1:
            scipy_special()  # once here, not once per forked worker
            with multiprocessing.Pool(processes) as pool:
                sweep = eta_sweep(cfg, pool.map)
        else:
            sweep = eta_sweep(cfg)
    except BaseException:
        # a failure that only the data shows (a screening or LASSO scale, a
        # default LASSO step count) leaves no directory behind that this
        # call made; nothing is written before the sweep ends, so they are
        # empty, and rmdir refuses one that is not
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise

    # records.csv rows one eta at a time, as the writer reaches them
    record_rows = itertools.chain.from_iterable(_records_rows(eta, runs) for eta, runs, _ in sweep)
    summary_rows: list[list[str]] = []
    plot_width, plot_fdr, plot_risk = [], [], []
    all_flagged: list[str] = []
    for eta, _, summary in sweep:
        q = summary.width_quantiles
        # an eta whose every trial was flagged keeps its row, with empty statistics
        summary_rows.append([
            repr(eta), str(summary.trials), str(summary.flagged),
            str(summary.empty_models), _fmt(summary.empirical_coverage),
            _fmt(summary.width_max),
            *(_fmt(q[lvl]) for lvl in WIDTH_QUANTILE_LEVELS),
            _fmt(summary.mean_fdr), _fmt(summary.mean_risk), _fmt(summary.mean_K),
        ])
        plot_width.append([repr(eta), _fmt(q[0.90]), _fmt(summary.width_max)])
        plot_fdr.append([repr(eta), _fmt(summary.mean_fdr)])
        plot_risk.append([repr(eta), _fmt(summary.mean_risk)])
        if summary.trials == 0:
            reasons = ", ".join(f"{k}: {c}" for k, c in summary.flag_reasons.items())
            all_flagged.append(f"eta {eta!r}: all {summary.flagged} trials were flagged "
                               f"({reasons})")

    paths = {
        "records.csv": (["eta", "trial", "flagged", "model_size", "model", "covered",
                         "fdr", "risk", "K", "budget_eta", "budget_tau", "budget_nu",
                         "widths"], record_rows),
        "summary.csv": (["eta", "trials", "flagged", "empty_models", "coverage",
                         "width_max", "width_q80", "width_q85", "width_q90",
                         "width_q100", "mean_fdr", "mean_risk", "mean_K"], summary_rows),
        "plot_width.csv": (["eta", "width_q90", "width_max"], plot_width),
        "plot_fdr.csv": (["eta", "mean_fdr"], plot_fdr),
        "plot_risk.csv": (["eta", "mean_risk"], plot_risk),
    }
    for name, (header, rows) in paths.items():
        _write_csv(os.path.join(args.out_dir, name), header, rows)
    _write_manifest(os.path.join(args.out_dir, "manifest.json"), "experiment",
                    {"config_path": args.config, "eta_grid": cfg.eta_grid, "workers": workers,
                     "processes": processes, "trials": cfg.trials,
                     "master_seed": cfg.master_seed},
                    sorted(paths), started)
    print(f"wrote {', '.join(sorted(paths))} to {args.out_dir} "
          f"({len(cfg.eta_grid)} etas x {cfg.trials} trials, {workers} workers)")
    if all_flagged:
        raise EmptyInput("; ".join(all_flagged))
    return 0


# ---------------------------------------------------------------------------
# budget

def cmd_budget(args) -> int:
    lines = []  # every line is computed, so checked, before any is printed
    if args.k is not None:
        if args.eta_step is None:
            raise CliParseError("--eta-step is required with --k")
        eta_s, tau_s = compose_adaptive_simple(args.eta_step, args.tau_step, args.k)
        lines.append(f"simple eta={eta_s!r} tau={tau_s!r} "
                     f"(k={args.k}, eta_step={args.eta_step!r}, tau_step={args.tau_step!r})")
        eta_a = compose_adaptive_advanced(args.eta_step, args.k, args.delta)
        lines.append(f"advanced eta={eta_a!r} nu={args.delta!r} "
                     f"(k={args.k}, eta_step={args.eta_step!r}, delta={args.delta!r})")
    if args.sparse is not None:
        d, s = (_parse_number("--sparse", text) for text in args.sparse[:2])
        tau = _parse_number("--sparse", args.sparse[2], float)
        lines.append(f"sparse eta={sparse_selection_eta(d, s, tau)!r} (d={d}, s={s}, tau={tau!r})")
    if not lines:
        raise CliParseError("nothing to do: give --k/--eta-step and/or --sparse D S TAU")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stableci",
        description="Simultaneous post-selection intervals for stabilized selectors.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="run a noisy selector on CSV data")
    ps.add_argument("--x", required=True, help="design matrix CSV")
    ps.add_argument("--y", required=True, help="response CSV (single column)")
    ps.add_argument("--method", required=True,
                    choices=[name for name, mech in MECHANISMS.items() if mech.kernel])
    ps.add_argument("--k", type=int, default=None, help="rounds (screen/fs)")
    ps.add_argument("--c1", type=float, default=None, help="lasso l1 radius")
    ps.add_argument("--lam", type=float, default=None,
                    help="lasso penalty; converted to an l1 radius on this data")
    ps.add_argument("--steps", type=int, default=None, help="lasso iteration override")
    ps.add_argument("--eta", type=float, required=True, help="per-step privacy parameter")
    ps.add_argument("--delta", type=float, default=0.02, help="per-run stability slack")
    ps.add_argument("--sigma", type=float, default=1.0, help="noise scale of the response")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default="selection.csv")
    ps.set_defaults(func=cmd_select)

    pc = sub.add_parser("ci", help="simultaneous intervals for a selected model")
    pc.add_argument("--x", required=True)
    pc.add_argument("--y", required=True)
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument("--selection", default=None, help="selection CSV from `select`")
    group.add_argument("--model", default=None,
                       help="comma-separated column indices (assumes a zero budget)")
    pc.add_argument("--alpha", type=float, default=0.1, help="total miscoverage target")
    pc.add_argument("--sigma", default="estimate",
                    help="'estimate', 'known:VALUE', or a number")
    pc.add_argument("--weights", default=None,
                    help="delta,tau,nu split of alpha (default: remainder rule)")
    pc.add_argument("--out", default="intervals.csv")
    pc.set_defaults(func=cmd_ci)

    pe = sub.add_parser("experiment", help="Monte Carlo eta sweep from a JSON config")
    pe.add_argument("--config", required=True)
    pe.add_argument("--out-dir", required=True)
    pe.add_argument("--workers", type=int, default=None,
                    help="process count (default: STABLECI_WORKERS or 1)")
    pe.set_defaults(func=cmd_experiment)

    pb = sub.add_parser("budget", help="print composed stability budgets")
    pb.add_argument("--k", type=int, default=None, help="number of adaptive steps")
    pb.add_argument("--eta-step", type=float, default=None)
    pb.add_argument("--tau-step", type=float, default=0.0)
    pb.add_argument("--delta", type=float, default=0.02, help="slack (select's default)")
    pb.add_argument("--sparse", nargs=3, default=None, metavar=("D", "S", "TAU"),
                    help="also print the union bound for s-sparse selection")
    pb.set_defaults(func=cmd_budget)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RankDeficient as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InsufficientSamples as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except (CliParseError, DegenerateLevel, StableCIError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
