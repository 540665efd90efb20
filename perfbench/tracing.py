"""Span tracing of the stableci pipeline from outside the package.

`install` replaces the public names the pipeline looks up at call time
(module globals such as `stableci.experiments.stable_screening`, the
`RngStream` methods, `numpy.linalg.svd`, `cli.multiprocessing`) with
wrappers that record a span per call; `uninstall` puts the originals back.
Nothing under src/ changes, and outputs are identical with tracing on or off
(the benchmark checks that through the records.csv hash).

A span is a list [name, parent, trial, start, end, extra]: parent is the
index of the enclosing span (-1 for a root), trial the trial index of the
enclosing `run_trial` call (or None) and extra a per-name payload (rounds,
bytes read, the K arguments, tasks dispatched). Spans stay in memory; the
benchmark writes them out when it ends. Pool workers record into their own
list and return it with each result, so their spans join the parent's trace.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import types
from contextlib import contextmanager

import numpy as np

import stableci.cli as cli
import stableci.experiments as experiments
import stableci.linmodel as linmodel
import stableci.noise as noise

_now = time.perf_counter  # CLOCK_MONOTONIC on Linux, so comparable across processes


class Recorder:
    """Span store of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial: int | None = None

    def reset(self):
        self.spans = []
        self.stack = []
        self.trial = None

    @contextmanager
    def span(self, name: str, extra=None):
        row = [name, self.stack[-1] if self.stack else -1, self.trial, _now(), 0.0, extra]
        self.stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row[4] = _now()
            self.stack.pop()


# The recorder of this process while tracing is installed. Pool workers are
# forked from a traced process and find it here.
_active: Recorder | None = None
_patches: list[tuple[object, str, object]] = []


def _wrap(rec: Recorder, name: str, fn, extra=None, result_extra=None, trial_arg=None):
    """fn recording a span per call. extra(args, kwargs) and
    result_extra(result) fill the span's payload; trial_arg names the
    positional argument holding the trial index."""
    def traced(*args, **kwargs):
        spans, stack = rec.spans, rec.stack
        prev_trial = rec.trial
        if trial_arg is not None:
            rec.trial = args[trial_arg]
        row = [name, stack[-1] if stack else -1, rec.trial, _now(), 0.0,
               extra(args, kwargs) if extra is not None else None]
        stack.append(len(spans))
        spans.append(row)
        try:
            out = fn(*args, **kwargs)
            if result_extra is not None:
                row[5] = result_extra(out)
            return out
        finally:
            row[4] = _now()
            stack.pop()
            rec.trial = prev_trial
    traced.__wrapped__ = fn
    return traced


def _patch(obj, attr: str, value) -> None:
    _patches.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type)
                     else obj.__dict__[attr]))
    setattr(obj, attr, value)


def _rounds(result) -> int:
    return len(result.trace)


def _k_key(args, kwargs):
    size, delta, budgets = args[0], args[1], args[2]
    mode = args[3] if len(args) > 3 else kwargs.get("variance_mode")
    return repr((size, delta, [(b.eta, b.tau, b.nu) for b in budgets], mode))


def _file_size(args, kwargs) -> int:
    return os.path.getsize(args[0])


def _stream_build_getter(rec: Recorder, original: property):
    fget = original.fget

    def generator(self):
        if self.__dict__.get("_gen") is not None:
            return self._gen
        with rec.span("noise.stream_build"):
            return fget(self)
    return property(generator)


def _run_task(job):
    """Pool-side task: run one job under a fresh span list, return both."""
    fn, arg = job
    rec = _active
    rec.reset()
    with rec.span("cli.pool_task"):
        out = fn(arg)
    return out, rec.spans


class _TracedPool:
    """multiprocessing.Pool whose map records one span, counts the tasks it
    dispatches and merges the spans its workers record."""

    def __init__(self, rec: Recorder, *args, **kwargs):
        self._rec = rec
        self._pool = multiprocessing.Pool(*args, **kwargs)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def map(self, fn, iterable, chunksize=None):
        tasks = list(iterable)
        rec = self._rec
        with rec.span("cli.pool_map", extra=len(tasks)):
            parent = rec.stack[-1]
            out = self._pool.map(_run_task, [(fn, t) for t in tasks], chunksize)
        results = []
        for res, spans in out:
            base = len(rec.spans)
            for s in spans:
                s[1] = s[1] + base if s[1] >= 0 else parent
            rec.spans.extend(spans)
            results.append(res)
        return results


def install(rec: Recorder) -> None:
    """Start recording into rec; undo with uninstall()."""
    global _active
    if _patches:
        raise RuntimeError("tracing is already installed")
    _active = rec
    shared = {
        "ols_fit": "linmodel.ols_fit",
        "stderr_known_sigma": "linmodel.stderr_known_sigma",
        "sigma_hat_full_model": "linmodel.sigma_hat_full_model",
        "DesignMatrix": "linmodel.DesignMatrix",
        "stable_screening": "selectors.stable_screening",
        "stable_fs": "selectors.stable_fs",
        "stable_lasso": "selectors.stable_lasso",
        "lambda_to_c1": "selectors.lambda_to_c1",
        "best_posi_constant": "stability.best_posi_constant",
    }
    payload = {"stable_screening": (None, _rounds), "stable_fs": (None, _rounds),
               "stable_lasso": (None, _rounds), "best_posi_constant": (_k_key, None)}
    for module in (cli, experiments):
        for attr, name in shared.items():
            extra, result_extra = payload.get(attr, (None, None))
            _patch(module, attr, _wrap(rec, name, getattr(module, attr), extra, result_extra))
    _patch(experiments, "target_coefficients",
           _wrap(rec, "linmodel.target_coefficients", experiments.target_coefficients))
    _patch(experiments, "gen_synthetic",
           _wrap(rec, "experiments.gen_synthetic", experiments.gen_synthetic))
    _patch(experiments, "run_trial",
           _wrap(rec, "experiments.run_trial", experiments.run_trial, trial_arg=1))
    _patch(experiments, "aggregate", _wrap(rec, "experiments.aggregate", experiments.aggregate))
    # module-internal calls: target_coefficients and sigma_hat_full_model refit
    _patch(linmodel, "ols_fit", _wrap(rec, "linmodel.ols_fit", linmodel.ols_fit))
    _patch(np.linalg, "svd", _wrap(rec, "linmodel.svd", np.linalg.svd))

    _patch(cli, "eta_sweep", _wrap(rec, "experiments.eta_sweep", cli.eta_sweep))
    _patch(cli, "read_matrix", _wrap(rec, "cli.read_matrix", cli.read_matrix, _file_size))
    for attr in ("read_vector", "read_selection", "load_config", "write_selection",
                 "_write_csv", "_write_manifest"):
        _patch(cli, attr, _wrap(rec, "cli." + attr.lstrip("_"), getattr(cli, attr)))
    _patch(cli, "multiprocessing",
           types.SimpleNamespace(Pool=lambda *a, **k: _TracedPool(rec, *a, **k)))

    stream = noise.RngStream
    _patch(stream, "generator", _stream_build_getter(rec, stream.__dict__["generator"]))
    for attr in ("random", "standard_laplace", "laplace", "normal"):
        _patch(stream, attr, _wrap(rec, "noise.draw", stream.__dict__[attr]))


def uninstall() -> None:
    global _active
    while _patches:
        obj, attr, original = _patches.pop()
        setattr(obj, attr, original)
    _active = None


# ---------------------------------------------------------------------------
# span analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (children of a pool map run in parallel and may overlap)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[3]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[4])
            if b > a:
                covered += b - a
                reach = b
        out.append((s[4] - s[3]) - covered)
    return out


_FIT = {"linmodel.ols_fit", "linmodel.stderr_known_sigma", "linmodel.target_coefficients",
        "linmodel.sigma_hat_full_model", "linmodel.svd"}
_SELECT = {"selectors.stable_screening", "selectors.stable_fs", "selectors.stable_lasso"}
_READ = {"cli.read_matrix", "cli.read_vector", "cli.read_selection", "cli.load_config"}
_WRITE = {"cli.write_selection", "cli.write_csv", "cli.write_manifest"}

# metric name -> (unit, names whose self time or count it sums)
LAYER_METRICS = {
    "noise.stream_build_s": ("s", {"noise.stream_build"}),
    "noise.streams_built": ("count", {"noise.stream_build"}),
    "noise.draw_s": ("s", {"noise.draw"}),
    "linmodel.fit_s": ("s", _FIT),
    "linmodel.svd_calls": ("count", {"linmodel.svd"}),
    "linmodel.design_s": ("s", {"linmodel.DesignMatrix"}),
    "selectors.select_s": ("s", _SELECT),
    "selectors.rounds": ("count", _SELECT),
    "selectors.lambda_to_c1_s": ("s", {"selectors.lambda_to_c1"}),
    "selectors.lambda_to_c1_calls": ("count", {"selectors.lambda_to_c1"}),
    "stability.K_s": ("s", {"stability.best_posi_constant"}),
    "stability.K_calls": ("count", {"stability.best_posi_constant"}),
    "stability.K_distinct": ("count", {"stability.best_posi_constant"}),
    "experiments.gen_s": ("s", {"experiments.gen_synthetic"}),
    "experiments.gen_calls": ("count", {"experiments.gen_synthetic"}),
    "experiments.trial_self_s": ("s", {"experiments.run_trial"}),
    "experiments.aggregate_s": ("s", {"experiments.aggregate"}),
    "cli.read_s": ("s", _READ),
    "cli.read_mb_per_s": ("MB/s", {"cli.read_matrix"}),
    "cli.write_s": ("s", _WRITE),
    "cli.pool_dispatch_s": ("s", {"cli.pool_map"}),
    "cli.pool_tasks": ("count", {"cli.pool_map"}),
}

# counts that repeat exactly from run to run for the same code and seed
EXACT_COUNTERS = ("linmodel.svd_calls", "noise.streams_built", "selectors.lambda_to_c1_calls",
                  "stability.K_calls", "experiments.gen_calls", "cli.pool_tasks",
                  "selectors.rounds", "stability.K_distinct")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one traced iteration."""
    selfs = self_times(spans)
    out = {}
    for metric, (unit, names) in LAYER_METRICS.items():
        rows = [(s, t) for s, t in zip(spans, selfs) if s[0] in names]
        if metric == "stability.K_distinct":
            out[metric] = len({s[5] for s, _ in rows})
        elif metric in ("selectors.rounds", "cli.pool_tasks"):
            out[metric] = sum(s[5] for s, _ in rows)
        elif metric == "cli.read_mb_per_s":
            busy = sum(s[4] - s[3] for s, _ in rows)
            out[metric] = sum(s[5] for s, _ in rows) / 2 ** 20 / busy if busy > 0 else 0.0
        elif unit == "count":
            out[metric] = len(rows)
        else:
            out[metric] = sum(t for _, t in rows)
    return out
