"""Monte Carlo harness: synthetic data, trial pipeline, metrics, sweeps.

Each trial draws its own data and noise streams from (master_seed, path),
so trials are independent tasks that parallelize without changing any
result. The pipeline per trial: generate, select (noisy), certify budgets,
infer the intervals, score coverage / width / FDR / risk against the
realized design of that trial.

An ExperimentConfig is the whole experiment, its eta grid included, and
its construction is the one check of a config, for the `experiment`
command and a library caller alike.

Sweeps run in blocks of consecutive trials, each over the config's whole
eta grid; a run is one (trial, eta) pair. `_run_block` takes a block in
one pass: each trial's data and `lam` radius, which do not depend on eta,
then one call of selectors.select_runs, the selector dispatch `select`
goes through too, for every run, each trial's selector stream serving all
of its etas, then one call of stability.infer_runs, the inference of
`ci`, which estimates sigma once per trial, for the intervals of every
run selected; the two hand each other arrays over the runs (trial,
support mask, certificate index). This module keeps the data, the
streams, the targets, the metrics and the records. No per-run number
depends on the block, so every record is the one an eta-major loop,
rerunning each (eta, trial) from scratch, would produce, whatever the
block size and the worker count. `run_trial` is a one-trial block;
`run_selector`, which `select` calls, is a one-run call of select_runs.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BadWeights, EmptyInput, NonConvergence, check_number
from .linmodel import DesignMatrix, ModelSet
from .noise import NoisePolicy, RngStream, keyed, scale_forward_stepwise
from .selectors import SelectionResult, SelectorSpec, _one_run, lambda_to_c1, select_runs
from .stability import ZERO_BUDGET, StabilityBudget, certify_budgets, infer_runs, slack_allowance
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .linmodel import ols_fit, sigma_hat_full_model, stderr_known_sigma  # noqa: F401
from .linmodel import target_coefficients  # noqa: F401
from .selectors import stable_fs, stable_lasso, stable_screening  # noqa: F401
from .stability import best_posi_constant  # noqa: F401

# paths namespaces under the master seed
_PATH_SHARED_DESIGN = 0
_PATH_TRIAL_DATA = 1
_PATH_TRIAL_SELECTOR = 2

DEFAULT_ETA_GRID = tuple(0.5 * i for i in range(1, 21))

# trials per block of the sweep engine, and the byte budget of a block's
# largest array; see block_trials
BLOCK_TRIALS = 16
BLOCK_BYTES = 16 * 2 ** 20

WIDTH_QUANTILE_LEVELS = (0.80, 0.85, 0.90, 1.00)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: its fields are the keys of an `experiment`
    config, each checked for its JSON type and range here, the one check of
    a config for the command line and a library caller alike. A noisy
    selector needs a positive tau + nu share of alpha_weights, and where the
    selector fixes its round count (k, or LASSO steps) every eta of eta_grid
    must certify at selector_slack, with a finite forward-stepwise scale."""

    n: int
    d: int
    selector: SelectorSpec
    trials: int
    master_seed: int
    signal: float = 5.0  # the value of each active coefficient
    active_fraction: float = 0.8  # share of the d coefficients that are active
    sigma: float = 1.0
    alpha: float = 0.1
    regenerate_x_per_trial: bool = True
    sigma_mode: str = "known"  # "known" | "estimate"
    alpha_weights: tuple[float, float, float] | None = None
    eta_grid: tuple[float, ...] = DEFAULT_ETA_GRID  # the per-step etas of the sweep

    def __post_init__(self):
        for name, low in (("n", 1), ("d", 1), ("trials", 1), ("master_seed", 0)):
            check_number(name, getattr(self, name), integer=True)
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.master_seed >= 2 ** 64:
            raise ValueError(f"master_seed must be below 2**64, got {self.master_seed}")
        if self.trials > 2 ** 64 - 1:  # a trial index is one word of its stream paths
            raise ValueError(f"trials must be at most 2**64 - 1, got {self.trials}")
        for name in ("signal", "active_fraction", "sigma", "alpha"):
            check_number(name, getattr(self, name))
        if not (0.0 <= self.active_fraction <= 1.0):
            raise ValueError(f"active_fraction must be in [0, 1], got {self.active_fraction}")
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not math.isfinite(self.signal):
            raise ValueError(f"signal must be finite, got {self.signal}")
        if not isinstance(self.regenerate_x_per_trial, bool):
            raise ValueError(f"regenerate_x_per_trial must be a bool, "
                             f"got {self.regenerate_x_per_trial!r}")
        if self.sigma_mode not in ("known", "estimate"):
            raise ValueError(f"sigma_mode must be 'known' or 'estimate', got {self.sigma_mode!r}")
        if self.alpha_weights is not None:
            if not isinstance(self.alpha_weights, (list, tuple)):
                raise ValueError(f"alpha_weights must be a list, got {self.alpha_weights!r}")
            for w in self.alpha_weights:
                check_number("alpha_weights entry", w)
            object.__setattr__(self, "alpha_weights", tuple(self.alpha_weights))
        if not isinstance(self.eta_grid, (list, tuple)):
            raise ValueError(f"eta_grid must be a list, got {self.eta_grid!r}")
        if not self.eta_grid:
            raise EmptyInput("eta_grid must be nonempty")
        for eta in self.eta_grid:
            check_number("eta_grid entry", eta)
        if not all(0 < eta < math.inf for eta in self.eta_grid):
            raise ValueError(f"eta_grid must be finite and positive, got {list(self.eta_grid)}")
        object.__setattr__(self, "eta_grid", tuple(float(eta) for eta in self.eta_grid))
        try:
            slack = selector_slack(self)  # checks alpha and the weights
        except BadWeights as e:
            raise ValueError(f"alpha_weights {list(self.alpha_weights)}: {e}") from e
        spec = self.selector
        if spec.k is not None and spec.k > self.d:
            raise ValueError(f"selector k={spec.k} exceeds d={self.d}")
        if spec.fixed_model and max(spec.fixed_model) >= self.d:
            raise ValueError(f"fixed_model index {max(spec.fixed_model)} out of range "
                             f"for d={self.d}")
        if slack == 0 and spec.method != "fixed":
            raise ValueError(f"alpha_weights {list(self.alpha_weights)} give tau + nu no share "
                             f"of alpha, which the noisy selector {spec.method!r} needs as "
                             f"its slack")
        # None for a fixed model, and for LASSO's default steps, which the data fix
        rounds = spec.k or spec.steps
        for eta in self.eta_grid if rounds else ():
            try:
                certify_budgets(rounds, eta, slack)
                if spec.method == "fs":  # its Laplace scale depends on the config alone
                    scale_forward_stepwise(self.d, rounds, NoisePolicy(self.sigma, slack, eta))
            except ValueError as e:
                raise ValueError(f"eta_grid entry {eta!r}: {e}") from e


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    model: ModelSet
    covered: bool
    widths: np.ndarray
    fdr: float
    risk: float | None
    K: float
    budget_used: StabilityBudget
    flagged: str | None = None


@dataclass(frozen=True)
class ExperimentSummary:
    """Statistics of the kept (unflagged) trials at one eta. With no trial
    kept, trials is 0 and every statistic is None."""

    eta_step: float | None
    trials: int
    flagged: int
    empty_models: int
    empirical_coverage: float | None
    width_max: float | None
    width_quantiles: dict[float, float | None]
    mean_fdr: float | None
    mean_risk: float | None
    mean_K: float | None
    flag_reasons: dict[str, int]  # reason -> flagged trials, sorted by reason


def gen_synthetic(cfg: ExperimentConfig, trial_index: int,
                  ) -> tuple[DesignMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Draw (X, beta, mu, y) for one trial.

    X entries are N(0,1)/sqrt(n); beta puts the signal value on the first
    round(fraction * d) coordinates; y = mu + sigma * N(0, I) with mu = X beta.
    Deterministic given (master_seed, trial_index): the data come from
    stream (1, trial_index), drawn through noise.keyed; the design is
    either redrawn per trial or shared from its own reserved stream.
    """
    # the shared design first: its first draw moves noise.keyed to its own stream
    X = None if cfg.regenerate_x_per_trial else _shared_design(cfg.master_seed, cfg.n, cfg.d)
    data = keyed.start(cfg.master_seed, (_PATH_TRIAL_DATA, trial_index))
    if X is None:
        X = DesignMatrix(data.standard_normal((cfg.n, cfg.d)) / math.sqrt(cfg.n))
    active = min(cfg.d, int(math.floor(cfg.active_fraction * cfg.d + 0.5)))
    beta = np.zeros(cfg.d)
    beta[:active] = cfg.signal
    mu = X.entries @ beta
    y = mu + cfg.sigma * data.standard_normal(cfg.n)
    return X, beta, mu, y


@functools.lru_cache(maxsize=1)
def _shared_design(master_seed: int, n: int, d: int) -> DesignMatrix:
    """The design of every trial of a config that does not redraw it, from
    stream (0,), drawn once and kept, as a DesignMatrix is immutable."""
    draws = keyed.start(master_seed, (_PATH_SHARED_DESIGN,)).standard_normal((n, d))
    return DesignMatrix(draws / math.sqrt(n))


def run_selector(spec: SelectorSpec, X: DesignMatrix, y, eta_step: float | None,
                 delta: float, sigma: float, rng: RngStream) -> SelectionResult:
    """The selection of `select`: spec's noisy selector at per-step
    eta_step, slack delta and noise scale sigma, as one run of
    selectors.select_runs with its trace. A `lam` penalty is resolved to
    its radius here; a failed run raises its error."""
    return _one_run(spec, X, y, eta_step, _radius(spec, X, y), delta, sigma, rng)


def _radius(spec: SelectorSpec, X: DesignMatrix, y) -> float | None:
    """The LASSO radius of a trial: spec.c1, or its `lam` penalty resolved
    on the trial's data (None for the other methods)."""
    return spec.c1 if spec.lam is None else lambda_to_c1(X, y, spec.lam)


def _flagged_record(trial_index: int, error: Exception) -> TrialRecord:
    reason = re.sub(r"(?<!^)(?=[A-Z])", "_", type(error).__name__).lower()
    return TrialRecord(trial_index=trial_index, model=ModelSet(), covered=False,
                       widths=np.zeros(0), fdr=0.0, risk=None, K=0.0,
                       budget_used=ZERO_BUDGET, flagged=f"{reason}: {error}")


def selector_slack(cfg: ExperimentConfig) -> float:
    """The slack delta a sweep's noisy selectors run at: half of
    stability.slack_allowance, the tau + nu share of alpha, so that the
    aligned certificates' slack is that share and the quantile level what
    the split leaves."""
    return slack_allowance(cfg.alpha, cfg.alpha_weights) / 2.0


def block_trials(cfg: ExperimentConfig) -> int:
    """Trials per block: BLOCK_TRIALS, cut so that a block's largest array
    (runs x n x d doubles: the LASSO designs, or at most that for the
    forward-stepwise residuals, one per distinct state) stays within
    BLOCK_BYTES; at least 1. Records do not depend on it."""
    per_trial = len(cfg.eta_grid) * cfg.n * cfg.d * 8
    return max(1, min(BLOCK_TRIALS, BLOCK_BYTES // per_trial))


def run_trial(cfg: ExperimentConfig, trial_index: int) -> list[TrialRecord]:
    """One trial at every per-step eta of cfg.eta_grid (a one-trial block):
    generate, select, certify, fit, score. Returns one record per eta, in
    grid order."""
    return _run_block(cfg, range(trial_index, trial_index + 1))[0]


def _run_block(cfg: ExperimentConfig, trials: range) -> list[list[TrialRecord]]:
    """Consecutive trials, each at every eta of cfg.eta_grid, as one block
    of runs: run (b, e) is trial trials[b] at cfg.eta_grid[e]. Returns one
    list of records per trial, each in grid order.

    One pass. Per trial, the data and the `lam` radius, which do not
    depend on eta; a non-converging penalty solve flags every eta of its
    trial. Then one selectors.select_runs call selects for every other
    run at selector_slack(cfg), trial b drawing from its selector stream
    (2, trials[b]), and one stability.infer_runs call makes the intervals
    of every run selected, whose fits also give the targets X_M^+ mu; each
    distinct (trial, model) pair gets one ModelSet and one FDR. A run whose
    selection or inference check fails is flagged with its error. Every
    run's record is the one the trial run alone at that eta gives.
    """
    data = [gen_synthetic(cfg, t) for t in trials]
    designs, Y = [X for X, _, _, _ in data], np.stack([y for _, _, _, y in data])
    etas = range(len(cfg.eta_grid))
    out: dict[tuple[int, int], TrialRecord] = {}
    runs = []  # (b, e, c1) of every run not flagged yet
    for b, (X, _, _, y) in enumerate(data):
        try:
            c1 = _radius(cfg.selector, X, y)
        except NonConvergence as error:
            out.update(((b, e), _flagged_record(trials[b], error)) for e in etas)
        else:
            runs += [(b, e, c1) for e in etas]
    streams = [RngStream(cfg.master_seed, (_PATH_TRIAL_SELECTOR, t)) for t in trials]
    sel = select_runs(cfg.selector, designs, Y, [(b, cfg.eta_grid[e], c1) for b, e, c1 in runs],
                      selector_slack(cfg), cfg.sigma, streams)
    kept = [r for r in range(len(runs)) if r not in sel.failed]  # infer_runs' run r is kept[r]
    trial = np.array([b for b, _, _ in runs], dtype=np.int64)[kept]
    iv = infer_runs(designs, Y, trial, sel.support[kept], sel.certs, sel.cert[kept], cfg.alpha,
                    cfg.sigma if cfg.sigma_mode == "known" else None, cfg.alpha_weights)
    failed = {**sel.failed, **{kept[i]: error for i, error in iv.failed.items()}}
    for r, error in failed.items():
        b, e, _ = runs[r]
        out[b, e] = _flagged_record(trials[b], error)
    K = iv.K.tolist()
    for group in iv.sizes.values():
        fits, pair_trials = group.fits, group.fits.trial.tolist()
        targets = fits.coefficients(np.stack([data[b][2] for b in pair_trials]))[group.pairs]
        widths = group.upper - group.lower
        covered = np.all((group.lower <= targets) & (targets <= group.upper), axis=1).tolist()
        models = [ModelSet(tuple(cols)) for cols in fits.cols.tolist()]
        fdr = [sum(1 for j in M if data[b][1][j] == 0.0) / max(len(M), 1)
               for b, M in zip(pair_trials, models)]
        for i, (r, p) in enumerate(zip(group.runs.tolist(), group.pairs.tolist())):
            b, e, _ = runs[kept[r]]
            X, _, _, y = data[b]
            theta = None if sel.theta is None else sel.theta[kept[r]]
            out[b, e] = TrialRecord(trial_index=trials[b], model=models[p], covered=covered[i],
                                    widths=widths[i], fdr=fdr[p],
                                    risk=_risk(cfg.selector.lam, X, y, theta), K=K[r],
                                    budget_used=iv.budgets[iv.budget[r]])
    return [[out[b, e] for e in etas] for b in range(len(trials))]


def _risk(lam: float | None, X: DesignMatrix, y: np.ndarray, theta) -> float | None:
    """The penalized LASSO objective of theta, for a `lam` run."""
    if theta is None or lam is None:
        return None
    resid = y - X.entries @ theta
    return (0.5 * float(resid @ resid) + lam * float(np.abs(theta).sum())) / X.n


def aggregate(records: list[TrialRecord], eta_step: float | None = None,
              ) -> ExperimentSummary:
    """Coverage fraction, pooled nearest-rank width quantiles, mean FDR /
    risk / K. Flagged trials are excluded and counted by reason."""
    if not records:
        raise EmptyInput("aggregate needs at least one record")
    kept = [r for r in records if r.flagged is None]
    flagged = len(records) - len(kept)
    reasons = dict(sorted(Counter(r.flagged.split(":", 1)[0]
                                  for r in records if r.flagged is not None).items()))
    if not kept:
        return ExperimentSummary(
            eta_step=eta_step, trials=0, flagged=flagged, empty_models=0,
            empirical_coverage=None, width_max=None,
            width_quantiles={lvl: None for lvl in WIDTH_QUANTILE_LEVELS},
            mean_fdr=None, mean_risk=None, mean_K=None, flag_reasons=reasons)
    pooled = np.concatenate([r.widths for r in kept])
    if pooled.size:
        # inverted_cdf is the nearest-rank quantile: the ceil(level * n)-th smallest
        q = np.quantile(pooled, WIDTH_QUANTILE_LEVELS, method="inverted_cdf")
        quantiles = dict(zip(WIDTH_QUANTILE_LEVELS, map(float, q)))
        width_max = float(pooled.max())
    else:
        quantiles = {lvl: float("nan") for lvl in WIDTH_QUANTILE_LEVELS}
        width_max = float("nan")
    risks = [r.risk for r in kept if r.risk is not None]
    return ExperimentSummary(
        eta_step=eta_step,
        trials=len(kept),
        flagged=flagged,
        empty_models=sum(1 for r in kept if len(r.model) == 0),
        empirical_coverage=sum(r.covered for r in kept) / len(kept),
        width_max=width_max,
        width_quantiles=quantiles,
        mean_fdr=float(np.mean([r.fdr for r in kept])),
        mean_risk=float(np.mean(risks)) if risks else None,
        mean_K=float(np.mean([r.K for r in kept])),
        flag_reasons=reasons,
    )


def _block_task(args: tuple[ExperimentConfig, range]) -> list[list[TrialRecord]]:
    return _run_block(*args)


def eta_sweep(cfg: ExperimentConfig,
              map_fn=map) -> list[tuple[float, list[TrialRecord], ExperimentSummary]]:
    """Every trial at every eta of cfg.eta_grid over the same master seed,
    so trials are coupled across the grid for variance reduction. Runs in
    blocks of trials, one task per block over the whole grid; map_fn may be
    a worker pool's map. The blocks come back in trial order, so neither
    the block size nor parallelism can change the records, which are
    regrouped by eta. Returns (eta, records in trial order, summary) rows
    in grid order."""
    size = block_trials(cfg)
    tasks = [(cfg, range(start, min(start + size, cfg.trials)))
             for start in range(0, cfg.trials, size)]
    by_trial = [records for block in map_fn(_block_task, tasks) for records in block]
    out = []
    for i, eta in enumerate(cfg.eta_grid):
        records = [trial_records[i] for trial_records in by_trial]
        out.append((eta, records, aggregate(records, eta)))
    return out
