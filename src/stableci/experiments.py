"""Monte Carlo harness: synthetic data, trial pipeline, metrics, sweeps.

Each trial draws its own data and noise streams from (master_seed, path),
so trials are independent tasks that parallelize without changing any
result. The pipeline per trial: generate, select (noisy), certify budgets,
pick the cheapest valid constant, fit, build intervals, score coverage /
width / FDR / risk against the realized design of that trial.

Sweeps run trial-major: one task runs a trial at every eta of the grid.
The data, the `lam` radius and the estimated sigma depend on the trial
alone and are computed once; the selector's streams depend on the trial
alone too, and a noise.ReplayStream rescales their draws for each eta
bit for bit as fresh streams would. So every record is the one an
eta-major loop, rerunning each (eta, trial) from scratch, would produce.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesCollinear, DegenerateLevel, EmptyInput, InsufficientSamples, \
    NonConvergence, RankDeficient
from .linmodel import DesignMatrix, ModelSet, sigma_hat_full_model
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .linmodel import ols_fit, stderr_known_sigma, target_coefficients  # noqa: F401
from .noise import ReplayStream, RngStream
from .selectors import SelectionResult, SelectorSpec, lambda_to_c1, stable_fs, stable_lasso, \
    stable_screening
from .stability import StabilityBudget, alpha_split, infer
# not called here: bound for perfbench/tracing.py, which wraps this name in this module
from .stability import best_posi_constant  # noqa: F401

# paths namespaces under the master seed
_PATH_SHARED_DESIGN = 0
_PATH_TRIAL_DATA = 1
_PATH_TRIAL_SELECTOR = 2

DEFAULT_ETA_GRID = tuple(0.5 * i for i in range(1, 21))

WIDTH_QUANTILE_LEVELS = (0.80, 0.85, 0.90, 1.00)

_ZERO_BUDGET = StabilityBudget(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    d: int
    selector: SelectorSpec
    trials: int
    master_seed: int
    beta_spec: tuple[float, float] = (5.0, 0.8)  # (signal value, active fraction)
    sigma: float = 1.0
    alpha: float = 0.1
    regenerate_x_per_trial: bool = True
    sigma_mode: str = "known"  # "known" | "estimate"
    alpha_weights: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be >= 1, got n={self.n}, d={self.d}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (0.0 <= self.beta_spec[1] <= 1.0):
            raise ValueError(f"active fraction must be in [0, 1], got {self.beta_spec[1]}")
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not math.isfinite(self.beta_spec[0]):
            raise ValueError(f"signal must be finite, got {self.beta_spec[0]}")
        if self.sigma_mode not in ("known", "estimate"):
            raise ValueError(f"sigma_mode must be 'known' or 'estimate', got {self.sigma_mode!r}")


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
    Deterministic given (master_seed, trial_index); the design is either
    redrawn per trial or shared from its own reserved stream.
    """
    root = RngStream(cfg.master_seed)
    data_rng = root.child(_PATH_TRIAL_DATA, trial_index)
    if cfg.regenerate_x_per_trial:
        X_entries = data_rng.normal((cfg.n, cfg.d)) / math.sqrt(cfg.n)
    else:
        X_entries = root.child(_PATH_SHARED_DESIGN).normal((cfg.n, cfg.d)) / math.sqrt(cfg.n)
    signal, fraction = cfg.beta_spec
    active = min(cfg.d, int(math.floor(fraction * cfg.d + 0.5)))
    beta = np.zeros(cfg.d)
    beta[:active] = signal
    X = DesignMatrix(X_entries)
    mu = X.entries @ beta
    y = mu + cfg.sigma * data_rng.normal(cfg.n)
    return X, beta, mu, y


def run_selector(spec: SelectorSpec, X: DesignMatrix, y, eta_step: float | None,
                 delta: float, sigma: float, rng: RngStream,
                 c1: float | None = None) -> SelectionResult:
    """The one selection dispatch, shared by `select` and the trial runner:
    run spec's noisy selector at per-step eta_step, slack delta and noise
    scale sigma. A fixed model, and a penalty that zeroes every coordinate,
    are chosen without noise and carry the zero certificate. c1 is the
    LASSO radius when the caller has already resolved it (from spec.lam
    through lambda_to_c1); None resolves it here."""
    if spec.method == "fixed":
        return SelectionResult(ModelSet.from_unordered(spec.fixed_model), None, (),
                               (_ZERO_BUDGET,))
    if eta_step is None or eta_step <= 0:
        raise ValueError(f"selector {spec.method!r} needs a positive eta_step")
    if spec.method == "screen":
        return stable_screening(X, y, spec.k, delta, eta_step, sigma, rng=rng)
    if spec.method == "fs":
        return stable_fs(X, y, spec.k, delta, eta_step, sigma, rng=rng)
    if c1 is None:
        c1 = spec.c1 if spec.lam is None else lambda_to_c1(X, y, spec.lam)
    if c1 == 0.0:
        return SelectionResult(ModelSet(), np.zeros(X.d), (), (_ZERO_BUDGET,), c1=0.0)
    return stable_lasso(X, y, c1, delta, eta_step, sigma, rng=rng, steps=spec.steps)


def _score_model(cfg: ExperimentConfig, X: DesignMatrix, y: np.ndarray,
                 mu: np.ndarray, beta: np.ndarray, sel: SelectionResult,
                 trial_index: int, estimate: tuple[float, int] | None = None) -> TrialRecord:
    """Shared interval-and-metrics stage for trial runners. estimate is the
    (sigma_hat, dof) of an estimated-sigma trial when already made."""
    sigma, dof = (cfg.sigma, None) if cfg.sigma_mode == "known" else (estimate or (None, None))
    ivals = infer(X, y, sel.model, sel.budgets, cfg.alpha, sigma, dof=dof)

    risk = None
    lam = cfg.selector.lam
    if sel.theta is not None and lam is not None:
        resid = y - X.entries @ sel.theta
        risk = (0.5 * float(resid @ resid) + lam * float(np.abs(sel.theta).sum())) / X.n

    fdr = sum(1 for j in sel.model if beta[j] == 0.0) / max(len(sel.model), 1)

    # an empty model has nothing to miss, and np.all of no comparisons is True
    targets = ivals.fit.coefficients(mu)
    covered = bool(np.all((ivals.lower <= targets) & (targets <= ivals.upper)))
    return TrialRecord(trial_index=trial_index, model=sel.model, covered=covered,
                       widths=ivals.upper - ivals.lower, fdr=fdr, risk=risk,
                       K=ivals.K, budget_used=ivals.budget)


# failures that flag a trial as `<reason>: <message>` instead of ending the sweep
_FLAGGED_ERRORS = (RankDeficient, AllCandidatesCollinear, NonConvergence, DegenerateLevel)


def _flagged_record(trial_index: int, error: Exception) -> TrialRecord:
    reason = re.sub(r"(?<!^)(?=[A-Z])", "_", type(error).__name__).lower()
    return TrialRecord(trial_index=trial_index, model=ModelSet(), covered=False,
                       widths=np.zeros(0), fdr=0.0, risk=None, K=0.0,
                       budget_used=_ZERO_BUDGET, flagged=f"{reason}: {error}")


def run_trial(cfg: ExperimentConfig, trial_index: int, eta_grid) -> list[TrialRecord]:
    """One trial at every per-step eta of eta_grid: generate, select,
    certify, fit, score. Returns one record per eta, in grid order.

    The data, the `lam` radius and the estimated sigma depend only on the
    trial, so each is computed once; the sigma estimate waits for the
    first nonempty model. Each eta's selector replays the trial's Laplace
    draws through one ReplayStream, bit for bit what a fresh stream gives,
    so every record equals a run of this trial at that eta alone.

    The level allocation follows alpha_split; noisy selectors spend
    (tau + nu)/2 as their internal slack parameter so that, after slack
    alignment, the quantile budget comes out to exactly the allocated delta.
    A rank-deficient fit, collinear forward-stepwise candidates, a
    non-converging penalty solve (flagged at every eta) or a degenerate
    level flags the record as `<reason>: <message>` instead of killing the
    sweep.
    """
    X, beta, mu, y = gen_synthetic(cfg, trial_index)
    alloc = alpha_split(cfg.alpha, cfg.alpha_weights)
    delta_sel = (alloc.tau + alloc.nu) / 2.0
    rng = ReplayStream(RngStream(cfg.master_seed).child(_PATH_TRIAL_SELECTOR, trial_index))
    spec = cfg.selector
    try:
        c1 = spec.c1 if spec.lam is None else lambda_to_c1(X, y, spec.lam)
    except NonConvergence as e:
        return [_flagged_record(trial_index, e) for _ in eta_grid]
    estimate = None
    out = []
    for eta_step in eta_grid:
        try:
            sel = run_selector(spec, X, y, eta_step, delta_sel, cfg.sigma, rng, c1)
            if estimate is None and cfg.sigma_mode == "estimate" and len(sel.model):
                estimate = _full_model_estimate(X, y)
            out.append(_score_model(cfg, X, y, mu, beta, sel, trial_index, estimate))
        except _FLAGGED_ERRORS as e:
            out.append(_flagged_record(trial_index, e))
    return out


def _full_model_estimate(X: DesignMatrix, y: np.ndarray) -> tuple[float, int] | None:
    """sigma_hat_full_model(X, y), or None if it fails: infer then tries
    the estimate itself and raises after its own checks, so a failing
    estimate ends or flags a trial exactly where infer would."""
    try:
        return sigma_hat_full_model(X, y)
    except (InsufficientSamples, RankDeficient):
        return None


def _nearest_rank(sorted_vals: np.ndarray, level: float) -> float:
    n = sorted_vals.shape[0]
    idx = max(1, math.ceil(level * n)) - 1
    return float(sorted_vals[min(idx, n - 1)])


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
        pooled = np.sort(pooled)
        quantiles = {lvl: _nearest_rank(pooled, lvl) for lvl in WIDTH_QUANTILE_LEVELS}
        width_max = float(pooled[-1])
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


def _trial_task(args: tuple[ExperimentConfig, list, int]) -> list[TrialRecord]:
    cfg, eta_grid, trial_index = args
    return run_trial(cfg, trial_index, eta_grid)


def _run_grid(cfg: ExperimentConfig, eta_grid: list, map_fn) -> list[list[TrialRecord]]:
    """Each trial over the whole grid, one task per trial; map_fn may be a
    worker pool's map. Results come back in trial order, so parallelism
    cannot change them."""
    return list(map_fn(_trial_task, [(cfg, eta_grid, t) for t in range(cfg.trials)]))


def run_trials(cfg: ExperimentConfig, eta_step: float | None = None,
               map_fn=map) -> list[TrialRecord]:
    """All trials at one eta, in trial order; map_fn may be a worker pool's map."""
    return [records[0] for records in _run_grid(cfg, [eta_step], map_fn)]


def eta_sweep(cfg: ExperimentConfig, eta_grid=DEFAULT_ETA_GRID,
              map_fn=map) -> list[tuple[float, list[TrialRecord], ExperimentSummary]]:
    """Every trial at every eta over the same master seed, so trials are
    coupled across the grid for variance reduction. Runs trial-major (one
    task per trial covers the whole grid) and regroups the records by eta.
    Returns (eta, records in trial order, summary) rows in grid order."""
    grid = [float(e) for e in eta_grid]
    if not grid:
        raise EmptyInput("eta grid must be nonempty")
    if not all(0 < e < math.inf for e in grid):
        raise ValueError(f"eta grid must be finite and positive, got {grid}")
    by_trial = _run_grid(cfg, grid, map_fn)
    out = []
    for i, eta in enumerate(grid):
        records = [trial_records[i] for trial_records in by_trial]
        out.append((eta, records, aggregate(records, eta)))
    return out
