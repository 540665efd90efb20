"""Monte Carlo harness: synthetic data, trial pipeline, metrics, sweeps.

Each trial draws its own data and noise streams from (master_seed, path),
so trials are independent tasks that parallelize without changing any
result. The pipeline per trial: generate, select (noisy), certify budgets,
infer the intervals, score coverage / width / FDR / risk against the
realized design of that trial.

Sweeps run in blocks of consecutive trials, each over the whole eta grid;
a run is one (trial, eta) pair. The data, the `lam` radius and the
estimated sigma depend on the trial alone and are computed once per trial.
The selectors run every run of the block at once (selectors.screen_runs,
fs_runs, lasso_runs), each trial's selector stream serving all of its
etas, and stability.infer_runs, the inference of `ci`, makes the block's
intervals; this module keeps the targets, the metrics and the records. No
per-run number depends on the block, so every record is the one an
eta-major loop, rerunning each (eta, trial) from scratch, would produce,
whatever the block size and the worker count. `run_trial` is a one-trial
block.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonConvergence
from .linmodel import DesignMatrix, ModelSet
from .noise import NoisePolicy, RngStream, scale_forward_stepwise, scale_lasso, scale_screening
from .selectors import SelectionResult, SelectorSpec, _default_fw_steps, certify_budgets, \
    fs_runs, lambda_to_c1, lasso_runs, screen_runs, stable_fs, stable_lasso, stable_screening, \
    support
from .stability import StabilityBudget, alpha_split, infer_runs
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .linmodel import ols_fit, sigma_hat_full_model, stderr_known_sigma  # noqa: F401
from .linmodel import target_coefficients  # noqa: F401
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
        spec = self.selector
        if spec.k is not None and spec.k > self.d:
            raise ValueError(f"selector k={spec.k} exceeds d={self.d}")
        if spec.fixed_model and max(spec.fixed_model) >= self.d:
            raise ValueError(f"fixed_model index {max(spec.fixed_model)} out of range "
                             f"for d={self.d}")


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


def _check_eta(spec: SelectorSpec, eta_step: float | None) -> None:
    if eta_step is None or eta_step <= 0:
        raise ValueError(f"selector {spec.method!r} needs a positive eta_step")


def run_selector(spec: SelectorSpec, X: DesignMatrix, y, eta_step: float | None,
                 delta: float, sigma: float, rng: RngStream,
                 c1: float | None = None) -> SelectionResult:
    """The one-run selection dispatch of `select`: run spec's noisy selector
    at per-step eta_step, slack delta and noise scale sigma. A fixed model,
    and a penalty that zeroes every coordinate, are chosen without noise
    and carry the zero certificate. c1 is the LASSO radius when the caller
    has already resolved it (from spec.lam through lambda_to_c1); None
    resolves it here. The sweep engine makes the same choices for a block
    of runs."""
    if spec.method == "fixed":
        return _fixed_selection(spec)
    _check_eta(spec, eta_step)
    if spec.method == "screen":
        return stable_screening(X, y, spec.k, delta, eta_step, sigma, rng=rng)
    if spec.method == "fs":
        return stable_fs(X, y, spec.k, delta, eta_step, sigma, rng=rng)
    if c1 is None:
        c1 = spec.c1 if spec.lam is None else lambda_to_c1(X, y, spec.lam)
    if c1 == 0.0:
        return _empty_lasso_selection(X.d)
    return stable_lasso(X, y, c1, delta, eta_step, sigma, rng=rng, steps=spec.steps)


def _fixed_selection(spec: SelectorSpec) -> SelectionResult:
    return SelectionResult(ModelSet.from_unordered(spec.fixed_model), None, (), (_ZERO_BUDGET,))


def _empty_lasso_selection(d: int) -> SelectionResult:
    return SelectionResult(ModelSet(), np.zeros(d), (), (_ZERO_BUDGET,), c1=0.0)


def _flagged_record(trial_index: int, error: Exception) -> TrialRecord:
    reason = re.sub(r"(?<!^)(?=[A-Z])", "_", type(error).__name__).lower()
    return TrialRecord(trial_index=trial_index, model=ModelSet(), covered=False,
                       widths=np.zeros(0), fdr=0.0, risk=None, K=0.0,
                       budget_used=_ZERO_BUDGET, flagged=f"{reason}: {error}")


def block_trials(cfg: ExperimentConfig, eta_grid) -> int:
    """Trials per block: BLOCK_TRIALS, cut so that a block's largest array
    (runs x n x d doubles: the forward-stepwise residuals, or the LASSO
    designs) stays within BLOCK_BYTES; at least 1. Records do not depend
    on it."""
    per_trial = max(len(eta_grid), 1) * cfg.n * cfg.d * 8
    return max(1, min(BLOCK_TRIALS, BLOCK_BYTES // per_trial))


def run_trial(cfg: ExperimentConfig, trial_index: int, eta_grid) -> list[TrialRecord]:
    """One trial at every per-step eta of eta_grid (a one-trial block):
    generate, select, certify, fit, score. Returns one record per eta, in
    grid order."""
    return _run_block(cfg, range(trial_index, trial_index + 1), list(eta_grid))[0]


def _run_block(cfg: ExperimentConfig, trials: range, eta_grid: list) -> list[list[TrialRecord]]:
    """Consecutive trials, each at every eta of the grid, as one block of
    runs (a run is one (trial, eta) pair). Returns one list of records per
    trial, each in grid order.

    Per trial, in a loop: the data and the `lam` radius, which do not
    depend on eta. A non-converging penalty solve flags every eta of its
    trial. Then selection and scoring each run once over the whole block
    (_select_block, _score_block). Every run's record is the one the trial
    run alone at that eta gives.

    The level allocation follows alpha_split; noisy selectors spend
    (tau + nu)/2 as their internal slack parameter so that, after slack
    alignment, the quantile budget comes out to exactly the allocated delta.
    """
    spec = cfg.selector
    if spec.method != "fixed":
        for eta in eta_grid:
            _check_eta(spec, eta)
    alloc = alpha_split(cfg.alpha, cfg.alpha_weights)
    delta_sel = (alloc.tau + alloc.nu) / 2.0
    data, c1s = [], []
    out: list[list[TrialRecord | None]] = []
    for t in trials:
        X, beta, mu, y = gen_synthetic(cfg, t)
        data.append((X, beta, mu, y))
        out.append([None] * len(eta_grid))
        try:
            c1s.append(spec.c1 if spec.lam is None else lambda_to_c1(X, y, spec.lam))
        except NonConvergence as e:
            c1s.append(None)
            out[-1] = [_flagged_record(t, e) for _ in eta_grid]
    live = [b for b, records in enumerate(out) if records[0] is None]
    sels = _select_block(cfg, trials, data, live, c1s, eta_grid, delta_sel, out)
    _score_block(cfg, trials, data, sels, out)
    return out


def _select_block(cfg: ExperimentConfig, trials: range, data: list, live: list[int],
                  c1s: list, eta_grid: list, delta: float, out: list[list]) -> dict:
    """Selection for every run (b, e) of the live trials: a SelectionResult
    without trace, or out[b][e] flagged with the AllCandidatesCollinear
    error of the run. The noisy runs of the block go through one
    screen_runs, fs_runs or lasso_runs call, on trial b's selector stream
    (2, trial)."""
    spec = cfg.selector
    grid = range(len(eta_grid))
    if spec.method == "fixed":
        fixed = _fixed_selection(spec)
        return {(b, e): fixed for b in live for e in grid}
    sels = {}
    noisy = []
    for b in live:
        if spec.method == "lasso" and c1s[b] == 0.0:
            empty = _empty_lasso_selection(cfg.d)
            sels.update(((b, e), empty) for e in grid)
        else:
            noisy.append(b)
    if not noisy:
        return sels
    designs = [data[b][0] for b in noisy]
    Y = np.stack([data[b][3] for b in noisy])
    streams = [RngStream(cfg.master_seed).child(_PATH_TRIAL_SELECTOR, trials[b]) for b in noisy]
    policies = [NoisePolicy(cfg.sigma, delta, eta) for eta in eta_grid]
    runs = [(i, e) for i in range(len(noisy)) for e in grid]
    trial = np.array([i for i, _ in runs], dtype=np.int64)
    if spec.method == "screen":
        scales = [scale_screening(designs[i], policies[e]) for i, e in runs]
        rounds = [spec.k] * len(runs)
        block = screen_runs(designs, Y, spec.k, trial, np.array(scales), streams)
    elif spec.method == "fs":
        per_eta = [scale_forward_stepwise(cfg.d, spec.k, policy) for policy in policies]
        rounds = [spec.k] * len(runs)
        block = fs_runs(designs, Y, spec.k, trial, np.array([per_eta[e] for _, e in runs]),
                        streams)
    else:
        c1 = [c1s[noisy[i]] for i, _ in runs]
        rounds = [spec.steps or _default_fw_steps(designs[i], c1[r], eta_grid[e], cfg.sigma)
                  for r, (i, e) in enumerate(runs)]
        scales = [scale_lasso(c1[r], designs[i], policies[e]) for r, (i, e) in enumerate(runs)]
        block = lasso_runs(designs, Y, np.array(c1), np.array(rounds, dtype=np.int64), trial,
                           np.array(scales), streams)
    budgets: dict[tuple[int, int], tuple[StabilityBudget, ...]] = {}
    for r, (i, e) in enumerate(runs):
        if r in block.failed:
            out[noisy[i]][e] = _flagged_record(trials[noisy[i]], block.failed[r])
            continue
        key = (rounds[r], e)
        if key not in budgets:
            budgets[key] = certify_budgets(rounds[r], eta_grid[e], delta)
        if block.theta is None:
            sels[noisy[i], e] = SelectionResult(ModelSet.from_unordered(block.picks[r].tolist()),
                                                None, (), budgets[key])
        else:
            sels[noisy[i], e] = SelectionResult(support(block.theta[r]), block.theta[r], (),
                                                budgets[key], c1=c1[r])
    return sels


def _score_block(cfg: ExperimentConfig, trials: range, data: list, sels: dict,
                 out: list[list[TrialRecord | None]]) -> None:
    """Intervals and metrics for every selected run (b, e) of a block not
    yet flagged, written into out[b][e]. The intervals come from one
    stability.infer_runs call over the block, whose fits also give the
    targets X_M^+ mu; a run that fails an inference check is flagged."""
    runs = [(b, e, sels[b, e]) for b, records in enumerate(out)
            for e, done in enumerate(records) if done is None]
    outcomes, intervals = infer_runs(
        [X for X, _, _, _ in data], np.stack([y for _, _, _, y in data]),
        [(b, sel.model, sel.budgets) for b, _, sel in runs], cfg.alpha,
        cfg.sigma if cfg.sigma_mode == "known" else None, cfg.alpha_weights)
    for (b, e, _), outcome in zip(runs, outcomes):
        if isinstance(outcome, Exception):
            out[b][e] = _flagged_record(trials[b], outcome)
    for iv in intervals.values():
        targets = iv.fits.coefficients(np.stack([data[b][2] for b in iv.trials]))[iv.pairs]
        widths = iv.upper - iv.lower
        covered = np.all((iv.lower <= targets) & (targets <= iv.upper), axis=1)
        for i, r in enumerate(iv.runs):
            b, e, sel = runs[r]
            X, beta, _, y = data[b]
            K, chosen, _, _ = outcomes[r]
            false_picks = sum(1 for j in sel.model if beta[j] == 0.0)
            out[b][e] = TrialRecord(trial_index=trials[b], model=sel.model,
                                    covered=bool(covered[i]), widths=widths[i],
                                    fdr=false_picks / max(len(sel.model), 1),
                                    risk=_risk(cfg.selector.lam, X, y, sel.theta), K=K,
                                    budget_used=chosen)


def _risk(lam: float | None, X: DesignMatrix, y: np.ndarray, theta) -> float | None:
    """The penalized LASSO objective of theta, for a `lam` run."""
    if theta is None or lam is None:
        return None
    resid = y - X.entries @ theta
    return (0.5 * float(resid @ resid) + lam * float(np.abs(theta).sum())) / X.n


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


def _block_task(args: tuple[ExperimentConfig, list, range]) -> list[list[TrialRecord]]:
    cfg, eta_grid, trials = args
    return _run_block(cfg, trials, eta_grid)


def _run_grid(cfg: ExperimentConfig, eta_grid: list, map_fn) -> list[list[TrialRecord]]:
    """Each trial over the whole grid, one task per block of trials; map_fn
    may be a worker pool's map. Results come back in trial order, so
    neither the block size nor parallelism can change them."""
    size = block_trials(cfg, eta_grid)
    tasks = [(cfg, eta_grid, range(start, min(start + size, cfg.trials)))
             for start in range(0, cfg.trials, size)]
    return [records for block in map_fn(_block_task, tasks) for records in block]


def run_trials(cfg: ExperimentConfig, eta_step: float | None = None,
               map_fn=map) -> list[TrialRecord]:
    """All trials at one eta, in trial order; map_fn may be a worker pool's map."""
    return [records[0] for records in _run_grid(cfg, [eta_step], map_fn)]


def eta_sweep(cfg: ExperimentConfig, eta_grid=DEFAULT_ETA_GRID,
              map_fn=map) -> list[tuple[float, list[TrialRecord], ExperimentSummary]]:
    """Every trial at every eta over the same master seed, so trials are
    coupled across the grid for variance reduction. Runs in blocks of
    trials (one task per block covers the whole grid) and regroups the
    records by eta.
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
