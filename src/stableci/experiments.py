"""Monte Carlo harness: synthetic data, trial pipeline, metrics, sweeps.

Each trial draws its own data and noise streams from (master_seed, path),
so trials are independent tasks that parallelize without changing any
result. The pipeline per trial: generate, select (noisy), certify budgets,
pick the cheapest valid constant, fit, build intervals, score coverage /
width / FDR / risk against the realized design of that trial.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesCollinear, DegenerateLevel, EmptyInput, NonConvergence, \
    RankDeficient
from .linmodel import DesignMatrix, ModelSet
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .linmodel import ols_fit, sigma_hat_full_model, stderr_known_sigma, target_coefficients  # noqa: F401
from .noise import RngStream, Subgaussian
from .selectors import (
    SelectionResult,
    SelectorSpec,
    fs_exact,
    lambda_to_c1,
    lasso_exact_fw,
    screening_exact,
    solve_penalized_lasso,
    stable_fs,
    stable_lasso,
    stable_screening,
    support,
)
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
    eta_step: float | None
    trials: int
    flagged: int
    empty_models: int
    empirical_coverage: float
    width_max: float
    width_quantiles: dict[float, float]
    mean_fdr: float
    mean_risk: float | None
    mean_K: float


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
                 delta: float, sigma: float, rng: RngStream) -> SelectionResult:
    """The one selection dispatch, shared by `select` and the trial runner:
    run spec's noisy selector at per-step eta_step, slack delta and noise
    scale sigma. A fixed model, and a penalty that zeroes every coordinate,
    are chosen without noise and carry the zero certificate."""
    if spec.method == "fixed":
        return SelectionResult(ModelSet.from_unordered(spec.fixed_model), None, (),
                               (_ZERO_BUDGET,))
    if eta_step is None or eta_step <= 0:
        raise ValueError(f"selector {spec.method!r} needs a positive eta_step")
    family = Subgaussian(sigma)
    if spec.method == "screen":
        return stable_screening(X, y, spec.k, delta, eta_step, family, rng=rng)
    if spec.method == "fs":
        return stable_fs(X, y, spec.k, delta, eta_step, family, rng=rng)
    c1 = spec.c1 if spec.lam is None else lambda_to_c1(X, y, spec.lam)
    if c1 == 0.0:
        return SelectionResult(ModelSet(), np.zeros(X.d), (), (_ZERO_BUDGET,), c1=0.0)
    return stable_lasso(X, y, c1, delta, eta_step, family, rng=rng, steps=spec.steps,
                        support_threshold=spec.support_threshold)


def _score_model(cfg: ExperimentConfig, X: DesignMatrix, y: np.ndarray,
                 mu: np.ndarray, beta: np.ndarray, sel: SelectionResult,
                 trial_index: int) -> TrialRecord:
    """Shared interval-and-metrics stage for trial runners."""
    sigma = cfg.sigma if cfg.sigma_mode == "known" else None
    ivals = infer(X, y, sel.model, sel.budgets, cfg.alpha, sigma)

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


def run_trial(cfg: ExperimentConfig, trial_index: int,
              eta_step: float | None = None) -> TrialRecord:
    """One full trial: generate, select, certify, fit, score.

    The level allocation follows alpha_split; noisy selectors spend
    (tau + nu)/2 as their internal slack parameter so that, after slack
    alignment, the quantile budget comes out to exactly the allocated delta.
    A rank-deficient fit, collinear forward-stepwise candidates, a
    non-converging penalty solve or a degenerate level flags the trial as
    `<reason>: <message>` instead of killing the sweep.
    """
    X, beta, mu, y = gen_synthetic(cfg, trial_index)
    alloc = alpha_split(cfg.alpha, cfg.alpha_weights)
    delta_sel = (alloc.tau + alloc.nu) / 2.0
    rng = RngStream(cfg.master_seed).child(_PATH_TRIAL_SELECTOR, trial_index)
    try:
        sel = run_selector(cfg.selector, X, y, eta_step, delta_sel, cfg.sigma, rng)
        return _score_model(cfg, X, y, mu, beta, sel, trial_index)
    except (RankDeficient, AllCandidatesCollinear, NonConvergence, DegenerateLevel) as e:
        reason = re.sub(r"(?<!^)(?=[A-Z])", "_", type(e).__name__).lower()
        return TrialRecord(trial_index=trial_index, model=ModelSet(), covered=False,
                           widths=np.zeros(0), fdr=0.0, risk=None, K=0.0,
                           budget_used=_ZERO_BUDGET, flagged=f"{reason}: {e}")


def data_split_baseline(cfg: ExperimentConfig, split_fraction: float,
                        trial_index: int) -> TrialRecord:
    """Exact selection on the first ceil(fraction * n) rows, classical
    Bonferroni intervals at full alpha on the disjoint remainder; coverage
    judged against targets defined by the inference half's design."""
    if not (0.0 < split_fraction < 1.0):
        raise ValueError(f"split_fraction must be in (0, 1), got {split_fraction}")
    X, beta, mu, y = gen_synthetic(cfg, trial_index)
    n_sel = math.ceil(split_fraction * cfg.n)
    if not (1 <= n_sel < cfg.n):
        raise ValueError(f"split leaves an empty half: n_sel={n_sel} of n={cfg.n}")
    sel_rows = range(0, n_sel)
    inf_rows = range(n_sel, cfg.n)
    assert not set(sel_rows) & set(inf_rows)

    X1 = DesignMatrix(X.entries[:n_sel])
    y1 = y[:n_sel]
    spec = cfg.selector
    if spec.method == "fixed":
        model = ModelSet.from_unordered(spec.fixed_model)
    elif spec.method == "screen":
        model = screening_exact(X1, y1, spec.k)
    elif spec.method == "fs":
        model = fs_exact(X1, y1, spec.k)
    else:
        if spec.lam is not None:
            theta1 = solve_penalized_lasso(X1, y1, spec.lam)
        else:
            theta1 = lasso_exact_fw(X1, y1, spec.c1, spec.steps or 2000)
        model = support(theta1, spec.support_threshold)

    X2 = DesignMatrix(X.entries[n_sel:])
    return _score_model(cfg, X2, y[n_sel:], mu[n_sel:], beta,
                        SelectionResult(model, None, (), (_ZERO_BUDGET,)), trial_index)


def _nearest_rank(sorted_vals: np.ndarray, level: float) -> float:
    n = sorted_vals.shape[0]
    idx = max(1, math.ceil(level * n)) - 1
    return float(sorted_vals[min(idx, n - 1)])


def aggregate(records: list[TrialRecord], eta_step: float | None = None,
              ) -> ExperimentSummary:
    """Coverage fraction, pooled nearest-rank width quantiles, mean FDR /
    risk / K. Flagged trials are excluded and counted."""
    if not records:
        raise EmptyInput("aggregate needs at least one record")
    kept = [r for r in records if r.flagged is None]
    flagged = len(records) - len(kept)
    if not kept:
        reasons = Counter(r.flagged.split(":", 1)[0] for r in records)
        raise EmptyInput(f"all {len(records)} trials were flagged ("
                         + ", ".join(f"{k}: {c}" for k, c in sorted(reasons.items())) + ")")
    pooled = np.concatenate([r.widths for r in kept]) if kept else np.zeros(0)
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
    )


def _trial_task(args: tuple[ExperimentConfig, float | None, int]) -> TrialRecord:
    cfg, eta_step, trial_index = args
    return run_trial(cfg, trial_index, eta_step)


def run_trials(cfg: ExperimentConfig, eta_step: float | None = None,
               map_fn=map) -> list[TrialRecord]:
    """All trials at one eta; map_fn may be a worker pool's map. Results are
    assembled in trial order, so parallelism cannot change them."""
    tasks = [(cfg, eta_step, t) for t in range(cfg.trials)]
    return list(map_fn(_trial_task, tasks))


def eta_sweep(cfg: ExperimentConfig, eta_grid=DEFAULT_ETA_GRID,
              map_fn=map) -> list[tuple[float, list[TrialRecord], ExperimentSummary]]:
    """One run per eta over the same master seed, so trials are coupled
    across the grid for variance reduction. Returns (eta, records, summary)
    rows in grid order."""
    grid = [float(e) for e in eta_grid]
    if not grid:
        raise EmptyInput("eta grid must be nonempty")
    if not all(0 < e < math.inf for e in grid):
        raise ValueError(f"eta grid must be finite and positive, got {grid}")
    out = []
    for eta in grid:
        records = run_trials(cfg, eta, map_fn)
        out.append((eta, records, aggregate(records, eta)))
    return out
