"""Stability-budget arithmetic and corrected interval construction.

A selection procedure certifies a budget (eta, tau, nu): eta bounds the
log-likelihood ratio between its output distributions on a typical pair of
inputs, tau is additive indistinguishability slack, and nu the probability
of an atypical pair. Downstream, a classical simultaneous constant at level
delta is repaired by shrinking the level to delta*(1-nu)*exp(-eta) and
growing the reported miscoverage to delta + tau + nu. This module holds the
budget algebra (composition, the sparse-selection universal bound), the
corrected quantile constants, and inference: infer_runs turns a block of
selected runs into intervals, and is the only implementation of the
rank, level, sigma and K checks. `infer` (the `ci` command) is its one-run
case; the experiment sweep scores whole blocks through it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, ndtri, stdtrit

from .errors import BadWeights, DegenerateLevel, EmptyInput, MixedSlack, RankDeficient
from .linmodel import DesignMatrix, ModelSet, SubmodelFit, SubmodelFits, as_response, \
    sigma_hat_full_model

# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class StabilityBudget:
    """The certified triple (eta, tau, nu).

    nu = 1 is representable (a vacuous certificate, e.g. from clamped
    composition) but rejected by the level corrections that would divide
    meaning out of it.
    """

    eta: float
    tau: float
    nu: float

    def __post_init__(self):
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not (0 <= self.tau <= 1):
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if not (0 <= self.nu <= 1):
            raise ValueError(f"nu must be in [0, 1], got {self.nu}")

    @property
    def slack(self) -> float:
        return self.tau + self.nu


@dataclass(frozen=True)
class LevelAllocation:
    """How a user-facing miscoverage alpha is split: quantile budget delta,
    indistinguishability slack tau, atypicality slack nu."""

    delta: float
    tau: float
    nu: float

    def __post_init__(self):
        if not (self.delta > 0 and self.tau >= 0 and self.nu >= 0):
            raise ValueError("delta must be positive; tau, nu nonnegative")
        if not (self.delta + self.tau + self.nu < 1):
            raise ValueError("delta + tau + nu must be < 1")

    @property
    def alpha(self) -> float:
        return self.delta + self.tau + self.nu


@dataclass(frozen=True)
class IntervalSet:
    """Simultaneous intervals estimate_j +/- K * stderr_j over a model.

    level is the quantile budget K was taken at, budget the certificate
    that gave the smallest K, sigma the noise scale of the standard errors
    (None for an empty model whose scale was to be estimated), and fit the
    submodel factorization, which also serves the targets X_M^+ mu.
    """

    model: ModelSet
    estimates: np.ndarray
    stderrs: np.ndarray
    K: float
    lower: np.ndarray
    upper: np.ndarray
    level: float
    budget: StabilityBudget
    sigma: float | None
    fit: SubmodelFit


@dataclass(frozen=True)
class SizeIntervals:
    """infer_runs' intervals for the runs of one model size that passed
    every check. fits factors the distinct (trial, model) pairs of this
    size, pair p on trial trials[p], and also serves the targets X_M^+ mu;
    row i of estimates, stderrs, lower and upper is run runs[i], on pair
    pairs[i]."""

    fits: SubmodelFits
    trials: list[int]
    runs: list[int]
    pairs: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


# ---------------------------------------------------------------------------
# composition


def compose_adaptive_simple(eta_step: float, tau_step: float, k: int) -> tuple[float, float]:
    """k adaptive rounds, each (eta_step, tau_step)-indistinguishable on the
    typical pair: the certificates simply add."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0 <= eta_step < math.inf and 0 <= tau_step < math.inf):
        raise ValueError(f"step parameters must be finite and >= 0, got {eta_step}, {tau_step}")
    return (k * eta_step, k * tau_step)


def compose_adaptive_advanced(eta_step: float, k: int, delta: float) -> float:
    """Strong-composition eta for k adaptive rounds at per-round eta_step.

    Returns k*eta^2/2 + sqrt(2k log(1/delta)) * eta. The caller accounts the
    extra additive slack: delta joins the tau side, on top of k*tau_step when
    the rounds carry their own tau.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0 <= eta_step < math.inf):
        raise ValueError(f"eta_step must be finite and >= 0, got {eta_step}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return 0.5 * k * eta_step ** 2 + math.sqrt(2.0 * k * math.log(1.0 / delta)) * eta_step


def compose_nonadaptive(budgets: list[StabilityBudget]) -> StabilityBudget:
    """Componentwise sums for independently randomized, non-adaptive runs;
    tau and nu clamp at 1."""
    if not budgets:
        raise EmptyInput("compose_nonadaptive needs at least one budget")
    eta = sum(b.eta for b in budgets)
    tau = min(sum(b.tau for b in budgets), 1.0)
    nu = min(sum(b.nu for b in budgets), 1.0)
    return StabilityBudget(eta, tau, nu)


def sparse_selection_eta(d: int, s: int, tau: float) -> float:
    """Universal eta for any selection rule confined to models of size <= s
    out of d features: log(sum_{k=1}^{s} C(d, k)) + log(1/tau).

    Evaluated with log-sum-exp over log-binomials so d up to 1e6 cannot
    overflow.
    """
    if not (1 <= s <= d):
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    ks = np.arange(1, s + 1, dtype=np.float64)
    log_binom = gammaln(d + 1.0) - gammaln(ks + 1.0) - gammaln(d - ks + 1.0)
    return float(logsumexp(log_binom)) - math.log(tau)


# ---------------------------------------------------------------------------
# corrected levels and constants


def corrected_level(delta: float, budget: StabilityBudget) -> float:
    """Shrink the quantile budget delta to delta*(1-nu)*exp(-eta)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    level = delta * (1.0 - budget.nu) * math.exp(-budget.eta)
    if level <= 0.0:
        raise DegenerateLevel(f"corrected level degenerated to {level} (nu={budget.nu})")
    return level


def posi_constant(model_size: int, delta: float, budget: StabilityBudget,
                  dof: int | None = None) -> float:
    """Half-width multiplier: the z quantile (or, given the dof of an
    estimated sigma, the Student-t quantile) at
    1 - corrected_level / (2 * model_size). Bonferroni over the selected
    set is built in.
    """
    if model_size < 1:
        raise ValueError(f"model_size must be >= 1, got {model_size}")
    if dof is not None and dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    q = corrected_level(delta, budget) / (2.0 * model_size)
    if not (0.0 < q < 0.5):
        raise DegenerateLevel(f"two-sided tail mass {q} outside (0, 0.5)")
    # quantile of the lower tail, negated: avoids computing 1 - q at all
    if dof is not None:
        return -float(stdtrit(dof, q))
    return -float(ndtri(q))


def align_slack(budgets: list[StabilityBudget]) -> list[StabilityBudget]:
    """Pad nu so every budget carries the same total slack tau + nu.

    A certificate stays valid when tau or nu is enlarged, so padding the
    leaner candidates up to the common slack keeps a min-K comparison
    apples-to-apples.
    """
    if not budgets:
        raise EmptyInput("align_slack needs at least one budget")
    target = max(b.slack for b in budgets)
    out = []
    for b in budgets:
        pad = target - b.slack
        out.append(StabilityBudget(b.eta, b.tau, b.nu + pad) if pad > 0 else b)
    return out


def best_posi_constant(model_size: int, delta: float,
                       budget_candidates: list[StabilityBudget],
                       dof: int | None = None) -> tuple[float, StabilityBudget]:
    """Smallest valid constant over certified budgets with equal total slack.

    Each candidate alone yields a valid interval family, so the minimum K is
    valid too; candidates must carry the same tau + nu (align_slack does the
    padding) or the comparison would mix different reported miscoverages.
    """
    if not budget_candidates:
        raise EmptyInput("best_posi_constant needs at least one candidate")
    slacks = [b.slack for b in budget_candidates]
    if max(slacks) - min(slacks) > 1e-12:
        raise MixedSlack(f"candidate slacks differ: {sorted(set(slacks))}")
    best: tuple[float, StabilityBudget] | None = None
    for b in budget_candidates:
        try:
            K = posi_constant(model_size, delta, b, dof)
        except DegenerateLevel:
            # an eta so large its corrected level underflows simply never
            # wins the minimum; only all-degenerate is an error
            continue
        if best is None or K < best[0]:
            best = (K, b)
    if best is None:
        raise DegenerateLevel(
            f"every candidate's corrected level degenerated at delta={delta}")
    return best


def alpha_split(alpha: float, weights: tuple[float, float, float] | None = None,
                ) -> LevelAllocation:
    """Split a target miscoverage alpha into (delta, tau, nu).

    Default is the equal-thirds split. A weight triple overrides it; weights
    must be nonnegative, sum to 1, and put positive mass on delta (the
    all-on-delta split (1, 0, 0) is the classical, no-selection allocation).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if weights is None:
        third = alpha / 3.0
        return LevelAllocation(third, third, third)
    if len(weights) != 3:
        raise BadWeights(f"need exactly 3 weights, got {len(weights)}")
    w = tuple(float(x) for x in weights)
    if any(x < 0 for x in w):
        raise BadWeights(f"weights must be nonnegative, got {w}")
    if w[0] <= 0:
        raise BadWeights("the delta weight must be positive")
    if abs(sum(w) - 1.0) > 1e-9:
        raise BadWeights(f"weights must sum to 1, got sum {sum(w)}")
    return LevelAllocation(alpha * w[0], alpha * w[1], alpha * w[2])


def interval_level(budgets, alpha: float,
                   weights: tuple[float, float, float] | None = None,
                   ) -> tuple[list[StabilityBudget], float]:
    """(aligned certificates, quantile level) for intervals at miscoverage
    alpha: the certificates padded to a common slack tau + nu, which is
    spent out of alpha, leaving the level alpha - slack, or weights[0] *
    alpha for a (delta, tau, nu) weight split, whose tau + nu share must
    then cover the slack. Raises DegenerateLevel when no level is left and
    BadWeights for weights that cannot pay the slack."""
    aligned = align_slack(list(budgets))
    slack = aligned[0].slack
    alpha_split(alpha, weights)  # validates alpha and the weights
    if weights is None:
        level = alpha - slack
        if level <= 0:
            raise DegenerateLevel(f"budget slack {slack} leaves no level within alpha={alpha}")
    else:
        level = weights[0] * alpha
        allowance = (weights[1] + weights[2]) * alpha
        if slack > allowance + 1e-12:
            raise BadWeights(f"budget slack {slack} exceeds the tau+nu weight allowance {allowance}")
    return aligned, level


def infer_runs(designs: Sequence[DesignMatrix], Y: np.ndarray, runs, alpha: float,
               sigma: float | None, weights: tuple[float, float, float] | None = None,
               ) -> tuple[list, dict[int, SizeIntervals]]:
    """Simultaneous intervals at miscoverage alpha for a block of runs
    (trial, model, budgets), each on designs[trial] and Y[trial].

    The distinct (trial, model) pairs of each model size are factored by
    one stacked SVD (linmodel.SubmodelFits). Each run's checks go in this
    order: the model's rank, the level (interval_level), the sigma
    estimate, then K, the smallest constant over the aligned certificates
    at that level. sigma is the known noise scale (normal quantiles), or
    None to estimate it once per trial from the full model's residuals
    (Student-t quantiles). Each level and K is computed once per distinct
    set of arguments. The empty model gets no intervals and K = 0.

    Returns (outcomes, SizeIntervals by model size). outcomes[r] is run r's
    (K, the certificate that gave it, level, sigma), sigma None for an
    empty model whose scale was to be estimated, or the RankDeficient or
    DegenerateLevel error of its failed check. An estimate short of
    samples raises InsufficientSamples.
    """
    if sigma is not None and not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    pairs: dict[tuple[int, tuple[int, ...]], int] = {}
    groups: dict[int, list[tuple[int, ModelSet]]] = {}
    for t, model, _ in runs:
        if (t, model.indices) not in pairs:
            group = groups.setdefault(len(model), [])
            pairs[t, model.indices] = len(group)
            group.append((t, model))
    fits = {size: SubmodelFits([designs[t] for t, _ in group], [M for _, M in group])
            for size, group in groups.items()}
    levels: dict = {}
    estimates: dict = {}
    constants: dict = {}

    def check(t: int, model: ModelSet, budgets, p: int) -> tuple:
        error = fits[len(model)].rank_error(p)
        if error is not None:
            raise error
        aligned, level = _memo(levels, tuple(budgets), interval_level, budgets, alpha, weights)
        if len(model) == 0:
            return 0.0, aligned[0], level, sigma
        run_sigma, dof = (sigma, None) if sigma is not None else \
            _memo(estimates, t, sigma_hat_full_model, designs[t], Y[t])
        K, chosen = _memo(constants, (len(model), level, tuple(aligned), dof),
                          best_posi_constant, len(model), level, aligned, dof)
        return K, chosen, level, run_sigma

    outcomes: list = []
    scored: dict[int, list[tuple[int, int]]] = {}
    for t, model, budgets in runs:
        p = pairs[t, model.indices]
        try:
            outcome = check(t, model, budgets, p)
        except (RankDeficient, DegenerateLevel) as e:
            outcome = e
        else:
            scored.setdefault(len(model), []).append((len(outcomes), p))
        outcomes.append(outcome)
    out = {}
    for size, rows in scored.items():
        group, fit = groups[size], fits[size]
        done = [r for r, _ in rows]
        p = np.array([p for _, p in rows])
        est = fit.coefficients(Y[[t for t, _ in group]])[p]
        se = fit.stderrs()[p]
        if size:  # each run's sigma; an empty model's may be None
            se *= np.array([outcomes[r][3] for r in done])[:, None]
        K = np.array([outcomes[r][0] for r in done])[:, None]
        out[size] = SizeIntervals(fits=fit, trials=[t for t, _ in group], runs=done, pairs=p,
                                  estimates=est, stderrs=se, lower=est - K * se,
                                  upper=est + K * se)
    return outcomes, out


def _memo(cache: dict, key, fn, *args):
    """fn(*args), memoized under key; a RankDeficient or DegenerateLevel
    error is memoized too, and raised again on every lookup."""
    value = cache.get(key)
    if value is None:
        try:
            value = fn(*args)
        except (RankDeficient, DegenerateLevel) as e:
            value = e
        cache[key] = value
    if isinstance(value, Exception):
        raise value.with_traceback(None)
    return value


def infer(X: DesignMatrix, y, model: ModelSet, budgets: list[StabilityBudget],
          alpha: float, sigma: float | None,
          weights: tuple[float, float, float] | None = None) -> IntervalSet:
    """Simultaneous intervals over the selected model at miscoverage alpha:
    infer_runs on a block of one run, whose failed check is raised."""
    y = as_response(y, X.n)
    [outcome], intervals = infer_runs([X], y[None], [(0, model, budgets)], alpha, sigma, weights)
    if isinstance(outcome, Exception):
        raise outcome
    K, chosen, level, sigma = outcome
    run = intervals[len(model)]
    return IntervalSet(model=model, estimates=run.estimates[0], stderrs=run.stderrs[0], K=K,
                       lower=run.lower[0], upper=run.upper[0], level=level, budget=chosen,
                       sigma=sigma, fit=SubmodelFit(X, model, run.fits))


def eta_step_for_total(k: int, delta: float, eta_total: float) -> float:
    """Per-step eta making the better of the two composed certificates equal
    eta_total over k rounds at slack parameter delta.

    Convenience for experiment planning: both composed rates increase in the
    per-step eta, so the minimum crosses eta_total exactly once.
    """
    if eta_total <= 0:
        raise ValueError(f"eta_total must be positive, got {eta_total}")
    step_b = eta_total / k
    if compose_adaptive_advanced(step_b, k, delta) >= eta_total:
        return step_b
    # advanced rate governs: positive root of k/2 * x^2 + c x - eta_total
    c = math.sqrt(2.0 * k * math.log(1.0 / delta))
    step_a = (-c + math.sqrt(c * c + 2.0 * k * eta_total)) / k
    return step_a
