"""Stability-budget arithmetic and corrected interval construction.

A selection procedure certifies a budget (eta, tau, nu): eta bounds the
log-likelihood ratio between its output distributions on a typical pair of
inputs, tau is additive indistinguishability slack, and nu the probability
of an atypical pair. Downstream, a classical simultaneous constant at level
delta is repaired by shrinking the level to delta*(1-nu)*exp(-eta) and
growing the reported miscoverage to delta + tau + nu. This module holds the
whole budget algebra: composition (certify_budgets, and eta_step_for_total,
its inverse), the sparse-selection universal bound, the tau + nu share of
alpha (slack_allowance); the corrected quantile constants; and inference:
infer_runs turns a block of selected runs, given as arrays, into
intervals, and is the only implementation of the rank, level, sigma and K
checks. `infer` (the `ci` command) is its one-run case; the experiment
sweep scores whole blocks.

scipy.special is imported on the first quantile or log-binomial
(scipy_special), not with this module: its import takes about 0.2 s, most
of a cold `import stableci.cli`, and `select`, `budget --k` and
load_config never evaluate either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadWeights, DegenerateLevel, EmptyInput, MixedSlack, RankDeficient, \
    check_number
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


# the certificate of a model chosen without looking at the noise
ZERO_BUDGET = StabilityBudget(0.0, 0.0, 0.0)


@dataclass  # not frozen: a container of arrays, built on every call
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


@dataclass  # not frozen: a container of arrays, built on every call
class SizeIntervals:
    """infer_runs' intervals for the runs of one model size that passed
    every check. fits factors the distinct (trial, model) pairs of this
    size, pair p on the columns fits.cols[p] of trial fits.trial[p], and
    also serves the targets X_M^+ mu; row i of estimates, stderrs, lower
    and upper is run runs[i], on pair pairs[i]."""

    fits: SubmodelFits
    runs: np.ndarray
    pairs: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass  # not frozen: a container of arrays, built on every call
class RunIntervals:
    """infer_runs' results for a block of runs: run r's constant K[r], level
    level[r], noise scale sigma[r] (NaN for an empty model of unknown
    scale) and budgets[budget[r]], the aligned certificate that gave K[r];
    failed maps a run whose check failed to its error, and sizes holds the
    intervals of the other runs by model size."""

    K: np.ndarray
    level: np.ndarray
    sigma: np.ndarray
    budget: np.ndarray
    budgets: list[StabilityBudget]
    failed: dict[int, Exception]
    sizes: dict[int, SizeIntervals]


# ---------------------------------------------------------------------------
# composition


def _check_count(name: str, value) -> None:
    """ValueError naming the field unless value is an integer >= 1."""
    check_number(name, value, integer=True)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def compose_adaptive_simple(eta_step: float, tau_step: float, k: int) -> tuple[float, float]:
    """k adaptive rounds, each (eta_step, tau_step)-indistinguishable on the
    typical pair: the certificates simply add. A tau above 1, which no
    certificate carries, is an error."""
    _check_count("k", k)
    if not (0 <= eta_step < math.inf and 0 <= tau_step < math.inf):
        raise ValueError(f"step parameters must be finite and >= 0, got {eta_step}, {tau_step}")
    eta, tau = k * eta_step, k * tau_step
    if not (math.isfinite(eta) and math.isfinite(tau)):
        raise ValueError(f"composing k={k} rounds at eta_step={eta_step!r}, "
                         f"tau_step={tau_step!r} overflows; lower them or k")
    if tau > 1:
        raise ValueError(f"composing k={k} rounds at tau_step={tau_step!r} gives tau={tau!r}, "
                         f"above 1; lower tau_step or k")
    return (eta, tau)


def compose_adaptive_advanced(eta_step: float, k: int, delta: float) -> float:
    """Strong-composition eta for k adaptive rounds at per-round eta_step.

    Returns k*eta^2/2 + sqrt(2k log(1/delta)) * eta. The caller accounts the
    extra additive slack: delta joins the tau side, on top of k*tau_step when
    the rounds carry their own tau.
    """
    _check_count("k", k)
    if not (0 <= eta_step < math.inf):
        raise ValueError(f"eta_step must be finite and >= 0, got {eta_step}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    try:
        eta = 0.5 * k * eta_step ** 2 + math.sqrt(2.0 * k * math.log(1.0 / delta)) * eta_step
    except OverflowError:  # a float ** raises where * returns inf
        eta = math.inf
    if not math.isfinite(eta):
        raise ValueError(f"advanced composition of k={k} rounds at eta_step={eta_step!r} "
                         f"overflows; lower eta_step or k")
    return eta


@functools.lru_cache(maxsize=4096, typed=True)
def certify_budgets(k: int, eta_step: float, delta: float) -> tuple[StabilityBudget, ...]:
    """The two composed certificates a k-round noisy selector earns at
    per-round eta_step: the advanced rate (eta_a, delta, delta) and the
    linear rate (k * eta_step, 0, delta). Cached, as every block of a sweep
    certifies the same few arguments; typed, so that a k of 2.0 or True is
    checked and rejected even after a k of 2 or 1 was cached."""
    eta_a = compose_adaptive_advanced(eta_step, k, delta)
    eta_s, _ = compose_adaptive_simple(eta_step, 0.0, k)
    return StabilityBudget(eta_a, delta, delta), StabilityBudget(eta_s, 0.0, delta)


@functools.cache
def scipy_special():
    """The scipy.special module, imported on the first call. Cached: a
    lookup costs less than an import statement, and one-run `infer` needs a
    quantile per certificate."""
    import scipy.special
    return scipy.special


def sparse_selection_eta(d: int, s: int, tau: float) -> float:
    """Universal eta for any selection rule confined to models of size <= s
    out of d features: log(sum_{k=1}^{s} C(d, k)) + log(1/tau).

    Evaluated with log-sum-exp over log-binomials so d up to 1e6 cannot
    overflow.
    """
    check_number("d", d, integer=True)
    check_number("s", s, integer=True)
    if not (1 <= s <= d):
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    ks = np.arange(1, s + 1, dtype=np.float64)
    sp = scipy_special()
    log_binom = sp.gammaln(d + 1.0) - sp.gammaln(ks + 1.0) - sp.gammaln(d - ks + 1.0)
    return float(sp.logsumexp(log_binom)) - math.log(tau)


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
    for name, value in (("model_size", model_size), ("dof", 1 if dof is None else dof)):
        _check_count(name, value)
    q = corrected_level(delta, budget) / (2.0 * model_size)
    if not (0.0 < q < 0.5):
        raise DegenerateLevel(f"two-sided tail mass {q} outside (0, 0.5)")
    # quantile of the lower tail, negated: avoids computing 1 - q at all
    if dof is not None:
        return -float(scipy_special().stdtrit(dof, q))
    return -float(scipy_special().ndtri(q))


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


def slack_allowance(alpha: float, weights: tuple[float, float, float] | None = None) -> float:
    """The tau + nu share of a target miscoverage alpha split into (delta,
    tau, nu): two equal thirds of it by default, or alpha * w1 + alpha * w2
    for a weight triple w, which must be nonnegative, sum to 1 and put
    positive mass on delta (the all-on-delta split (1, 0, 0) is the
    classical, no-selection allocation)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if weights is None:
        third = alpha / 3.0
        return third + third
    if len(weights) != 3:
        raise BadWeights(f"need exactly 3 weights, got {len(weights)}")
    w = tuple(float(x) for x in weights)
    if not all(x >= 0 for x in w):  # a NaN weight fails too
        raise BadWeights(f"weights must be nonnegative, got {w}")
    if w[0] <= 0:
        raise BadWeights("the delta weight must be positive")
    if abs(sum(w) - 1.0) > 1e-9:
        raise BadWeights(f"weights must sum to 1, got sum {sum(w)}")
    return alpha * w[1] + alpha * w[2]


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
    allowance = slack_allowance(alpha, weights)  # validates alpha and the weights
    if weights is None:
        level = alpha - slack
        if level <= 0:
            raise DegenerateLevel(f"budget slack {slack} leaves no level within alpha={alpha}")
    else:
        level = weights[0] * alpha
        if slack > allowance + 1e-12:
            raise BadWeights(f"budget slack {slack} exceeds the tau+nu weight allowance {allowance}")
    return aligned, level


def infer_runs(X: np.ndarray, Y: np.ndarray, trial: np.ndarray,
               support: np.ndarray, certs, cert: np.ndarray, alpha: float,
               sigma: float | None, weights: tuple[float, float, float] | None = None,
               ) -> RunIntervals:
    """Simultaneous intervals at miscoverage alpha for a block of runs: run
    r selects the columns support[r] (a mask) of the design X[trial[r]] of
    the stack X, on Y[trial[r]], with the certificates certs[cert[r]].

    The distinct (trial, support row) pairs of each model size are factored
    by one stacked SVD (linmodel.SubmodelFits). The checks go in the order
    rank, level (interval_level), sigma, K (the smallest constant over the
    aligned certificates), each once per distinct key among the runs that
    passed the checks before it, its results scattered to those runs.
    sigma is the known noise scale (normal quantiles), or None to estimate
    it per trial from the full model's residuals (Student-t quantiles), by
    one stacked call once a run with a nonempty model gets that far; one
    short of samples raises InsufficientSamples. The empty model gets no
    intervals and K = 0.
    """
    if sigma is not None and not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    runs = len(trial)
    if runs == 1:  # one run is one pair
        pair = first = np.zeros(1, dtype=np.int64)
        size, bounds = np.array([np.count_nonzero(support)]), [0, 1]
    else:  # the distinct pairs, sorted so that those of one model size are a range
        size = support.sum(axis=1)
        packed = np.concatenate([np.stack([size, trial], axis=1).astype(np.int64).view(np.uint8),
                                 np.packbits(support, axis=1)], axis=1)
        # each packed row as one opaque field: np.unique(packed, axis=0) sorts
        # a field per byte, 8 times slower on a sweep block
        _, first, pair = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1),
                                   return_index=True, return_inverse=True)
        cuts = (np.diff(size[first]).nonzero()[0] + 1).tolist()
        bounds = [0, *cuts, len(first)] if runs else []
    fits: dict[int, SubmodelFits] = {}
    lo: dict[int, int] = {}  # the first pair of each size's range
    for a, b in zip(bounds, bounds[1:]):
        rows = first[a:b]
        m = int(size[rows[0]])
        lo[m] = a
        fits[m] = SubmodelFits(X, trial[rows], support[rows].nonzero()[1].reshape(b - a, m))
    # a run gets its first failure, K 0, NaN level and sigma and no budget
    ts, ps, ms, cs = trial.tolist(), pair.tolist(), size.tolist(), cert.tolist()
    rank = {lo[m] + p: e for m, fit in fits.items() for p, e in fit.errors.items()}
    failed = {r: rank[p] for r, p in enumerate(ps) if p in rank} if rank else {}
    levels = _each(failed, cs, lambda c: interval_level(certs[c], alpha, weights))
    estimate, dof = None, None
    if sigma is None and any(m and r not in failed for r, m in enumerate(ms)):
        estimate, dof, errors = sigma_hat_full_model(X, Y)
        estimate = estimate.tolist()
        failed.update({r: errors[t] for r, (t, m) in enumerate(zip(ts, ms))
                       if m and t in errors and r not in failed})
    keys = list(zip(ms, cs))  # (model size, certificate index)
    table = _each(failed, keys, lambda key: best_posi_constant(
        key[0], levels[key[1]][1], levels[key[1]][0], dof) if key[0] else
        (0.0, levels[key[1]][0][0]))
    place = {key: i for i, key in enumerate(table)}
    outcomes, scored = [], {}  # (K, level, sigma, budget) per run; (run, pair) by size
    for r, (t, p, (m, c)) in enumerate(zip(ts, ps, keys)):
        if r in failed:
            outcomes.append((0.0, math.nan, math.nan, -1))
            continue
        outcomes.append((table[m, c][0], levels[c][1], sigma if sigma is not None else
                         estimate[t] if m else math.nan, place[m, c]))
        scored.setdefault(m, []).append((r, p - lo[m]))
    K, level, run_sigma, budget = np.array(outcomes, dtype=np.float64).reshape(runs, 4).T
    out = {}
    for m, rows in scored.items():
        fit, (done, p) = fits[m], np.array(rows).T
        est = fit.coefficients(Y[fit.trial])[p]
        se = fit.stderrs()[p] * run_sigma[done][:, None]  # an empty model has no entry
        half = K[done][:, None] * se
        out[m] = SizeIntervals(fits=fit, runs=done, pairs=p, estimates=est, stderrs=se,
                               lower=est - half, upper=est + half)
    return RunIntervals(K=K, level=level, sigma=run_sigma, budget=budget.astype(np.int64),
                        budgets=[best for _, best in table.values()], failed=failed, sizes=out)


def _each(failed: dict, keys: list, check) -> dict:
    """check(key) by key, once per distinct keys[r] of a run r not in
    failed; a key's RankDeficient or DegenerateLevel error is not in the
    table but fails its runs: failed maps each to it."""
    table, errors = {}, {}
    for key in {key for r, key in enumerate(keys) if r not in failed} if failed else set(keys):
        try:
            table[key] = check(key)
        except (RankDeficient, DegenerateLevel) as e:
            errors[key] = e
    if errors:
        failed.update({r: errors[k] for r, k in enumerate(keys)
                       if k in errors and r not in failed})
    return table


def infer(X: DesignMatrix, y, model: ModelSet, budgets: list[StabilityBudget],
          alpha: float, sigma: float | None,
          weights: tuple[float, float, float] | None = None) -> IntervalSet:
    """Simultaneous intervals over the selected model at miscoverage alpha:
    infer_runs on a block of one run, whose failed check is raised."""
    y = as_response(y, X.n)
    zero, support = np.zeros(1, dtype=np.int64), np.zeros((1, X.d), dtype=bool)
    support[0, model.columns(X.d)] = True
    out = infer_runs(X.stack.entries, y[None], zero, support, [budgets], zero, alpha, sigma,
                     weights)
    if out.failed:
        raise out.failed[0]
    run, sigma = out.sizes[len(model)], float(out.sigma[0])
    return IntervalSet(model=model, estimates=run.estimates[0], stderrs=run.stderrs[0],
                       K=float(out.K[0]), lower=run.lower[0], upper=run.upper[0],
                       level=float(out.level[0]), budget=out.budgets[out.budget[0]],
                       sigma=None if math.isnan(sigma) else sigma,
                       fit=SubmodelFit(X, model, run.fits))


def eta_step_for_total(k: int, delta: float, eta_total: float) -> float:
    """Per-step eta making the better of the two composed certificates equal
    eta_total over k rounds at slack parameter delta.

    Convenience for experiment planning: both composed rates increase in the
    per-step eta, so the minimum crosses eta_total exactly once.
    """
    _check_count("k", k)
    if eta_total <= 0:
        raise ValueError(f"eta_total must be positive, got {eta_total}")
    step_b = eta_total / k
    if compose_adaptive_advanced(step_b, k, delta) >= eta_total:
        return step_b
    # advanced rate governs: positive root of k/2 * x^2 + c x - eta_total
    c = math.sqrt(2.0 * k * math.log(1.0 / delta))
    step_a = (-c + math.sqrt(c * c + 2.0 * k * eta_total)) / k
    return step_a
