"""Stability-budget arithmetic and corrected interval construction.

A selection procedure certifies a budget (eta, tau, nu): eta bounds the
log-likelihood ratio between its output distributions on a typical pair of
inputs, tau is additive indistinguishability slack, and nu the probability
of an atypical pair. Downstream, a classical simultaneous constant at level
delta is repaired by shrinking the level to delta*(1-nu)*exp(-eta) and
growing the reported miscoverage to delta + tau + nu. This module holds the
budget algebra (composition, the sparse-selection universal bound), the
corrected quantile constants, and interval assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp, ndtri, stdtrit

from .errors import BadWeights, DegenerateLevel, EmptyInput, MixedSlack
from .linmodel import DesignMatrix, ModelSet, SubmodelFit, as_response, sigma_hat_full_model

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
class KnownSigma:
    """Gaussian noise with known scale: normal quantiles."""


@dataclass(frozen=True)
class EstimatedSigma:
    """Full-model residual variance estimate: Student-t quantiles."""

    dof: int

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError(f"dof must be >= 1, got {self.dof}")


KNOWN_SIGMA = KnownSigma()


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
                  variance_mode: KnownSigma | EstimatedSigma = KNOWN_SIGMA) -> float:
    """Half-width multiplier: the z (or t) quantile at
    1 - corrected_level / (2 * model_size). Bonferroni over the selected
    set is built in.
    """
    if model_size < 1:
        raise ValueError(f"model_size must be >= 1, got {model_size}")
    q = corrected_level(delta, budget) / (2.0 * model_size)
    if not (0.0 < q < 0.5):
        raise DegenerateLevel(f"two-sided tail mass {q} outside (0, 0.5)")
    # quantile of the lower tail, negated: avoids computing 1 - q at all
    if isinstance(variance_mode, EstimatedSigma):
        return -float(stdtrit(variance_mode.dof, q))
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
                       variance_mode: KnownSigma | EstimatedSigma = KNOWN_SIGMA,
                       ) -> tuple[float, StabilityBudget]:
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
            K = posi_constant(model_size, delta, b, variance_mode)
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


def infer(X: DesignMatrix, y, model: ModelSet, budgets: list[StabilityBudget],
          alpha: float, sigma: float | None,
          weights: tuple[float, float, float] | None = None) -> IntervalSet:
    """Simultaneous intervals over the selected model at miscoverage alpha.

    The certificates are padded to a common slack tau + nu (align_slack),
    which is spent out of alpha: the quantile level is alpha - slack, or
    weights[0] * alpha for a (delta, tau, nu) weight split, whose tau + nu
    share must then cover the slack. K is the smallest constant over the
    certificates at that level. sigma is the known noise scale (normal
    quantiles), or None to estimate it from the full model's residuals
    (Student-t quantiles). The empty model gets no intervals and K = 0.
    """
    y = as_response(y, X.n)
    fit = SubmodelFit(X, model)
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
    if len(model) == 0:
        K, chosen = 0.0, aligned[0]
        se = np.zeros(0)
    else:
        mode = KNOWN_SIGMA
        if sigma is None:
            sigma, dof = sigma_hat_full_model(X, y)
            mode = EstimatedSigma(dof)
        K, chosen = best_posi_constant(len(model), level, aligned, mode)
        se = fit.stderrs(sigma)
    est = fit.coefficients(y)
    return IntervalSet(model=model, estimates=est, stderrs=se, K=K,
                       lower=est - K * se, upper=est + K * se,
                       level=level, budget=chosen, sigma=sigma, fit=fit)


# ---------------------------------------------------------------------------
# Orlicz tail families


@dataclass(frozen=True)
class OrliczFunction:
    """A convex Orlicz generator psi with its inverse; ||W||_psi <= G tail
    control generalizes the subgaussian case."""

    name: str
    psi: Callable[[float], float]
    inverse: Callable[[float], float]


SUBGAUSSIAN = OrliczFunction(
    name="subgaussian",
    psi=lambda x: math.expm1(x * x),
    inverse=lambda u: math.sqrt(math.log1p(u)),
)

SUBEXPONENTIAL = OrliczFunction(
    name="subexponential",
    psi=math.expm1,
    inverse=math.log1p,
)


def orlicz_constant(psi: OrliczFunction, G: float, model_size: int,
                    delta: float, budget: StabilityBudget) -> float:
    """Half-width multiplier psi^{-1}(model_size * e^eta / (delta(1-nu))) * G;
    the caller multiplies by the Gram-diagonal square roots."""
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if model_size < 1:
        raise ValueError(f"model_size must be >= 1, got {model_size}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if budget.nu >= 1.0:
        raise DegenerateLevel("nu = 1 leaves no typical mass")
    u = model_size * math.exp(budget.eta) / (delta * (1.0 - budget.nu))
    return psi.inverse(u) * G


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
