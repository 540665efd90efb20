"""Exact and stability-randomized model selectors.

Three procedures, each in an exact and a noisy variant sharing one code
path (the noisy variant with scale 0 reproduces the exact one bit for
bit, tie rule included):

- LASSO over the l1 ball of radius C1, optimized by Frank-Wolfe; the
  noisy variant perturbs every vertex score with fresh Laplace noise
  before the argmin.
- Marginal screening: k rounds of noisy argmax over |X_i^T y / n|,
  selected index removed from the residual candidate set.
- Forward stepwise: k rounds of noisy argmax over residual-normalized
  absolute correlations, with numerically collinear candidates excluded
  before noise.

Every noisy run certifies the same two composed stability budgets,
returned on the SelectionResult for the interval stage to choose from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesCollinear, NonConvergence
from .linmodel import DesignMatrix, ModelSet, as_response
from .noise import NoiseFamily, NoisePolicy, RngStream, Subgaussian, \
    scale_forward_stepwise, scale_lasso, scale_screening
from .stability import StabilityBudget, compose_adaptive_advanced

SUPPORT_THRESHOLD = 1e-12
FS_COLLINEAR_TOL = 1e-10
MAX_DEFAULT_FW_STEPS = 10_000


@dataclass(frozen=True)
class TraceStep:
    """One selection round: the chosen candidate with its noiseless score,
    its noisy score, and the best noiseless score available that round."""

    step: int
    chosen: int
    exact_score: float
    noisy_score: float
    best_exact: float
    objective: float | None = None


@dataclass(frozen=True)
class SelectionResult:
    """A selected model with its certificates. theta is the LASSO iterate and
    c1 the l1 radius it ran at (None for other selectors); a model chosen
    without looking at the noise carries the one zero certificate."""

    model: ModelSet
    theta: np.ndarray | None
    trace: tuple[TraceStep, ...]
    budgets: tuple[StabilityBudget, ...]
    c1: float | None = None


@dataclass(frozen=True)
class SelectorSpec:
    """Which selector to run and its non-noise parameters: the one selector
    description shared by `select` and the experiment runner."""

    method: str  # "fixed" | "screen" | "fs" | "lasso"
    k: int | None = None
    c1: float | None = None
    lam: float | None = None
    steps: int | None = None
    fixed_model: tuple[int, ...] = ()
    support_threshold: float = SUPPORT_THRESHOLD

    def __post_init__(self):
        if self.method not in ("fixed", "screen", "fs", "lasso"):
            raise ValueError(f"unknown selector method {self.method!r}")
        if self.method in ("screen", "fs") and (self.k is None or self.k < 1):
            raise ValueError(f"method {self.method!r} needs k >= 1")
        if self.method == "lasso" and (self.c1 is None) == (self.lam is None):
            raise ValueError("lasso needs exactly one of c1 or lam")
        for name, value in (("c1", self.c1), ("lam", self.lam)):
            if value is not None and not (0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.method == "fixed" and len(self.fixed_model) == 0:
            raise ValueError("fixed method needs a nonempty fixed_model")


def certify_budgets(k: int, eta_step: float, delta: float) -> tuple[StabilityBudget, ...]:
    """The two composed certificates a k-round noisy selector earns at
    per-round eta_step: the advanced rate (eta_a, delta, delta) and the
    linear rate (k * eta_step, 0, delta)."""
    eta_a = compose_adaptive_advanced(eta_step, k, delta)
    return (
        StabilityBudget(eta_a, delta, delta),
        StabilityBudget(k * eta_step, 0.0, delta),
    )


# ---------------------------------------------------------------------------
# LASSO via Frank-Wolfe


def _default_fw_steps(X: DesignMatrix, c1: float, eta_step: float,
                      family: NoiseFamily) -> int:
    """The utility-optimal step count
    ceil(n ||X||_inf^2 c1 eta / (sigma ||X||_{2,inf})), capped."""
    spread = family.sigma if isinstance(family, Subgaussian) else family.G
    raw = X.n * X.linf_norm ** 2 * c1 * eta_step / (spread * X.l2inf_norm)
    return max(1, min(MAX_DEFAULT_FW_STEPS, math.ceil(raw)))


def _fw_loop(X: DesignMatrix, y: np.ndarray, c1: float, steps: int,
             scale: float, rng: RngStream | None) -> tuple[np.ndarray, list[TraceStep]]:
    """Frank-Wolfe over the l1 ball with optionally noisy vertex scores.

    Vertex order is +c1*e_0 .. +c1*e_{d-1}, -c1*e_0 .. -c1*e_{d-1}; the
    per-step noise vector is drawn in that order from the step's child
    stream. Step size 2/(t+1), t = 1..steps, theta_1 = 0.

    Scores are vertex . gradient for the loss ||y - X theta||^2 / n,
    whose gradient is -(2/n) X^T r; the noise scale is calibrated to
    exactly that score sensitivity, so the 2/n is load-bearing.
    """
    n, d = X.n, X.d
    A = X.entries
    theta = np.zeros(d)
    z = np.zeros(n)  # X @ theta, updated incrementally
    trace: list[TraceStep] = []
    for t in range(1, steps + 1):
        r = y - z
        g = (-2.0 / n) * (A.T @ r)
        exact = np.concatenate((c1 * g, -c1 * g))
        if rng is not None:
            noisy = exact + rng.child(t).laplace(scale, 2 * d)
        else:
            noisy = exact
        v = int(np.argmin(noisy))
        col, sgn = (v, 1.0) if v < d else (v - d, -1.0)
        step_size = 2.0 / (t + 1.0)
        theta *= 1.0 - step_size
        theta[col] += step_size * sgn * c1
        z *= 1.0 - step_size
        z += (step_size * sgn * c1) * A[:, col]
        rr = y - z
        trace.append(TraceStep(
            step=t, chosen=v,
            exact_score=float(exact[v]), noisy_score=float(noisy[v]),
            best_exact=float(exact.min()),
            objective=float(rr @ rr) / n,
        ))
    return theta, trace


def lasso_exact_fw(X: DesignMatrix, y, c1: float, steps: int) -> np.ndarray:
    """Noiseless Frank-Wolfe for the l1-constrained least-squares problem.

    After k steps the objective gap obeys the curvature bound
    2 C_L / (k + 2) with C_L <= 4 ||X||_inf^2 c1^2.
    """
    if not (c1 > 0):
        raise ValueError(f"c1 must be positive, got {c1}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    y = as_response(y, X.n)
    theta, _ = _fw_loop(X, y, c1, steps, 0.0, None)
    return theta


def stable_lasso(X: DesignMatrix, y, c1: float, delta: float, eta_step: float,
                 family: NoiseFamily, *,
                 rng: RngStream, steps: int | None = None,
                 support_threshold: float = SUPPORT_THRESHOLD,
                 scale_override: float | None = None) -> SelectionResult:
    """Noisy Frank-Wolfe LASSO over the l1 ball of radius c1: every step
    perturbs all 2d vertex scores with independent Laplace draws at
    scale_lasso, then takes the argmin. steps defaults to the
    utility-optimal count for this design and eta_step.

    scale_override is a test hook; 0 gives the exact algorithm on the same
    code path.
    """
    if not (0 < c1 < math.inf):
        raise ValueError(f"c1 must be finite and positive, got {c1}")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    policy = NoisePolicy(family, delta, eta_step)
    y = as_response(y, X.n)
    if steps is None:
        steps = _default_fw_steps(X, c1, eta_step, family)
    scale = scale_lasso(X.d, c1, X, policy) if scale_override is None else scale_override
    theta, trace = _fw_loop(X, y, c1, steps, scale, rng)
    return SelectionResult(model=support(theta, support_threshold), theta=theta,
                           trace=tuple(trace), budgets=certify_budgets(steps, eta_step, delta),
                           c1=c1)


def support(theta, threshold: float = SUPPORT_THRESHOLD) -> ModelSet:
    """Indices with |theta_j| > threshold. Pure post-processing: the result
    inherits theta's stability budget unchanged."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    return ModelSet(tuple(int(j) for j in np.nonzero(np.abs(theta) > threshold)[0]))


# ---------------------------------------------------------------------------
# penalized-form solver (lambda -> c1 translation and test oracle)


def _soft_threshold(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def solve_penalized_lasso(X: DesignMatrix, y, lam: float, gap_tol: float = 1e-8,
                          max_sweeps: int = 100_000) -> np.ndarray:
    """Cyclic coordinate descent with soft-thresholding for
    min 0.5 ||y - X theta||^2 + lam ||theta||_1, run until the duality gap
    drops below gap_tol."""
    if not (lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    A = X.entries
    y = as_response(y, X.n)
    d = X.d
    col_sq = X.col_norms ** 2
    theta = np.zeros(d)
    r = y.copy()
    yy = 0.5 * float(y @ y)
    for _ in range(max_sweeps):
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            aj = A[:, j]
            rho = float(aj @ r) + col_sq[j] * theta[j]
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != theta[j]:
                r += aj * (theta[j] - new)
                theta[j] = new
        # duality gap: scaled residual is dual-feasible
        xr_inf = float(np.max(np.abs(A.T @ r))) if d else 0.0
        s = max(1.0, xr_inf / lam)
        u = r / s
        primal = 0.5 * float(r @ r) + lam * float(np.abs(theta).sum())
        dual = yy - 0.5 * float((y - u) @ (y - u))
        if primal - dual <= gap_tol:
            return theta
    raise NonConvergence(
        f"coordinate descent did not reach gap {gap_tol} in {max_sweeps} sweeps"
    )


def lambda_to_c1(X: DesignMatrix, y, lam: float) -> float:
    """l1 norm of the penalized-form solution at penalty lam; translates a
    penalty magnitude into a constraint radius for the constrained form."""
    theta = solve_penalized_lasso(X, y, lam)
    return float(np.abs(theta).sum())


# ---------------------------------------------------------------------------
# marginal screening


def screening_exact(X: DesignMatrix, y, k: int) -> ModelSet:
    """Top-k indices by |X_i^T y| / n, ties broken by lowest index."""
    if not (1 <= k <= X.d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    y = as_response(y, X.n)
    c = np.abs(X.entries.T @ y) / X.n
    # stable sort on -|c| keeps ascending index order within ties
    order = np.argsort(-c, kind="stable")
    return ModelSet.from_unordered(order[:k])


def stable_screening(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
                     family: NoiseFamily = Subgaussian(1.0), *,
                     rng: RngStream, scale_override: float | None = None,
                     ) -> SelectionResult:
    """k rounds of noisy argmax over |c_i + xi| with c = X^T y / n; the
    winner leaves the candidate set, noise is fresh each round."""
    if not (1 <= k <= X.d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    y = as_response(y, X.n)
    policy = NoisePolicy(family, delta, eta_step)
    scale = scale_screening(X.d, X, policy) if scale_override is None else scale_override
    c = (X.entries.T @ y) / X.n
    available = np.ones(X.d, dtype=bool)
    trace: list[TraceStep] = []
    chosen_order: list[int] = []
    for t in range(1, k + 1):
        cand = np.nonzero(available)[0]
        xi = rng.child(t).laplace(scale, cand.shape[0])
        noisy = np.abs(c[cand] + xi)
        j = int(np.argmax(noisy))
        i_t = int(cand[j])
        abs_exact = np.abs(c[cand])
        trace.append(TraceStep(
            step=t, chosen=i_t,
            exact_score=float(abs_exact[j]), noisy_score=float(noisy[j]),
            best_exact=float(abs_exact.max()),
        ))
        chosen_order.append(i_t)
        available[i_t] = False
    return SelectionResult(model=ModelSet.from_unordered(chosen_order), theta=None,
                           trace=tuple(trace), budgets=certify_budgets(k, eta_step, delta))


# ---------------------------------------------------------------------------
# forward stepwise


def _fs_correlation_order(X: DesignMatrix, y: np.ndarray, k: int,
                          scale: float, rng: RngStream | None,
                          ) -> tuple[list[int], list[TraceStep]]:
    """Shared loop for exact (rng None or scale 0) and noisy forward
    stepwise with incrementally residualized columns."""
    n, d = X.n, X.d
    R = X.entries.copy()
    y_res = y.astype(np.float64, copy=True)
    available = np.ones(d, dtype=bool)
    order: list[int] = []
    trace: list[TraceStep] = []
    for t in range(1, k + 1):
        cand_all = np.nonzero(available)[0]
        norms = np.linalg.norm(R[:, cand_all], axis=0)
        keep = norms > FS_COLLINEAR_TOL * X.col_norms[cand_all]
        cand = cand_all[keep]
        if cand.size == 0:
            raise AllCandidatesCollinear(
                f"step {t}: every remaining candidate is numerically in the span "
                f"of the {len(order)} selected columns"
            )
        nrm = norms[keep]
        signed = (R[:, cand].T @ y_res) / nrm
        if rng is not None:
            noisy_signed = signed + rng.child(t).laplace(scale, cand.shape[0])
        else:
            noisy_signed = signed
        noisy = np.abs(noisy_signed)
        j = int(np.argmax(noisy))
        i_t = int(cand[j])
        abs_exact = np.abs(signed)
        trace.append(TraceStep(
            step=t, chosen=i_t,
            exact_score=float(abs_exact[j]), noisy_score=float(noisy[j]),
            best_exact=float(abs_exact.max()),
        ))
        # fold the winner into the basis; residualize everything once
        q = R[:, i_t] / np.linalg.norm(R[:, i_t])
        R -= np.outer(q, q @ R)
        y_res -= q * float(q @ y_res)
        available[i_t] = False
        order.append(i_t)
    return order, trace


def fs_exact(X: DesignMatrix, y, k: int) -> ModelSet:
    """Greedy forward stepwise on residual-normalized absolute correlations."""
    if not (1 <= k <= X.d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    y = as_response(y, X.n)
    order, _ = _fs_correlation_order(X, y, k, 0.0, None)
    return ModelSet.from_unordered(order)


def stable_fs(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
              family: NoiseFamily = Subgaussian(1.0), *,
              rng: RngStream, scale_override: float | None = None,
              ) -> SelectionResult:
    """k rounds of noisy argmax over residual-normalized correlations; the
    per-round scale is calibrated over ordered candidate sequences, so it
    uses the descending factorial (d)_k and no 1/n factor."""
    if not (1 <= k <= X.d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    y = as_response(y, X.n)
    policy = NoisePolicy(family, delta, eta_step)
    scale = scale_forward_stepwise(X.d, k, policy) if scale_override is None \
        else scale_override
    order, trace = _fs_correlation_order(X, y, k, scale, rng)
    return SelectionResult(model=ModelSet.from_unordered(order), theta=None,
                           trace=tuple(trace), budgets=certify_budgets(k, eta_step, delta))
