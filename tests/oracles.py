"""Exact selectors, scalar noisy selectors, the residual-form penalized
LASSO and the eta-major sweep, kept as test oracles.

The library ships only the noisy selectors; their exact forms are the
zero-noise limits (a method's MECHANISMS record at scale 0, which
`set_scale` swaps in). These plain noiseless loops are written out
separately so the tests can check that limit, tie rule included, without
going through the library's loops. The scalar noisy selectors run one
run per call, one fresh stream per step, and the eta-major sweep reruns
every (eta, trial) from scratch through them: the reference for the
library's run-axis selectors and block sweep engine.
The penalized solver updates the residual itself, coordinate by
coordinate: the reference for the library's covariance-update solver.
The full-model sigma estimate fits through a thin SVD of the design and
sums the squared residuals: the reference for the library's R-only QR.
`sigma_hat_qr` is that QR as numpy.linalg.qr computes it, on a
concatenated copy of [X y]: the bit-for-bit reference for the library's
in-place factorization. `constrained_lstar_lower` bounds the l1-ball
least-squares optimum from below through the penalized solver's dual, the
yardstick of the Frank-Wolfe convergence checks.
`sigma_hat`, `stack` and `one_trial` hand one design to the library's
stacked calls and take one trial out of its block draw. `set_scale` runs
a method's production path at a fixed Laplace scale. `child` names a
stream under another's path, as the scalar selectors' per-step streams are.
`support` is the LASSO model of one iterate, the reference for the
library's support mask over a block. `records_rows` formats records one
field at a time, the reference for the `experiment` command's columnar
records.csv writer, and `columns` packs records into the columns that
`aggregate` reads.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from stableci import experiments, selectors
from stableci.errors import AllCandidatesCollinear, DegenerateLevel, InsufficientSamples, \
    NonConvergence, RankDeficient
from stableci.experiments import Runs, TrialRecord, gen_synthetic
from stableci.linmodel import RANK_TOL, DesignMatrix, DesignStack, ModelSet, SubmodelFit, \
    _rank_error, as_response, sigma_hat_full_model
from stableci.noise import RngStream, scale_forward_stepwise, scale_lasso, scale_screening
from stableci.selectors import FS_COLLINEAR_TOL, MECHANISMS, SUPPORT_THRESHOLD, SelectionResult, \
    SelectorSpec, _lasso_steps, _soft_threshold, solve_penalized_lasso
from stableci.stability import StabilityBudget, best_posi_constant, certify_budgets, \
    interval_level, slack_allowance


def screening_exact(X: DesignMatrix, y, k: int) -> ModelSet:
    """Top-k indices by |X_i^T y| / n, ties broken by lowest index."""
    if not (1 <= k <= X.d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    y = as_response(y, X.n)
    c = np.abs(X.entries.T @ y) / X.n
    # stable sort on -|c| keeps ascending index order within ties
    order = np.argsort(-c, kind="stable")
    return ModelSet.from_unordered(order[:k])


def fs_exact(X: DesignMatrix, y, k: int) -> ModelSet:
    """Greedy forward stepwise on residual-normalized absolute correlations,
    residualizing every column against each winner; candidates whose
    residual norm falls below FS_COLLINEAR_TOL of their own norm are out."""
    if not (1 <= k <= X.d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={X.d}")
    y_res = as_response(y, X.n).copy()
    R = X.entries.copy()
    available = np.ones(X.d, dtype=bool)
    chosen = []
    for t in range(1, k + 1):
        cand_all = np.nonzero(available)[0]
        norms = np.linalg.norm(R[:, cand_all], axis=0)
        keep = norms > FS_COLLINEAR_TOL * X.stack.col_norms[0][cand_all]
        cand = cand_all[keep]
        if cand.size == 0:
            raise AllCandidatesCollinear(f"step {t}: no independent candidate")
        # one dot per candidate: a gemv over all of them rounds its tail
        # columns differently, which can split an exact tie
        scores = np.abs(np.array([R[:, j] @ y_res for j in cand]) / norms[keep])
        i_t = int(cand[int(np.argmax(scores))])
        q = R[:, i_t] / np.linalg.norm(R[:, i_t])
        R -= np.outer(q, np.einsum("i,ij->j", q, R))
        y_res -= q * float(q @ y_res)
        available[i_t] = False
        chosen.append(i_t)
    return ModelSet.from_unordered(chosen)


def support(theta) -> ModelSet:
    """Indices with |theta_j| > SUPPORT_THRESHOLD. Pure post-processing: the
    result inherits theta's stability budget unchanged."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    return ModelSet(tuple(int(j) for j in np.nonzero(np.abs(theta) > SUPPORT_THRESHOLD)[0]))


def lasso_exact_fw(X: DesignMatrix, y, c1: float, steps: int) -> np.ndarray:
    """Noiseless Frank-Wolfe for min ||y - X theta||^2 / n over the l1 ball
    of radius c1: vertices +c1*e_0 .. +c1*e_{d-1}, -c1*e_0 .. -c1*e_{d-1},
    the first minimizing vertex wins, step size 2/(t+1), theta_1 = 0.

    After k steps the objective gap obeys the curvature bound
    2 C_L / (k + 2) with C_L <= 4 ||X||_inf^2 c1^2.
    """
    y = as_response(y, X.n)
    n, d = X.n, X.d
    A = X.entries
    theta = np.zeros(d)
    z = np.zeros(n)  # X @ theta
    for t in range(1, steps + 1):
        g = (-2.0 / n) * (A.T @ (y - z))
        v = int(np.argmin(np.concatenate((c1 * g, -c1 * g))))
        col, sgn = (v, 1.0) if v < d else (v - d, -1.0)
        step_size = 2.0 / (t + 1.0)
        theta *= 1.0 - step_size
        theta[col] += step_size * sgn * c1
        z *= 1.0 - step_size
        z += (step_size * sgn * c1) * A[:, col]
    return theta


def penalized_lasso_residual(X: DesignMatrix, y, lam: float, gap_tol: float = 1e-8,
                             max_sweeps: int = 100_000) -> np.ndarray:
    """Cyclic coordinate descent with soft-thresholding for
    min 0.5 ||y - X theta||^2 + lam ||theta||_1, run until the duality gap
    drops below gap_tol, keeping the residual r = y - X theta: each
    coordinate reads X_j^T r and a move updates r."""
    if not (lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    A = X.entries
    y = as_response(y, X.n)
    d = X.d
    col_sq = X.stack.col_norms[0] ** 2
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


def sigma_hat(X: DesignMatrix, y) -> tuple[float, int]:
    """The library's full-model sigma estimate of one design, as a stack of
    one: (sigma_hat, dof), or its RankDeficient raised."""
    sigma, dof, errors = sigma_hat_full_model(X.stack.entries, as_response(y, X.n)[None])
    if errors:
        raise errors[0]
    return float(sigma[0]), dof


def stack(designs) -> DesignStack:
    """DesignMatrix designs as one checked DesignStack."""
    return DesignStack.checked(np.stack([X.entries for X in designs]))


def alone(solve, X: DesignMatrix, y, lam: float):
    """solve (solve_penalized_lasso or lambda_to_c1) on the stack of one
    design X with the response y: its one result, or its failure raised."""
    (result,), failed = solve(X.stack, np.asarray(y, dtype=np.float64)[None], lam)
    if failed:
        raise failed[0]
    return result


def set_scale(monkeypatch, method: str, scale: float) -> None:
    """While monkeypatch holds, method's MECHANISMS record gives every run
    the Laplace scale `scale` (0 is the exact algorithm); the rest of the
    production path runs as it is: the spec check, certification, the
    draws and the kernel."""
    monkeypatch.setitem(MECHANISMS, method, dataclasses.replace(
        MECHANISMS[method], scale=lambda X, trial, *_: np.full(len(trial), scale)))


def one_trial(cfg, trial_index: int):
    """(X, beta, mu, y) of one trial, from the library's block draw of that
    trial alone, with X as a DesignMatrix."""
    X, beta, mu, Y = gen_synthetic(cfg, range(trial_index, trial_index + 1))
    return DesignMatrix(X.entries[0]), beta, mu[0], Y[0]


def sigma_hat_svd(X: DesignMatrix, y) -> tuple[float, int]:
    """Full-model residual noise estimate (sigma_hat, dof = n - d) through a
    rank-checked thin SVD of X: the least-squares fit on all d columns, then
    the sum of squared residuals. The reference for the library's R-only QR
    of [X y]."""
    if X.n <= X.d:
        raise InsufficientSamples(f"need n > d for the full-model estimate, got n={X.n}, d={X.d}")
    y = as_response(y, X.n)
    beta = SubmodelFit(X, ModelSet(tuple(range(X.d)))).coefficients(y)
    rss = float(np.sum((y - X.entries @ beta) ** 2))
    dof = X.n - X.d
    return float(np.sqrt(rss / dof)), dof


def sigma_hat_qr(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, int, dict]:
    """sigma_hat_full_model(X, Y) through numpy.linalg.qr: R of a
    concatenated copy of the stack [X y] (which qr copies twice more), then
    the same rank rule and RSS. The bit-for-bit reference for the library's
    in-place dgeqrf."""
    _, n, d = X.shape
    if n <= d:
        raise InsufficientSamples(f"need n > d for the full-model estimate, got n={n}, d={d}")
    R = np.linalg.qr(np.concatenate([X, Y[:, :, None]], axis=2), mode="r")
    s = np.linalg.svd(R[:, :d, :d], compute_uv=False)
    errors = {b: _rank_error(tuple(range(d)), n, s[b])
              for b in np.flatnonzero(s[:, -1] <= RANK_TOL * s[:, 0]).tolist()}
    return np.sqrt(R[:, d, d] ** 2 / (n - d)), n - d, errors


def constrained_lstar_lower(X: DesignMatrix, y, c1: float) -> float:
    """Lower bound on min ||y - X theta||^2 / n over the l1 ball of radius
    c1 via the penalized dual: for any lam, L* >= (2/n)(dual(lam) - lam c1),
    with the penalized solves run to a gap of 1e-10 and lam bisected toward
    the ball's boundary. The least-squares fit's own loss if it lies in the
    ball."""
    y = np.asarray(y, dtype=np.float64)
    try:
        theta, *_ = np.linalg.lstsq(X.entries, y, rcond=None)
    except np.linalg.LinAlgError:
        theta = None
    if theta is not None and np.abs(theta).sum() <= c1:
        r = y - X.entries @ theta
        return float(r @ r) / X.n
    lam_hi = float(np.max(np.abs(X.entries.T @ y)))
    lo, hi = 1e-6 * lam_hi, lam_hi
    best = -math.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selectors, "CD_GAP_TOL", 1e-10)
        for _ in range(60):
            lam = 0.5 * (lo + hi)
            th = alone(solve_penalized_lasso, X, y, lam)
            r = y - X.entries @ th
            s = max(1.0, float(np.max(np.abs(X.entries.T @ r))) / lam)
            u = r / s
            dual = 0.5 * float(y @ y) - 0.5 * float((y - u) @ (y - u))
            best = max(best, (2.0 / X.n) * (dual - lam * c1))
            l1 = float(np.abs(th).sum())
            if abs(l1 - c1) <= 1e-6 * c1:
                break
            if l1 > c1:
                lo = lam
            else:
                hi = lam
    return best


# ---------------------------------------------------------------------------
# scalar noisy selectors: one run per call, drawing each step's noise from a
# fresh child stream, as the selectors were written before the run axis


def child(stream: RngStream, *indices: int) -> RngStream:
    """The stream whose path is stream's extended by indices."""
    return RngStream(stream.master_seed, stream.path + indices)


def screening_noisy(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
                    sigma: float, rng: RngStream) -> SelectionResult:
    """k rounds of noisy argmax over |c_i + xi| with c = X^T y / n."""
    y = as_response(y, X.n)
    scale = scale_screening(X.stack, 0, k, None, sigma, delta, eta_step)
    c = (X.entries.T @ y) / X.n
    available = np.ones(X.d, dtype=bool)
    chosen_order = []
    for t in range(1, k + 1):
        cand = np.nonzero(available)[0]
        xi = child(rng, t).laplace(scale, cand.shape[0])
        i_t = int(cand[int(np.argmax(np.abs(c[cand] + xi)))])
        chosen_order.append(i_t)
        available[i_t] = False
    return SelectionResult(ModelSet.from_unordered(chosen_order), None, (),
                           certify_budgets(k, eta_step, delta))


def fs_noisy(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
             sigma: float, rng: RngStream, scale: float | None = None) -> SelectionResult:
    """k rounds of noisy argmax over residual-normalized correlations, the
    columns residualized against each winner, collinear candidates out;
    scale replaces eta_step's Laplace scale (0 is the exact selector)."""
    y = as_response(y, X.n)
    if scale is None:
        scale = scale_forward_stepwise(X.stack, 0, k, None, sigma, delta, eta_step)
    R = X.entries.copy()
    y_res = y.astype(np.float64, copy=True)
    available = np.ones(X.d, dtype=bool)
    order = []
    for t in range(1, k + 1):
        cand_all = np.nonzero(available)[0]
        norms = np.linalg.norm(R[:, cand_all], axis=0)
        keep = norms > FS_COLLINEAR_TOL * X.stack.col_norms[0][cand_all]
        cand = cand_all[keep]
        if cand.size == 0:
            raise AllCandidatesCollinear(
                f"step {t}: every remaining candidate is numerically in the span "
                f"of the {len(order)} selected columns"
            )
        signed = (R[:, cand].T @ y_res) / norms[keep]
        noisy = np.abs(signed + child(rng, t).laplace(scale, cand.shape[0]))
        i_t = int(cand[int(np.argmax(noisy))])
        q = R[:, i_t] / np.linalg.norm(R[:, i_t])
        R -= np.outer(q, np.einsum("i,ij->j", q, R))
        y_res -= q * float(q @ y_res)
        available[i_t] = False
        order.append(i_t)
    return SelectionResult(ModelSet.from_unordered(order), None, (),
                           certify_budgets(k, eta_step, delta))


def lasso_noisy(X: DesignMatrix, y, c1: float, delta: float, eta_step: float,
                sigma: float, rng: RngStream, steps: int | None) -> SelectionResult:
    """Noisy Frank-Wolfe over the l1 ball of radius c1: every step perturbs
    all 2d vertex scores with fresh Laplace draws before the argmin."""
    y = as_response(y, X.n)
    if steps is None:
        steps = int(_lasso_steps(SelectorSpec(method="lasso", c1=c1), X.stack, 0, c1, eta_step,
                                 sigma))
    scale = scale_lasso(X.stack, 0, None, c1, sigma, delta, eta_step)
    n, d = X.n, X.d
    A = X.entries
    theta = np.zeros(d)
    z = np.zeros(n)
    for t in range(1, steps + 1):
        g = (-2.0 / n) * (A.T @ (y - z))
        noisy = np.concatenate((c1 * g, -c1 * g)) + child(rng, t).laplace(scale, 2 * d)
        v = int(np.argmin(noisy))
        col, sgn = (v, 1.0) if v < d else (v - d, -1.0)
        step_size = 2.0 / (t + 1.0)
        theta *= 1.0 - step_size
        theta[col] += step_size * sgn * c1
        z *= 1.0 - step_size
        z += (step_size * sgn * c1) * A[:, col]
    return SelectionResult(support(theta), theta, (), certify_budgets(steps, eta_step, delta),
                           c1=c1)


def select_noisy(spec, X: DesignMatrix, y, eta_step: float | None, delta: float,
                 sigma: float, rng: RngStream) -> SelectionResult:
    """The per-run selection dispatch over the scalar selectors."""
    zero = (StabilityBudget(0.0, 0.0, 0.0),)
    if spec.method == "fixed":
        return SelectionResult(ModelSet.from_unordered(spec.fixed_model), None, (), zero)
    if eta_step is None or eta_step <= 0:
        raise ValueError(f"selector {spec.method!r} needs a positive eta_step")
    if spec.method == "screen":
        return screening_noisy(X, y, spec.k, delta, eta_step, sigma, rng)
    if spec.method == "fs":
        return fs_noisy(X, y, spec.k, delta, eta_step, sigma, rng)
    # looked up in experiments, so a test's stand-in reaches the oracle too
    c1 = spec.c1 if spec.lam is None else float(alone(experiments.lambda_to_c1, X, y, spec.lam))
    if c1 == 0.0:
        return SelectionResult(ModelSet(), np.zeros(X.d), (), zero, c1=0.0)
    return lasso_noisy(X, y, c1, delta, eta_step, sigma, rng, spec.steps)


def score_model(cfg, X: DesignMatrix, y: np.ndarray, mu: np.ndarray, beta: np.ndarray,
                sel: SelectionResult, trial_index: int) -> TrialRecord:
    """One run's intervals and metrics, scored alone: the model's rank (its
    own SubmodelFit), the level, the sigma estimate in an estimated-sigma
    config, then K, without going through the library's inference."""
    fit = SubmodelFit(X, sel.model)
    aligned, level = interval_level(sel.budgets, cfg.alpha, cfg.alpha_weights)
    if len(sel.model) == 0:
        K, chosen, se = 0.0, aligned[0], np.zeros(0)
    else:
        sigma, dof = (cfg.sigma, None) if cfg.sigma_mode == "known" else sigma_hat(X, y)
        K, chosen = best_posi_constant(len(sel.model), level, aligned, dof)
        se = fit.stderrs(sigma)
    est = fit.coefficients(y)
    lower, upper = est - K * se, est + K * se
    risk = None
    lam = cfg.selector.lam
    if sel.theta is not None and lam is not None:
        resid = y - X.entries @ sel.theta
        risk = (0.5 * float(resid @ resid) + lam * float(np.abs(sel.theta).sum())) / X.n
    fdr = sum(1 for j in sel.model if beta[j] == 0.0) / max(len(sel.model), 1)
    targets = fit.coefficients(mu)
    covered = bool(np.all((lower <= targets) & (targets <= upper)))
    return TrialRecord(trial_index=trial_index, model=sel.model, covered=covered,
                       widths=upper - lower, fdr=fdr, risk=risk, K=K, budget_used=chosen)


# ---------------------------------------------------------------------------
# eta-major sweep


def eta_major_sweep(cfg) -> list:
    """(eta, records) rows of an eta-major sweep over cfg.eta_grid: every
    (eta, trial) run from scratch through the scalar selectors and
    score_model, regenerating the trial's data, resolving a `lam` radius,
    estimating sigma in score_model and drawing from fresh selector
    streams. The library's block engine must give the same records, field
    for field."""
    return [(eta, [_fresh_trial(cfg, t, eta) for t in range(cfg.trials)])
            for eta in cfg.eta_grid]


def _fresh_trial(cfg, trial_index: int, eta_step):
    X, beta, mu, y = one_trial(cfg, trial_index)
    delta_sel = slack_allowance(cfg.alpha, cfg.alpha_weights) / 2.0
    rng = child(RngStream(cfg.master_seed), experiments._PATH_TRIAL_SELECTOR, trial_index)
    try:
        sel = select_noisy(cfg.selector, X, y, eta_step, delta_sel, cfg.sigma, rng)
        return score_model(cfg, X, y, mu, beta, sel, trial_index)
    except (RankDeficient, AllCandidatesCollinear, NonConvergence, DegenerateLevel) as e:
        reason = re.sub(r"(?<!^)(?=[A-Z])", "_", type(e).__name__).lower()
        return TrialRecord(trial_index=trial_index, model=ModelSet(), covered=False,
                           widths=np.zeros(0), fdr=0.0, risk=None, K=0.0,
                           budget_used=StabilityBudget(0.0, 0.0, 0.0),
                           flagged=f"{reason}: {e}")


# ---------------------------------------------------------------------------
# records as rows and as columns


def records_rows(eta: float, records) -> list[list[str]]:
    """records.csv rows of one eta's records, each field formatted alone."""
    rows = []
    for r in records:
        rows.append([
            repr(eta), str(r.trial_index), r.flagged or "",
            str(len(r.model)), "|".join(str(j) for j in r.model),
            "1" if r.covered else "0", repr(r.fdr),
            "" if r.risk is None else repr(r.risk), repr(r.K),
            repr(r.budget_used.eta), repr(r.budget_used.tau), repr(r.budget_used.nu),
            "|".join(repr(float(w)) for w in r.widths),
        ])
    return rows


def columns(records) -> Runs:
    """records, each with one width per model column, as Runs with one
    certificate row per record."""
    assert all(len(r.widths) == len(r.model) for r in records)
    return Runs(trial=np.array([r.trial_index for r in records], dtype=np.uint64),
                offsets=np.cumsum([0] + [len(r.model) for r in records], dtype=np.int64),
                cols=np.array([j for r in records for j in r.model], dtype=np.int64),
                widths=np.concatenate([np.zeros(0)] + [r.widths for r in records]),
                covered=np.array([r.covered for r in records], dtype=bool),
                fdr=np.array([r.fdr for r in records], dtype=np.float64),
                risk=np.array([math.nan if r.risk is None else r.risk for r in records],
                              dtype=np.float64),
                K=np.array([r.K for r in records], dtype=np.float64),
                cert=np.arange(len(records), dtype=np.int64),
                certs=np.array([(r.budget_used.eta, r.budget_used.tau, r.budget_used.nu)
                                for r in records], dtype=np.float64).reshape(-1, 3),
                flagged={i: r.flagged for i, r in enumerate(records) if r.flagged is not None})
