"""Exact selectors and the eta-major sweep, kept as test oracles.

The library ships only the noisy selectors; their exact forms are the
zero-noise limits (`scale_override=0.0`). These plain noiseless loops are
written out separately so the tests can check that limit, tie rule
included, without going through the library's loops. The eta-major sweep
reruns every (eta, trial) from scratch, the reference for the library's
trial-major engine.
"""

import re

import numpy as np

from stableci import experiments
from stableci.errors import AllCandidatesCollinear, DegenerateLevel, NonConvergence, \
    RankDeficient
from stableci.experiments import TrialRecord, gen_synthetic, run_selector
from stableci.linmodel import DesignMatrix, ModelSet, as_response
from stableci.noise import RngStream
from stableci.selectors import FS_COLLINEAR_TOL
from stableci.stability import StabilityBudget, alpha_split


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
        keep = norms > FS_COLLINEAR_TOL * X.col_norms[cand_all]
        cand = cand_all[keep]
        if cand.size == 0:
            raise AllCandidatesCollinear(f"step {t}: no independent candidate")
        scores = np.abs((R[:, cand].T @ y_res) / norms[keep])
        i_t = int(cand[int(np.argmax(scores))])
        q = R[:, i_t] / np.linalg.norm(R[:, i_t])
        R -= np.outer(q, q @ R)
        y_res -= q * float(q @ y_res)
        available[i_t] = False
        chosen.append(i_t)
    return ModelSet.from_unordered(chosen)


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


def eta_major_sweep(cfg, eta_grid) -> list:
    """(eta, records) rows of an eta-major sweep: every (eta, trial) run
    from scratch, regenerating the trial's data, resolving a `lam` radius,
    estimating sigma inside `infer` and drawing from fresh selector
    streams. The library's trial-major engine must give the same records,
    field for field."""
    return [(eta, [_fresh_trial(cfg, t, eta) for t in range(cfg.trials)]) for eta in eta_grid]


def _fresh_trial(cfg, trial_index: int, eta_step):
    X, beta, mu, y = gen_synthetic(cfg, trial_index)
    alloc = alpha_split(cfg.alpha, cfg.alpha_weights)
    delta_sel = (alloc.tau + alloc.nu) / 2.0
    rng = RngStream(cfg.master_seed).child(experiments._PATH_TRIAL_SELECTOR, trial_index)
    try:
        sel = run_selector(cfg.selector, X, y, eta_step, delta_sel, cfg.sigma, rng)
        return experiments._score_model(cfg, X, y, mu, beta, sel, trial_index)
    except (RankDeficient, AllCandidatesCollinear, NonConvergence, DegenerateLevel) as e:
        reason = re.sub(r"(?<!^)(?=[A-Z])", "_", type(e).__name__).lower()
        return TrialRecord(trial_index=trial_index, model=ModelSet(), covered=False,
                           widths=np.zeros(0), fdr=0.0, risk=None, K=0.0,
                           budget_used=StabilityBudget(0.0, 0.0, 0.0),
                           flagged=f"{reason}: {e}")
