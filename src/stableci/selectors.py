"""Stability-randomized model selectors, run on a leading axis of runs.

Three noisy procedures, one implementation each. Each runs a block of
*runs* at once: run r selects on the design of trial trial[r], one of a
linmodel.DesignStack (a DesignMatrix's stack of one in a one-run call),
with its own Laplace scale scales[r], and every array carries the run
axis first. `select_runs` is the one selector dispatch, called by
`select` (experiments.run_selector), the sweep and `stable_screening`,
`stable_fs` and `stable_lasso`. It returns arrays over the runs (support
masks, LASSO iterates, certificate indices); only a one-run call
(`_one_run`) builds a SelectionResult, with the per-step decision trace.
There are no separate exact variants: a noise scale of 0 (the
`scale_override` test hook) is the exact algorithm, tie rule included,
because the zero-scale Laplace draws are +-0.0 and move no argmin or
argmax.

- LASSO over the l1 ball of radius C1, optimized by Frank-Wolfe, with
  every vertex score perturbed by fresh Laplace noise before the argmin.
  Each run stops at its own step count.
- Marginal screening: k rounds of noisy argmax over |X_i^T y / n|, each
  winner removed from the run's candidate mask.
- Forward stepwise: k rounds of noisy argmax over residual-normalized
  absolute correlations, with numerically collinear candidates excluded
  before noise: a run's candidates are a mask over all d columns. A run
  left without candidates fails alone.

Noise: each round is a report-noisy-max (or -min) over a run's
candidates, its draws laid out by `_StepDraws`: one stream per (trial,
step), whatever the block, and a run's i-th candidate takes draw i of
its trial's row. A Laplace draw is its scale times a standard draw made
from one uniform, so every run sees exactly the draws a fresh RngStream
at its path gives. Every product (scores, norms, updates) is a separate
BLAS call, einsum or elementwise operation on one run's or one forward
stepwise state's own slice of a stacked array, so a run's result does
not depend on the block it ran in.

Every noisy run gets stability.certify_budgets' two composed certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesCollinear, DimensionMismatch, NonConvergence, check_number
from .linmodel import DesignMatrix, DesignStack, ModelSet, as_response
from .noise import (NoisePolicy, RngStream, _lasso_scales, keyed, laplace_of_uniform,
                    scale_forward_stepwise, scale_screening)
from .stability import ZERO_BUDGET, StabilityBudget, certify_budgets

SUPPORT_THRESHOLD = 1e-12
FS_COLLINEAR_TOL = 1e-10
MAX_DEFAULT_FW_STEPS = 10_000
GRAM_BLOCK = 16

# the knobs each method reads; SelectorSpec rejects the others
_METHOD_KNOBS = {"fixed": ("fixed_model",), "screen": ("k",), "fs": ("k",),
                 "lasso": ("c1", "lam", "steps")}


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


@dataclass  # not frozen: a container of arrays, built on every call
class RunSelections:
    """What a block of runs selected: run r's model as a mask support[r]
    over the d columns, its LASSO iterate theta[r] (theta is None for the
    other methods) and its certificates certs[cert[r]], set by select_runs;
    failed maps a run that stopped early to its error (its support row is
    empty), and trace is the decision trace of a one-run block, if kept."""

    support: np.ndarray
    theta: np.ndarray | None
    failed: dict[int, Exception]
    trace: tuple[TraceStep, ...] = ()
    certs: tuple[tuple[StabilityBudget, ...], ...] = ()
    cert: np.ndarray | None = None


@dataclass(frozen=True)
class SelectorSpec:
    """Which selector to run and its non-noise parameters, shared by `select`
    and the experiment runner. Each field's JSON type and range is checked,
    and a knob the method does not read is rejected, not ignored."""

    method: str  # "fixed" | "screen" | "fs" | "lasso"
    k: int | None = None
    c1: float | None = None
    lam: float | None = None
    steps: int | None = None
    fixed_model: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in _METHOD_KNOBS:
            raise ValueError(f"unknown selector method {self.method!r}")
        for name, integer in (("k", True), ("c1", False), ("lam", False), ("steps", True)):
            value = getattr(self, name)
            if value is not None:
                check_number(name, value, integer)
                if not (0 < value < math.inf):
                    want = ">= 1" if integer else "finite and positive"
                    raise ValueError(f"{name} must be {want}, got {value}")
        if not isinstance(self.fixed_model, (list, tuple)):
            raise ValueError(f"fixed_model must be a list, got {self.fixed_model!r}")
        for j in self.fixed_model:
            check_number("fixed_model index", j, integer=True)
            if j < 0:
                raise ValueError(f"fixed_model index {j} is negative")
        object.__setattr__(self, "fixed_model", tuple(self.fixed_model))
        for knob in ("k", "c1", "lam", "steps", "fixed_model"):
            if knob not in _METHOD_KNOBS[self.method] and getattr(self, knob) not in (None, ()):
                raise ValueError(f"method {self.method!r} does not use {knob}; remove it")
        if self.method in ("screen", "fs") and self.k is None:
            raise ValueError(f"method {self.method!r} needs k >= 1")
        if self.method == "lasso" and (self.c1 is None) == (self.lam is None):
            raise ValueError("lasso needs exactly one of c1 or lam")
        if self.method == "fixed" and len(self.fixed_model) == 0:
            raise ValueError("fixed method needs a nonempty fixed_model")


# the spec of a one-run call, validated once per distinct set of knobs
# (typed, so that k=3.0 or k=True is not served the spec of k=3 or k=1)
_spec = functools.lru_cache(maxsize=256, typed=True)(SelectorSpec)


# ---------------------------------------------------------------------------
# run-axis plumbing


class _StepDraws:
    """Standard Laplace draws, step by step, for a block of runs: run r
    draws for rounds[r] steps. Called with a step, the trials of the runs
    drawing at it and width, the selector's candidate count at that step
    (d - t + 1 at step t for screening and forward stepwise, 2d for LASSO),
    it returns run r's row: the first width draws of stream (master_seed,
    paths[trial[r]] + (step,)). Each step draws every trial with a run
    still going into one table of uniforms, moving noise.keyed from stream
    to stream, and the Laplace transform runs once over the table."""

    def __init__(self, master_seed: int, paths: list[tuple[int, ...]], trial: np.ndarray,
                 rounds):
        self.master_seed, self.paths = master_seed, paths
        self.last = np.zeros(len(paths), dtype=np.int64)
        np.maximum.at(self.last, trial, rounds)

    def __call__(self, step: int, trial: np.ndarray, width: int) -> np.ndarray:
        u = np.zeros((len(self.paths), width))  # the rows of other trials are not read
        for b in (self.last >= step).nonzero()[0].tolist():
            keyed.start(self.master_seed, self.paths[b] + (step,)).random(out=u[b])
        return laplace_of_uniform(u)[trial]


def _noisy_argmax(t: int, exact: np.ndarray, live: np.ndarray, kept: np.ndarray,
                  xi: np.ndarray, traced: list[TraceStep] | None) -> np.ndarray:
    """Round t's noisy pick per run: draw i of run r's noise row xi[r] goes
    to its i-th live column (kept[r] of them), and the largest
    |exact + draw| wins, ties to the lowest column; a dead column never
    wins. Appends run 0's TraceStep to traced unless it is None."""
    if min(kept.tolist()) == exact.shape[1]:
        noisy = np.abs(exact + xi)  # every column live: draw i is column i's
    else:
        noisy = exact.copy()
        noisy[live] += xi[np.arange(xi.shape[1]) < kept[:, None]]
        noisy = np.where(live, np.abs(noisy), -1.0)  # a dead column is below every |score|
    chosen = noisy.argmax(axis=1)
    if traced is not None:
        j, score = int(chosen[0]), np.abs(exact[0])
        traced.append(TraceStep(step=t, chosen=j, exact_score=float(score[j]),
                                noisy_score=float(noisy[0, j]),
                                best_exact=float(score[live[0]].max())))
    return chosen


_VERTEX_SIGNS = np.array([1.0, -1.0])  # of the +c1 and the -c1 vertices


# ---------------------------------------------------------------------------
# LASSO via Frank-Wolfe


@np.errstate(over="ignore", invalid="ignore")  # fmin caps inf, and the NaN of c1 = 0
def _default_fw_steps(X: DesignStack, trial, c1, eta_step, sigma: float) -> np.ndarray:
    """The utility-optimal step counts
    ceil(n ||X||_inf^2 c1 eta / (sigma ||X||_{2,inf})), capped, run r's on
    X[trial[r]] at c1[r] and eta_step[r] (broadcast). Capping before the
    ceil also caps a raw count that overflows to inf."""
    raw = X.n * X.linf[trial] ** 2 * c1 * eta_step / (sigma * X.l2inf[trial])
    return np.maximum(1, np.ceil(np.fmin(raw, MAX_DEFAULT_FW_STEPS))).astype(np.int64)


def lasso_runs(X: DesignStack, Y: np.ndarray, c1: np.ndarray, steps: np.ndarray,
               trial: np.ndarray, scales: np.ndarray, master_seed: int,
               paths: list[tuple[int, ...]], trace: bool = False) -> RunSelections:
    """Noisy Frank-Wolfe LASSO for a block of runs: run r minimizes
    ||Y[b] - X_b theta||^2 / n over the l1 ball of radius c1[r] on trial
    b = trial[r] (X_b = X[b]) for steps[r] steps, perturbing all 2d vertex
    scores of each step with Laplace draws at scales[r] before the argmin.

    Vertex order is +c1*e_0 .. +c1*e_{d-1}, -c1*e_0 .. -c1*e_{d-1}; the
    per-step noise vector is drawn in that order from the step's child
    stream. Step size 2/(t+1), t = 1..steps, theta_1 = 0. Runs are kept
    longest first, so the runs still going at step t are a prefix; a run
    of 0 steps draws nothing. The support, |theta_j| > SUPPORT_THRESHOLD,
    is post-processing that inherits theta's stability budget.
    """
    runs = len(trial)
    order = np.argsort(-steps, kind="stable") if runs > 1 else None
    if order is not None:
        trial, c1, steps, scales = trial[order], c1[order], steps[order], scales[order]
    n, d = X.n, X.d
    # one run reads its design in place; a block gathers one copy per run
    A = X.entries[trial[0]][None] if runs == 1 else X.entries[trial]
    AT = A.transpose(0, 2, 1)
    Yr = Y[trial]
    theta = np.zeros((runs, d))
    z = np.zeros((runs, n))  # X @ theta, updated incrementally
    ends = steps.tolist()
    draws = _StepDraws(master_seed, paths, trial, steps)
    live = 0
    traced = []
    for t in range(1, ends[0] + 1):
        if not live or ends[live - 1] < t:
            # the runs still going: a prefix, as the longest runs come first
            live = sum(1 for end in ends if end >= t)
            at, Yl, zl, Al, ATl = np.arange(live), Yr[:live], z[:live], A[:live], AT[:live]
            c1l, scale_col, triall = c1[:live], scales[:live, None], trial[:live]
            theta_flat, row_d = theta[:live].reshape(-1), at * d
            exact = np.empty((live, 2 * d))
            plus, minus = exact[:, :d], exact[:, d:]
        r = Yl - zl
        # scores are vertex . gradient for the loss ||y - X theta||^2 / n,
        # whose gradient is -(2/n) X^T r; scale_lasso is calibrated to
        # exactly that score sensitivity, so the 2/n is load-bearing
        g = (-2.0 / n) * np.matmul(ATl, r[:, :, None])[:, :, 0]
        np.multiply(c1l[:, None], g, out=plus)
        np.negative(plus, out=minus)  # -(c1 * g) is -c1 * g exactly
        noisy = exact + scale_col * draws(t, triall, 2 * d)
        v = noisy.argmin(axis=1)
        minus_vertex, col = np.divmod(v, d)
        step_size = 2.0 / (t + 1.0)
        coef = step_size * _VERTEX_SIGNS[minus_vertex] * c1l
        theta_flat *= 1.0 - step_size
        theta_flat[row_d + col] += coef
        zl *= 1.0 - step_size
        zl += coef[:, None] * Al[at, :, col]
        if trace:
            rr = Yl[0] - zl[0]
            v0 = int(v[0])
            traced.append(TraceStep(step=t, chosen=v0, exact_score=float(exact[0, v0]),
                                    noisy_score=float(noisy[0, v0]), best_exact=float(exact.min()),
                                    objective=float(rr @ rr) / n))
    if order is not None:
        theta[order] = theta.copy()
    return RunSelections(np.abs(theta) > SUPPORT_THRESHOLD, theta, {}, tuple(traced))


def stable_lasso(X: DesignMatrix, y, c1: float, delta: float, eta_step: float,
                 sigma: float, *,
                 rng: RngStream, steps: int | None = None,
                 scale_override: float | None = None) -> SelectionResult:
    """Noisy Frank-Wolfe LASSO over the l1 ball of radius c1 (one run of
    select_runs, with its trace): every step perturbs all 2d vertex scores
    with independent Laplace draws at scale_lasso, then takes the argmin.
    steps defaults to the utility-optimal count for this design and
    eta_step.

    scale_override is a test hook; 0 gives the exact algorithm.
    """
    return _one_run(_spec(method="lasso", c1=c1, steps=steps), X, y, eta_step, c1,
                    delta, sigma, rng, scale_override)


# ---------------------------------------------------------------------------
# penalized-form solver (the lambda -> c1 translation)


def _soft_threshold(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def solve_penalized_lasso(X: DesignStack, y, lam: float, gap_tol: float = 1e-8,
                          max_sweeps: int = 100_000) -> np.ndarray:
    """Cyclic coordinate descent with soft-thresholding for
    min 0.5 ||y - X theta||^2 + lam ||theta||_1 on the design of the stack
    of one X, run until the duality gap drops below gap_tol.

    Covariance updates (Friedman, Hastie & Tibshirani, JSS 2010, sec. 2.2):
    the loop keeps z_j = X_j^T r + ||X_j||^2 theta_j for the residual
    r = y - X theta, so coordinate j's update reads z_j alone. When theta_j
    moves, z changes by the off-diagonal Gram column X^T X_j times the
    move; that column is made the first time j moves and kept for the
    call. With more columns than rows (d > n), only the columns of
    coordinates that move are made, so memory stays bounded. Otherwise all
    d columns together are no bigger than X, and a missing column is made
    together with the missing ones among the next GRAM_BLOCK - 1
    coordinates, in one pass over X instead of one pass each. After each
    sweep the duality gap is checked on the recomputed residual, and z is
    rebuilt from that check's X^T r, so rounding does not build up across
    sweeps.
    """
    if not (0 < lam < math.inf):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not gap_tol >= 0:  # a NaN gap_tol fails too
        raise ValueError(f"gap_tol must be >= 0, got {gap_tol}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    A, (n, d) = X.entries[0], X.entries.shape[1:]
    y = as_response(y, n)
    col_sq = X.col_norms[0] ** 2
    # the coordinate loop reads and writes Python floats: indexing numpy
    # arrays per coordinate costs more than the arithmetic at small d
    norm_sq = col_sq.tolist()
    coords = [0.0] * d
    z = A.T @ y
    gram: list[np.ndarray | None] = [None] * d
    block = GRAM_BLOCK if d <= n else 1
    yy = 0.5 * float(y @ y)
    for _ in range(max_sweeps):
        for j in range(d):
            if norm_sq[j] == 0.0:
                continue
            new = _soft_threshold(z.item(j), lam) / norm_sq[j]
            if new != coords[j]:
                g = gram[j]
                if g is None:
                    made = [k for k in range(j, min(j + block, d)) if gram[k] is None]
                    rows = A[:, made].T @ A
                    for i, k in enumerate(made):
                        rows[i, k] = 0.0
                        gram[k] = rows[i]
                    g = gram[j]
                z -= g * (new - coords[j])
                coords[j] = new
        theta = np.array(coords)
        r = y - A @ theta
        xr = A.T @ r
        # duality gap: scaled residual is dual-feasible
        s = max(1.0, float(np.abs(xr).max()) / lam)
        y_u = y - r / s
        primal = 0.5 * float(r @ r) + lam * float(np.abs(theta).sum())
        dual = yy - 0.5 * float(y_u @ y_u)
        if primal - dual <= gap_tol:
            return theta
        z = xr + col_sq * theta
    raise NonConvergence(
        f"coordinate descent did not reach gap {gap_tol} in {max_sweeps} sweeps"
    )


def lambda_to_c1(X: DesignStack, y, lam: float) -> float:
    """l1 norm of the penalized-form solution at penalty lam on the design
    of the stack of one X; translates a penalty magnitude into a constraint
    radius for the constrained form."""
    theta = solve_penalized_lasso(X, y, lam)
    return float(np.abs(theta).sum())


# ---------------------------------------------------------------------------
# marginal screening


def screen_runs(X: DesignStack, Y: np.ndarray, k: int, trial: np.ndarray, scales: np.ndarray,
                master_seed: int, paths: list[tuple[int, ...]],
                trace: bool = False) -> RunSelections:
    """k rounds of noisy argmax over |c_i + xi| per run, with
    c = X_b^T Y[b] / n for its trial b = trial[r]; a run's candidates are
    a mask over the d columns, the winner leaves it, noise is fresh each
    round."""
    d = X.d
    runs = len(trial)
    at = np.arange(runs)
    draws = _StepDraws(master_seed, paths, trial, k)
    c = (np.matmul(X.entries.transpose(0, 2, 1), Y[:, :, None])[:, :, 0] / X.n)[trial]
    picked = np.zeros((runs, d), dtype=bool)
    kept = np.full(runs, d)
    scale_col = scales[:, None]
    traced: list[TraceStep] = []
    for t in range(1, k + 1):
        xi = scale_col * draws(t, trial, d - t + 1)
        chosen = _noisy_argmax(t, c, ~picked, kept, xi, traced if trace else None)
        picked[at, chosen] = True
        kept -= 1
    return RunSelections(picked, None, {}, tuple(traced))


def stable_screening(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
                     sigma: float, *,
                     rng: RngStream, scale_override: float | None = None,
                     ) -> SelectionResult:
    """k rounds of noisy argmax over |c_i + xi| with c = X^T y / n (one run
    of select_runs, with its trace)."""
    return _one_run(_spec(method="screen", k=k), X, y, eta_step, None, delta, sigma,
                    rng, scale_override)


# ---------------------------------------------------------------------------
# forward stepwise


def fs_runs(X: DesignStack, Y: np.ndarray, k: int, trial: np.ndarray, scales: np.ndarray,
            master_seed: int, paths: list[tuple[int, ...]],
            trace: bool = False) -> RunSelections:
    """k rounds of noisy argmax over residual-normalized correlations per
    run, with the columns of its trial's design residualized incrementally
    against the selected ones. A run's candidates are a mask over all d
    columns: those not yet picked whose residual norm is above
    FS_COLLINEAR_TOL times their own norm. A run left without candidates
    fails with AllCandidatesCollinear and leaves the block; the others go
    on.

    The residuals are kept per *state*, a distinct (trial, ordered picks
    so far), and each run holds the index of its state: the runs of one
    trial at different scales share a state until their picks diverge.
    Each step scores every column of every state with one einsum over the
    stacked residuals, `_noisy_argmax` picks per run among its state's
    live columns with the run's own draws and scale, and the distinct
    (state, pick) pairs become the next states, each residualized from a
    copy of its parent row. The last pick residualizes nothing. A one-run
    block's state is its run, and it makes no np.unique or gather.
    """
    d = X.d
    runs = len(trial)
    state = None  # each run's state row; None in a one-run block
    first = trial  # the trial of each state row
    if runs > 1:
        first, state = np.unique(trial, return_inverse=True)
    R = X.entries[first]  # residualized columns of each state's design, a copy
    y_res = Y[first]  # a copy
    floor = FS_COLLINEAR_TOL * X.col_norms[first]
    picked = np.zeros((len(first), d), dtype=bool)
    ids = np.arange(runs)  # block run of each run still going
    draws = _StepDraws(master_seed, paths, trial, k)
    failed: dict[int, Exception] = {}
    traced: list[TraceStep] = []
    for t in range(1, k + 1):
        # einsum sums each column in row order wherever it sits, so copies
        # of a column tie exactly; a gemv rounds its tail columns differently
        norms = np.sqrt(np.einsum("rij,rij->rj", R, R))
        live = (norms > floor) & ~picked
        kept = live.sum(axis=1)
        if not kept.all():
            go = kept > 0
            run_go = go if state is None else go[state]
            for r in ids[~run_go].tolist():
                failed[r] = AllCandidatesCollinear(
                    f"step {t}: every remaining candidate is numerically in the span "
                    f"of the {t - 1} selected columns")
            R, y_res, floor, picked = R[go], y_res[go], floor[go], picked[go]
            norms, live, kept, ids = norms[go], live[go], kept[go], ids[run_go]
            if state is not None:
                state = (np.cumsum(go) - 1)[state[run_go]]
            if not len(ids):
                break
        xi = scales[ids, None] * draws(t, trial[ids], d - t + 1)
        signed = np.divide(np.einsum("rij,ri->rj", R, y_res), norms,
                           out=np.zeros_like(norms), where=live)
        if state is not None:
            signed, live, kept = signed[state], live[state], kept[state]
        chosen = _noisy_argmax(t, signed, live, kept, xi, traced if trace else None)
        if t == k:
            break
        if state is not None:  # the next states: the distinct (state, chosen) pairs
            pairs, state = np.unique(state * d + chosen, return_inverse=True)
            parent, chosen = np.divmod(pairs, d)
            R, y_res, floor, picked = R[parent], y_res[parent], floor[parent], picked[parent]
        at = np.arange(len(R))
        picked[at, chosen] = True
        # fold the winner into the basis; residualize everything once, with
        # an einsum for q . R, so that copies of a column stay equal; the
        # outer-product einsum rounds each product once, as a broadcast
        # multiply would, in fewer and longer inner loops
        w = R[at, :, chosen]
        q = w / np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0])
        R -= np.einsum("ri,rj->rij", q, np.einsum("ri,rij->rj", q, R))
        y_res -= q * np.matmul(q[:, None, :], y_res[:, :, None])[:, 0]
    support = np.zeros((runs, d), dtype=bool)
    if len(ids):  # the rows of the runs that did not fail, with their last pick
        support[ids] = picked if state is None else picked[state]
        support[ids, chosen] = True
    return RunSelections(support, None, failed, tuple(traced))


def stable_fs(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
              sigma: float, *,
              rng: RngStream, scale_override: float | None = None,
              ) -> SelectionResult:
    """Noisy forward stepwise (one run of select_runs, with its trace);
    raises AllCandidatesCollinear when the candidates run out. The
    per-round scale is calibrated over ordered candidate sequences, so it
    uses the descending factorial (d)_k and no 1/n factor."""
    return _one_run(_spec(method="fs", k=k), X, y, eta_step, None, delta, sigma, rng,
                    scale_override)


# ---------------------------------------------------------------------------
# the one selection dispatch


def select_runs(spec: SelectorSpec, X: DesignStack, Y: np.ndarray, trial: np.ndarray,
                eta_step: np.ndarray, c1: np.ndarray | None, delta: float, sigma: float,
                master_seed: int, paths: list[tuple[int, ...]], *, trace: bool = False,
                scale_override: float | None = None) -> RunSelections:
    """spec's selector for a block of runs: run r selects on X[trial[r]]
    and the finite response Y[trial[r]], from stream (master_seed,
    paths[trial[r]]), at per-step eta_step[r], slack delta, noise scale
    sigma and LASSO radius c1[r] (c1 is None for the other methods).
    Returns the block's RunSelections, whose failed maps a forward stepwise
    run left without candidates to its AllCandidatesCollinear.

    A fixed model, and a zero radius, carry the one zero certificate; the
    other runs go through one screen_runs, fs_runs or lasso_runs call, with
    each distinct eta_step checked once (NoisePolicy), the Laplace scales
    and default LASSO steps one array expression over the runs, and one
    certify_budgets entry in certs per distinct (rounds, eta_step). trace
    keeps the decision trace of a one-run block; scale_override, a test
    hook, replaces every run's Laplace scale (0 gives the exact algorithm).
    """
    d, runs = X.d, len(trial)
    if spec.method == "fixed" or not runs:  # no noise to draw
        if spec.fixed_model and max(spec.fixed_model) >= d:
            raise DimensionMismatch(f"fixed_model index {max(spec.fixed_model)} out of range "
                                    f"for d={d}")
        support = np.zeros((runs, d), dtype=bool)
        support[:, list(spec.fixed_model)] = True
        return RunSelections(support, None, {}, certs=((ZERO_BUDGET,),),
                             cert=np.zeros(runs, dtype=np.int64))
    etas = eta_step.tolist()
    if any(eta is None or eta <= 0 for eta in set(etas)):
        raise ValueError(f"selector {spec.method!r} needs a positive eta_step")
    policies = {eta: NoisePolicy(sigma, delta, eta) for eta in set(etas)}
    if scale_override is not None and not (0 <= scale_override < math.inf):
        raise ValueError(f"scale_override must be finite and >= 0, got {scale_override}")
    if trace and runs != 1:
        raise ValueError(f"a trace is kept for a one-run block only, not {runs} runs")
    if spec.k is not None and spec.k > d:
        raise ValueError(f"need 1 <= k <= d, got k={spec.k}, d={d}")
    rounds = [spec.k] * runs
    if spec.method == "screen":
        scales = scale_screening(X, trial, sigma, delta, eta_step)
    elif spec.method == "fs":
        per_eta = {e: scale_forward_stepwise(d, spec.k, policy) for e, policy in policies.items()}
        scales = np.array([per_eta[e] for e in etas])
    else:  # a radius of 0 admits only theta = 0: no step, nothing to randomize
        steps = (c1 > 0) * (spec.steps or _default_fw_steps(X, trial, c1, eta_step, sigma))
        scales, rounds = _lasso_scales(c1, X, trial, sigma, delta, eta_step), steps.tolist()
    # certified before the kernel runs, so a certificate that overflows
    # fails the block without its selection work
    table: dict = {}  # (rounds, eta_step) -> certificate index; None for no round
    cert = np.array([table.setdefault((k, e) if k else None, len(table))
                     for k, e in zip(rounds, etas)], dtype=np.int64)
    certs = tuple((ZERO_BUDGET,) if key is None else certify_budgets(*key, delta)
                  for key in table)
    if scale_override is not None:
        scales = np.full(runs, scale_override)
    if spec.method == "lasso":
        block = lasso_runs(X, Y, c1, steps, trial, scales, master_seed, paths, trace)
    else:
        kernel = screen_runs if spec.method == "screen" else fs_runs
        block = kernel(X, Y, spec.k, trial, scales, master_seed, paths, trace)
    block.cert, block.certs = cert, certs
    return block


_ONE_RUN = np.zeros(1, dtype=np.int64)  # the trial of a one-run block's run
_ONE_RUN.setflags(write=False)


def _one_run(spec: SelectorSpec, X: DesignMatrix, y, eta_step: float | None,
             c1: float | None, delta: float, sigma: float, rng: RngStream,
             scale_override: float | None = None) -> SelectionResult:
    """One run of select_runs on the response y, validated here, with its
    trace, as a SelectionResult; a failed run raises its error."""
    block = select_runs(spec, X.stack, as_response(y, X.n)[None], _ONE_RUN,
                        np.array([eta_step]), None if c1 is None else np.array([c1]), delta,
                        sigma, rng.master_seed, [rng.path], trace=True,
                        scale_override=scale_override)
    if block.failed:
        raise block.failed[0]
    return SelectionResult(ModelSet(tuple(block.support[0].nonzero()[0].tolist())),
                           None if block.theta is None else block.theta[0], block.trace,
                           block.certs[block.cert[0]], c1=c1)
