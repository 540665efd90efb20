"""Stability-randomized model selectors, run on a leading axis of runs.

Each method is one Mechanism record in MECHANISMS, which holds its
knobs, kernel, round count, Laplace scale and certificate; nothing else
branches on a method name. A noisy kernel runs a block of *runs* at
once: run r selects on the design of trial trial[r], one of a
linmodel.DesignStack (a DesignMatrix's stack of one in a one-run call),
with its own Laplace scale scales[r], and every array carries the run
axis first. `select_runs` is the one selector dispatch, called by
`select` (experiments.run_selector), the sweep and `stable_screening`,
`stable_fs` and `stable_lasso`. It returns arrays over the runs (support
masks, LASSO iterates, certificate indices) and a one-run block's
decision trace; only a one-run call (`_one_run`) builds a SelectionResult.
A run's Laplace scale comes from its Mechanism record alone. There are
no separate exact variants: a record whose scale is 0 is the exact
algorithm, tie rule included, because the zero-scale Laplace draws are
+-0.0 and move no argmin or argmax.

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

Every noisy run gets its Mechanism's certificates; for each method here,
those are stability.certify_budgets' two composed ones.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesCollinear, DimensionMismatch, NonConvergence, check_number
from .linmodel import DesignMatrix, DesignStack, ModelSet, as_response
from .noise import (RngStream, keyed, laplace_of_uniform, scale_forward_stepwise, scale_lasso,
                    scale_screening)
from .stability import ZERO_BUDGET, StabilityBudget, certify_budgets

SUPPORT_THRESHOLD = 1e-12
FS_COLLINEAR_TOL = 1e-10
# the byte budget of one block of fs_runs' residual update: on a
# 20000x300 design (Xeon, one thread), 512 KiB blocks ran the update about
# twice as fast as one block of the whole design
FS_UPDATE_BYTES = 2 ** 19
MAX_DEFAULT_FW_STEPS = 10_000
GRAM_BLOCK = 16
# solve_penalized_lasso sweeps trials as one stack while at least
# CD_STACK_TRIALS are live on designs with d <= n and at most
# CD_STACK_ENTRIES entries: the measured break-even, see its docstring
CD_STACK_TRIALS = 8
CD_STACK_ENTRIES = 20_000
# solve_penalized_lasso's stopping rule: the duality gap to reach, and the
# sweeps a trial gets to reach it
CD_GAP_TOL = 1e-8
CD_MAX_SWEEPS = 100_000


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
    empty), and trace is a one-run block's decision trace (() for more runs)."""

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

    method: str  # a key of MECHANISMS
    k: int | None = None
    c1: float | None = None
    lam: float | None = None
    steps: int | None = None
    fixed_model: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in MECHANISMS:
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
        mech = MECHANISMS[self.method]
        for knob in ("k", "c1", "lam", "steps", "fixed_model"):
            if knob not in mech.knobs and getattr(self, knob) not in (None, ()):
                raise ValueError(f"method {self.method!r} does not use {knob}; remove it")
        given = [knob for knob in mech.needs if getattr(self, knob) not in (None, ())]
        if len(given) != 1:
            raise ValueError(f"method {self.method!r} needs {' or '.join(mech.needs)}"
                             + (", not both" if given else ""))

    def check_d(self, d: int) -> None:
        """ValueError unless the spec fits a design of d columns: k <= d, and
        every fixed_model index below d."""
        if (self.k or 0) > d:
            raise ValueError(f"selector k={self.k} exceeds d={d}")
        if self.fixed_model and max(self.fixed_model) >= d:
            raise ValueError(f"fixed_model index {max(self.fixed_model)} out of range "
                             f"for d={d}")


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


def _lasso_steps(spec: SelectorSpec, X: DesignStack, trial, c1, eta_step,
                 sigma: float) -> np.ndarray:
    """LASSO's round counts: run r's is spec.steps, or the utility-optimal
    ceil(n ||X||_inf^2 c1 eta / (sigma ||X||_{2,inf})), capped, on
    X[trial[r]] at c1[r] and eta_step[r] (broadcast), and 0 at a radius of
    0, which admits only theta = 0. Capping before the ceil also caps a
    raw count that overflows to inf."""
    if spec.steps:
        return (c1 > 0) * spec.steps
    with np.errstate(over="ignore", invalid="ignore"):  # fmin caps inf, and the NaN of c1 = 0
        raw = X.n * X.linf[trial] ** 2 * c1 * eta_step / (sigma * X.l2inf[trial])
    return (c1 > 0) * np.maximum(1, np.ceil(np.fmin(raw, MAX_DEFAULT_FW_STEPS))).astype(np.int64)


def lasso_runs(X: DesignStack, Y: np.ndarray, steps: np.ndarray, trial: np.ndarray,
               scales: np.ndarray, c1: np.ndarray, master_seed: int,
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
                 rng: RngStream, steps: int | None = None) -> SelectionResult:
    """Noisy Frank-Wolfe LASSO over the l1 ball of radius c1 (one run of
    select_runs, with its trace): every step perturbs all 2d vertex scores
    with independent Laplace draws at scale_lasso, then takes the argmin.
    steps defaults to the utility-optimal count for this design and
    eta_step."""
    return _one_run(_spec(method="lasso", c1=c1, steps=steps), X, y, eta_step, c1,
                    delta, sigma, rng)


# ---------------------------------------------------------------------------
# penalized-form solver (the lambda -> c1 translation)


def _soft_threshold(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def solve_penalized_lasso(X: DesignStack, Y, lam: float,
                          ) -> tuple[np.ndarray, dict[int, NonConvergence]]:
    """Cyclic coordinate descent with soft-thresholding for
    min 0.5 ||Y[b] - X_b theta||^2 + lam ||theta||_1 on each design X_b of
    the stack X, each trial run until its duality gap drops below
    CD_GAP_TOL. Returns the solutions, one row per trial, and failed, which
    maps a trial that missed the gap in CD_MAX_SWEEPS sweeps to its
    NonConvergence (its row is NaN).

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

    While at least CD_STACK_TRIALS trials are live on designs with d <= n
    and at most CD_STACK_ENTRIES entries, their sweeps run with the trial
    axis first (_stacked_sweeps). Every other trial, and each straggler
    once fewer remain, continues alone from its own state (z, coordinates
    and Gram columns) in the one-trial loop (_one_trial_sweeps), so a
    stack of one runs that loop alone. Both loops take each product on
    the trial's own slice with np.matmul, the same BLAS call, so a trial
    follows exactly the iterates, and stops at the sweep, that it would
    alone. The rule is the measured break-even of the two loops over the
    same trials (one core, one BLAS thread). On 16 trials, stacked sweeps
    ran 2.4x as fast at 50 x 10, 2.0x at 100 x 20 and 1.5-1.6x at 200 x 50,
    but 0.7-1.0x from 40,000 entries (200 x 200, 400 x 100, 800 x 50) on,
    where a sweep takes every design of the stack through the cache twice;
    with d > n the stack's Gram columns would outgrow its designs (0.7x at
    50 x 200). On fewer trials of 100 x 20 and 200 x 50 they ran 0.7x at
    4, 0.8-1.1x at 6 and 1.0-1.1x at 8. A full sweep block's 64-deep stack
    against four 16-deep ones over the same 64 trials (one design or one
    per trial, each trial with its own noise) ran 2.0-2.2x as fast at
    100 x 20, 1.5-1.7x at 200 x 50, 2.5-2.9x at 40 x 10 and at an all-zero
    solution, 1.7-2.8x at an ill-conditioned 30 x 30, and 1.0x where no
    stack runs (50 x 200, 2000 x 300), with the same radii bit for bit.
    """
    if not (0 < lam < math.inf):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    E, (trials, n, d) = X.entries, X.entries.shape
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (trials, n):
        raise DimensionMismatch(f"responses must have shape {(trials, n)}, got {Y.shape}")
    if not np.isfinite(Y).all():
        raise ValueError("response entries must be finite")
    col_sq = X.col_norms ** 2
    z = np.matmul(E.transpose(0, 2, 1), Y[:, :, None])[:, :, 0]
    yy = (0.5 * np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0]).tolist()
    theta, failed = np.full((trials, d), math.nan), {}
    live, sweeps, coords, gram, made = range(trials), 0, np.zeros((trials, d)), None, None
    if d <= n and n * d <= CD_STACK_ENTRIES and trials >= CD_STACK_TRIALS:
        live, sweeps, z, coords, gram, made = _stacked_sweeps(
            E, Y, yy, col_sq, lam, z, theta)
    for i, b in enumerate(live):
        rows = [None] * d if gram is None else \
            [g if m else None for g, m in zip(gram[i], made[i].tolist())]
        solved = _one_trial_sweeps(E[b], Y[b], yy[b], col_sq[b], lam, CD_MAX_SWEEPS - sweeps,
                                   z[i], coords[i].tolist(), rows, GRAM_BLOCK if d <= n else 1)
        if solved is None:
            failed[b] = NonConvergence(f"coordinate descent did not reach gap {CD_GAP_TOL} in "
                                       f"{CD_MAX_SWEEPS} sweeps")
        else:
            theta[b] = solved
    return theta, failed


def _one_trial_sweeps(A: np.ndarray, y: np.ndarray, yy: float, col_sq: np.ndarray,
                      lam: float, sweeps: int, z: np.ndarray,
                      coords: list[float], gram: list, block: int) -> np.ndarray | None:
    """Up to sweeps sweeps of solve_penalized_lasso on one design A, its
    response y (yy = 0.5 y^T y) and squared column norms col_sq, from its
    state: z, coords and gram, each coordinate's Gram column or None until
    it is made, block coordinates at a time. Returns the solution, or None
    if the gap was not reached."""
    # the coordinate loop reads and writes Python floats: indexing numpy
    # arrays per coordinate costs more than the arithmetic at small d
    d, norm_sq = len(coords), col_sq.tolist()
    for _ in range(sweeps):
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
        if primal - dual <= CD_GAP_TOL:
            return theta
        z = xr + col_sq * theta
    return None


def _stacked_sweeps(E: np.ndarray, Y: np.ndarray, yy: list[float], col_sq: np.ndarray,
                    lam: float, z: np.ndarray, theta: np.ndarray) -> tuple:
    """solve_penalized_lasso's sweeps with the trial axis first, on designs
    E with d <= n, responses Y (yy[b] = 0.5 Y[b]^T Y[b]), squared column
    norms col_sq and initial z: each step of a sweep, the soft-threshold,
    the z update, the gap check and the z rebuild, is one array expression
    over the live trials, and a Gram column missing on the trials that move
    its coordinate is made, with the missing ones among the next
    GRAM_BLOCK - 1, by one matmul per set of columns made. A trial that
    reaches the gap takes its row of theta and leaves. Stops after
    CD_MAX_SWEEPS sweeps or once fewer than CD_STACK_TRIALS trials are live,
    and returns the live trials, the sweeps run and the live trials' state:
    z, coordinates, Gram columns and the mask of those made."""
    trials, n, d = E.shape
    live, A, Y, yy, col_sq = np.arange(trials), E, Y, np.array(yy), col_sq
    # a coordinate with a zero column norm never moves: 0 / inf is 0
    norm_sq = np.where(col_sq == 0.0, math.inf, col_sq)
    coords, gram = np.zeros((trials, d)), np.zeros((trials, d, d))
    made = np.zeros((trials, d), dtype=bool)
    complete = [False] * d  # every live trial has made column j
    columns = None  # each coordinate's views of the state, made again when trials leave
    for sweep in range(1, CD_MAX_SWEEPS + 1):
        if columns is None:
            columns = list(enumerate(zip(z.T, coords.T, norm_sq.T, gram.transpose(1, 0, 2),
                                         made.T)))
        for j, (zj, cj, norm_sq_j, gram_j, made_j) in columns:
            # soft-threshold: z_j - lam, z_j + lam or exactly 0
            new = (zj - np.minimum(np.maximum(zj, -lam), lam)) / norm_sq_j
            step = new - cj
            if not np.count_nonzero(step):
                continue
            moved = step != 0.0
            if not complete[j] and np.count_nonzero(need := moved > made_j):
                _make_gram(A, gram, made, need.nonzero()[0], j)
                complete = made.all(axis=0).tolist()
            # a trial that does not move takes a step of 0 times its column
            z -= gram_j * step[:, None]
            np.copyto(cj, new, where=moved)
        r = Y - np.matmul(A, coords[:, :, None])[:, :, 0]
        xr = np.matmul(A.transpose(0, 2, 1), r[:, :, None])[:, :, 0]
        # duality gap: scaled residual is dual-feasible
        s = np.maximum(1.0, np.abs(xr).max(axis=1) / lam)
        y_u = Y - r / s[:, None]
        primal = 0.5 * np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0] \
            + lam * np.abs(coords).sum(axis=1)
        dual = yy - 0.5 * np.matmul(y_u[:, None, :], y_u[:, :, None])[:, 0, 0]
        done = primal - dual <= CD_GAP_TOL
        np.add(xr, col_sq * coords, out=z)
        if np.count_nonzero(done):
            theta[live[done]] = coords[done]
            keep = ~done
            live, A, Y, yy, col_sq, norm_sq, z, coords, gram, made = (
                a[keep] for a in (live, A, Y, yy, col_sq, norm_sq, z, coords, gram, made))
            complete, columns = made.all(axis=0).tolist(), None
        if len(live) < CD_STACK_TRIALS:
            break
    return live.tolist(), sweep, z, coords, gram, made


def _make_gram(A: np.ndarray, gram: np.ndarray, made: np.ndarray, need: np.ndarray,
               j: int) -> None:
    """Make the Gram column of coordinate j on the trials need of
    _stacked_sweeps, each with the missing ones among the next
    GRAM_BLOCK - 1, as the one-trial loop makes them: one matmul per
    distinct set of columns made."""
    window = made[need, j:j + GRAM_BLOCK]
    key = window @ (1 << np.arange(window.shape[1]))
    for pattern in np.unique(key).tolist():
        group = need[key == pattern]
        cols = [j + i for i in range(window.shape[1]) if not pattern >> i & 1]
        designs = A if len(group) == len(A) else A[group]
        rows = np.matmul(designs[:, :, cols].transpose(0, 2, 1), designs)
        rows[:, range(len(cols)), cols] = 0.0
        gram[group[:, None], cols] = rows
        made[group[:, None], cols] = True


def lambda_to_c1(X: DesignStack, Y, lam: float) -> tuple[np.ndarray, dict[int, NonConvergence]]:
    """The l1 norm of each trial's penalized-form solution at penalty lam
    (solve_penalized_lasso on the stack X and responses Y): translates a
    penalty magnitude into a constraint radius for the constrained form.
    Returns the radii, NaN for a trial in failed, and failed, which maps a
    trial whose solve did not converge to its NonConvergence."""
    theta, failed = solve_penalized_lasso(X, Y, lam)
    return np.abs(theta).sum(axis=1), failed


# ---------------------------------------------------------------------------
# marginal screening


def screen_runs(X: DesignStack, Y: np.ndarray, k: int, trial: np.ndarray, scales: np.ndarray,
                c1, master_seed: int, paths: list[tuple[int, ...]],
                trace: bool = False) -> RunSelections:
    """k rounds of noisy argmax over |c_i + xi| per run, with
    c = X_b^T Y[b] / n for its trial b = trial[r]; a run's candidates are
    a mask over the d columns, the winner leaves it, noise is fresh each
    round. c1 is not read."""
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
                     rng: RngStream) -> SelectionResult:
    """k rounds of noisy argmax over |c_i + xi| with c = X^T y / n (one run
    of select_runs, with its trace)."""
    return _one_run(_spec(method="screen", k=k), X, y, eta_step, None, delta, sigma, rng)


# ---------------------------------------------------------------------------
# forward stepwise


def fs_runs(X: DesignStack, Y: np.ndarray, k: int, trial: np.ndarray, scales: np.ndarray,
            c1, master_seed: int, paths: list[tuple[int, ...]],
            trace: bool = False) -> RunSelections:
    """k rounds of noisy argmax over residual-normalized correlations per
    run, with the columns of its trial's design residualized incrementally
    against the selected ones. A run's candidates are a mask over all d
    columns: those not yet picked whose residual norm is above
    FS_COLLINEAR_TOL times their own norm. A run left without candidates
    fails with AllCandidatesCollinear and leaves the block; the others go
    on. c1 is not read.

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
        # multiply would, in fewer and longer inner loops. It runs over
        # blocks of R within FS_UPDATE_BYTES, whole states or rows of one,
        # so no temporary of R's size is made; each entry is the same
        # R - q_i p_j either way
        w = R[at, :, chosen]
        q = w / np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0])
        p = np.einsum("ri,rij->rj", q, R)
        if R.nbytes <= FS_UPDATE_BYTES:  # one block, without the loops' slicing
            R -= np.einsum("ri,rj->rij", q, p)
        else:
            rows = max(1, FS_UPDATE_BYTES // (R.itemsize * d))
            states = max(1, rows // X.n)
            for a in range(0, len(R), states):
                b = slice(a, a + states)
                for i in range(0, X.n, rows):
                    R[b, i:i + rows] -= np.einsum("ri,rj->rij", q[b, i:i + rows], p[b])
        y_res -= q * np.matmul(q[:, None, :], y_res[:, :, None])[:, 0]
    support = np.zeros((runs, d), dtype=bool)
    if len(ids):  # the rows of the runs that did not fail, with their last pick
        support[ids] = picked if state is None else picked[state]
        support[ids, chosen] = True
    return RunSelections(support, None, failed, tuple(traced))


def stable_fs(X: DesignMatrix, y, k: int, delta: float, eta_step: float,
              sigma: float, *,
              rng: RngStream) -> SelectionResult:
    """Noisy forward stepwise (one run of select_runs, with its trace);
    raises AllCandidatesCollinear when the candidates run out."""
    return _one_run(_spec(method="fs", k=k), X, y, eta_step, None, delta, sigma, rng)


# ---------------------------------------------------------------------------
# the methods, and the one selection dispatch


@dataclass(frozen=True)
class Mechanism:
    """A selector method's stability facts, in one place: MECHANISMS maps
    each method name to its record. knobs are the SelectorSpec fields it
    reads, and exactly one of needs must be set. Without a kernel (fixed)
    it looks at no data and carries the zero certificate. A noisy one runs
    rounds of report-noisy-max (or -min): kernel(X, Y, rounds, trial,
    scales, c1, master_seed, paths, trace) selects for a block of runs,
    with its decision trace if trace; rounds(spec, X, trial, c1, eta_step,
    sigma) is the array of the runs' round counts where the data fix them
    (None: the spec's k); scale(X, trial, k, c1, sigma, delta, eta_step),
    in noise.py, gives each run's Laplace scale; certify(rounds, eta_step,
    delta) gives the certificates the rounds compose into.

    Each scale is calibrated to a typical set of responses y, of
    probability at least 1 - delta for noise y - mu subgaussian at scale
    sigma: |v^T (y - mu)| <= ||v|| h for each of N score directions v,
    with h = noise.typical_halfwidth(log 2N, delta, sigma). A scale is the
    set's width in score units over eta_step, so each round is
    eta_step-indistinguishable on the set.
    Screening: v = X_j / n, the d columns (N = d). Forward stepwise: v is
    the unit residual of a column off those picked before it, over the
    ordered choices of up to k columns (N = (d)_k). LASSO: v = 2 c1 X_j / n,
    the 2d vertex scores (N = 2d).
    """

    knobs: tuple[str, ...]
    needs: tuple[str, ...]
    kernel: Callable | None = None
    rounds: Callable | None = None
    scale: Callable | None = None
    certify: Callable = certify_budgets


MECHANISMS = {
    "fixed": Mechanism(("fixed_model",), ("fixed_model",)),
    "screen": Mechanism(("k",), ("k",), screen_runs, None, scale_screening),
    "fs": Mechanism(("k",), ("k",), fs_runs, None, scale_forward_stepwise),
    "lasso": Mechanism(("c1", "lam", "steps"), ("c1", "lam"), lasso_runs, _lasso_steps,
                       scale_lasso),
}


def select_runs(spec: SelectorSpec, X: DesignStack, Y: np.ndarray, trial: np.ndarray,
                eta_step: np.ndarray, c1: np.ndarray | None, delta: float, sigma: float,
                master_seed: int, paths: list[tuple[int, ...]]) -> RunSelections:
    """spec's selector for a block of runs: run r selects on X[trial[r]]
    and the finite response Y[trial[r]], from stream (master_seed,
    paths[trial[r]]), at per-step eta_step[r], slack delta, noise scale
    sigma and LASSO radius c1[r] (read by LASSO only). Returns the block's
    RunSelections, whose failed maps a forward stepwise run left without
    candidates to its AllCandidatesCollinear.

    A method without a kernel carries the one zero certificate. For the
    others, with sigma, delta and each distinct eta_step checked once, the
    round counts and Laplace scales of spec's Mechanism are array
    expressions over the runs, and the runs are certified, one certs entry
    per distinct (rounds, eta_step), before the kernel runs. A one-run
    block keeps its decision trace.
    """
    d, runs, mech = X.d, len(trial), MECHANISMS[spec.method]
    spec.check_d(d)
    if mech.kernel is None or not runs:  # no noise to draw
        support = np.zeros((runs, d), dtype=bool)
        support[:, list(spec.fixed_model)] = True
        return RunSelections(support, None, {}, certs=((ZERO_BUDGET,),),
                             cert=np.zeros(runs, dtype=np.int64))
    if not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    etas = eta_step.tolist()
    for eta in set(etas):
        if not (0 < eta < math.inf):
            raise ValueError(f"eta_step must be finite and positive, got {eta}")
    rounds = spec.k if mech.rounds is None else mech.rounds(spec, X, trial, c1, eta_step, sigma)
    scales = mech.scale(X, trial, spec.k, c1, sigma, delta, eta_step)
    # certified before the kernel runs, so a certificate that overflows
    # fails the block without its selection work
    table: dict = {}  # (rounds, eta_step) -> certificate index; None for no round
    cert = np.array([table.setdefault((k, e) if k else None, len(table)) for k, e in
                     zip([rounds] * runs if mech.rounds is None else rounds.tolist(), etas)],
                    dtype=np.int64)
    certs = tuple((ZERO_BUDGET,) if key is None else mech.certify(*key, delta)
                  for key in table)
    block = mech.kernel(X, Y, rounds, trial, scales, c1, master_seed, paths, runs == 1)
    block.cert, block.certs = cert, certs
    return block


_ONE_RUN = np.zeros(1, dtype=np.int64)  # the trial of a one-run block's run
_ONE_RUN.setflags(write=False)


def _one_run(spec: SelectorSpec, X: DesignMatrix, y, eta_step: float | None,
             c1: float | None, delta: float, sigma: float, rng: RngStream) -> SelectionResult:
    """One run of select_runs on the response y, validated here, with its
    trace, as a SelectionResult; a failed run raises its error."""
    block = select_runs(spec, X.stack, as_response(y, X.n)[None], _ONE_RUN,
                        np.array([eta_step], dtype=float), None if c1 is None else np.array([c1]),
                        delta, sigma, rng.master_seed, [rng.path])
    if block.failed:
        raise block.failed[0]
    return SelectionResult(ModelSet(tuple(block.support[0].nonzero()[0].tolist())),
                           None if block.theta is None else block.theta[0], block.trace,
                           block.certs[block.cert[0]], c1=c1)
