"""Monte Carlo harness: synthetic data, trial pipeline, metrics, sweeps.

Each trial draws its own data and noise streams from (master_seed, path),
so trials are independent tasks that parallelize without changing any
result. The pipeline per trial: generate, select (noisy), certify budgets,
infer the intervals, score coverage / width / FDR / risk against the
realized design of that trial.

An ExperimentConfig is the whole experiment, its eta grid included, and
its construction is the one check of a config, for the `experiment`
command and a library caller alike.

Sweeps run in blocks of consecutive trials, each over the config's whole
eta grid; a run is one (trial, eta) pair. block_trials cuts a sweep into
the fewest near-equal blocks of at most BLOCK_TRIALS trials (64, the
measured knee of the time per trial) within BLOCK_BYTES, and at least one
per process. `_run_block` takes a block in one pass, its data one
(trials, n, d) DesignStack checked once, through one
selectors.select_runs call (the dispatch of `select` too) and one
stability.infer_runs call (the inference of `ci`), which hand each other
arrays over the runs. It numbers its runs eta-major and hands back one
Runs per eta, a contiguous part of its per-run arrays and flag reasons,
so no per-run object crosses a worker pool and a sweep joins an eta's
parts without reordering them; a TrialRecord is only a row view of them.
No per-run number depends on the block, so every record is the one an
eta-major loop, rerunning each (eta, trial) from scratch, would produce,
whatever the block size and the worker count. `run_trial` is a one-trial
block; `run_selector`, which `select` calls, is a one-run call of
select_runs.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BadWeights, EmptyInput, check_number
from .linmodel import DesignMatrix, DesignStack, ModelSet, as_response
from .noise import RngStream, keyed
from .selectors import (MECHANISMS, SelectionResult, SelectorSpec, _one_run, lambda_to_c1,
                        select_runs)
from .stability import ZERO_BUDGET, StabilityBudget, infer_runs, slack_allowance
# not called here: bound for perfbench/tracing.py, which wraps these names in this module
from .linmodel import ols_fit, sigma_hat_full_model, stderr_known_sigma  # noqa: F401
from .linmodel import target_coefficients  # noqa: F401
from .selectors import stable_fs, stable_lasso, stable_screening  # noqa: F401
from .stability import best_posi_constant  # noqa: F401

# paths namespaces under the master seed
_PATH_SHARED_DESIGN = 0
_PATH_TRIAL_DATA = 1
_PATH_TRIAL_SELECTOR = 2

DEFAULT_ETA_GRID = tuple(0.5 * i for i in range(1, 21))

# the most trials in a block of the sweep engine, and the byte budget of a
# block's largest array; see block_trials
BLOCK_TRIALS = 64
BLOCK_BYTES = 16 * 2 ** 20

WIDTH_QUANTILE_LEVELS = (0.80, 0.85, 0.90, 1.00)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: its fields are the keys of an `experiment`
    config, each checked for its JSON type and range here, the one check of
    a config for the command line and a library caller alike. An estimated
    sigma needs n > d. A noisy selector (its Mechanism has a kernel) needs
    a positive tau + nu share of alpha_weights, and where the spec fixes
    its round count (k, or LASSO steps) every eta of eta_grid must certify
    at selector_slack, with a finite Laplace scale where that reads no data."""

    n: int
    d: int
    selector: SelectorSpec
    trials: int
    master_seed: int
    signal: float = 5.0  # the value of each active coefficient
    active_fraction: float = 0.8  # share of the d coefficients that are active
    sigma: float = 1.0
    alpha: float = 0.1
    regenerate_x_per_trial: bool = True
    sigma_mode: str = "known"  # "known" | "estimate"
    alpha_weights: tuple[float, float, float] | None = None
    eta_grid: tuple[float, ...] = DEFAULT_ETA_GRID  # the per-step etas of the sweep

    def __post_init__(self):
        for name, low in (("n", 1), ("d", 1), ("trials", 1), ("master_seed", 0)):
            check_number(name, getattr(self, name), integer=True)
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.master_seed >= 2 ** 64:
            raise ValueError(f"master_seed must be below 2**64, got {self.master_seed}")
        if self.trials > 2 ** 64 - 1:  # a trial index is one word of its stream paths
            raise ValueError(f"trials must be at most 2**64 - 1, got {self.trials}")
        for name in ("signal", "active_fraction", "sigma", "alpha"):
            check_number(name, getattr(self, name))
        if not (0.0 <= self.active_fraction <= 1.0):
            raise ValueError(f"active_fraction must be in [0, 1], got {self.active_fraction}")
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not math.isfinite(self.signal):
            raise ValueError(f"signal must be finite, got {self.signal}")
        if not isinstance(self.regenerate_x_per_trial, bool):
            raise ValueError(f"regenerate_x_per_trial must be a bool, "
                             f"got {self.regenerate_x_per_trial!r}")
        if self.sigma_mode not in ("known", "estimate"):
            raise ValueError(f"sigma_mode must be 'known' or 'estimate', got {self.sigma_mode!r}")
        if self.sigma_mode == "estimate" and self.n <= self.d:
            raise ValueError(f"sigma_mode 'estimate' needs n > d for the full-model estimate, "
                             f"got n={self.n}, d={self.d}")
        if self.alpha_weights is not None:
            if not isinstance(self.alpha_weights, (list, tuple)):
                raise ValueError(f"alpha_weights must be a list, got {self.alpha_weights!r}")
            for w in self.alpha_weights:
                check_number("alpha_weights entry", w)
            object.__setattr__(self, "alpha_weights", tuple(self.alpha_weights))
        if not isinstance(self.eta_grid, (list, tuple)):
            raise ValueError(f"eta_grid must be a list, got {self.eta_grid!r}")
        if not self.eta_grid:
            raise EmptyInput("eta_grid must be nonempty")
        for eta in self.eta_grid:
            check_number("eta_grid entry", eta)
        if not all(0 < eta < math.inf for eta in self.eta_grid):
            raise ValueError(f"eta_grid must be finite and positive, got {list(self.eta_grid)}")
        object.__setattr__(self, "eta_grid", tuple(float(eta) for eta in self.eta_grid))
        try:
            slack = selector_slack(self)  # checks alpha and the weights
        except BadWeights as e:
            raise ValueError(f"alpha_weights {list(self.alpha_weights)}: {e}") from e
        spec, mech = self.selector, MECHANISMS[self.selector.method]
        spec.check_d(self.d)
        if slack == 0 and mech.kernel:
            raise ValueError(f"alpha_weights {list(self.alpha_weights)} give tau + nu no share "
                             f"of alpha, which the noisy selector {spec.method!r} needs as "
                             f"its slack")
        # None for a fixed model, and for LASSO's default steps, which the data fix
        rounds = spec.k or spec.steps
        # a block of no runs: on it, only a scale that reads no data has a value
        empty, no_runs = DesignStack.checked(np.zeros((0, self.n, self.d))), np.zeros(0, dtype=int)
        for eta in self.eta_grid if rounds else ():
            try:
                mech.certify(rounds, eta, slack)
                mech.scale(empty, no_runs, rounds, no_runs, self.sigma, slack, eta)
            except ValueError as e:
                raise ValueError(f"eta_grid entry {eta!r}: {e}") from e


@dataclass(frozen=True)
class TrialRecord:
    """One run's record, a row view of Runs for run_trial and the tests."""

    trial_index: int
    model: ModelSet
    covered: bool
    widths: np.ndarray
    fdr: float
    risk: float | None
    K: float
    budget_used: StabilityBudget
    flagged: str | None = None


@dataclass(frozen=True, eq=False)
class Runs:
    """The records of a sequence of runs as per-run columns: a block's runs
    in eta-major (eta, trial) order, or one eta's runs of a block or a
    sweep in trial order. Run r is trial trial[r]; its model is the strictly
    increasing columns cols[offsets[r]:offsets[r + 1]], whose interval
    widths are widths over the same range; covered[r], fdr[r], risk[r]
    (the penalized LASSO objective of a `lam` run, NaN for any other) and
    K[r] are its metrics, and certs[cert[r]] is the (eta, tau, nu) row of
    the certificate that gave K[r]. flagged maps a flagged run to its
    reason; such a run has an empty model, K and FDR 0, the zero
    certificate and is not covered. runs[r] is run r as a TrialRecord."""

    trial: np.ndarray  # uint64: a trial index is below 2**64 - 1
    offsets: np.ndarray  # int64, one more than the runs
    cols: np.ndarray  # int64
    widths: np.ndarray
    covered: np.ndarray  # bool
    fdr: np.ndarray
    risk: np.ndarray
    K: np.ndarray
    cert: np.ndarray  # int64
    certs: np.ndarray  # (certificates, 3)
    flagged: dict[int, str]

    def __len__(self) -> int:
        return len(self.trial)

    def __getitem__(self, r: int) -> TrialRecord:
        r = range(len(self))[r]
        a, b = self.offsets[r:r + 2].tolist()
        risk = self.risk[r].item()
        return TrialRecord(trial_index=self.trial[r].item(),
                           model=ModelSet(tuple(self.cols[a:b].tolist())),
                           covered=self.covered[r].item(), widths=self.widths[a:b],
                           fdr=self.fdr[r].item(), risk=None if math.isnan(risk) else risk,
                           K=self.K[r].item(),
                           budget_used=StabilityBudget(*self.certs[self.cert[r]].tolist()),
                           flagged=self.flagged.get(r))

    def part(self, a: int, b: int) -> Runs:
        """Runs a to b - 1, offsets rebased to 0 and flags keyed from 0, with
        only the certificate rows they use, not every eta's of a block."""
        lo, hi = self.offsets[a], self.offsets[b]
        used, cert = np.unique(self.cert[a:b], return_inverse=True)
        return Runs(self.trial[a:b], self.offsets[a:b + 1] - lo, self.cols[lo:hi],
                    self.widths[lo:hi], self.covered[a:b], self.fdr[a:b], self.risk[a:b],
                    self.K[a:b], cert, self.certs[used],
                    {r - a: reason for r, reason in self.flagged.items() if a <= r < b})

    @staticmethod
    def concat(parts: list[Runs]) -> Runs:
        """parts' runs one after another."""
        starts = np.cumsum([0] + [len(p) for p in parts]).tolist()
        offsets = np.cumsum([0] + [p.offsets[-1] for p in parts]).tolist()
        first = np.cumsum([0] + [len(p.certs) for p in parts]).tolist()
        return Runs(
            np.concatenate([p.trial for p in parts]),
            np.concatenate([[0]] + [p.offsets[1:] + o for p, o in zip(parts, offsets)]),
            *(np.concatenate([getattr(p, name) for p in parts])
              for name in ("cols", "widths", "covered", "fdr", "risk", "K")),
            np.concatenate([p.cert + c for p, c in zip(parts, first)]),
            np.concatenate([p.certs for p in parts]),
            {r + s: reason for p, s in zip(parts, starts) for r, reason in p.flagged.items()})


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


def gen_synthetic(cfg: ExperimentConfig, trials: range,
                  ) -> tuple[DesignStack, np.ndarray, np.ndarray, np.ndarray]:
    """Draw (X, beta, mu, Y) for a block of trials, trial trials[b] in row b.

    X entries are N(0,1)/sqrt(n); beta puts the signal value on the first
    round(fraction * d) coordinates; Y[b] = mu[b] + sigma * N(0, I) with
    mu[b] = X[b] beta. Trial t draws from stream (1, t), design then noise,
    straight into row b. The design is redrawn per trial, one stack checked
    once, or shared: drawn from its own stream and broadcast over the block.
    """
    # the shared design first: its first draw moves noise.keyed to its own stream
    shared = None if cfg.regenerate_x_per_trial else _shared_design(cfg.master_seed, cfg.n, cfg.d)
    entries = np.empty((len(trials) if shared is None else 0, cfg.n, cfg.d))
    noise = np.empty((len(trials), cfg.n))
    for b, t in enumerate(trials):
        data = keyed.start(cfg.master_seed, (_PATH_TRIAL_DATA, t))
        if shared is None:
            data.standard_normal(out=entries[b])
        data.standard_normal(out=noise[b])
    X = DesignStack.checked(np.divide(entries, math.sqrt(cfg.n), out=entries)) \
        if shared is None else shared.stack.broadcast(len(trials))
    active = min(cfg.d, int(math.floor(cfg.active_fraction * cfg.d + 0.5)))
    beta = np.zeros(cfg.d)
    beta[:active] = cfg.signal
    mu = X.entries @ beta
    return X, beta, mu, mu + cfg.sigma * noise


@functools.lru_cache(maxsize=1)
def _shared_design(master_seed: int, n: int, d: int) -> DesignMatrix:
    """The design of every trial of a config that does not redraw it, from
    stream (0,), drawn once and kept, as a DesignMatrix is immutable."""
    draws = keyed.start(master_seed, (_PATH_SHARED_DESIGN,)).standard_normal((n, d))
    return DesignMatrix(draws / math.sqrt(n))


def run_selector(spec: SelectorSpec, X: DesignMatrix, y, eta_step: float | None,
                 delta: float, sigma: float, rng: RngStream) -> SelectionResult:
    """The selection of `select`: spec's noisy selector at per-step
    eta_step, slack delta and noise scale sigma, as one run of
    selectors.select_runs with its trace. A `lam` penalty is resolved to
    its radius here; a failed run raises its error."""
    c1 = spec.c1
    if spec.lam is not None:
        radius, failed = lambda_to_c1(X.stack, as_response(y, X.n)[None], spec.lam)
        if failed:
            raise failed[0]
        c1 = radius.item()
    return _one_run(spec, X, y, eta_step, c1, delta, sigma, rng)


def _flag(error: Exception) -> str:
    """A flagged run's reason: the error's type in snake case, its message."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(error).__name__).lower() + f": {error}"


def selector_slack(cfg: ExperimentConfig) -> float:
    """The slack delta a sweep's noisy selectors run at: half of
    stability.slack_allowance, the tau + nu share of alpha, so that the
    aligned certificates' slack is that share and the quantile level what
    the split leaves."""
    return slack_allowance(cfg.alpha, cfg.alpha_weights) / 2.0


def block_trials(cfg: ExperimentConfig, workers: int = 1) -> list[range]:
    """The sweep's blocks of consecutive trials, in trial order: the fewest
    near-equal blocks (sizes differ by at most one, the larger first) of
    at most BLOCK_TRIALS trials each, whose largest array (runs x n x d
    doubles: the LASSO designs, or at most that for the forward-stepwise
    residuals, one per distinct state) stays within BLOCK_BYTES, and at
    least min(workers, trials) of them, one for each process. So a
    block holds ceil(trials / blocks) trials at most. The cap of 64 is the
    measured knee: on the benchmark sweeps (n=100, d=20) 64-trial blocks
    ran 1.2-1.4x as fast as 16-trial ones and larger ones at most a few
    percent faster, while peak memory kept rising. Records do not depend
    on the blocks."""
    per_trial = len(cfg.eta_grid) * cfg.n * cfg.d * 8
    cap = max(1, min(BLOCK_TRIALS, BLOCK_BYTES // per_trial))
    return _near_equal(cfg.trials, max(-(-cfg.trials // cap), min(workers, cfg.trials)))


def _near_equal(total: int, count: int) -> list[range]:
    """range(total) cut into count consecutive ranges whose sizes differ by
    at most one, the larger first."""
    size, larger = divmod(total, count)
    starts = [b * size + min(b, larger) for b in range(count + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def run_trial(cfg: ExperimentConfig, trial_index: int) -> list[TrialRecord]:
    """One trial at every per-step eta of cfg.eta_grid (a one-trial block):
    generate, select, certify, fit, score. Returns one record per eta, in
    grid order."""
    return [at_eta[0] for at_eta in _run_block(cfg, range(trial_index, trial_index + 1))]


def _run_block(cfg: ExperimentConfig, trials: range) -> list[Runs]:
    """Consecutive trials, each at every eta of cfg.eta_grid, as one block
    of runs: run e * len(trials) + b is trial trials[b] at cfg.eta_grid[e].
    Returns their Runs in that eta-major order, cut into one part per eta,
    in grid order, each holding that eta's runs in trial order.

    One pass. The data, one stack (gen_synthetic), and the `lam` radii of
    all its trials, one lambda_to_c1 call on that stack (the penalty solve
    sweeps them together while enough of them are live, see
    selectors.solve_penalized_lasso), which do not depend on eta; a trial
    whose penalty solve does not converge is flagged at every eta. Then one
    selectors.select_runs call selects for every other run at
    selector_slack(cfg), trial b drawing from its selector stream
    (2, trials[b]), and one stability.infer_runs call makes the
    intervals of every run selected, whose fits also give the targets
    X_M^+ mu and the FDR of each distinct (trial, model) pair; a `lam`
    run's risk, the penalized objective of its iterate, is one stacked
    expression over the runs scored. A run whose selection or inference
    check fails is flagged with its error. Every run's record is the one
    the trial run alone at that eta gives.
    """
    X, beta, mu, Y = gen_synthetic(cfg, trials)
    T, etas, lam = len(trials), len(cfg.eta_grid), cfg.selector.lam
    count = T * etas
    failed: dict[int, Exception] = {}  # by run
    # each trial's LASSO radius: the spec's (NaN for a method that reads
    # none), or its `lam` penalty resolved
    if lam is None:
        c1 = np.full(T, cfg.selector.c1 or math.nan)
    else:
        c1, stuck = lambda_to_c1(X, Y, lam)
        failed.update((e * T + b, error) for b, error in stuck.items() for e in range(etas))
    run = np.delete(np.arange(count), list(failed))  # the runs not flagged yet
    eta, trial = np.divmod(run, T)
    sel = select_runs(cfg.selector, X, Y, trial, np.array(cfg.eta_grid)[eta], c1[trial],
                      selector_slack(cfg), cfg.sigma,
                      cfg.master_seed, [(_PATH_TRIAL_SELECTOR, t) for t in trials])
    failed.update((int(run[i]), error) for i, error in sel.failed.items())
    kept = np.delete(np.arange(len(run)), list(sel.failed))
    at = run[kept]  # infer_runs' run i is run at[i] of the block
    iv = infer_runs(X.entries, Y, trial[kept], sel.support[kept], sel.certs, sel.cert[kept],
                    cfg.alpha, cfg.sigma if cfg.sigma_mode == "known" else None,
                    cfg.alpha_weights)
    failed.update((int(at[i]), error) for i, error in iv.failed.items())

    size = np.zeros(count, dtype=np.int64)
    for m, group in iv.sizes.items():
        size[at[group.runs]] = m
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(size, out=offsets[1:])
    cols, widths = np.zeros(offsets[-1], dtype=np.int64), np.zeros(offsets[-1])
    covered, fdr, risk = np.zeros(count, dtype=bool), np.zeros(count), np.full(count, math.nan)
    K, cert = np.zeros(count), np.zeros(count, dtype=np.int64)
    K[at], cert[at] = iv.K, iv.budget + 1  # certificate 0 is the zero one, of a flagged run
    for m, group in iv.sizes.items():
        fits, runs = group.fits, at[group.runs]
        targets = fits.coefficients(mu[fits.trial])
        covered[runs] = np.all((group.lower <= targets[group.pairs])
                               & (targets[group.pairs] <= group.upper), axis=1)
        nulls = np.count_nonzero(beta[fits.cols] == 0.0, axis=1)
        fdr[runs] = (nulls / max(m, 1))[group.pairs]
        flat = offsets[runs][:, None] + np.arange(m)
        cols[flat], widths[flat] = fits.cols[group.pairs], group.upper - group.lower
    if lam is not None and iv.sizes:
        # the penalized LASSO objective of each scored run's iterate
        scored = np.concatenate([group.runs for group in iv.sizes.values()])
        theta, b = sel.theta[kept[scored]], trial[kept[scored]]
        resid = Y[b] - np.matmul(X.entries[b], theta[:, :, None])[:, :, 0]
        risk[at[scored]] = (0.5 * np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
                            + lam * np.abs(theta).sum(axis=1)) / cfg.n
    certs = np.array([(c.eta, c.tau, c.nu) for c in (ZERO_BUDGET, *iv.budgets)], dtype=np.float64)
    runs = Runs(np.tile(np.arange(trials.start, trials.stop, dtype=np.uint64), etas), offsets,
                cols, widths, covered, fdr, risk, K, cert, certs,
                {r: _flag(error) for r, error in failed.items()})
    return [runs.part(e * T, (e + 1) * T) for e in range(etas)]


def aggregate(runs: Runs, eta_step: float | None = None) -> ExperimentSummary:
    """Coverage fraction, pooled nearest-rank width quantiles, mean FDR /
    risk / K of runs. Flagged runs are excluded and counted by reason."""
    if not len(runs):
        raise EmptyInput("aggregate needs at least one record")
    flagged = len(runs.flagged)
    reasons = dict(sorted(Counter(r.split(":", 1)[0] for r in runs.flagged.values()).items()))
    if flagged == len(runs):
        return ExperimentSummary(
            eta_step=eta_step, trials=0, flagged=flagged, empty_models=0,
            empirical_coverage=None, width_max=None,
            width_quantiles={lvl: None for lvl in WIDTH_QUANTILE_LEVELS},
            mean_fdr=None, mean_risk=None, mean_K=None, flag_reasons=reasons)
    kept = np.ones(len(runs), dtype=bool)
    kept[list(runs.flagged)] = False
    sizes = np.diff(runs.offsets)
    pooled = runs.widths[np.repeat(kept, sizes)]
    if pooled.size:
        # inverted_cdf is the nearest-rank quantile: the ceil(level * n)-th smallest
        q = np.quantile(pooled, WIDTH_QUANTILE_LEVELS, method="inverted_cdf")
        quantiles = dict(zip(WIDTH_QUANTILE_LEVELS, map(float, q)))
        width_max = float(pooled.max())
    else:
        quantiles = {lvl: float("nan") for lvl in WIDTH_QUANTILE_LEVELS}
        width_max = float("nan")
    risks = runs.risk[kept & ~np.isnan(runs.risk)]
    trials = len(runs) - flagged
    return ExperimentSummary(
        eta_step=eta_step,
        trials=trials,
        flagged=flagged,
        empty_models=int(np.count_nonzero(sizes[kept] == 0)),
        empirical_coverage=int(np.count_nonzero(runs.covered[kept])) / trials,
        width_max=width_max,
        width_quantiles=quantiles,
        mean_fdr=float(np.mean(runs.fdr[kept])),
        mean_risk=float(np.mean(risks)) if risks.size else None,
        mean_K=float(np.mean(runs.K[kept])),
        flag_reasons=reasons,
    )


def _share_task(args: tuple[ExperimentConfig, list[range]]) -> list[list[Runs]]:
    """A share of consecutive blocks, run holding noise.keyed.lock."""
    cfg, blocks = args
    with keyed.lock:
        return [_run_block(cfg, trials) for trials in blocks]


def _sweep_blocks(cfg: ExperimentConfig, map_fn, workers: int) -> list[list[Runs]]:
    """Each block of block_trials(cfg, workers) as its per-eta parts
    (_run_block), in trial order, on min(workers, blocks) processes. On
    one, map_fn maps a task per block. On P > 1, the blocks are cut into P
    near-equal shares of consecutive blocks: the calling thread runs the
    first, largest share while a helper thread makes one map_fn call with
    a task per other share, as the map of a pool of P - 1 workers does
    it; a map that runs a share in this process waits on
    noise.keyed.lock. A failure in the caller's share is raised at once,
    leaving the helper to the caller's pool; one in map_fn after the
    caller's share."""
    blocks = block_trials(cfg, workers)
    processes = min(workers, len(blocks))
    if processes == 1:
        shares = map_fn(_share_task, [(cfg, [trials]) for trials in blocks])
    else:
        first, *rest = [blocks[at.start:at.stop] for at in _near_equal(len(blocks), processes)]
        done = {}

        def helper():
            try:
                done["rest"] = map_fn(_share_task, [(cfg, share) for share in rest])
            except BaseException as e:
                done["error"] = e

        thread = threading.Thread(target=helper, daemon=True)
        thread.start()
        own = _share_task((cfg, first))
        thread.join()
        if "error" in done:
            raise done["error"]
        shares = [own, *done["rest"]]
    return [block for share in shares for block in share]


def eta_sweep(cfg: ExperimentConfig, map_fn=map,
              workers: int = 1) -> list[tuple[float, Runs, ExperimentSummary]]:
    """Every trial at every eta of cfg.eta_grid over the same master seed,
    so trials are coupled across the grid for variance reduction. Runs in
    the blocks of block_trials(cfg, workers), each over the whole grid and
    each coming back as one Runs per eta, arrays and one dict of flag
    reasons, on min(workers, blocks) processes: the calling one and,
    through map_fn, the others (see _sweep_blocks). The blocks come back
    in trial order, so neither the blocks nor parallelism can change the
    records, and an eta's Runs is its parts of the blocks joined. Returns
    (eta, its Runs in trial order, summary) rows in grid order."""
    blocks = _sweep_blocks(cfg, map_fn, workers)
    out = []
    for eta in cfg.eta_grid:
        # each block's part of this eta, released once joined
        at_eta = Runs.concat([block.pop(0) for block in blocks])
        out.append((eta, at_eta, aggregate(at_eta, eta)))
    return out
