"""Noisy selectors and their zero-noise limits.

Oracles: the selection laws of the noisy argmax/argmin are integrated in
closed form (scipy quadrature over Laplace densities) and compared to
Monte Carlo frequencies over 1e5 seeded runs; the exact selectors in
oracles.py, checked on fixtures small enough to enumerate by hand, are the
zero-noise limits; the penalized solver is checked against its KKT
conditions and against the residual-form loop in oracles.py.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from stableci import noise, selectors
from stableci.errors import AllCandidatesCollinear, NonConvergence
from stableci.experiments import ExperimentConfig, block_trials, gen_synthetic
from stableci.linmodel import DesignMatrix, DesignStack
from stableci.noise import (KeyedGenerator, RngStream, scale_forward_stepwise,
                            scale_lasso, scale_screening)
from stableci.selectors import (CD_STACK_TRIALS, FS_COLLINEAR_TOL, MAX_DEFAULT_FW_STEPS,
                                SUPPORT_THRESHOLD,
                                SelectorSpec, fs_runs, lambda_to_c1,
                                lasso_runs, screen_runs, select_runs,
                                solve_penalized_lasso, stable_fs, stable_lasso,
                                stable_screening, _lasso_steps, _StepDraws)
from stableci.stability import StabilityBudget, certify_budgets, compose_adaptive_advanced

from oracles import (alone, constrained_lstar_lower, fs_exact, fs_noisy, lasso_exact_fw,
                     lasso_noisy, penalized_lasso_residual, screening_exact, screening_noisy,
                     set_scale, stack, support)


def random_instance(seed, n=25, d=8, snr=2.0):
    gen = np.random.default_rng(seed)
    X = DesignMatrix(gen.standard_normal((n, d)) / math.sqrt(n))
    beta = np.zeros(d)
    beta[: d // 2] = snr
    y = X.entries @ beta + gen.standard_normal(n)
    return X, y


# ---------------------------------------------------------------------------
# budget certificates


def test_certify_budgets_values():
    adv, lin = certify_budgets(10, 0.1, 0.05)
    assert adv.eta == pytest.approx(0.82404551204099, abs=1e-11)
    assert (adv.tau, adv.nu) == (0.05, 0.05)
    assert lin == StabilityBudget(1.0, 0.0, 0.05)


def test_certify_budgets_zero_step():
    adv, lin = certify_budgets(1, 0.0, 0.05)
    assert adv.eta == 0.0 and lin.eta == 0.0


# ---------------------------------------------------------------------------
# Frank-Wolfe LASSO


def test_lasso_config_validation():
    X, y = random_instance(0)
    with pytest.raises(ValueError):
        stable_lasso(X, y, 0.0, 0.05, 1.0, 1.0, rng=RngStream(0))
    with pytest.raises(ValueError):
        stable_lasso(X, y, 1.0, 0.05, 1.0, 1.0, rng=RngStream(0), steps=0)
    with pytest.raises(ValueError):
        stable_lasso(X, y, 1.0, 1.5, 1.0, 1.0, rng=RngStream(0))
    for c1 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            stable_lasso(X, y, c1, 0.05, 1.0, 1.0, rng=RngStream(0))


DEFAULT_STEPS = SelectorSpec(method="lasso", c1=1.0)  # steps left to the data


def test_lasso_resolved_steps():
    X = DesignMatrix([[2.0, 0.0], [0.0, 1.0]])
    # ceil(n linf^2 c1 eta / (sigma l2inf)) = ceil(2*4*3*1 / (1*2)) = 12
    assert _lasso_steps(DEFAULT_STEPS, X.stack, 0, 3.0, 1.0, 1.0) == 12
    assert len(stable_lasso(X, [1.0, 1.0], 3.0, 0.05, 1.0, 1.0, rng=RngStream(0)).trace) == 12
    assert len(stable_lasso(X, [1.0, 1.0], 3.0, 0.05, 1.0, 1.0, rng=RngStream(0),
                            steps=7).trace) == 7
    assert _lasso_steps(DEFAULT_STEPS, X.stack, 0, 1e9, 1.0, 1.0) == 10_000
    assert _lasso_steps(DEFAULT_STEPS, X.stack, 0, 1e-12, 1.0, 1.0) == 1
    # the spec's steps, and none at a radius of 0
    assert _lasso_steps(SelectorSpec(method="lasso", c1=1.0, steps=7), X.stack, 0,
                        np.array([3.0, 0.0]), 1.0, 1.0).tolist() == [7, 0]


def test_default_fw_steps_caps_a_count_that_overflows():
    # norms are finite, but n ||X||_inf^2 c1 eta / (sigma ||X||_{2,inf}) is not
    X = DesignMatrix([[1e154, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert _lasso_steps(DEFAULT_STEPS, X.stack, 0, 10.0, 1.0, 1.0) == MAX_DEFAULT_FW_STEPS


def test_fw_one_dimensional():
    # theta* = 1 on the l1 ball boundary; curvature C_L <= 4
    X = DesignMatrix([[1.0]])
    theta = lasso_exact_fw(X, [3.0], 1.0, 400)
    assert theta[0] == pytest.approx(1.0, abs=0.01)
    loss = (3.0 - theta[0]) ** 2
    assert loss - 4.0 <= 2 * 4.0 / (400 + 2)


def test_fw_zero_response_stays_near_optimal(monkeypatch):
    set_scale(monkeypatch, "lasso", 0.0)
    X, _ = random_instance(0)
    res = stable_lasso(X, np.zeros(X.n), 1.0, 0.05, 1.0, 1.0, rng=RngStream(0), steps=100)
    bound = [8.0 * X.stack.linf[0] ** 2 / (t + 2) for t in range(1, 101)]
    assert all(s.objective <= b + 1e-12 for s, b in zip(res.trace, bound))


def test_fw_orthonormal_reaches_projection():
    gen = np.random.default_rng(5)
    Q, _ = np.linalg.qr(gen.standard_normal((30, 6)))
    X = DesignMatrix(Q)
    y = gen.standard_normal(30)
    target = Q.T @ y
    c1 = float(np.abs(target).sum()) * 2.0  # interior optimum
    steps = 3000
    theta = lasso_exact_fw(X, y, c1, steps)
    # for orthonormal X the gap is ||theta - Q^T y||^2 / n
    gap_bound = 2 * 4.0 * X.stack.linf[0] ** 2 * c1 ** 2 / (steps + 2)
    assert np.max(np.abs(theta - target)) <= math.sqrt(30 * gap_bound)


def test_fw_trace_objective_matches_replay(monkeypatch):
    set_scale(monkeypatch, "lasso", 0.0)
    X, y = random_instance(3)
    res = stable_lasso(X, y, 1.5, 0.05, 1.0, 1.0, rng=RngStream(1), steps=5)
    for k in range(1, 6):
        theta_k = lasso_exact_fw(X, y, 1.5, k)
        r = y - X.entries @ theta_k
        np.testing.assert_allclose(res.trace[k - 1].objective, (r @ r) / X.n,
                                   rtol=1e-9)


def test_fw_gap_bound_against_cd_oracle(monkeypatch):
    set_scale(monkeypatch, "lasso", 0.0)
    for seed in (0, 1, 2):
        gen = np.random.default_rng(seed)
        n, d, c1 = 40, 12, 1.0
        X = DesignMatrix(gen.standard_normal((n, d)) / math.sqrt(n))
        beta = np.zeros(d)
        beta[:3] = 2.0
        y = X.entries @ beta + gen.standard_normal(n)
        lstar = constrained_lstar_lower(X, y, c1)
        res = stable_lasso(X, y, c1, 0.05, 1.0, 1.0, rng=RngStream(0), steps=150)
        bound = 8.0 * X.stack.linf[0] ** 2 * c1 ** 2
        for s in res.trace:
            assert s.objective - lstar <= bound / (s.step + 2) + 1e-9


def test_stable_lasso_zero_noise_matches_exact(monkeypatch):
    set_scale(monkeypatch, "lasso", 0.0)
    for seed in range(10):
        X, y = random_instance(seed)
        res = stable_lasso(X, y, 1.2, 0.05, 1.0, 1.0, rng=RngStream(seed), steps=40)
        np.testing.assert_array_equal(res.theta, lasso_exact_fw(X, y, 1.2, 40))
        assert res.model == support(res.theta)


def test_stable_lasso_tie_on_zero_response(monkeypatch):
    # every vertex score is 0; both paths take the first argmin, vertex 0
    set_scale(monkeypatch, "lasso", 0.0)
    X, _ = random_instance(1)
    res = stable_lasso(X, np.zeros(X.n), 1.0, 0.05, 1.0, 1.0, rng=RngStream(0), steps=1)
    assert res.trace[0].chosen == 0


def test_stable_lasso_replay():
    X, y = random_instance(2)
    a = stable_lasso(X, y, 1.0, 0.05, 1.0, 1.0, rng=RngStream(11, (2,)), steps=30)
    b = stable_lasso(X, y, 1.0, 0.05, 1.0, 1.0, rng=RngStream(11, (2,)), steps=30)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.trace == b.trace
    assert a.budgets == b.budgets == tuple(certify_budgets(30, 1.0, 0.05))


def test_support_threshold():
    assert support([0.0, 1e-13, -0.5, 2.0]).indices == (2, 3)
    # strictly above SUPPORT_THRESHOLD in magnitude, either sign
    assert support([SUPPORT_THRESHOLD, -SUPPORT_THRESHOLD, 2 * SUPPORT_THRESHOLD,
                    -2 * SUPPORT_THRESHOLD]).indices == (2, 3)


# ---------------------------------------------------------------------------
# penalized solver and the lambda translation


def test_penalized_lasso_one_dimensional():
    X = DesignMatrix([[1.0]])
    np.testing.assert_allclose(alone(solve_penalized_lasso, X, [3.0], 1.0), [2.0], atol=1e-10)


def test_penalized_lasso_kkt(monkeypatch):
    monkeypatch.setattr(selectors, "CD_GAP_TOL", 1e-12)
    X, y = random_instance(4, n=40, d=10)
    lam = 0.05
    theta = alone(solve_penalized_lasso, X, y, lam)
    grad = X.entries.T @ (y - X.entries @ theta)
    for j in range(X.d):
        if theta[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-6
        else:
            assert grad[j] == pytest.approx(lam * np.sign(theta[j]), abs=1e-6)


def test_penalized_lasso_nonconvergence(monkeypatch):
    monkeypatch.setattr(selectors, "CD_GAP_TOL", 1e-14)
    monkeypatch.setattr(selectors, "CD_MAX_SWEEPS", 1)
    X, y = random_instance(6, n=50, d=20)
    with pytest.raises(NonConvergence) as lib:
        alone(solve_penalized_lasso, X, y, 1e-6)
    with pytest.raises(NonConvergence) as ref:
        penalized_lasso_residual(X, y, 1e-6, gap_tol=1e-14, max_sweeps=1)
    assert str(lib.value) == str(ref.value) == \
        "coordinate descent did not reach gap 1e-14 in 1 sweeps"


@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0])
def test_penalized_lasso_rejects_a_bad_lam_up_front(monkeypatch, lam):
    # an infinite penalty made the primal inf * 0 = nan, which never passed
    # the gap test: every sweep ran before NonConvergence
    monkeypatch.setattr(selectors, "CD_MAX_SWEEPS", 1)
    X, y = random_instance(6, n=50, d=20)
    with pytest.raises(ValueError, match=f"^lam must be finite and positive, got {lam}$"):
        alone(solve_penalized_lasso, X, y, lam)


def _penalized_instance(n, d, scale, column=None):
    """X with N(0, scale^2) entries and y = X beta + N(0, 1) noise, beta 5
    on the first three columns (the LASSO sweep benchmark's signal);
    column "zero" zeroes column 1, "copy" makes column 2 a copy of
    column 0."""
    gen = np.random.default_rng(0)
    A = gen.standard_normal((n, d)) * scale
    beta = np.zeros(d)
    beta[:3] = 5.0
    y = A @ beta + gen.standard_normal(n)
    if column == "zero":
        A[:, 1] = 0.0
    elif column == "copy":
        A[:, 2] = A[:, 0]
    return DesignMatrix(A), y


PENALIZED_SHAPES = [
    pytest.param(100, 20, 0.5, 0.1, None, 1e-12, id="sweep-shape"),
    pytest.param(50, 200, 0.5, 50 ** -0.5, None, 1e-12, id="d-above-n"),
    pytest.param(2000, 300, 5.0, 1.0, None, 1e-12, id="tall"),
    pytest.param(100, 20, 100.0, 0.1, None, 1e-12, id="all-zero"),
    pytest.param(40, 10, 0.1, 40 ** -0.5, "zero", 1e-12, id="zero-column"),
    pytest.param(40, 10, 0.1, 40 ** -0.5, "copy", 1e-12, id="copied-column"),
    # thousands of sweeps on a square Gaussian design: rounding has longer
    # to drift, so this point has its own bound
    pytest.param(30, 30, 1e-3, 30 ** -0.5, None, 1e-10, id="ill-conditioned"),
]


@pytest.mark.parametrize("n, d, lam, scale, column, rel", PENALIZED_SHAPES)
def test_penalized_lasso_radius_matches_the_residual_oracle(n, d, lam, scale, column, rel):
    X, y = _penalized_instance(n, d, scale, column)
    theta = alone(solve_penalized_lasso, X, y, lam)
    c1 = float(np.abs(theta).sum())
    ref = float(np.abs(penalized_lasso_residual(X, y, lam)).sum())
    assert abs(c1 - ref) <= rel * ref
    if lam >= np.max(np.abs(X.entries.T @ y)):
        assert c1 == ref == 0.0
    else:
        assert c1 > 0.0
    if column == "zero":
        assert theta[1] == 0.0


def test_lambda_to_c1():
    X = DesignMatrix([[1.0]])
    assert alone(lambda_to_c1, X, [3.0], 1.0) == pytest.approx(2.0, abs=1e-10)
    assert alone(lambda_to_c1, X, [3.0], 3.5) == 0.0
    # lam -> 0 recovers the interpolating solution on a square system
    gen = np.random.default_rng(8)
    A = gen.standard_normal((5, 5))
    Xs = DesignMatrix(A)
    ys = gen.standard_normal(5)
    full = np.abs(np.linalg.solve(A, ys)).sum()
    assert alone(lambda_to_c1, Xs, ys, 1e-8) == pytest.approx(full, rel=1e-4)
    with pytest.raises(ValueError):
        alone(lambda_to_c1, X, [3.0], 0.0)


@pytest.mark.parametrize("n, d, lam, scale, column, rel", PENALIZED_SHAPES)
def test_penalized_lasso_stack_matches_each_trial_alone(n, d, lam, scale, column, rel):
    # 16 trials on one design with their own noise, stacked 16 and 4 deep,
    # and at the sweep shape (the `lam` sweep benchmark's) 64 trials, also
    # stacked 64 deep as in a full sweep block: each trial's solution is
    # the one it reaches alone, bit for bit at the sweep shape and within
    # rel of its radius elsewhere. With noise of 0.1 one ill-conditioned
    # trial does not converge in 100000 sweeps, so that point's noise is
    # 0.001.
    X, y = _penalized_instance(n, d, scale, column)
    noise = 0.001 if n == d == 30 else 1.0
    sweep_shape = (n, d, lam) == (100, 20, 0.5)
    depths = (64, 16, 4) if sweep_shape else (16, 4)
    Y = y + noise * np.random.default_rng(16).standard_normal((depths[0], n))
    want = [alone(lambda_to_c1, X, Y[b], lam) for b in range(depths[0])]
    for depth in depths:
        radii, failed = lambda_to_c1(X.stack.broadcast(depth), Y[:depth], lam)
        assert failed == {}
        for b in range(depth):
            if sweep_shape:
                assert radii[b] == want[b]
            else:
                assert abs(radii[b] - want[b]) <= rel * want[b]


def test_penalized_lasso_stack_matches_the_sweep_blocks_trials_alone():
    # the `lam` sweep benchmark's block, all 60 trials (n=100, d=20, a
    # design per trial, lam=0.5): every radius is bit for bit the one its
    # trial gets alone
    cfg = ExperimentConfig(n=100, d=20, selector=SelectorSpec(method="lasso", lam=0.5, steps=20),
                           trials=60, master_seed=41, active_fraction=0.15,
                           sigma_mode="estimate", eta_grid=(0.25, 0.5, 1.0))
    for trials in block_trials(cfg):
        X, _, _, Y = gen_synthetic(cfg, trials)
        radii, failed = lambda_to_c1(X, Y, 0.5)
        assert failed == {}
        for b in range(len(Y)):
            assert radii[b] == alone(lambda_to_c1, DesignMatrix(X.entries[b]), Y[b], 0.5)


def _straggler_stack():
    """16 trials on 100 x 20 designs whose penalty solves take from 1 to
    hundreds of sweeps at lam 0.5: column 1 nearly copies column 0, which
    slows a trial whose solution takes both, and the responses of trials
    0, 5, 10 and 15 are so small that the penalty zeroes every coordinate."""
    gen = np.random.default_rng(0)
    A = gen.standard_normal((16, 100, 20)) * 0.1
    A[:, :, 1] = A[:, :, 0] + 0.003 * gen.standard_normal((16, 100))
    beta = np.zeros(20)
    beta[:3] = 5.0
    Y = A @ beta + gen.standard_normal((16, 100))
    Y[::5] *= 1e-3
    return DesignStack.checked(A), Y


def _solve_in(max_sweeps: int, X: DesignStack, Y) -> tuple:
    """solve_penalized_lasso of the stack X and responses Y at lam 0.5,
    with CD_MAX_SWEEPS at max_sweeps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selectors, "CD_MAX_SWEEPS", max_sweeps)
        return solve_penalized_lasso(X, Y, 0.5)


def _sweeps_alone(X: DesignStack, y) -> int:
    """The sweeps the penalty solve of y at lam 0.5 on the stack of one X
    takes."""
    lo, hi = 0, 1  # it fails in lo sweeps (none at 0) and converges in hi
    while _solve_in(hi, X, y[None])[1]:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _solve_in(mid, X, y[None])[1] else (lo, mid)
    return hi


def _stuck_alone(X: DesignStack, Y, max_sweeps: int) -> list[int]:
    """The trials whose penalty solve at lam 0.5, each alone, misses the gap
    in max_sweeps sweeps."""
    return [b for b in range(len(Y))
            if _solve_in(max_sweeps, DesignStack.checked(X.entries[b:b + 1]), Y[b:b + 1])[1]]


def test_penalized_lasso_stack_stragglers_finish_as_alone():
    # the stacked sweeps drop the trials that converge; the few left
    # continue one at a time, each to the solution, and the sweep, it
    # reaches alone
    X, Y = _straggler_stack()
    # the stack sweeps past the first sweep, and the trials that take over
    # 100 sweeps are stragglers
    assert 16 > len(_stuck_alone(X, Y, 1)) >= CD_STACK_TRIALS > len(_stuck_alone(X, Y, 100)) > 0
    theta, failed = solve_penalized_lasso(X, Y, 0.5)
    assert failed == {}
    for b in range(16):
        want = alone(solve_penalized_lasso, DesignMatrix(X.entries[b]), Y[b], 0.5)
        assert theta[b].tobytes() == want.tobytes()


def test_penalized_lasso_stack_fails_only_the_stuck_trials():
    # a cap of 1 sweep stops the stacked sweeps with 12 trials live; 50 stops
    # the stragglers alone, and so does one sweep short of a straggler's
    # own count, which it reaches at that count: exactly the trials that
    # need more sweeps fail, each with the one-trial message and a NaN row,
    # and the others keep their solutions
    X, Y = _straggler_stack()
    want = [alone(solve_penalized_lasso, DesignMatrix(X.entries[b]), Y[b], 0.5)
            for b in range(16)]
    straggler = _stuck_alone(X, Y, 100)[0]
    last = _sweeps_alone(DesignStack.checked(X.entries[straggler:straggler + 1]), Y[straggler])
    # the residual-update oracle reaches the gap at the same sweep
    with pytest.raises(NonConvergence):
        penalized_lasso_residual(DesignMatrix(X.entries[straggler]), Y[straggler], 0.5,
                                 max_sweeps=last - 1)
    penalized_lasso_residual(DesignMatrix(X.entries[straggler]), Y[straggler], 0.5,
                             max_sweeps=last)
    for max_sweeps in (1, 50, last - 1, last):
        theta, failed = _solve_in(max_sweeps, X, Y)
        assert sorted(failed) == _stuck_alone(X, Y, max_sweeps)
        assert 0 < len(failed) < 16 and (straggler in failed) == (max_sweeps < last)
        for b in range(16):
            if b in failed:
                assert type(failed[b]) is NonConvergence
                assert str(failed[b]) == \
                    f"coordinate descent did not reach gap 1e-08 in {max_sweeps} sweeps"
                assert np.isnan(theta[b]).all()
            else:
                assert theta[b].tobytes() == want[b].tobytes()


# ---------------------------------------------------------------------------
# marginal screening


def test_screening_exact_identity():
    X = DesignMatrix(np.eye(3))
    assert screening_exact(X, [3.0, 1.0, 2.0], 2).indices == (0, 2)
    assert screening_exact(X, [3.0, 1.0, 2.0], 3).indices == (0, 1, 2)


def test_screening_exact_tie_prefers_lower_index():
    X = DesignMatrix([[1.0, 1.0, 0.5], [2.0, 2.0, 0.1]])
    assert screening_exact(X, [1.0, 1.0], 1).indices == (0,)
    # a negated duplicate ties in absolute value too
    Xn = DesignMatrix([[1.0, -1.0], [2.0, -2.0]])
    assert screening_exact(Xn, [1.0, 1.0], 1).indices == (0,)


def test_screening_exact_validation():
    X = DesignMatrix(np.eye(3))
    with pytest.raises(ValueError):
        screening_exact(X, [1.0, 2.0, 3.0], 0)
    with pytest.raises(ValueError):
        screening_exact(X, [1.0, 2.0, 3.0], 4)
    with pytest.raises(ValueError):
        screening_exact(X, [1.0, 2.0], 1)


def test_stable_screening_zero_noise_matches_exact(monkeypatch):
    set_scale(monkeypatch, "screen", 0.0)
    for seed in range(10):
        X, y = random_instance(seed)
        for k in (1, 3, X.d):
            res = stable_screening(X, y, k, 0.05, 1.0, 1.0, rng=RngStream(seed))
            assert res.model == screening_exact(X, y, k), (seed, k)


def test_stable_screening_trace_fields(monkeypatch):
    set_scale(monkeypatch, "screen", 0.0)
    X, y = random_instance(0)
    res = stable_screening(X, y, 3, 0.05, 1.0, 1.0, rng=RngStream(9))
    assert [s.step for s in res.trace] == [1, 2, 3]
    assert all(s.chosen in res.model for s in res.trace)
    assert all(s.best_exact >= s.exact_score for s in res.trace)
    # zero noise: every round takes the best available score
    assert all(s.best_exact == s.exact_score for s in res.trace)


def test_stable_screening_randomizes(monkeypatch):
    set_scale(monkeypatch, "screen", 0.5)
    X = DesignMatrix(np.eye(2))
    models = {stable_screening(X, [1.0, 0.999], 1, 0.05, 1.0, 1.0, rng=RngStream(s)).model.indices
              for s in range(50)}
    assert models == {(0,), (1,)}


def laplace_pdf_cdf(b):
    dist = scipy.stats.laplace(scale=b)
    return dist.pdf, dist.cdf


def test_stable_screening_selection_law(monkeypatch):
    # P(argmax_i |c_i + xi_i|) against numerical integration, 1e5 seeds
    X = DesignMatrix([[1.0, 0.3, -0.5], [0.2, 1.1, 0.4],
                      [-0.7, 0.5, 0.9], [0.4, -0.2, 0.3]])
    y = np.array([1.0, -0.4, 0.8, 0.3])
    b = 0.6
    c = X.entries.T @ y / X.n
    f, F = laplace_pdf_cdf(b)

    def win_prob(i):
        def integrand(t):
            dens = f(t - c[i]) + f(t + c[i])
            others = 1.0
            for j in range(3):
                if j != i:
                    others *= F(t - c[j]) - F(-t - c[j])
            return dens * others
        val, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
        return val

    probs = np.array([win_prob(i) for i in range(3)])
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    # one block of 1e5 runs, run s on the stream of path (7, s), all at scale b
    set_scale(monkeypatch, "screen", b)
    trials = 100_000
    block = select_runs(SelectorSpec(method="screen", k=1), X.stack.broadcast(trials),
                        np.broadcast_to(y, (trials, X.n)), np.arange(trials),
                        np.ones(trials), None, 0.05, 1.0, 0,
                        [(7, s) for s in range(trials)])
    assert np.all(block.support.sum(axis=1) == 1)
    picks = block.support.argmax(axis=1)
    assert picks[:2000].tolist() == [
        stable_screening(X, y, 1, 0.05, 1.0, 1.0, rng=RngStream(0, (7, s))).model.indices[0]
        for s in range(2000)]
    freqs = np.bincount(picks, minlength=3) / trials
    sig = np.sqrt(probs * (1 - probs) / trials)
    assert np.all(np.abs(freqs - probs) <= 3 * sig), (freqs, probs)


def test_stable_lasso_selection_law(monkeypatch):
    # first-step vertex argmin law for noisy scores a_v + xi_v
    X = DesignMatrix([[0.8, -0.3], [0.1, 0.9], [-0.4, 0.2]])
    y = np.array([0.7, -0.2, 0.5])
    c1, b = 1.0, 0.5
    g = (-2.0 / X.n) * (X.entries.T @ y)
    a = np.concatenate((c1 * g, -c1 * g))
    f, F = laplace_pdf_cdf(b)

    def win_prob(v):
        def integrand(t):
            others = 1.0
            for u in range(4):
                if u != v:
                    others *= 1.0 - F(t - a[u])
            return f(t - a[v]) * others
        val, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, limit=200)
        return val

    probs = np.array([win_prob(v) for v in range(4)])
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    # one block of 1e5 runs, run s on the stream of path (8, s), all at
    # scale b; after one step theta is the chosen vertex, +-c1 on its column
    set_scale(monkeypatch, "lasso", b)
    trials = 100_000
    block = select_runs(SelectorSpec(method="lasso", c1=c1, steps=1), X.stack.broadcast(trials),
                        np.broadcast_to(y, (trials, X.n)), np.arange(trials),
                        np.ones(trials), np.full(trials, c1), 0.05, 1.0, 0,
                        [(8, s) for s in range(trials)])
    assert np.all(block.support.sum(axis=1) == 1)
    cols = block.support.argmax(axis=1)
    picks = cols + X.d * (block.theta[np.arange(trials), cols] < 0)
    assert picks[:2000].tolist() == [
        stable_lasso(X, y, c1, 0.05, 1.0, 1.0, rng=RngStream(0, (8, s)), steps=1).trace[0].chosen
        for s in range(2000)]
    freqs = np.bincount(picks, minlength=4) / trials
    sig = np.sqrt(probs * (1 - probs) / trials)
    assert np.all(np.abs(freqs - probs) <= 3 * sig), (freqs, probs)


# ---------------------------------------------------------------------------
# forward stepwise


def zero_noise_fs_order(X: DesignMatrix, y, k: int) -> list[int]:
    """The pick order of forward stepwise at noise scale 0."""
    with pytest.MonkeyPatch.context() as mp:
        set_scale(mp, "fs", 0.0)
        res = stable_fs(X, y, k, 0.05, 1.0, 1.0, rng=RngStream(0))
    return [s.chosen for s in res.trace]


def test_fs_identity_order():
    X = DesignMatrix(np.eye(2))
    assert zero_noise_fs_order(X, np.array([2.0, 1.0]), 2) == [0, 1]
    assert fs_exact(X, [2.0, 1.0], 2).indices == (0, 1)


def test_fs_zero_noise_breaks_an_exact_tie_by_lowest_index():
    # column 18 is -column 1, so after the first pick their residuals are
    # exact negatives and their scores tie exactly: column 1 must win
    n, d = 60, 20
    gen = np.random.default_rng(7)
    A = gen.standard_normal((n, d)) / math.sqrt(n)
    A[:, 18] = -A[:, 1]
    y = A @ np.repeat([2.0, 0.0], [6, d - 6]) + gen.standard_normal(n)
    order = zero_noise_fs_order(DesignMatrix(A), y, 2)
    q = A[:, order[0]] / np.linalg.norm(A[:, order[0]])
    R = A - np.outer(q, q @ A)
    assert np.array_equal(R[:, 1], -R[:, 18])
    assert order == [5, 1]
    assert fs_exact(DesignMatrix(A), y, 2).indices == (1, 5)


def test_fs_zero_noise_keeps_copies_of_a_column_tied():
    # column 4 copies column 0. The residual update is an einsum, which
    # rounds every column alike; a gemv rounds its tail columns differently,
    # and here it gave the tie of step 2 to the copy, column 4
    gen = np.random.default_rng(4)
    A = gen.standard_normal((30, 5))
    A[:, 4] = A[:, 0]
    y = gen.standard_normal(30)
    assert zero_noise_fs_order(DesignMatrix(A), y, 3) == [2, 0, 1]
    assert fs_exact(DesignMatrix(A), y, 3).indices == (0, 1, 2)


def test_fs_zero_noise_keeps_copies_of_a_column_tied_in_shared_states():
    # the design above in a block: its scale-0 runs share one state, which
    # is gathered away from the state of a noisy run of the same trial, and
    # the tie of step 2 still goes to column 0
    gen = np.random.default_rng(4)
    A = gen.standard_normal((30, 5))
    A[:, 4] = A[:, 0]
    y = gen.standard_normal(30)
    X = [DesignMatrix(gen.standard_normal((30, 5))), DesignMatrix(A)]
    Y = np.stack([gen.standard_normal(30), y])
    trial = np.array([1, 0, 1, 1, 0])
    scales = np.array([0.0, 0.0, 2.0, 0.0, 0.5])
    assert _fs_order(X[1], y, 3, 2.0, 1)[0] != 2  # run 2 leaves the others at step 1
    block = run_kernel(fs_runs, stack(X), Y, 3, trial, scales, None, 31,
                       [(2, t) for t in range(2)])
    assert not block.failed
    for r in (0, 3):
        assert np.flatnonzero(block.support[r]).tolist() == [0, 1, 2]


def test_fs_orthonormal_matches_screening():
    gen = np.random.default_rng(12)
    Q, _ = np.linalg.qr(gen.standard_normal((20, 6)))
    X = DesignMatrix(Q)
    y = gen.standard_normal(20)
    for k in (1, 3, 6):
        assert fs_exact(X, y, k) == screening_exact(X, y, k)


def test_fs_never_reselects_duplicate():
    gen = np.random.default_rng(13)
    base = gen.standard_normal((15, 3))
    X = DesignMatrix(np.column_stack([base, base[:, 0]]))  # col 3 == col 0
    y = base @ np.array([3.0, 1.0, -2.0]) + 0.1 * gen.standard_normal(15)
    model = fs_exact(X, y, 3)
    assert len(model) == 3
    assert not ({0, 3} <= set(model.indices))


def test_fs_all_collinear_raises():
    col = np.array([1.0, 2.0, -1.0])
    X = DesignMatrix(np.column_stack([col, 2 * col, -0.5 * col]))
    with pytest.raises(AllCandidatesCollinear):
        fs_exact(X, col, 2)


def fs_sse_order(X: DesignMatrix, y: np.ndarray, k: int) -> list[int]:
    """Independent forward-stepwise route: per step, refit every candidate
    model from scratch and take the largest squared-error decrease."""
    selected: list[int] = []
    for t in range(k):
        best_j, best_rss = -1, math.inf
        for j in range(X.d):
            if j in selected:
                continue
            sub = X.entries[:, selected + [j]]
            # skip candidates that add no independent direction
            s = np.linalg.svd(sub, compute_uv=False)
            if s[-1] <= FS_COLLINEAR_TOL * s[0]:
                continue
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            resid = y - sub @ coef
            rss = float(resid @ resid)
            if best_j < 0 or rss < best_rss - 1e-12 * (1.0 + best_rss):
                best_j, best_rss = j, rss
        if best_j < 0:
            raise AllCandidatesCollinear(f"step {t + 1}: no independent candidate")
        selected.append(best_j)
    return selected


def test_fs_sse_criterion_agrees_with_correlation():
    # the two formulations agree step by step up to score ties
    for seed in range(20):
        X, y = random_instance(seed, n=30, d=7)
        assert zero_noise_fs_order(X, y, 4) == fs_sse_order(X, y, 4), seed


def test_stable_fs_zero_noise_matches_exact(monkeypatch):
    set_scale(monkeypatch, "fs", 0.0)
    for seed in range(10):
        X, y = random_instance(seed)
        res = stable_fs(X, y, 3, 0.05, 1.0, 1.0, rng=RngStream(seed))
        assert res.model == fs_exact(X, y, 3)


def test_stable_fs_budgets(monkeypatch):
    set_scale(monkeypatch, "fs", 0.0)
    X, y = random_instance(7)
    res = stable_fs(X, y, 5, 0.05, 0.2, 1.0, rng=RngStream(0))
    adv, lin = res.budgets
    assert adv.eta == pytest.approx(1.194665661022395, abs=1e-11)
    assert adv.eta == pytest.approx(compose_adaptive_advanced(0.2, 5, 0.05))
    assert lin.eta == pytest.approx(1.0)


def test_stable_fs_validation():
    X, y = random_instance(1)
    with pytest.raises(ValueError):
        stable_fs(X, y, 0, 0.05, 1.0, 1.0, rng=RngStream(0))
    with pytest.raises(ValueError):
        stable_screening(X, y, X.d + 1, 0.05, 1.0, 1.0, rng=RngStream(0))


# ---------------------------------------------------------------------------
# blocks of runs against the scalar selectors, one run at a time


ETAS = (0.3, 1.0, 4.0)
DELTA, SIGMA = 0.05, 1.0


def block_of(designs, etas=ETAS):
    """Every (trial, eta) run of a block, trial-major, with the paths of the
    trials' streams under master seed 31."""
    trial = np.repeat(np.arange(len(designs)), len(etas))
    eta = np.tile(etas, len(designs))
    return trial, eta, [(2, b) for b in range(len(designs))]


def run_kernel(kernel, X, Y, rounds, trial, scales, c1, master_seed, paths):
    """kernel on a block as select_runs runs it, with the block's one
    _StepDraws and, for a one-run block, a trace: its support, theta,
    failed and trace."""
    traced = [] if len(trial) == 1 else None
    support, theta, failed = kernel(X, Y, rounds, trial, scales, c1,
                                    _StepDraws(master_seed, paths, trial, rounds), traced)
    return SimpleNamespace(support=support, theta=theta, failed=failed,
                           trace=tuple(traced or ()))


def counting_starts(monkeypatch, started):
    """Record in started each (seed, path) that noise.keyed, the selectors'
    generator, is started at; an RngStream starts a generator of its own."""
    start = KeyedGenerator.start

    def counting(self, seed, path):
        if self is noise.keyed:
            started.append((seed, path))
        return start(self, seed, path)
    monkeypatch.setattr(KeyedGenerator, "start", counting)


def test_step_draws_build_each_trial_stream_once_at_the_step_width(monkeypatch):
    started = []
    counting_starts(monkeypatch, started)
    trial, rounds = np.array([0, 0, 2]), np.array([4, 6, 4])
    draws = _StepDraws(31, [(2, b) for b in range(3)], trial, rounds)
    for step in range(1, 7):
        going = trial[rounds >= step]
        rows = draws(step, going, 8 - step)
        assert rows.shape == (len(going), 8 - step)
        for row, b in zip(rows, going):
            fresh = RngStream(31, (2, b)).child(step).standard_laplace(8 - step)
            assert row.tobytes() == fresh.tobytes()
    # each step stream of a trial with runs, up to its most rounds, once;
    # stream 1 has no run
    assert sorted(started) == [(31, (2, 0, t)) for t in range(1, 7)] + \
        [(31, (2, 2, t)) for t in range(1, 5)]


def test_step_draws_of_a_block_are_the_fresh_streams_draws():
    # a block per master seed, the 64-bit extremes included; each run's
    # row is its fresh child stream's draws at the full width
    trial = np.array([4, 0, 3, 0, 2, 1, 4])
    for seed in [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]:
        draws = _StepDraws(seed, [(2, b) for b in range(5)], trial, 9)(9, trial, 7)
        assert draws.shape == (7, 7)
        for row, b in zip(draws, trial):
            fresh = RngStream(seed, (2, b)).child(9).standard_laplace(7)
            assert row.tobytes() == fresh.tobytes()


def test_a_step_row_does_not_depend_on_the_block():
    # trial 2's step-3 row: alone (the one-trial branch), the only trial
    # with runs in a block of four, and beside runs of every other trial
    paths = [(2, b) for b in range(4)]
    alone = _StepDraws(31, paths[2:3], np.array([0]), 3)(3, np.array([0]), 6)
    only = _StepDraws(31, paths, np.array([2, 2]), np.array([3, 5]))(3, np.array([2, 2]), 6)
    trial = np.array([0, 1, 2, 3, 2])
    mixed = _StepDraws(31, paths, trial, np.array([9, 3, 4, 7, 3]))(3, trial, 6)
    assert alone[0].tobytes() == only[0].tobytes() == only[1].tobytes() == \
        mixed[2].tobytes() == mixed[4].tobytes()


def test_select_runs_checks_the_block_once():
    X, y = random_instance(2)
    Y, one = y[None], np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^selector k=9 exceeds d=8$"):
        select_runs(SelectorSpec("screen", k=9), X.stack, Y, one, np.ones(1), None, DELTA,
                    SIGMA, 0, [()])


@pytest.mark.parametrize("spec, c1", [(SelectorSpec("screen", k=3), None),
                                      (SelectorSpec("fs", k=3), None),
                                      (SelectorSpec("lasso", c1=1.0, steps=3), 1.0)])
def test_select_runs_keeps_the_trace_of_a_one_run_block_only(spec, c1):
    X, y = random_instance(2)
    for runs in (1, 2):
        block = select_runs(spec, X.stack, y[None], np.zeros(runs, dtype=np.int64),
                            np.ones(runs), None if c1 is None else np.full(runs, c1), DELTA,
                            SIGMA, 0, [()])
        if runs == 1:
            assert [s.step for s in block.trace] == [1, 2, 3]
        else:
            assert block.trace == ()


def test_select_runs_certifies_before_the_kernel(monkeypatch):
    # a LASSO certificate that overflows at the default step count fails
    # without running the 10000 Frank-Wolfe steps first
    def refuse(*args):
        raise AssertionError("lasso_runs ran for a block that cannot be certified")

    monkeypatch.setattr(selectors, "lasso_runs", refuse)
    X, y = random_instance(2)
    with pytest.raises(ValueError, match=r"^advanced composition of k=10000 rounds "
                                         r"at eta_step=1e\+200 overflows"):
        select_runs(SelectorSpec("lasso", c1=1.0), X.stack, y[None], np.zeros(1, dtype=np.int64),
                    np.array([1e200]), np.ones(1), DELTA, SIGMA, 0, [()])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", ["laplace"])  # the one scale a caller passes
def test_nonfinite_noise_scale_is_rejected(call, bad):
    with pytest.raises(ValueError, match=f"must be finite and >= 0, got {bad}$"):
        getattr(RngStream(0), call)(bad, 4)


def test_screen_runs_match_the_scalar_selector_run_by_run():
    designs = [random_instance(seed, n=25, d=9) for seed in range(3)]
    X, Y = [x for x, _ in designs], np.stack([y for _, y in designs])
    trial, eta, paths = block_of(X)
    scales = np.array([scale_screening(X[b].stack, 0, 4, None, SIGMA, DELTA, e)
                       for b, e in zip(trial, eta)])
    block = run_kernel(screen_runs, stack(X), Y, 4, trial, scales, None, 31, paths)
    for r, (b, e) in enumerate(zip(trial, eta)):
        want = screening_noisy(X[b], Y[b], 4, DELTA, e, SIGMA, RngStream(31, (2, b)))
        assert tuple(np.flatnonzero(block.support[r])) == want.model.indices


def test_fs_runs_fail_alone_and_match_the_scalar_selector():
    gen = np.random.default_rng(4)
    a, b = gen.standard_normal((6, 2)).T
    G = gen.standard_normal((6, 4))
    Y = gen.standard_normal((2, 6))
    Z = G.copy()
    Z[:, 2] = 0.0  # a zero column is never a candidate
    wide = [DesignMatrix(gen.standard_normal((4, 7))) for _ in range(2)]
    Y_wide = gen.standard_normal((2, 4))
    # shared states: trials unsorted and repeated, scale-0 runs among noisy
    # ones. Trial 0 has rank 2 (copies of two columns), so its two scale-0
    # runs share one state that fails at step 3; of trial 2's runs, the two
    # first share every pick and the third leaves them at step 2; trial
    # 1's two runs part at step 1
    gen = np.random.default_rng(27)
    u, v = gen.standard_normal((8, 2)).T
    shared = [DesignMatrix(np.column_stack([u, 2 * u, -u, v, -v, 0.5 * u])),
              *map(DesignMatrix, gen.standard_normal((2, 8, 6)))]
    Y_shared = gen.standard_normal((3, 8))
    shared_scales = [0.0, 0.0, _fs_scale(6, 30.0), 0.0, 0.0, _fs_scale(6, 3.0),
                     _fs_scale(6, 0.3)]
    # (designs, responses, k, trial of each run, runs expected to fail,
    # scales, or None for the scale of eta ETAS[r % 3] at run r)
    blocks = [
        # trial 0: three copies of one column, so step 2 keeps one candidate
        # and step 3 none; trial 1 is a generic design
        ([DesignMatrix(np.column_stack([a, 2 * a, -a, b])), DesignMatrix(G)], Y, 3,
         np.repeat([0, 1], len(ETAS)), [0, 1, 2], None),
        # run 2 keeps 3 of its 4 candidates at step 1, the others all of theirs
        ([DesignMatrix(G), DesignMatrix(Z)], Y, 3, np.array([0, 0, 1, 0]), [], None),
        # d > n: n picks leave no candidate for a step n + 1
        (wide, Y_wide, 4, np.repeat([0, 1], len(ETAS)), [], None),
        (wide, Y_wide, 5, np.repeat([0, 1], len(ETAS)), list(range(6)), None),
        (shared, Y_shared, 3, np.array([2, 0, 2, 1, 0, 2, 1]), [1, 4], shared_scales),
        # trial 1's runs part at step 1, after which every state has one run
        (shared, Y_shared, 3, np.array([1, 2, 1]), [], [0.0, _fs_scale(6, 3.0),
                                                         _fs_scale(6, 0.3)]),
    ]
    orders = [_fs_order(shared[t], Y_shared[t], 3, s, t)
              for t, s in zip([2, 0, 2, 1, 0, 2, 1], shared_scales)]
    assert orders[0] == orders[2]
    assert orders[5][0] == orders[0][0] and orders[5][1] != orders[0][1]
    assert orders[3][0] != orders[6][0] and orders[1] == orders[4] == []
    assert orders[3][0] != _fs_order(shared[1], Y_shared[1], 3, _fs_scale(6, 0.3), 1)[0]
    for X, Y, k, trial, failing, scales in blocks:
        if scales is None:
            scales = [_fs_scale(X[0].d, e, k) for e in np.resize(ETAS, len(trial))]
        paths = [(2, t) for t in range(len(X))]
        block = run_kernel(fs_runs, stack(X), Y, k, trial, np.array(scales), None, 31, paths)
        assert sorted(block.failed) == failing
        for r, (t, scale) in enumerate(zip(trial, scales)):
            rng = RngStream(31, (2, t))
            if r in failing:
                with pytest.raises(AllCandidatesCollinear) as want:
                    fs_noisy(X[t], Y[t], k, DELTA, 1.0, SIGMA, rng, scale)
                assert str(block.failed[r]) == str(want.value)
            else:
                want = fs_noisy(X[t], Y[t], k, DELTA, 1.0, SIGMA, rng, scale)
                assert tuple(np.flatnonzero(block.support[r])) == want.model.indices


def test_fs_runs_of_one_run_take_no_unique(monkeypatch):
    # a one-run block's state is its run: it makes no np.unique
    X, y = random_instance(2, n=20, d=6)
    stream = RngStream(31, (2, 0))
    want = run_kernel(fs_runs, X.stack, y[None], 3, np.array([0]),
                      np.array([_fs_scale(6, ETAS[2])]), None, 31, [(2, 0)]).support

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called on a one-run block")

    monkeypatch.setattr(np, "unique", refuse)
    one = stable_fs(X, y, 3, DELTA, ETAS[2], SIGMA, rng=stream)
    assert one.model.indices == tuple(np.flatnonzero(want[0]))


def test_fs_runs_residualize_in_blocks_as_in_one(monkeypatch):
    # the residual update runs over blocks of FS_UPDATE_BYTES: rows of one
    # state of a tall design, whole states of short ones. In one block (a
    # budget no design reaches) it gives the same bits: the same supports,
    # failures and one-run trace. Column 7 copies column 2, so the scale-0
    # runs meet exact ties; the tall trial 1 has rank 2, so its runs fail
    # at step 3
    budget_rows = selectors.FS_UPDATE_BYTES // (8 * 20)
    n, short, trials = 14000, 100, 100
    # 3 blocks or more: of rows of a tall state, of whole short ones
    assert n > 2 * budget_rows and trials > 2 * (budget_rows // short)
    gen = np.random.default_rng(33)
    A = gen.standard_normal((n, 20)) / math.sqrt(n)
    A[:, 7] = A[:, 2]
    B = gen.standard_normal((n, 2)) @ gen.standard_normal((2, 20))
    tall = stack([DesignMatrix(A), DesignMatrix(B)])
    Y = np.stack([A[:, [2, 5]] @ [0.3, 0.2], B[:, 0]]) + gen.standard_normal((2, n)) / 100
    C = gen.standard_normal((trials, short, 20)) / 10
    C[:, :, 7] = C[:, :, 2]
    many = DesignStack.checked(C)
    Z = C[:, :, 2] * 5.0 + gen.standard_normal((trials, short))
    scale = _fs_scale(20, 1.0)

    def run():
        block = run_kernel(fs_runs, tall, Y, 3, np.array([0, 0, 0, 1, 1]),
                           np.array([0.0, 0.0, scale, 0.0, scale]), None, 31, [(2, 0), (2, 1)])
        one = run_kernel(fs_runs, stack([DesignMatrix(A)]), Y[:1], 4, np.array([0]),
                         np.array([scale]), None, 31, [(2, 0)])
        sweep = run_kernel(fs_runs, many, Z, 3, np.repeat(np.arange(trials), 2),
                           np.tile([0.0, scale], trials), None, 31,
                           [(2, t) for t in range(trials)])
        return (block.support.tobytes(), {r: str(e) for r, e in block.failed.items()},
                one.support.tobytes(), one.trace, sweep.support.tobytes(), sweep.failed)

    blocked = run()
    monkeypatch.setattr(selectors, "FS_UPDATE_BYTES", 2 ** 62)
    assert run() == blocked
    assert sorted(blocked[1]) == [3, 4] and len(blocked[3]) == 4 and blocked[5] == {}


def _fs_scale(d: int, eta: float, k: int = 3) -> float:
    return scale_forward_stepwise(DesignMatrix(np.ones((1, d))).stack, 0, k, None, SIGMA, DELTA,
                                  eta)


def _fs_order(X: DesignMatrix, y, k: int, scale: float, t: int) -> list[int]:
    """The pick order of a one-run forward stepwise on stream (31, (2, t)),
    or [] if it fails."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            set_scale(mp, "fs", scale)
            res = stable_fs(X, y, k, DELTA, 1.0, SIGMA, rng=RngStream(31, (2, t)))
    except AllCandidatesCollinear:
        return []
    return [s.chosen for s in res.trace]


def test_stable_fs_trace_scores_live_candidates_only():
    # column 3 duplicates column 0 and must not be scored once either is
    # picked; the trace is checked against a direct recomputation over the
    # live candidates. Off column 0, y is nearly orthogonal to every
    # column, so the rounding-noise residual of a dead column would
    # outscore the live ones.
    gen = np.random.default_rng(8)
    base = gen.standard_normal((8, 3))
    e = gen.standard_normal(8)
    e -= base @ np.linalg.lstsq(base, e, rcond=None)[0]
    X = DesignMatrix(np.column_stack([base, base[:, 0]]))
    y = 4.0 * base[:, 0] + e + 1e-3 * base[:, 1]
    k, eta = 3, 100.0
    res = stable_fs(X, y, k, DELTA, eta, SIGMA, rng=RngStream(6))
    scale = scale_forward_stepwise(X.stack, 0, k, None, SIGMA, DELTA, eta)
    R, y_res = X.entries.copy(), y.copy()
    picked = []
    # either copy's pick leaves the other's residual as rounding noise
    twin = {0: 3, 3: 0}[res.trace[0].chosen]
    for s in res.trace:
        norms = np.linalg.norm(R, axis=0)
        live = [j for j in np.nonzero(norms > FS_COLLINEAR_TOL * X.stack.col_norms[0])[0]
                if j not in picked]
        if s.step > 1:
            assert twin not in live
        signed = (R[:, live].T @ y_res) / norms[live]
        exact = np.abs(signed)
        noisy = np.abs(signed + RngStream(6).child(s.step).laplace(scale, len(live)))
        assert s.chosen in live
        i = live.index(s.chosen)
        assert i == int(np.argmax(noisy))
        assert s.exact_score == pytest.approx(exact[i], rel=1e-12, abs=0)
        assert s.noisy_score == pytest.approx(noisy[i], rel=1e-12, abs=0)
        assert s.best_exact == pytest.approx(exact.max(), rel=1e-12, abs=0)
        picked.append(s.chosen)
        q = R[:, s.chosen] / np.linalg.norm(R[:, s.chosen])
        R -= np.outer(q, q @ R)
        y_res -= q * float(q @ y_res)
    assert len(res.trace) == k


def test_lasso_runs_retire_at_their_own_step_counts():
    designs = [random_instance(seed, n=20, d=6) for seed in range(2)]
    X, Y = [x for x, _ in designs], np.stack([y for _, y in designs])
    trial, eta, paths = block_of(X)
    c1 = np.array([1.5, 0.7])[trial]
    steps = np.array([3, 9, 5, 1, 7, 9])
    scales = np.array([scale_lasso(X[b].stack, 0, None, c, SIGMA, DELTA, e)
                       for c, b, e in zip(c1, trial, eta)])
    block = run_kernel(lasso_runs, stack(X), Y, steps, trial, scales, c1, 31, paths)
    for r, (b, e) in enumerate(zip(trial, eta)):
        want = lasso_noisy(X[b], Y[b], c1[r], DELTA, e, SIGMA, RngStream(31, (2, b)),
                           int(steps[r]))
        assert block.theta[r].tobytes() == want.theta.tobytes()


def test_one_run_lasso_matches_the_scalar_selector_with_its_trace():
    X, y = random_instance(5, n=30, d=7)
    res = stable_lasso(X, y, 1.2, DELTA, 1.0, SIGMA, rng=RngStream(3), steps=6)
    want = lasso_noisy(X, y, 1.2, DELTA, 1.0, SIGMA, RngStream(3), 6)
    assert res.theta.tobytes() == want.theta.tobytes()
    assert [s.step for s in res.trace] == list(range(1, 7))
    assert all(s.best_exact <= s.exact_score for s in res.trace)
