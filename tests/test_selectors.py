"""Exact and noisy selectors.

Oracles: the selection laws of the noisy argmax/argmin are integrated in
closed form (scipy quadrature over Laplace densities) and compared to
Monte Carlo frequencies over 1e5 seeded runs; exact-selector fixtures are
small enough to enumerate by hand; the penalized solver is checked against
its KKT conditions.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from stableci.errors import AllCandidatesCollinear, NonConvergence
from stableci.linmodel import DesignMatrix, ModelSet
from stableci.noise import RngStream, Subgaussian
from stableci.selectors import (FS_COLLINEAR_TOL, SUPPORT_THRESHOLD,
                                certify_budgets, fs_exact, lasso_exact_fw,
                                lambda_to_c1, screening_exact,
                                solve_penalized_lasso, stable_fs,
                                stable_lasso, stable_screening, support,
                                _default_fw_steps, _fs_correlation_order)
from stableci.stability import StabilityBudget, compose_adaptive_advanced


UNIT = Subgaussian(1.0)


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
        stable_lasso(X, y, 0.0, 0.05, 1.0, UNIT, rng=RngStream(0))
    with pytest.raises(ValueError):
        stable_lasso(X, y, 1.0, 0.05, 1.0, UNIT, rng=RngStream(0), steps=0)
    with pytest.raises(ValueError):
        stable_lasso(X, y, 1.0, 1.5, 1.0, UNIT, rng=RngStream(0))
    for c1 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            stable_lasso(X, y, c1, 0.05, 1.0, UNIT, rng=RngStream(0))


def test_lasso_resolved_steps():
    X = DesignMatrix([[2.0, 0.0], [0.0, 1.0]])
    # ceil(n linf^2 c1 eta / (sigma l2inf)) = ceil(2*4*3*1 / (1*2)) = 12
    assert _default_fw_steps(X, 3.0, 1.0, UNIT) == 12
    assert len(stable_lasso(X, [1.0, 1.0], 3.0, 0.05, 1.0, UNIT, rng=RngStream(0)).trace) == 12
    assert len(stable_lasso(X, [1.0, 1.0], 3.0, 0.05, 1.0, UNIT, rng=RngStream(0),
                            steps=7).trace) == 7
    assert _default_fw_steps(X, 1e9, 1.0, UNIT) == 10_000
    assert _default_fw_steps(X, 1e-12, 1.0, UNIT) == 1


def test_fw_one_dimensional():
    # theta* = 1 on the l1 ball boundary; curvature C_L <= 4
    X = DesignMatrix([[1.0]])
    theta = lasso_exact_fw(X, [3.0], 1.0, 400)
    assert theta[0] == pytest.approx(1.0, abs=0.01)
    loss = (3.0 - theta[0]) ** 2
    assert loss - 4.0 <= 2 * 4.0 / (400 + 2)


def test_fw_zero_response_stays_near_optimal():
    X, _ = random_instance(0)
    res = stable_lasso(X, np.zeros(X.n), 1.0, 0.05, 1.0, UNIT, rng=RngStream(0), steps=100,
                       scale_override=0.0)
    bound = [8.0 * X.linf_norm ** 2 / (t + 2) for t in range(1, 101)]
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
    gap_bound = 2 * 4.0 * X.linf_norm ** 2 * c1 ** 2 / (steps + 2)
    assert np.max(np.abs(theta - target)) <= math.sqrt(30 * gap_bound)


def test_fw_trace_objective_matches_replay():
    X, y = random_instance(3)
    res = stable_lasso(X, y, 1.5, 0.05, 1.0, UNIT, rng=RngStream(1), steps=5,
                       scale_override=0.0)
    for k in range(1, 6):
        theta_k = lasso_exact_fw(X, y, 1.5, k)
        r = y - X.entries @ theta_k
        np.testing.assert_allclose(res.trace[k - 1].objective, (r @ r) / X.n,
                                   rtol=1e-9)


def test_fw_gap_bound_against_cd_oracle():
    for seed in (0, 1, 2):
        gen = np.random.default_rng(seed)
        n, d, c1 = 40, 12, 1.0
        X = DesignMatrix(gen.standard_normal((n, d)) / math.sqrt(n))
        beta = np.zeros(d)
        beta[:3] = 2.0
        y = X.entries @ beta + gen.standard_normal(n)
        lstar = constrained_lstar_lower(X, y, c1)
        res = stable_lasso(X, y, c1, 0.05, 1.0, UNIT, rng=RngStream(0), steps=150,
                           scale_override=0.0)
        bound = 8.0 * X.linf_norm ** 2 * c1 ** 2
        for s in res.trace:
            assert s.objective - lstar <= bound / (s.step + 2) + 1e-9


def constrained_lstar_lower(X: DesignMatrix, y, c1: float) -> float:
    """Lower bound on min ||y - X theta||^2 / n over the l1 ball via the
    penalized dual: for any lam, L* >= (2/n)(dual(lam) - lam c1)."""
    y = np.asarray(y, dtype=np.float64)
    theta = ols_like(X, y)
    if theta is not None and np.abs(theta).sum() <= c1:
        r = y - X.entries @ theta
        return float(r @ r) / X.n
    lam_hi = float(np.max(np.abs(X.entries.T @ y)))
    lo, hi = 1e-6 * lam_hi, lam_hi
    best = -math.inf
    for _ in range(60):
        lam = 0.5 * (lo + hi)
        th = solve_penalized_lasso(X, y, lam, gap_tol=1e-10)
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


def ols_like(X: DesignMatrix, y):
    try:
        coef, *_ = np.linalg.lstsq(X.entries, y, rcond=None)
        return coef
    except np.linalg.LinAlgError:
        return None


def test_stable_lasso_zero_noise_matches_exact():
    for seed in range(10):
        X, y = random_instance(seed)
        res = stable_lasso(X, y, 1.2, 0.05, 1.0, UNIT, rng=RngStream(seed), steps=40,
                           scale_override=0.0)
        np.testing.assert_array_equal(res.theta, lasso_exact_fw(X, y, 1.2, 40))
        assert res.model == support(res.theta, SUPPORT_THRESHOLD)


def test_stable_lasso_tie_on_zero_response():
    # every vertex score is 0; both paths take the first argmin, vertex 0
    X, _ = random_instance(1)
    res = stable_lasso(X, np.zeros(X.n), 1.0, 0.05, 1.0, UNIT, rng=RngStream(0), steps=1,
                       scale_override=0.0)
    assert res.trace[0].chosen == 0


def test_stable_lasso_replay():
    X, y = random_instance(2)
    a = stable_lasso(X, y, 1.0, 0.05, 1.0, UNIT, rng=RngStream(11, (2,)), steps=30)
    b = stable_lasso(X, y, 1.0, 0.05, 1.0, UNIT, rng=RngStream(11, (2,)), steps=30)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.trace == b.trace
    assert a.budgets == b.budgets == tuple(certify_budgets(30, 1.0, 0.05))


def test_support_threshold():
    assert support([0.0, 1e-13, -0.5, 2.0]).indices == (2, 3)
    assert support([0.4, -0.4], threshold=0.5).indices == ()
    with pytest.raises(ValueError):
        support([1.0], threshold=-1.0)


# ---------------------------------------------------------------------------
# penalized solver and the lambda translation


def test_penalized_lasso_one_dimensional():
    X = DesignMatrix([[1.0]])
    np.testing.assert_allclose(solve_penalized_lasso(X, [3.0], 1.0), [2.0],
                               atol=1e-10)


def test_penalized_lasso_kkt():
    X, y = random_instance(4, n=40, d=10)
    lam = 0.05
    theta = solve_penalized_lasso(X, y, lam, gap_tol=1e-12)
    grad = X.entries.T @ (y - X.entries @ theta)
    for j in range(X.d):
        if theta[j] == 0.0:
            assert abs(grad[j]) <= lam + 1e-6
        else:
            assert grad[j] == pytest.approx(lam * np.sign(theta[j]), abs=1e-6)


def test_penalized_lasso_nonconvergence():
    X, y = random_instance(6, n=50, d=20)
    with pytest.raises(NonConvergence):
        solve_penalized_lasso(X, y, 1e-6, gap_tol=1e-14, max_sweeps=1)


def test_lambda_to_c1():
    X = DesignMatrix([[1.0]])
    assert lambda_to_c1(X, [3.0], 1.0) == pytest.approx(2.0, abs=1e-10)
    assert lambda_to_c1(X, [3.0], 3.5) == 0.0
    # lam -> 0 recovers the interpolating solution on a square system
    gen = np.random.default_rng(8)
    A = gen.standard_normal((5, 5))
    Xs = DesignMatrix(A)
    ys = gen.standard_normal(5)
    full = np.abs(np.linalg.solve(A, ys)).sum()
    assert lambda_to_c1(Xs, ys, 1e-8) == pytest.approx(full, rel=1e-4)
    with pytest.raises(ValueError):
        lambda_to_c1(X, [3.0], 0.0)


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


def test_stable_screening_zero_noise_matches_exact():
    for seed in range(10):
        X, y = random_instance(seed)
        for k in (1, 3, X.d):
            res = stable_screening(X, y, k, 0.05, 1.0, rng=RngStream(seed),
                                   scale_override=0.0)
            assert res.model == screening_exact(X, y, k), (seed, k)


def test_stable_screening_trace_fields():
    X, y = random_instance(0)
    res = stable_screening(X, y, 3, 0.05, 1.0, rng=RngStream(9), scale_override=0.0)
    assert [s.step for s in res.trace] == [1, 2, 3]
    assert all(s.chosen in res.model for s in res.trace)
    assert all(s.best_exact >= s.exact_score for s in res.trace)
    # zero noise: every round takes the best available score
    assert all(s.best_exact == s.exact_score for s in res.trace)


def test_stable_screening_randomizes():
    X = DesignMatrix(np.eye(2))
    models = {stable_screening(X, [1.0, 0.999], 1, 0.05, 1.0,
                               rng=RngStream(s), scale_override=0.5).model.indices
              for s in range(50)}
    assert models == {(0,), (1,)}


def laplace_pdf_cdf(b):
    dist = scipy.stats.laplace(scale=b)
    return dist.pdf, dist.cdf


def test_stable_screening_selection_law():
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

    trials = 100_000
    counts = np.zeros(3)
    for s in range(trials):
        res = stable_screening(X, y, 1, 0.05, 1.0, rng=RngStream(s, (7,)),
                               scale_override=b)
        counts[res.model.indices[0]] += 1
    freqs = counts / trials
    sig = np.sqrt(probs * (1 - probs) / trials)
    assert np.all(np.abs(freqs - probs) <= 3 * sig), (freqs, probs)


def test_stable_lasso_selection_law():
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

    trials = 100_000
    counts = np.zeros(4)
    for s in range(trials):
        res = stable_lasso(X, y, c1, 0.05, 1.0, UNIT, rng=RngStream(s, (8,)), steps=1,
                           scale_override=b)
        counts[res.trace[0].chosen] += 1
    freqs = counts / trials
    sig = np.sqrt(probs * (1 - probs) / trials)
    assert np.all(np.abs(freqs - probs) <= 3 * sig), (freqs, probs)


# ---------------------------------------------------------------------------
# forward stepwise


def test_fs_identity_order():
    X = DesignMatrix(np.eye(2))
    order, trace = _fs_correlation_order(X, np.array([2.0, 1.0]), 2, 0.0, None)
    assert order == [0, 1]
    assert fs_exact(X, [2.0, 1.0], 2).indices == (0, 1)


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
        corr_order, _ = _fs_correlation_order(X, y, 4, 0.0, None)
        assert corr_order == fs_sse_order(X, y, 4), seed


def test_stable_fs_zero_noise_matches_exact():
    for seed in range(10):
        X, y = random_instance(seed)
        res = stable_fs(X, y, 3, 0.05, 1.0, rng=RngStream(seed), scale_override=0.0)
        assert res.model == fs_exact(X, y, 3)


def test_stable_fs_budgets():
    X, y = random_instance(7)
    res = stable_fs(X, y, 5, 0.05, 0.2, rng=RngStream(0), scale_override=0.0)
    adv, lin = res.budgets
    assert adv.eta == pytest.approx(1.194665661022395, abs=1e-11)
    assert adv.eta == pytest.approx(compose_adaptive_advanced(0.2, 5, 0.05))
    assert lin.eta == pytest.approx(1.0)


def test_stable_fs_validation():
    X, y = random_instance(1)
    with pytest.raises(ValueError):
        stable_fs(X, y, 0, 0.05, 1.0, rng=RngStream(0))
    with pytest.raises(ValueError):
        stable_screening(X, y, X.d + 1, 0.05, 1.0, rng=RngStream(0))
