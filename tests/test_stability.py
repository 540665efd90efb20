"""Quantiles, budget composition, and level-correction arithmetic.

Quantile oracles: scipy.stats (and mpmath for one deep-tail point), applied
through posi_constant. Composition oracles: exact arithmetic / big-integer
binomial sums.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from stableci.errors import BadWeights, DegenerateLevel, EmptyInput, MixedSlack, RankDeficient
from stableci.linmodel import DesignMatrix, ModelSet
from stableci.stability import (IntervalSet, StabilityBudget, align_slack, best_posi_constant,
                                certify_budgets, compose_adaptive_advanced,
                                compose_adaptive_simple,
                                corrected_level, eta_step_for_total, infer, infer_runs,
                                posi_constant,
                                slack_allowance, sparse_selection_eta)

B0 = StabilityBudget(0.0, 0.0, 0.0)

# ---------------------------------------------------------------------------
# quantiles
#
# posi_constant at model size 1, level 2t and a zero budget is the upper
# t-quantile -F^{-1}(t). The level must stay below 1, so the median p = 1/2
# is approached from the largest level below 1.


def quantile(p, dof=None):
    """F^{-1}(p) of the normal (or Student-t) law, read off posi_constant."""
    tail = min(p, 1.0 - p)
    K = posi_constant(1, min(2.0 * tail, np.nextafter(1.0, 0.0)), B0, dof)
    return -K if p < 0.5 else K


@pytest.mark.parametrize("p", [1e-12, 1e-8, 1e-4, 0.0125, 0.025, 0.3, 0.5,
                               0.7, 0.975, 0.9875])
def test_normal_quantile_against_scipy(p):
    np.testing.assert_allclose(quantile(p), scipy.stats.norm.ppf(p),
                               rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("tail", [1e-8, 1e-12])
def test_normal_quantile_extreme_upper_tail(tail):
    # near p = 1 the tail mass 1 - p has already lost digits to cancellation;
    # the precise route is passing the tail mass itself, as posi_constant does
    np.testing.assert_allclose(quantile(1 - tail),
                               scipy.stats.norm.ppf(1 - tail), atol=1e-8)
    np.testing.assert_allclose(posi_constant(1, 2 * tail, B0),
                               scipy.stats.norm.isf(tail), rtol=1e-12)


def test_normal_quantile_frozen_points():
    assert posi_constant(1, 0.05, B0) == pytest.approx(1.9599639845400545, abs=1e-12)
    assert posi_constant(1, 0.025, B0) == pytest.approx(2.241402727604947, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_normal_quantile_domain(p):
    with pytest.raises(ValueError):
        posi_constant(1, 2.0 * p, B0)


def test_normal_quantile_deep_tail_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 300  # 1 - 2e-250 must stay away from 1
    p = 1e-250
    ref = float(-mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p)))
    np.testing.assert_allclose(-posi_constant(1, 2 * p, B0), ref, rtol=1e-12)


@pytest.mark.parametrize("dof", [1, 2, 5, 30, 200])
@pytest.mark.parametrize("p", [0.005, 0.025, 0.3, 0.5, 0.9, 0.999])
def test_t_quantile_against_scipy(p, dof):
    np.testing.assert_allclose(quantile(p, dof), scipy.stats.t.ppf(p, dof),
                               rtol=1e-9, atol=1e-12)


def test_t_quantile_exceeds_normal():
    # heavier tails: same level needs a wider multiplier at small dof
    assert posi_constant(1, 0.05, B0, 3) > posi_constant(1, 0.05, B0)
    assert posi_constant(1, 0.05, B0, 3000) == pytest.approx(
        posi_constant(1, 0.05, B0), rel=1e-3)


def test_t_quantile_needs_a_degree_of_freedom():
    with pytest.raises(ValueError, match="dof"):
        posi_constant(1, 0.05, B0, 0)
    with pytest.raises(ValueError, match="dof"):
        best_posi_constant(1, 0.05, [B0], 0)
    # a NaN dof gave K = nan, and a fractional dof or model size a K
    for dof in (math.nan, math.inf, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="^dof must be an integer"):
            posi_constant(1, 0.05, B0, dof)
        with pytest.raises(ValueError, match="^dof must be an integer"):
            best_posi_constant(1, 0.05, [B0], dof)
    for size in (1.5, 2.0, math.nan, True):
        with pytest.raises(ValueError, match="^model_size must be an integer"):
            posi_constant(size, 0.05, B0)
        with pytest.raises(ValueError, match="^model_size must be an integer"):
            best_posi_constant(size, 0.05, [B0], 5)
    assert posi_constant(np.int64(2), 0.05, B0, np.int64(5)) == posi_constant(2, 0.05, B0, 5)


@settings(deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.5, exclude_max=True))
def test_normal_quantile_symmetry(p):
    # the negated lower-tail quantile is the upper one, -F^{-1}(p) = F^{-1}(1 - p)
    assert posi_constant(1, 2.0 * p, B0) == pytest.approx(scipy.stats.norm.isf(p), abs=1e-11)


# ---------------------------------------------------------------------------
# budgets and allocations


def test_stability_budget_validation():
    b = StabilityBudget(1.0, 0.2, 0.3)
    assert b.slack == pytest.approx(0.5)
    StabilityBudget(0.0, 0.0, 1.0)  # vacuous but representable
    for bad in [(-1.0, 0, 0), (float("inf"), 0, 0), (1.0, -0.1, 0),
                (1.0, 1.1, 0), (1.0, 0, -0.1), (1.0, 0, 1.5)]:
        with pytest.raises(ValueError):
            StabilityBudget(*bad)


def test_alpha_split_default_thirds():
    # the tau and nu thirds, added: the sweep halves this sum bit for bit
    third = 0.1 / 3.0
    assert slack_allowance(0.1) == third + third


def test_alpha_split_weights():
    assert slack_allowance(0.05, (1.0, 0.0, 0.0)) == 0.0
    assert slack_allowance(0.1, (0.5, 0.25, 0.25)) == 0.1 * 0.25 + 0.1 * 0.25
    assert slack_allowance(0.3, (0.2, 0.1, 0.7)) == 0.3 * 0.1 + 0.3 * 0.7


@pytest.mark.parametrize("w", [(0.0, 0.5, 0.5), (-0.2, 0.6, 0.6),
                               (0.5, 0.5, 0.5), (0.5, 0.5), (1.0, 0.0, 0.0, 0.0),
                               (math.nan, 0.5, 0.5)])
def test_alpha_split_bad_weights(w):
    with pytest.raises(BadWeights):
        slack_allowance(0.1, w)


def test_alpha_split_bad_alpha():
    for alpha in (1.5, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="^alpha must be in"):
            slack_allowance(alpha)


# ---------------------------------------------------------------------------
# composition


def test_compose_simple_exact():
    assert compose_adaptive_simple(0.1, 0.0, 10) == (pytest.approx(1.0), 0.0)
    eta, tau = compose_adaptive_simple(0.05, 0.001, 20)
    assert eta == pytest.approx(1.0) and tau == pytest.approx(0.02)
    with pytest.raises(ValueError):
        compose_adaptive_simple(0.1, 0.0, 0)


def test_compose_advanced_oracle():
    # 1/2*10*0.01 + sqrt(20*ln 20)*0.1, evaluated independently
    ref = 0.5 * 10 * 0.1 ** 2 + math.sqrt(2 * 10 * math.log(1 / 0.05)) * 0.1
    got = compose_adaptive_advanced(0.1, 10, 0.05)
    assert got == pytest.approx(ref, abs=1e-15)
    assert got == pytest.approx(0.82404551204099, abs=1e-11)
    assert compose_adaptive_advanced(0.0, 10, 0.05) == 0.0


def test_compose_advanced_validation():
    with pytest.raises(ValueError):
        compose_adaptive_advanced(0.1, 10, 0.0)
    with pytest.raises(ValueError):
        compose_adaptive_advanced(-0.1, 10, 0.05)


def test_sparse_selection_eta_small():
    # sum_{k<=3} C(10,k) = 175; 175/0.05 = 3500
    assert sparse_selection_eta(10, 3, 0.05) == pytest.approx(math.log(3500), abs=1e-9)


def test_sparse_selection_eta_big_integer_oracle():
    d, s, tau = 500, 10, 0.05
    exact = math.log(sum(math.comb(d, k) for k in range(1, s + 1))) - math.log(tau)
    got = sparse_selection_eta(d, s, tau)
    assert math.isfinite(got)
    np.testing.assert_allclose(got, exact, rtol=1e-10)
    np.testing.assert_allclose(got, 49.96735826034157, rtol=1e-12)


def test_sparse_selection_eta_validation():
    with pytest.raises(ValueError):
        sparse_selection_eta(10, 0, 0.05)
    with pytest.raises(ValueError):
        sparse_selection_eta(10, 11, 0.05)
    with pytest.raises(ValueError):
        sparse_selection_eta(10, 3, 0.0)


def test_eta_step_for_total_hits_target():
    for k, delta, total in [(3, 1 / 30, 1.0), (20, 1 / 30, 1.0), (10, 0.05, 0.5),
                            (1, 0.1, 2.0), (200, 0.01, 1.0)]:
        step = eta_step_for_total(k, delta, total)
        best = min(k * step, compose_adaptive_advanced(step, k, delta))
        assert best == pytest.approx(total, rel=1e-9), (k, delta, total)


def test_eta_step_for_total_linear_branch():
    # at k=3 the linear certificate governs and the step is total/k
    assert eta_step_for_total(3, 1 / 30, 1.0) == pytest.approx(1 / 3)


@pytest.mark.parametrize("k", [0, -1])
def test_eta_step_for_total_needs_a_round(k):
    # k = 0 divided by zero
    with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
        eta_step_for_total(k, 0.05, 1.0)


def test_composition_that_overflows_names_eta_step():
    # k * eta_step overflows to inf, eta_step ** 2 raises OverflowError, and
    # 0.5 * k * eta_step ** 2 overflows to inf only after the square
    for call in (lambda: compose_adaptive_simple(1e308, 0.0, 3),
                 lambda: compose_adaptive_advanced(1e200, 2, 0.05),
                 lambda: compose_adaptive_advanced(1e154, 10 ** 9, 0.05),
                 lambda: certify_budgets(2, 1e200, 0.05)):
        with pytest.raises(ValueError, match=r"eta_step=1e\+\d+.* overflows"):
            call()
    # the largest finite results are the formula's, unchanged
    assert compose_adaptive_simple(1e308, 0.0, 1) == (1e308, 0.0)
    assert compose_adaptive_advanced(1e150, 2, 0.05) == \
        0.5 * 2 * 1e150 ** 2 + math.sqrt(2.0 * 2 * math.log(1.0 / 0.05)) * 1e150


@pytest.mark.parametrize("k", [2.5, 2.0, True, "3"])
def test_round_count_must_be_an_integer(k):
    # 2.5 rounds gave a 2.5-round certificate and eta_step_for_total 0.4;
    # 2.0 and True equal a cached 2 and 1
    certify_budgets(2, 0.1, 0.05), certify_budgets(1, 0.1, 0.05)
    for call in (lambda: compose_adaptive_simple(0.1, 0.0, k),
                 lambda: compose_adaptive_advanced(0.1, k, 0.05),
                 lambda: certify_budgets(k, 0.1, 0.05),
                 lambda: eta_step_for_total(k, 0.05, 1.0)):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            call()


def test_round_count_may_be_a_numpy_integer():
    assert certify_budgets(np.int64(3), 0.1, 0.05) == certify_budgets(3, 0.1, 0.05)
    assert eta_step_for_total(np.int64(3), 1 / 30, 1.0) == eta_step_for_total(3, 1 / 30, 1.0)


# ---------------------------------------------------------------------------
# corrected levels and constants


def test_corrected_level_identity_at_zero_budget():
    assert corrected_level(0.05, StabilityBudget(0.0, 0.0, 0.0)) == 0.05


def test_corrected_level_formula():
    got = corrected_level(0.05, StabilityBudget(1.0, 0.0, 0.1))
    assert got == pytest.approx(0.05 * 0.9 * math.exp(-1.0), abs=1e-15)


def test_corrected_level_degenerates():
    with pytest.raises(DegenerateLevel):
        corrected_level(0.05, StabilityBudget(0.0, 0.0, 1.0))
    with pytest.raises(DegenerateLevel):
        corrected_level(0.05, StabilityBudget(5000.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        corrected_level(0.0, StabilityBudget(0.0, 0.0, 0.0))


def test_posi_constant_classical():
    K = posi_constant(2, 0.05, StabilityBudget(0.0, 0.0, 0.0))
    assert K == pytest.approx(2.241402727604947, abs=1e-12)
    np.testing.assert_allclose(K, scipy.stats.norm.ppf(1 - 0.05 / 4), rtol=1e-12)


def test_posi_constant_with_eta():
    K = posi_constant(1, 0.05, StabilityBudget(1.0, 0.0, 0.0))
    assert K == pytest.approx(2.357590481797843, abs=1e-12)
    np.testing.assert_allclose(
        K, scipy.stats.norm.ppf(1 - 0.025 * math.exp(-1.0)), rtol=1e-12)


def test_posi_constant_estimated_sigma():
    K = posi_constant(2, 0.05, StabilityBudget(0.0, 0.0, 0.0), 7)
    np.testing.assert_allclose(K, scipy.stats.t.ppf(1 - 0.0125, 7), rtol=1e-9)
    assert K > posi_constant(2, 0.05, StabilityBudget(0.0, 0.0, 0.0), None)


def test_posi_constant_monotonicity_grid():
    deltas = [0.01, 0.05, 0.1, 0.2]
    etas = [0.0, 0.5, 1.0, 2.0]
    sizes = [1, 2, 5, 10]
    for delta in deltas:
        for m in sizes:
            ks = [posi_constant(m, delta, StabilityBudget(e, 0.0, 0.0)) for e in etas]
            assert all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))
    for delta in deltas:
        for e in etas:
            ks = [posi_constant(m, delta, StabilityBudget(e, 0.0, 0.0)) for m in sizes]
            assert all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))
    for m in sizes:
        for e in etas:
            ks = [posi_constant(m, d, StabilityBudget(e, 0.0, 0.0)) for d in deltas]
            assert all(a >= b - 1e-12 for a, b in zip(ks, ks[1:]))


def test_posi_constant_validation():
    with pytest.raises(ValueError):
        posi_constant(0, 0.05, StabilityBudget(0.0, 0.0, 0.0))


def test_align_slack_pads_nu():
    out = align_slack([StabilityBudget(0.8, 0.05, 0.05), StabilityBudget(1.0, 0.0, 0.05)])
    assert [b.slack for b in out] == pytest.approx([0.1, 0.1])
    # eta and tau untouched; only nu is padded
    assert out[0] == StabilityBudget(0.8, 0.05, 0.05)
    assert (out[1].eta, out[1].tau, out[1].nu) == (1.0, 0.0, pytest.approx(0.1))
    with pytest.raises(EmptyInput):
        align_slack([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 3), st.floats(0, 0.2), st.floats(0, 0.2)),
                min_size=1, max_size=5))
def test_align_slack_equalizes(triples):
    budgets = [StabilityBudget(*t) for t in triples]
    out = align_slack(budgets)
    target = max(b.slack for b in budgets)
    for before, after in zip(budgets, out):
        assert after.slack == pytest.approx(target, abs=1e-12)
        assert after.eta == before.eta and after.tau == before.tau
        assert after.nu >= before.nu - 1e-15


def test_best_posi_constant_prefers_advanced_rate():
    cands = align_slack(certify_budgets(10, 0.1, 0.05))
    K, chosen = best_posi_constant(1, 0.05, cands)
    assert chosen.eta == pytest.approx(0.82404551204099, abs=1e-11)
    others = [posi_constant(1, 0.05, b) for b in cands]
    assert K == pytest.approx(min(others))


def test_best_posi_constant_rejects_mixed_slack():
    with pytest.raises(MixedSlack):
        best_posi_constant(1, 0.05, [StabilityBudget(1.0, 0.0, 0.0),
                                     StabilityBudget(1.0, 0.05, 0.0)])


def test_best_posi_constant_skips_degenerate_candidates():
    cands = [StabilityBudget(2000.0, 0.0, 0.05), StabilityBudget(1.0, 0.0, 0.05)]
    K, chosen = best_posi_constant(1, 0.05, cands)
    assert chosen.eta == 1.0 and math.isfinite(K)
    with pytest.raises(DegenerateLevel):
        best_posi_constant(1, 0.05, [StabilityBudget(2000.0, 0.0, 0.05)])
    with pytest.raises(EmptyInput):
        best_posi_constant(1, 0.05, [])


def test_build_intervals():
    # intercept + slope through (0,0),(1,1),(2,2): estimates (0, 1) exactly
    X = DesignMatrix([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    M = ModelSet((0, 1))
    ivals = infer(X, [0.0, 1.0, 2.0], M, [B0], 0.05, 2.0)
    assert isinstance(ivals, IntervalSet) and ivals.model is M
    assert (ivals.level, ivals.budget, ivals.sigma) == (0.05, B0, 2.0)
    np.testing.assert_allclose(ivals.estimates, [0.0, 1.0], atol=1e-12)
    # (X^T X)^{-1} = [[5,-3],[-3,3]]/6
    np.testing.assert_allclose(ivals.stderrs, 2.0 * np.sqrt([5 / 6, 1 / 2]), rtol=1e-12)
    np.testing.assert_allclose(ivals.K, scipy.stats.norm.ppf(1 - 0.05 / 4), rtol=1e-12)
    np.testing.assert_array_equal(ivals.lower, ivals.estimates - ivals.K * ivals.stderrs)
    np.testing.assert_array_equal(ivals.upper, ivals.estimates + ivals.K * ivals.stderrs)


def test_infer_spends_the_aligned_slack():
    gen = np.random.default_rng(3)
    X = DesignMatrix(gen.standard_normal((30, 4)))
    y = gen.standard_normal(30)
    M = ModelSet((0, 2))
    cands = [StabilityBudget(0.8, 0.02, 0.02), StabilityBudget(1.0, 0.0, 0.02)]
    ivals = infer(X, y, M, cands, 0.1, 1.0)
    assert ivals.level == pytest.approx(0.06)
    K, chosen = best_posi_constant(2, 0.1 - 0.04, align_slack(cands))
    assert (ivals.K, ivals.budget) == (K, chosen)
    # a weight split fixes the level; its tau + nu share must cover the slack
    assert infer(X, y, M, cands, 0.1, 1.0, (0.5, 0.25, 0.25)).level == 0.05
    with pytest.raises(BadWeights):
        infer(X, y, M, cands, 0.1, 1.0, (0.98, 0.01, 0.01))
    with pytest.raises(DegenerateLevel):
        infer(X, y, M, cands, 0.04, 1.0)


def test_infer_estimated_sigma_and_empty_model():
    gen = np.random.default_rng(4)
    X = DesignMatrix(gen.standard_normal((12, 3)))
    y = gen.standard_normal(12)
    ivals = infer(X, y, ModelSet((1,)), [B0], 0.1, None)
    resid = y - X.entries @ np.linalg.lstsq(X.entries, y, rcond=None)[0]
    np.testing.assert_allclose(ivals.sigma, np.sqrt(resid @ resid / 9), rtol=1e-12)
    np.testing.assert_allclose(ivals.K, scipy.stats.t.ppf(1 - 0.05, 9), rtol=1e-9)
    empty = infer(X, y, ModelSet(), [B0], 0.1, None)
    assert empty.K == 0.0 and empty.sigma is None and empty.lower.size == 0
    with pytest.raises(ValueError):
        infer(X, np.where(np.arange(12) == 3, np.nan, y), ModelSet((1,)), [B0], 0.1, 1.0)


def test_infer_runs_gives_each_run_its_first_failure_or_its_one_run_intervals():
    # a block whose runs fail at each check in turn: the model's rank (run
    # 1, whose certificate would fail the level too), the level (run 2),
    # sigma (run 3, on a trial whose full model is collinear) and K (run
    # 4); every run gets what infer gives it alone, each check having run
    # once per distinct key
    gen = np.random.default_rng(6)
    X = gen.standard_normal((3, 12, 4))
    X[1, :, 3] = X[1, :, 0]
    Y = gen.standard_normal((3, 12))
    certs = [certify_budgets(2, 0.5, 0.01), (StabilityBudget(0.0, 0.06, 0.06),),
             (StabilityBudget(800.0, 0.01, 0.01),)]
    runs = [(0, (0, 1), 0), (1, (0, 3), 1), (0, (1,), 1), (1, (1, 2), 0), (2, (2,), 2),
            (2, (), 0), (1, (), 2), (0, (0, 1), 0)]
    trial = np.array([t for t, _, _ in runs])
    support = np.zeros((len(runs), 4), dtype=bool)
    for r, (_, cols, _) in enumerate(runs):
        support[r, list(cols)] = True
    out = infer_runs(X, Y, trial, support, certs, np.array([c for _, _, c in runs]), 0.1, None)
    assert sorted(out.failed) == [1, 2, 3, 4]
    for r, (t, cols, c) in enumerate(runs):
        try:
            want = infer(DesignMatrix(X[t]), Y[t], ModelSet(cols), list(certs[c]), 0.1, None)
        except (RankDeficient, DegenerateLevel) as e:
            assert type(out.failed[r]) is type(e) and str(out.failed[r]) == str(e)
            assert (out.K[r], out.budget[r]) == (0.0, -1)
            assert math.isnan(out.level[r]) and math.isnan(out.sigma[r])
            continue
        assert (out.K[r], out.level[r], out.budgets[out.budget[r]]) == \
            (want.K, want.level, want.budget)
        assert out.sigma[r] == want.sigma or want.sigma is None and math.isnan(out.sigma[r])
        group = out.sizes[len(cols)]
        i = group.runs.tolist().index(r)
        assert group.lower[i].tobytes() == want.lower.tobytes()
        assert group.upper[i].tobytes() == want.upper.tobytes()
