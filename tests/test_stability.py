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

from stableci.errors import BadWeights, DegenerateLevel, EmptyInput, MixedSlack
from stableci.linmodel import DesignMatrix, ModelSet
from stableci.stability import (KNOWN_SIGMA, SUBEXPONENTIAL, SUBGAUSSIAN,
                                EstimatedSigma, IntervalSet, LevelAllocation,
                                StabilityBudget, align_slack, alpha_split,
                                best_posi_constant, compose_adaptive_advanced,
                                compose_adaptive_simple, compose_nonadaptive,
                                corrected_level, eta_step_for_total, infer,
                                orlicz_constant, posi_constant,
                                sparse_selection_eta)

B0 = StabilityBudget(0.0, 0.0, 0.0)

# ---------------------------------------------------------------------------
# quantiles
#
# posi_constant at model size 1, level 2t and a zero budget is the upper
# t-quantile -F^{-1}(t). The level must stay below 1, so the median p = 1/2
# is approached from the largest level below 1.


def quantile(p, mode=KNOWN_SIGMA):
    """F^{-1}(p) of the normal (or Student-t) law, read off posi_constant."""
    tail = min(p, 1.0 - p)
    K = posi_constant(1, min(2.0 * tail, np.nextafter(1.0, 0.0)), B0, mode)
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
    np.testing.assert_allclose(quantile(p, EstimatedSigma(dof)), scipy.stats.t.ppf(p, dof),
                               rtol=1e-9, atol=1e-12)


def test_t_quantile_exceeds_normal():
    # heavier tails: same level needs a wider multiplier at small dof
    assert posi_constant(1, 0.05, B0, EstimatedSigma(3)) > posi_constant(1, 0.05, B0)
    assert posi_constant(1, 0.05, B0, EstimatedSigma(3000)) == pytest.approx(
        posi_constant(1, 0.05, B0), rel=1e-3)


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


def test_level_allocation_validation():
    a = LevelAllocation(0.05, 0.02, 0.03)
    assert a.alpha == pytest.approx(0.10)
    with pytest.raises(ValueError):
        LevelAllocation(0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        LevelAllocation(0.5, 0.3, 0.2)  # sums to 1


def test_alpha_split_default_thirds():
    alloc = alpha_split(0.1)
    assert alloc.delta == alloc.tau == alloc.nu == pytest.approx(0.1 / 3)


def test_alpha_split_weights():
    alloc = alpha_split(0.05, (1.0, 0.0, 0.0))
    assert (alloc.delta, alloc.tau, alloc.nu) == (0.05, 0.0, 0.0)
    alloc = alpha_split(0.1, (0.5, 0.25, 0.25))
    assert alloc.tau == pytest.approx(0.025)


@pytest.mark.parametrize("w", [(0.0, 0.5, 0.5), (-0.2, 0.6, 0.6),
                               (0.5, 0.5, 0.5), (0.5, 0.5), (1.0, 0.0, 0.0, 0.0)])
def test_alpha_split_bad_weights(w):
    with pytest.raises(BadWeights):
        alpha_split(0.1, w)


def test_alpha_split_bad_alpha():
    with pytest.raises(ValueError):
        alpha_split(1.5)


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


def test_compose_nonadaptive_sums():
    out = compose_nonadaptive([StabilityBudget(1.0, 0.0, 0.05),
                               StabilityBudget(0.5, 0.01, 0.05)])
    assert out.eta == pytest.approx(1.5)
    assert out.tau == pytest.approx(0.01)
    assert out.nu == pytest.approx(0.10)


def test_compose_nonadaptive_clamps():
    out = compose_nonadaptive([StabilityBudget(0.0, 0.7, 0.8)] * 3)
    assert out.tau == 1.0 and out.nu == 1.0
    with pytest.raises(EmptyInput):
        compose_nonadaptive([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 0.3), st.floats(0, 0.3)),
                min_size=1, max_size=6))
def test_compose_nonadaptive_permutation_invariant(triples):
    budgets = [StabilityBudget(*t) for t in triples]
    a = compose_nonadaptive(budgets)
    b = compose_nonadaptive(budgets[::-1])
    assert (a.eta, a.tau, a.nu) == pytest.approx((b.eta, b.tau, b.nu))


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
    K = posi_constant(2, 0.05, StabilityBudget(0.0, 0.0, 0.0), EstimatedSigma(7))
    np.testing.assert_allclose(K, scipy.stats.t.ppf(1 - 0.0125, 7), rtol=1e-9)
    assert K > posi_constant(2, 0.05, StabilityBudget(0.0, 0.0, 0.0), KNOWN_SIGMA)


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
    from stableci.selectors import certify_budgets
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


# ---------------------------------------------------------------------------
# orlicz families


def test_orlicz_inverse_pairs():
    for fn in (SUBGAUSSIAN, SUBEXPONENTIAL):
        for x in (0.3, 1.0, 2.5):
            assert fn.inverse(fn.psi(x)) == pytest.approx(x, rel=1e-12)


def test_orlicz_constant_values():
    b0 = StabilityBudget(0.0, 0.0, 0.0)
    # psi^{-1}(1/0.05) = sqrt(ln 21) for the subgaussian generator
    base = orlicz_constant(SUBGAUSSIAN, 1.0, 1, 0.05, b0)
    assert base == pytest.approx(math.sqrt(math.log(21.0)), abs=1e-14)
    assert base == pytest.approx(1.7448559934055943, abs=1e-13)
    subexp = orlicz_constant(SUBEXPONENTIAL, 1.0, 1, 0.05, b0)
    assert subexp == pytest.approx(3.044522437723423, abs=1e-13)
    # G multiplies, eta inflates through exp, model size through Bonferroni
    assert orlicz_constant(SUBGAUSSIAN, 2.0, 1, 0.05, b0) == pytest.approx(2 * base)
    assert orlicz_constant(SUBGAUSSIAN, 1.0, 1, 0.05, StabilityBudget(1.0, 0.0, 0.0)) > base
    assert orlicz_constant(SUBGAUSSIAN, 1.0, 5, 0.05, b0) > base


def test_orlicz_constant_validation():
    b0 = StabilityBudget(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        orlicz_constant(SUBGAUSSIAN, 0.0, 1, 0.05, b0)
    with pytest.raises(DegenerateLevel):
        orlicz_constant(SUBGAUSSIAN, 1.0, 1, 0.05, StabilityBudget(0.0, 0.0, 1.0))
