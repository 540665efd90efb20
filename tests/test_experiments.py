"""Trial harness: data generation, per-trial scoring, aggregation, sweeps.

Classical-interval oracles come from scipy quantiles plus direct lstsq
refits; the data-split comparison leans on the sqrt(2) standard-error
inflation a half-sample suffers under this row-normalized design.
"""

import math

import numpy as np
import pytest
import scipy.stats

from stableci import experiments
from stableci.errors import EmptyInput, NonConvergence
from stableci.experiments import (DEFAULT_ETA_GRID, ExperimentConfig,
                                  SelectorSpec, TrialRecord, aggregate,
                                  data_split_baseline, eta_sweep,
                                  gen_synthetic, run_selector, run_trial,
                                  run_trials)
from stableci.linmodel import ModelSet
from stableci.noise import RngStream
from stableci.selectors import screening_exact
from stableci.stability import StabilityBudget


def fixed_cfg(**kw):
    base = dict(n=200, d=10, selector=SelectorSpec(method="fixed", fixed_model=(0, 1, 2)),
                trials=4, master_seed=101, alpha=0.1, alpha_weights=(1.0, 0.0, 0.0),
                beta_spec=(5.0, 0.3))
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration containers


def test_selector_spec_validation():
    with pytest.raises(ValueError):
        SelectorSpec(method="screen")  # k missing
    with pytest.raises(ValueError):
        SelectorSpec(method="fs", k=0)
    with pytest.raises(ValueError):
        SelectorSpec(method="lasso")  # needs c1 or lam
    with pytest.raises(ValueError):
        SelectorSpec(method="lasso", c1=1.0, lam=2.0)  # not both
    with pytest.raises(ValueError):
        SelectorSpec(method="fixed")  # empty model
    with pytest.raises(ValueError):
        SelectorSpec(method="ridge", k=1)
    SelectorSpec(method="lasso", lam=2.0)
    SelectorSpec(method="lasso", c1=1.0, steps=20)


@pytest.mark.parametrize("knob", ["c1", "lam"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_selector_spec_rejects_nonfinite_radius(knob, value):
    with pytest.raises(ValueError, match=knob):
        SelectorSpec(method="lasso", **{knob: value})


@pytest.mark.parametrize("kw, name", [({"sigma": math.inf}, "sigma"),
                                      ({"sigma": math.nan}, "sigma"),
                                      ({"beta_spec": (math.nan, 0.3)}, "signal"),
                                      ({"beta_spec": (math.inf, 0.3)}, "signal")])
def test_experiment_config_rejects_nonfinite(kw, name):
    with pytest.raises(ValueError, match=name):
        fixed_cfg(**kw)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        fixed_cfg(trials=0)
    with pytest.raises(ValueError):
        fixed_cfg(alpha=1.0)
    with pytest.raises(ValueError):
        fixed_cfg(beta_spec=(5.0, 1.2))
    with pytest.raises(ValueError):
        fixed_cfg(sigma=0.0)
    with pytest.raises(ValueError):
        fixed_cfg(sigma_mode="plugin")


# ---------------------------------------------------------------------------
# synthetic data


def test_gen_synthetic_deterministic():
    cfg = fixed_cfg()
    X1, b1, mu1, y1 = gen_synthetic(cfg, 3)
    X2, b2, mu2, y2 = gen_synthetic(cfg, 3)
    np.testing.assert_array_equal(X1.entries, X2.entries)
    np.testing.assert_array_equal(y1, y2)
    X3, _, _, y3 = gen_synthetic(cfg, 4)
    assert not np.array_equal(y1, y3)
    assert not np.array_equal(X1.entries, X3.entries)


def test_gen_synthetic_shared_design():
    cfg = fixed_cfg(regenerate_x_per_trial=False)
    Xa, _, _, ya = gen_synthetic(cfg, 0)
    Xb, _, _, yb = gen_synthetic(cfg, 1)
    np.testing.assert_array_equal(Xa.entries, Xb.entries)
    assert not np.array_equal(ya, yb)


def test_gen_synthetic_beta_layout():
    cfg = fixed_cfg(n=1000, d=500, beta_spec=(5.0, 0.8))
    X, beta, mu, y = gen_synthetic(cfg, 0)
    assert (beta == 5.0).sum() == 400
    assert np.all(beta[:400] == 5.0) and np.all(beta[400:] == 0.0)
    np.testing.assert_array_equal(mu, X.entries @ beta)
    # entries N(0,1)/sqrt(n): column norms concentrate near 1
    assert 0.8 <= X.col_norms.mean() <= 1.2


def test_gen_synthetic_null_signal():
    cfg = fixed_cfg(beta_spec=(5.0, 0.0))
    _, beta, mu, y = gen_synthetic(cfg, 0)
    assert np.all(beta == 0.0) and np.all(mu == 0.0)


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_fixed_model_classical():
    cfg = fixed_cfg()
    rec = run_trial(cfg, 0)
    assert rec.model.indices == (0, 1, 2)
    assert rec.flagged is None
    assert rec.budget_used == StabilityBudget(0.0, 0.0, 0.0)
    # all-on-delta weights: K is the plain Bonferroni z at alpha/(2m)
    np.testing.assert_allclose(rec.K, scipy.stats.norm.ppf(1 - 0.1 / 6), rtol=1e-12)
    X, _, _, _ = gen_synthetic(cfg, 0)
    sub = X.entries[:, :3]
    se = np.sqrt(np.diag(np.linalg.inv(sub.T @ sub)))
    np.testing.assert_allclose(rec.widths, 2 * rec.K * se, rtol=1e-9)


def test_run_trial_coverage_is_target_based():
    cfg = fixed_cfg()
    X, beta, mu, y = gen_synthetic(cfg, 0)
    rec = run_trial(cfg, 0)
    from stableci.linmodel import ols_fit, target_coefficients
    est = ols_fit(X, rec.model, y)
    tgt = target_coefficients(X, rec.model, mu)
    half = rec.widths / 2
    assert rec.covered == bool(np.all(np.abs(est - tgt) <= half))


def test_run_trial_factors_each_model_once(svd_calls):
    # one submodel SVD serves estimates, standard errors and targets
    run_trial(fixed_cfg(), 0)
    assert svd_calls == [(200, 3)]
    svd_calls.clear()
    # an estimated scale adds the full model's factorization
    run_trial(fixed_cfg(sigma_mode="estimate"), 0)
    assert sorted(svd_calls) == [(200, 3), (200, 10)]


def test_run_trial_noisy_needs_eta():
    cfg = fixed_cfg(selector=SelectorSpec(method="screen", k=3))
    with pytest.raises(ValueError):
        run_trial(cfg, 0, eta_step=None)


def test_run_trial_null_beta_gives_unit_fdr():
    cfg = fixed_cfg(n=100, d=20, selector=SelectorSpec(method="screen", k=3),
                    alpha_weights=None, beta_spec=(5.0, 0.0))
    rec = run_trial(cfg, 0, eta_step=1.0)
    assert len(rec.model) == 3 and rec.fdr == 1.0


def test_run_trial_huge_penalty_empties_model():
    cfg = fixed_cfg(n=50, d=8, selector=SelectorSpec(method="lasso", lam=1e9),
                    alpha_weights=None)
    rec = run_trial(cfg, 0, eta_step=1.0)
    assert len(rec.model) == 0
    assert rec.covered and rec.K == 0.0 and rec.widths.size == 0


def test_run_trial_estimated_sigma_widens():
    known = fixed_cfg(n=30, d=4, selector=SelectorSpec(method="fixed", fixed_model=(0, 1)))
    est = fixed_cfg(n=30, d=4, selector=SelectorSpec(method="fixed", fixed_model=(0, 1)),
                    sigma_mode="estimate")
    K_known = run_trial(known, 0).K
    K_est = run_trial(est, 0).K
    # same level, t vs z quantile at dof = 26
    np.testing.assert_allclose(K_known, scipy.stats.norm.ppf(1 - 0.1 / 4), rtol=1e-12)
    np.testing.assert_allclose(K_est, scipy.stats.t.ppf(1 - 0.1 / 4, 26), rtol=1e-9)


def test_run_trial_screening_matches_exact_at_large_eta():
    cfg = ExperimentConfig(n=100, d=20, selector=SelectorSpec(method="screen", k=3),
                           trials=400, master_seed=505, alpha=0.1,
                           beta_spec=(20.0, 0.15))
    agree = 0
    for t in range(cfg.trials):
        X, _, _, y = gen_synthetic(cfg, t)
        agree += run_trial(cfg, t, eta_step=10.0).model == screening_exact(X, y, 3)
    assert agree / cfg.trials >= 0.95


def test_run_selector_zero_certificate_for_noiseless_choices():
    X, _, _, y = gen_synthetic(fixed_cfg(n=50, d=8), 0)
    fixed = run_selector(SelectorSpec(method="fixed", fixed_model=(3, 1)), X, y,
                         None, 0.05, 1.0, RngStream(0))
    assert fixed.model.indices == (1, 3) and fixed.theta is None and fixed.trace == ()
    assert fixed.budgets == (StabilityBudget(0.0, 0.0, 0.0),)
    # a penalty that zeroes every coordinate selects nothing, noise or not
    zero = run_selector(SelectorSpec(method="lasso", lam=1e9), X, y, 1.0, 0.05, 1.0,
                        RngStream(0))
    assert len(zero.model) == 0 and zero.c1 == 0.0 and zero.trace == ()
    np.testing.assert_array_equal(zero.theta, np.zeros(8))
    assert zero.budgets == (StabilityBudget(0.0, 0.0, 0.0),)


def test_run_trial_flags_collinear_candidates():
    # n=3 rows span only 3 directions, so forward stepwise runs out at step 4
    cfg = fixed_cfg(n=3, d=10, selector=SelectorSpec(method="fs", k=5), alpha_weights=None)
    rec = run_trial(cfg, 0, eta_step=1.0)
    assert rec.flagged.startswith("all_candidates_collinear: step 4: ")
    assert len(rec.model) == 0 and rec.K == 0.0 and rec.widths.size == 0


def test_run_trial_flags_degenerate_level():
    # default LASSO steps grow with eta: at eta_step 4 the certified eta
    # leaves no level for any certificate
    cfg = fixed_cfg(n=100, d=20, selector=SelectorSpec(method="lasso", lam=0.5),
                    alpha_weights=None, beta_spec=(5.0, 0.15))
    assert run_trial(cfg, 0, eta_step=4.0).flagged.startswith("degenerate_level: ")
    assert run_trial(cfg, 0, eta_step=0.5).flagged is None


def test_run_trial_flags_nonconvergence(monkeypatch):
    def stuck(X, y, lam):
        raise NonConvergence("coordinate descent did not reach gap 1e-08")
    monkeypatch.setattr(experiments, "lambda_to_c1", stuck)
    cfg = fixed_cfg(n=50, d=8, selector=SelectorSpec(method="lasso", lam=0.5),
                    alpha_weights=None)
    rec = run_trial(cfg, 0, eta_step=1.0)
    assert rec.flagged == "non_convergence: coordinate descent did not reach gap 1e-08"


def test_all_flagged_sweep_names_reasons():
    cfg = fixed_cfg(n=3, d=10, selector=SelectorSpec(method="fs", k=5), alpha_weights=None,
                    trials=3)
    with pytest.raises(EmptyInput, match=r"all 3 trials were flagged "
                                         r"\(all_candidates_collinear: 3\)"):
        eta_sweep(cfg, eta_grid=(1.0,))


# ---------------------------------------------------------------------------
# data-split baseline


def test_data_split_matches_direct_classical_fit():
    cfg = fixed_cfg(n=50, d=5)
    rec = data_split_baseline(cfg, 0.5, 2)
    assert rec.budget_used == StabilityBudget(0.0, 0.0, 0.0)
    X, beta, mu, y = gen_synthetic(cfg, 2)
    X2, y2 = X.entries[25:], y[25:]
    M = list(rec.model)
    coef, *_ = np.linalg.lstsq(X2[:, M], y2, rcond=None)
    se = np.sqrt(np.diag(np.linalg.inv(X2[:, M].T @ X2[:, M])))
    K = scipy.stats.norm.ppf(1 - cfg.alpha / (2 * len(M)))
    np.testing.assert_allclose(rec.K, K, rtol=1e-12)
    np.testing.assert_allclose(rec.widths, 2 * K * se, rtol=1e-9)


def test_data_split_selects_on_first_half_only():
    cfg = fixed_cfg(n=60, d=6, selector=SelectorSpec(method="screen", k=2))
    rec = data_split_baseline(cfg, 0.5, 1)
    X, _, _, y = gen_synthetic(cfg, 1)
    from stableci.linmodel import DesignMatrix
    expect = screening_exact(DesignMatrix(X.entries[:30]), y[:30], 2)
    assert rec.model == expect


def test_data_split_width_inflation():
    # half the rows under entries ~ N(0,1)/sqrt(n): stderr grows ~ sqrt(2)
    cfg = fixed_cfg(n=400, d=5, selector=SelectorSpec(method="fixed", fixed_model=(0, 1, 2)),
                    beta_spec=(2.0, 0.4), master_seed=606)
    ratios = []
    for t in range(40):
        full = run_trial(cfg, t)
        half = data_split_baseline(cfg, 0.5, t)
        assert half.K == full.K
        ratios.append(half.widths.mean() / full.widths.mean())
    assert np.mean(ratios) == pytest.approx(math.sqrt(2.0), rel=0.08)


def test_data_split_fraction_validation():
    cfg = fixed_cfg()
    with pytest.raises(ValueError):
        data_split_baseline(cfg, 0.0, 0)
    with pytest.raises(ValueError):
        data_split_baseline(cfg, 1.0, 0)


# ---------------------------------------------------------------------------
# aggregation


def make_record(trial, widths, covered=True, fdr=0.0, risk=None, K=1.0,
                model=(0,), flagged=None):
    return TrialRecord(trial_index=trial, model=ModelSet(model), covered=covered,
                       widths=np.asarray(widths, dtype=float), fdr=fdr, risk=risk,
                       K=K, budget_used=StabilityBudget(0.0, 0.0, 0.0),
                       flagged=flagged)


def test_aggregate_nearest_rank_quantiles():
    recs = [make_record(t, [float(t + 1)]) for t in range(10)]
    s = aggregate(recs)
    assert s.width_quantiles[0.90] == 9.0
    assert s.width_quantiles[0.80] == 8.0
    assert s.width_quantiles[1.00] == 10.0 == s.width_max
    assert s.empirical_coverage == 1.0
    assert s.trials == 10 and s.flagged == 0


def test_aggregate_single_record():
    s = aggregate([make_record(0, [5.0])])
    assert s.width_max == 5.0
    assert all(v == 5.0 for v in s.width_quantiles.values())


def test_aggregate_counts_flagged_and_empty():
    recs = [make_record(0, [1.0], fdr=1.0, risk=2.0),
            make_record(1, [], model=(), K=0.0),
            make_record(2, [9.9], flagged="rank_deficient: synthetic")]
    s = aggregate(recs)
    assert s.trials == 2 and s.flagged == 1 and s.empty_models == 1
    assert s.width_max == 1.0  # flagged widths never pool
    assert s.mean_fdr == pytest.approx(0.5)
    assert s.mean_risk == pytest.approx(2.0)
    assert s.mean_K == pytest.approx(0.5)


def test_aggregate_all_empty_models():
    s = aggregate([make_record(0, [], model=(), K=0.0)])
    assert math.isnan(s.width_max)
    assert all(math.isnan(v) for v in s.width_quantiles.values())
    assert s.mean_risk is None


def test_aggregate_counts_flag_reasons():
    records = [make_record(0, [1.0], flagged="rank_deficient: a"),
               make_record(1, [1.0], flagged="degenerate_level: b"),
               make_record(2, [1.0], flagged="rank_deficient: c")]
    with pytest.raises(EmptyInput, match=r"\(degenerate_level: 1, rank_deficient: 2\)"):
        aggregate(records)


def test_aggregate_empty_input():
    with pytest.raises(EmptyInput):
        aggregate([])
    with pytest.raises(EmptyInput):
        aggregate([make_record(0, [1.0], flagged="rank_deficient: synthetic")])


# ---------------------------------------------------------------------------
# sweeps


def test_run_trials_accepts_custom_map():
    cfg = fixed_cfg(trials=3)
    default = run_trials(cfg)
    listy = run_trials(cfg, map_fn=lambda f, xs: [f(x) for x in xs])
    assert [r.model for r in default] == [r.model for r in listy]
    np.testing.assert_array_equal(default[1].widths, listy[1].widths)


def test_eta_sweep_k_monotone():
    cfg = ExperimentConfig(n=60, d=12, selector=SelectorSpec(method="screen", k=3),
                           trials=6, master_seed=9, alpha=0.1, beta_spec=(5.0, 0.25))
    rows = eta_sweep(cfg, eta_grid=(0.5, 2.0, 5.0))
    assert [eta for eta, _, _ in rows] == [0.5, 2.0, 5.0]
    ks = [summary.mean_K for _, _, summary in rows]
    assert ks[0] < ks[1] < ks[2]
    for eta, records, summary in rows:
        assert summary.eta_step == eta and len(records) == cfg.trials


def test_eta_sweep_trials_coupled_across_grid():
    cfg = ExperimentConfig(n=60, d=12, selector=SelectorSpec(method="screen", k=3),
                           trials=3, master_seed=9, alpha=0.1, beta_spec=(5.0, 0.25))
    rows = eta_sweep(cfg, eta_grid=(1.0, 4.0))
    # same trial index sees the same data at every eta
    for t in range(3):
        assert rows[0][1][t].trial_index == rows[1][1][t].trial_index == t


def test_eta_sweep_validation():
    cfg = fixed_cfg()
    with pytest.raises(EmptyInput):
        eta_sweep(cfg, eta_grid=())
    with pytest.raises(ValueError):
        eta_sweep(cfg, eta_grid=(0.5, -1.0))
    assert len(DEFAULT_ETA_GRID) == 20
    assert DEFAULT_ETA_GRID[0] == 0.5 and DEFAULT_ETA_GRID[-1] == 10.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_eta_sweep_rejects_nonfinite_grid(bad):
    with pytest.raises(ValueError, match="finite"):
        eta_sweep(fixed_cfg(), eta_grid=(0.5, bad))
