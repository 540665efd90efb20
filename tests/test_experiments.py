"""Trial harness: data generation, per-trial scoring, aggregation, sweeps.

Classical-interval oracles come from scipy quantiles plus direct lstsq
refits; the data-split comparison leans on the sqrt(2) standard-error
inflation a half-sample suffers under this row-normalized design.
"""

import dataclasses
import math
import multiprocessing
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from stableci import experiments, linmodel, noise, selectors, stability
from stableci.errors import AllCandidatesCollinear, EmptyInput, NonConvergence
from stableci.experiments import (DEFAULT_ETA_GRID, ExperimentConfig, Runs,
                                  SelectorSpec, TrialRecord, aggregate, block_trials,
                                  eta_sweep, gen_synthetic, run_selector,
                                  run_trial)
from stableci.linmodel import DesignMatrix, ModelSet
from stableci.noise import KeyedGenerator, RngStream
from stableci.selectors import SelectionResult, lambda_to_c1, select_runs, stable_screening
from stableci.stability import StabilityBudget, certify_budgets

from oracles import alone, columns, eta_major_sweep, one_trial, score_model, screening_exact, stack


def fixed_cfg(**kw):
    base = dict(n=200, d=10, selector=SelectorSpec(method="fixed", fixed_model=(0, 1, 2)),
                trials=4, master_seed=101, alpha=0.1, alpha_weights=(1.0, 0.0, 0.0),
                signal=5.0, active_fraction=0.3, eta_grid=(1.0,))
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


@pytest.mark.parametrize("spec, knob", [
    (dict(method="lasso", c1=1.0, k=3), "k"),
    (dict(method="fixed", fixed_model=(0,), k=3), "k"),
    (dict(method="screen", k=3, c1=1.0), "c1"),
    (dict(method="fs", k=3, lam=0.5), "lam"),
    (dict(method="fixed", fixed_model=(0,), steps=5), "steps"),
    (dict(method="screen", k=3, fixed_model=(0, 1)), "fixed_model"),
    (dict(method="lasso", c1=1.0, fixed_model=(0,)), "fixed_model"),
])
def test_selector_spec_rejects_knobs_its_method_ignores(spec, knob):
    with pytest.raises(ValueError, match=f"does not use {knob}"):
        SelectorSpec(**spec)


@pytest.mark.parametrize("steps", [0, -2])
def test_lasso_steps_below_one_rejected_before_any_trial(monkeypatch, steps):
    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(experiments, "gen_synthetic", no_trial)
    with pytest.raises(ValueError, match=f"steps must be >= 1, got {steps}"):
        eta_sweep(fixed_cfg(selector=SelectorSpec(method="lasso", c1=1.0, steps=steps),
                            alpha_weights=None))


def test_experiment_config_rejects_shapes_beyond_d():
    with pytest.raises(ValueError, match="k=11 exceeds d=10"):
        fixed_cfg(selector=SelectorSpec(method="fs", k=11))
    with pytest.raises(ValueError, match="fixed_model index 10"):
        fixed_cfg(selector=SelectorSpec(method="fixed", fixed_model=(1, 10)))
    fixed_cfg(selector=SelectorSpec(method="screen", k=10), alpha_weights=None)


@pytest.mark.parametrize("knob", ["c1", "lam"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_selector_spec_rejects_nonfinite_radius(knob, value):
    with pytest.raises(ValueError, match=knob):
        SelectorSpec(method="lasso", **{knob: value})


@pytest.mark.parametrize("kw, name", [({"sigma": math.inf}, "sigma"),
                                      ({"sigma": math.nan}, "sigma"),
                                      ({"signal": math.nan}, "signal"),
                                      ({"signal": math.inf}, "signal")])
def test_experiment_config_rejects_nonfinite(kw, name):
    with pytest.raises(ValueError, match=name):
        fixed_cfg(**kw)


@pytest.mark.parametrize("kw, message", [
    ({"n": 3.5}, "n must be an integer, got 3.5"),
    ({"trials": 2.0}, "trials must be an integer, got 2.0"),
    ({"d": True}, "d must be an integer, got True"),
    ({"master_seed": 2 ** 64}, "master_seed must be below 2"),
    ({"master_seed": -1}, "master_seed must be >= 0"),
    ({"sigma": True}, "sigma must be a number, got True"),
    ({"signal": "5"}, "signal must be a number"),
    ({"regenerate_x_per_trial": 1}, "regenerate_x_per_trial must be a bool"),
    ({"alpha_weights": (0.5, 0.5, 0.5)}, "alpha_weights .*sum to 1"),
    ({"alpha_weights": (math.nan, 0.5, 0.5)}, "alpha_weights .*nonnegative"),
    ({"alpha_weights": (1.0, 0.0, False)}, "alpha_weights entry must be a number"),
    ({"trials": 2 ** 64}, r"trials must be at most 2\*\*64 - 1, got 18446744073709551616"),
])
def test_experiment_config_names_the_bad_field(kw, message):
    with pytest.raises(ValueError, match=message):
        fixed_cfg(**kw)


def test_experiment_config_takes_trial_indices_up_to_one_path_word():
    # trial indices 0 .. 2**64 - 2 each fit one word of a path
    assert fixed_cfg(trials=2 ** 64 - 1).trials == 2 ** 64 - 1


@pytest.mark.parametrize("spec, message", [
    (dict(method="screen", k=True), "k must be an integer, got True"),
    (dict(method="fs", k=2.0), "k must be an integer, got 2.0"),
    (dict(method="lasso", c1=True), "c1 must be a number, got True"),
    (dict(method="lasso", c1=1.0, steps=20.0), "steps must be an integer"),
    (dict(method="fixed", fixed_model=(0, 1.0)), "fixed_model index must be an integer"),
    (dict(method="fixed", fixed_model=(0, -1)), "fixed_model index -1 is negative"),
    (dict(method="fixed", fixed_model=0), "fixed_model must be a list"),
    (dict(method=["screen"], k=3), "unknown selector method"),
])
def test_selector_spec_names_the_bad_field(spec, message):
    with pytest.raises(ValueError, match=message):
        SelectorSpec(**spec)


def test_config_lists_are_kept_as_tuples():
    spec = SelectorSpec(method="fixed", fixed_model=[0, 2])
    cfg = fixed_cfg(selector=spec, alpha_weights=[1.0, 0.0, 0.0])
    assert spec.fixed_model == (0, 2) and cfg.alpha_weights == (1.0, 0.0, 0.0)
    assert hash(cfg) == hash(fixed_cfg(selector=SelectorSpec(method="fixed",
                                                             fixed_model=(0, 2))))


def test_one_run_specs_are_cached_by_type():
    X = DesignMatrix(np.eye(4))
    y = np.arange(4.0)
    stable_screening(X, y, 1, 0.05, 1.0, 1.0, rng=RngStream(0))
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        stable_screening(X, y, True, 0.05, 1.0, 1.0, rng=RngStream(0))


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        fixed_cfg(trials=0)
    with pytest.raises(ValueError):
        fixed_cfg(alpha=1.0)
    with pytest.raises(ValueError):
        fixed_cfg(signal=5.0, active_fraction=1.2)
    with pytest.raises(ValueError):
        fixed_cfg(sigma=0.0)
    with pytest.raises(ValueError):
        fixed_cfg(sigma_mode="plugin")


# ---------------------------------------------------------------------------
# synthetic data


def test_gen_synthetic_deterministic():
    cfg = fixed_cfg()
    X1, b1, mu1, y1 = one_trial(cfg, 3)
    X2, b2, mu2, y2 = one_trial(cfg, 3)
    np.testing.assert_array_equal(X1.entries, X2.entries)
    np.testing.assert_array_equal(y1, y2)
    X3, _, _, y3 = one_trial(cfg, 4)
    assert not np.array_equal(y1, y3)
    assert not np.array_equal(X1.entries, X3.entries)


def test_gen_synthetic_shared_design():
    cfg = fixed_cfg(regenerate_x_per_trial=False)
    Xa, _, _, ya = one_trial(cfg, 0)
    Xb, _, _, yb = one_trial(cfg, 1)
    np.testing.assert_array_equal(Xa.entries, Xb.entries)
    assert not np.array_equal(ya, yb)
    # drawn from its reserved stream (0,)
    fresh = RngStream(cfg.master_seed, (0,)).normal((cfg.n, cfg.d)) / math.sqrt(cfg.n)
    assert Xa.entries.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("regenerate", [True, False])
def test_gen_synthetic_block_rows_are_each_trials_own_draw(regenerate):
    # a block draws its trials straight into one stack; row b is what the
    # trial drawn alone gives, and a shared design is one broadcast array
    cfg = fixed_cfg(regenerate_x_per_trial=regenerate, n=30, d=6)
    X, beta, mu, Y = gen_synthetic(cfg, range(3, 8))
    assert X.entries.shape == (5, 30, 6) and (X.entries.strides[0] == 0) != regenerate
    for b, t in enumerate(range(3, 8)):
        X1, beta1, mu1, y1 = gen_synthetic(cfg, range(t, t + 1))
        for got, want in ((X.entries[b], X1.entries[0]), (X.col_norms[b], X1.col_norms[0]),
                          (X.l2inf[b], X1.l2inf[0]), (mu[b], mu1[0]), (Y[b], y1[0])):
            assert got.tobytes() == want.tobytes()


def test_gen_synthetic_beta_layout():
    cfg = fixed_cfg(n=1000, d=500, signal=5.0, active_fraction=0.8)
    X, beta, mu, y = one_trial(cfg, 0)
    assert (beta == 5.0).sum() == 400
    assert np.all(beta[:400] == 5.0) and np.all(beta[400:] == 0.0)
    np.testing.assert_array_equal(mu, X.entries @ beta)
    # entries N(0,1)/sqrt(n): column norms concentrate near 1
    assert 0.8 <= X.stack.col_norms[0].mean() <= 1.2


def test_gen_synthetic_null_signal():
    cfg = fixed_cfg(signal=5.0, active_fraction=0.0)
    _, beta, mu, y = one_trial(cfg, 0)
    assert np.all(beta == 0.0) and np.all(mu == 0.0)


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_fixed_model_classical():
    cfg = fixed_cfg()
    rec = run_trial(cfg, 0)[0]
    assert rec.model.indices == (0, 1, 2)
    assert rec.flagged is None
    assert rec.budget_used == StabilityBudget(0.0, 0.0, 0.0)
    # all-on-delta weights: K is the plain Bonferroni z at alpha/(2m)
    np.testing.assert_allclose(rec.K, scipy.stats.norm.ppf(1 - 0.1 / 6), rtol=1e-12)
    X, _, _, _ = one_trial(cfg, 0)
    sub = X.entries[:, :3]
    se = np.sqrt(np.diag(np.linalg.inv(sub.T @ sub)))
    np.testing.assert_allclose(rec.widths, 2 * rec.K * se, rtol=1e-9)


def test_run_trial_coverage_is_target_based():
    cfg = fixed_cfg()
    X, beta, mu, y = one_trial(cfg, 0)
    rec = run_trial(cfg, 0)[0]
    from stableci.linmodel import ols_fit, target_coefficients
    est = ols_fit(X, rec.model, y)
    tgt = target_coefficients(X, rec.model, mu)
    half = rec.widths / 2
    assert rec.covered == bool(np.all(np.abs(est - tgt) <= half))


def test_run_trial_factors_each_model_once(svd_calls):
    # one submodel SVD, a stack of one, serves estimates, standard errors
    # and targets at every eta
    run_trial(fixed_cfg(eta_grid=(0.5, 2.0)), 0)
    assert svd_calls == [(1, 200, 3)]
    svd_calls.clear()
    # an estimated scale adds the full model's rank check: the singular
    # values of the d x d block of the R of [X y], not an SVD of X
    run_trial(fixed_cfg(sigma_mode="estimate"), 0)
    assert sorted(svd_calls) == [(1, 10, 10), (1, 200, 3)]
    svd_calls.clear()
    # a block factors its trials' distinct models in one stacked SVD per size
    eta_sweep(fixed_cfg(eta_grid=(0.5, 2.0)))
    assert svd_calls == [(4, 200, 3)]


def test_run_trial_noisy_needs_eta():
    with pytest.raises(ValueError, match="eta_grid entry must be a number, got None"):
        fixed_cfg(selector=SelectorSpec(method="screen", k=3), alpha_weights=None,
                  eta_grid=(None,))


def test_run_trial_null_beta_gives_unit_fdr():
    cfg = fixed_cfg(n=100, d=20, selector=SelectorSpec(method="screen", k=3),
                    alpha_weights=None, signal=5.0, active_fraction=0.0)
    rec = run_trial(cfg, 0)[0]
    assert len(rec.model) == 3 and rec.fdr == 1.0


def test_run_trial_huge_penalty_empties_model():
    cfg = fixed_cfg(n=50, d=8, selector=SelectorSpec(method="lasso", lam=1e9),
                    alpha_weights=None)
    rec = run_trial(cfg, 0)[0]
    assert len(rec.model) == 0
    assert rec.covered and rec.K == 0.0 and rec.widths.size == 0


def test_run_trial_estimated_sigma_widens():
    known = fixed_cfg(n=30, d=4, selector=SelectorSpec(method="fixed", fixed_model=(0, 1)))
    est = fixed_cfg(n=30, d=4, selector=SelectorSpec(method="fixed", fixed_model=(0, 1)),
                    sigma_mode="estimate")
    K_known = run_trial(known, 0)[0].K
    K_est = run_trial(est, 0)[0].K
    # same level, t vs z quantile at dof = 26
    np.testing.assert_allclose(K_known, scipy.stats.norm.ppf(1 - 0.1 / 4), rtol=1e-12)
    np.testing.assert_allclose(K_est, scipy.stats.t.ppf(1 - 0.1 / 4, 26), rtol=1e-9)


def test_run_trial_screening_matches_exact_at_large_eta():
    cfg = ExperimentConfig(n=100, d=20, selector=SelectorSpec(method="screen", k=3),
                           trials=400, master_seed=505, alpha=0.1,
                           signal=20.0, active_fraction=0.15, eta_grid=(10.0,))
    agree = 0
    for t in range(cfg.trials):
        X, _, _, y = one_trial(cfg, t)
        agree += run_trial(cfg, t)[0].model == screening_exact(X, y, 3)
    assert agree / cfg.trials >= 0.95


def test_run_selector_zero_certificate_for_noiseless_choices():
    X, _, _, y = one_trial(fixed_cfg(n=50, d=8), 0)
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


def test_select_runs_matches_one_run_selections():
    """A block mixing a zero-radius LASSO trial with noisy ones, and a
    forward stepwise block where one trial's runs fail alone, give each run
    the result run_selector gives it alone, trace aside, and certify one
    table entry per distinct (rounds, eta_step)."""
    cfg = fixed_cfg(n=30, d=8, signal=3.0, active_fraction=0.25)
    data = [(X, y) for X, _, _, y in (one_trial(cfg, t) for t in range(3))]
    data[1] = (data[1][0], np.zeros(cfg.n))  # lam zeroes every coordinate
    rank3 = np.random.default_rng(4).standard_normal((cfg.n, 3)) @ data[2][0].entries[:3]
    paths = [(2, b) for b in range(3)]
    lasso, fs = SelectorSpec(method="lasso", lam=0.3), SelectorSpec(method="fs", k=4)
    blocks = {
        "lasso": (lasso, data, [(b, eta, alone(lambda_to_c1, *data[b], 0.3))
                                for b in range(3) for eta in (0.5, 2.0)]),
        "fs": (fs, [data[0], (DesignMatrix(rank3), data[2][1]), data[2]],
               [(0, 1.0, None), (1, 1.0, None), (2, 0.5, None), (1, 2.0, None)]),
    }
    got = {}
    for name, (spec, trials, runs) in blocks.items():
        trial, eta, c1 = map(np.array, zip(*runs))
        block = got[name] = select_runs(spec, stack([X for X, _ in trials]),
                                        np.array([y for _, y in trials]), trial,
                                        eta, None if name == "fs" else c1, 0.03, 1.0, 7, paths)
        assert block.trace == ()
        distinct = set()  # (rounds, eta_step) of each noisy run, None of a zero-radius one
        for r, (b, eta, c1) in enumerate(runs):
            X, y = trials[b]
            try:
                want = run_selector(spec, X, y, eta, 0.03, 1.0, RngStream(7, paths[b]))
            except AllCandidatesCollinear as e:
                assert type(block.failed[r]) is AllCandidatesCollinear
                assert str(block.failed[r]) == str(e) and not block.support[r].any()
                distinct.add((spec.k, eta))
                continue
            assert r not in block.failed
            assert tuple(np.flatnonzero(block.support[r])) == want.model.indices
            assert block.certs[block.cert[r]] == want.budgets
            assert c1 == want.c1
            if want.theta is None:
                assert block.theta is None
            else:
                np.testing.assert_array_equal(block.theta[r], want.theta)
            distinct.add((len(want.trace), eta) if want.trace else None)
        assert len(block.certs) == len(distinct)
    # the zero-radius trial took the zero certificate, the others noisy ones
    lasso_block = got["lasso"]
    assert [lasso_block.certs[c] == (StabilityBudget(0.0, 0.0, 0.0),)
            for c in lasso_block.cert] == [False, False, True, True, False, False]
    # both runs of the rank-3 trial failed, the others did not
    assert [r in got["fs"].failed for r in range(4)] == [False, True, False, True]


def test_run_trial_flags_collinear_candidates():
    # n=3 rows span only 3 directions, so forward stepwise runs out at step 4
    cfg = fixed_cfg(n=3, d=10, selector=SelectorSpec(method="fs", k=5), alpha_weights=None)
    rec = run_trial(cfg, 0)[0]
    assert rec.flagged.startswith("all_candidates_collinear: step 4: ")
    assert len(rec.model) == 0 and rec.K == 0.0 and rec.widths.size == 0


def test_run_trial_flags_degenerate_level():
    # default LASSO steps grow with eta: at eta_step 4 the certified eta
    # leaves no level for any certificate
    cfg = fixed_cfg(n=100, d=20, selector=SelectorSpec(method="lasso", lam=0.5),
                    alpha_weights=None, signal=5.0, active_fraction=0.15, eta_grid=(4.0, 0.5))
    high, low = run_trial(cfg, 0)
    assert high.flagged.startswith("degenerate_level: ") and low.flagged is None


def stuck(X, Y, lam):
    """A stand-in for experiments.lambda_to_c1 whose penalty solve fails on
    every trial of the block."""
    error = NonConvergence("coordinate descent did not reach gap 1e-08")
    return np.full(len(Y), math.nan), dict.fromkeys(range(len(Y)), error)


def test_run_trial_flags_nonconvergence(monkeypatch):
    monkeypatch.setattr(experiments, "lambda_to_c1", stuck)
    cfg = fixed_cfg(n=50, d=8, selector=SelectorSpec(method="lasso", lam=0.5),
                    alpha_weights=None)
    rec = run_trial(cfg, 0)[0]
    assert rec.flagged == "non_convergence: coordinate descent did not reach gap 1e-08"


def test_all_flagged_sweep_names_reasons():
    cfg = fixed_cfg(n=3, d=10, selector=SelectorSpec(method="fs", k=5), alpha_weights=None,
                    trials=3)
    [(_, records, summary)] = eta_sweep(cfg)
    assert len(records) == 3
    assert summary.trials == 0 and summary.flagged == 3
    assert summary.flag_reasons == {"all_candidates_collinear": 3}


# ---------------------------------------------------------------------------
# data-split baseline


def data_split_baseline(cfg: ExperimentConfig, split_fraction: float,
                        trial_index: int) -> TrialRecord:
    """Exact selection (a fixed model or screening) on the first
    ceil(fraction * n) rows, classical Bonferroni intervals at full alpha on
    the disjoint remainder; coverage judged against targets defined by the
    inference half's design."""
    if not (0.0 < split_fraction < 1.0):
        raise ValueError(f"split_fraction must be in (0, 1), got {split_fraction}")
    X, beta, mu, y = one_trial(cfg, trial_index)
    n_sel = math.ceil(split_fraction * cfg.n)
    if not (1 <= n_sel < cfg.n):
        raise ValueError(f"split leaves an empty half: n_sel={n_sel} of n={cfg.n}")

    spec = cfg.selector
    if spec.method == "fixed":
        model = ModelSet.from_unordered(spec.fixed_model)
    elif spec.method == "screen":
        model = screening_exact(DesignMatrix(X.entries[:n_sel]), y[:n_sel], spec.k)
    else:
        raise NotImplementedError(f"no exact {spec.method!r} baseline in these tests")

    X2 = DesignMatrix(X.entries[n_sel:])
    zero = StabilityBudget(0.0, 0.0, 0.0)
    return score_model(cfg, X2, y[n_sel:], mu[n_sel:], beta,
                       SelectionResult(model, None, (), (zero,)), trial_index)


def test_data_split_matches_direct_classical_fit():
    cfg = fixed_cfg(n=50, d=5)
    rec = data_split_baseline(cfg, 0.5, 2)
    assert rec.budget_used == StabilityBudget(0.0, 0.0, 0.0)
    X, beta, mu, y = one_trial(cfg, 2)
    X2, y2 = X.entries[25:], y[25:]
    M = list(rec.model)
    coef, *_ = np.linalg.lstsq(X2[:, M], y2, rcond=None)
    se = np.sqrt(np.diag(np.linalg.inv(X2[:, M].T @ X2[:, M])))
    K = scipy.stats.norm.ppf(1 - cfg.alpha / (2 * len(M)))
    np.testing.assert_allclose(rec.K, K, rtol=1e-12)
    np.testing.assert_allclose(rec.widths, 2 * K * se, rtol=1e-9)


def test_data_split_selects_on_first_half_only():
    cfg = fixed_cfg(n=60, d=6, selector=SelectorSpec(method="screen", k=2), alpha_weights=None)
    rec = data_split_baseline(cfg, 0.5, 1)
    X, _, _, y = one_trial(cfg, 1)
    from stableci.linmodel import DesignMatrix
    expect = screening_exact(DesignMatrix(X.entries[:30]), y[:30], 2)
    assert rec.model == expect


def test_data_split_width_inflation():
    # half the rows under entries ~ N(0,1)/sqrt(n): stderr grows ~ sqrt(2)
    cfg = fixed_cfg(n=400, d=5, selector=SelectorSpec(method="fixed", fixed_model=(0, 1, 2)),
                    signal=2.0, active_fraction=0.4, master_seed=606)
    ratios = []
    for t in range(40):
        full = run_trial(cfg, t)[0]
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
    """A record with one width per model column."""
    return TrialRecord(trial_index=trial, model=ModelSet(model), covered=covered,
                       widths=np.asarray(widths, dtype=float), fdr=fdr, risk=risk,
                       K=K, budget_used=StabilityBudget(0.0, 0.0, 0.0),
                       flagged=flagged)


def test_aggregate_nearest_rank_quantiles():
    recs = [make_record(t, [float(t + 1)]) for t in range(10)]
    s = aggregate(columns(recs))
    assert s.width_quantiles[0.90] == 9.0
    assert s.width_quantiles[0.80] == 8.0
    assert s.width_quantiles[1.00] == 10.0 == s.width_max
    assert s.empirical_coverage == 1.0
    assert s.trials == 10 and s.flagged == 0


def test_aggregate_single_record():
    s = aggregate(columns([make_record(0, [5.0])]))
    assert s.width_max == 5.0
    assert all(v == 5.0 for v in s.width_quantiles.values())


def test_aggregate_counts_flagged_and_empty():
    recs = [make_record(0, [1.0], fdr=1.0, risk=2.0),
            make_record(1, [], model=(), K=0.0),
            make_record(2, [9.9], flagged="rank_deficient: synthetic")]
    s = aggregate(columns(recs))
    assert s.trials == 2 and s.flagged == 1 and s.empty_models == 1
    assert s.width_max == 1.0  # flagged widths never pool
    assert s.mean_fdr == pytest.approx(0.5)
    assert s.mean_risk == pytest.approx(2.0)
    assert s.mean_K == pytest.approx(0.5)


def test_aggregate_all_empty_models():
    s = aggregate(columns([make_record(0, [], model=(), K=0.0)]))
    assert math.isnan(s.width_max)
    assert all(math.isnan(v) for v in s.width_quantiles.values())
    assert s.mean_risk is None


def test_aggregate_counts_flag_reasons():
    records = [make_record(0, [1.0], flagged="rank_deficient: a"),
               make_record(1, [1.0], flagged="degenerate_level: b"),
               make_record(2, [1.0], flagged="rank_deficient: c")]
    s = aggregate(columns(records))
    assert list(s.flag_reasons.items()) == [("degenerate_level", 1), ("rank_deficient", 2)]
    assert aggregate(columns(records[:1] + [make_record(3, [2.0])])).flag_reasons == \
        {"rank_deficient": 1}


def test_runs_part_rebases_offsets_and_shifts_flag_keys():
    records = [make_record(0, [1.0, 2.0], model=(1, 4)),
               make_record(1, [], model=(), covered=False, K=0.0, flagged="rank_deficient: a"),
               make_record(2, [3.0], model=(2,)),
               make_record(3, [4.0, 5.0, 6.0], model=(0, 1, 2), flagged="degenerate_level: b"),
               make_record(4, [7.0], model=(5,), flagged="rank_deficient: c")]
    records = [dataclasses.replace(r, budget_used=StabilityBudget(r.trial_index + 0.5, 0.0, 0.0))
               for r in records]
    runs = columns(records)
    part = runs.part(1, 4)
    assert part.offsets.tolist() == [0, 0, 1, 4]
    assert part.cols.tolist() == [2, 0, 1, 2]
    assert part.widths.tolist() == [3.0, 4.0, 5.0, 6.0]
    assert part.trial.tolist() == [1, 2, 3]
    # runs 0 and 4 are outside the part: the flag of run 4 and the
    # certificate rows of both are dropped
    assert part.flagged == {0: "rank_deficient: a", 2: "degenerate_level: b"}
    assert part.cert.tolist() == [0, 1, 2] and part.certs.tobytes() == runs.certs[1:4].tobytes()
    assert_same_records(list(part), records[1:4])
    assert_same_records(list(Runs.concat([runs.part(0, 2), runs.part(2, 5)])), records)


def test_aggregate_of_runs_with_flags_is_that_of_the_kept_runs_alone():
    # every statistic the same float, bit for bit: flagged runs, widths
    # and all, are dropped before anything is summed
    gen = np.random.default_rng(5)
    records = []
    for t in range(40):
        m = int(gen.integers(0, 4))
        records.append(make_record(
            t, gen.random(m) * 3.0, covered=bool(gen.random() < 0.9), fdr=float(gen.random()),
            risk=float(gen.random()) if t % 3 else None, K=float(gen.random() * 4.0),
            model=tuple(range(m)), flagged="rank_deficient: synthetic" if t % 7 == 3 else None))
    kept = [r for r in records if r.flagged is None]
    with_flags, alone = aggregate(columns(records), 0.5), aggregate(columns(kept), 0.5)
    assert (with_flags.trials, with_flags.flagged) == (len(kept), 6) and alone.flagged == 0
    assert dataclasses.replace(with_flags, flagged=0, flag_reasons={}) == alone


def test_aggregate_empty_input():
    with pytest.raises(EmptyInput):
        aggregate(columns([]))
    # every trial flagged: no statistic, the flags still counted
    s = aggregate(columns([make_record(0, [1.0], flagged="rank_deficient: synthetic")]), 2.0)
    assert (s.eta_step, s.trials, s.flagged, s.empty_models) == (2.0, 0, 1, 0)
    assert s.empirical_coverage is s.width_max is s.mean_fdr is s.mean_risk is s.mean_K is None
    assert set(s.width_quantiles.values()) == {None}


# ---------------------------------------------------------------------------
# sweeps


def test_eta_sweep_accepts_custom_map():
    cfg = fixed_cfg(trials=3)
    [(_, default, _)] = eta_sweep(cfg)
    [(_, listy, _)] = eta_sweep(cfg, map_fn=lambda f, xs: [f(x) for x in xs])
    assert [r.model for r in default] == [r.model for r in listy]
    np.testing.assert_array_equal(default[1].widths, listy[1].widths)


def test_eta_sweep_k_monotone():
    cfg = ExperimentConfig(n=60, d=12, selector=SelectorSpec(method="screen", k=3),
                           trials=6, master_seed=9, alpha=0.1, signal=5.0, active_fraction=0.25,
                           eta_grid=(0.5, 2.0, 5.0))
    rows = eta_sweep(cfg)
    assert [eta for eta, _, _ in rows] == [0.5, 2.0, 5.0]
    ks = [summary.mean_K for _, _, summary in rows]
    assert ks[0] < ks[1] < ks[2]
    for eta, records, summary in rows:
        assert summary.eta_step == eta and len(records) == cfg.trials


def test_eta_sweep_trials_coupled_across_grid():
    cfg = ExperimentConfig(n=60, d=12, selector=SelectorSpec(method="screen", k=3),
                           trials=3, master_seed=9, alpha=0.1, signal=5.0, active_fraction=0.25,
                           eta_grid=(1.0, 4.0))
    rows = eta_sweep(cfg)
    # same trial index sees the same data at every eta
    for t in range(3):
        assert rows[0][1][t].trial_index == rows[1][1][t].trial_index == t


def test_eta_sweep_validation():
    with pytest.raises(EmptyInput):
        fixed_cfg(eta_grid=())
    with pytest.raises(ValueError):
        fixed_cfg(eta_grid=(0.5, -1.0))
    assert fixed_cfg(eta_grid=[1, 2]).eta_grid == (1.0, 2.0)
    assert len(DEFAULT_ETA_GRID) == 20
    assert DEFAULT_ETA_GRID[0] == 0.5 and DEFAULT_ETA_GRID[-1] == 10.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_eta_sweep_rejects_nonfinite_grid(bad):
    with pytest.raises(ValueError, match="finite"):
        fixed_cfg(eta_grid=(0.5, bad))


# ---------------------------------------------------------------------------
# the block engine against the eta-major oracle


def sweep_cfg(selector, **kw):
    base = dict(n=60, d=12, selector=selector, trials=5, master_seed=21, alpha=0.1,
                signal=5.0, active_fraction=0.25)
    base.update(kw)
    return ExperimentConfig(**base)


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(TrialRecord):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(vb, np.ndarray):
                assert va.dtype == vb.dtype and va.shape == vb.shape, f.name
                assert va.tobytes() == vb.tobytes(), f.name
            else:
                assert va == vb, f.name


ENGINE_CASES = {
    "fixed": sweep_cfg(SelectorSpec(method="fixed", fixed_model=(0, 3)), eta_grid=(0.5, 2.0)),
    "screen": sweep_cfg(SelectorSpec(method="screen", k=3), eta_grid=(0.5, 1.0, 4.0)),
    "fs": sweep_cfg(SelectorSpec(method="fs", k=5), eta_grid=(0.5, 2.0, 4.0)),
    # default steps grow with eta, so later etas extend the replayed steps
    "lasso-c1": sweep_cfg(SelectorSpec(method="lasso", c1=3.0), eta_grid=(0.25, 1.0, 0.5)),
    "lasso-lam-estimate": sweep_cfg(SelectorSpec(method="lasso", lam=0.5, steps=8),
                                    sigma_mode="estimate", eta_grid=(0.25, 0.5, 1.0)),
    # at eta_step 4 the default step count leaves no level: flagged records
    "flagged": sweep_cfg(SelectorSpec(method="lasso", lam=0.5), n=100, d=20, trials=3,
                         signal=5.0, active_fraction=0.15, sigma_mode="estimate",
                         eta_grid=(0.5, 4.0)),
    # n < k: every run runs out of candidates at step n + 1
    "fs-n<k": sweep_cfg(SelectorSpec(method="fs", k=5), n=4, d=10, eta_grid=(0.5, 2.0)),
    "screen-d>n": sweep_cfg(SelectorSpec(method="screen", k=3), n=10, d=30,
                            eta_grid=(0.5, 4.0)),
    # the last round has a single candidate
    "fs-k=d": sweep_cfg(SelectorSpec(method="fs", k=6), n=30, d=6, eta_grid=(0.5, 2.0)),
    "screen-k=d": sweep_cfg(SelectorSpec(method="screen", k=6), n=30, d=6, eta_grid=(1.0,)),
    "shared-design": sweep_cfg(SelectorSpec(method="fs", k=3), regenerate_x_per_trial=False,
                               eta_grid=(0.5, 2.0)),
    "alpha-weights": sweep_cfg(SelectorSpec(method="screen", k=3),
                               alpha_weights=(0.5, 0.25, 0.25), eta_grid=(0.5, 2.0)),
    # three columns on two rows: every record flagged rank_deficient
    "fixed-rank-deficient": sweep_cfg(SelectorSpec(method="fixed", fixed_model=(0, 1, 2)),
                                      n=2, d=5, eta_grid=(1.0,)),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_eta_sweep_matches_eta_major_oracle(case):
    cfg = ENGINE_CASES[case]
    rows = eta_sweep(cfg)
    oracle = eta_major_sweep(cfg)
    assert [eta for eta, _, _ in rows] == [eta for eta, _ in oracle] == list(cfg.eta_grid)
    for (_, records, summary), (_, want) in zip(rows, oracle):
        assert_same_records(records, want)
        assert summary == aggregate(columns(want), summary.eta_step)
    if case == "flagged":
        assert all(r.flagged.startswith("degenerate_level: ") for r in rows[1][1])
        assert all(r.flagged is None for r in rows[0][1])
    if case == "fs-n<k":
        assert all(r.flagged.startswith("all_candidates_collinear: step 5: ")
                   for _, records, _ in rows for r in records)
    if case == "fixed-rank-deficient":
        assert all(r.flagged == "rank_deficient: columns (0, 1, 2): 3 columns on 2 rows"
                   for _, records, _ in rows for r in records)


def _one_round_screen_runs(X, Y, rounds, trial, scales, c1, draws, traced):
    # select_runs hands every kernel the block's draws, and a trace list
    # for a one-run block alone
    assert isinstance(draws, selectors._StepDraws)
    assert (traced is None) == (len(trial) > 1)
    return selectors.screen_runs(X, Y, 1, trial, scales, c1, draws, traced)


def _one_round(spec, X, trial, *data):
    return np.ones(len(trial), dtype=np.int64)


# one-round screening: a method defined here alone, as a record of a kernel,
# a round count and a scale, whatever its spec's k
ONE_ROUND = selectors.Mechanism(("k",), ("k",), _one_round_screen_runs, _one_round,
                                noise.scale_screening)


def test_a_registered_mechanism_runs_through_every_layer(monkeypatch):
    # registered in MECHANISMS and nowhere else, the method is a checked
    # SelectorSpec, a select_runs block, an ExperimentConfig and an eta
    # sweep, and selects exactly what screening with k=1 does
    monkeypatch.setitem(selectors.MECHANISMS, "screen-once", ONE_ROUND)
    with pytest.raises(ValueError, match="^method 'screen-once' does not use c1; remove it$"):
        SelectorSpec(method="screen-once", k=1, c1=1.0)
    with pytest.raises(ValueError, match="^method 'screen-once' needs k$"):
        SelectorSpec(method="screen-once")
    with pytest.raises(ValueError, match="^selector k=13 exceeds d=12$"):
        sweep_cfg(SelectorSpec(method="screen-once", k=13))
    once, screen = SelectorSpec(method="screen-once", k=4), SelectorSpec(method="screen", k=1)
    trials = [one_trial(sweep_cfg(screen), t) for t in range(3)]
    X, Y = stack([X for X, *_ in trials]), np.stack([y for _, _, _, y in trials])
    trial, eta = np.repeat(np.arange(3), 2), np.tile([0.5, 2.0], 3)
    paths = [(2, t) for t in range(3)]
    got, want = (select_runs(spec, X, Y, trial, eta, None, 0.05, 1.0, 21, paths)
                 for spec in (once, screen))
    assert (got.support.sum(axis=1) == 1).all()
    assert got.support.tobytes() == want.support.tobytes()
    assert got.certs == want.certs == tuple(certify_budgets(1, e, 0.05) for e in (0.5, 2.0))
    got, want = (select_runs(spec, X, Y, trial[:1], eta[:1], None, 0.05, 1.0, 21, paths)
                 for spec in (once, screen))  # one run, with its trace
    assert got.support.tobytes() == want.support.tobytes()
    assert got.trace == want.trace and len(got.trace) == 1
    for (_, records, summary), (_, want_records, want_summary) in zip(
            eta_sweep(sweep_cfg(once, eta_grid=(0.5, 2.0))),
            eta_sweep(sweep_cfg(screen, eta_grid=(0.5, 2.0)))):
        assert_same_records(records, want_records)
        assert summary == want_summary


def test_sweep_hands_arrays_from_selection_to_inference(monkeypatch):
    """With SelectionResult and ModelSet.from_unordered made to raise, the
    sweep returns the same records: it builds no per-run selection."""
    cases = ("screen", "fs", "lasso-c1", "fixed")
    want = {case: eta_sweep(ENGINE_CASES[case]) for case in cases}

    def per_run_object(*args, **kwargs):
        raise AssertionError("a per-run selection object was built")

    monkeypatch.setattr(selectors, "SelectionResult", per_run_object)
    monkeypatch.setattr(linmodel.ModelSet, "from_unordered", per_run_object)
    for case in cases:
        for (eta, records, summary), (want_eta, want_records, want_summary) in \
                zip(eta_sweep(ENGINE_CASES[case]), want[case]):
            assert eta == want_eta and summary == want_summary
            assert_same_records(records, want_records)


@pytest.mark.parametrize("case", ["fs", "lasso-c1", "flagged", "lasso-lam-estimate"])
def test_block_size_does_not_change_records(monkeypatch, case):
    cfg = dataclasses.replace(ENGINE_CASES[case], trials=7)
    sweeps = {}
    for size in (1, 3, 16, 64):
        monkeypatch.setattr(experiments, "BLOCK_TRIALS", size)
        sweeps[size] = eta_sweep(cfg)
    for size in (3, 16, 64):
        for (_, records, summary), (_, want, want_summary) in zip(sweeps[size], sweeps[1]):
            assert summary == want_summary
            assert_same_records(records, want)
    # 67 trials on a small design: blocks of 34 and 33 at the cap of 64,
    # of 14 and 13 at 16
    long, longs = dataclasses.replace(cfg, trials=67, n=40, d=8), {}
    for size in (64, 16):
        monkeypatch.setattr(experiments, "BLOCK_TRIALS", size)
        longs[size] = eta_sweep(long)
    for (_, records, summary), (_, want, want_summary) in zip(longs[64], longs[16]):
        assert summary == want_summary
        assert_same_records(records, want)


def test_shared_design_sweep_draws_the_design_at_most_once_per_block(monkeypatch):
    built = []

    def counting(entries):
        built.append(1)
        return DesignMatrix(entries)
    monkeypatch.setattr(experiments, "DesignMatrix", counting)
    # 67 trials are two blocks at the cap of 64, the second of 33 trials
    for trials, sizes in ((7, (1, 3, 16, 64)), (67, (64, 16))):
        cfg = dataclasses.replace(ENGINE_CASES["shared-design"], trials=trials)
        want = eta_major_sweep(cfg)
        for size in sizes:
            monkeypatch.setattr(experiments, "BLOCK_TRIALS", size)
            experiments._shared_design.cache_clear()
            built.clear()
            rows = eta_sweep(cfg)
            assert 1 <= len(built) <= len(block_trials(cfg))
            for (_, records, _), (_, want_records) in zip(rows, want):
                assert_same_records(records, want_records)


def test_sweep_sends_one_task_per_block():
    # one process maps a task per block; on P > 1 the caller runs the
    # first, largest share of the blocks and the map gets one task per
    # other process, holding that process's consecutive blocks
    tasks = []

    def counting_map(fn, xs):
        xs = list(xs)
        tasks.append([[len(block) for block in x[1]] for x in xs])
        return map(fn, xs)

    cfg = dataclasses.replace(ENGINE_CASES["screen"], trials=40)
    eta_sweep(cfg, counting_map)
    eta_sweep(cfg, counting_map, 3)  # blocks of 14, 13 and 13
    eta_sweep(dataclasses.replace(cfg, trials=150), counting_map, 2)  # 3 blocks of 50
    eta_sweep(dataclasses.replace(cfg, trials=250), counting_map, 3)  # 63, 63, 62, 62
    assert tasks == [[[40]], [[13], [13]], [[50]], [[62], [62]]]


def block_sizes(cfg, workers=1):
    """The trial counts of cfg's blocks, checked to tile range(cfg.trials)
    in order."""
    blocks = block_trials(cfg, workers)
    assert [t for block in blocks for t in block] == list(range(cfg.trials))
    return [len(block) for block in blocks]


def test_block_trials_cuts_the_fewest_near_equal_blocks():
    screen = dataclasses.replace(ENGINE_CASES["screen"], eta_grid=(0.5, 1.0, 2.0, 4.0))
    # 250 trials: four blocks of at most 64, the larger first, not 64/64/64/58
    assert block_sizes(dataclasses.replace(screen, trials=250)) == [63, 63, 62, 62]
    # the `lam` sweep benchmark's 60 trials are one block
    lam = ExperimentConfig(n=100, d=20, selector=SelectorSpec(method="lasso", lam=0.5, steps=20),
                           trials=60, master_seed=41, active_fraction=0.15,
                           sigma_mode="estimate", eta_grid=(0.25, 0.5, 1.0))
    assert block_sizes(lam) == [60]
    # a block for each pool worker: 40 trials on 8 workers are 8 blocks of
    # 5, and 128 trials on 8 are 8 blocks of 16, not 2 of 64
    assert block_sizes(dataclasses.replace(screen, trials=40), 8) == [5] * 8
    assert block_sizes(dataclasses.replace(screen, trials=128), 8) == [16] * 8
    assert block_sizes(dataclasses.replace(screen, trials=3), 4) == [1, 1, 1]
    # a block's largest array, runs x n x d doubles, stays within the budget
    assert block_sizes(dataclasses.replace(screen, n=20000, d=300, eta_grid=(1.0,))) == [1] * 5
    big = dataclasses.replace(ENGINE_CASES["screen"], n=1000, d=200)
    big_cap = experiments.BLOCK_BYTES // (len(big.eta_grid) * 1000 * 200 * 8)
    assert big_cap == 3 and block_sizes(dataclasses.replace(big, trials=7)) == [3, 2, 2]
    # against the rule spelled out: the fewest blocks of at most cap trials
    # and no fewer than min(workers, trials), sizes at most one apart
    for cap, cfg in ((experiments.BLOCK_TRIALS, screen), (big_cap, big)):
        for trials in range(1, 140, 3):
            for workers in (1, 2, 3, 8):
                sizes = block_sizes(dataclasses.replace(cfg, trials=trials), workers)
                fewest = next(b for b in range(min(workers, trials), trials + 1)
                              if -(-trials // b) <= cap)
                assert len(sizes) == fewest and max(sizes) - min(sizes) <= 1
                # so a pool has as many processes as the trials allow
                assert min(workers, len(sizes)) == min(workers, trials)
                assert sizes == sorted(sizes, reverse=True)


def test_lasso_sweep_holds_one_steps_draws_at_a_time():
    # 2000 steps of 2d = 2000 draws: a trial's draws for every step at once
    # would take 32 MB
    cfg = ExperimentConfig(n=100, d=1000, selector=SelectorSpec(method="lasso", c1=20.0,
                                                                steps=2000),
                           trials=2, master_seed=8, signal=5.0, active_fraction=0.01,
                           eta_grid=(0.0005, 0.001))
    tracemalloc.start()
    try:
        rows = eta_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(records) for _, records, _ in rows) == 4
    assert peak < 12 * 2 ** 20, peak


def test_eta_sweep_flags_nonconvergence_at_every_eta(monkeypatch):
    monkeypatch.setattr(experiments, "lambda_to_c1", stuck)
    cfg = ENGINE_CASES["lasso-lam-estimate"]
    rows = eta_sweep(cfg)
    for (_, records, _), (_, want) in zip(rows, eta_major_sweep(cfg)):
        assert_same_records(records, want)
        assert all(r.flagged.startswith("non_convergence: ") for r in records)


def counting_starts(monkeypatch, started):
    """Record in started the path of each stream started through
    noise.KeyedGenerator: the selectors' (2, trial, step) streams and the
    (1, trial) data streams."""
    start = KeyedGenerator.start

    def counting(self, seed, path):
        started.append(path)
        return start(self, seed, path)
    monkeypatch.setattr(KeyedGenerator, "start", counting)


def test_lam_block_flags_only_the_trials_whose_penalty_solve_fails(monkeypatch):
    # trials 1 and 3 of a one-block sweep fail their penalty solve: only
    # their records are flagged, and only the other trials key selector streams
    cfg = ENGINE_CASES["lasso-lam-estimate"]
    assert block_trials(cfg) == [range(cfg.trials)] and cfg.trials == 5
    failing = [one_trial(cfg, t)[3] for t in (1, 3)]
    solve = experiments.lambda_to_c1

    def stuck_on_1_and_3(X, Y, lam):
        radii, failed = solve(X, Y, lam)
        for b, y in enumerate(Y):
            if any(np.array_equal(y, bad) for bad in failing):
                radii[b] = math.nan
                failed[b] = NonConvergence("coordinate descent did not reach gap 1e-08")
        return radii, failed

    started = []
    monkeypatch.setattr(experiments, "lambda_to_c1", stuck_on_1_and_3)
    counting_starts(monkeypatch, started)
    rows = eta_sweep(cfg)
    assert {path[1] for path in started if path[0] == experiments._PATH_TRIAL_SELECTOR} == \
        {0, 2, 4}
    for (_, records, _), (_, want) in zip(rows, eta_major_sweep(cfg)):
        assert_same_records(records, want)
        assert [(r.flagged or "").split(":")[0] for r in records] == \
            ["", "non_convergence", "", "non_convergence", ""]


def test_eta_sweep_pool_equals_map():
    cfg = ENGINE_CASES["screen"]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        pooled = eta_sweep(cfg, lambda f, xs: pool.map_async(f, xs).get(timeout=120))
    for (eta_a, records_a, summary_a), (eta_b, records_b, summary_b) in \
            zip(pooled, eta_sweep(cfg)):
        assert eta_a == eta_b and summary_a == summary_b
        assert_same_records(records_a, records_b)


def test_an_eager_map_in_the_callers_process_waits_for_its_share():
    # a map that runs the other shares in the helper thread, in this
    # process: they wait for noise.keyed's lock while the caller's share
    # draws, however often the threads switch
    cfg = dataclasses.replace(ENGINE_CASES["fs"], trials=40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = eta_sweep(cfg, lambda f, xs: [f(x) for x in xs], 4)
    finally:
        sys.setswitchinterval(interval)
    for (eta_a, records_a, summary_a), (eta_b, records_b, summary_b) in \
            zip(pooled, eta_sweep(cfg)):
        assert eta_a == eta_b and summary_a == summary_b
        assert_same_records(records_a, records_b)


def test_a_pool_forked_while_the_callers_share_draws_is_not_locked_out():
    # the map forks its pool from the helper thread while the caller's
    # share draws, holding noise.keyed.lock and, within a draw, its
    # Philox's lock: the child starts its keyed afresh
    cfg = dataclasses.replace(ENGINE_CASES["fs"], trials=40)
    fork = multiprocessing.get_context("fork")

    def forking_map(fn, xs):
        with fork.Pool(1) as pool:
            return pool.map_async(fn, xs).get(timeout=60)

    for (_, records_a, summary_a), (_, records_b, summary_b) in \
            zip(eta_sweep(cfg, forking_map, 2), eta_sweep(cfg)):
        assert summary_a == summary_b
        assert_same_records(records_a, records_b)


def test_eta_sweep_does_eta_free_work_once_per_trial(monkeypatch):
    calls = {"gen": 0, "lam": 0, "sigma": 0}  # trials each was evaluated for

    def counting(key, fn, trials=lambda args: 1):
        def wrapped(*args, **kwargs):
            calls[key] += trials(args)
            return fn(*args, **kwargs)
        return wrapped

    # the block draws its trials, resolves their `lam` radii, and estimates
    # their sigma inside stability.infer_runs, as one stack per call
    monkeypatch.setattr(experiments, "gen_synthetic",
                        counting("gen", gen_synthetic, lambda args: len(args[1])))
    monkeypatch.setattr(experiments, "lambda_to_c1",
                        counting("lam", experiments.lambda_to_c1, lambda args: len(args[1])))
    monkeypatch.setattr(stability, "sigma_hat_full_model", counting(
        "sigma", stability.sigma_hat_full_model, lambda args: len(args[0])))
    started = []
    counting_starts(monkeypatch, started)
    cfg = ENGINE_CASES["lasso-lam-estimate"]
    eta_sweep(cfg)
    data_streams = [p for p in started if p[0] == experiments._PATH_TRIAL_DATA]
    selector_streams = [p for p in started if p[0] == experiments._PATH_TRIAL_SELECTOR]
    assert calls == {"gen": cfg.trials, "lam": cfg.trials, "sigma": cfg.trials}
    assert data_streams == [(experiments._PATH_TRIAL_DATA, t) for t in range(cfg.trials)]
    # one stream per (trial, step), however many etas replay it
    assert len(selector_streams) == len(set(selector_streams)) == cfg.trials * cfg.selector.steps
