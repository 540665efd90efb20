"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every criterion computes its statistic first, prints PASS/FAIL with the
measured margin, then asserts.
"""

import json
import math
import time

import numpy as np
import pytest

from stableci.cli import main
from stableci.experiments import ExperimentConfig, SelectorSpec, aggregate, eta_sweep
from stableci.linmodel import DesignMatrix
from stableci.noise import NoisePolicy, RngStream, scale_forward_stepwise, scale_screening
from stableci.selectors import solve_penalized_lasso, stable_fs, stable_lasso, stable_screening
from stableci.stability import (StabilityBudget, compose_adaptive_advanced,
                                compose_adaptive_simple,
                                eta_step_for_total, sparse_selection_eta)

from oracles import fs_exact, lasso_exact_fw, screening_exact, support


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def miscoverage(records):
    s = aggregate(records)
    return 1.0 - s.empirical_coverage


def test_criterion_01_classical_recovery():
    start = time.time()
    cfg = ExperimentConfig(
        n=200, d=10, selector=SelectorSpec(method="fixed", fixed_model=(0, 1, 2)),
        trials=10_000, master_seed=101, alpha=0.1, alpha_weights=(1.0, 0.0, 0.0),
        signal=5.0, active_fraction=0.3, eta_grid=(1.0,))
    # a fixed model's records do not depend on eta
    [(_, records, _)] = eta_sweep(cfg)
    mis = miscoverage(records)
    elapsed = time.time() - start
    hi = 0.1 + 3 * math.sqrt(0.09 / 10_000)
    ok = 0.02 <= mis <= hi and elapsed < 30
    report(1, "classical recovery", ok,
           f"miscoverage={mis:.4f} in [0.02, {hi:.4f}], {elapsed:.1f}s < 30s")
    assert ok


def test_criterion_02_stable_selector_coverage():
    start = time.time()
    delta_sel = (0.1 / 3 + 0.1 / 3) / 2  # tau+nu slack the trial runner spends
    results = {}
    for label, spec, k in [
        ("screen", SelectorSpec(method="screen", k=3), 3),
        ("fs", SelectorSpec(method="fs", k=3), 3),
        ("lasso", SelectorSpec(method="lasso", c1=2.0, steps=20), 20),
    ]:
        step = eta_step_for_total(k, delta_sel, 1.0)
        cfg = ExperimentConfig(n=100, d=20, selector=spec, trials=2000,
                               master_seed=202, alpha=0.1, signal=5.0, active_fraction=0.15,
                               eta_grid=(step,))
        [(_, records, _)] = eta_sweep(cfg)
        results[label] = miscoverage(records)
    elapsed = time.time() - start
    hi = 0.1 + 3 * math.sqrt(0.09 / 2000)
    ok = all(v <= hi for v in results.values()) and elapsed < 180
    report(2, "coverage under stable selection", ok,
           ", ".join(f"{k}={v:.4f}" for k, v in results.items())
           + f" all <= {hi:.4f}, {elapsed:.1f}s < 180s")
    assert ok


def test_criterion_03_indistinguishability_ratio():
    start = time.time()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(202)))
    Q, _ = np.linalg.qr(gen.standard_normal((20, 4)))
    X = DesignMatrix(Q)
    sigma, delta, eta = 1.0, 0.05, 0.5
    thr = 2.0 * math.sqrt(math.log(2 * X.d / delta)) * sigma * X.stack.l2inf[0] / X.n
    y = gen.standard_normal(20)
    y_prime = y + 0.999 * thr * X.n * X.entries[:, 0]
    # the pair sits inside the typical set the certificate quantifies over
    shift = np.max(np.abs(X.entries.T @ (y - y_prime) / X.n))
    assert shift <= thr

    trials = 100_000
    counts = np.zeros((2, X.d))
    for s in range(trials):
        a = stable_screening(X, y, 1, delta, eta, sigma,
                             rng=RngStream(s, (3,)))
        b = stable_screening(X, y_prime, 1, delta, eta, sigma,
                             rng=RngStream(s, (4,)))
        counts[0, a.model.indices[0]] += 1
        counts[1, b.model.indices[0]] += 1
    f, fp = counts[0] / trials, counts[1] / trials
    rel_se = np.sqrt((1 - f) / (trials * f) + (1 - fp) / (trials * fp))
    bound = math.exp(eta) * (1 + 4 * rel_se)
    ratios = np.maximum(f / fp, fp / f)
    elapsed = time.time() - start
    ok = bool(np.all(ratios <= bound)) and elapsed < 30
    report(3, "indistinguishability ratio", ok,
           f"max ratio={ratios.max():.3f} <= bound {bound.min():.3f}, "
           f"{elapsed:.1f}s < 30s")
    assert ok


def test_criterion_04_composition_arithmetic():
    adv = compose_adaptive_advanced(0.1, 10, 0.05)
    simple_a = compose_adaptive_simple(0.1, 0.0, 10)
    simple_b = compose_adaptive_simple(0.05, 0.001, 20)
    ok = (abs(adv - 0.82405) <= 1e-4
          and simple_a == pytest.approx((1.0, 0.0), abs=1e-12)
          and simple_b == pytest.approx((1.0, 0.02), abs=1e-12))
    report(4, "composition arithmetic", ok,
           f"advanced={adv:.6f} (target 0.82405 +/- 1e-4), simple sums exact")
    assert ok


def test_criterion_05_sparse_selection_constant():
    small = sparse_selection_eta(10, 3, 0.05)
    target = math.log(3500)
    big = sparse_selection_eta(500, 10, 0.05)
    oracle = math.log(sum(math.comb(500, k) for k in range(1, 11))) - math.log(0.05)
    ok = (abs(small - target) <= 1e-9 and math.isfinite(big)
          and abs(big - oracle) <= 1e-9 * abs(oracle))
    report(5, "sparse-selection constant", ok,
           f"eta(10,3)={small:.9f} vs log(3500)={target:.9f}; "
           f"eta(500,10)={big:.6f} matches big-integer oracle")
    assert ok


def constrained_lstar_lower(X, y, c1):
    theta, *_ = np.linalg.lstsq(X.entries, y, rcond=None)
    if np.abs(theta).sum() <= c1:
        r = y - X.entries @ theta
        return float(r @ r) / X.n
    lam_hi = float(np.max(np.abs(X.entries.T @ y)))
    lo, hi = 1e-6 * lam_hi, lam_hi
    best = -math.inf
    for _ in range(60):
        lam = 0.5 * (lo + hi)
        th = solve_penalized_lasso(X.stack, y, lam, gap_tol=1e-10)
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


def test_criterion_06_frank_wolfe_convergence():
    worst = -math.inf
    c1 = 1.0
    for inst in range(50):
        r = RngStream(77).child(inst)
        X = DesignMatrix(r.child(0).normal((50, 20)) / math.sqrt(50))
        beta = np.zeros(20)
        beta[:4] = 3.0
        y = X.entries @ beta + r.child(1).normal(50)
        lstar = constrained_lstar_lower(X, y, c1)
        res = stable_lasso(X, y, c1, 0.05, 1.0, 1.0, rng=r.child(2), steps=200,
                           scale_override=0.0)
        cap = 8.0 * X.stack.linf[0] ** 2 * c1 ** 2
        for s in res.trace:
            worst = max(worst, (s.objective - lstar) / (cap / (s.step + 2)))
    ok = worst <= 1.0
    report(6, "frank-wolfe curvature bound", ok,
           f"worst gap/bound ratio={worst:.4f} <= 1 over 50 instances, k<=200")
    assert ok


def test_criterion_07_selector_utility():
    d, k, delta_sel, delta_fail, eta = 20, 3, 0.1, 0.1, 1.0
    policy = NoisePolicy(1.0, delta_sel, eta)
    trials = 500
    hits_screen = hits_fs = 0
    root = RngStream(404)
    for tr in range(trials):
        r = root.child(0, tr)
        X = DesignMatrix(r.child(0).normal((100, d)) / 10.0)
        beta = np.zeros(d)
        beta[:3] = 5.0
        y = X.entries @ beta + r.child(1).normal(100)

        b_screen = scale_screening(X.stack, 0, k, None, policy.sigma, policy.delta,
                                   policy.eta_step)
        res = stable_screening(X, y, k, delta_sel, eta, 1.0,
                               rng=r.child(2))
        gap = max(s.best_exact - s.exact_score for s in res.trace)
        hits_screen += gap <= 2 * b_screen * math.log(d * k / delta_fail)

        b_fs = scale_forward_stepwise(X.stack, 0, k, None, policy.sigma, policy.delta,
                                      policy.eta_step)
        res = stable_fs(X, y, k, delta_sel, eta, 1.0, rng=r.child(3))
        s2 = res.trace[1]
        hits_fs += (s2.best_exact - s2.exact_score) <= 2 * b_fs * math.log(d / delta_fail)
    fs_rate, screen_rate = hits_fs / trials, hits_screen / trials
    ok = screen_rate >= 0.86 and fs_rate >= 0.86
    report(7, "selector utility bounds", ok,
           f"screening {screen_rate:.3f}, fs(t=2) {fs_rate:.3f}, both >= 0.86 "
           f"(0.9 minus 3-sigma binomial slack)")
    assert ok


def test_criterion_08_zero_noise_limits():
    shapes = [(25, 8), (40, 12), (15, 5), (60, 20)]
    mismatches = []
    for seed in range(100):
        n, d = shapes[seed % len(shapes)]
        gen = np.random.default_rng(seed)
        entries = gen.standard_normal((n, d)) / math.sqrt(n)
        if seed % 5 == 0:
            entries[:, d - 1] = entries[:, 0]  # exact duplicate: score ties
        if seed % 7 == 0:
            entries[:, d - 2] = -entries[:, 1]  # negated twin ties in |.|
        X = DesignMatrix(entries)
        beta = np.zeros(d)
        beta[: d // 3] = 2.0
        y = X.entries @ beta + gen.standard_normal(n)
        if seed % 11 == 0:
            y = np.zeros(n)  # every score ties at zero
        k = 1 + seed % 3
        rng = RngStream(seed)

        got = stable_screening(X, y, k, 0.05, 1.0, 1.0, rng=rng.child(0),
                               scale_override=0.0).model
        if got != screening_exact(X, y, k):
            mismatches.append((seed, "screen"))
        got = stable_fs(X, y, k, 0.05, 1.0, 1.0, rng=rng.child(1),
                        scale_override=0.0).model
        if got != fs_exact(X, y, k):
            mismatches.append((seed, "fs"))
        res = stable_lasso(X, y, 1.5, 0.05, 1.0, 1.0, rng=rng.child(2), steps=30,
                           scale_override=0.0)
        exact_theta = lasso_exact_fw(X, y, 1.5, 30)
        if not np.array_equal(res.theta, exact_theta) or res.model != support(exact_theta):
            mismatches.append((seed, "lasso"))
    ok = not mismatches
    report(8, "zero-noise limits", ok,
           f"100 instances x 3 selectors, mismatches={mismatches}")
    assert ok


def test_criterion_09_trend_reproduction():
    grid = (0.5, 2.0, 5.0, 10.0)
    base = dict(n=200, d=50, trials=300, master_seed=303, alpha=0.1,
                signal=5.0, active_fraction=0.8)
    trends = {}
    for label, spec in [("screen", SelectorSpec(method="screen", k=5)),
                        ("fs", SelectorSpec(method="fs", k=5)),
                        ("lasso", SelectorSpec(method="lasso", lam=3.0, steps=20))]:
        rows = eta_sweep(ExperimentConfig(selector=spec, eta_grid=grid, **base))
        trends[label] = [summary for _, _, summary in rows]
    k_monotone = {lbl: all(a.mean_K < b.mean_K for a, b in zip(t, t[1:]))
                  for lbl, t in trends.items()}
    fdr_ok = {lbl: trends[lbl][-1].mean_fdr <= trends[lbl][0].mean_fdr
              for lbl in ("screen", "fs")}
    risk_ok = trends["lasso"][-1].mean_risk <= trends["lasso"][0].mean_risk
    ok = all(k_monotone.values()) and all(fdr_ok.values()) and risk_ok
    report(9, "figure trends at desk scale", ok,
           f"K strictly increasing {k_monotone}; "
           f"fdr(10)<=fdr(0.5) {fdr_ok}; "
           f"lasso risk {trends['lasso'][0].mean_risk:.3f}->"
           f"{trends['lasso'][-1].mean_risk:.3f}")
    assert ok


def test_criterion_10_worker_determinism(tmp_path):
    start = time.time()
    cfg = {"n": 100, "d": 20, "trials": 10, "master_seed": 5,
           "signal": 5.0, "active_fraction": 0.15,
           "selector": {"method": "screen", "k": 3}, "eta_grid": [1.0, 5.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"w{workers}"
        rc = main(["experiment", "--config", str(cfg_path),
                   "--out-dir", str(out_dir), "--workers", str(workers)])
        assert rc == 0
        outs[workers] = {name: (out_dir / name).read_bytes()
                         for name in ("records.csv", "summary.csv", "plot_width.csv",
                                      "plot_fdr.csv", "plot_risk.csv")}
    elapsed = time.time() - start
    identical = outs[1] == outs[8]
    ok = identical and elapsed < 10
    report(10, "worker-count determinism", ok,
           f"1 vs 8 workers byte-identical={identical}, {elapsed:.1f}s < 10s")
    assert ok
