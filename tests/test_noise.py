"""Path-keyed randomness, Laplace draws, and noise-scale calibration.

Distribution oracle: scipy.stats. Scale formulas pinned on designs whose
norms are exact by construction (one row of ones, zeros elsewhere).
"""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from stableci.linmodel import DesignMatrix, DesignStack
from stableci.noise import (KeyedGenerator, RngStream, log_descending_factorial,
                            scale_forward_stepwise, scale_lasso, scale_screening, stream_name,
                            typical_halfwidth)
from stableci.selectors import (MECHANISMS, SelectorSpec, select_runs, stable_fs, stable_lasso,
                                stable_screening)


def unit_norm_design(n: int = 1000, d: int = 500) -> DesignMatrix:
    """Every column norm exactly 1 and every entry in {0, 1}."""
    entries = np.zeros((n, d))
    entries[0, :] = 1.0
    return DesignMatrix(entries)


# ---------------------------------------------------------------------------
# streams


def test_stream_replay_and_path_separation():
    a = RngStream(42, (1, 2)).random(6)
    b = RngStream(42, (1, 2)).random(6)
    np.testing.assert_array_equal(a, b)
    c = RngStream(42, (1, 3)).random(6)
    assert not np.array_equal(a, c)
    d = RngStream(43, (1, 2)).random(6)
    assert not np.array_equal(a, d)


def test_child_extends_path():
    base = RngStream(7)
    assert base.child(1).child(2).path == base.child(1, 2).path == (1, 2)
    np.testing.assert_array_equal(base.child(1, 2).random(4),
                                  RngStream(7, (1, 2)).random(4))


def test_stream_continuation():
    s = RngStream(9, (3,))
    two_calls = np.concatenate([s.random(4), s.random(4)])
    np.testing.assert_array_equal(two_calls, RngStream(9, (3,)).random(8))


def test_stream_is_philox_at_its_key_and_counter():
    # the documented layout: key (seed, path[0] + 1), counter
    # (0, path[1] + 1, path[2] + 1, path[3] + 1), an absent word 0
    ref = np.random.Generator(np.random.Philox(
        key=np.array([42, 4], dtype=np.uint64),
        counter=np.array([0, 2, 0, 0], dtype=np.uint64))).standard_normal(5)
    np.testing.assert_array_equal(RngStream(42, (3, 1)).normal(5), ref)
    assert stream_name(42, ()) == ((42, 0), (0, 0, 0, 0))
    assert stream_name(42, (3, 1, 0, 7)) == ((42, 4), (0, 2, 1, 8))


def test_stream_names_of_the_production_paths_are_distinct():
    # the shared design, trial data, selector and step streams of a sweep,
    # criterion 07's step streams, and a path against its zero-extension;
    # draws advance counter word 0 alone, so distinct names share no block
    paths = [(0,), (3,), (3, 0)]
    for t in (0, 1, 2 ** 32, 2 ** 64 - 2):
        paths += [(1, t), (2, t)] + [(2, t, s) for s in (0, 1, 2 ** 64 - 2)]
        paths += [(0, t, 2, s) for s in (1, 2 ** 64 - 2)]
    names = set()
    for path in paths:
        key, counter = stream_name(2 ** 64 - 1, path)
        assert counter[0] == 0
        names.add((key, counter[1:]))
    assert len(names) == len(paths)


def test_keyed_generator_draws_the_fresh_streams_draws():
    keyed = KeyedGenerator()
    for seed, path in [(7, (1, 0)), (2 ** 64 - 1, (1, 1)), (7, (2, 5)), (0, ()),
                       (2 ** 64 - 1, (2 ** 64 - 2,) * 4)]:
        gen, fresh = keyed.start(seed, path), RngStream(seed, path)
        assert gen.standard_normal(5).tobytes() == fresh.normal(5).tobytes()
        assert gen.random(3).tobytes() == fresh.random(3).tobytes()


def test_stream_rejects_a_five_word_path_and_a_full_word_entry():
    with pytest.raises(ValueError, match=r"^a path has at most 4 entries"):
        RngStream(1, (0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match=r"^a path has at most 4 entries"):
        RngStream(1, (0, 2 ** 64 - 1))
    with pytest.raises(ValueError, match=r"^a path has at most 4 entries"):
        KeyedGenerator().start(1, (0, 1, 2, 3, 4))


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)
    with pytest.raises(ValueError):
        RngStream(0, (-1,))


# ---------------------------------------------------------------------------
# laplace sampling


def test_laplace_is_inverse_cdf_of_the_uniform_stream():
    u = RngStream(11, (4,)).random(1000) - 0.5
    au = np.minimum(np.abs(u), np.nextafter(0.5, 0.0))
    expect = -np.sign(u) * np.log1p(-2.0 * au)
    np.testing.assert_array_equal(RngStream(11, (4,)).standard_laplace(1000), expect)


def test_laplace_transform_quartile_point():
    # centered u = 1/4 maps to the upper quartile ln 2 ~ 0.693147
    u = 0.25
    assert -np.sign(u) * np.log1p(-2.0 * u) == pytest.approx(math.log(2.0), abs=1e-15)


def test_laplace_endpoint_guarded():
    assert math.isfinite(-np.log1p(-2.0 * np.nextafter(0.5, 0.0)))
    draws = RngStream(5, (0,)).standard_laplace(1_000_000)
    assert np.all(np.isfinite(draws))


def test_laplace_scale_zero_is_exact():
    np.testing.assert_array_equal(RngStream(1, (1,)).laplace(0.0, 100), np.zeros(100))
    with pytest.raises(ValueError):
        RngStream(1, (1,)).laplace(-0.5)


def test_laplace_distribution_ks():
    draws = RngStream(1, (9,)).laplace(1.5, 100_000)
    ks = scipy.stats.kstest(draws, "laplace", args=(0.0, 1.5))
    assert ks.pvalue > 0.01


def test_laplace_variance():
    # Var = 2 b^2 = 8 at b = 2
    v = RngStream(99, (2,)).laplace(2.0, 1_000_000).var()
    assert v == pytest.approx(8.0, abs=0.1)


# ---------------------------------------------------------------------------
# noise scale calibration


@pytest.mark.parametrize("name, value, message", [
    *(("sigma", v, "sigma must be finite and positive") for v in (0.0, -1.0, math.inf, math.nan)),
    *(("delta", v, r"delta must be in \(0, 1\)") for v in (0.0, 1.0, math.nan)),
    *(("eta_step", v, "eta_step must be finite and positive") for v in (0.0, math.inf, math.nan)),
])
def test_selectors_reject_bad_noise_parameters(name, value, message):
    # every selector entry checks sigma, delta and eta_step in select_runs,
    # a one-run call and a two-run block alike
    gen = np.random.default_rng(5)
    X = DesignMatrix(gen.standard_normal((30, 6)) / math.sqrt(30))
    y = gen.standard_normal(30)
    knobs = {"sigma": 1.0, "delta": 0.05, "eta_step": 1.0, name: value}
    sigma, delta, eta = knobs["sigma"], knobs["delta"], knobs["eta_step"]
    rng = RngStream(0)
    calls = [
        lambda: stable_screening(X, y, 2, delta, eta, sigma, rng=rng),
        lambda: stable_fs(X, y, 2, delta, eta, sigma, rng=rng),
        lambda: stable_lasso(X, y, 1.0, delta, eta, sigma, rng=rng, steps=2),
        lambda: select_runs(SelectorSpec("screen", k=2), X.stack, y[None],
                            np.zeros(2, dtype=np.int64), np.array([1.0, eta]), None, delta,
                            sigma, 0, [()]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
            call()


def scale_grid():
    """Scale arguments (X, trial, k, c1, sigma, delta, eta_step) over
    d in {1, 2, 20, 301}, k in {1, 3} (k <= d), delta in {1e-12, 0.02} and
    sigma in {1e-300, 1, 1e300}, with arrays of eta_step and c1 over two
    5 x d designs."""
    gen = np.random.default_rng(11)
    trial, c1 = np.array([0, 1, 1, 0]), np.array([0.0, 0.5, 1.0, 10.0])
    eta = np.array([1e-3, 0.25, 1.0, 40.0])
    for d in (1, 2, 20, 301):
        X = DesignStack.checked(gen.standard_normal((2, 5, d)))
        for k, delta, sigma in itertools.product((1, 3), (1e-12, 0.02), (1e-300, 1.0, 1e300)):
            if k <= d:
                yield X, trial, k, c1, sigma, delta, eta


def test_scale_screening_value():
    X = unit_norm_design()
    got = scale_screening(X.stack, 0, None, None, 1.0, 0.05, 1.0)
    ref = 4.0 * math.sqrt(math.log(2 * 500 / 0.05)) / 1000
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.012587922816754877, abs=1e-15)
    # bit for bit its typical_halfwidth expression and the formula written out
    for X, trial, k, c1, sigma, delta, eta in scale_grid():
        got = scale_screening(X, trial, k, c1, sigma, delta, eta).tobytes()
        norm = X.l2inf[trial] / (X.n * eta)
        log_2n = math.log(2.0 * X.d)
        assert got == (2.0 * typical_halfwidth(log_2n, delta, sigma) * norm).tobytes()
        assert got == (4.0 * math.sqrt(log_2n - math.log(delta)) * sigma * norm).tobytes()


def test_scale_lasso_value():
    X = unit_norm_design()
    got = scale_lasso(X.stack, 0, None, 1.0, 1.0, 0.05, 1.0)
    ref = 8.0 * math.sqrt(math.log(4 * 500 / 0.05)) / 1000
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.02604197809149967, abs=1e-15)
    # bit for bit its typical_halfwidth expression and the formula written out
    for X, trial, k, c1, sigma, delta, eta in scale_grid():
        got = scale_lasso(X, trial, k, c1, sigma, delta, eta).tobytes()
        norm = c1 * X.l2inf[trial] / (X.n * eta)
        log_2n = math.log(4.0 * X.d)
        assert got == (4.0 * typical_halfwidth(log_2n, delta, sigma) * norm).tobytes()
        assert got == (8.0 * math.sqrt(log_2n - math.log(delta)) * sigma * norm).tobytes()


def test_scale_forward_stepwise_value():
    got = scale_forward_stepwise(unit_norm_design().stack, 0, 5, None, 1.0, 0.05, 1.0)
    exact = math.perm(500, 5)
    ref = 4.0 * math.sqrt(math.log(2 * exact / 0.05))
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(23.57689027098658, abs=1e-11)
    # bit for bit its typical_halfwidth expression and the formula written out
    for X, trial, k, c1, sigma, delta, eta in scale_grid():
        got = scale_forward_stepwise(X, trial, k, c1, sigma, delta, eta).tobytes()
        log_2n = math.log(2.0) + log_descending_factorial(X.d, k)
        assert got == (2.0 * typical_halfwidth(log_2n, delta, sigma) / eta).tobytes()
        assert got == (4.0 * math.sqrt(log_2n - math.log(delta)) * sigma / eta).tobytes()


def test_scales_shrink_with_eta_and_n():
    X1, X2 = unit_norm_design(1000).stack, unit_norm_design(2000).stack
    for scale in (scale_screening, scale_lasso, scale_forward_stepwise):
        assert scale(X1, 0, 5, 1.0, 1.0, 0.05, 2.0) == pytest.approx(
            scale(X1, 0, 5, 1.0, 1.0, 0.05, 1.0) / 2)
    # 1/n enters screening and lasso through the design, never fs
    for scale, ratio in ((scale_screening, 2), (scale_lasso, 2), (scale_forward_stepwise, 1)):
        assert scale(X2, 0, 5, 1.0, 1.0, 0.05, 1.0) == pytest.approx(
            scale(X1, 0, 5, 1.0, 1.0, 0.05, 1.0) / ratio)


def test_scale_validation():
    X = unit_norm_design(10, 4).stack
    with pytest.raises(ValueError):
        scale_forward_stepwise(X, 0, 5, None, 1.0, 0.05, 1.0)
    # a subnormal eta_step overflows every scale to inf
    for scale in (scale_lasso, scale_screening, scale_forward_stepwise):
        with pytest.raises(ValueError, match=r"^the Laplace scale overflows at eta_step=1e-310"):
            scale(X, 0, 2, 1.0, 1.0, 0.05, 1e-310)
    # the LASSO record's scale, where a radius of 0 (an all-zero solution
    # of a `lam` penalty) gets scale 0
    assert MECHANISMS["lasso"].scale is scale_lasso
    assert scale_lasso(X, 0, None, 0.0, 1.0, 0.05, 1.0) == 0.0
    assert scale_lasso(X, np.array([0, 0]), None, np.array([0.0, 1.0]), 1.0, 0.05, 1.0)[0] == 0.0


def test_scales_of_a_block_are_each_runs_scale_and_name_the_first_overflow():
    # one array expression over per-trial norms and per-run etas gives each
    # run, bit for bit, what a block of that run alone gives it
    gen = np.random.default_rng(3)
    X = DesignStack.checked(gen.standard_normal((3, 12, 5)))
    trial, eta = np.array([2, 0, 0, 1, 2]), np.array([0.5, 1.0, 4.0, 0.25, 2.0])
    c1 = np.array([1.5, 0.2, 0.2, 3.0, 1.5])
    scales = (scale_screening, scale_lasso, scale_forward_stepwise)
    block = [scale(X, trial, 2, c1, 1.0, 0.05, eta) for scale in scales]
    for r in range(5):
        alone = [scale(X, trial[r:r + 1], 2, c1[r:r + 1], 1.0, 0.05, eta[r:r + 1])
                 for scale in scales]
        assert [b[r] for b in block] == [a[0] for a in alone]
    eta[3:] = [1e-310, 2e-310]
    for scale in scales:
        with pytest.raises(ValueError, match=r"^the Laplace scale overflows at eta_step=1e-310;"):
            scale(X, trial, 2, c1, 1.0, 0.05, eta)


def test_descending_factorial():
    assert log_descending_factorial(5, 2) == pytest.approx(math.log(20))
    assert log_descending_factorial(7, 0) == 0.0
    assert log_descending_factorial(500, 5) == pytest.approx(
        math.log(math.perm(500, 5)), rel=1e-12)
    with pytest.raises(ValueError):
        log_descending_factorial(3, 4)
