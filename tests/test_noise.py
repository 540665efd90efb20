"""Path-keyed randomness, Laplace draws, and noise-scale calibration.

Distribution oracle: scipy.stats. Scale formulas pinned on designs whose
norms are exact by construction (one row of ones, zeros elsewhere).
"""

import math

import numpy as np
import pytest
import scipy.stats

from stableci.linmodel import DesignMatrix
from stableci.noise import (KeyedGenerator, NoisePolicy, RngStream, log_descending_factorial,
                            philox_keys, scale_forward_stepwise, scale_lasso, scale_screening)


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


def test_stream_matches_seed_sequence_spawn_key():
    # the documented derivation: Philox keyed by SeedSequence spawn keys
    ref = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=42, spawn_key=(3, 1)))).standard_normal(5)
    np.testing.assert_array_equal(RngStream(42, (3, 1)).normal(5), ref)


SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
PATHS = ((0,), (3,), (0, 0), (2, 7), (1, 0, 5), (2, 2 ** 32 - 1, 0), (0, 0, 0, 0), (4, 1, 0, 9))


def seed_sequence_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_keys_are_seed_sequence_keys(seed):
    for length in range(1, 5):
        paths = [p for p in PATHS if len(p) == length]
        keys = philox_keys([seed] * len(paths), paths)
        assert keys.dtype == np.uint64 and keys.shape == (len(paths), 2)
        for key, path in zip(keys, paths):
            assert key.tobytes() == seed_sequence_key(seed, path).tobytes(), path


def test_philox_keys_of_mixed_seeds_in_one_batch():
    seeds = [SEEDS[i % len(SEEDS)] for i in range(12)] + list(range(100, 120))
    paths = [(i % 3, i, 0) for i in range(len(seeds))]
    keys = philox_keys(seeds, paths)
    for key, seed, path in zip(keys, seeds, paths):
        assert key.tobytes() == seed_sequence_key(seed, path).tobytes(), (seed, path)


def test_philox_keys_of_the_empty_path_are_the_seeds_keys():
    keys = philox_keys(SEEDS, np.zeros((len(SEEDS), 0), dtype=np.uint64))
    for key, seed in zip(keys, SEEDS):
        assert key.tobytes() == seed_sequence_key(seed, ()).tobytes()
    assert philox_keys([], np.zeros((0, 2), dtype=np.uint64)).shape == (0, 2)


def test_philox_keys_reject_a_two_word_path_entry_and_ragged_shapes():
    with pytest.raises(ValueError, match=r"^path entries must be below 2\*\*32, got 4294967296$"):
        philox_keys([1], [(0, 2 ** 32)])
    with pytest.raises(ValueError, match="need N seeds"):
        philox_keys([1, 2], [(0, 1)])


def test_keyed_generator_draws_the_fresh_streams_draws():
    seeds, paths = [7, 2 ** 64 - 1, 7], [(1, 0), (1, 1), (2, 5)]
    keyed = KeyedGenerator()
    for key, seed, path in zip(philox_keys(seeds, paths), seeds, paths):
        gen, fresh = keyed.start(key), RngStream(seed, path)
        assert gen.standard_normal(5).tobytes() == fresh.normal(5).tobytes()
        assert gen.random(3).tobytes() == fresh.random(3).tobytes()


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


def test_family_validation():
    with pytest.raises(ValueError):
        NoisePolicy(1.0, delta=0.0, eta_step=1.0)
    with pytest.raises(ValueError):
        NoisePolicy(1.0, delta=0.05, eta_step=0.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_policy_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        NoisePolicy(sigma, delta=0.05, eta_step=1.0)


def test_scale_screening_value():
    X = unit_norm_design()
    policy = NoisePolicy(1.0, delta=0.05, eta_step=1.0)
    got = scale_screening(X, policy)
    ref = 4.0 * math.sqrt(math.log(2 * 500 / 0.05)) / 1000
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.012587922816754877, abs=1e-15)


def test_scale_lasso_value():
    X = unit_norm_design()
    policy = NoisePolicy(1.0, delta=0.05, eta_step=1.0)
    got = scale_lasso(1.0, X, policy)
    ref = 8.0 * math.sqrt(math.log(4 * 500 / 0.05)) / 1000
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.02604197809149967, abs=1e-15)


def test_scale_forward_stepwise_value():
    policy = NoisePolicy(1.0, delta=0.05, eta_step=1.0)
    got = scale_forward_stepwise(500, 5, policy)
    exact = math.perm(500, 5)
    ref = 4.0 * math.sqrt(math.log(2 * exact / 0.05))
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(23.57689027098658, abs=1e-11)


def test_scales_shrink_with_eta_and_n():
    X1, X2 = unit_norm_design(1000), unit_norm_design(2000)
    p1 = NoisePolicy(1.0, delta=0.05, eta_step=1.0)
    p2 = NoisePolicy(1.0, delta=0.05, eta_step=2.0)
    assert scale_screening(X1, p2) == pytest.approx(scale_screening(X1, p1) / 2)
    assert scale_lasso(1.0, X1, p2) == pytest.approx(scale_lasso(1.0, X1, p1) / 2)
    assert scale_forward_stepwise(500, 5, p2) == pytest.approx(
        scale_forward_stepwise(500, 5, p1) / 2)
    # 1/n enters screening and lasso through the design, never fs
    assert scale_screening(X2, p1) == pytest.approx(scale_screening(X1, p1) / 2)
    assert scale_lasso(1.0, X2, p1) == pytest.approx(scale_lasso(1.0, X1, p1) / 2)


def test_scale_validation():
    X = unit_norm_design(10, 4)
    policy = NoisePolicy(1.0, delta=0.05, eta_step=1.0)
    with pytest.raises(ValueError):
        scale_lasso(0.0, X, policy)
    with pytest.raises(ValueError):
        scale_forward_stepwise(4, 5, policy)
    # a subnormal eta_step overflows every scale to inf
    tiny = NoisePolicy(1.0, delta=0.05, eta_step=1e-310)
    for call in (lambda: scale_lasso(1.0, X, tiny), lambda: scale_screening(X, tiny),
                 lambda: scale_forward_stepwise(4, 2, tiny)):
        with pytest.raises(ValueError, match=r"^the Laplace scale overflows at eta_step=1e-310"):
            call()


def test_descending_factorial():
    assert log_descending_factorial(5, 2) == pytest.approx(math.log(20))
    assert log_descending_factorial(7, 0) == 0.0
    assert log_descending_factorial(500, 5) == pytest.approx(
        math.log(math.perm(500, 5)), rel=1e-12)
    with pytest.raises(ValueError):
        log_descending_factorial(3, 4)
