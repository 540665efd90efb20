"""Path-keyed randomness, Laplace draws, and noise-scale calibration.

Distribution oracle: scipy.stats. Scale formulas pinned on designs whose
norms are exact by construction (one row of ones, zeros elsewhere).
"""

import math

import numpy as np
import pytest
import scipy.stats

from stableci.linmodel import DesignMatrix
from stableci.noise import (NoisePolicy, OrliczFamily, RngStream, Subgaussian,
                            log_descending_factorial, scale_forward_stepwise,
                            scale_lasso, scale_screening)
from stableci.stability import SUBGAUSSIAN


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
        Subgaussian(0.0)
    with pytest.raises(ValueError):
        OrliczFamily(SUBGAUSSIAN, 0.0)
    with pytest.raises(ValueError):
        NoisePolicy(Subgaussian(1.0), delta=0.0, eta_step=1.0)
    with pytest.raises(ValueError):
        NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=0.0)


def test_scale_screening_value():
    X = unit_norm_design()
    policy = NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=1.0)
    got = scale_screening(500, X, policy)
    ref = 4.0 * math.sqrt(math.log(2 * 500 / 0.05)) / 1000
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.012587922816754877, abs=1e-15)


def test_scale_lasso_value():
    X = unit_norm_design()
    policy = NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=1.0)
    got = scale_lasso(500, 1.0, X, policy)
    ref = 8.0 * math.sqrt(math.log(4 * 500 / 0.05)) / 1000
    assert got == pytest.approx(ref, rel=1e-14)
    assert got == pytest.approx(0.02604197809149967, abs=1e-15)


def test_scale_forward_stepwise_value():
    policy = NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=1.0)
    got = scale_forward_stepwise(500, 5, policy)
    exact = math.perm(500, 5)
    ref = 4.0 * math.sqrt(math.log(2 * exact / 0.05))
    assert got == pytest.approx(ref, rel=1e-12)
    assert got == pytest.approx(23.57689027098658, abs=1e-11)


def test_scales_shrink_with_eta_and_n():
    X1, X2 = unit_norm_design(1000), unit_norm_design(2000)
    p1 = NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=1.0)
    p2 = NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=2.0)
    assert scale_screening(500, X1, p2) == pytest.approx(scale_screening(500, X1, p1) / 2)
    assert scale_lasso(500, 1.0, X1, p2) == pytest.approx(scale_lasso(500, 1.0, X1, p1) / 2)
    assert scale_forward_stepwise(500, 5, p2) == pytest.approx(
        scale_forward_stepwise(500, 5, p1) / 2)
    # 1/n enters screening and lasso through the design, never fs
    assert scale_screening(500, X2, p1) == pytest.approx(scale_screening(500, X1, p1) / 2)
    assert scale_lasso(500, 1.0, X2, p1) == pytest.approx(scale_lasso(500, 1.0, X1, p1) / 2)


def test_scale_orlicz_variants():
    X = unit_norm_design()
    fam = OrliczFamily(SUBGAUSSIAN, G=1.0)
    policy = NoisePolicy(fam, delta=0.05, eta_step=1.0)
    base = 1.0 / 1000
    inv = math.sqrt(math.log(21.0))  # psi^{-1}(1/0.05)
    assert scale_screening(500, X, policy) == pytest.approx(2.0 * inv * base, rel=1e-14)
    assert scale_lasso(500, 1.0, X, policy) == pytest.approx(4.0 * inv * base, rel=1e-14)
    assert scale_forward_stepwise(500, 5, policy) == pytest.approx(2.0 * inv, rel=1e-14)


def test_scale_validation():
    X = unit_norm_design(10, 4)
    policy = NoisePolicy(Subgaussian(1.0), delta=0.05, eta_step=1.0)
    with pytest.raises(ValueError):
        scale_screening(0, X, policy)
    with pytest.raises(ValueError):
        scale_lasso(4, 0.0, X, policy)
    with pytest.raises(ValueError):
        scale_forward_stepwise(4, 5, policy)


def test_descending_factorial():
    assert log_descending_factorial(5, 2) == pytest.approx(math.log(20))
    assert log_descending_factorial(7, 0) == 0.0
    assert log_descending_factorial(500, 5) == pytest.approx(
        math.log(math.perm(500, 5)), rel=1e-12)
    with pytest.raises(ValueError):
        log_descending_factorial(3, 4)
