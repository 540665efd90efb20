"""Design/model containers and the OLS layer against closed-form and
numpy.linalg.lstsq oracles."""

import numpy as np
import pytest

from stableci.errors import (DimensionMismatch, InsufficientSamples,
                             RankDeficient)
from stableci.linmodel import (DesignMatrix, ModelSet, SubmodelFit,
                               as_response, ols_fit, sigma_hat_full_model,
                               stderr_known_sigma, target_coefficients)

LINE = DesignMatrix([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])


def test_design_matrix_norms():
    X = DesignMatrix([[3.0, 0.0], [4.0, -5.0]])
    assert X.n == 2 and X.d == 2
    np.testing.assert_allclose(X.col_norms, [5.0, 5.0])
    assert X.l2inf_norm == 5.0
    assert X.linf_norm == 5.0
    np.testing.assert_array_equal(X.submatrix(ModelSet((1,))), [[0.0], [-5.0]])


def test_design_matrix_is_frozen():
    X = DesignMatrix([[1.0]])
    with pytest.raises(ValueError):
        X.entries[0, 0] = 2.0


@pytest.mark.parametrize("bad", [[1.0, 2.0], [[[1.0]]], np.zeros((0, 3))])
def test_design_matrix_shape_validation(bad):
    with pytest.raises(DimensionMismatch):
        DesignMatrix(bad)


def test_design_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        DesignMatrix([[1.0, np.nan]])


def test_model_set_ordering():
    M = ModelSet((0, 2, 5))
    assert len(M) == 3 and list(M) == [0, 2, 5]
    assert 2 in M and 3 not in M
    with pytest.raises(ValueError):
        ModelSet((2, 0))
    with pytest.raises(ValueError):
        ModelSet((1, 1))
    with pytest.raises(ValueError):
        ModelSet((-1, 0))


def test_model_set_from_unordered_sorts_and_dedups():
    assert ModelSet.from_unordered([5, 0, 2, 0]).indices == (0, 2, 5)
    assert ModelSet.from_unordered([]).indices == ()


def test_ols_fit_line():
    # intercept + slope through (0,0),(1,1),(2,2): exactly (0, 1)
    beta = ols_fit(LINE, ModelSet((0, 1)), [0.0, 1.0, 2.0])
    np.testing.assert_allclose(beta, [0.0, 1.0], atol=1e-12)


def test_ols_fit_empty_model():
    assert ols_fit(LINE, ModelSet(), [0.0, 1.0, 2.0]).shape == (0,)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ols_fit_matches_lstsq(seed):
    gen = np.random.default_rng(seed)
    X = DesignMatrix(gen.standard_normal((30, 6)))
    y = gen.standard_normal(30)
    M = ModelSet((0, 2, 3, 5))
    ref, *_ = np.linalg.lstsq(X.submatrix(M), y, rcond=None)
    np.testing.assert_allclose(ols_fit(X, M, y), ref, rtol=1e-10)


def test_ols_fit_dimension_errors():
    with pytest.raises(DimensionMismatch):
        ols_fit(LINE, ModelSet((0, 1)), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ols_fit(LINE, ModelSet((0, 7)), [0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0]])
def test_response_must_be_finite(bad):
    with pytest.raises(ValueError):
        as_response(bad, 3)
    with pytest.raises(ValueError):
        ols_fit(LINE, ModelSet((0, 1)), bad)


def test_response_must_be_a_vector_of_length_n():
    np.testing.assert_array_equal(as_response([1, 2, 3], 3), [1.0, 2.0, 3.0])
    for bad in ([[1.0], [2.0], [3.0]], [1.0, 2.0], 1.0):
        with pytest.raises(DimensionMismatch):
            as_response(bad, 3)


def test_submodel_fit_serves_every_response_from_one_factorization(svd_calls):
    gen = np.random.default_rng(5)
    X = DesignMatrix(gen.standard_normal((20, 5)))
    M = ModelSet((1, 2, 4))
    y, mu = gen.standard_normal(20), gen.standard_normal(20)
    fit = SubmodelFit(X, M)
    coef, tgt, se = fit.coefficients(y), fit.coefficients(mu), fit.stderrs(2.0)
    assert svd_calls == [(20, 3)]
    np.testing.assert_array_equal(coef, ols_fit(X, M, y))
    np.testing.assert_array_equal(tgt, target_coefficients(X, M, mu))
    np.testing.assert_array_equal(se, stderr_known_sigma(X, M, 2.0))


def test_ols_fit_rank_deficient():
    X = DesignMatrix([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficient):
        ols_fit(X, ModelSet((0, 1)), [1.0, 2.0, 3.0])


def test_target_coefficients_projection():
    # projecting mu = (0,1,2) onto the all-ones column: <1,mu>/||1||^2 = 1
    t = target_coefficients(LINE, ModelSet((0,)), [0.0, 1.0, 2.0])
    np.testing.assert_allclose(t, [1.0], atol=1e-14)


def test_target_equals_fit_on_same_vector():
    gen = np.random.default_rng(7)
    X = DesignMatrix(gen.standard_normal((15, 4)))
    y = gen.standard_normal(15)
    M = ModelSet((1, 3))
    np.testing.assert_array_equal(target_coefficients(X, M, y), ols_fit(X, M, y))


def test_stderr_known_sigma_line():
    se = stderr_known_sigma(LINE, ModelSet((0, 1)), 1.0)
    # (X^T X)^{-1} = [[5,-3],[-3,3]]/6, so the slope variance is 1/2
    np.testing.assert_allclose(se[1], 1.0 / np.sqrt(2.0), rtol=1e-12)
    ref = np.sqrt(np.diag(np.linalg.inv(LINE.entries.T @ LINE.entries)))
    np.testing.assert_allclose(se, ref, rtol=1e-12)


def test_stderr_scales_with_sigma():
    se1 = stderr_known_sigma(LINE, ModelSet((0, 1)), 1.0)
    se3 = stderr_known_sigma(LINE, ModelSet((0, 1)), 3.0)
    np.testing.assert_allclose(se3, 3.0 * se1, rtol=1e-14)
    with pytest.raises(ValueError):
        stderr_known_sigma(LINE, ModelSet((0,)), 0.0)


def test_sigma_hat_full_model():
    X = DesignMatrix([[1.0], [1.0], [1.0]])
    sig, dof = sigma_hat_full_model(X, [0.0, 0.0, 3.0])
    # fit is ybar = 1, residuals (-1,-1,2), RSS = 6, dof = 2
    assert dof == 2
    np.testing.assert_allclose(sig, np.sqrt(3.0), rtol=1e-12)


def test_sigma_hat_needs_extra_samples():
    with pytest.raises(InsufficientSamples):
        sigma_hat_full_model(DesignMatrix([[1.0, 0.0], [0.0, 1.0]]), [1.0, 2.0])
