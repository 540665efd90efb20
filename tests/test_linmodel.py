"""Design/model containers and the OLS layer against closed-form and
numpy.linalg.lstsq oracles."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from stableci.errors import (DimensionMismatch, InsufficientSamples,
                             RankDeficient)
from stableci.linmodel import (RANK_TOL, DesignMatrix, DesignStack, ModelSet, SubmodelFit,
                               as_response, ols_fit, sigma_hat_full_model,
                               stderr_known_sigma, target_coefficients)

from oracles import sigma_hat, sigma_hat_qr, sigma_hat_svd

LINE = DesignMatrix([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])


def test_design_matrix_norms():
    X = DesignMatrix([[3.0, 0.0], [4.0, -5.0]])
    assert X.n == 2 and X.d == 2
    np.testing.assert_allclose(X.stack.col_norms[0], [5.0, 5.0])
    assert X.stack.l2inf[0] == 5.0
    assert X.stack.linf[0] == 5.0
    # the largest magnitude is a negative entry
    assert DesignMatrix([[1.0, -7.5], [2.0, 0.5]]).stack.linf[0] == 7.5


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


def test_design_matrix_rejects_all_zero():
    with pytest.raises(ValueError, match="nonzero"):
        DesignMatrix(np.zeros((3, 2)))


@pytest.mark.parametrize("entry", [1e200, 1e-200])
def test_design_matrix_rejects_column_norm_out_of_range(entry):
    # finite entries whose column norm overflows to inf or underflows to 0
    with pytest.raises(ValueError, match="rescale the design"):
        DesignMatrix([[entry, entry], [entry, 0.0]])
    assert DesignMatrix([[1e154, 1.0], [0.0, 1.0]]).stack.l2inf[0] == 1e154


@pytest.mark.parametrize("entry", [1e200, 1e-200])
def test_design_matrix_norm_out_of_range_raises_without_a_warning(entry):
    # the design's own error is the only report; numpy's overflow warning
    # would print a numpy source line above it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rescale the design"):
            DesignMatrix([[entry, entry], [entry, 0.0]])


@pytest.mark.parametrize("defect", ["nan", "all-zero", "norm-overflow"])
def test_design_stack_check_raises_the_design_matrix_message(defect):
    # a block's designs are checked once, as one stack: the first bad
    # trial's error is DesignMatrix's for that design, word for word, and
    # no numpy warning comes first
    stack = np.random.default_rng(1).standard_normal((4, 6, 3))
    if defect == "nan":
        stack[1, 2, 0] = np.nan
    elif defect == "all-zero":
        stack[1] = 0.0
    else:  # finite entries whose column norm overflows; trial 3's underflows
        stack[1, :, 2], stack[3] = 1e200, 1e-200
    with pytest.raises(ValueError) as want:
        DesignMatrix(stack[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as got:
            DesignStack.checked(stack)
    assert str(got.value) == str(want.value)
    DesignStack.checked(np.delete(stack, [1, 3], axis=0))  # the other trials pass


def test_design_stack_norms_are_each_design_matrix_norms():
    stack = np.random.default_rng(2).standard_normal((5, 7, 4))
    X = DesignStack.checked(stack)
    for b in range(5):
        one = DesignMatrix(stack[b])
        assert X.col_norms[b].tobytes() == one.stack.col_norms[0].tobytes()
        assert (X.l2inf[b], X.linf[b]) == (one.stack.l2inf[0], one.stack.linf[0])
    shared = one.stack.broadcast(3)
    assert shared.entries.shape == (3, 7, 4) and shared.entries.strides[0] == 0
    assert shared.entries[1].tobytes() == one.entries.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 20, 301])
@pytest.mark.parametrize("n", [1, 2, 7, 5000])
def test_design_stack_norms_are_numpy_norms_bit_for_bit(n, d):
    # the column norms are taken without a squared copy of the stack, yet
    # they are np.linalg.norm's to the last bit, also for entries near the
    # square roots of the largest and of the smallest normal double, whose
    # squares sum to near overflow or lose bits to underflow
    gen = np.random.default_rng([n, d])
    for trials in range(5):
        for stack in (gen.standard_normal((trials, n, d)),
                      gen.uniform(-1.0, 1.0, (trials, n, d)) * (1e154 / math.sqrt(n)),
                      gen.standard_normal((trials, n, d)) * 1e-154):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = DesignStack.checked(stack).col_norms
            assert got.tobytes() == np.linalg.norm(stack, axis=1).tobytes(), trials


@pytest.mark.parametrize("entry", [1e200, 1e-200])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_design_stack_norm_out_of_range_raises_without_a_warning_at_any_width(entry, d):
    stack = np.full((2, 3, d), entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rescale the design"):
            DesignStack.checked(stack)
    assert DesignStack.checked(np.zeros((0, 3, d))).col_norms.shape == (0, d)


def test_design_matrix_adopts_a_read_only_float64_array_and_copies_the_rest():
    a = np.random.default_rng(4).standard_normal((6, 3))
    a.setflags(write=False)
    assert DesignMatrix(a).entries is a
    # a writable array is copied and frozen, so the caller keeps it
    b = a.copy()
    X = DesignMatrix(b)
    assert not np.shares_memory(X.entries, b) and b.flags.writeable
    b[0, 0] = 0.0
    assert X.entries.tobytes() == a.tobytes() and not X.entries.flags.writeable
    # read-only but strided, or not float64: copied too
    for other in (a[:, ::2], a.astype(np.float32)):
        other.setflags(write=False)
        assert not np.shares_memory(DesignMatrix(other).entries, other)


def test_sigma_hat_of_a_stack_is_each_designs_and_flags_only_the_deficient_one():
    gen = np.random.default_rng(3)
    stack, Y = gen.standard_normal((3, 30, 5)), gen.standard_normal((3, 30))
    stack[1, :, 4] = stack[1, :, 0]
    sigma, dof, errors = sigma_hat_full_model(stack, Y)
    assert dof == 25 and list(errors) == [1]
    for b in (0, 2):
        one, _, none = sigma_hat_full_model(stack[b:b + 1], Y[b:b + 1])
        assert one[0] == sigma[b] and none == {}
    with pytest.raises(RankDeficient) as want:
        sigma_hat(DesignMatrix(stack[1]), Y[1])
    assert str(errors[1]) == str(want.value)


def _sigma_stack(shape: str):
    gen = np.random.default_rng(11)
    if shape == "shared":  # one design for every trial: regenerate_x_per_trial false
        return np.broadcast_to(gen.standard_normal((1, 100, 20)), (16, 100, 20)), \
            gen.standard_normal((16, 100))
    trials, n, d = {"sweep": (64, 100, 20), "n=d+1": (5, 21, 20), "collinear": (8, 60, 10),
                    # d + 1 > 128, LAPACK's crossover to dgeqrf's blocked
                    # code, whose R[d, d] on these trials differs in the
                    # last bits from the unblocked code's
                    "blocked": (4, 400, 140)}[shape]
    X, Y = gen.standard_normal((trials, n, d)), gen.standard_normal((trials, n))
    if shape == "collinear":
        X[3, :, 9] = 2.0 * X[3, :, 0]
    return X, Y


@pytest.mark.parametrize("shape", ["sweep", "shared", "n=d+1", "blocked", "collinear"])
def test_sigma_hat_is_numpy_qrs_bit_for_bit(shape):
    X, Y = _sigma_stack(shape)
    sigma, dof, errors = sigma_hat_full_model(X, Y)
    want, want_dof, want_errors = sigma_hat_qr(X, Y)
    assert sigma.tobytes() == want.tobytes() and dof == want_dof
    assert {b: (type(e), str(e)) for b, e in errors.items()} == \
        {b: (type(e), str(e)) for b, e in want_errors.items()}
    assert list(errors) == ([3] if shape == "collinear" else [])


def test_sigma_hat_holds_one_size_of_x_y():
    # [X y] is factored in place in one buffer, so the traced peak is that
    # buffer and LAPACK's workspace: about 1.06 sizes of [X y], where qr on
    # a concatenated copy held 2.03
    gen = np.random.default_rng(12)
    n, d = 4000, 100
    X, Y = gen.standard_normal((1, n, d)), gen.standard_normal((1, n))
    tracemalloc.start()
    try:
        sigma_hat_full_model(X, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * (d + 1) * 8, peak / (n * (d + 1) * 8)


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
    # a float or a bool was cast with int(): (1.7, 3.2) became (1, 3)
    for bad in [(1.7, 3.2), (True,), (0.9,), (2.0,), (np.float64(1.0),), (np.bool_(True),)]:
        with pytest.raises(ValueError, match="^feature index must be an integer"):
            ModelSet(bad)
        with pytest.raises(ValueError, match="^feature index must be an integer"):
            ModelSet.from_unordered(bad)
    M = ModelSet((np.int64(1), np.int32(4)))
    assert M.indices == (1, 4) and all(type(i) is int for i in M.indices)


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
    ref, *_ = np.linalg.lstsq(X.entries[:, list(M)], y, rcond=None)
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
    assert svd_calls == [(1, 20, 3)]  # a stack of one
    np.testing.assert_array_equal(coef, ols_fit(X, M, y))
    np.testing.assert_array_equal(tgt, target_coefficients(X, M, mu))
    np.testing.assert_array_equal(se, stderr_known_sigma(X, M, 2.0))


def test_ols_fit_rank_deficient():
    X = DesignMatrix([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficient):
        ols_fit(X, ModelSet((0, 1)), [1.0, 2.0, 3.0])


def test_more_columns_than_rows_is_rank_deficient():
    # the thin SVD of a 2 x 3 submatrix has two nonzero singular values,
    # but three coefficients are not identified by two rows
    X = DesignMatrix([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
    with pytest.raises(RankDeficient, match=r"columns \(0, 1, 2\): 3 columns on 2 rows"):
        ols_fit(X, ModelSet((0, 1, 2)), [1.0, 2.0])


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
    sig, dof = sigma_hat(X, [0.0, 0.0, 3.0])
    # fit is ybar = 1, residuals (-1,-1,2), RSS = 6, dof = 2
    assert dof == 2
    np.testing.assert_allclose(sig, np.sqrt(3.0), rtol=1e-12)


def test_sigma_hat_needs_extra_samples():
    with pytest.raises(InsufficientSamples) as got:
        sigma_hat(DesignMatrix([[1.0, 0.0], [0.0, 1.0]]), [1.0, 2.0])
    with pytest.raises(InsufficientSamples) as want:
        sigma_hat_qr(np.eye(2)[None], np.array([[1.0, 2.0]]))
    assert str(got.value) == str(want.value)


def _cond_1e8(gen, n: int, d: int) -> np.ndarray:
    U, _, Vt = np.linalg.svd(gen.standard_normal((n, d)), full_matrices=False)
    return (U * np.logspace(0, -8, d)) @ Vt


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", ["random", "n=d+1", "cond-1e8"])
def test_sigma_hat_matches_the_svd_oracle(shape, seed):
    gen = np.random.default_rng(seed)
    n, d = (9, 8) if shape == "n=d+1" else (60, 8)
    if shape == "cond-1e8":
        # noise off the column space keeps the coefficients of order one, so
        # the estimate is well-conditioned although the design is not
        A = _cond_1e8(gen, n, d)
        g = gen.standard_normal(n)
        Q = np.linalg.qr(A)[0]
        noise = g - Q @ (Q.T @ g)
    else:
        A = gen.standard_normal((n, d))
        noise = gen.standard_normal(n)
    X, y = DesignMatrix(A), A @ gen.standard_normal(d) + noise
    got, dof = sigma_hat(X, y)
    want, want_dof = sigma_hat_svd(X, y)
    assert dof == want_dof == n - d
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(4))
def test_sigma_hat_on_an_ill_conditioned_fit_is_as_good_as_the_svd_oracle(seed):
    # with generic noise the coefficients reach ~1e8 on a cond-1e8 design,
    # and any backward-stable method may move the RSS by about
    # eps * ||X|| * ||beta|| / ||r|| relative: both estimates, not just one,
    # land ~1e-11 from the exact value, so they are held to that bound
    # around a 60-digit reference instead of 1e-12 around each other
    mpmath = pytest.importorskip("mpmath")
    gen = np.random.default_rng(seed)
    n, d = 60, 8
    A = _cond_1e8(gen, n, d)
    y = A @ gen.standard_normal(d) + gen.standard_normal(n)
    with mpmath.workdps(60):
        M, Y = mpmath.matrix(A.tolist()), mpmath.matrix(y.tolist())
        beta = mpmath.lu_solve(M.T * M, M.T * Y)
        r = Y - M * beta
        exact = float(mpmath.norm(r) / mpmath.sqrt(n - d))
        bound = float(np.finfo(float).eps * np.linalg.norm(A, 2) * mpmath.norm(beta)
                      / mpmath.norm(r))
    for estimate in (sigma_hat, sigma_hat_svd):
        assert abs(estimate(DesignMatrix(A), y)[0] - exact) <= bound * exact, estimate


@pytest.mark.parametrize("defect", ["duplicated", "scaled-1e-12", "zero", "near-copy-1e-12"])
def test_sigma_hat_flags_what_the_svd_oracle_flags(defect):
    # the near copy is what a rank check on X^T X cannot read: it squares the
    # ratio to 1e-24, far below rounding
    gen = np.random.default_rng(5)
    A = gen.standard_normal((40, 6))
    A[:, 4] = {"duplicated": A[:, 1], "scaled-1e-12": 1e-12 * A[:, 4], "zero": 0.0,
               "near-copy-1e-12": A[:, 1] + 1e-12 * A[:, 4]}[defect]
    X, y = DesignMatrix(A), gen.standard_normal(40)
    ratios = []
    for estimate in (sigma_hat, sigma_hat_svd):
        with pytest.raises(RankDeficient) as e:
            estimate(X, y)
        m = re.fullmatch(r"columns \(0, 1, 2, 3, 4, 5\): "
                         r"singular value ratio (\S+) below 1\.0e-10", str(e.value))
        assert m, str(e.value)
        ratios.append(float(m[1]))
    assert max(ratios) <= RANK_TOL
    if defect.endswith("1e-12"):  # a ratio well above rounding: both read the same one
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-2)


def test_sigma_hat_keeps_a_near_copy_above_the_cutoff():
    # singular value ratio ~5e-9, above RANK_TOL: the SVD oracle fits it, and
    # so must the QR estimate (X^T X, of condition ~4e16, is not numerically
    # positive definite here, so a Cholesky of it fails)
    gen = np.random.default_rng(0)
    A = gen.standard_normal((40, 6))
    A[:, 4] = A[:, 1] + 1e-8 * A[:, 4]
    X, y = DesignMatrix(A), gen.standard_normal(40)
    # generic noise on a cond-2e8 fit: the two agree to ~cond * eps
    np.testing.assert_allclose(sigma_hat(X, y), sigma_hat_svd(X, y), rtol=1e-7)
