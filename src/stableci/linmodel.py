"""Deterministic linear-model algebra on submodels.

Least squares restricted to a column subset, factored once per submodel and
serving estimates, projection-defined targets, and the standard errors that
interval construction multiplies by. Submodels of one size are factored as a
stack, by one stacked SVD; a single submodel is a stack of one. The
full-model noise estimate needs no fit, only the residual norm and the
design's singular values, and takes both from an R-only QR of [X y].
Nothing here draws randomness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, RankDeficient, check_number

# Relative singular-value cutoff below which a submatrix counts as
# rank-deficient.
RANK_TOL = 1e-10


class DesignMatrix:
    """Fixed n x d design with cached column norms.

    Parameters
    ----------
    entries : array_like, shape (n, d)
        Feature matrix. Copied, cast to float64, and frozen; must be finite
        with at least one nonzero entry, and its largest column norm must be
        finite and nonzero in float64.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise DimensionMismatch(f"design must be 2-D, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch(f"design must be at least 1x1, got {a.shape}")
        # max and min propagate NaN, so both are finite iff every entry is;
        # neither reduction allocates an n x d temporary
        hi, lo = float(a.max()), float(a.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("design entries must be finite")
        if hi == 0.0 and lo == 0.0:
            raise ValueError("design has no nonzero entry")
        a.setflags(write=False)
        self.entries = a
        self.n, self.d = a.shape
        # an overflowing or underflowing norm is rejected below, not warned about
        with np.errstate(over="ignore", under="ignore"):
            self.col_norms = np.linalg.norm(a, axis=0)
        self.col_norms.setflags(write=False)
        # max_i ||X_i||_2 and max |X_ij|, the two norms noise scales use
        self.l2inf_norm = float(self.col_norms.max())
        # finite entries can still overflow or underflow a column norm
        if not (0.0 < self.l2inf_norm < math.inf):
            raise ValueError(f"largest design column norm is {self.l2inf_norm}; rescale the design")
        self.linf_norm = max(hi, -lo)

    def __repr__(self):
        return f"DesignMatrix(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class ModelSet:
    """Strictly increasing tuple of selected feature indices; may be empty."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(self.indices)
        if not all(type(i) is int for i in idx):  # numpy integers pass; 2.0 and True do not
            for i in idx:
                check_number("feature index", i, integer=True)
            idx = tuple(int(i) for i in idx)
        if any(i < 0 for i in idx):
            raise ValueError(f"negative feature index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_unordered(cls, indices) -> "ModelSet":
        return cls(tuple(sorted(set(indices))))

    def __len__(self):
        return len(self.indices)

    def columns(self, d: int) -> np.ndarray:
        """The indices as an array; DimensionMismatch if one is not below d."""
        if self.indices and self.indices[-1] >= d:
            raise DimensionMismatch(f"model index {self.indices[-1]} out of range for d={d}")
        return np.array(self.indices, dtype=np.int64)

    def __iter__(self):
        return iter(self.indices)


def as_response(y, n: int) -> np.ndarray:
    """y as a float64 vector, checked to be 1-D, of length n and finite.

    Raises DimensionMismatch for a wrong shape or length and ValueError for
    a NaN or infinite entry.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise DimensionMismatch(f"response must be a vector of length n={n}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("response entries must be finite")
    return y


def _collinear(M: tuple[int, ...], s: np.ndarray) -> RankDeficient | None:
    """The RankDeficient error for the columns M of a matrix with descending
    singular values s, or None: the matrix is rank-deficient when its
    smallest singular value is at most RANK_TOL times its largest, as a
    zero matrix's is."""
    if s[-1] > RANK_TOL * s[0]:
        return None
    return RankDeficient(f"columns {M}: singular value ratio "
                         f"{0.0 if s[0] == 0 else s[-1] / s[0]:.3e} below {RANK_TOL:.1e}")


class SubmodelFits:
    """Least squares on the columns cols[p] of the design designs[trial[p]]
    for a stack of pairs p that share n and the model size (cols has one row
    per pair), all factored by one stacked thin SVD of the submatrices.

    The factorization serves the coefficients X_M^+ v for a stack of
    responses (the data y, or the mean mu for projection targets) and the
    standard errors. Each pair gets exactly what a stack of one gives it.
    A pair with more columns than rows, or whose smallest singular value
    falls below RANK_TOL relative to its largest, is rank-deficient:
    deficient[p] is set, rank_error(p) returns its error, and its other
    results are meaningless. The empty model has no columns to factor.
    """

    def __init__(self, designs: Sequence[DesignMatrix], trial: np.ndarray, cols: np.ndarray):
        n = designs[0].n
        count, size = cols.shape
        self.trial, self.cols, self.n = trial, cols, n
        if size == 0:
            self._U, self._s, self._V = np.zeros((count, n, 0)), np.zeros((count, 0)), \
                np.zeros((count, 0, 0))
            self.deficient = np.zeros(count, dtype=bool)
            return
        sub = np.empty((count, n, size))
        for p, (b, M) in enumerate(zip(trial.tolist(), cols)):
            # mode="clip" writes straight into sub (the indices are in range)
            designs[b].entries.take(M, axis=1, out=sub[p], mode="clip")
        U, s, Vt = np.linalg.svd(sub, full_matrices=False)
        self._singular = s
        self.deficient = s[:, -1] <= RANK_TOL * s[:, 0]  # so is a zero matrix: all its s are 0
        if size > n:  # a thin SVD of more columns than rows has only n singular values
            self.deficient[:] = True
        if self.deficient.any():  # divide by 1 instead of a vanishing singular value
            s = np.where(self.deficient[:, None], 1.0, s)
        self._U, self._s, self._V = U, s, Vt.transpose(0, 2, 1)

    def rank_error(self, p: int) -> RankDeficient | None:
        if not self.deficient[p]:
            return None
        M, s = tuple(self.cols[p].tolist()), self._singular[p]
        if len(M) > self.n:
            return RankDeficient(f"columns {M}: {len(M)} columns on {self.n} rows")
        return _collinear(M, s)

    def coefficients(self, V: np.ndarray) -> np.ndarray:
        """Row p is the |M|-vector (X_M^T X_M)^{-1} X_M^T V[p] of pair p;
        V is a stack of responses of length n."""
        Ut_v = np.matmul(self._U.transpose(0, 2, 1), V[:, :, None])[:, :, 0]
        return np.matmul(self._V, (Ut_v / self._s)[:, :, None])[:, :, 0]

    def stderrs(self) -> np.ndarray:
        """Row p is sqrt(diag((X_M^T X_M)^{-1})) of pair p: its standard
        errors at noise scale 1."""
        # diag of (X^T X)^{-1} = rowwise sum of (V / s)^2
        return np.sqrt(((self._V / self._s[:, None, :]) ** 2).sum(axis=2))


class SubmodelFit:
    """Least squares on the columns M of X, factored once: a stack of one
    SubmodelFits (fits, if already factored). Raises DimensionMismatch for
    an index out of range, RankDeficient for collinear or too many columns."""

    def __init__(self, X: DesignMatrix, M: ModelSet, fits: SubmodelFits | None = None):
        self._fits = fits or SubmodelFits([X], np.zeros(1, dtype=np.int64), M.columns(X.d)[None])
        error = self._fits.rank_error(0)
        if error is not None:
            raise error
        self.model = M
        self.n = X.n

    def coefficients(self, v) -> np.ndarray:
        """The |M|-vector (X_M^T X_M)^{-1} X_M^T v."""
        return self._fits.coefficients(as_response(v, self.n)[None])[0]

    def stderrs(self, sigma: float) -> np.ndarray:
        """Per-coefficient sigma * sqrt(diag((X_M^T X_M)^{-1}))."""
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        return sigma * self._fits.stderrs()[0]


def ols_fit(X: DesignMatrix, M: ModelSet, y) -> np.ndarray:
    """Least-squares coefficients of y on the columns of X indexed by M;
    empty M gives an empty vector."""
    return SubmodelFit(X, M).coefficients(y)


def target_coefficients(X: DesignMatrix, M: ModelSet, mu) -> np.ndarray:
    """Projection-defined targets X_M^+ mu for the submodel M; the same
    code path as ols_fit, so the two agree exactly when mu = y."""
    return SubmodelFit(X, M).coefficients(mu)


def stderr_known_sigma(X: DesignMatrix, M: ModelSet, sigma: float) -> np.ndarray:
    """Per-coefficient standard errors sigma * sqrt(diag((X_M^T X_M)^{-1}))."""
    return SubmodelFit(X, M).stderrs(sigma)


def sigma_hat_full_model(X: DesignMatrix, y) -> tuple[float, int]:
    """Full-model residual noise estimate (sigma_hat, dof = n - d).

    One R-only Householder QR of [X y]: its last diagonal entry R[d, d] is
    the norm of y's residual off the span of X, so RSS = R[d, d]**2, and the
    singular values of the d x d block R[:d, :d] are X's. Raises
    RankDeficient when the smallest of them is at most RANK_TOL times the
    largest, the rule SubmodelFits applies to every submodel, and
    InsufficientSamples unless n > d.
    """
    if X.n <= X.d:
        raise InsufficientSamples(f"need n > d for the full-model estimate, got n={X.n}, d={X.d}")
    y = as_response(y, X.n)
    d = X.d
    R = np.linalg.qr(np.column_stack([X.entries, y]), mode="r")
    error = _collinear(tuple(range(d)), np.linalg.svd(R[:d, :d], compute_uv=False))
    if error is not None:
        raise error
    dof = X.n - d
    return float(np.sqrt(R[d, d] ** 2 / dof)), dof
