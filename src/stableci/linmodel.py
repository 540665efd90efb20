"""Deterministic linear-model algebra on submodels.

Least squares restricted to a column subset, factored once per submodel and
serving estimates, projection-defined targets, and the standard errors that
interval construction multiplies by. Nothing here draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, RankDeficient

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

    def submatrix(self, model: "ModelSet") -> np.ndarray:
        return self.entries[:, list(model.indices)]

    def __repr__(self):
        return f"DesignMatrix(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class ModelSet:
    """Strictly increasing tuple of selected feature indices; may be empty."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError(f"negative feature index in {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_unordered(cls, indices) -> "ModelSet":
        return cls(tuple(sorted(set(int(i) for i in indices))))

    def __len__(self):
        return len(self.indices)

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
    if not np.all(np.isfinite(y)):
        raise ValueError("response entries must be finite")
    return y


class SubmodelFit:
    """Least squares on the columns M of X, factored once.

    One thin SVD of X_M, rank-checked, serves the coefficients X_M^+ v for
    any response v (the data y, or the mean mu for projection targets) and
    the standard errors. Raises RankDeficient when the smallest singular
    value falls below RANK_TOL relative to the largest, DimensionMismatch
    for an index out of range. The empty model has no columns to factor.
    """

    def __init__(self, X: DesignMatrix, M: ModelSet):
        if len(M) and max(M.indices) >= X.d:
            raise DimensionMismatch(f"model index {max(M.indices)} out of range for d={X.d}")
        self.model = M
        self.n = X.n
        if len(M) == 0:
            self._U, self._s, self._Vt = np.zeros((X.n, 0)), np.zeros(0), np.zeros((0, 0))
            return
        U, s, Vt = np.linalg.svd(X.submatrix(M), full_matrices=False)
        if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
            raise RankDeficient(
                f"columns {M.indices}: singular value ratio "
                f"{0.0 if s[0] == 0 else s[-1] / s[0]:.3e} below {RANK_TOL:.1e}"
            )
        self._U, self._s, self._Vt = U, s, Vt

    def coefficients(self, v) -> np.ndarray:
        """The |M|-vector (X_M^T X_M)^{-1} X_M^T v."""
        v = as_response(v, self.n)
        return self._Vt.T @ ((self._U.T @ v) / self._s)

    def stderrs(self, sigma: float) -> np.ndarray:
        """Per-coefficient sigma * sqrt(diag((X_M^T X_M)^{-1}))."""
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        # diag of (X^T X)^{-1} = rowwise sum of (V / s)^2
        inv_diag = ((self._Vt.T / self._s) ** 2).sum(axis=1)
        return sigma * np.sqrt(inv_diag)


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

    Requires n > d and a full-rank design; raises InsufficientSamples
    otherwise.
    """
    if X.n <= X.d:
        raise InsufficientSamples(f"need n > d for the full-model estimate, got n={X.n}, d={X.d}")
    y = as_response(y, X.n)
    beta = ols_fit(X, ModelSet(tuple(range(X.d))), y)
    rss = float(np.sum((y - X.entries @ beta) ** 2))
    dof = X.n - X.d
    return float(np.sqrt(rss / dof)), dof
